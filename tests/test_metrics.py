"""Confusion-count metrics, hit@k, and micro/macro aggregation."""

import numpy as np
import pytest

from hierembed.metrics import (
    ConfusionCounts,
    accuracy,
    aggregate,
    f1_score,
    hit_at_k,
    level_accuracy,
    micro_f1,
    multilabel_counts,
    precision_recall_f1,
    tpr_tnr,
)


class TestPrecisionRecallF1:
    def test_perfect(self):
        assert precision_recall_f1(ConfusionCounts(tp=5)) == (1.0, 1.0, 1.0)

    def test_zero_denominator_convention(self):
        assert precision_recall_f1(ConfusionCounts(fn=5)) == (0.0, 0.0, 0.0)

    def test_three_quarters(self):
        p, r, f1 = precision_recall_f1(ConfusionCounts(tp=3, fp=1, fn=1))
        assert (p, r, f1) == (0.75, 0.75, 0.75)


class TestTprTnr:
    def test_all_positives_found(self):
        assert tpr_tnr(ConfusionCounts(tp=7, fn=0, tn=1))[0] == 1.0

    def test_all_negatives_rejected(self):
        assert tpr_tnr(ConfusionCounts(tn=9, fp=0, tp=1))[1] == 1.0

    def test_mixed(self):
        assert tpr_tnr(ConfusionCounts(tp=8, fn=2, tn=99, fp=1)) == (0.8, 0.99)


class TestHitAtK:
    def test_perfect_top1(self):
        rankings = [["a", "b"], ["c", "a"]]
        assert hit_at_k(rankings, ["a", "c"], 1) == 1.0

    def test_k_equal_class_count(self):
        labels = ["a", "b", "c", "d"]
        rng = np.random.default_rng(0)
        rankings = [list(rng.permutation(labels)) for _ in range(30)]
        truth = [labels[i % 4] for i in range(30)]
        assert hit_at_k(rankings, truth, 4) == 1.0

    def test_half(self):
        rankings = [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"], ["c", "b", "a"]]
        truth = ["a", "a", "a", "a"]
        # 'a' in top-2 for rows 0 and 2... row2 top2 = c,a -> hit; row3 top2 = c,b -> miss
        assert hit_at_k(rankings, truth, 2) == 0.5

    def test_k_beyond_ranking_clamped(self):
        assert hit_at_k([["a", "b"]], ["b"], 10) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        labels = list("abcdefgh")
        rankings = [list(rng.permutation(labels)) for _ in range(50)]
        truth = [labels[int(rng.integers(8))] for _ in range(50)]
        vals = [hit_at_k(rankings, truth, k) for k in range(1, 9)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            hit_at_k([["a"]], ["a"], 0)


class TestLevelAccuracy:
    def test_counts_per_level_and_overall(self):
        pred = np.array([["a", "b", "c"], ["a", "x", "c"], ["y", "x", "z"]], dtype=object)
        truth = np.array([["a", "b", "c"], ["a", "b", "c"], ["a", "b", "c"]], dtype=object)
        assert level_accuracy(pred, truth) == ((2 / 3, 1 / 3, 2 / 3), 5 / 9)

    @pytest.mark.parametrize("n", [1, 3, 7, 10, 49, 1000])
    def test_equals_mean_of_hits(self, n):
        rng = np.random.default_rng(n)
        pred = rng.integers(3, size=(n, 4)).astype(str).astype(object)
        truth = rng.integers(3, size=(n, 4)).astype(str).astype(object)
        per_level, overall = level_accuracy(pred, truth)
        hits = pred == truth
        assert per_level == tuple(float(np.mean(hits[:, i])) for i in range(4))
        assert overall == float(np.mean(hits))

    def test_no_rows(self):
        empty = np.empty((0, 3), dtype=object)
        assert level_accuracy(empty, empty) == ((0.0, 0.0, 0.0), 0.0)


class TestAggregate:
    def test_identical_counts_macro_equals_micro(self):
        counts = [ConfusionCounts(3, 1, 5, 1)] * 4
        assert aggregate(counts, "macro") == pytest.approx(aggregate(counts, "micro"))

    def test_dominant_label_diverges(self):
        # one big accurate label, one tiny inaccurate label:
        # micro follows the big one, macro is dragged down
        counts = [ConfusionCounts(tp=90, fp=5, fn=5), ConfusionCounts(tp=0, fp=5, fn=5)]
        micro = aggregate(counts, "micro")
        macro = aggregate(counts, "macro")
        assert micro > macro

    def test_single_label(self):
        c = [ConfusionCounts(tp=2, fp=1, fn=1)]
        assert aggregate(c, "micro") == aggregate(c, "macro") == f1_score(c[0])

    def test_other_metric(self):
        counts = [ConfusionCounts(tp=1, tn=1), ConfusionCounts(tp=0, tn=1, fp=1, fn=1)]
        assert aggregate(counts, "micro", metric=accuracy) == pytest.approx(3 / 5)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            aggregate([ConfusionCounts()], "median")

    def test_empty(self):
        with pytest.raises(ValueError):
            aggregate([], "micro")


class TestMultilabel:
    def test_counts_and_micro(self):
        pred = np.array([[1, 0], [1, 1], [0, 0]], dtype=bool)
        truth = np.array([[1, 0], [0, 1], [0, 1]], dtype=bool)
        counts = multilabel_counts(pred, truth)
        assert counts[0].tp == 1 and counts[0].fp == 1
        assert counts[1].tp == 1 and counts[1].fn == 1
        assert micro_f1(pred, truth) == pytest.approx(
            aggregate(counts, "micro")
        )

    def test_micro_f1_of_single_label_decisions_is_accuracy(self):
        rng = np.random.default_rng(3)
        n, k = 50, 6
        truth_idx = rng.integers(k, size=n)
        pred_idx = truth_idx.copy()
        flip = rng.random(n) < 0.3
        pred_idx[flip] = (pred_idx[flip] + 1) % k
        pred = np.zeros((n, k), bool)
        truth = np.zeros((n, k), bool)
        pred[np.arange(n), pred_idx] = True
        truth[np.arange(n), truth_idx] = True
        acc = float(np.mean(pred_idx == truth_idx))
        assert micro_f1(pred, truth) == pytest.approx(acc)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pred = rng.random((10, 4)) < 0.5
            truth = rng.random((10, 4)) < 0.5
            counts = multilabel_counts(pred, truth)
            for mode in ("micro", "macro"):
                v = aggregate(counts, mode)
                assert 0.0 <= v <= 1.0
