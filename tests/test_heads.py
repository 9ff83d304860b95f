"""Classifier heads: losses, probabilities, thresholds, imbalance.

Marginalization and hierarchical-softmax probabilities are checked
against brute-force oracles (explicit descendant sums and root-to-leaf
path products); every loss gradient is checked against central finite
differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierembed.heads import (
    ClassifierConfig,
    HeadError,
    HierarchyIndex,
    ImbalancePolicy,
    LinearClassifier,
    _batchify,
    _grouped_rows,
    _label_ids,
    _sigmoid,
    _targets,
    hab_loss,
    head_loss,
    head_width,
    hs_loss,
    hs_predict,
    hs_probabilities,
    mc_loss,
    mc_probabilities,
    mplc_loss,
    mplc_predict,
    plc_loss,
    predict_levels,
    predict_sets,
    select_thresholds,
    train_linear_classifier,
)
from hierembed.hierarchy import Hierarchy, Node, generate_synthetic_tree
from test_hierarchy import ref_leaf_descendants, uneven_forests
from test_training import scan_best_threshold


@pytest.fixture(scope="module")
def tree():
    return generate_synthetic_tree(3, 2)  # 1 + 2 + 4 nodes


@pytest.fixture(scope="module")
def index(tree):
    return HierarchyIndex(tree)


@pytest.fixture(scope="module")
def tree423():
    return generate_synthetic_tree(4, 2)


def leaf_tau(index, leaf_id):
    """Per-level positions of the path ending at leaf_id."""
    h = index.h
    path = [leaf_id]
    while h.parent(path[0]) is not None:
        path.insert(0, h.parent(path[0]))
    return np.array([[index.pos_in_level[nid] for nid in path]])


class TestHabLoss:
    def test_zero_logit_true_label(self):
        loss, _ = hab_loss(np.zeros(4), np.array([1, 1, 1, 1]))
        assert loss == pytest.approx(math.log(2))

    def test_large_logit_true_label(self):
        loss, _ = hab_loss(np.full(3, 50.0), np.ones(3))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(HeadError):
            hab_loss(np.zeros(3), np.zeros(4))

    def test_gradient_fd(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        y = (rng.random(6) < 0.5).astype(float)
        _, g = hab_loss(x, y)
        fd = _fd(lambda z: hab_loss(z, y)[0], x)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)


def _fd(f, x, h=1e-5):
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2 * h)
    return out


class TestPlcLoss:
    def test_uniform_logits(self, index):
        # levels of size 1, 2, 4: losses ln1 + ln2 + ln4
        x = np.zeros(index.n_total)
        tau = np.array([[0, 0, 0]])
        loss, _ = plc_loss(x, tau, index)
        assert loss == pytest.approx(math.log(2) + math.log(4))

    def test_confident_correct(self, index):
        x = np.zeros(index.n_total)
        tau = np.array([[0, 1, 2]])
        for i, off in enumerate(index.level_offsets):
            x[off + tau[0, i]] = 60.0
        loss, _ = plc_loss(x, tau, index)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_label_out_of_range(self, index):
        with pytest.raises(HeadError):
            plc_loss(np.zeros(index.n_total), np.array([[0, 5, 0]]), index)

    def test_gradient_fd(self, index):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(index.n_total)
        tau = np.array([[0, 1, 3]])
        _, g = plc_loss(x, tau, index)
        fd = _fd(lambda z: plc_loss(z, tau, index)[0], x)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)

    def test_gradient_is_softmax_minus_onehot(self, index):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(index.n_total)
        tau = np.array([[0, 0, 1]])
        _, g = plc_loss(x, tau, index)
        off, size = index.level_offsets[2], index.level_sizes[2]
        seg = x[off : off + size]
        sm = np.exp(seg) / np.exp(seg).sum()
        sm[1] -= 1
        np.testing.assert_allclose(g[off : off + size], sm, rtol=1e-12)


class TestMarginalization:
    def test_parent_sums(self, index):
        # leaves ordered r.0.0, r.0.1, r.1.0, r.1.1; parents r.0, r.1
        logits = np.log(np.array([0.2, 0.3, 0.4, 0.1]))
        probs = mc_probabilities(logits, index)
        np.testing.assert_allclose(probs[1], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(probs[0], [1.0], atol=1e-12)

    def test_single_parent_of_all(self):
        nodes = [Node("p", 1, "p"), Node("a", 2, "a"), Node("b", 2, "b")]
        h = Hierarchy(nodes, [("p", "a"), ("p", "b")])
        idx = HierarchyIndex(h)
        probs = mc_probabilities(np.array([3.0, -1.0]), idx)
        np.testing.assert_allclose(probs[0], [1.0], atol=1e-12)

    def test_uniform_two_two(self, index):
        probs = mc_probabilities(np.zeros(4), index)
        np.testing.assert_allclose(probs[1], [0.5, 0.5], atol=1e-12)

    def test_brute_force_oracle(self, tree423):
        # level-i probability equals the sum of its leaf descendants' probs
        idx = HierarchyIndex(tree423)
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((5, idx.level_sizes[-1]))
        probs = mc_probabilities(logits, idx)
        p_leaf = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        for i, members in enumerate(idx.levels):
            for j, nid in enumerate(members):
                leaves = ref_leaf_descendants(tree423, nid)
                cols = [idx.pos_in_level[l] for l in leaves]
                np.testing.assert_allclose(
                    probs[i][:, j], p_leaf[:, cols].sum(axis=1), atol=1e-12
                )

    def test_normalization(self, tree423):
        idx = HierarchyIndex(tree423)
        rng = np.random.default_rng(4)
        probs = mc_probabilities(rng.standard_normal((7, idx.level_sizes[-1])), idx)
        for p in probs:
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_single_level_reduces_to_softmax_ce(self):
        nodes = [Node("a", 1, "a"), Node("b", 1, "b"), Node("c", 1, "c")]
        h = Hierarchy(nodes, [])
        idx = HierarchyIndex(h)
        x = np.array([0.5, -1.0, 2.0])
        tau = np.array([[2]])
        loss, grad = mc_loss(x, tau, idx)
        expected = -x[2] + np.log(np.exp(x).sum())
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_consistent_path_confident(self, index):
        x = np.full(4, -30.0)
        x[0] = 30.0  # all mass on leaf r.0.0
        tau = leaf_tau(index, "r.0.0")
        loss, _ = mc_loss(x, tau, index)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_gradient_fd(self, tree423):
        idx = HierarchyIndex(tree423)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(idx.level_sizes[-1])
        tau = leaf_tau(idx, tree423.level_members(4)[3])
        _, g = mc_loss(x, tau, idx)
        fd = _fd(lambda z: mc_loss(z, tau, idx)[0], x)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)


class TestMaskedPerLevel:
    def test_full_mask_equals_plc(self, index):
        # when every node at each level shares one parent the mask is the level
        nodes = [Node("p", 1, "p"), Node("a", 2, "a"), Node("b", 2, "b")]
        h = Hierarchy(nodes, [("p", "a"), ("p", "b")])
        idx = HierarchyIndex(h)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, idx.n_total))
        tau = np.array([[0, 1]] * 4)
        l1, g1 = mplc_loss(x, tau, idx)
        l2, g2 = plc_loss(x, tau, idx)
        assert l1 == pytest.approx(l2, abs=1e-12)
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_singleton_mask_zero_loss(self):
        nodes = [Node("p", 1, "p"), Node("c", 2, "c")]
        h = Hierarchy(nodes, [("p", "c")])
        idx = HierarchyIndex(h)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(idx.n_total)
        loss, grad = mplc_loss(x, np.array([[0, 0]]), idx)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_two_children_equal_logits(self, index):
        x = np.zeros(index.n_total)
        tau = leaf_tau(index, "r.0.1")
        loss, _ = mplc_loss(x, tau, index)
        # level1 has 1 node (ln 1), level2 two children (ln 2), level3 two children (ln 2)
        assert loss == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_inconsistent_target_rejected(self, index):
        # r.1.0 is not a child of r.0
        tau = np.array([[0, 0, index.pos_in_level["r.1.0"]]])
        with pytest.raises(HeadError):
            mplc_loss(np.zeros(index.n_total), tau, index)

    def test_gradient_fd(self, tree423):
        idx = HierarchyIndex(tree423)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(idx.n_total)
        tau = leaf_tau(idx, tree423.level_members(4)[5])
        _, g = mplc_loss(x, tau, idx)
        fd = _fd(lambda z: mplc_loss(z, tau, idx)[0], x)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)

    def test_predict_follows_parent(self, index):
        x = np.zeros(index.n_total)
        # strong level-2 signal for r.1; level-3 favors r.0.0 overall but the
        # mask forces a child of r.1
        x[index.level_offsets[1] + index.pos_in_level["r.1"]] = 10.0
        x[index.level_offsets[2] + index.pos_in_level["r.0.0"]] = 10.0
        x[index.level_offsets[2] + index.pos_in_level["r.1.1"]] = 5.0
        pred = mplc_predict(x, index)
        assert list(pred) == ["r", "r.1", "r.1.1"]

    def test_predict_tie_lowest_index(self, index):
        pred = mplc_predict(np.zeros(index.n_total), index)
        assert list(pred) == ["r", "r.0", "r.0.0"]

    def test_predicted_parent_without_children_rejected(self):
        nodes = [Node("a", 1, "a"), Node("b", 1, "b"), Node("a.0", 2, "a.0"), Node("a.1", 2, "a.1")]
        idx = HierarchyIndex(Hierarchy(nodes, [("a", "a.0"), ("a", "a.1")]))
        x = np.array([[2.0, 0.0, 0.5, 0.2], [0.0, 1.0, 0.5, 0.2]])  # row 2 picks b
        with pytest.raises(HeadError, match="predicted 'b' has no children at level 2"):
            mplc_predict(x, idx)


class TestHierarchicalSoftmax:
    def test_all_zero_logits_binary_tree(self, index):
        _, joint = hs_probabilities(np.zeros(index.n_total), index)
        np.testing.assert_allclose(joint, 0.25, atol=1e-12)

    def test_single_child_chain(self):
        h = generate_synthetic_tree(3, 1)
        idx = HierarchyIndex(h)
        conds, joint = hs_probabilities(np.array([7.0, -2.0, 3.0]), idx)
        for c in conds:
            np.testing.assert_allclose(c, 1.0, atol=1e-12)
        np.testing.assert_allclose(joint, 1.0, atol=1e-12)

    def test_joint_sums_to_one(self, tree423):
        idx = HierarchyIndex(tree423)
        rng = np.random.default_rng(9)
        _, joint = hs_probabilities(rng.standard_normal((6, idx.n_total)), idx)
        np.testing.assert_allclose(joint.sum(axis=1), 1.0, atol=1e-9)

    def test_brute_force_path_products(self, tree423):
        idx = HierarchyIndex(tree423)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(idx.n_total)
        conds, joint = hs_probabilities(x, idx)
        h = tree423
        for pos, leaf in enumerate(idx.levels[-1]):
            prob = 1.0
            nid = leaf
            while nid is not None:
                gi, gp = idx.group_of[nid]
                prob *= conds[gi][gp]
                nid = h.parent(nid)
            assert joint[pos] == pytest.approx(prob, abs=1e-12)

    def test_certain_path_zero_loss(self, index):
        x = np.zeros(index.n_total)
        tau = leaf_tau(index, "r.1.0")
        for i in range(index.level_count):
            nid = ["r", "r.1", "r.1.0"][i]
            gi, gp = index.group_of[nid]
            x[index.groups[gi].offset + gp] = 60.0
        loss, _ = hs_loss(x, tau, index)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_loss_is_neg_log_joint(self, tree423):
        idx = HierarchyIndex(tree423)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(idx.n_total)
        leaf = tree423.level_members(4)[2]
        tau = leaf_tau(idx, leaf)
        loss, _ = hs_loss(x, tau, idx)
        _, joint = hs_probabilities(x, idx)
        assert loss == pytest.approx(-math.log(joint[idx.pos_in_level[leaf]]), abs=1e-10)

    def test_gradient_only_on_path_groups(self, index):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(index.n_total)
        tau = leaf_tau(index, "r.0.1")
        _, g = hs_loss(x, tau, index)
        gi_off_path, _ = index.group_of["r.1.0"]  # group of r.1's children
        off = index.groups[gi_off_path].offset
        size = len(index.groups[gi_off_path].member_ids)
        np.testing.assert_allclose(g[off : off + size], 0.0, atol=1e-15)

    def test_inconsistent_path_rejected(self, index):
        tau = np.array(
            [[0, index.pos_in_level["r.0"], index.pos_in_level["r.1.0"]]]
        )
        with pytest.raises(HeadError):
            hs_loss(np.zeros(index.n_total), tau, index)

    def test_gradient_fd(self, tree423):
        idx = HierarchyIndex(tree423)
        rng = np.random.default_rng(13)
        x = rng.standard_normal(idx.n_total)
        tau = leaf_tau(idx, tree423.level_members(4)[7])
        _, g = hs_loss(x, tau, idx)
        fd = _fd(lambda z: hs_loss(z, tau, idx)[0], x)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-8)


class TestArgmaxShiftInvariance:
    def test_segment_constant_shift(self, index):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(index.n_total)
        base = mplc_predict(x, index)
        shifted = x.copy()
        off, size = index.level_offsets[1], index.level_sizes[1]
        shifted[off : off + size] += 7.3
        assert list(mplc_predict(shifted, index)) == list(base)

    def test_hs_group_shift(self, index):
        rng = np.random.default_rng(15)
        x = rng.standard_normal(index.n_total)
        base = hs_predict(x, index)
        g = index.groups[1]
        shifted = x.copy()
        shifted[g.offset : g.offset + len(g.member_ids)] += 4.2
        assert list(hs_predict(shifted, index)) == list(base)


class TestThresholds:
    def test_perfect_separation(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        targets = np.array([[1, 0], [1, 0], [1, 0]], dtype=bool)
        t = select_thresholds(scores, targets, "ofadb")
        pred = scores >= t[0]
        assert np.array_equal(pred, targets)

    def test_pcdb_shape(self):
        rng = np.random.default_rng(16)
        scores = rng.random((20, 5))
        targets = rng.random((20, 5)) < 0.3
        t = select_thresholds(scores, targets, "pcdb")
        assert t.shape == (5,)

    def test_empty_rejected(self):
        with pytest.raises(HeadError):
            select_thresholds(np.zeros((0, 3)), np.zeros((0, 3), bool), "ofadb")

    def test_ofadb_maximizes_micro_f1(self):
        from hierembed.metrics import micro_f1

        rng = np.random.default_rng(17)
        scores = rng.random((30, 4))
        targets = rng.random((30, 4)) < 0.4
        t = select_thresholds(scores, targets, "ofadb")[0]
        best = micro_f1(scores >= t, targets)
        for cand in np.unique(scores):
            assert micro_f1(scores >= cand, targets) <= best + 1e-12


def scan_select_thresholds(scores, targets, mode):
    """Reference: the edge-prediction scan, mirrored (``s >= t`` is ``-s <= -t``)."""
    def mirrored(s, y):
        return -scan_best_threshold(-s[y], -s[~y])[0]

    if mode == "ofadb":
        return np.array([mirrored(scores, targets)])
    return np.array([mirrored(scores[:, j], targets[:, j]) for j in range(scores.shape[1])])


@st.composite
def scored_targets(draw):
    """Scores (n, m) on a few values (long tie runs) or all distinct, and targets."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    tied = draw(st.booleans())
    pool = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) if tied else st.floats(0.0, 1.0)
    scores = draw(st.lists(pool, min_size=n * m, max_size=n * m, unique=not tied))
    targets = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    return np.reshape(scores, (n, m)), np.reshape(targets, (n, m))


class TestThresholdsMatchLoop:
    @pytest.mark.parametrize("mode", ["ofadb", "pcdb"])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tied", [False, True])
    def test_bit_identical(self, mode, seed, tied):
        rng = np.random.default_rng(seed)
        scores = rng.random((40, 7))
        if tied:  # few distinct values: long runs of equal scores
            scores = np.round(scores * 3) / 3
        targets = rng.random((40, 7)) < [0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0]
        got = select_thresholds(scores, targets, mode)
        assert got.tobytes() == scan_select_thresholds(scores, targets, mode).tobytes()

    @pytest.mark.parametrize("mode", ["ofadb", "pcdb"])
    @settings(max_examples=200, deadline=None)
    @given(scored_targets())
    def test_mirrored_scan(self, mode, case):
        scores, targets = case
        got = select_thresholds(scores, targets, mode)
        assert got.tobytes() == scan_select_thresholds(scores, targets, mode).tobytes()

    def test_equal_f1_picks_the_largest_threshold(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6])
        truth = np.array([True, False, False, True])  # F1 2/3 above 0.8 and at 0.6
        got = select_thresholds(scores[:, None], truth[:, None], "pcdb")
        assert got.tobytes() == scan_select_thresholds(scores[:, None], truth[:, None], "pcdb").tobytes()
        assert got[0] == 0.5 * (0.9 + 0.8)

    @pytest.mark.parametrize("mode", ["ofadb", "pcdb"])
    def test_single_value_and_no_positives(self, mode):
        scores = np.full((5, 3), 0.5)
        for targets in (np.zeros((5, 3), bool), np.ones((5, 3), bool)):
            got = select_thresholds(scores, targets, mode)
            assert got.tobytes() == scan_select_thresholds(scores, targets, mode).tobytes()
        # no positives: predict nothing, above every score
        assert np.all(select_thresholds(scores, np.zeros((5, 3), bool), mode) == 1.5)


class TestImbalance:
    def test_uniform_equals_baseline(self):
        labels = ["a", "b", "c", "a", "b", "c"]
        policy = ImbalancePolicy.from_labels("class-weights", labels)
        np.testing.assert_allclose(policy.sample_weights(labels), 1.0)
        policy_r = ImbalancePolicy.from_labels("resample", labels)
        np.testing.assert_allclose(policy_r.resample_probabilities(labels), 1 / 6)

    def test_ninety_ten_ratio(self):
        labels = ["big"] * 90 + ["small"] * 10
        policy = ImbalancePolicy.from_labels("class-weights", labels)
        w = policy.sample_weights(["big", "small"])
        assert w[1] / w[0] == pytest.approx(9.0)

    def test_resample_expectation_fifty_fifty(self):
        labels = ["big"] * 90 + ["small"] * 10
        policy = ImbalancePolicy.from_labels("resample", labels)
        p = policy.resample_probabilities(labels)
        assert p[:90].sum() == pytest.approx(0.5)
        assert p[90:].sum() == pytest.approx(0.5)

    def test_zero_frequency_label(self):
        policy = ImbalancePolicy.from_labels("class-weights", ["a", "a"])
        with pytest.raises(HeadError):
            policy.sample_weights(["b"])


class TestWidths:
    def test_widths(self, index):
        assert head_width("hab", index) == 7
        assert head_width("plc", index) == 7
        assert head_width("mplc", index) == 7
        assert head_width("mc", index) == 4
        assert head_width("hs", index) == 7  # groups partition all nodes

    def test_unknown(self, index):
        with pytest.raises(HeadError):
            head_width("svm", index)


class TestClassifierConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [("batch_size", 0, "batch size must be positive, got 0"),
         ("batch_size", -3, "batch size must be positive, got -3"),
         ("epochs", -1, "epochs must be nonnegative, got -1")],
    )
    def test_rejects_bad_sizes(self, field, value, message):
        with pytest.raises(ValueError) as err:
            ClassifierConfig(**{field: value})
        assert str(err.value) == message

    def test_zero_epochs_is_valid(self):
        assert ClassifierConfig(epochs=0).epochs == 0

    def test_rejects_a_bad_threshold_mode(self):
        # the config is built before the trainer runs, so no batch is scored
        with pytest.raises(ValueError, match=r"^threshold mode must be ofadb or pcdb, got 'ofa'$"):
            ClassifierConfig(threshold_mode="ofa")


class TestThresholdModeComparison:
    def test_ofadb_beats_pcdb_on_tiny_validation(self):
        # per-class boundaries overfit when labels have ~1 validation sample;
        # the shared boundary generalizes (measured: 0.938 vs 0.720 joint m-F1)
        from hierembed import joint
        from hierembed.cli import classifier_metrics
        from hierembed.synth import gaussian_cluster_features

        h = generate_synthetic_tree(2, 8)
        features = gaussian_cluster_features(h, 6, 8, seed=5, noise=1.2)
        labels = np.array(
            [list(reversed(h.ancestors(l))) + [l] for l in features.leaf_labels],
            dtype=object,
        )
        rng = np.random.default_rng(0)
        order = rng.permutation(len(labels))
        va, tr, te = order[:8], order[8:40], order[40:]
        policy = ImbalancePolicy.from_labels("none", [str(labels[i][-1]) for i in tr])
        scores = {}
        for mode in ("ofadb", "pcdb"):
            cfg = ClassifierConfig(head="hab", lr=0.05, epochs=25, batch_size=16,
                                   seed=1, threshold_mode=mode)
            clf, _ = train_linear_classifier(
                features.features[tr], labels[tr],
                features.features[va], labels[va], h, policy, cfg,
            )
            scores[mode] = classifier_metrics(clf, features.features[te], labels[te])[0]["m-F1"]
        assert scores["ofadb"] > scores["pcdb"]


class TestHabCalibration:
    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_thresholds_calibrated_once_per_epoch(self, monkeypatch, epochs):
        from hierembed import heads, joint
        from hierembed.synth import gaussian_cluster_features

        h = generate_synthetic_tree(3, 2)
        features = gaussian_cluster_features(h, 4, 6, seed=2)
        labels = joint.level_truth(h, features, range(len(features.leaf_labels)))
        calls = []
        real = heads.select_thresholds

        def counted(*args, **kwargs):
            calls.append(real(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(heads, "select_thresholds", counted)
        cfg = ClassifierConfig(head="hab", lr=0.05, epochs=epochs, batch_size=8, seed=1)
        policy = ImbalancePolicy.from_labels("none", [])
        clf, history = train_linear_classifier(
            features.features[8:], labels[8:], features.features[:8], labels[:8], h, policy, cfg
        )
        assert len(history) == epochs
        assert len(calls) == max(epochs, 1)
        assert clf.thresholds is calls[-1]
        scores = heads._sigmoid(clf.logits(features.features[:8]))
        np.testing.assert_array_equal(
            clf.thresholds, real(scores, clf.index.multi_hot(labels[:8]), "ofadb")
        )

    def test_no_validation_split_rejected(self):
        h = generate_synthetic_tree(2, 2)
        x = np.zeros((2, 3))
        labels = np.array([["r", "r.0"], ["r", "r.1"]], dtype=object)
        cfg = ClassifierConfig(head="hab", epochs=1)
        with pytest.raises(HeadError, match="needs a validation split"):
            train_linear_classifier(
                x, labels, x[:0], labels[:0], h, ImbalancePolicy.from_labels("none", []), cfg
            )


class TestMoreShiftInvariance:
    def test_plc_level_argmax(self, index):
        rng = np.random.default_rng(20)
        x = rng.standard_normal(index.n_total)
        off, size = index.level_offsets[2], index.level_sizes[2]
        base = np.argmax(x[off : off + size])
        shifted = x.copy()
        shifted[off : off + size] += 11.0
        assert np.argmax(shifted[off : off + size]) == base

    def test_mc_marginals_shift(self, index):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(index.level_sizes[-1])
        base = [np.argmax(p) for p in mc_probabilities(x, index)]
        shifted = [np.argmax(p) for p in mc_probabilities(x + 3.3, index)]
        assert base == shifted


# ---------------------------------------------------------------------------
# References: the per-sample loops the batched heads replaced
# ---------------------------------------------------------------------------
# The references build on their own copies of the helpers the heads used
# when the loops were replaced, so a rewrite of ``heads`` cannot move them.

def ref_sigmoid(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_softplus(x):
    return np.logaddexp(0.0, x)


def ref_logsumexp(x, axis=-1):
    m = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.sum(np.exp(x - m), axis=axis))


def ref_softmax(x):
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def ref_per_sample_ce(seg, tau):
    n = seg.shape[0]
    logz = ref_logsumexp(seg, axis=1)
    losses = logz - seg[np.arange(n), tau]
    grad = ref_softmax(seg)
    grad[np.arange(n), tau] -= 1.0
    return losses, grad


def ref_children_pos(index, i, j):
    """Sorted level-(i+2) positions of the children of node j at level i+1."""
    kids = index.h.children(index.levels[i][j])
    return np.array(sorted(index.pos_in_level[c] for c in kids), dtype=np.int64)


def ref_check_path(index, tau_row):
    for i in range(1, index.level_count):
        parent = index.levels[i - 1][tau_row[i - 1]]
        child = index.levels[i][tau_row[i]]
        if index.h.parent(child) != parent:
            raise HeadError(f"{child!r} is not a child of {parent!r}")


def ref_hab_loss(x, y):
    x, single = _batchify(x)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    n, width = x.shape
    loss = float(np.sum(y * ref_softplus(-x) + (1.0 - y) * ref_softplus(x))) / (n * width)
    grad = (ref_sigmoid(x) - y) / (n * width)
    return loss, (grad[0] if single else grad)


def ref_plc_loss(x, tau, index):
    x, single = _batchify(x)
    tau = np.atleast_2d(tau)
    n = x.shape[0]
    grad = np.zeros_like(x)
    total = 0.0
    for i, (off, size) in enumerate(zip(index.level_offsets, index.level_sizes)):
        losses, g = ref_per_sample_ce(x[:, off : off + size], tau[:, i])
        total += float(losses.sum())
        grad[:, off : off + size] = g
    grad /= n
    return total / n, (grad[0] if single else grad)


def ref_mc_loss(x, tau, index):
    x, single = _batchify(x)
    tau = np.atleast_2d(tau)
    n = x.shape[0]
    logp = x - ref_logsumexp(x, axis=1)[:, None]
    p = np.exp(logp)
    total = 0.0
    grad = np.zeros_like(x)
    for i in range(index.level_count):
        leaf_mask = np.zeros((index.level_sizes[i], index.level_sizes[-1]), dtype=bool)
        for j, nid in enumerate(index.levels[i]):
            for leaf in ref_leaf_descendants(index.h, nid):
                leaf_mask[j, index.pos_in_level[leaf]] = True
        mask = leaf_mask[tau[:, i]]
        log_ps = ref_logsumexp(np.where(mask, logp, -np.inf), axis=1)
        total += float(-log_ps.sum())
        grad += p - np.where(mask, np.exp(logp - log_ps[:, None]), 0.0)
    grad /= n
    return total / n, (grad[0] if single else grad)


def ref_mplc_loss(x, tau, index):
    x, single = _batchify(x)
    tau = np.atleast_2d(tau)
    n = x.shape[0]
    grad = np.zeros_like(x)
    total = 0.0
    for i, (off, size) in enumerate(zip(index.level_offsets, index.level_sizes)):
        seg = x[:, off : off + size]
        if i == 0:
            losses, g = ref_per_sample_ce(seg, tau[:, 0])
            total += float(losses.sum())
            grad[:, off : off + size] = g
            continue
        mask = np.zeros((n, size), dtype=bool)
        for s in range(n):
            kids = ref_children_pos(index, i - 1, tau[s, i - 1])
            if tau[s, i] not in kids:
                child = index.levels[i][tau[s, i]]
                parent = index.levels[i - 1][tau[s, i - 1]]
                raise HeadError(f"target {child!r} is not a child of {parent!r}")
            mask[s, kids] = True
        logz = ref_logsumexp(np.where(mask, seg, -np.inf), axis=1)
        total += float((logz - seg[np.arange(n), tau[:, i]]).sum())
        sm = np.where(mask, np.exp(seg - logz[:, None]), 0.0)
        sm[np.arange(n), tau[:, i]] -= 1.0
        grad[:, off : off + size] = sm
    grad /= n
    return total / n, (grad[0] if single else grad)


def ref_hs_probabilities(x, index):
    x, single = _batchify(x)
    conds = []
    log_cond = np.empty_like(x)
    for g in index.groups:
        seg = x[:, g.offset : g.offset + len(g.member_ids)]
        lz = ref_logsumexp(seg, axis=1)
        log_cond[:, g.offset : g.offset + len(g.member_ids)] = seg - lz[:, None]
        conds.append(np.exp(seg - lz[:, None]))
    joint_log = np.zeros((x.shape[0], index.level_sizes[-1]))
    for pos, leaf in enumerate(index.levels[-1]):
        nid = leaf
        while nid is not None:
            gi, gp = index.group_of[nid]
            joint_log[:, pos] += log_cond[:, index.groups[gi].offset + gp]
            nid = index.h.parent(nid)
    joint = np.exp(joint_log)
    if single:
        return [c[0] for c in conds], joint[0]
    return conds, joint


def ref_hs_loss(x, tau, index):
    x, single = _batchify(x)
    tau = np.atleast_2d(tau)
    n = x.shape[0]
    grad = np.zeros_like(x)
    total = 0.0
    for s in range(n):
        ref_check_path(index, tau[s])
        for i in range(index.level_count):
            gi, gp = index.group_of[index.levels[i][tau[s, i]]]
            g = index.groups[gi]
            seg = x[s, g.offset : g.offset + len(g.member_ids)]
            lz = ref_logsumexp(seg[None, :], axis=1)[0]
            total += float(lz - seg[gp])
            sm = np.exp(seg - lz)
            sm[gp] -= 1.0
            grad[s, g.offset : g.offset + len(g.member_ids)] += sm
    grad /= n
    return total / n, (grad[0] if single else grad)


def ref_head_loss(head, logits, tau, mh, index):
    if head == "hab":
        return ref_hab_loss(logits, mh)
    return {"plc": ref_plc_loss, "mc": ref_mc_loss, "mplc": ref_mplc_loss,
            "hs": ref_hs_loss}[head](logits, tau, index)


def ref_weighted_head_loss(head, logits, tau, mh, index, weights, loss=ref_head_loss):
    """The per-sample loop class weighting used: one ``loss`` call per sample."""
    total = 0.0
    grad = np.zeros_like(logits)
    for s in range(logits.shape[0]):
        l, g = loss(
            head, logits[s], None if tau is None else tau[s : s + 1],
            None if mh is None else mh[s], index,
        )
        total += weights[s] * l
        grad[s] = weights[s] * g
    n = logits.shape[0]
    return total / n, grad / n


def ref_mplc_predict(x, index):
    x, single = _batchify(x)
    n = x.shape[0]
    out = np.empty((n, index.level_count), dtype=object)
    prev = np.argmax(x[:, : index.level_sizes[0]], axis=1)
    out[:, 0] = [index.levels[0][j] for j in prev]
    for i in range(1, index.level_count):
        off = index.level_offsets[i]
        seg = x[:, off : off + index.level_sizes[i]]
        cur = np.empty(n, dtype=np.int64)
        for s in range(n):
            kids = ref_children_pos(index, i - 1, prev[s])
            cur[s] = kids[int(np.argmax(seg[s, kids]))]
        out[:, i] = [index.levels[i][j] for j in cur]
        prev = cur
    return out[0] if single else out


def ref_hs_predict(x, index):
    x, single = _batchify(x)
    _, joint = ref_hs_probabilities(x, index)
    out = np.empty((x.shape[0], index.level_count), dtype=object)
    for s, leaf_pos in enumerate(np.argmax(joint, axis=1)):
        nid = index.levels[-1][leaf_pos]
        path = [nid]
        while index.h.parent(nid) is not None:
            nid = index.h.parent(nid)
            path.append(nid)
        out[s] = list(reversed(path))
    return out[0] if single else out


def ref_predict_levels(head, x, index):
    if head == "mplc":
        return ref_mplc_predict(x, index)
    if head == "hs":
        return ref_hs_predict(x, index)
    out = np.empty((x.shape[0], index.level_count), dtype=object)
    if head == "plc":
        for i, (off, size) in enumerate(zip(index.level_offsets, index.level_sizes)):
            out[:, i] = [index.levels[i][j] for j in np.argmax(x[:, off : off + size], axis=1)]
        return out
    for i, p in enumerate(ref_mc_probabilities(x, index)):
        out[:, i] = [index.levels[i][j] for j in np.argmax(p, axis=1)]
    return out


def ref_mc_probabilities(x, index):
    """Leaf softmax, then bottom-up sums over each node's children."""
    probs = [None] * index.level_count
    probs[-1] = ref_softmax(x)
    for i in range(index.level_count - 2, -1, -1):
        probs[i] = np.zeros((x.shape[0], index.level_sizes[i]))
        for j in range(index.level_sizes[i]):
            probs[i][:, j] = probs[i + 1][:, ref_children_pos(index, i, j)].sum(axis=1)
    return probs


def uneven_tree(rng, levels, roots, max_branching):
    """A leveled forest with 1..max_branching children per node; within-level
    ids are shuffled so that id order differs from parent order."""
    nodes, edges, parents = [], [], [None] * roots
    for level in range(1, levels + 1):
        names = [f"L{level}.{j:03d}" for j in rng.permutation(len(parents))]
        nodes += [Node(nid, level, nid) for nid in names]
        edges += [(p, nid) for p, nid in zip(parents, names) if p is not None]
        parents = [nid for nid in names for _ in range(int(rng.integers(1, max_branching + 1)))]
    return Hierarchy(nodes, edges)


def head_batch(index, rng, n, tied):
    """Random logits of every head's width, leaf-path targets and weights."""
    leaves = rng.integers(index.level_sizes[-1], size=n)
    tau = index.leaf_path[leaves]
    logits = {}
    for head in HEADS:
        shape = (n, head_width(head, index))
        logits[head] = (rng.integers(-1, 2, size=shape) * 0.5 if tied
                        else rng.standard_normal(shape) * 3)
    return logits, tau, index.multi_hot(_label_ids(index, tau)), rng.random(n) * 4 + 0.05


HEADS = ("hab", "plc", "mc", "mplc", "hs")
# Every head rounds apart from its reference: hab shares one exp between its
# softplus and sigmoid, mc sums its marginals over runs of leaves, and plc,
# mplc and hs take log(total) - (x - max) over runs of columns, not
# (max + log(total)) - x per group. Each is held to REL of its reference,
# and bitwise only to itself run one sample at a time.
REL = 1e-12
NEAR_TIE = 1e-9  # mc and hs predictions are compared where the top two differ by more


def as_bytes(loss, grad):
    return np.float64(loss).tobytes(), grad.tobytes()


def assert_close(got, want, x, weights=None):
    """(loss, grad) within REL of the reference. The loss is held relative to
    the largest logit of ``x`` (at least 1), as its rounding grows with the
    logits and not with the loss, which may be near 0. The gradient is held
    relative to the larger of its largest entry and the target term it
    subtracts, weight / n: for a near-certain target ``p - 1`` cancels to a
    small entry that still carries the rounding of ``p`` near 1."""
    (loss, grad), (ref_loss, ref_grad) = got, want
    assert abs(loss - ref_loss) <= REL * max(1.0, np.abs(x).max(initial=0))
    target = (1.0 if weights is None else np.max(weights)) / len(x)
    atol = REL * max(np.abs(ref_grad).max(initial=0), target)
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=atol)


def clear_rows(probs):
    """Rows whose top two probabilities differ by more than NEAR_TIE at every level."""
    ok = np.ones(len(probs[0]), dtype=bool)
    for p in probs:
        if p.shape[1] > 1:
            top = np.sort(p, axis=1)[:, -2:]
            ok &= top[:, 1] - top[:, 0] > NEAR_TIE
    return ok


def assert_heads_match_references(h, seed, n, tied):
    index = HierarchyIndex(h)
    rng = np.random.default_rng(seed)
    logits, tau, mh, weights = head_batch(index, rng, n, tied)
    for head in HEADS:
        x = logits[head]
        args = (head, x, tau, mh if head == "hab" else None, index)
        got = head_loss(*args, weights)
        rows = [ref_head_loss(head, x[s], tau[s : s + 1], mh[s], index) for s in range(n)]
        losses = np.array([l for l, _ in rows])
        expected = (float(losses.sum()) / n, np.stack([g for _, g in rows]) / n)
        alone = ref_weighted_head_loss(*args, weights, loss=head_loss)
        assert as_bytes(*got) == as_bytes(*alone), head
        assert_close(got, ref_weighted_head_loss(*args, weights), x, weights)
        assert_close(head_loss(*args), expected, x)
        if head == "mc":
            assert_mc_predictions_match(x, index)
        elif head == "hs":
            assert_hs_predictions_match(x, index)
        elif head != "hab":
            clf = LinearClassifier(np.eye(x.shape[1]), np.zeros(x.shape[1]), head, index)
            got_pred = predict_levels(clf, x)
            assert got_pred.tolist() == ref_predict_levels(head, x, index).tolist(), head


def assert_predictions_match(head, x, index, want):
    """Equal predictions on the rows whose reference probabilities ``want``
    have no near-tie."""
    clf = LinearClassifier(np.eye(x.shape[1]), np.zeros(x.shape[1]), head, index)
    got_pred, want_pred = predict_levels(clf, x), ref_predict_levels(head, x, index)
    clear = clear_rows(want)
    assert got_pred[clear].tolist() == want_pred[clear].tolist(), head


def assert_mc_predictions_match(x, index):
    """mc probabilities within REL of the reference, and equal predictions on
    the rows without a near-tie."""
    want = ref_mc_probabilities(x, index)
    for got_p, want_p in zip(mc_probabilities(x, index), want):
        np.testing.assert_allclose(got_p, want_p, rtol=0, atol=REL * want_p.max())
    assert_predictions_match("mc", x, index, want)


def assert_hs_predictions_match(x, index):
    """hs conditionals and joint within REL of the reference, and equal
    predictions on the rows without a near-tie in the joint."""
    (conds, joint), (ref_conds, ref_joint) = hs_probabilities(x, index), ref_hs_probabilities(x, index)
    for got_p, want_p in zip([*conds, joint], [*ref_conds, ref_joint]):
        np.testing.assert_allclose(got_p, want_p, rtol=0, atol=REL * want_p.max())
    assert_predictions_match("hs", x, index, [ref_joint])


class TestHeadsMatchPerSampleLoops:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4), st.integers(1, 3), st.integers(1, 4),
        st.integers(1, 20), st.booleans(), st.integers(0, 2**32 - 1),
    )
    def test_uneven_trees(self, levels, roots, branching, n, tied, seed):
        h = uneven_tree(np.random.default_rng(seed), levels, roots, branching)
        assert_heads_match_references(h, seed, n, tied)

    @pytest.mark.parametrize("shape", [(3, 2), (4, 3), (2, 1), (1, 5)])
    @pytest.mark.parametrize("tied", [False, True])
    def test_complete_trees_large_batch(self, shape, tied):
        # 64 samples: a pairwise sum of the weighted losses rounds differently
        assert_heads_match_references(generate_synthetic_tree(*shape), 7, 64, tied)

    @pytest.mark.parametrize("seed", range(4))
    def test_tied_top_down_predictions_take_the_lowest_index(self, seed):
        h = uneven_tree(np.random.default_rng(seed), 4, 2, 4)
        index = HierarchyIndex(h)
        x = np.zeros((3, index.n_total))
        x[1] = np.random.default_rng(seed).integers(0, 2, size=index.n_total)
        assert mplc_predict(x, index).tolist() == ref_mplc_predict(x, index).tolist()
        g = np.zeros((2, index.n_total))
        assert hs_predict(g, index).tolist() == ref_hs_predict(g, index).tolist()

    def test_unweighted_gradients_equal_the_old_batch_code(self, tree423):
        # hab divides in another order; the other heads' sums run over runs
        # of leaves or of columns
        index = HierarchyIndex(tree423)
        logits, tau, mh, _ = head_batch(index, np.random.default_rng(3), 37, False)
        for head in HEADS:
            args = (head, logits[head], tau, mh, index)
            (loss, grad), (ref_loss, ref_grad) = head_loss(*args), ref_head_loss(*args)
            assert loss == pytest.approx(ref_loss, rel=1e-14), head
            if head == "hab":
                np.testing.assert_array_max_ulp(grad, ref_grad, maxulp=1)
            else:
                assert_close((loss, grad), (ref_loss, ref_grad), logits[head])

    @pytest.mark.parametrize("head", ["mc", "mplc", "hs"])
    def test_bad_path_names_the_first_bad_child_and_parent(self, index, head):
        tau = np.array([[0, 0, 0], [0, 0, index.pos_in_level["r.1.0"]],
                        [0, 1, index.pos_in_level["r.0.1"]]])
        x = np.zeros((3, head_width(head, index)))
        with pytest.raises(HeadError, match=r"'r\.1\.0' is not a child of 'r\.0'"):
            head_loss(head, x, tau, None, index)


class TestTrainerMatchesPerSampleLoop:
    @pytest.mark.parametrize("head", HEADS)
    def test_class_weights_run(self, head, monkeypatch):
        from hierembed import heads
        from hierembed.synth import gaussian_cluster_features

        h = generate_synthetic_tree(3, 3)
        features = gaussian_cluster_features(h, 5, 6, seed=2)
        labels = np.array(
            [list(reversed(h.ancestors(l))) + [l] for l in features.leaf_labels], dtype=object
        )
        order = np.random.default_rng(1).permutation(len(labels))
        keep = order[np.concatenate([[0], np.flatnonzero(order % 3)])]  # uneven counts
        tr, va = keep[:-12], keep[-12:]
        policy = ImbalancePolicy.from_labels("class-weights", [l[-1] for l in labels[tr]])
        cfg = ClassifierConfig(head=head, lr=0.05, epochs=3, batch_size=10, seed=4)

        def run():
            return train_linear_classifier(
                features.features[tr], labels[tr], features.features[va], labels[va],
                h, policy, cfg,
            )

        clf, history = run()
        monkeypatch.setattr(  # the batch head, alone per sample
            heads, "head_loss",
            lambda head, logits, tau, mh, index, weights: ref_weighted_head_loss(
                head, logits, tau, mh, index, weights, loss=head_loss
            ),
        )
        ref_clf, ref_history = run()
        assert clf.w.tobytes() == ref_clf.w.tobytes()
        assert clf.b.tobytes() == ref_clf.b.tobytes()
        assert history == ref_history

    @pytest.mark.parametrize("head", HEADS)
    def test_unit_weights_give_the_unweighted_gradient(self, head, tree423):
        index = HierarchyIndex(tree423)
        logits, tau, mh, _ = head_batch(index, np.random.default_rng(5), 29, False)
        args = (head, logits[head], tau, mh, index)
        assert head_loss(*args, np.ones(29))[1].tobytes() == head_loss(*args)[1].tobytes()


class TestHelpersMatchTheOracles:
    EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 750.0, -750.0, 1e-300, -1e-300]

    def test_sigmoid_edges_match_the_masked_formula(self):
        x = np.array(self.EDGES)
        assert _sigmoid(x).tobytes() == ref_sigmoid(x).tobytes()
        x = np.random.default_rng(0).standard_normal((40, 25)) * 30
        assert _sigmoid(x).tobytes() == ref_sigmoid(x).tobytes()

    @pytest.mark.parametrize("head", ["plc", "hs"])
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_grouped_kernel_matches_a_per_group_loop(self, head, tied, seed):
        # groups of 1 to 16 members; tied logits put several maxima in a group
        index = HierarchyIndex(uneven_tree(np.random.default_rng(seed), 3, 3, 16))
        rng = np.random.default_rng(seed)
        shape = (37, index.n_total)
        x = (rng.integers(-1, 2, size=shape) * 0.5 if tied else rng.standard_normal(shape)) * 40
        tau = index.leaf_path[rng.integers(index.level_sizes[-1], size=37)]
        if head == "plc":
            runs = [[(off, size, off + t)
                     for off, size, t in zip(index.level_offsets, index.level_sizes, row)]
                    for row in tau]
        else:
            runs = [[(index.groups[gi].offset, len(index.groups[gi].member_ids),
                      index.groups[gi].offset + pos)
                     for gi, pos in (index.group_of[index.levels[i][t]] for i, t in enumerate(row))]
                    for row in tau]
        want_losses, want_grad = np.zeros(37), np.zeros_like(x)
        for s, path in enumerate(runs):
            for start, size, col in path:  # root first
                shift = x[s, start : start + size] - x[s, start : start + size].max()
                e = np.exp(shift)
                want_losses[s] += np.log(e.sum()) - shift[col - start]
                want_grad[s, start : start + size] = e / e.sum()
                want_grad[s, col] -= 1.0
        # np.add.reduceat adds a group's first exp to the sum of the rest,
        # so a group's total rounds apart from e.sum()
        if head == "plc":
            layout = index.level_offsets, index.level_of_col, tau + index.level_offsets
        else:
            layout = index.group_starts, index.group_of_col, index.leaf_cols[tau[:, -1]]
        losses, grad = _grouped_rows(x, *layout)
        np.testing.assert_allclose(losses, want_losses, rtol=0, atol=REL * np.abs(x).max())
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=REL)

    def test_hab_bool_and_float_targets_agree(self, tree423):
        index = HierarchyIndex(tree423)
        logits, _, mh, _ = head_batch(index, np.random.default_rng(8), 21, False)
        got = hab_loss(logits["hab"], mh)
        assert as_bytes(*got) == as_bytes(*hab_loss(logits["hab"], mh.astype(float)))
        assert as_bytes(*got) == as_bytes(*hab_loss(logits["hab"], mh.astype(int)))


class TestLeafRuns:
    @settings(max_examples=100, deadline=None)
    @given(uneven_forests())
    def test_each_node_owns_one_run_of_leaves(self, h):
        index = HierarchyIndex(h)
        assert sorted(index.leaf_dfs.tolist()) == list(range(index.level_sizes[-1]))
        assert len(index.run_start) == len(index.run_pos) == index.level_count - 1
        for i, (start, pos) in enumerate(zip(index.run_start, index.run_pos)):
            ends = np.append(start[1:], index.level_sizes[-1])
            runs = {int(j): sorted(index.leaf_dfs[a:b].tolist()) for j, a, b in zip(pos, start, ends)}
            for j, nid in enumerate(index.levels[i]):
                leaves = sorted(index.pos_in_level[leaf] for leaf in ref_leaf_descendants(h, nid))
                assert runs.get(j, []) == leaves  # a node without leaves has no run

    def test_dfs_order_is_not_id_order(self):
        # ids shuffled within each level: sorted leaf ids do not follow their parents
        index = HierarchyIndex(uneven_tree(np.random.default_rng(2), 3, 2, 3))
        assert index.leaf_dfs.tolist() != list(range(index.level_sizes[-1]))


class TestFewerPassesMatchTheOldForms:
    """Every head against the form it replaced, over forests with childless
    upper nodes (where mplc cannot predict), and at extremes."""

    @settings(max_examples=150, deadline=None)
    @given(uneven_forests(), st.integers(1, 20), st.booleans(), st.integers(0, 2**32 - 1))
    def test_uneven_forests(self, h, n, tied, seed):
        index = HierarchyIndex(h)
        logits, tau, mh, weights = head_batch(index, np.random.default_rng(seed), n, tied)
        for head in HEADS:
            args = (head, logits[head], tau, mh, index)
            assert_close(head_loss(*args), ref_head_loss(*args), logits[head])
            assert_close(head_loss(*args, weights), ref_weighted_head_loss(*args, weights),
                         logits[head], weights)
        assert_mc_predictions_match(logits["mc"], index)
        assert_hs_predictions_match(logits["hs"], index)

    @pytest.mark.parametrize("scale", [300.0, 3000.0])
    def test_underflowed_marginals_take_the_log_space_form(self, scale):
        # most upper-level marginals of the truth underflow to zero or to
        # subnormals; the loss and gradient stay finite and match the reference
        h = uneven_tree(np.random.default_rng(6), 3, 3, 4)
        index = HierarchyIndex(h)
        rng = np.random.default_rng(7)
        logits, tau, mh, weights = head_batch(index, rng, 40, False)
        x = logits["mc"] / 3 * scale
        got = head_loss("mc", x, tau, None, index, weights)
        assert np.isfinite(got[0]) and np.isfinite(got[1]).all()
        with np.errstate(over="ignore"):  # the reference exponentiates outside its mask
            assert_close(got, ref_weighted_head_loss("mc", x, tau, None, index, weights), x, weights)
        truth = [p[np.arange(40), tau[:, i]] for i, p in enumerate(ref_mc_probabilities(x, index))]
        assert (np.minimum(truth[0], truth[1]) == 0).sum() >= 2

    @pytest.mark.parametrize("mode", ["ofadb", "pcdb"])
    @pytest.mark.parametrize("seed", range(3))
    def test_thresholds_equal_the_stable_sort_on_long_ties(self, mode, seed):
        # 22 608 scores on 9 values: the unstable sort reorders every tie run,
        # and the thresholds still equal the order-free mirrored scan
        rng = np.random.default_rng(seed)
        scores = np.round(rng.random((144, 157)) * 8) / 8
        targets = rng.random((144, 157)) < 0.3
        flat = -scores.ravel()
        assert not np.array_equal(np.argsort(flat), np.argsort(flat, kind="stable"))
        got = select_thresholds(scores, targets, mode)
        assert got.tobytes() == scan_select_thresholds(scores, targets, mode).tobytes()


class TestMplcIsHsOverSiblingGroups:
    """The mplc loss is the hs loss with its logit columns moved from the
    level layout to the sibling-group layout, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(uneven_forests(), st.integers(1, 20), st.booleans(), st.integers(0, 2**32 - 1))
    def test_mplc_equals_hs_of_permuted_columns(self, h, n, tied, seed):
        index = HierarchyIndex(h)
        logits, tau, _, weights = head_batch(index, np.random.default_rng(seed), n, tied)
        x = logits["mplc"]
        perm = np.empty(index.n_total, dtype=np.int64)  # group column -> level column
        for g in index.groups:
            off = index.level_offsets[g.level - 1]
            for k, nid in enumerate(g.member_ids):
                perm[g.offset + k] = off + index.pos_in_level[nid]
        for w in (None, weights):
            loss, grad = head_loss("mplc", x, tau, None, index, w)
            want_loss, hs_grad = head_loss("hs", np.ascontiguousarray(x[:, perm]), tau, None, index, w)
            want_grad = np.empty_like(hs_grad)
            want_grad[:, perm] = hs_grad
            assert as_bytes(loss, grad) == as_bytes(want_loss, want_grad)


class TestTargetChecks:
    @pytest.mark.parametrize("bad", [0.5, -1.0, 2.0, np.nan])
    def test_hab_target_must_be_zero_or_one(self, bad):
        y = np.array([[1.0, 0.0, 1.0], [0.0, bad, 1.0], [bad, 0.0, 0.0]])
        with pytest.raises(HeadError, match=rf"got {bad!r} at sample 1, label 1$"):
            hab_loss(np.zeros((3, 3)), y)

    @pytest.mark.parametrize("tau, child, parent", [([0, 1, 0], "a.0.0", "a.1"),
                                                     ([1, 0, 0], "a.0", "b")])
    def test_mc_rejects_a_target_off_its_parent(self, tau, child, parent):
        # b has no children, so under [1, 0, 0] its marginal is 0 and the loss NaN
        nodes = [Node(n, n.count(".") + 1, n) for n in ("a", "b", "a.0", "a.1", "a.0.0", "a.1.0")]
        h = Hierarchy(nodes, [("a", "a.0"), ("a", "a.1"), ("a.0", "a.0.0"), ("a.1", "a.1.0")])
        index = HierarchyIndex(h)
        with pytest.raises(HeadError, match=rf"^target '{child}' is not a child of '{parent}'$"):
            mc_loss(np.zeros(2), np.array([tau]), index)

    @pytest.mark.parametrize("head", ["plc", "mplc", "hs"])
    @pytest.mark.parametrize("width", [6, 8])
    def test_grouped_heads_check_the_logit_width(self, index, head, width):
        with pytest.raises(HeadError, match=rf"^expected 7 logits, got {width}$"):
            head_loss(head, np.zeros((2, width)), leaf_tau(index, "r.0.1").repeat(2, 0), None, index)
        if head == "hs":
            with pytest.raises(HeadError, match=rf"^expected 7 logits, got {width}$"):
                hs_probabilities(np.zeros((2, width)), index)

    def test_range_check_names_the_first_bad_level(self, index):
        # row 0 is out of range at level 3, row 1 at level 2: level 2 is named
        tau = np.array([[0, 0, 9], [0, 2, 0]])
        with pytest.raises(HeadError, match=r"^level 2 target out of range \[0, 2\)$"):
            _targets(tau, index)
        with pytest.raises(HeadError, match=r"^level 1 target out of range \[0, 1\)$"):
            _targets(np.array([[0, 0, 9], [-1, 0, 0]]), index)

    def test_trainer_rejects_an_empty_training_set(self, tree):
        labels = np.empty((0, 3), dtype=object)
        with pytest.raises(HeadError, match="^no training instances$"):
            train_linear_classifier(np.zeros((0, 4)), labels, np.zeros((0, 4)), labels, tree,
                                    ImbalancePolicy("none"), ClassifierConfig(epochs=1))

    def test_label_lookup_names_the_first_bad_label(self, index):
        ok = ["r", "r.0", "r.0.1"]
        assert index.tau_from_labels(np.array([ok, ok], dtype=object)).tolist() == [[0, 0, 1]] * 2
        for bad in ("r.9", "r.0.1"):  # unknown, then at another level
            with pytest.raises(HeadError, match=rf"^label '{bad}' is not at level 2$"):
                index.tau_from_labels(
                    np.array([ok, ["r", bad, "r.0.1"], ["x", "x", "x"]], dtype=object)
                )
        with pytest.raises(HeadError, match=r"^expected 3 per-level labels, got 2$"):
            index.tau_from_labels(np.array([["r", "r.0"]], dtype=object))
