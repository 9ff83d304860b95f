"""Evaluation formulas: confusion-count metrics, hit@k, micro/macro averaging.

Zero denominators evaluate to 0 by convention, which matters for rare
labels under macro averaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.tn + other.tn, self.fn + other.fn
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def precision_recall_f1(c: ConfusionCounts) -> tuple[float, float, float]:
    p = _ratio(c.tp, c.tp + c.fp)
    r = _ratio(c.tp, c.tp + c.fn)
    f1 = _ratio(2.0 * p * r, p + r)
    return p, r, f1


def f1_score(c: ConfusionCounts) -> float:
    return precision_recall_f1(c)[2]


def tpr_tnr(c: ConfusionCounts) -> tuple[float, float]:
    return _ratio(c.tp, c.tp + c.fn), _ratio(c.tn, c.tn + c.fp)


def accuracy(c: ConfusionCounts) -> float:
    return _ratio(c.tp + c.tn, c.tp + c.fp + c.tn + c.fn)


def hit_at_k(rankings: Sequence[Sequence], truth: Sequence, k: int) -> float:
    """Fraction of samples whose true label is among the top-k predictions.

    ``rankings[i]`` lists labels best-first; ``k`` larger than a ranking is
    clamped to its length.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(rankings) != len(truth):
        raise ValueError("rankings and truth must have the same length")
    if not rankings:
        return 0.0
    hits = sum(1 for ranked, t in zip(rankings, truth) if t in list(ranked)[: min(k, len(ranked))])
    return hits / len(rankings)


def level_accuracy(pred: np.ndarray, truth: np.ndarray) -> tuple[tuple[float, ...], float]:
    """Share of correct labels in (n, L) prediction/target arrays: per level, overall.

    Each share is one division of integer counts; no rows give 0.0.
    """
    hits = np.asarray(pred) == np.asarray(truth)
    n, levels = hits.shape
    correct = np.count_nonzero(hits, axis=0)
    per_level = tuple(int(c) / n if n else 0.0 for c in correct)
    return per_level, (int(correct.sum()) / (n * levels) if n else 0.0)


def aggregate(
    counts: Sequence[ConfusionCounts],
    mode: str,
    metric: Callable[[ConfusionCounts], float] = f1_score,
) -> float:
    """Micro (metric of summed counts) or macro (mean per-label metric)."""
    if not counts:
        raise ValueError("aggregate needs at least one label")
    if mode == "micro":
        total = ConfusionCounts()
        for c in counts:
            total = total + c
        return metric(total)
    if mode == "macro":
        return float(np.mean([metric(c) for c in counts]))
    raise ValueError(f"mode must be micro or macro, got {mode!r}")


def multilabel_counts(pred: np.ndarray, truth: np.ndarray) -> list[ConfusionCounts]:
    """Per-label counts from boolean (n, labels) prediction/target arrays."""
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise ValueError("prediction and truth shapes differ")
    out = []
    for j in range(pred.shape[1]):
        p, t = pred[:, j], truth[:, j]
        out.append(
            ConfusionCounts(
                tp=int(np.sum(p & t)),
                fp=int(np.sum(p & ~t)),
                tn=int(np.sum(~p & ~t)),
                fn=int(np.sum(~p & t)),
            )
        )
    return out


def micro_f1(pred: np.ndarray, truth: np.ndarray) -> float:
    """Micro-averaged F1 of boolean prediction/target arrays."""
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    tp = int(np.sum(pred & truth))
    fp = int(np.sum(pred & ~truth))
    fn = int(np.sum(~pred & truth))
    return _ratio(2.0 * tp, 2.0 * tp + fp + fn)
