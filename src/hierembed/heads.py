"""Hierarchy-aware classifier heads as losses over linear-model logits.

Five formulations over a shared flat logit layout:

- ``hab``: one-vs-rest over all labels jointly (multi-label soft margin),
  decided by a threshold on sigmoid scores (one shared threshold or one
  per label).
- ``plc``: an independent softmax cross-entropy per level.
- ``mc``: softmax over the deepest level only; upper-level probabilities
  are marginals over leaf descendants, each level penalized.
- ``mplc``: per-level cross-entropy restricted to the children of the
  true parent (training) or the predicted parent (inference).
- ``hs``: one softmax per sibling group; the leaf distribution is the
  product of conditionals along the root-to-leaf path.

``plc``, ``mplc`` and ``hs`` share one loss: a softmax cross-entropy
summed over groups of contiguous logit columns, the levels for ``plc`` and
the sibling groups on the target path for ``hs``. ``mplc`` is ``hs`` with
its logits moved from the level layout into the sibling-group layout.

Within a level labels are ordered by node id; levels are concatenated for
flat layouts. Sibling groups are laid out root group first, then by
parent node id. All losses are batch means and come with analytic
gradients with respect to the logits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .hierarchy import Hierarchy
from .metrics import level_accuracy, micro_f1


class HeadError(ValueError):
    """Inconsistent labels, segment layouts, or imbalance inputs."""


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    return np.exp(np.minimum(x, -x))  # -|x|; a NaN keeps its sign, as exp(x) would


def _sigmoid(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """``1 / (1 + exp(-x))`` for x >= 0 and ``exp(x) / (1 + exp(x))`` below;
    ``e`` is ``_exp_neg_abs(x)`` where the caller has it already."""
    if e is None:
        e = _exp_neg_abs(x)
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.sum(np.exp(x - m), axis=axis))


def _softmax(x: np.ndarray) -> np.ndarray:
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def _batchify(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


@dataclass(frozen=True)
class SiblingGroup:
    parent_id: str | None  # None for the root group (top-level labels)
    level: int  # 1-based level of the members
    member_ids: tuple[str, ...]
    offset: int


class HierarchyIndex:
    """Flat logit layouts, parent and leaf-path tables, and sibling groups."""

    def __init__(self, h: Hierarchy):
        self.h = h
        self.level_count = h.level_count
        self.levels = [h.level_members(l) for l in range(1, h.level_count + 1)]
        self.level_sizes = tuple(len(m) for m in self.levels)
        self.level_offsets = tuple(
            int(x) for x in np.concatenate([[0], np.cumsum(self.level_sizes)[:-1]])
        )
        self.n_total = int(sum(self.level_sizes))
        # row_pos[r]: within-level position of hierarchy row r
        self.row_pos = np.empty(len(h.ids), dtype=np.int64)
        for lvl, size in enumerate(self.level_sizes, 1):
            self.row_pos[h.level_of == lvl] = np.arange(size)
        self.pos_in_level = dict(zip(h.ids, self.row_pos.tolist()))
        # parent_pos[i][c]: level-(i+1) position of the parent of the c-th
        # node at level i+2 (0-based level index i).
        self.parent_pos = [
            self.row_pos[h.anc[h.level_of == i + 2, i]] for i in range(self.level_count - 1)
        ]
        # leaf_path[k, i]: level-(i+1) position of the k-th leaf's ancestor.
        self.leaf_path = self.row_pos[h.anc[h.level_of == self.level_count]]
        # leaf_dfs: leaf positions in DFS order, in which each node's leaves
        # form one run. run_start[i] and run_pos[i]: where each level-(i+1)
        # node's run starts and that node's position; a node with no leaf
        # below it has no run.
        self.leaf_dfs = np.lexsort(self.leaf_path.T[::-1])
        dfs_path = self.leaf_path[self.leaf_dfs]
        self.run_start = [np.flatnonzero(np.diff(c, prepend=-1)) for c in dfs_path.T[:-1]]
        self.run_pos = [c[start] for c, start in zip(dfs_path.T, self.run_start)]
        # Sibling groups: root group first, then by parent node id. Every
        # node but a root has one parent, so the groups hold each node once
        # and the group layout is n_total wide, like the level layout.
        groups = [SiblingGroup(None, 1, tuple(self.levels[0]), 0)]
        offset = len(self.levels[0])
        for pid in (nid for nid in h.ids if h.children(nid)):
            members = h.children(pid)
            groups.append(SiblingGroup(pid, h.node(members[0]).level, members, offset))
            offset += len(members)
        self.groups = groups
        self.group_of = {
            nid: (gi, pos) for gi, g in enumerate(groups) for pos, nid in enumerate(g.member_ids)
        }
        # Each sibling group is one run of columns from group_starts, as each
        # level is from level_offsets; level_of_col and group_of_col: the run
        # (level from 0, or group) that each column is in.
        self.group_starts = np.array([g.offset for g in groups])
        self.level_of_col = np.repeat(np.arange(self.level_count), self.level_sizes)
        self.group_of_col = np.repeat(np.arange(len(groups)), [len(g.member_ids) for g in groups])
        # group_col[k]: group column of level column k; level_col is its inverse
        self.group_col = np.array(
            [groups[gi].offset + pos for m in self.levels for gi, pos in map(self.group_of.get, m)]
        )
        self.level_col = np.argsort(self.group_col)
        # leaf_cols[k, i]: group column of the k-th leaf's level-(i+1) ancestor
        self.leaf_cols = self.group_col[np.add(self.level_offsets, self.leaf_path)]

    # -- target builders -----------------------------------------------------

    def tau_from_labels(self, labels: np.ndarray) -> np.ndarray:
        """Within-level positions (n, L) from per-level label ids (n, L)."""
        labels = np.asarray(labels, dtype=object)
        if labels.ndim == 1:
            labels = labels[None, :]
        if labels.shape[1] != self.level_count:
            raise HeadError(
                f"expected {self.level_count} per-level labels, got {labels.shape[1]}"
            )
        rows = np.fromiter(
            map(self.h.row_of.get, labels.ravel(), repeat(-1)), dtype=np.int64, count=labels.size
        ).reshape(labels.shape)
        bad = (rows < 0) | (self.h.level_of[rows] != np.arange(1, self.level_count + 1))
        if bad.any():
            s, i = np.argwhere(bad)[0]
            raise HeadError(f"label {labels[s, i]!r} is not at level {i + 1}")
        return self.row_pos[rows]

    def multi_hot(self, labels: np.ndarray) -> np.ndarray:
        """Boolean (n, N_t) targets with one label per level set true."""
        tau = self.tau_from_labels(labels)
        out = np.zeros((tau.shape[0], self.n_total), dtype=bool)
        for i, off in enumerate(self.level_offsets):
            out[np.arange(tau.shape[0]), off + tau[:, i]] = True
        return out


def head_width(head: str, index: HierarchyIndex) -> int:
    if head in ("hab", "plc", "mplc", "hs"):
        return index.n_total
    if head == "mc":
        return index.level_sizes[-1]
    raise HeadError(f"unknown head kind {head!r}")


def _label_ids(index: HierarchyIndex, pos: np.ndarray) -> np.ndarray:
    """Label ids (n, L) of within-level positions (n, L)."""
    out = np.empty(pos.shape, dtype=object)
    for i, members in enumerate(index.levels):
        out[:, i] = np.asarray(members, dtype=object)[pos[:, i]]
    return out


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------
# Each row function (``_hab_rows``, ``_mc_rows``, ``_*_ce``) scores a batch
# (n, width) into per-sample losses (n,) and gradient rows (n, width), each
# what the head gives for that sample alone; ``_batch_mean`` reduces them.

def _batch_mean(rows, x, *args, weights=None) -> tuple[float, np.ndarray]:
    """Batch mean of a head's per-sample losses and gradient rows.

    ``weights`` (n,) scale each sample (class weighting); the weighted
    losses are summed in sample order, not pairwise.
    """
    x, single = _batchify(x)
    losses, grad = rows(x, *args)
    n = x.shape[0]
    if weights is None:
        loss = float(losses.sum()) / n
    else:
        weights = np.asarray(weights, dtype=float)
        loss = float(np.cumsum(weights * losses)[-1]) / n
        grad *= weights[:, None]
    grad /= n
    return loss, (grad[0] if single else grad)


def _targets(tau, index: HierarchyIndex) -> np.ndarray:
    """Target positions as an (n, L) integer array, range-checked per level."""
    tau = np.atleast_2d(np.asarray(tau, dtype=np.int64))
    if tau.shape[1] != index.level_count:
        raise HeadError(f"expected {index.level_count} target levels, got {tau.shape[1]}")
    bad = ((tau < 0) | (tau >= index.level_sizes)).any(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        raise HeadError(f"level {i + 1} target out of range [0, {index.level_sizes[i]})")
    return tau


def _check_paths(tau: np.ndarray, index: HierarchyIndex) -> None:
    """Raise unless every target row runs from parent to child down the levels."""
    ok = np.ones(tau.shape, dtype=bool)
    for i, pp in enumerate(index.parent_pos):
        ok[:, i + 1] = pp[tau[:, i + 1]] == tau[:, i]
    if not ok.all():
        s, i = np.argwhere(~ok)[0]
        child, parent = index.levels[i][tau[s, i]], index.levels[i - 1][tau[s, i - 1]]
        raise HeadError(f"target {child!r} is not a child of {parent!r}")


def _hab_rows(x: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    y = np.atleast_2d(np.asarray(y))
    if x.shape != y.shape:
        raise HeadError(f"logit shape {x.shape} != target shape {y.shape}")
    if y.dtype != bool:
        bad = (y != 0) & (y != 1)
        if bad.any():
            s, j = np.argwhere(bad)[0]
            raise HeadError(
                f"hab targets must be 0 or 1, got {y[s, j].item()!r} at sample {s}, label {j}"
            )
        y = y == 1
    width = x.shape[1]
    # y * sp(-x) + (1 - y) * sp(x) with sp(z) = max(z, 0) + log1p(exp(-|z|)),
    # and |z| = |x|: the loss and the sigmoid share one exp
    e = _exp_neg_abs(x)
    z = np.where(y, -x, x)
    np.maximum(z, 0.0, out=z)
    z += np.log1p(e)
    return np.sum(z, axis=1) / width, (_sigmoid(x, e) - y) / width


def hab_loss(x, y) -> tuple[float, np.ndarray]:
    """Multi-label soft-margin loss, mean over labels (and batch); ``y`` is 0/1."""
    return _batch_mean(_hab_rows, x, y)


def _check_width(x: np.ndarray, index: HierarchyIndex) -> None:
    if x.shape[1] != index.n_total:
        raise HeadError(f"expected {index.n_total} logits, got {x.shape[1]}")


def _grouped_rows(x: np.ndarray, starts, group_of_col, path: np.ndarray):
    """Softmax cross-entropy summed over groups of columns: group g runs from
    column ``starts[g]``, and column j is in group ``group_of_col[j]``. ``path``
    (n, k) holds each row's target column in k distinct groups; the loss sums
    over those groups, and the gradient is zero in the others."""
    rows, groups = np.arange(x.shape[0])[:, None], group_of_col[path]
    # e becomes the gradient; spread holds each group's max, then its sum, in
    # the group's columns (mode="clip" lets np.take fill ``out`` unbuffered).
    # One allocation: two batch-sized arrays freed side by side let the C
    # allocator unmap pages that the next batch faults back in.
    e, spread = np.empty((2, *x.shape))
    m = np.maximum.reduceat(x, starts, axis=1)
    np.subtract(x, np.take(m, group_of_col, axis=1, out=spread, mode="clip"), out=e)
    shift = e[rows, path]
    np.exp(e, out=e)
    total = np.add.reduceat(e, starts, axis=1)
    on_path = total[rows, groups]
    losses = np.sum(np.log(on_path) - shift, axis=1)
    if path.shape[1] < len(starts):
        total.fill(np.inf)  # e / inf is 0 off the path
        total[rows, groups] = on_path
    grad = np.divide(e, np.take(total, group_of_col, axis=1, out=spread, mode="clip"), out=e)
    grad[rows, path] -= 1.0
    return losses, grad


def _plc_ce(x: np.ndarray, tau, index: HierarchyIndex):  # groups: the levels
    _check_width(x, index)
    tau = _targets(tau, index)
    return _grouped_rows(x, index.level_offsets, index.level_of_col, tau + index.level_offsets)


def _hs_ce(x: np.ndarray, tau, index: HierarchyIndex):  # groups: the sibling groups
    _check_width(x, index)
    tau = _targets(tau, index)
    _check_paths(tau, index)
    return _grouped_rows(x, index.group_starts, index.group_of_col, index.leaf_cols[tau[:, -1]])


def _mplc_ce(x: np.ndarray, tau, index: HierarchyIndex):
    """``hs`` in the sibling-group layout. np.take keeps the gradient C-ordered,
    as grad[:, perm] would not: the trainer's xb.T @ grad rounds by its order."""
    _check_width(x, index)
    xg = np.take(x, index.level_col, axis=1)
    losses, grad = _hs_ce(xg, tau, index)
    return losses, np.take(grad, index.group_col, axis=1, out=xg, mode="clip")


def plc_loss(x, tau, index: HierarchyIndex) -> tuple[float, np.ndarray]:
    """Sum of per-level softmax cross-entropies."""
    return _batch_mean(_plc_ce, x, tau, index)


def _upper_marginals(p: np.ndarray, index: HierarchyIndex) -> list[np.ndarray]:
    """Each level above the leaves as (n, N_i) sums of the leaf probabilities
    ``p`` (n, N_L), one sum per node over its run of leaves in DFS order."""
    q = p[:, index.leaf_dfs]
    out = []
    for start, pos, size in zip(index.run_start, index.run_pos, index.level_sizes):
        m = np.zeros((p.shape[0], size))
        m[:, pos] = np.add.reduceat(q, start, axis=1)
        out.append(m)
    return out


def mc_probabilities(leaf_logits, index: HierarchyIndex) -> list[np.ndarray]:
    """Per-level probabilities: the leaf softmax, and above it the sum over
    each node's leaves."""
    x, single = _batchify(leaf_logits)
    n_leaves = index.level_sizes[-1]
    if x.shape[1] != n_leaves:
        raise HeadError(f"expected {n_leaves} leaf logits, got {x.shape[1]}")
    leaf = _softmax(x)
    probs = [*_upper_marginals(leaf, index), leaf]
    if single:
        return [p[0] for p in probs]
    return probs


# Below this an upper-level marginal may be a sum of underflowed leaf
# probabilities; its rows take the marginal as a log-sum-exp instead.
_MIN_MARGINAL = 1e-200


def _mc_rows(x: np.ndarray, tau, index: HierarchyIndex) -> tuple[np.ndarray, np.ndarray]:
    tau = _targets(tau, index)
    _check_paths(tau, index)
    n, levels = x.shape[0], index.level_count
    rows = np.arange(n)
    lse = _logsumexp(x, axis=1)
    p = np.exp(x - lse[:, None])
    losses = lse - x[rows, tau[:, -1]]
    # -log m of a marginal m has gradient p - p / m on the truth's leaves and
    # p elsewhere. inv sums 1/m down each row's target path, from level 1 to
    # the leaves' parents; the leaf level's own term is p - onehot.
    inv, exact = np.zeros((n, index.level_sizes[0])), []
    for i, marg in enumerate(_upper_marginals(p, index)):
        if i:
            inv = inv[:, index.parent_pos[i - 1]]
        m = marg[rows, tau[:, i]]
        tiny = m < _MIN_MARGINAL
        log_m = np.log(m, out=np.zeros(n), where=~tiny)
        if tiny.any():
            logp = x[tiny] - lse[tiny, None]
            under = index.leaf_path[:, i] == tau[tiny, i, None]
            log_m[tiny] = _logsumexp(np.where(under, logp, -np.inf), axis=1)
            exact.append((tiny, np.exp(np.where(under, logp - log_m[tiny, None], -np.inf))))
            m[tiny] = np.inf  # no 1/m term: ``exact`` holds these rows' p / m
        losses -= log_m
        inv[rows, tau[:, i]] += 1.0 / m
    grad = p
    if levels > 1:
        coef = inv[:, index.parent_pos[-1]]
        np.subtract(levels, coef, out=coef)
        grad *= coef
    grad[rows, tau[:, -1]] -= 1.0
    for tiny, p_over_m in exact:
        grad[tiny] -= p_over_m
    return losses, grad


def mc_loss(leaf_logits, tau, index: HierarchyIndex) -> tuple[float, np.ndarray]:
    """Marginalization loss: sum over levels of -log marginal of the truth."""
    return _batch_mean(_mc_rows, leaf_logits, tau, index)


def mplc_loss(x, tau, index: HierarchyIndex) -> tuple[float, np.ndarray]:
    """Per-level cross-entropy restricted to the true parent's children."""
    return _batch_mean(_mplc_ce, x, tau, index)


def mplc_predict(x, index: HierarchyIndex) -> np.ndarray:
    """Top-down decisions: level-1 argmax, then argmax among the predicted
    parent's children. Ties resolve to the lowest index."""
    x, single = _batchify(x)
    pos = np.empty((x.shape[0], index.level_count), dtype=np.int64)
    pos[:, 0] = np.argmax(x[:, : index.level_sizes[0]], axis=1)
    for i in range(1, index.level_count):
        off = index.level_offsets[i]
        seg = x[:, off : off + index.level_sizes[i]]
        kids = index.parent_pos[i - 1] == pos[:, i - 1, None]
        if not kids.any(axis=1).all():
            parent = index.levels[i - 1][pos[np.argmin(kids.any(axis=1)), i - 1]]
            raise HeadError(f"predicted {parent!r} has no children at level {i + 1}")
        pos[:, i] = np.argmax(np.where(kids, seg, -np.inf), axis=1)
    out = _label_ids(index, pos)
    return out[0] if single else out


def hs_probabilities(
    group_logits, index: HierarchyIndex
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-group conditionals plus the joint distribution over leaves."""
    x, single = _batchify(group_logits)
    _check_width(x, index)
    starts, cols = index.group_starts, index.group_of_col
    log_cond = x - np.take(np.maximum.reduceat(x, starts, axis=1), cols, axis=1)
    cond = np.exp(log_cond)
    total = np.add.reduceat(cond, starts, axis=1)
    cond /= np.take(total, cols, axis=1)
    conds = [cond[:, g.offset : g.offset + len(g.member_ids)] for g in index.groups]
    log_cond -= np.take(np.log(total), cols, axis=1)
    joint_log = np.zeros((x.shape[0], index.level_sizes[-1]))
    for cols in index.leaf_cols.T[::-1]:  # leaf level first, up to the root
        joint_log += log_cond[:, cols]
    joint = np.exp(joint_log)
    if single:
        return [c[0] for c in conds], joint[0]
    return conds, joint


def hs_loss(group_logits, tau, index: HierarchyIndex) -> tuple[float, np.ndarray]:
    """Negative log joint of the true path: cross-entropy in each path group."""
    return _batch_mean(_hs_ce, group_logits, tau, index)


def hs_predict(group_logits, index: HierarchyIndex) -> np.ndarray:
    """Leaf with the maximal joint probability; upper levels from its path."""
    x, single = _batchify(group_logits)
    _, joint = hs_probabilities(x, index)
    out = _label_ids(index, index.leaf_path[np.argmax(joint, axis=1)])
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Decision thresholds (hab)
# ---------------------------------------------------------------------------

def _best_f1_threshold(scores: np.ndarray, truth: np.ndarray) -> float:
    """Threshold (predict score >= t) maximizing F1; ties pick the largest t.

    F1 is read only at the last index of each run of equal scores, where
    the true-positive count does not depend on the order within the run;
    so the sort need not be stable.
    """
    order = np.argsort(-scores)
    s = scores[order]
    y = truth[order].astype(np.int64)
    total_pos = int(y.sum())
    tp = np.cumsum(y)
    k = np.arange(1, len(s) + 1)
    f1 = 2.0 * tp / (k + total_pos) if total_pos else np.zeros(len(s))
    boundary = np.flatnonzero(np.append(s[:-1] != s[1:], True))
    best = boundary[np.argmax(f1[boundary])]
    return float(s[best]) if f1[best] > 0 else float(s[0] + 1.0)  # else predict nothing


def level_micro_f1(index: HierarchyIndex, pred: np.ndarray, truth: np.ndarray) -> list[float]:
    """Micro-F1 of multi-hot decisions (n, N_t) within each level's columns."""
    return [
        micro_f1(pred[:, off : off + size], truth[:, off : off + size])
        for off, size in zip(index.level_offsets, index.level_sizes)
    ]


def select_thresholds(scores, targets, mode: str) -> np.ndarray:
    """Decision boundaries for multi-label sigmoid scores.

    ``ofadb`` returns a single shared threshold maximizing micro-F1 over all
    (sample, label) scores; ``pcdb`` one threshold per label. Scores are
    classified positive when >= the threshold.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=bool))
    if scores.size == 0:
        raise HeadError("threshold selection needs a non-empty validation set")
    if scores.shape != targets.shape:
        raise HeadError("scores and targets must align")
    if mode == "ofadb":
        return np.array([_best_f1_threshold(scores.ravel(), targets.ravel())])
    if mode == "pcdb":
        return np.array(
            [_best_f1_threshold(scores[:, j], targets[:, j]) for j in range(scores.shape[1])]
        )
    raise HeadError(f"mode must be ofadb or pcdb, got {mode!r}")


# ---------------------------------------------------------------------------
# Class imbalance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImbalancePolicy:
    """Inverse-frequency loss weights or resampling probabilities."""

    mode: str  # none | class-weights | resample
    weights: dict | None = None

    @classmethod
    def from_labels(cls, mode: str, leaf_labels: Sequence[str]) -> "ImbalancePolicy":
        if mode not in ("none", "class-weights", "resample"):
            raise HeadError(f"unknown imbalance mode {mode!r}")
        if mode == "none":
            return cls("none", None)
        counts = Counter(leaf_labels)
        n = len(leaf_labels)
        k = len(counts)
        weights = {lab: n / (k * c) for lab, c in counts.items()}
        return cls(mode, weights)

    def sample_weights(self, leaf_labels: Sequence[str]) -> np.ndarray:
        if self.mode == "none":
            return np.ones(len(leaf_labels))
        out = np.empty(len(leaf_labels))
        for i, lab in enumerate(leaf_labels):
            if lab not in self.weights:
                raise HeadError(f"zero-frequency label {lab!r}")
            out[i] = self.weights[lab]
        return out

    def resample_probabilities(self, leaf_labels: Sequence[str]) -> np.ndarray:
        w = self.sample_weights(leaf_labels)
        return w / w.sum()


# ---------------------------------------------------------------------------
# Linear trainer
# ---------------------------------------------------------------------------

INIT_STD = 0.01  # standard deviation of the initial weights


@dataclass
class ClassifierConfig:
    head: str = "plc"
    lr: float = 0.01
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    threshold_mode: str = "ofadb"

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch size must be positive, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.lr < 0:
            raise ValueError(f"learning rate must be nonnegative, got {self.lr}")
        if self.threshold_mode not in ("ofadb", "pcdb"):
            raise ValueError(f"threshold mode must be ofadb or pcdb, got {self.threshold_mode!r}")


@dataclass
class LinearClassifier:
    w: np.ndarray  # (D, width)
    b: np.ndarray  # (width,)
    head: str
    index: HierarchyIndex
    thresholds: np.ndarray | None = None  # hab only

    def logits(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=float) @ self.w + self.b


def head_loss(
    head: str, logits: np.ndarray, tau: np.ndarray, multi_hot: np.ndarray, index: HierarchyIndex,
    weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Batch-mean loss and logit gradient of one head, optionally class-weighted."""
    if head == "hab":
        return _batch_mean(_hab_rows, logits, multi_hot, weights=weights)
    rows = {"mc": _mc_rows, "plc": _plc_ce, "mplc": _mplc_ce, "hs": _hs_ce}.get(head)
    if rows is None:
        raise HeadError(f"unknown head kind {head!r}")
    return _batch_mean(rows, logits, tau, index, weights=weights)


# ``bench/spans.py`` traces this name in its ``heads.loss`` layer (the layer
# goes untraced without it); drop the alias once the layer lists ``head_loss``.
_weighted_head_loss = head_loss


def predict_levels(clf: LinearClassifier, features: np.ndarray) -> np.ndarray:
    """Single label per level; ``hab`` uses its thresholded sets instead."""
    x = clf.logits(features)
    index = clf.index
    if clf.head == "plc":
        segs = [x[:, off : off + size] for off, size in zip(index.level_offsets, index.level_sizes)]
        return _label_ids(index, np.stack([np.argmax(seg, axis=1) for seg in segs], axis=1))
    if clf.head == "mc":
        probs = mc_probabilities(x, index)
        return _label_ids(index, np.stack([np.argmax(p, axis=1) for p in probs], axis=1))
    if clf.head == "mplc":
        return mplc_predict(x, index)
    if clf.head == "hs":
        return hs_predict(x, index)
    raise HeadError(f"per-level prediction undefined for head {clf.head!r}")


def predict_sets(clf: LinearClassifier, features: np.ndarray) -> np.ndarray:
    """Thresholded multi-label decisions for the one-vs-rest head."""
    if clf.head != "hab":
        raise HeadError("set prediction is only defined for the hab head")
    if clf.thresholds is None:
        raise HeadError("hab classifier has no calibrated thresholds")
    scores = _sigmoid(clf.logits(features))
    return scores >= clf.thresholds[None, :] if len(clf.thresholds) > 1 else scores >= clf.thresholds[0]


def _epoch_stream(
    n: int, policy: ImbalancePolicy, leaf_labels: Sequence[str] | None, rng: np.random.Generator
) -> np.ndarray:
    if policy.mode == "resample":
        p = policy.resample_probabilities(leaf_labels)
        return rng.choice(n, size=n, replace=True, p=p)
    return rng.permutation(n)


def train_linear_classifier(
    train_features: np.ndarray,
    train_labels: np.ndarray,  # (n, L) per-level label ids
    val_features: np.ndarray,
    val_labels: np.ndarray,
    h: Hierarchy,
    policy: ImbalancePolicy,
    config: ClassifierConfig,
) -> tuple[LinearClassifier, list[dict]]:
    """Adam on a bias-augmented linear model under the selected head loss.

    Logs per-level micro-F1 on the validation split each epoch. For the
    one-vs-rest head the decision thresholds are calibrated on the
    validation split each epoch; the model keeps the last epoch's.
    """
    index = HierarchyIndex(h)
    width = head_width(config.head, index)
    X = np.asarray(train_features, dtype=float)
    n, d = X.shape
    if n == 0:
        raise HeadError("no training instances")
    tau = index.tau_from_labels(train_labels)
    mh = index.multi_hot(train_labels) if config.head == "hab" else None
    leaf_ids = None if policy.mode == "none" else [str(row[-1]) for row in train_labels]
    static_weights = (
        policy.sample_weights(leaf_ids) if policy.mode == "class-weights" else None
    )

    rng = np.random.default_rng(config.seed)
    # w and b are the rows of one packed (d + 1, width) parameter array, so
    # one Adam call and one gradient buffer serve both.
    wb = np.zeros((d + 1, width))
    wb[:d] = rng.standard_normal((d, width)) * INIT_STD
    w, b = wb[:d], wb[d]
    from . import training  # shared optimizer, looked up at call time

    state = training.AdamState.like(wb)
    grad_wb = np.empty_like(wb)
    history: list[dict] = []
    has_val = len(val_labels) > 0
    if has_val:
        index.tau_from_labels(val_labels)  # checks the labels
    val_mh = index.multi_hot(val_labels) if has_val and config.head == "hab" else None

    def calibrate(clf: LinearClassifier) -> np.ndarray:
        if not has_val:
            raise HeadError("hab threshold calibration needs a validation split")
        scores = _sigmoid(clf.logits(val_features))
        return select_thresholds(scores, val_mh, config.threshold_mode)

    thresholds = None
    logits_buf = np.empty((min(n, config.batch_size), width))  # as in _grouped_rows

    for epoch in range(1, config.epochs + 1):
        stream = _epoch_stream(n, policy, leaf_ids, rng)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = stream[start : start + config.batch_size]
            xb = X[idx]
            logits = np.matmul(xb, w, out=logits_buf[: len(idx)])
            logits += b
            loss, grad = head_loss(
                config.head, logits, tau[idx], None if mh is None else mh[idx], index,
                None if static_weights is None else static_weights[idx],
            )
            epoch_loss += loss * len(idx)
            np.matmul(xb.T, grad, out=grad_wb[:d])
            np.sum(grad, axis=0, out=grad_wb[d])
            wb = training.adam_step(wb, grad_wb, state, config.lr)
            w, b = wb[:d], wb[d]
        row = {"epoch": epoch, "loss": epoch_loss / n}
        if has_val:
            clf = LinearClassifier(w, b, config.head, index)
            if config.head == "hab":
                thresholds = clf.thresholds = calibrate(clf)
                per_level = level_micro_f1(index, predict_sets(clf, val_features), val_mh)
            else:
                per_level, _ = level_accuracy(predict_levels(clf, val_features), val_labels)
            row.update({f"val_f1_L{i + 1}": f1 for i, f1 in enumerate(per_level)})
        history.append(row)

    clf = LinearClassifier(w, b, config.head, index, thresholds)
    if config.head == "hab" and thresholds is None:  # no epoch ran
        clf.thresholds = calibrate(clf)
    return clf, history
