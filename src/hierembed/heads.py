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

Within a level labels are ordered by node id; levels are concatenated for
flat layouts. Sibling groups are laid out root group first, then by
parent node id. All losses are batch means and come with analytic
gradients with respect to the logits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hierarchy import Hierarchy
from .metrics import level_accuracy, micro_f1


class HeadError(ValueError):
    """Inconsistent labels, segment layouts, or imbalance inputs."""


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


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
    """Flat logit layouts, leaf maps, and sibling groups for one hierarchy."""

    def __init__(self, h: Hierarchy):
        self.h = h
        self.level_count = h.level_count
        self.levels = [h.level_members(l) for l in range(1, h.level_count + 1)]
        self.level_sizes = tuple(len(m) for m in self.levels)
        self.level_offsets = tuple(
            int(x) for x in np.concatenate([[0], np.cumsum(self.level_sizes)[:-1]])
        )
        self.n_total = int(sum(self.level_sizes))
        self.pos_in_level = {
            nid: pos for members in self.levels for pos, nid in enumerate(members)
        }
        self.level_sets = [set(m) for m in self.levels]
        # Children positions: children_pos[i][j] = positions (level i+2) of the
        # children of the j-th node at level i+1 (0-based level index i).
        self.children_pos: list[list[np.ndarray]] = []
        for i in range(self.level_count - 1):
            rows = []
            for nid in self.levels[i]:
                rows.append(
                    np.array(
                        sorted(self.pos_in_level[c] for c in h.children(nid)),
                        dtype=np.int64,
                    )
                )
            self.children_pos.append(rows)
        # Leaf-descendant masks per level: (N_i, N_L) booleans.
        n_leaves = self.level_sizes[-1]
        self.leaf_masks: list[np.ndarray] = []
        for i in range(self.level_count):
            mask = np.zeros((self.level_sizes[i], n_leaves), dtype=bool)
            for j, nid in enumerate(self.levels[i]):
                for leaf in h.leaf_descendants(nid):
                    mask[j, self.pos_in_level[leaf]] = True
            self.leaf_masks.append(mask)
        # Sibling groups: root group first, then by parent node id.
        groups: list[SiblingGroup] = []
        offset = 0
        root_members = tuple(self.levels[0])
        groups.append(SiblingGroup(None, 1, root_members, offset))
        offset += len(root_members)
        parents = sorted(
            (n.node_id for n in h.nodes if h.children(n.node_id)),
        )
        for pid in parents:
            members = tuple(sorted(h.children(pid)))
            groups.append(SiblingGroup(pid, h.node(members[0]).level, members, offset))
            offset += len(members)
        self.groups = groups
        self.group_width = offset
        self.group_of: dict[str, tuple[int, int]] = {}
        for gi, g in enumerate(groups):
            for pos, nid in enumerate(g.member_ids):
                self.group_of[nid] = (gi, pos)

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
        out = np.empty(labels.shape, dtype=np.int64)
        for s in range(labels.shape[0]):
            for i in range(self.level_count):
                nid = labels[s, i]
                if nid not in self.level_sets[i]:
                    raise HeadError(f"label {nid!r} is not at level {i + 1}")
                out[s, i] = self.pos_in_level[nid]
        return out

    def multi_hot(self, labels: np.ndarray) -> np.ndarray:
        """Boolean (n, N_t) targets with one label per level set true."""
        tau = self.tau_from_labels(labels)
        out = np.zeros((tau.shape[0], self.n_total), dtype=bool)
        for i, off in enumerate(self.level_offsets):
            out[np.arange(tau.shape[0]), off + tau[:, i]] = True
        return out

    def labels_from_tau(self, tau: np.ndarray) -> np.ndarray:
        out = np.empty(tau.shape, dtype=object)
        for i in range(self.level_count):
            members = self.levels[i]
            for s in range(tau.shape[0]):
                out[s, i] = members[tau[s, i]]
        return out

    def check_path(self, tau_row: np.ndarray) -> None:
        """Raise unless the per-level positions form a parent-child path."""
        for i in range(1, self.level_count):
            parent = self.levels[i - 1][tau_row[i - 1]]
            child = self.levels[i][tau_row[i]]
            if self.h.parent(child) != parent:
                raise HeadError(f"{child!r} is not a child of {parent!r}")


def head_width(head: str, index: HierarchyIndex) -> int:
    if head in ("hab", "plc", "mplc"):
        return index.n_total
    if head == "mc":
        return index.level_sizes[-1]
    if head == "hs":
        return index.group_width
    raise HeadError(f"unknown head kind {head!r}")


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def hab_loss(x, y) -> tuple[float, np.ndarray]:
    """Multi-label soft-margin loss, mean over labels (and batch)."""
    x, single = _batchify(x)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    if x.shape != y.shape:
        raise HeadError(f"logit shape {x.shape} != target shape {y.shape}")
    n, width = x.shape
    loss = float(np.sum(y * _softplus(-x) + (1.0 - y) * _softplus(x))) / (n * width)
    grad = (_sigmoid(x) - y) / (n * width)
    return loss, (grad[0] if single else grad)


def _per_sample_ce(seg: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy of each row against its target column, with gradient."""
    n = seg.shape[0]
    logz = _logsumexp(seg, axis=1)
    losses = logz - seg[np.arange(n), tau]
    grad = _softmax(seg)
    grad[np.arange(n), tau] -= 1.0
    return losses, grad


def plc_loss(x, tau, index: HierarchyIndex) -> tuple[float, np.ndarray]:
    """Sum of per-level softmax cross-entropies."""
    x, single = _batchify(x)
    tau = np.atleast_2d(np.asarray(tau, dtype=np.int64))
    _check_tau(tau, index)
    n = x.shape[0]
    grad = np.zeros_like(x)
    total = 0.0
    for i, (off, size) in enumerate(zip(index.level_offsets, index.level_sizes)):
        seg = x[:, off : off + size]
        losses, g = _per_sample_ce(seg, tau[:, i])
        total += float(losses.sum())
        grad[:, off : off + size] = g
    loss = total / n
    grad /= n
    return loss, (grad[0] if single else grad)


def _check_tau(tau: np.ndarray, index: HierarchyIndex) -> None:
    if tau.shape[1] != index.level_count:
        raise HeadError(f"expected {index.level_count} target levels, got {tau.shape[1]}")
    for i, size in enumerate(index.level_sizes):
        if np.any(tau[:, i] < 0) or np.any(tau[:, i] >= size):
            raise HeadError(f"level {i + 1} target out of range [0, {size})")


def mc_probabilities(leaf_logits, index: HierarchyIndex) -> list[np.ndarray]:
    """Per-level probabilities: leaf softmax plus bottom-up children sums."""
    x, single = _batchify(leaf_logits)
    n_leaves = index.level_sizes[-1]
    if x.shape[1] != n_leaves:
        raise HeadError(f"expected {n_leaves} leaf logits, got {x.shape[1]}")
    probs: list[np.ndarray] = [None] * index.level_count
    probs[-1] = _softmax(x)
    for i in range(index.level_count - 2, -1, -1):
        up = np.zeros((x.shape[0], index.level_sizes[i]))
        for j, kids in enumerate(index.children_pos[i]):
            up[:, j] = probs[i + 1][:, kids].sum(axis=1)
        probs[i] = up
    if single:
        return [p[0] for p in probs]
    return probs


def mc_loss(leaf_logits, tau, index: HierarchyIndex) -> tuple[float, np.ndarray]:
    """Marginalization loss: sum over levels of -log marginal of the truth."""
    x, single = _batchify(leaf_logits)
    tau = np.atleast_2d(np.asarray(tau, dtype=np.int64))
    _check_tau(tau, index)
    n = x.shape[0]
    logp = x - _logsumexp(x, axis=1)[:, None]
    p = np.exp(logp)
    total = 0.0
    grad = np.zeros_like(x)
    for i in range(index.level_count):
        mask = index.leaf_masks[i][tau[:, i]]  # (n, N_L)
        masked = np.where(mask, logp, -np.inf)
        log_ps = _logsumexp(masked, axis=1)
        total += float(-log_ps.sum())
        grad += p - np.where(mask, np.exp(logp - log_ps[:, None]), 0.0)
    loss = total / n
    grad /= n
    return loss, (grad[0] if single else grad)


def mplc_loss(x, tau, index: HierarchyIndex) -> tuple[float, np.ndarray]:
    """Per-level cross-entropy restricted to the true parent's children."""
    x, single = _batchify(x)
    tau = np.atleast_2d(np.asarray(tau, dtype=np.int64))
    _check_tau(tau, index)
    n = x.shape[0]
    grad = np.zeros_like(x)
    total = 0.0
    for i, (off, size) in enumerate(zip(index.level_offsets, index.level_sizes)):
        seg = x[:, off : off + size]
        if i == 0:
            losses, g = _per_sample_ce(seg, tau[:, 0])
            total += float(losses.sum())
            grad[:, off : off + size] = g
            continue
        mask = np.zeros((n, size), dtype=bool)
        for s in range(n):
            kids = index.children_pos[i - 1][tau[s, i - 1]]
            if tau[s, i] not in kids:
                child = index.levels[i][tau[s, i]]
                parent = index.levels[i - 1][tau[s, i - 1]]
                raise HeadError(f"target {child!r} is not a child of {parent!r}")
            mask[s, kids] = True
        masked = np.where(mask, seg, -np.inf)
        logz = _logsumexp(masked, axis=1)
        total += float((logz - seg[np.arange(n), tau[:, i]]).sum())
        sm = np.where(mask, np.exp(seg - logz[:, None]), 0.0)
        sm[np.arange(n), tau[:, i]] -= 1.0
        grad[:, off : off + size] = sm
    loss = total / n
    grad /= n
    return loss, (grad[0] if single else grad)


def mplc_predict(x, index: HierarchyIndex) -> np.ndarray:
    """Top-down decisions: level-1 argmax, then argmax among the predicted
    parent's children. Ties resolve to the lowest index."""
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
            kids = index.children_pos[i - 1][prev[s]]
            cur[s] = kids[int(np.argmax(seg[s, kids]))]
        out[:, i] = [index.levels[i][j] for j in cur]
        prev = cur
    return out[0] if single else out


def hs_probabilities(
    group_logits, index: HierarchyIndex
) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-group conditionals plus the joint distribution over leaves."""
    x, single = _batchify(group_logits)
    if x.shape[1] != index.group_width:
        raise HeadError(f"expected {index.group_width} group logits, got {x.shape[1]}")
    conds: list[np.ndarray] = []
    log_cond = np.empty_like(x)
    for g in index.groups:
        seg = x[:, g.offset : g.offset + len(g.member_ids)]
        lz = _logsumexp(seg, axis=1)
        log_cond[:, g.offset : g.offset + len(g.member_ids)] = seg - lz[:, None]
        conds.append(np.exp(seg - lz[:, None]))
    n_leaves = index.level_sizes[-1]
    joint_log = np.zeros((x.shape[0], n_leaves))
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


def hs_loss(group_logits, tau, index: HierarchyIndex) -> tuple[float, np.ndarray]:
    """Negative log joint of the true path: cross-entropy in each path group."""
    x, single = _batchify(group_logits)
    tau = np.atleast_2d(np.asarray(tau, dtype=np.int64))
    _check_tau(tau, index)
    n = x.shape[0]
    grad = np.zeros_like(x)
    total = 0.0
    for s in range(n):
        index.check_path(tau[s])
        for i in range(index.level_count):
            nid = index.levels[i][tau[s, i]]
            gi, gp = index.group_of[nid]
            g = index.groups[gi]
            seg = x[s, g.offset : g.offset + len(g.member_ids)]
            lz = _logsumexp(seg[None, :], axis=1)[0]
            total += float(lz - seg[gp])
            sm = np.exp(seg - lz)
            sm[gp] -= 1.0
            grad[s, g.offset : g.offset + len(g.member_ids)] += sm
    loss = total / n
    grad /= n
    return loss, (grad[0] if single else grad)


def hs_predict(group_logits, index: HierarchyIndex) -> np.ndarray:
    """Leaf with the maximal joint probability; upper levels from its path."""
    x, single = _batchify(group_logits)
    _, joint = hs_probabilities(x, index)
    leaves = np.argmax(joint, axis=1)
    out = np.empty((x.shape[0], index.level_count), dtype=object)
    for s, leaf_pos in enumerate(leaves):
        nid = index.levels[-1][leaf_pos]
        path = [nid]
        while index.h.parent(nid) is not None:
            nid = index.h.parent(nid)
            path.append(nid)
        out[s] = list(reversed(path))
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Decision thresholds (hab)
# ---------------------------------------------------------------------------

def _best_f1_threshold(scores: np.ndarray, truth: np.ndarray) -> float:
    """Threshold (predict score >= t) maximizing F1; ties pick the largest t."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = truth[order].astype(np.int64)
    total_pos = int(y.sum())
    tp = np.cumsum(y)
    k = np.arange(1, len(s) + 1)
    f1 = 2.0 * tp / (k + total_pos) if total_pos else np.zeros(len(s))
    boundary = np.flatnonzero(np.append(s[:-1] != s[1:], True))
    best = boundary[np.argmax(f1[boundary])]
    return float(s[best]) if f1[best] > 0 else float(s[0] + 1.0)  # else predict nothing


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
    def from_labels(
        cls, mode: str, leaf_labels: Sequence[str], label_universe: Sequence[str] | None = None
    ) -> "ImbalancePolicy":
        if mode not in ("none", "class-weights", "resample"):
            raise HeadError(f"unknown imbalance mode {mode!r}")
        if mode == "none":
            return cls("none", None)
        counts = Counter(leaf_labels)
        if label_universe is not None:
            missing = sorted(set(label_universe) - set(counts))
            if missing:
                raise HeadError(f"zero-frequency labels: {missing[:5]}")
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

@dataclass
class ClassifierConfig:
    head: str = "plc"
    lr: float = 0.01
    epochs: int = 100
    batch_size: int = 64
    seed: int = 0
    init_std: float = 0.01
    threshold_mode: str = "ofadb"


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
    head: str, logits: np.ndarray, tau: np.ndarray, multi_hot: np.ndarray, index: HierarchyIndex
) -> tuple[float, np.ndarray]:
    if head == "hab":
        return hab_loss(logits, multi_hot)
    if head == "plc":
        return plc_loss(logits, tau, index)
    if head == "mc":
        return mc_loss(logits, tau, index)
    if head == "mplc":
        return mplc_loss(logits, tau, index)
    if head == "hs":
        return hs_loss(logits, tau, index)
    raise HeadError(f"unknown head kind {head!r}")


def predict_levels(clf: LinearClassifier, features: np.ndarray) -> np.ndarray:
    """Single label per level; ``hab`` uses its thresholded sets instead."""
    x = clf.logits(features)
    index = clf.index
    if clf.head == "plc":
        out = np.empty((x.shape[0], index.level_count), dtype=object)
        for i, (off, size) in enumerate(zip(index.level_offsets, index.level_sizes)):
            arg = np.argmax(x[:, off : off + size], axis=1)
            out[:, i] = [index.levels[i][j] for j in arg]
        return out
    if clf.head == "mc":
        probs = mc_probabilities(x, index)
        out = np.empty((x.shape[0], index.level_count), dtype=object)
        for i, p in enumerate(probs):
            arg = np.argmax(p, axis=1)
            out[:, i] = [index.levels[i][j] for j in arg]
        return out
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
    n: int, policy: ImbalancePolicy, leaf_labels: Sequence[str], rng: np.random.Generator
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
    validation split after training.
    """
    index = HierarchyIndex(h)
    width = head_width(config.head, index)
    X = np.asarray(train_features, dtype=float)
    n, d = X.shape
    tau = index.tau_from_labels(train_labels)
    mh = index.multi_hot(train_labels) if config.head == "hab" else None
    leaf_ids = [str(train_labels[s][-1]) for s in range(n)]
    static_weights = (
        policy.sample_weights(leaf_ids) if policy.mode == "class-weights" else None
    )

    rng = np.random.default_rng(config.seed)
    w = rng.standard_normal((d, width)) * config.init_std
    b = np.zeros(width)
    from .training import AdamState, adam_step  # shared optimizer

    st_w = AdamState.like(w)
    st_b = AdamState.like(b)
    history: list[dict] = []
    val_tau = index.tau_from_labels(val_labels) if len(val_labels) else None
    val_mh = index.multi_hot(val_labels) if len(val_labels) and config.head == "hab" else None

    for epoch in range(1, config.epochs + 1):
        stream = _epoch_stream(n, policy, leaf_ids, rng)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = stream[start : start + config.batch_size]
            xb = X[idx]
            logits = xb @ w + b
            if policy.mode == "class-weights":
                loss, grad = _weighted_head_loss(
                    config.head, logits, tau[idx], None if mh is None else mh[idx],
                    index, static_weights[idx],
                )
            else:
                loss, grad = head_loss(
                    config.head, logits, tau[idx], None if mh is None else mh[idx], index
                )
            epoch_loss += loss * len(idx)
            gw = xb.T @ grad
            gb = grad.sum(axis=0)
            w = adam_step(w, gw, st_w, config.lr)
            b = adam_step(b, gb, st_b, config.lr)
        row = {"epoch": epoch, "loss": epoch_loss / n}
        if val_tau is not None and len(val_tau):
            clf = LinearClassifier(w, b, config.head, index)
            if config.head == "hab":
                scores = _sigmoid(clf.logits(val_features))
                clf.thresholds = select_thresholds(scores, val_mh, config.threshold_mode)
                pred = predict_sets(clf, val_features)
                for i, (off, size) in enumerate(zip(index.level_offsets, index.level_sizes)):
                    row[f"val_f1_L{i + 1}"] = micro_f1(
                        pred[:, off : off + size], val_mh[:, off : off + size]
                    )
            else:
                per_level, _ = level_accuracy(predict_levels(clf, val_features), val_labels)
                row.update({f"val_f1_L{i + 1}": acc for i, acc in enumerate(per_level)})
        history.append(row)

    clf = LinearClassifier(w, b, config.head, index)
    if config.head == "hab":
        if val_tau is None or not len(val_tau):
            raise HeadError("hab threshold calibration needs a validation split")
        scores = _sigmoid(clf.logits(val_features))
        clf.thresholds = select_thresholds(scores, val_mh, config.threshold_mode)
    return clf, history


def _weighted_head_loss(head, logits, tau, mh, index, weights):
    """Head loss with per-sample multipliers (inverse-frequency weighting)."""
    total = 0.0
    grad = np.zeros_like(logits)
    for s in range(logits.shape[0]):
        l, g = head_loss(
            head,
            logits[s],
            None if tau is None else tau[s : s + 1],
            None if mh is None else mh[s],
            index,
        )
        total += weights[s] * l
        grad[s] = weights[s] * g
    n = logits.shape[0]
    return total / n, grad / n
