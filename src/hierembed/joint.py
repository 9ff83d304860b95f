"""Joint embedding of instances with the label hierarchy.

Instances are appended to the training graph as leaves below the deepest
label level. Each instance is embedded by a learnable linear map over its
feature row; on the ball the map output is pushed inside via the
exponential map at zero, so instance embeddings always have norm < 1 no
matter what the map does. Classification picks, per level, the label
whose cone violates least against the instance embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry
from .geometry import ConeParams
from .hierarchy import Hierarchy
from .metrics import level_accuracy, tpr_tnr
from .training import (
    EmbeddingTable, TrainConfig, _best_threshold, _confusion_at, train_graph_embedding
)


@dataclass(frozen=True)
class FeatureMatrix:
    """Instance feature rows with their leaf labels."""

    instance_ids: tuple[str, ...]
    features: np.ndarray  # (n, D)
    leaf_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.instance_ids)
        if self.features.shape[0] != n or len(self.leaf_labels) != n:
            raise ValueError("instance ids, features, and leaf labels must align")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")

    def leaf_rows(self, h: Hierarchy, idx: Sequence[int] | None = None) -> np.ndarray:
        """Hierarchy rows of the leaf labels of instance rows ``idx`` (default: all).

        A leaf label that is not a deepest-level label is a ``ValueError``.
        """
        leaves = self.leaf_labels if idx is None else [self.leaf_labels[i] for i in idx]
        rows = np.fromiter((h.row_of.get(leaf, -1) for leaf in leaves), np.int64, len(leaves))
        bad = np.flatnonzero((rows < 0) | (h.level_of[rows] != h.level_count))
        if len(bad):
            where = "not in the hierarchy" if rows[bad[0]] < 0 else "is not at the deepest level"
            raise ValueError(f"leaf label {leaves[bad[0]]!r} {where}")
        return rows


@dataclass
class JointModel:
    """Label points plus the linear feature map ``w`` (D, N); no bias, no nonlinearity."""

    labels: EmbeddingTable
    w: np.ndarray
    params: ConeParams

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.w)):
            raise ValueError("linear map must be finite")


def embed_instances(features: np.ndarray, w: np.ndarray, kind: str) -> np.ndarray:
    z = np.asarray(features, dtype=float) @ w
    return geometry.exp_map_zero(z) if kind == "hc" else z


def split_instances(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic train/val/test index split over instances (80/10/10)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = n_test = int(n * 0.1)
    val = np.sort(order[:n_val])
    test = np.sort(order[n_val : n_val + n_test])
    train = np.sort(order[n_val + n_test :])
    return train, val, test


def instance_positive_rows(h: Hierarchy, features: FeatureMatrix, idx: Sequence[int]) -> np.ndarray:
    """Graph rows ``(len(idx) * L, 2)`` of the edges from every ancestor label
    (leaf first, root last) to each instance, the ``i``-th of ``idx`` being
    row ``len(h.ids) + i``."""
    paths = h.anc[features.leaf_rows(h, idx)]
    inst = len(h.ids) + np.arange(len(paths), dtype=np.int64)
    return np.stack([paths[:, ::-1].ravel(), np.repeat(inst, h.level_count)], axis=1)


def train_joint(
    h: Hierarchy,
    features: FeatureMatrix,
    config: TrainConfig,
    *,
    init_labels: EmbeddingTable | None = None,
    train_idx: np.ndarray | None = None,
    val_idx: np.ndarray | None = None,
) -> tuple[JointModel, list[dict]]:
    """Fit label points and the instance map on the extended graph.

    Positives are all label-label closure edges plus ancestor-to-instance
    edges for the training instances. ``config.lr`` drives the labels and
    ``config.lr_instances`` the linear map, both with Adam; on the ball the
    labels stay in flat coordinates and are projected after each step.
    """
    features.leaf_rows(h)
    if train_idx is None:
        train_idx, val_idx, _ = split_instances(len(features.instance_ids), config.seed)
    train_idx = np.asarray(train_idx, dtype=int)
    params = config.cone_params()
    label_ids = h.ids

    init_coords = None
    if init_labels is not None:
        if init_labels.node_ids != label_ids:
            raise ValueError("label-only initialization does not cover these labels")
        init_coords = init_labels.coords

    taken = set(h.row_of)
    for iid in (features.instance_ids[i] for i in train_idx.tolist()):
        if iid in taken:
            what = "a label id" if iid in h.row_of else "another training instance"
            raise ValueError(f"instance id {iid!r} collides with {what}")
        taken.add(iid)
    positives = np.concatenate([h.closure_rows, instance_positive_rows(h, features, train_idx)])

    # no training instances: the engine returns no map and the zero map
    # stands in for it, in the epoch hook and in the model
    zero_w = np.zeros((features.features.shape[1], config.dim))
    hook = None
    if val_idx is not None and len(val_idx):
        val_idx = np.asarray(val_idx, dtype=int)
        truth = level_truth(h, features, val_idx)

        def hook(coords: np.ndarray, w: np.ndarray | None) -> dict:
            table = EmbeddingTable(label_ids, coords, params)
            model = JointModel(table, zero_w if w is None else w, params)
            preds, _ = classify_levels(model, h, features.features[val_idx])
            return {"val_f1": level_accuracy(preds, truth)[1]}

    coords, w, history = train_graph_embedding(
        h, positives, config, features=features.features[train_idx],
        init_coords=init_coords, epoch_hook=hook,
    )
    model = JointModel(EmbeddingTable(label_ids, coords, params), zero_w if w is None else w, params)
    return model, history


def level_truth(h: Hierarchy, features: FeatureMatrix, idx: Sequence[int]) -> np.ndarray:
    """Root-to-leaf label ids (n, L) of the given instance rows."""
    return np.asarray(h.ids, dtype=object)[h.anc[features.leaf_rows(h, idx)]]


# Bound on the pairs per ``geometry.energies`` call when scoring all pairs of two point sets.
PAIR_CHUNK = 1 << 16


def _pairwise_energies(X: np.ndarray, Y: np.ndarray, params: ConeParams) -> np.ndarray:
    """(n, N) ``geometry.energies`` of (n, 1, d) and (1, N, d) points, either way round."""
    n, N = np.broadcast_shapes(X.shape, Y.shape)[:2]
    step = max(1, PAIR_CHUNK // N)
    if n <= step:  # one block: the kernel's array is the result
        return geometry.energies(X, Y, params)
    out = np.empty((n, N))
    for s in range(0, n, step):
        block = [A[s : s + step] if len(A) == n else A for A in (X, Y)]
        out[s : s + step] = geometry.energies(*block, params)
    return out


def level_energies(
    model: JointModel, h: Hierarchy, points: np.ndarray, level: int,
    labels: np.ndarray | None = None,
) -> tuple[tuple[str, ...], np.ndarray]:
    """Energies of every label at ``level`` against instance points (n, d).

    ``labels`` may hold the level's label points (N_level, d), gathered
    once by a caller that scores many blocks. Returns the id-sorted member
    tuple and an (n, N_level) energy matrix.
    """
    members = h.level_members(level)
    if labels is None:
        labels = model.labels.coords[model.labels.rows(members)]
    return members, _pairwise_energies(labels[None], points[:, None], model.params)


def classify_levels(
    model: JointModel, h: Hierarchy, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-level argmin labels for a feature batch.

    Returns an (n, L) array of label ids and an (n, L) array of the
    winning energies.
    """
    preds, best, _ = _classify(model, h, features)
    return preds, best


def _classify(
    model: JointModel, h: Hierarchy, features: np.ndarray, truth: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``classify_levels`` plus, given the hierarchy rows (n, L) of the true
    labels, their ranks (n, L).

    A rank is the 0-based position in the stable energy sort of the level:
    the labels with lower energy plus those with equal energy and a lower
    id. All rows are embedded by one matmul; then blocks of
    ``max(1, PAIR_CHUNK // N)`` rows, N the widest level's size, are scored
    against each level once, so memory is O(block·N + n·(d + L)), not
    O(n·N). Every output is row-wise, so the blocks do not move its bytes.
    """
    points = embed_instances(features, model.w, model.params.kind)
    n, levels = points.shape[0], h.level_count
    preds = np.empty((n, levels), dtype=object)
    best = np.empty((n, levels))
    ranks = None if truth is None else np.empty((n, levels), dtype=np.int64)
    names = [np.asarray(h.level_members(lvl + 1), dtype=object) for lvl in range(levels)]
    labels = [model.labels.coords[model.labels.rows(m)] for m in names]  # names missing labels
    step = max(1, PAIR_CHUNK // max(h.level_sizes))
    for s in range(0, n, step):
        rows = slice(s, s + step)
        for lvl in range(levels):
            _, e = level_energies(model, h, points[rows], lvl + 1, labels=labels[lvl])
            arg = np.argmin(e, axis=1)
            preds[rows, lvl] = names[lvl][arg]
            best[rows, lvl] = np.take_along_axis(e, arg[:, None], 1)[:, 0]
            if ranks is not None:
                col = np.searchsorted(h.level_rows[lvl], truth[rows, lvl])[:, None]
                et = np.take_along_axis(e, col, 1)
                rank = np.count_nonzero(e < et, axis=1)
                ties = e == et
                tied = np.flatnonzero(np.count_nonzero(ties, axis=1) > 1)
                if len(tied):  # equal energies before the true label's column
                    first = np.arange(e.shape[1]) < col[tied]
                    rank[tied] += np.count_nonzero(ties[tied] & first, axis=1)
                ranks[rows, lvl] = rank
    return preds, best, ranks


def rank_levels(
    model: JointModel, h: Hierarchy, features: np.ndarray
) -> list[list[list[str]]]:
    """Energy-sorted label rankings per instance per level (best first)."""
    points = embed_instances(features, model.w, model.params.kind)
    per_level = []
    for level in range(1, h.level_count + 1):
        members, e = level_energies(model, h, points, level)
        per_level.append((members, np.argsort(e, axis=1, kind="stable")))
    return [
        [[members[j] for j in order[i]] for members, order in per_level]
        for i in range(points.shape[0])
    ]


@dataclass(frozen=True)
class ClassificationReport:
    overall_f1: float
    level_f1: tuple[float, ...]
    hit3_final: float
    hit5_final: float
    hit3_level_avg: float
    hit5_level_avg: float


def classify_and_report(
    model: JointModel, h: Hierarchy, features: FeatureMatrix, idx: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, ClassificationReport]:
    """``classify_levels`` of the selected rows and their report, from one pass."""
    idx = np.asarray(idx, dtype=int)
    paths = h.anc[features.leaf_rows(h, idx)]
    # Every row in order: embed the features in place. A copy would hold the
    # same bytes in C order, so the matmul rounds the same; a Fortran-order
    # array would round differently, and is copied.
    feats = features.features
    if not (feats.flags.c_contiguous and np.array_equal(idx, np.arange(len(feats)))):
        feats = feats[idx]
    preds, best, ranks = _classify(model, h, feats, paths)
    level_f1, overall = level_accuracy(preds, np.asarray(h.ids, dtype=object)[paths])
    n, levels = ranks.shape

    def hit(k: int, lvl: int) -> float:
        return int(np.count_nonzero(ranks[:, lvl] < k)) / n if n else 0.0

    report = ClassificationReport(
        overall_f1=overall,
        level_f1=level_f1,
        hit3_final=hit(3, levels - 1),
        hit5_final=hit(5, levels - 1),
        hit3_level_avg=float(np.mean([hit(3, lvl) for lvl in range(levels)])),
        hit5_level_avg=float(np.mean([hit(5, lvl) for lvl in range(levels)])),
    )
    return preds, best, report


def classification_report(
    model: JointModel, h: Hierarchy, features: FeatureMatrix, idx: Sequence[int]
) -> ClassificationReport:
    """Per-level micro-F1 plus hit@k on the selected instance rows."""
    return classify_and_report(model, h, features, idx)[2]


@dataclass(frozen=True)
class ReconstructionResult:
    tpr: float
    tnr: float
    f1: float
    threshold: float


def reconstruct_labels(table: EmbeddingTable, h: Hierarchy) -> ReconstructionResult:
    """Label-hierarchy reconstruction quality of an embedding.

    Closure pairs are positives, every other ordered label pair (no
    self-pairs) a negative; the threshold is the best-F1 sweep over the
    pooled energies. No instance-sided pairs are involved.
    """
    n = len(table.node_ids)
    rows = table.rows(h.ids)[h.closure_rows]
    if n < 2:
        raise ValueError("reconstruction needs two labels: there is no label pair to score")
    closure = np.zeros((n, n), dtype=bool)
    closure[rows[:, 0], rows[:, 1]] = True
    e = _pairwise_energies(table.coords[:, None], table.coords[None], table.params)
    pos_e = e[closure]  # the closure holds no self-pair
    np.fill_diagonal(closure, True)
    neg_e = e[~closure]
    best = _best_threshold(pos_e, neg_e)
    tpr, tnr = tpr_tnr(_confusion_at(pos_e, neg_e, best.threshold))
    return ReconstructionResult(tpr=tpr, tnr=tnr, f1=best.f1, threshold=best.threshold)
