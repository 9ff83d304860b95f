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
from .metrics import hit_at_k
from .training import (
    EmbeddingTable,
    InstanceNodes,
    TrainConfig,
    _best_threshold,
    train_graph_embedding,
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

    def validate_against(self, h: Hierarchy) -> None:
        known = {node.node_id for node in h.nodes}
        deepest = set(h.level_members(h.level_count))
        for leaf in self.leaf_labels:
            if leaf not in known:
                raise ValueError(f"leaf label {leaf!r} not in the hierarchy")
            if leaf not in deepest:
                raise ValueError(f"leaf label {leaf!r} is not at the deepest level")


@dataclass
class JointModel:
    """Label points plus the linear feature map ``w`` (D, N); no bias, no nonlinearity."""

    labels: EmbeddingTable
    w: np.ndarray
    params: ConeParams

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.w)):
            raise ValueError("linear map must be finite")


def embed_instance(features_row: np.ndarray, w: np.ndarray, kind: str) -> np.ndarray:
    """Map one feature row into the embedding space."""
    point = embed_instances(np.asarray(features_row, dtype=float)[None, :], w, kind)[0]
    # exp_0 maps finite rows to finite points, so this checks the map's output
    if not np.all(np.isfinite(point)):
        raise ValueError("non-finite instance embedding")
    return point


def embed_instances(features: np.ndarray, w: np.ndarray, kind: str) -> np.ndarray:
    z = np.asarray(features, dtype=float) @ w
    return geometry.exp_map_zero(z) if kind == "hc" else z


def split_instances(
    n: int, seed: int, val_frac: float = 0.1, test_frac: float = 0.1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic train/val/test index split over instances (80/10/10)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = int(n * val_frac)
    n_test = int(n * test_frac)
    val = np.sort(order[:n_val])
    test = np.sort(order[n_val : n_val + n_test])
    train = np.sort(order[n_val + n_test :])
    return train, val, test


def instance_positive_edges(
    h: Hierarchy, features: FeatureMatrix, idx: Sequence[int]
) -> list[tuple[str, str]]:
    """Edges from every ancestor label (leaf included) to each instance."""
    out: list[tuple[str, str]] = []
    for i in idx:
        leaf = features.leaf_labels[i]
        iid = features.instance_ids[i]
        for anc in (leaf, *h.ancestors(leaf)):
            out.append((anc, iid))
    return out


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
    features.validate_against(h)
    if train_idx is None:
        train_idx, val_idx, _ = split_instances(len(features.instance_ids), config.seed)
    params = config.cone_params()
    label_ids = tuple(sorted(n.node_id for n in h.nodes))

    init_coords = None
    if init_labels is not None:
        if init_labels.node_ids != label_ids:
            raise ValueError("label-only initialization does not cover these labels")
        init_coords = init_labels.coords

    train_ids = tuple(features.instance_ids[i] for i in train_idx)
    train_feats = features.features[np.asarray(train_idx, dtype=int)]
    instances = InstanceNodes(train_ids, train_feats)

    positives = list(h.closure()) + instance_positive_edges(h, features, train_idx)

    truth_by_level = None
    if val_idx is not None and len(val_idx):
        truth_by_level = _level_truth(h, features, val_idx)

    def hook(coords: np.ndarray, w: np.ndarray | None) -> dict:
        if truth_by_level is None:
            return {"val_f1": ""}
        table = EmbeddingTable(label_ids, coords, params)
        model = JointModel(table, w, params)
        preds, _ = classify_levels(model, h, features.features[np.asarray(val_idx, dtype=int)])
        return {"val_f1": _overall_micro_f1(preds, truth_by_level)}

    coords, w, history = train_graph_embedding(
        h,
        positives,
        config,
        instances=instances,
        init_coords=init_coords,
        epoch_hook=hook if truth_by_level is not None else None,
    )
    if w is None:  # no training instances: the map was never exercised
        w = np.zeros((features.features.shape[1], config.dim))
    return JointModel(EmbeddingTable(label_ids, coords, params), w, params), history


def _level_truth(h: Hierarchy, features: FeatureMatrix, idx: Sequence[int]) -> list[list[str]]:
    """Per-level ground-truth label ids for the given instance rows."""
    out: list[list[str]] = []
    for i in idx:
        leaf = features.leaf_labels[i]
        path = list(reversed(h.ancestors(leaf))) + [leaf]
        out.append(path)
    return out


def _overall_micro_f1(preds: np.ndarray, truth: list[list[str]]) -> float:
    correct = sum(
        1 for row, t in zip(preds, truth) for lvl, p in enumerate(row) if p == t[lvl]
    )
    total = sum(len(t) for t in truth)
    return correct / total if total else 0.0


def level_energies(
    model: JointModel, h: Hierarchy, points: np.ndarray, level: int
) -> tuple[tuple[str, ...], np.ndarray]:
    """Energies of every label at ``level`` against instance points (n, d).

    Returns the id-sorted member tuple and an (n, N_level) energy matrix.
    """
    members = h.level_members(level)
    rows = np.array([model.labels.row(m) for m in members])
    n = points.shape[0]
    out = np.empty((n, len(members)))
    for j, r in enumerate(rows):
        apex = np.broadcast_to(model.labels.coords[r], points.shape)
        out[:, j] = geometry.energies(apex, points, model.params)
    return members, out


def classify_instance(model: JointModel, h: Hierarchy, features_row: np.ndarray, level: int) -> str:
    """Label at ``level`` with minimum violation energy; ties pick lowest id."""
    if not 1 <= level <= h.level_count:
        raise ValueError(f"level must be in 1..{h.level_count}")
    point = embed_instance(features_row, model.w, model.params.kind)
    members, e = level_energies(model, h, point[None, :], level)
    return members[int(np.argmin(e[0]))]


def classify_levels(
    model: JointModel, h: Hierarchy, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-level argmin labels for a feature batch.

    Returns an (n, L) array of label ids and an (n, L) array of the
    winning energies.
    """
    points = embed_instances(features, model.w, model.params.kind)
    n = points.shape[0]
    preds = np.empty((n, h.level_count), dtype=object)
    best = np.empty((n, h.level_count))
    for level in range(1, h.level_count + 1):
        members, e = level_energies(model, h, points, level)
        arg = np.argmin(e, axis=1)
        preds[:, level - 1] = [members[a] for a in arg]
        best[:, level - 1] = e[np.arange(n), arg]
    return preds, best


def rank_levels(
    model: JointModel, h: Hierarchy, features: np.ndarray
) -> list[list[list[str]]]:
    """Energy-sorted label rankings per instance per level (best first)."""
    points = embed_instances(features, model.w, model.params.kind)
    out: list[list[list[str]]] = []
    per_level = []
    for level in range(1, h.level_count + 1):
        members, e = level_energies(model, h, points, level)
        order = np.argsort(e, axis=1, kind="stable")
        per_level.append((members, order))
    for i in range(points.shape[0]):
        rankings = []
        for members, order in per_level:
            rankings.append([members[j] for j in order[i]])
        out.append(rankings)
    return out


@dataclass(frozen=True)
class ClassificationReport:
    overall_f1: float
    level_f1: tuple[float, ...]
    hit3_final: float
    hit5_final: float
    hit3_level_avg: float
    hit5_level_avg: float


def classification_report(
    model: JointModel, h: Hierarchy, features: FeatureMatrix, idx: Sequence[int]
) -> ClassificationReport:
    """Per-level micro-F1 plus hit@k on the selected instance rows."""
    idx = np.asarray(idx, dtype=int)
    truth = _level_truth(h, features, idx)
    preds, _ = classify_levels(model, h, features.features[idx])
    level_f1 = []
    for lvl in range(h.level_count):
        correct = sum(1 for row, t in zip(preds, truth) if row[lvl] == t[lvl])
        level_f1.append(correct / len(truth) if truth else 0.0)
    rankings = rank_levels(model, h, features.features[idx])
    final = h.level_count - 1
    truth_final = [t[final] for t in truth]
    hit3_final = hit_at_k([r[final] for r in rankings], truth_final, 3)
    hit5_final = hit_at_k([r[final] for r in rankings], truth_final, 5)
    hit3_levels = []
    hit5_levels = []
    for lvl in range(h.level_count):
        t = [x[lvl] for x in truth]
        r = [x[lvl] for x in rankings]
        hit3_levels.append(hit_at_k(r, t, 3))
        hit5_levels.append(hit_at_k(r, t, 5))
    return ClassificationReport(
        overall_f1=_overall_micro_f1(preds, truth),
        level_f1=tuple(level_f1),
        hit3_final=hit3_final,
        hit5_final=hit5_final,
        hit3_level_avg=float(np.mean(hit3_levels)),
        hit5_level_avg=float(np.mean(hit5_levels)),
    )


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
    ids = table.node_ids
    n = len(ids)
    closure = h.closure_set()
    X = np.repeat(table.coords, n, axis=0)
    Y = np.tile(table.coords, (n, 1))
    e = geometry.energies(X, Y, table.params).reshape(n, n)
    pos_e, neg_e = [], []
    for i, u in enumerate(ids):
        for j, v in enumerate(ids):
            if i == j:
                continue
            (pos_e if (u, v) in closure else neg_e).append(e[i, j])
    pos_e = np.asarray(pos_e)
    neg_e = np.asarray(neg_e)
    best = _best_threshold(pos_e, neg_e)
    pred_pos = pos_e <= best.threshold
    pred_neg = neg_e <= best.threshold
    tpr = float(np.mean(pred_pos)) if len(pos_e) else 0.0
    tnr = float(np.mean(~pred_neg)) if len(neg_e) else 0.0
    return ReconstructionResult(tpr=tpr, tnr=tnr, f1=best.f1, threshold=best.threshold)
