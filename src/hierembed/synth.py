"""Synthetic instance features for desk-scale benchmarks.

Cluster means follow the hierarchy: top-level labels get well-separated
means and each child offsets its parent's mean by a shrinking step, so
classes at every level stay linearly separable when the within-cluster
noise is small.
"""

from __future__ import annotations

import numpy as np

from .hierarchy import Hierarchy
from .joint import FeatureMatrix


def gaussian_cluster_features(
    h: Hierarchy,
    per_leaf: int,
    dim: int,
    seed: int,
    *,
    noise: float = 0.25,
) -> FeatureMatrix:
    """One Gaussian cluster per deepest-level label, means nested by level.

    ``per_leaf`` instances per leaf, in leaf-id order, each ``dim`` wide.
    A level-``l`` label's mean is its parent's plus a normal step of scale
    ``8 * 0.4 ** (l - 1)``.
    """
    if per_leaf < 1:
        raise ValueError(f"per_leaf must be at least 1, got {per_leaf}")
    if dim < 1:
        raise ValueError(f"feature dim must be at least 1, got {dim}")
    rng = np.random.default_rng(seed)
    means: dict[str, np.ndarray] = {}
    for level in range(1, h.level_count + 1):
        scale = 8.0 * (0.4 ** (level - 1))
        for nid in h.level_members(level):
            parent = h.parent(nid)
            base = means[parent] if parent is not None else np.zeros(dim)
            means[nid] = base + rng.standard_normal(dim) * scale
    leaves = h.level_members(h.level_count)
    # the normal draw keeps no state between calls, so one block reads the
    # stream that one call per instance row would; z * noise + mean has the
    # bits of mean + z * noise
    rows = rng.standard_normal((len(leaves) * per_leaf, dim))
    rows *= noise
    clusters = rows.reshape(len(leaves), per_leaf, dim)
    clusters += np.array([means[leaf] for leaf in leaves])[:, None]
    suffixes = [f"_{k:04d}" for k in range(per_leaf)]
    ids = tuple([f"i_{leaf}{suffix}" for leaf in leaves for suffix in suffixes])
    return FeatureMatrix(ids, rows, tuple([leaf for leaf in leaves for _ in suffixes]))
