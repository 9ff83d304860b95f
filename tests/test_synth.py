"""Synthetic Gaussian cluster features against the per-row draw they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierembed.hierarchy import generate_synthetic_tree
from hierembed.joint import FeatureMatrix
from hierembed.synth import gaussian_cluster_features
from test_hierarchy import uneven_forests


def loop_gaussian_cluster_features(
    h, per_leaf, dim, seed, *, root_scale=8.0, shrink=0.4, noise=0.25
):
    """One ``standard_normal(dim)`` draw per instance row."""
    rng = np.random.default_rng(seed)
    means = {}
    for level in range(1, h.level_count + 1):
        scale = root_scale * (shrink ** (level - 1))
        for nid in h.level_members(level):
            parent = h.parent(nid)
            base = means[parent] if parent is not None else np.zeros(dim)
            means[nid] = base + rng.standard_normal(dim) * scale
    ids, rows, leaves = [], [], []
    for leaf in h.level_members(h.level_count):
        for k in range(per_leaf):
            ids.append(f"i_{leaf}_{k:04d}")
            rows.append(means[leaf] + rng.standard_normal(dim) * noise)
            leaves.append(leaf)
    return FeatureMatrix(tuple(ids), np.array(rows), tuple(leaves))


def assert_same_bytes(got, want):
    assert got.instance_ids == want.instance_ids
    assert got.leaf_labels == want.leaf_labels
    assert got.features.dtype == want.features.dtype
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    uneven_forests(),
    st.integers(1, 5),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.25, 1.7]),
)
def test_block_draw_matches_per_row_draws(h, per_leaf, dim, seed, noise):
    assert_same_bytes(
        gaussian_cluster_features(h, per_leaf, dim, seed, noise=noise),
        loop_gaussian_cluster_features(h, per_leaf, dim, seed, noise=noise),
    )


def test_block_draw_matches_per_row_draws_at_benchmark_size():
    # the eval-wide benchmark's features: 144 leaves, 120 instances each, 64-D
    h = generate_synthetic_tree(3, 12)
    assert_same_bytes(
        gaussian_cluster_features(h, 120, 64, 1), loop_gaussian_cluster_features(h, 120, 64, 1)
    )


@pytest.mark.parametrize(
    "per_leaf, dim, message",
    [
        (0, 4, "per_leaf must be at least 1, got 0"),
        (-2, 4, "per_leaf must be at least 1, got -2"),
        (3, 0, "feature dim must be at least 1, got 0"),
        (3, -1, "feature dim must be at least 1, got -1"),
    ],
)
def test_rejects_bad_sizes(per_leaf, dim, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        gaussian_cluster_features(generate_synthetic_tree(2, 2), per_leaf, dim, 0)
