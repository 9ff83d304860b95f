"""Joint instance+label embedding: mapping, training, classification."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from hierembed import geometry, joint
from hierembed.geometry import ConeParams
from hierembed.hierarchy import Hierarchy, Node, generate_synthetic_tree
from hierembed.joint import (
    ClassificationReport,
    FeatureMatrix,
    JointModel,
    ReconstructionResult,
    classification_report,
    classify_and_report,
    classify_levels,
    embed_instances,
    instance_positive_rows,
    level_energies,
    reconstruct_labels,
    split_instances,
    train_joint,
)
from hierembed.metrics import hit_at_k
from hierembed.synth import gaussian_cluster_features
from hierembed.training import (
    EmbeddingTable,
    TrainConfig,
    _best_threshold,
    random_coords,
    train_graph_embedding,
    train_label_embeddings,
)


@pytest.fixture(scope="module")
def tree():
    return generate_synthetic_tree(3, 2)


class TestEmbedInstance:
    def test_zero_map_gives_origin(self):
        row = np.ones(5)
        out = embed_instances(row[None], np.zeros((5, 3)), "ec")
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_hyperbolic_norm_is_tanh(self):
        w = np.zeros((4, 2))
        w[0, 0] = 0.5
        out = embed_instances(np.array([[1.0, 0, 0, 0]]), w, "hc")
        assert np.linalg.norm(out) == pytest.approx(math.tanh(0.5), abs=1e-12)

    def test_euclidean_identity_map(self):
        w = np.eye(3)
        row = np.array([0.3, -0.2, 0.9])
        np.testing.assert_array_equal(embed_instances(row[None], w, "ec"), row[None])

    def test_hyperbolic_always_in_ball(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((8, 4)) * 10
        feats = rng.standard_normal((50, 8)) * 100
        out = embed_instances(feats, w, "hc")
        assert np.all(np.linalg.norm(out, axis=1) < 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="^features must be finite$"):
            FeatureMatrix(("i",), np.array([[bad, 1.0]]), ("r.0.0",))

    def test_model_rejects_non_finite_map(self, tree):
        params = ConeParams("ec", 0.25)
        with pytest.raises(ValueError):
            JointModel(radial_layout(tree, params), np.array([[np.nan, 0.0]]), params)


class TestSplitInstances:
    def test_partition(self):
        train, val, test = split_instances(100, 3)
        assert len(val) == 10 and len(test) == 10 and len(train) == 80
        together = np.concatenate([train, val, test])
        assert sorted(together) == list(range(100))

    def test_deterministic(self):
        a = split_instances(57, 5)
        b = split_instances(57, 5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestPositiveEdges:
    def test_all_ancestors_included(self, tree):
        features = gaussian_cluster_features(tree, 1, 4, seed=0)
        edges = instance_positive_rows(tree, features, [0])
        inst = len(tree.ids)  # the first instance's graph row
        leaf = features.leaf_labels[0]
        expected = [(leaf, inst), (tree.parent(leaf), inst), ("r", inst)]
        assert edges.tolist() == [[tree.row_of[a], i] for a, i in expected]

    def test_instance_id_colliding_with_a_label_is_rejected(self, tree):
        leaf = tree.level_members(3)[0]
        features = FeatureMatrix(("i0", "r.1"), np.zeros((2, 3)), (leaf, leaf))
        cfg = TrainConfig(kind="ec", dim=2, epochs=1)
        with pytest.raises(ValueError, match=r"^instance id 'r\.1' collides with a label id$"):
            train_joint(tree, features, cfg, train_idx=np.array([0, 1]), val_idx=np.array([]))
        # only training instances become graph nodes
        model, _ = train_joint(tree, features, cfg, train_idx=np.array([0]), val_idx=np.array([1]))
        assert model.w.shape == (3, 2)
        twice = FeatureMatrix(("i0", "i1", "i0"), np.zeros((3, 3)), (leaf, leaf, leaf))
        with pytest.raises(
            ValueError, match=r"^instance id 'i0' collides with another training instance$"
        ):
            train_joint(tree, twice, cfg, train_idx=np.array([2, 1, 0]), val_idx=np.array([]))


class TestNegativeSamplerConstraints:
    def test_never_instance_instance(self, tree):
        features = gaussian_cluster_features(tree, 3, 4, seed=1)
        idx = list(range(len(features.instance_ids)))
        edges = list(tree.closure()) + [
            (anc, features.instance_ids[i])
            for i in idx
            for anc in (features.leaf_labels[i], *tree.ancestors(features.leaf_labels[i]))
        ]
        inst_rows = {iid: len(tree.ids) + k for k, iid in enumerate(features.instance_ids)}
        row = {**tree.row_of, **inst_rows}
        forbidden = {(row[a], row[b]) for a, b in edges}
        positives = np.concatenate([tree.closure_rows, instance_positive_rows(tree, features, idx)])
        assert {tuple(p) for p in positives.tolist()} == forbidden
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, batch_size=4, seed=0)

        from hierembed.training import _Graph, _sample_negatives_for

        graph = _Graph(tree, positives, len(idx))
        rng = np.random.default_rng(0)
        inst_pairs = 0
        for u, v in graph.positives[:50]:
            for pair in _sample_negatives_for(graph, u[None], v[None], rng, cfg).tolist():
                if pair[0] >= graph.n_labels and pair[1] >= graph.n_labels:
                    inst_pairs += 1
                assert tuple(pair) not in forbidden
        assert inst_pairs == 0

    def test_instances_form_a_sampling_level(self, tree):
        features = gaussian_cluster_features(tree, 2, 4, seed=2)
        from hierembed.training import _Graph

        graph = _Graph(tree, tree.closure_rows, len(features.instance_ids))
        assert len(graph.levels) == tree.level_count + 1
        assert len(graph.levels[-1]) == len(features.instance_ids)


class TestZeroInstanceReduction:
    def test_identical_to_label_only(self, tree):
        # the joint engine with no instances is label-only training,
        # trajectory and all
        from hierembed.hierarchy import augment_eval_negatives, split_edges

        split = augment_eval_negatives(split_edges(tree, 0.5, 2), tree.closure(), 2)
        cfg = TrainConfig(kind="ec", dim=2, epochs=8, seed=4)
        table, hist_a = train_label_embeddings(tree, split, cfg)
        positives = np.array([(tree.row_of[u], tree.row_of[v]) for u, v in split.train])
        coords_b, w_b, hist_b = train_graph_embedding(
            tree, positives, cfg, features=np.zeros((0, 4))
        )
        np.testing.assert_array_equal(table.coords, coords_b)
        assert [r["loss"] for r in hist_a] == [r["loss"] for r in hist_b]


class TestOverfitSingleInstance:
    def test_ancestor_energies_driven_to_zero(self, tree):
        # frozen perfect labels plus one instance: training W alone must
        # pull the instance into all of its ancestors' cones
        params = ConeParams("ec", 0.25)
        label_table = radial_layout(tree, params)
        assert reconstruct_labels(label_table, tree).f1 == 1.0
        cfg = TrainConfig(
            kind="ec", aperture_k=0.25, dim=2, margin=0.3, epochs=400,
            batch_size=4, seed=3,
            lr=0.0,  # labels frozen (zero step size)
            lr_instances=5e-3,
        )
        rng = np.random.default_rng(0)
        features = FeatureMatrix(("inst",), rng.standard_normal((1, 6)), (tree.level_members(3)[0],))
        model, _ = train_joint(
            tree,
            features,
            cfg,
            init_labels=label_table,
            train_idx=np.array([0]),
            val_idx=np.array([], dtype=int),
        )
        np.testing.assert_allclose(model.labels.coords, label_table.coords, atol=1e-12)
        point = embed_instances(features.features[:1], model.w, "ec")[0]
        leaf = features.leaf_labels[0]
        for anc in (leaf, *tree.ancestors(leaf)):
            e = geometry.cone_energy(model.labels.coords[tree.row_of[anc]], point, model.params)
            assert e < 1e-3


def radial_layout(tree, params, span=0.6):
    """Deterministic cone-consistent embedding: every closure pair at E=0."""
    ids = tuple(sorted(n.node_id for n in tree.nodes))
    coords = np.zeros((len(ids), 2))
    row = {nid: i for i, nid in enumerate(ids)}
    sector = {}
    leaves = tree.level_members(tree.level_count)
    for i, leaf in enumerate(leaves):
        sector[leaf] = ((i + 0.5) / len(leaves) * 2 - 1) * span
    for level in range(tree.level_count - 1, 0, -1):
        for nid in tree.level_members(level):
            kids = tree.children(nid)
            sector[nid] = float(np.mean([sector[k] for k in kids]))
    radii = np.linspace(params.epsilon + 0.05, 0.8, tree.level_count)
    for nid in ids:
        ang = sector[nid]
        r = radii[tree.node(nid).level - 1]
        coords[row[nid]] = [r * math.cos(ang), r * math.sin(ang)]
    return EmbeddingTable(ids, coords, params)


class TestClassification:
    def test_argmin_picks_containing_cone(self, tree):
        params = ConeParams("ec", 0.25)
        table = radial_layout(tree, params)
        leaf = tree.level_members(3)[2]
        point = table.coords[tree.row_of[leaf]] * 1.15  # beyond the leaf on its axis
        w = np.eye(2)
        model = JointModel(table, w, params)
        preds, _ = classify_levels(model, tree, point[None])
        assert preds[0].tolist() == ["r", tree.parent(leaf), leaf]

    def test_levels_shape(self, tree):
        params = ConeParams("ec", 0.25)
        table = radial_layout(tree, params)
        model = JointModel(table, np.eye(2), params)
        feats = np.array([[0.5, 0.1], [0.1, -0.4], [0.9, 0.0]])
        preds, energies = classify_levels(model, tree, feats)
        assert preds.shape == (3, tree.level_count)
        assert energies.shape == (3, tree.level_count)

    def test_tie_breaks_to_lowest_node_id(self, tree):
        params = ConeParams("ec", 0.1)
        ids = tuple(sorted(n.node_id for n in tree.nodes))
        coords = np.full((len(ids), 2), 0.4)  # every label identical
        table = EmbeddingTable(ids, coords, params)
        model = JointModel(table, np.eye(2), params)
        preds, _ = classify_levels(model, tree, np.array([[0.9, 0.9]]))
        assert preds[0, 2] == tree.level_members(3)[0]

    def test_argmin_invariant_to_monotone_energy_transform(self, tree):
        # ranking by energy is what matters; a strictly increasing transform
        # of the energies cannot change the argmin
        params = ConeParams("ec", 0.25)
        table = radial_layout(tree, params)
        model = JointModel(table, np.eye(2), params)
        from hierembed.joint import level_energies

        feats = np.array([[0.5, 0.1], [0.2, -0.6]])
        pts = embed_instances(feats, np.eye(2), "ec")
        members, e = level_energies(model, tree, pts, 3)
        transformed = np.expm1(3.0 * e)  # strictly increasing
        np.testing.assert_array_equal(np.argmin(e, axis=1), np.argmin(transformed, axis=1))


class TestReconstruction:
    def test_perfect_layout_reconstructs(self, tree):
        params = ConeParams("ec", 0.25)
        table = radial_layout(tree, params)
        res = reconstruct_labels(table, tree)
        assert res.tpr == 1.0 and res.tnr == 1.0 and res.f1 == 1.0

    def test_random_model_near_prior(self, tree):
        from hierembed.training import random_coords

        params = ConeParams("ec", 0.1)
        ids = tuple(sorted(n.node_id for n in tree.nodes))
        f1s = []
        n_pos = len(tree.closure())
        n = len(ids)
        n_pairs = n * (n - 1)
        for seed in range(6):
            coords = random_coords(n, 2, params, np.random.default_rng(seed))
            f1s.append(reconstruct_labels(EmbeddingTable(ids, coords, params), tree).f1)
        prior = 2 * n_pos / (n_pos + n_pairs)  # all-positive F1
        assert np.mean(f1s) < prior + 0.3
        assert np.mean(f1s) < 0.75  # far from a trained embedding


class TestReport:
    def test_report_fields(self, tree):
        params = ConeParams("ec", 0.25)
        table = radial_layout(tree, params)
        model = JointModel(table, np.eye(2) * 1.1, params)
        feats = FeatureMatrix(
            ("a", "b"),
            table.coords[table.rows([tree.level_members(3)[0], tree.level_members(3)[3]])],
            (tree.level_members(3)[0], tree.level_members(3)[3]),
        )
        rep = classification_report(model, tree, feats, [0, 1])
        assert rep.overall_f1 == 1.0
        assert rep.level_f1 == (1.0, 1.0, 1.0)
        assert rep.hit3_final == 1.0


class TestNoTrainingInstances:
    def test_validation_hook_uses_the_zero_map(self, tree):
        leaves = tree.level_members(3)
        features = FeatureMatrix(("a", "b"), np.ones((2, 4)), (leaves[0], leaves[1]))
        model, history = train_joint(
            tree,
            features,
            TrainConfig(kind="ec", dim=2, epochs=1),
            train_idx=np.array([], dtype=int),
            val_idx=np.array([0, 1]),
        )
        np.testing.assert_array_equal(model.w, np.zeros((4, 2)))
        assert len(history) == 1 and 0.0 <= history[0]["val_f1"] <= 1.0


# ---------------------------------------------------------------------------
# Reference implementations the one-pass evaluation replaced
# ---------------------------------------------------------------------------

def loop_reconstruct_labels(table, h):
    """Reconstruction through n^2 x d coordinate copies and a loop over label pairs."""
    ids = table.node_ids
    n = len(ids)
    closure = frozenset(h.closure())
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


def column_level_energies(model, h, points, level):
    """Level energies with one kernel call per label column."""
    members = h.level_members(level)
    rows = model.labels.rows(members)
    out = np.empty((points.shape[0], len(members)))
    for j, r in enumerate(rows):
        apex = np.broadcast_to(model.labels.coords[r], points.shape)
        out[:, j] = geometry.energies(apex, points, model.params)
    return members, out


def three_pass_classify(model, h, features, idx):
    """Predictions, winning energies and report as ``hierembed classify`` made
    them: classify_levels, then rank_levels, each scoring every level again."""

    def classify_levels(feats):
        points = embed_instances(feats, model.w, model.params.kind)
        n = points.shape[0]
        preds = np.empty((n, h.level_count), dtype=object)
        best = np.empty((n, h.level_count))
        for level in range(1, h.level_count + 1):
            members, e = column_level_energies(model, h, points, level)
            arg = np.argmin(e, axis=1)
            preds[:, level - 1] = [members[a] for a in arg]
            best[:, level - 1] = e[np.arange(n), arg]
        return preds, best

    def rank_levels(feats):
        points = embed_instances(feats, model.w, model.params.kind)
        per_level = []
        for level in range(1, h.level_count + 1):
            members, e = column_level_energies(model, h, points, level)
            per_level.append((members, np.argsort(e, axis=1, kind="stable")))
        return [[[m[j] for j in order[i]] for m, order in per_level] for i in range(len(points))]

    idx = np.asarray(idx, dtype=int)
    preds, best = classify_levels(features.features[idx])
    truth = []
    for i in idx:
        leaf = features.leaf_labels[i]
        truth.append(list(reversed(h.ancestors(leaf))) + [leaf])
    level_f1 = []
    for lvl in range(h.level_count):
        correct = sum(1 for row, t in zip(preds, truth) if row[lvl] == t[lvl])
        level_f1.append(correct / len(truth) if truth else 0.0)
    correct = sum(1 for row, t in zip(preds, truth) for lvl, p in enumerate(row) if p == t[lvl])
    total = sum(len(t) for t in truth)
    rankings = rank_levels(features.features[idx])
    final = h.level_count - 1
    hits = {k: [hit_at_k([r[lvl] for r in rankings], [t[lvl] for t in truth], k)
                for lvl in range(h.level_count)] for k in (3, 5)}
    report = ClassificationReport(
        overall_f1=correct / total if total else 0.0,
        level_f1=tuple(level_f1),
        hit3_final=hits[3][final],
        hit5_final=hits[5][final],
        hit3_level_avg=float(np.mean(hits[3])),
        hit5_level_avg=float(np.mean(hits[5])),
    )
    return preds, best, report


def random_model(h, kind, seed, k=0.1, norm_hi=None, d=3, feature_dim=5):
    params = ConeParams(kind, k)
    rng = np.random.default_rng(seed)
    ids = tuple(sorted(n.node_id for n in h.nodes))
    coords = random_coords(len(ids), d, params, rng, norm_hi)
    return JointModel(EmbeddingTable(ids, coords, params), rng.standard_normal((feature_dim, d)), params)


@pytest.fixture(scope="module")
def wide_tree():
    return generate_synthetic_tree(3, 4)  # 1 + 4 + 16 labels


@pytest.fixture(scope="module")
def wide_features(wide_tree):
    return gaussian_cluster_features(wide_tree, 6, 5, seed=7)


class TestOnePassMatchesThreePasses:
    def assert_same(self, model, h, features, idx):
        preds, best, report = classify_and_report(model, h, features, idx)
        want_preds, want_best, want_report = three_pass_classify(model, h, features, idx)
        assert preds.tolist() == want_preds.tolist()
        assert best.tobytes() == want_best.tobytes()
        assert report == want_report
        assert classification_report(model, h, features, idx) == want_report

    @pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_models(self, wide_tree, wide_features, kind, seed):
        model = random_model(wide_tree, kind, seed)
        idx = np.random.default_rng(seed).permutation(len(wide_features.instance_ids))[:50]
        self.assert_same(model, wide_tree, wide_features, idx)

    @pytest.mark.parametrize("kind", ["ec", "hc"])
    def test_wide_cones_tie_at_zero(self, wide_tree, wide_features, kind):
        # apexes just above the domain floor under a large K: wide cones,
        # many energies exactly 0
        k = 0.4
        model = random_model(wide_tree, kind, 3, k=k, norm_hi=ConeParams(kind, k).epsilon + 0.01)
        points = embed_instances(wide_features.features, model.w, kind)
        assert np.mean(level_energies(model, wide_tree, points, 3)[1] == 0.0) > 0.1
        self.assert_same(model, wide_tree, wide_features, range(96))

    def test_identical_labels_tie_to_lowest_id(self, wide_tree, wide_features):
        params = ConeParams("ec", 0.1)
        ids = tuple(sorted(n.node_id for n in wide_tree.nodes))
        table = EmbeddingTable(ids, np.full((len(ids), 3), 0.4), params)
        model = JointModel(table, np.random.default_rng(0).standard_normal((5, 3)), params)
        preds, _, _ = classify_and_report(model, wide_tree, wide_features, range(96))
        assert set(preds[:, 2]) == {wide_tree.level_members(3)[0]}
        self.assert_same(model, wide_tree, wide_features, range(96))

    # The cases above score the subset in one block. PAIR_CHUNK against the
    # 16 leaves of ``wide_tree`` makes blocks of 1 row, or of 7 rows that end
    # short (50 = 7·7 + 1, 96 = 13·7 + 5).
    @pytest.mark.parametrize("chunk", [16, 112])
    @pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
    def test_random_models_in_row_blocks(self, wide_tree, wide_features, kind, chunk, monkeypatch):
        monkeypatch.setattr(joint, "PAIR_CHUNK", chunk)
        for seed in range(3):
            self.test_random_models(wide_tree, wide_features, kind, seed)

    @pytest.mark.parametrize("chunk", [16, 112])
    @pytest.mark.parametrize("kind", ["ec", "hc"])
    def test_ties_in_row_blocks(self, wide_tree, wide_features, kind, chunk, monkeypatch):
        monkeypatch.setattr(joint, "PAIR_CHUNK", chunk)
        self.test_wide_cones_tie_at_zero(wide_tree, wide_features, kind)
        self.test_identical_labels_tie_to_lowest_id(wide_tree, wide_features)

    @pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
    def test_all_rows_of_fortran_order_features(self, wide_tree, kind):
        # every row in order skips the copy of the features, but only for a
        # C-order array: the matmul rounds a Fortran-order one 16 wide differently
        c_order = gaussian_cluster_features(wide_tree, 6, 16, seed=7)
        features = FeatureMatrix(c_order.instance_ids, np.asfortranarray(c_order.features),
                                 c_order.leaf_labels)
        model = random_model(wide_tree, kind, 2, feature_dim=16)
        self.assert_same(model, wide_tree, features, range(96))

    def test_empty_subset(self, wide_tree, wide_features):
        self.assert_same(random_model(wide_tree, "ec", 0), wide_tree, wide_features, [])

    def test_empty_subset_names_labels_the_model_lacks(self, wide_tree, wide_features):
        table = random_model(wide_tree, "ec", 0).labels
        short = JointModel(EmbeddingTable(table.node_ids[:-1], table.coords[:-1], table.params),
                           np.zeros((5, 3)), table.params)
        missing = table.node_ids[-1]
        with pytest.raises(ValueError, match=f"^model lacks 1 of the 16 .*: '{missing}'$"):
            classify_and_report(short, wide_tree, wide_features, [])

    @pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
    @pytest.mark.parametrize("chunk", [7, 200, 1 << 16])
    def test_level_energies_match_columns(self, wide_tree, wide_features, kind, chunk, monkeypatch):
        monkeypatch.setattr(joint, "PAIR_CHUNK", chunk)
        model = random_model(wide_tree, kind, 1)
        points = embed_instances(wide_features.features, model.w, kind)
        for level in range(1, wide_tree.level_count + 1):
            members, e = level_energies(model, wide_tree, points, level)
            want_members, want = column_level_energies(model, wide_tree, points, level)
            assert members == want_members
            assert np.ascontiguousarray(e).tobytes() == want.tobytes()


def test_level_energies_score_in_blocks_of_pairs():
    # 10 000 points against 64 labels in 16-D: broadcasting all pairs at once
    # would hold an 82 MB (n, N, d) array
    h = generate_synthetic_tree(2, 64)
    n, d = 10_000, 16
    model = random_model(h, "ec", 0, d=d)
    points = random_coords(n, d, model.params, np.random.default_rng(1))
    tracemalloc.start()
    try:
        members, e = level_energies(model, h, points, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e.shape == (n, len(members)) == (n, 64)
    bound = e.nbytes + 4 * joint.PAIR_CHUNK * d * 8
    assert peak < bound < n * len(members) * d * 8


@pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
def test_classify_scores_in_blocks_of_rows(kind):
    # 20 224 instances against 256 leaves: the leaf level's (n, N) energies
    # alone would take 41 MB
    h = generate_synthetic_tree(3, 16)
    features = gaussian_cluster_features(h, 79, 5, seed=3)
    n, d, levels = len(features.instance_ids), 4, h.level_count
    model = random_model(h, kind, 0, d=d)
    tracemalloc.start()
    try:
        preds, _, _ = classify_and_report(model, h, features, np.arange(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert preds.shape == (n, levels)
    # a few (block, N, d + 1) kernel arrays per block, a few (n, d + L) per row
    bound = 4 * joint.PAIR_CHUNK * (d + 1) * 8 + 4 * n * (d + levels) * 8
    assert peak < bound < n * h.level_sizes[-1] * 8


@pytest.mark.parametrize("kind, arrays", [("hc", 5), ("ec", 12), ("oe", 12)])
def test_a_block_of_pairs_holds_few_block_arrays(kind, arrays):
    # One classify block, 64 labels by PAIR_CHUNK // 64 points in 10-D. The kernel
    # writes over its dead intermediates: it holds four (n, N) arrays for hc, and
    # one (n, N, d) difference plus one or two (n, N) for ec and oe.
    d, N = 10, 64
    params = ConeParams(kind, 0.1)
    rng = np.random.default_rng(5)
    labels = random_coords(N, d, params, rng)
    points = random_coords(joint.PAIR_CHUNK // N, d, params, rng)
    tracemalloc.start()
    try:
        e = geometry.energies(labels[None], points[:, None], params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e.shape == (joint.PAIR_CHUNK // N, N)
    assert peak < arrays * e.nbytes


class TestReconstructionMatchesPairLoop:
    @pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
    @pytest.mark.parametrize("seed", range(3))
    # 200 pairs per call: blocks of 9, 9 and 3 rows over the 21 labels
    @pytest.mark.parametrize("chunk", [7, 200, 1 << 16])
    def test_random_coords(self, wide_tree, kind, seed, chunk, monkeypatch):
        monkeypatch.setattr(joint, "PAIR_CHUNK", chunk)
        table = random_model(wide_tree, kind, seed, d=4).labels
        assert reconstruct_labels(table, wide_tree) == loop_reconstruct_labels(table, wide_tree)

    @pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
    def test_tied_energies(self, wide_tree, kind):
        # three distinct points shared by all labels: most energies tie
        params = ConeParams(kind, 0.1)
        ids = tuple(sorted(n.node_id for n in wide_tree.nodes))
        pool = np.array([[0.3, 0.1], [0.5, 0.2], [0.2, 0.6]])
        coords = pool[np.random.default_rng(0).integers(3, size=len(ids))]
        table = EmbeddingTable(ids, coords, params)
        assert reconstruct_labels(table, wide_tree) == loop_reconstruct_labels(table, wide_tree)

    def test_identical_layout_and_perfect_layout(self, tree):
        params = ConeParams("ec", 0.25)
        ids = tuple(sorted(n.node_id for n in tree.nodes))
        for table in (EmbeddingTable(ids, np.full((len(ids), 2), 0.4), params),
                      radial_layout(tree, params)):
            assert reconstruct_labels(table, tree) == loop_reconstruct_labels(table, tree)

    def test_flat_hierarchy_has_no_positives(self):
        h = Hierarchy([Node(i, 1, i) for i in ("a", "b", "c")], [])
        params = ConeParams("ec", 0.1)
        coords = random_coords(3, 2, params, np.random.default_rng(0))
        table = EmbeddingTable(("a", "b", "c"), coords, params)
        res = reconstruct_labels(table, h)
        assert res == loop_reconstruct_labels(table, h)
        assert res.tpr == 0.0 and res.f1 == 0.0

    @pytest.mark.parametrize("kind", ["oe", "ec", "hc"])
    def test_table_rows_in_another_order(self, wide_tree, kind):
        # table rows need not follow the hierarchy's id order, and a table may
        # hold labels the hierarchy lacks (scored as negatives only)
        table = random_model(wide_tree, kind, 4, d=4).labels
        order = np.random.default_rng(5).permutation(len(table.node_ids) + 2)
        ids = np.array([*table.node_ids, "x.a", "x.b"], dtype=object)[order]
        coords = np.vstack([table.coords, [[0.3, 0.1, 0.2, 0.1], [0.2, 0.4, 0.1, 0.3]]])[order]
        shuffled = EmbeddingTable(tuple(ids), coords, table.params)
        assert shuffled.node_ids[:2] != table.node_ids[:2]
        assert reconstruct_labels(shuffled, wide_tree) == loop_reconstruct_labels(
            shuffled, wide_tree
        )

    def test_names_a_childless_root_the_model_lacks(self):
        # "c" is in no closure pair, yet it is a hierarchy label the model lacks
        h = Hierarchy([Node(i, 1, i) for i in ("a", "c")] + [Node("b", 2, "b")], [("a", "b")])
        params = ConeParams("ec", 0.1)
        table = EmbeddingTable(("a", "b"), np.array([[0.5, 0.1], [0.6, 0.1]]), params)
        message = "model lacks 1 of the 3 hierarchy labels being scored: 'c'"
        with pytest.raises(ValueError, match=f"^{message}$"):
            reconstruct_labels(table, h)

    def test_single_label_has_no_pair_to_score(self):
        h = Hierarchy([Node("a", 1, "a")], [])
        table = EmbeddingTable(("a",), np.array([[0.5, 0.1]]), ConeParams("ec", 0.1))
        with pytest.raises(ValueError, match="no label pair to score"):
            reconstruct_labels(table, h)

    def test_781_labels_in_bounded_time_and_memory(self):
        h = generate_synthetic_tree(5, 5)
        params = ConeParams("ec", 0.1)
        ids = tuple(sorted(n.node_id for n in h.nodes))
        n, d = len(ids), 10
        table = EmbeddingTable(ids, random_coords(n, d, params, np.random.default_rng(0)), params)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            res = reconstruct_labels(table, h)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n == 781
        assert elapsed < 30.0
        # one n^2 x d float copy of the coordinates is already more than this
        assert peak < n * n * d * 8
        assert 0.0 <= res.f1 <= 1.0
