"""Max-margin loss, optimizer steps, trainer determinism, edge prediction."""

import bisect
import sys
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierembed import geometry, training
from hierembed.geometry import ConeParams
from hierembed.hierarchy import (
    EdgeSet,
    Hierarchy,
    Node,
    augment_eval_negatives,
    generate_synthetic_tree,
    split_edges,
)
from hierembed.joint import instance_positive_rows, split_instances
from hierembed.synth import gaussian_cluster_features
from hierembed.training import (
    RETRY_CAP,
    AdamState,
    EmbeddingTable,
    TrainConfig,
    TrainingError,
    _best_threshold,
    _Words,
    _retry_loop,
    _Graph,
    _sample_negatives_for,
    _sample_negatives_rebalanced,
    adam_step,
    evaluate_edge_prediction,
    optimizer_step,
    pair_energies,
    random_coords,
    rsgd_step,
    train_graph_embedding,
    train_label_embeddings,
)
from test_hierarchy import id_edges


class IdGraph(_Graph):
    """``_Graph`` of id pairs, with test-side maps: ``ids`` (graph row -> id),
    ``index`` (id -> graph row) and ``forbidden``, the banned row pairs other
    than self-pairs, built from the string closure and the positives, not
    from the graph's own tables."""

    def __init__(self, h, positives, instance_ids=()):
        self.ids = (*h.ids, *instance_ids)
        self.index = {nid: r for r, nid in enumerate(self.ids)}
        rows = np.array([(self.index[u], self.index[v]) for u, v in positives], dtype=np.int64)
        super().__init__(h, rows, len(instance_ids))
        pairs = frozenset(h.closure()) | set(positives)
        self.forbidden = {(self.index[u], self.index[v]) for u, v in pairs}

    def is_instance(self, node):
        return node >= self.n_labels


def instance_edges(h, features, idx):
    """Id pairs from every ancestor label (leaf first, root last) to each instance of ``idx``."""
    return [
        (anc, features.instance_ids[i])
        for i in idx
        for anc in (features.leaf_labels[i], *h.ancestors(features.leaf_labels[i]))
    ]


def one_positive(sampler, graph, u, v, rng, config):
    """A batch sampler called with the single positive (u, v), as a list of pairs."""
    pairs = sampler(graph, np.array([u]), np.array([v]), rng, config)
    assert pairs.dtype == np.int64 and pairs.shape == (len(pairs), 2)
    return [tuple(p) for p in pairs.tolist()]


def edge_set(*pairs):
    """Id ``pairs`` as an EdgeSet over a one-level hierarchy of just their labels."""
    labels = sorted({nid for pair in pairs for nid in pair})
    if not labels:
        return EdgeSet((), ())
    return id_edges(Hierarchy([Node(nid, 1, nid) for nid in labels], []), pairs)


def table_of(coords, kind="ec"):
    ids = tuple(f"n{i}" for i in range(len(coords)))
    return EmbeddingTable(ids, np.asarray(coords, dtype=float), ConeParams(kind, 0.1))


def hinge_loss(emb, positives, negatives, margin):
    """``_batch_step``'s loss and label gradient over id pairs of ``emb``'s labels."""
    pos, neg = (emb.rows([nid for pair in pairs for nid in pair]).reshape(-1, 2)
                for pairs in (positives, negatives))
    pos_loss, neg_loss, grad, _ = training._batch_step(pos, neg, emb.coords, emb.params, margin)
    return pos_loss + neg_loss, grad


class TestMaxMarginLoss:
    def test_satisfied_pairs_zero(self):
        emb = table_of([[0.2, 0.0], [0.5, 0.0], [0.2, 0.18]])
        # n1 on n0's axis (inside); n2 far outside with energy >= margin
        e_pos = pair_energies(emb, edge_set(("n0", "n1")))
        e_neg = pair_energies(emb, edge_set(("n0", "n2")))
        assert e_pos[0] == 0.0 and e_neg[0] >= 0.5
        loss, grad = hinge_loss(emb, [("n0", "n1")], [("n0", "n2")], 0.5)
        assert loss == 0.0
        assert not grad.any()

    def test_additive_terms(self):
        emb = table_of([[0.3, 0.0], [0.25, 0.2], [0.4, 0.0]])
        e_pos = pair_energies(emb, edge_set(("n0", "n1")))[0]
        e_neg = pair_energies(emb, edge_set(("n0", "n2")))[0]
        margin = 1.0
        loss, _ = hinge_loss(emb, [("n0", "n1")], [("n0", "n2")], margin)
        assert loss == pytest.approx(e_pos + max(0.0, margin - e_neg))

    def test_saturated_negative_no_gradient(self):
        emb = table_of([[0.2, 0.0], [-0.2, 0.1]])
        e = pair_energies(emb, edge_set(("n0", "n1")))[0]
        assert e > 0.3
        loss, grad = hinge_loss(emb, [], [("n0", "n1")], 0.3)
        assert loss == 0.0
        assert not grad.any()

    def test_empty_positive_set(self):
        emb = table_of([[0.2, 0.0], [0.5, 0.0]])
        loss, _ = hinge_loss(emb, [], [("n0", "n1")], 1.0)
        assert loss == pytest.approx(1.0)  # hinge on a zero-energy negative


    @pytest.mark.parametrize("kind", ["ec", "hc"])
    def test_w_grad_is_the_matmul_over_every_instance_row(self, kind):
        # wide features and parts of hundreds of instance rows: a matmul
        # over the live rows alone regroups BLAS's sum and moves the bits,
        # so the W gradient must be the one over all rows, dead ones at 0
        rng = np.random.default_rng(11)
        params = ConeParams(kind, 0.1)
        coords = random_coords(30, 6, params, rng)
        feats = rng.standard_normal((900, 512))
        w = rng.standard_normal((512, 6)) * 0.01
        inst = rng.integers(30, 930, 1600)
        pairs = np.stack([inst, rng.integers(0, 30, 1600)], axis=1)
        pos, negs = pairs[:800], pairs[800:]
        margin = 2.3  # about half the negatives live
        *_, w_grad = training._batch_step(pos, negs, coords, params, margin, feats, w)

        want = np.zeros_like(w)
        for part, margin_of in ((pos, None), (negs, margin)):
            z = feats[part[:, 0] - 30] @ w
            x = geometry.exp_map_zero(z) if kind == "hc" else z
            e, gx, _ = geometry.energies_and_gradients(x, coords[part[:, 1]], params)
            if margin_of is not None:
                gx = np.where((e < margin_of)[:, None], -gx, 0.0)
                assert 0 < np.count_nonzero(gx.any(axis=1)) < len(part)  # live and flat hinges
            dz = geometry.exp_map_zero_backprop(z, gx) if kind == "hc" else gx
            want += feats[part[:, 0] - 30].T @ dz
        assert w_grad.tobytes() == want.tobytes()


class TestOptimizers:
    def test_zero_gradient_keeps_params(self):
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0)
        params = np.array([[0.3, 0.0], [0.0, 0.5]])
        state = AdamState.like(params)
        out = optimizer_step(params, np.zeros_like(params), state, cfg)
        np.testing.assert_allclose(out, params, atol=1e-12)

    def test_adam_determinism(self):
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0)
        g = np.array([[0.1, -0.2], [0.05, 0.0]])
        outs = []
        for _ in range(2):
            params = np.array([[0.3, 0.0], [0.0, 0.5]])
            state = AdamState.like(params)
            outs.append(optimizer_step(params, g, state, cfg))
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("shape", [(7, 5), (5,)])
    def test_adam_step_matches_the_out_of_place_expression(self, shape):
        rng = np.random.default_rng(3)
        param = rng.standard_normal(shape)
        state = AdamState.like(param)
        m, v = np.zeros(shape), np.zeros(shape)
        want = param
        for t in range(1, 6):
            grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 3)
            kept = param.copy()
            param_out = adam_step(param, grad, state, 0.03)
            assert param.tobytes() == kept.tobytes()  # the passed-in param is not touched
            m = 0.9 * m + (1.0 - 0.9) * grad
            v = 0.999 * v + (1.0 - 0.999) * grad * grad
            mhat, vhat = m / (1.0 - 0.9**t), v / (1.0 - 0.999**t)
            want = want - 0.03 * mhat / (np.sqrt(vhat) + 1e-8)
            assert param_out.tobytes() == want.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
            assert state.t == t
            param = param_out

    def test_rsgd_at_origin_moves_along_negative_gradient(self):
        pts = np.array([[0.0, 0.0]])
        g = np.array([[1.0, 0.0]])
        out = rsgd_step(pts, g, lr=0.1)
        # rescale factor 1/4 at the origin, then exp_0
        expected = np.tanh(0.1 * 0.25)
        assert out[0, 0] == pytest.approx(-expected, abs=1e-12)
        assert out[0, 1] == 0.0

    def test_rsgd_stays_in_ball(self):
        rng = np.random.default_rng(0)
        pts = random_coords(50, 3, ConeParams("hc", 0.1), rng)
        g = rng.standard_normal((50, 3)) * 10
        out = rsgd_step(pts, g, lr=1.0)
        assert np.all(np.linalg.norm(out, axis=1) < 1.0)

    def test_nonfinite_gradient_aborts(self):
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0)
        params = np.array([[0.3, 0.0]])
        bad = np.array([[np.nan, 0.0]])
        with pytest.raises(TrainingError):
            optimizer_step(params, bad, AdamState.like(params), cfg)

    def test_engine_error_names_epoch_and_batch(self, trainer_setup, monkeypatch):
        h, split = trainer_setup
        real = geometry.energies_and_gradients
        calls = []

        def poisoned(X, Y, params, *rest):
            # one call per batch: 16 edges in batches of 5 make 4 calls an
            # epoch, so call 7 is epoch 2, batch 3
            e, gx, gy = real(X, Y, params, *rest)
            calls.append(1)
            return e, (np.full_like(gx, np.nan) if len(calls) == 7 else gx), gy

        monkeypatch.setattr(geometry, "energies_and_gradients", poisoned)
        cfg = TrainConfig(kind="ec", dim=2, epochs=2, batch_size=5, seed=0)
        assert len(split.train) == 16
        match = r"^non-finite gradient \(\d+ entries\) at epoch 2, batch 3$"
        with pytest.raises(TrainingError, match=match):
            train_label_embeddings(h, split, cfg)

    def test_projection_applied(self):
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, lr=0.5, seed=0)
        params = np.array([[0.101, 0.0]])
        state = AdamState.like(params)
        g = np.array([[1.0, 0.0]])  # large pull toward the origin
        out = optimizer_step(params, g, state, cfg)
        assert np.linalg.norm(out[0]) >= cfg.cone_params().epsilon + 1e-5 - 1e-12


@pytest.fixture(scope="module")
def trainer_setup():
    h = generate_synthetic_tree(3, 3)
    split = augment_eval_negatives(split_edges(h, 0.5, 3), h.closure(), 3)
    return h, split


class TestTrainer:
    @pytest.fixture
    def setup(self, trainer_setup):
        return trainer_setup

    def test_zero_epochs_returns_init(self, setup):
        h, split = setup
        cfg = TrainConfig(kind="ec", dim=2, epochs=0, seed=5)
        table, history = train_label_embeddings(h, split, cfg)
        rng = np.random.default_rng(5)
        expected = geometry.project_rows(
            random_coords(h.total_labels, 2, cfg.cone_params(), rng), cfg.cone_params(), rng
        )
        np.testing.assert_array_equal(table.coords, expected)
        assert history == []

    def test_bitwise_reproducibility(self, setup):
        h, split = setup
        cfg = TrainConfig(kind="ec", dim=2, epochs=12, seed=9)
        t1, h1 = train_label_embeddings(h, split, cfg)
        t2, h2 = train_label_embeddings(h, split, cfg)
        assert np.array_equal(t1.coords, t2.coords)
        assert [r["loss"] for r in h1] == [r["loss"] for r in h2]

    def test_loss_decreases_substantially(self, setup):
        h, split = setup
        cfg = TrainConfig(kind="ec", dim=2, margin=0.2, epochs=150, seed=2)
        _, history = train_label_embeddings(h, split, cfg)
        assert history[-1]["loss"] < 0.5 * history[0]["loss"]

    def test_points_stay_in_domain(self, setup):
        h, split = setup
        for kind, opt in (("ec", "adam"), ("hc", "rsgd"), ("hc", "adam")):
            cfg = TrainConfig(kind=kind, dim=2, epochs=15, seed=1, optimizer=opt)
            table, _ = train_label_embeddings(h, split, cfg)
            norms = np.linalg.norm(table.coords, axis=1)
            p = cfg.cone_params()
            assert np.all(norms >= p.epsilon + 1e-5 - 1e-12)
            assert np.all(norms <= 1 - 1e-5 + 1e-12)

    def test_rsgd_requires_ball(self):
        with pytest.raises(ValueError):
            TrainConfig(kind="ec", optimizer="rsgd")

    @pytest.mark.parametrize(
        "field, value, message",
        [("dim", 0, "embedding dim must be at least 1, got 0"),
         ("dim", -2, "embedding dim must be at least 1, got -2"),
         ("epochs", -1, "epochs must be nonnegative, got -1"),
         ("neg_passes", 0, "neg_passes must be at least 1, got 0"),
         ("neg_passes", -1, "neg_passes must be at least 1, got -1")],
    )
    def test_config_rejects_bad_sizes(self, field, value, message):
        with pytest.raises(ValueError) as err:
            TrainConfig(**{field: value})
        assert str(err.value) == message

    def test_zero_epochs_train_nothing(self, setup):
        h, split = setup
        cfg = TrainConfig(kind="ec", dim=2, epochs=0, seed=1)
        table, history = train_label_embeddings(h, split, cfg)
        assert history == [] and table.coords.shape == (len(h.ids), 2)

    # a 3x2 tree has levels of 1, 2 and 4 labels; its 4 leaves take 3 instances each
    @pytest.mark.parametrize(
        "pick_per_level, rebalance, instances, pool",
        [(True, False, False, 4), (False, False, False, 7), (True, False, True, 12),
         (False, False, True, 19), (True, True, True, 19)],
    )
    def test_neg_passes_past_the_largest_pool_rejected(self, pick_per_level, rebalance, instances, pool):
        tree = generate_synthetic_tree(3, 2)
        features = gaussian_cluster_features(tree, 3, 4, seed=1).features if instances else None

        def train(passes):
            cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0, neg_passes=passes,
                              pick_per_level=pick_per_level, rebalance_images=rebalance)
            return train_graph_embedding(tree, tree.closure_rows, cfg, features=features)

        train(pool)  # the bound itself trains
        with pytest.raises(ValueError) as err:
            train(pool + 1)
        assert str(err.value) == (
            f"neg_passes {pool + 1} exceeds the largest candidate pool, {pool} nodes: "
            "no pool holds a distinct negative for every pass"
        )


class TestEdgePrediction:
    def test_separated_sets(self):
        emb = table_of([[0.2, 0.0], [0.5, 0.0], [-0.5, 0.0]])
        pos = edge_set(("n0", "n1"))
        neg = edge_set(("n0", "n2"))
        res = evaluate_edge_prediction(emb, pos, neg)
        assert res.f1 == 1.0 and res.accuracy == 1.0
        assert pair_energies(emb, edge_set(("n0", "n1")))[0] <= res.threshold

    def test_all_energies_identical_degenerates_to_all_positive(self):
        emb = table_of([[0.2, 0.0], [0.2, 0.0001], [0.2, -0.0001]], kind="oe")
        # oe energy of identical-ish pairs: use exact ties via same coordinates
        emb = table_of([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], kind="oe")
        pos = edge_set(("n0", "n1"))
        neg = edge_set(("n0", "n2"))
        res = evaluate_edge_prediction(emb, pos, neg)
        # everything at energy zero: the sweep must fall back to all-positive
        assert res.recall == 1.0
        assert res.f1 == pytest.approx(2 / 3)

    def test_empty_sets_rejected(self):
        emb = table_of([[0.2, 0.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            evaluate_edge_prediction(emb, edge_set(), edge_set(("n0", "n1")))

    def test_threshold_sweep_is_order_based(self):
        # scaling all coordinates (hence energies, for oe) cannot change
        # which pairs a swept threshold separates
        rng = np.random.default_rng(4)
        coords = rng.standard_normal((6, 3))
        pos = edge_set(("n0", "n1"), ("n2", "n3"))
        neg = edge_set(("n4", "n5"), ("n1", "n2"))
        r1 = evaluate_edge_prediction(table_of(coords, "oe"), pos, neg)
        r2 = evaluate_edge_prediction(table_of(coords * 3.7, "oe"), pos, neg)
        assert r1.f1 == pytest.approx(r2.f1)
        assert r1.precision == pytest.approx(r2.precision)
        assert r1.recall == pytest.approx(r2.recall)

    def test_random_embedding_near_prior(self):
        # random coordinates carry no signal: the swept F1 stays near the
        # all-positive baseline (Monte-Carlo measured mean 0.21 for this
        # setup against a 0.167 prior), far below a trained embedding's
        h = generate_synthetic_tree(5, 3)
        split = augment_eval_negatives(split_edges(h, 0.5, 1), h.closure(), 1)
        p = ConeParams("ec", 0.1)
        ids = tuple(sorted(n.node_id for n in h.nodes))
        f1s = []
        for seed in range(8):
            coords = random_coords(h.total_labels, 2, p, np.random.default_rng(seed))
            emb = EmbeddingTable(ids, coords, p)
            f1s.append(evaluate_edge_prediction(emb, split.val, split.val_negatives).f1)
        prior_f1 = 2 * len(split.val) / (2 * len(split.val) + len(split.val_negatives))
        assert prior_f1 == pytest.approx(1 / 6)
        assert np.mean(f1s) < prior_f1 + 0.15
        assert max(f1s) < 0.5


def scan_best_threshold(pos_e, neg_e):
    """Reference sweep: one pass over the pooled energies per candidate."""
    energies = np.concatenate([pos_e, neg_e])
    labels = np.concatenate([np.ones(len(pos_e), bool), np.zeros(len(neg_e), bool)])
    uniq = np.unique(energies)
    candidates = [uniq[0] - 1.0]
    candidates.extend(0.5 * (uniq[:-1] + uniq[1:]))
    candidates.append(uniq[-1])
    best = None
    for t in candidates:
        pred = energies <= t
        tp = int(np.sum(pred & labels))
        fp = int(np.sum(pred & ~labels))
        fn = int(np.sum(~pred & labels))
        tn = int(np.sum(~pred & ~labels))
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        acc = (tp + tn) / len(labels) if len(labels) else 0.0
        if best is None or f1 > best[3]:
            best = (float(t), p, r, f1, acc)
    return best


def assert_sweep_matches_scan(pos_e, neg_e):
    pos_e, neg_e = np.asarray(pos_e, dtype=float), np.asarray(neg_e, dtype=float)
    got = astuple(_best_threshold(pos_e, neg_e))
    want = scan_best_threshold(pos_e, neg_e)
    assert got == want  # exact: same threshold and the same floats


# energies from a small pool (many exact ties, zeros above all) or anywhere
TIED = st.one_of(st.sampled_from([0.0, 0.0, 0.0, 0.25, 1.0, 3.5]), st.floats(0.0, 10.0))


class TestSweepMatchesScan:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(TIED, max_size=40), st.lists(TIED, max_size=40))
    def test_tied_float_lists(self, pos_e, neg_e):
        if pos_e or neg_e:
            assert_sweep_matches_scan(pos_e, neg_e)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_energies(self, seed):
        rng = np.random.default_rng(seed)
        assert_sweep_matches_scan(rng.gamma(2.0, size=300), rng.gamma(3.0, size=3000))

    @pytest.mark.parametrize("seed", range(5))
    def test_mostly_zero_energies(self, seed):
        rng = np.random.default_rng(seed)
        pos = np.where(rng.random(200) < 0.8, 0.0, rng.random(200))
        neg = np.where(rng.random(2000) < 0.5, 0.0, np.round(rng.random(2000), 2))
        assert_sweep_matches_scan(pos, neg)

    def test_single_distinct_value(self):
        assert_sweep_matches_scan([0.7, 0.7], [0.7, 0.7, 0.7])
        assert_sweep_matches_scan([0.0], [])
        assert_sweep_matches_scan([], [2.0, 2.0])

    @pytest.mark.parametrize(
        "x, rounds_up",
        [(1.0, False), (np.nextafter(1.0, 2.0), True), (3.0, False), (np.nextafter(7.25, 8.0), True)],
    )
    def test_adjacent_doubles(self, x, rounds_up):
        y = np.nextafter(x, np.inf)
        # the midpoint candidate is x or y itself, depending on x's last bit
        assert (0.5 * (x + y) == y) == rounds_up
        cases = [([x], [y]), ([y], [x]), ([x, y], [y]), ([y, y], [x, 0.0])]
        # counted at x, the x|y candidate would wrongly beat the true best, x + 4
        cases.append(([x, x + 4.0], [y, y, y, y]))
        for pos, neg in cases:
            assert_sweep_matches_scan(pos, neg)


class TestNegativeSamplingModes:
    def test_uniform_fallback_matches_count(self, trainer_setup):
        h, split = trainer_setup
        graph = IdGraph(h, tuple(split.train))
        rng = np.random.default_rng(0)
        cfg_ppl = TrainConfig(kind="ec", dim=2, epochs=1, seed=0, pick_per_level=True)
        cfg_uni = TrainConfig(kind="ec", dim=2, epochs=1, seed=0, pick_per_level=False)
        u, v = map(int, graph.positives[0])
        ppl = one_positive(_sample_negatives_for, graph, u, v, rng, cfg_ppl)
        uni = one_positive(_sample_negatives_for, graph, u, v, np.random.default_rng(0), cfg_uni)
        # both corrupt each side once per level slot; uniform draws ignore levels
        assert len(uni) <= 2 * h.level_count
        assert len(ppl) <= 2 * h.level_count
        closure = frozenset(h.closure())
        ids = graph.ids
        for a, b in uni:
            assert (ids[a], ids[b]) not in closure

    def test_pick_per_level_covers_levels(self, trainer_setup):
        h, split = trainer_setup
        graph = IdGraph(h, tuple(split.train))
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0)
        rng = np.random.default_rng(1)
        u, v = map(int, graph.positives[3])
        negs = one_positive(_sample_negatives_for, graph, u, v, rng, cfg)
        ids = graph.ids
        corrupt_u_levels = [h.node(ids[a]).level for a, b in negs if b == v]
        assert len(corrupt_u_levels) == len(set(corrupt_u_levels))


def pick_per_level_sides(h, positives, u, v, seed=0):
    """``_sample_negatives_for`` of label ids (u, v), as corrupt-u and corrupt-v pairs."""
    graph = IdGraph(h, positives)
    cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0)
    rng = np.random.default_rng(seed)
    negs = one_positive(_sample_negatives_for, graph, graph.index[u], graph.index[v], rng, cfg)
    pairs = [(graph.ids[a], graph.ids[b]) for a, b in negs]
    corrupt_u = [(a, b) for a, b in pairs if b == v]
    corrupt_v = [(a, b) for a, b in pairs if b != v]
    return corrupt_u, corrupt_v


class TestPickPerLevel:
    def test_one_per_level(self):
        h = generate_synthetic_tree(4, 3)
        closure = frozenset(h.closure())
        for seed in range(3):
            corrupt_u, corrupt_v = pick_per_level_sides(
                h, list(h.closure()), "r.0", "r.0.1.2", seed
            )
            # the root level has no corrupt-u candidate: the root entails r.0.1.2
            assert len(corrupt_u) == h.level_count - 1
            assert len(corrupt_v) == h.level_count
            for side, corrupted in ((corrupt_u, 0), (corrupt_v, 1)):
                levels = [h.node(pair[corrupted]).level for pair in side]
                assert len(levels) == len(set(levels))
                assert not set(side) & closure

    def test_corrupt_v_side(self):
        h = generate_synthetic_tree(4, 3)
        _, corrupt_v = pick_per_level_sides(h, list(h.closure()), "r.0", "r.0.1.2")
        assert corrupt_v and all(a == "r.0" for a, _ in corrupt_v)

    def test_degenerate_single_level(self):
        h = Hierarchy([Node("a", 1, "a"), Node("b", 1, "b"), Node("c", 1, "c")], [])
        corrupt_u, corrupt_v = pick_per_level_sides(h, [("a", "b")], "a", "b")
        assert corrupt_u == [("c", "b")]
        assert corrupt_v == [("a", "c")]


def _instance_graph(extra=()):
    """Closure and instance positives, then the ``extra`` ones."""
    tree = generate_synthetic_tree(3, 2)
    features = gaussian_cluster_features(tree, 3, 4, seed=1)
    train_idx, _, _ = split_instances(len(features.instance_ids), 0)
    positives = list(tree.closure()) + instance_edges(tree, features, train_idx)
    train_ids = tuple(features.instance_ids[i] for i in train_idx)
    return IdGraph(tree, [*positives, *extra], train_ids)


def _forest_graph():
    nodes = [Node(i, len(i), i) for i in ("a", "b", "ax", "ay", "bx", "axz", "ayz", "bxz")]
    edges = [("a", "ax"), ("a", "ay"), ("b", "bx"), ("ax", "axz"), ("ay", "ayz"), ("bx", "bxz")]
    forest = Hierarchy(nodes, edges)
    # positives outside the closure, one of which empties corrupt-u at level 1 for "bx"
    return IdGraph(forest, [("a", "ax"), ("bx", "bxz"), ("a", "bx"), ("ay", "ax")])


def _label_graph():
    tree = generate_synthetic_tree(3, 3)
    return IdGraph(tree, list(tree.closure()))


GRAPHS = {
    "single-root": _label_graph,
    "instances": _instance_graph,
    "instances-extra": lambda: _instance_graph(
        [("r.0", "i_r.1.1_0001"), ("r.1.0", "r.0"), ("i_r.0.0_0000", "r")]
    ),
    "forest-extra": _forest_graph,
}


def _seed_sample_negatives_for(graph, u, v, rng, config):
    """The retry loop as it stood before empty slots were skipped."""
    out = []
    seen = set()
    if config.pick_per_level:
        pools = graph.levels
    else:
        pools = [np.concatenate(graph.levels)] * len(graph.levels)
    for _ in range(config.neg_passes):
        for corrupt_u in (True, False):
            for pool in pools:
                for _ in range(RETRY_CAP):
                    cand = int(pool[int(rng.integers(len(pool)))])
                    pair = (cand, v) if corrupt_u else (u, cand)
                    if pair[0] == pair[1] or pair in graph.forbidden or pair in seen:
                        continue
                    if graph.is_instance(pair[0]) and graph.is_instance(pair[1]):
                        continue
                    out.append(pair)
                    seen.add(pair)
                    break
    return out


def _per_positive_sample_negatives_rebalanced(graph, u, v, rng, config):
    """The rejection-free rebalanced sampler as it stood with one call per positive.

    Only the banned-position lookup reads the current table (``banned_key``,
    one CSR over ``side * n + node``), and the total mass is summed left to
    right as Python 3.11's ``sum`` does (3.12's compensates); the arithmetic
    is otherwise unchanged.
    """
    levels = graph.levels
    props = [0.5 / (len(levels) - 1)] * (len(levels) - 1) + [0.5] if len(levels) > 1 else [1.0]
    unit = [prop / len(pool) for prop, pool in zip(props, levels)]
    slots = len(levels) * config.neg_passes
    draws = rng.random(2 * slots).tolist()
    n = graph.n_total
    out = []
    for side, fixed in enumerate((v, u)):
        counts = graph.valid[side, :, fixed].tolist()
        slot = side * n + fixed
        ptr = graph.banned_ptr
        gaps = graph.banned_key[ptr[slot] : ptr[slot + 1]] - slot * (n + 1)
        seen = []  # drawn valid indices, ascending
        for r in draws[side * slots : (side + 1) * slots]:
            masses = [c * w for c, w in zip(counts, unit)]
            total = 0.0
            for m in masses:
                total += m
            if total <= 0.0:
                break
            x = r * total
            for p, m in enumerate(masses):
                if x < m:
                    break
                x -= m
            else:  # rounding carried x past the last mass: take the last candidate
                p = max(q for q, m in enumerate(masses) if m)
                x = masses[p]
            k = sum(counts[:p]) + min(int(x / unit[p]), counts[p] - 1)
            for s in seen:
                if s > k:
                    break
                k += 1
            bisect.insort(seen, k)
            counts[p] -= 1
            cand = int(graph.order[k + int(np.searchsorted(gaps, k, side="right"))])
            out.append((cand, v) if side == 0 else (u, cand))
    return out


def _lemire(words, n):
    """What ``rng.integers(n)`` makes of each 32-bit word: ``(index, thrown_away)``.

    NumPy's Lemire step maps a word ``w`` to ``(w * n) >> 32``; it throws
    the word away and reads the next one when ``(w * n) mod 2**32`` falls
    below ``(2**32 - n) mod n``. ``n`` broadcasts against ``words``.
    """
    n = np.asarray(n, dtype=np.uint64)
    m = np.asarray(words, dtype=np.uint64) * n
    return (m >> np.uint64(32)).view(np.int64), (m & np.uint64(2**32 - 1)) < (2**32 - n) % n


def draws_from_words(rng, n, count):
    """``count`` draws of ``rng.integers(n)``, computed from the generator's 32-bit words.

    The generator is left where the scalar draws leave it: the words are read
    ahead, then handed back and only the ones used are read again.
    """
    words = _Words(rng, 4 * count + 64)
    idx, thrown = _lemire(words.block, n)
    kept = np.flatnonzero(~thrown)[:count]
    assert len(kept) == count
    words.close(int(kept[-1]) + 1)
    return idx[kept]


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def zero_words_at(rng, at):
    """Set ``rng`` so that its 32-bit words ``at`` and ``at + 1`` (``at`` even) are 0.

    Steps PCG64's LCG back from the all-zero state, whose output is 0, so
    that the ``at // 2 + 1``-th 64-bit output comes from it.
    """
    state = rng.bit_generator.state
    inc, mul_inv = state["state"]["inc"], pow(PCG64_MULTIPLIER, -1, 2**128)
    s = 0
    for _ in range(at // 2 + 1):
        s = (s - inc) * mul_inv % 2**128
    rng.bit_generator.state = {**state, "state": {"state": s, "inc": inc}, "has_uint32": 0}
    probe = np.random.default_rng()
    probe.bit_generator.state = rng.bit_generator.state
    words = probe.integers(0, 2**32, size=at + 2, dtype=np.uint32)
    assert words[at] == words[at + 1] == 0 and words[:at].all()


class TestEmptySlots:
    @pytest.mark.parametrize("pick_per_level", [True, False])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_table_matches_brute_force(self, name, pick_per_level):
        graph = GRAPHS[name]()
        pools = graph.levels if pick_per_level else [graph.order] * len(graph.levels)
        assert len(pools) == len(graph.levels)
        expected = np.zeros((2, len(pools), graph.n_total), dtype=bool)
        for p, pool in enumerate(pools):
            for node in range(graph.n_total):
                for side in (0, 1):
                    pairs = [(int(c), node) if side == 0 else (node, int(c)) for c in pool]
                    expected[side, p, node] = not any(
                        a != b
                        and (a, b) not in graph.forbidden
                        and not (graph.is_instance(a) and graph.is_instance(b))
                        for a, b in pairs
                    )
        valid = graph.valid if pick_per_level else graph.valid.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(np.broadcast_to(valid == 0, expected.shape), expected)
        assert not expected.all()

    def test_known_empty_slots(self):
        graph = _instance_graph()
        root = graph.index["r"]
        child = graph.index["r.0"]
        inst = graph.n_labels
        empty = graph.valid == 0
        assert empty[0, 0, child]  # corrupt-u at the root level: the root entails all
        assert empty[0, -1, inst]  # corrupt-u at the instance level of an instance
        assert empty[1, :, root].all()  # corrupt-v under the root: all are positives
        assert not empty[1, 0, child]  # the root itself is a valid corrupt-v

    @pytest.mark.parametrize("neg_passes", [1, 2])
    @pytest.mark.parametrize("pick_per_level", [True, False])
    @pytest.mark.parametrize("name", ["single-root", "instances-extra"])
    def test_same_pairs_and_stream_as_retry_loop(self, name, pick_per_level, neg_passes):
        graph = GRAPHS[name]()
        cfg = TrainConfig(
            kind="ec", dim=2, epochs=1, seed=0,
            pick_per_level=pick_per_level, neg_passes=neg_passes,
        )
        order = np.random.default_rng(3).permutation(len(graph.positives))
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        for u, v in graph.positives[order]:
            got = one_positive(_sample_negatives_for, graph, int(u), int(v), rng, cfg)
            assert got == _seed_sample_negatives_for(graph, int(u), int(v), ref, cfg)
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 7, 27, 81, 100, 1000, 2**31 - 1, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**33]
    )
    def test_batched_draws_equal_scalar_draws(self, n):
        # the samplers' byte-identical batching rests on these NumPy stream facts
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        rng.random(), ref.random()  # start away from a fresh state
        batched = rng.integers(n, size=RETRY_CAP)
        scalar = [ref.integers(n) for _ in range(RETRY_CAP)]
        np.testing.assert_array_equal(batched, scalar)
        assert rng.bit_generator.state == ref.bit_generator.state
        # per-element bounds: the same stream as scalar draws with those bounds
        bounds = np.repeat(np.array([n, 3, 1, n, 2**32 + 1, 7], dtype=np.int64), 11)
        np.testing.assert_array_equal(
            rng.integers(0, bounds), [ref.integers(int(b)) for b in bounds]
        )
        assert rng.bit_generator.state == ref.bit_generator.state
        # a one-member pool's draws consume no stream
        state = rng.bit_generator.state
        np.testing.assert_array_equal(rng.integers(1, size=RETRY_CAP), 0)
        assert rng.bit_generator.state == state
        # one uniform call for m positives is m calls for one positive each
        k = min(n, 24)
        np.testing.assert_array_equal(
            rng.random(5 * k), np.concatenate([ref.random(k) for _ in range(5)])
        )
        assert rng.bit_generator.state == ref.bit_generator.state
        if not 2 <= n <= 2**32:
            return
        # the plain sampler computes draws from a block of 32-bit words: Lemire's
        # step, thrown-away words, PCG64's pending high half, then a re-read
        for pending in (False, True):
            for forced in (False, True):
                rng, ref = np.random.default_rng(7), np.random.default_rng(7)
                if pending:
                    rng.integers(0, 2**32, dtype=np.uint32), ref.integers(0, 2**32, dtype=np.uint32)
                    assert rng.bit_generator.state["has_uint32"] == 1
                if forced:  # the next word is 0, which the Lemire step throws away
                    for g in (rng, ref):
                        g.bit_generator.state = {
                            **g.bit_generator.state, "has_uint32": 1, "uinteger": 0
                        }
                    assert _lemire(np.zeros(1, np.uint32), n)[1][0] == bool(n & (n - 1))
                np.testing.assert_array_equal(
                    draws_from_words(rng, n, RETRY_CAP), [ref.integers(n) for _ in range(RETRY_CAP)]
                )
                assert rng.bit_generator.state == ref.bit_generator.state


def ref_sample_negatives_rebalanced(graph, u, v, rng, config):
    """The rebalanced sampler as a rejection loop with RETRY_CAP draws per slot."""
    label_levels = [l for l in graph.levels[: -1]] or graph.levels
    inst_pool = graph.levels[-1]
    out = []
    seen = set()
    draws = 2 * len(graph.levels) * config.neg_passes
    for k in range(draws):
        corrupt_u = k % 2 == 0
        for _ in range(RETRY_CAP):
            if rng.random() < 0.5:
                pool = inst_pool
            else:
                pool = label_levels[int(rng.integers(len(label_levels)))]
            cand = int(pool[int(rng.integers(len(pool)))])
            pair = (cand, v) if corrupt_u else (u, cand)
            if pair[0] == pair[1] or pair in graph.forbidden or pair in seen:
                continue
            if graph.is_instance(pair[0]) and graph.is_instance(pair[1]):
                continue
            out.append(pair)
            seen.add(pair)
            break
    return out


def valid_candidates(graph, side, node):
    """Brute force: candidates forming a valid negative with ``node`` (side 0 corrupts u)."""
    out = []
    for c in range(graph.n_total):
        a, b = (c, node) if side == 0 else (node, c)
        if a == b or (a, b) in graph.forbidden:
            continue
        if graph.is_instance(a) and graph.is_instance(b):
            continue
        out.append(c)
    return out


def proposal_mass(graph):
    """Per node: the rebalanced proposal's probability of drawing it."""
    levels = graph.levels
    mass = np.zeros(graph.n_total)
    for i, pool in enumerate(levels):
        prop = 0.5 if i == len(levels) - 1 else 0.5 / (len(levels) - 1)
        mass[pool] += (prop if len(levels) > 1 else 1.0) / len(pool)
    return mass


def split_sides(pairs, u, v):
    side0 = [a for a, b in pairs if b == v and a != u]
    side1 = [b for a, b in pairs if a == u and b != v]
    assert len(side0) + len(side1) == len(pairs)
    return side0, side1


@st.composite
def forests_with_instances(draw):
    """An uneven forest (1-4 levels), instances under its leaves, positives, extras."""
    levels = [[f"n{i}" for i in range(draw(st.integers(1, 3)))]]
    edges = []
    for _ in range(draw(st.integers(0, 3))):
        below = []
        for j, parent in enumerate(levels[-1]):
            for c in range(draw(st.integers(1 if j == 0 else 0, 3))):
                below.append(f"{parent}.{c}")
                edges.append((parent, below[-1]))
        levels.append(below)
    forest = Hierarchy(
        [Node(nid, depth + 1, nid) for depth, ids in enumerate(levels) for nid in ids], edges
    )
    n_inst = draw(st.integers(1, 8))
    leaves = [draw(st.sampled_from(levels[-1])) for _ in range(n_inst)]
    inst_ids = [f"i{k}" for k in range(n_inst)]
    closure = sorted(forest.closure())
    keep = draw(st.lists(st.booleans(), min_size=len(closure), max_size=len(closure)))
    positives = [e for e, k in zip(closure, keep) if k]
    positives += [
        (anc, iid) for iid, leaf in zip(inst_ids, leaves) for anc in (leaf, *forest.ancestors(leaf))
    ]
    ids = [nid for level in levels for nid in level] + inst_ids
    extra = draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=12))
    return IdGraph(forest, positives + sorted((a, b) for a, b in extra if a != b), tuple(inst_ids))


def _wide_instance_graph():
    """3 levels, branching 4, two instances per leaf, most of them training nodes."""
    tree = generate_synthetic_tree(3, 4)
    features = gaussian_cluster_features(tree, 2, 4, seed=1)
    train_idx, _, _ = split_instances(len(features.instance_ids), 0)
    positives = list(tree.closure()) + instance_edges(tree, features, train_idx)
    positives += [("r.0", "r.1.1"), ("r.2.3", "r")]
    return IdGraph(tree, positives, tuple(features.instance_ids[i] for i in train_idx))


def chi2_two_sample(ref, got):
    """Two-sample chi-square statistic of two frequency samples, and its degrees of freedom."""
    cats = sorted(set(ref) | set(got))
    r = np.array([ref.count(c) for c in cats], dtype=float)
    g = np.array([got.count(c) for c in cats], dtype=float)
    k1, k2 = np.sqrt(g.sum() / r.sum()), np.sqrt(r.sum() / g.sum())
    return float(np.sum((k1 * r - k2 * g) ** 2 / (r + g))), len(cats) - 1


def chi2_upper(df, z=4.0):
    """Wilson-Hilferty upper quantile of chi-square(df) at normal deviate ``z``."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * np.sqrt(c)) ** 3


class TestRebalancedSampler:
    @settings(max_examples=60, deadline=None)
    @given(forests_with_instances(), st.integers(1, 2), st.integers(0, 2**32 - 1))
    def test_pairs_valid_distinct_and_slots_filled(self, graph, neg_passes, seed):
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0, neg_passes=neg_passes)
        slots = len(graph.levels) * neg_passes
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for u, v in graph.positives.tolist():
            valid = [set(valid_candidates(graph, 0, v)), set(valid_candidates(graph, 1, u))]
            got = one_positive(_sample_negatives_rebalanced, graph, u, v, rng, cfg)
            ref = ref_sample_negatives_rebalanced(graph, u, v, ref_rng, cfg)
            for pairs, exact in ((got, True), (ref, False)):
                assert len(set(pairs)) == len(pairs)
                for side, cands in enumerate(split_sides(pairs, u, v)):
                    assert set(cands) <= valid[side]
                    if exact:
                        # a slot is skipped only when no valid candidate is left
                        assert len(cands) == min(slots, len(valid[side]))
                    else:
                        assert len(cands) <= min(slots, len(valid[side]))

    def test_valid_counts_and_banned_positions_match_brute_force(self):
        for graph in (*(make() for make in GRAPHS.values()), _wide_instance_graph()):
            pos = {int(node): i for i, node in enumerate(graph.order)}
            for side in (0, 1):
                for node in range(graph.n_total):
                    valid = set(valid_candidates(graph, side, node))
                    for p, pool in enumerate(graph.levels):
                        assert graph.valid[side, p, node] == len(valid & set(pool.tolist()))
                    slot = side * graph.n_total + node
                    ptr = graph.banned_ptr[slot]
                    keys = graph.banned_key[ptr : graph.banned_ptr[slot + 1]]
                    assert (keys // (graph.n_total + 1) == slot).all()
                    # the k-th valid position, by the sampler's arithmetic; an instance
                    # node's valid candidates are labels, which come before the instances
                    expected = sorted(pos[c] for c in valid)
                    queries = slot * (graph.n_total + 1) + np.arange(len(valid))
                    below = np.searchsorted(graph.banned_key, queries, side="right") - ptr
                    assert (np.arange(len(valid)) + below).tolist() == expected

    def test_candidate_frequencies_match_rejection_loop(self):
        graph = _wide_instance_graph()
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0)
        slots = len(graph.levels)
        mass = proposal_mass(graph)
        root = graph.index["r"]
        picks = np.random.default_rng(2).permutation(len(graph.positives))
        chosen = [tuple(graph.positives[i].tolist()) for i in picks if graph.positives[i, 0] != root]
        # four label-label and four label-instance positives
        label = [p for p in chosen if not graph.is_instance(p[1])][:4]
        inst = [p for p in chosen if graph.is_instance(p[1])][:4]
        checked = 0
        for u, v in label + inst:
            for side, node in ((0, v), (1, u)):
                m = np.sort(mass[valid_candidates(graph, side, node)])
                # the loop gives up on a slot with probability below 1e-6 here, so
                # the two draw the same candidate multiset per call
                assert (1.0 - (m.sum() - m[len(m) - slots + 1 :].sum())) ** RETRY_CAP < 1e-6
            rng, ref_rng = np.random.default_rng(7), np.random.default_rng(8)
            got, ref = ([], []), ([], [])
            # one batch of 2000 copies: the same draws as 2000 one-positive calls
            pairs = _sample_negatives_rebalanced(
                graph, np.full(2000, u), np.full(2000, v), rng, cfg
            )
            for side, cands in enumerate(split_sides(pairs.tolist(), u, v)):
                got[side].extend(cands)
            for _ in range(2000):
                pairs = ref_sample_negatives_rebalanced(graph, u, v, ref_rng, cfg)
                for side, cands in enumerate(split_sides(pairs, u, v)):
                    ref[side].extend(cands)
            for side in (0, 1):
                assert len(got[side]) == 2000 * slots
                stat, df = chi2_two_sample(ref[side], got[side])
                assert stat < chi2_upper(df), (u, v, side, stat, df)
                checked += 1
        assert checked == 16

    def test_corrupt_parent_mix_is_half_instances(self):
        graph = _wide_instance_graph()
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0)
        mass = proposal_mass(graph)
        leaves = {graph.index[n] for n in ("r.0.0", "r.1.2", "r.3.3")}
        positives = [(u, v) for u, v in graph.positives.tolist() if u in leaves]
        # the first corrupt-v draw's chance of an instance, from the valid masses
        expected = []
        for u, _ in positives:
            valid = np.array(valid_candidates(graph, 1, u))
            expected.append(mass[valid[valid >= graph.n_labels]].sum() / mass[valid].sum())
        exp = np.mean(expected)
        batch = np.array(positives * 300)
        rng = np.random.default_rng(3)
        got = _sample_negatives_rebalanced(graph, batch[:, 0], batch[:, 1], rng, cfg)
        slots = 2 * len(graph.levels)
        assert len(got) == len(batch) * slots  # every slot holds a valid candidate
        per_positive = got.reshape(len(batch), slots, 2).tolist()
        ref_rng = np.random.default_rng(4)
        ref = [ref_sample_negatives_rebalanced(graph, u, v, ref_rng, cfg) for u, v in batch.tolist()]
        for calls in (per_positive, ref):
            first, every = [], []
            for (u, v), pairs in zip(batch.tolist(), calls):
                side1 = split_sides(pairs, u, v)[1]
                first.append(graph.is_instance(side1[0]))
                every.extend(graph.is_instance(c) for c in side1)
            share = np.mean(first)
            assert abs(share - exp) < 4 * np.sqrt(exp * (1 - exp) / len(first))
            assert abs(np.mean(every) - 0.5) < 0.05
            assert 0.45 < exp < 0.55


class TestBatchSamplersMatchPerPositiveCalls:
    @settings(max_examples=100, deadline=None)
    @given(
        forests_with_instances(),
        st.integers(1, 3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_same_pairs_and_stream(self, graph, neg_passes, pick_per_level, seed, data):
        cfg = TrainConfig(
            kind="ec", dim=2, epochs=1, seed=0,
            neg_passes=neg_passes, pick_per_level=pick_per_level,
        )
        n_pos = len(graph.positives)
        batch_size = data.draw(st.integers(1, n_pos + 1), label="batch_size")
        order = np.random.default_rng(seed).permutation(n_pos)
        for batched, per_positive in (
            (_sample_negatives_for, _seed_sample_negatives_for),
            (_sample_negatives_rebalanced, _per_positive_sample_negatives_rebalanced),
        ):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for start in range(0, n_pos, batch_size):
                batch = graph.positives[order[start : start + batch_size]]
                got = batched(graph, batch[:, 0], batch[:, 1], rng, cfg)
                expected = [
                    pair for u, v in batch.tolist() for pair in per_positive(graph, u, v, ref, cfg)
                ]
                assert got.dtype == np.int64 and got.shape == (len(expected), 2)
                assert [tuple(p) for p in got.tolist()] == expected
                assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("neg_passes", [1, 3])
    @pytest.mark.parametrize("make", [_instance_graph, _wide_instance_graph])
    def test_rounding_past_the_last_mass(self, make, neg_passes):
        class TopDraws:
            """Every uniform is the largest double below 1, so x often rounds past the end."""

            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        graph = make()
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0, neg_passes=neg_passes)
        u, v = graph.positives[:, 0], graph.positives[:, 1]
        got = _sample_negatives_rebalanced(graph, u, v, TopDraws(), cfg)
        expected = [
            pair
            for a, b in graph.positives.tolist()
            for pair in _per_positive_sample_negatives_rebalanced(graph, a, b, TopDraws(), cfg)
        ]
        assert [tuple(p) for p in got.tolist()] == expected

    # the plain sampler's word walk against the scalar retry loop, at its corner cases
    @staticmethod
    def assert_matches_scalar_loop(graph, batch, rng, cfg):
        ref = np.random.default_rng()
        ref.bit_generator.state = rng.bit_generator.state
        got = _sample_negatives_for(graph, batch[:, 0], batch[:, 1], rng, cfg)
        expected = [
            pair for u, v in batch.tolist() for pair in _seed_sample_negatives_for(graph, u, v, ref, cfg)
        ]
        assert [tuple(p) for p in got.tolist()] == expected
        assert rng.bit_generator.state == ref.bit_generator.state
        return expected

    @pytest.mark.parametrize("neg_passes", [1, 2, 3])
    @pytest.mark.parametrize("pick_per_level", [True, False])
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_every_graph_and_batch_size(self, name, pick_per_level, neg_passes):
        graph = GRAPHS[name]()
        cfg = TrainConfig(
            kind="ec", dim=2, epochs=1, seed=0,
            pick_per_level=pick_per_level, neg_passes=neg_passes,
        )
        n_pos = len(graph.positives)
        order = np.random.default_rng(2).permutation(n_pos)
        for batch_size in sorted({1, 2, 5, 64, n_pos, n_pos + 1}):
            rng = np.random.default_rng(batch_size)
            for start in range(0, n_pos, batch_size):
                batch = graph.positives[order[start : start + batch_size]]
                self.assert_matches_scalar_loop(graph, batch, rng, cfg)

    def test_thrown_word_before_a_drawing_slot(self):
        graph = _label_graph()
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0)
        batch = np.array([[graph.index["r.1"], graph.index["r.1.0"]]] * 3)
        # the first slot reading words is corrupt-u at level 2, a pool of 3,
        # whose member 0 (what word 0 would give) is a valid candidate
        assert graph.valid[0, 0, batch[0, 1]] == 0 and len(graph.levels[0]) == 1
        assert graph.valid[0, 1, batch[0, 1]] != 0 and len(graph.levels[1]) == 3
        assert (int(graph.levels[1][0]), int(batch[0, 1])) not in graph.forbidden
        assert _lemire(np.zeros(1, np.uint32), 3)[1][0]
        rng = np.random.default_rng(3)
        rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 1, "uinteger": 0}
        self.assert_matches_scalar_loop(graph, batch, rng, cfg)

    @pytest.mark.parametrize("neg_passes", [1, 3])
    @pytest.mark.parametrize("at", [0, 50, 98, 150])
    def test_thrown_words_inside_an_empty_slot(self, at, neg_passes):
        nodes = [Node(i, len(i), i) for i in ("a", "b", "c", "ax", "bx", "cx")]
        forest = Hierarchy(nodes, [("a", "ax"), ("b", "bx"), ("c", "cx")])
        positives = [("a", "ax"), ("b", "bx"), ("c", "cx")]
        graph = IdGraph(forest, positives + [("a", "bx"), ("c", "bx")])
        b, bx = graph.index["b"], graph.index["bx"]
        # corrupt-u at level 1 for bx: a and c are banned, b entails it; 3 is no power of 2
        assert graph.valid[0, 0, bx] == 0 and len(graph.levels[0]) == 3
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0, neg_passes=neg_passes)
        batch = np.array([[b, bx], [graph.index["a"], graph.index["ax"]]])
        rng = np.random.default_rng(4)
        zero_words_at(rng, at)
        self.assert_matches_scalar_loop(graph, batch, rng, cfg)

    @pytest.mark.parametrize("seed, at", [(11, 104), (19, 110), (24, 106), (34, 108)])
    def test_thrown_words_across_adjacent_empty_slots(self, seed, at):
        nodes = [Node(i, len(i), i) for i in ("a", "b", "c", "ax", "bx", "cx")]
        forest = Hierarchy(nodes, [("a", "ax"), ("b", "bx"), ("c", "cx")])
        positives = [("a", "ax"), ("b", "bx"), ("c", "cx")]
        graph = IdGraph(forest, positives + [("a", "bx"), ("c", "bx"), ("ax", "bx"), ("cx", "bx")])
        a, ax, b, bx = (graph.index[i] for i in ("a", "ax", "b", "bx"))
        # corrupt-u for bx has no valid candidate at either level, pools of 3
        assert (graph.valid[0, :, bx] == 0).all() and len(graph.levels[1]) == 3
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0)
        # the zero words fall at the end of the first empty slot, which then reads
        # both, so the second one starts two words past its nominal start
        rng = np.random.default_rng(seed)
        zero_words_at(rng, at)
        self.assert_matches_scalar_loop(graph, np.array([[a, ax], [b, bx]]), rng, cfg)

    # the zero words fall in empty slot 79, 149 or 196 of 200
    @pytest.mark.parametrize("at", [8320, 15600, 20500])
    def test_thrown_word_past_the_first_block(self, at):
        nodes = [Node(i, len(i), i) for i in ("a", "b", "c", "ax", "bx", "cx")]
        forest = Hierarchy(nodes, [("a", "ax"), ("b", "bx"), ("c", "cx")])
        graph = IdGraph(forest, [("a", "ax"), ("b", "bx"), ("c", "cx"), ("a", "bx"), ("c", "bx")])
        b, bx = graph.index["b"], graph.index["bx"]
        assert graph.valid[0, 0, bx] == 0  # one empty slot per positive, a pool of 3
        rng = np.random.default_rng(4)
        zero_words_at(rng, at)
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0)
        self.assert_matches_scalar_loop(graph, np.array([[b, bx]] * 200), rng, cfg)

    def test_a_one_word_read_ahead_refills_as_it_goes(self, monkeypatch):
        grew = set()  # the functions that read the block on

        class OneWordAhead(_Words):
            def __init__(self, rng, ahead):
                super().__init__(rng, 1)

            def upto(self, end):
                if end > len(self.block):
                    grew.add(sys._getframe(1).f_code.co_name)
                return super().upto(end)

        monkeypatch.setattr(training, "_Words", OneWordAhead)
        for name in sorted(GRAPHS):
            for pick_per_level in (True, False):
                for neg_passes in (1, 2, 3):
                    self.test_every_graph_and_batch_size(name, pick_per_level, neg_passes)
        self.test_thrown_word_before_a_drawing_slot()
        for at in (0, 50, 98, 150):
            for neg_passes in (1, 3):
                self.test_thrown_words_inside_an_empty_slot(at, neg_passes)
        for seed, at in ((11, 104), (19, 110), (24, 106), (34, 108)):
            self.test_thrown_words_across_adjacent_empty_slots(seed, at)
        for at in (8320, 15600, 20500):
            self.test_thrown_word_past_the_first_block(at)
        # drawing slots, and the scan for thrown-away words in empty slots
        assert grew == {"_retry_loop", "thrown_in"}

    def test_one_valid_candidate_in_a_large_pool_gives_up(self):
        ids = [f"n{i:03d}" for i in range(300)]
        flat = Hierarchy([Node(i, 1, i) for i in ids], [])
        graph = IdGraph(flat, [("n000", "n001"), *(("n000", i) for i in ids[2:-1])])
        u, v = graph.index["n000"], graph.index["n001"]
        assert graph.valid[1, 0, u] == 1  # corrupt-v: only n299
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0)
        # zero words at 50 fall in the first corrupt-v slot, and the Lemire step
        # throws them away (300 is no power of 2): a slot that gives up reads them too
        for zeros_at in (None, 50):
            gave_up = found = 0
            for seed in range(8):
                rng = np.random.default_rng(seed)
                if zeros_at is not None:
                    zero_words_at(rng, zeros_at)
                pairs = self.assert_matches_scalar_loop(graph, np.array([[u, v]] * 2), rng, cfg)
                gave_up += sum(a == u and b != v for a, b in pairs) < 2
                found += (u, graph.index["n299"]) in pairs
            assert gave_up and found

    @pytest.mark.parametrize("neg_passes", [1, 2, 3])
    def test_one_member_pools(self, neg_passes):
        graph = _label_graph()
        root = graph.index["r"]
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0, neg_passes=neg_passes)
        batch = graph.positives[graph.positives[:, 0] != root][:6]
        for seed in range(3):
            pairs = self.assert_matches_scalar_loop(graph, batch, np.random.default_rng(seed), cfg)
            # corrupt-v at the root level: the one member, once per positive
            assert sum(b == root for _, b in pairs) == len(batch)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_ancestor_table_and_extra_keys_are_the_banned_pairs(self, name):
        graph = GRAPHS[name]()
        assert_banned_pairs(graph)
        # the table holds every banned pair but the positives that no row can
        expected = {"single-root": 0, "instances": 0, "instances-extra": 3, "forest-extra": 2}
        assert len(graph.extra_keys) == expected[name]

    @settings(max_examples=50, deadline=None)
    @given(forests_with_instances())
    def test_ancestor_table_on_random_forests(self, graph):
        assert_banned_pairs(graph)


def one_shot_words_read(words, sizes):
    """Words that empty slots of pool sizes ``sizes`` read from ``words``, one
    slot after the other: RETRY_CAP kept words each, and every thrown-away one."""
    at = 0
    for n in sizes:
        _, thrown = _lemire(words[at : at + 2 * RETRY_CAP], n)
        kept = np.cumsum(~thrown)
        assert kept[-1] >= RETRY_CAP
        at += int(np.searchsorted(kept, RETRY_CAP)) + 1
    return at


class TestSpentBlocks:
    """Empty slots find their thrown-away words in the block a chunk at a time."""

    CHUNK = 2**14  # words per scan in ``_retry_loop``
    SLOTS = 3 * CHUNK // RETRY_CAP + 5  # into a partial fourth chunk

    @staticmethod
    def empty_slots_read(sizes, rng):
        """``_retry_loop`` over empty slots of pool sizes ``sizes``: the words it
        reads, and the generator's words from where it started."""
        probe = np.random.default_rng()
        probe.bit_generator.state = rng.bit_generator.state
        expected = probe.integers(0, 2**32, size=2 * RETRY_CAP * (len(sizes) + 1), dtype=np.uint32)
        words = _Words(rng, RETRY_CAP * len(sizes))
        slots = [(int(n), 0, 0, True, i, False) for i, n in enumerate(sizes)]
        picks, used = _retry_loop(GRAPHS["forest-extra"](), words, slots, False)
        assert picks == [-1] * len(sizes)
        return used, expected

    @pytest.mark.parametrize("where", ["first", "middle", "last", "none"])
    def test_hit_in_each_block(self, where):
        # a pool of 3 throws away the zero word only; two zero words end the first
        # chunk, fall late in the second or in the partial fourth, or none
        rng = np.random.default_rng(2)
        chunk = self.CHUNK
        at = {"first": chunk - 2, "middle": 2 * chunk - 300, "last": 3 * chunk + 300, "none": None}[where]
        if at is not None:
            zero_words_at(rng, at)
        used, words = self.empty_slots_read([3] * self.SLOTS, rng)
        assert used == one_shot_words_read(words, [3] * self.SLOTS)
        assert used == self.SLOTS * RETRY_CAP + (0 if at is None else 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, SLOTS), st.integers(0, 24), st.integers(1, 8))
    def test_matches_one_shot_check(self, seed, count, spread, kinds):
        # pools of 2**31 - d throw a word away with probability 2d / 2**32, so a
        # slot's 100 words hold one anywhere from never to about every other time;
        # ``kinds`` pool sizes, so that each one's scan runs on over several chunks
        rng = np.random.default_rng(seed)
        pick = np.random.default_rng(seed + 1)
        d = pick.integers(0, 2**spread + 1, size=kinds)[pick.integers(0, kinds, size=count)]
        sizes = 2**31 - d
        used, words = self.empty_slots_read(sizes, rng)
        assert used == one_shot_words_read(words, sizes)

    def test_peak_memory_per_word(self, monkeypatch):
        # a joint-shaped span: labels and instances, most words read by empty slots
        tree = generate_synthetic_tree(4, 3)
        features = gaussian_cluster_features(tree, 20, 2, seed=1)
        every = np.arange(len(features.instance_ids))
        positives = np.concatenate(
            [tree.closure_rows, instance_positive_rows(tree, features, every)]
        )
        graph = _Graph(tree, positives, len(features.instance_ids))
        span = positives[np.random.default_rng(0).permutation(len(positives))[:1024]]
        used = []
        real_close = _Words.close

        def close(words, n):
            used.append(n)
            real_close(words, n)

        monkeypatch.setattr(_Words, "close", close)
        cfg = TrainConfig(kind="hc", dim=2)
        rng = np.random.default_rng(1)
        _sample_negatives_for(graph, span[:, 0], span[:, 1], rng, cfg)  # warm the caches
        used.clear()
        tracemalloc.start()
        try:
            _sample_negatives_for(graph, span[:, 0], span[:, 1], rng, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (words,) = used
        assert words > 100 * 1024  # empty slots read most of them
        assert peak <= 16 * words


class TestGraphRows:
    def test_positive_rows_out_of_range_are_rejected(self):
        tree = generate_synthetic_tree(2, 2)
        for rows, n_instances in (([[0, 3]], 0), ([[0, 5]], 2), ([[-1, 1]], 0)):
            with pytest.raises(ValueError, match=r"positive rows must lie in \[0, \d+\)"):
                _Graph(tree, np.array(rows), n_instances)
        graph = _Graph(tree, np.array([[0, 4]]), 2)
        assert graph.n_total == 5 and len(graph.levels) == 3


def assert_banned_pairs(graph):
    """``anc``/``extra_keys`` ban exactly the forbidden pairs and self-pairs, bar instance pairs."""
    n = graph.n_total
    keys = graph.extra_keys
    assert np.all(np.diff(keys) > 0)
    a, b = np.divmod(np.arange(n * n), n)
    by_table = (graph.anc[b, graph.col[a]] == a) | np.isin(a * n + b, keys)
    expected = np.array([x == y or (x, y) in graph.forbidden for x, y in zip(a.tolist(), b.tolist())])
    labels = (a < graph.n_labels) | (b < graph.n_labels)
    np.testing.assert_array_equal(by_table[labels], expected[labels])
    assert not np.isin(keys, a[~labels] * n + b[~labels]).any()


# ---------------------------------------------------------------------------
# The epoch engine in spans against its per-batch loop
# ---------------------------------------------------------------------------

def _per_batch_train_graph_embedding(h, positives, config, *, features=None):
    """The epoch engine as a per-batch loop: one sampler call per batch, and one
    kernel call and two gradient scatters per pair set (positives, then negatives)."""
    params = config.cone_params()
    rng = np.random.default_rng(config.seed)
    graph = _Graph(h, positives, 0 if features is None else len(features))
    coords = geometry.project_rows(
        random_coords(graph.n_labels, config.dim, params, rng, config.init_norm_hi), params, rng
    )
    w = feats = None
    if features is not None:
        feats = np.asarray(features, dtype=float)
        w = rng.standard_normal((feats.shape[1], config.dim)) * 0.01
    adam_labels = AdamState.like(coords) if config.optimizer == "adam" else None
    adam_w = AdamState.like(w) if w is not None else None
    sampler = (
        _sample_negatives_rebalanced
        if config.rebalance_images and features is not None
        else _sample_negatives_for
    )
    hc = config.kind == "hc"

    def embed(nodes):
        out = np.empty((len(nodes), config.dim))
        lab = nodes < graph.n_labels
        out[lab] = coords[nodes[lab]]
        z = None
        if np.any(~lab):
            z = feats[nodes[~lab] - graph.n_labels] @ w
            out[~lab] = geometry.exp_map_zero(z) if hc else z
        return out, z

    def accumulate(nodes, grads, z, coords_grad, w_grad):
        lab = nodes < graph.n_labels
        np.add.at(coords_grad, nodes[lab], grads[lab])
        if np.any(~lab):
            g = grads[~lab]
            dz = geometry.exp_map_zero_backprop(z, g) if hc else g
            w_grad += feats[nodes[~lab] - graph.n_labels].T @ dz

    history = []
    n_pos = len(graph.positives)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_pos)
        epoch_loss = 0.0
        for start in range(0, n_pos, config.batch_size):
            batch = graph.positives[order[start : start + config.batch_size]]
            negs = sampler(graph, batch[:, 0], batch[:, 1], rng, config)
            coords_grad = np.zeros_like(coords)
            w_grad = np.zeros_like(w) if w is not None else None
            terms = [(batch, None)] + ([(negs, config.margin)] if len(negs) else [])
            for pairs, margin in terms:
                xs, zx = embed(pairs[:, 0])
                ys, zy = embed(pairs[:, 1])
                e, gx, gy = geometry.energies_and_gradients(xs, ys, params)
                if margin is None:
                    epoch_loss += float(e.sum())
                else:
                    active = (e < margin)[:, None]
                    epoch_loss += float(np.maximum(0.0, margin - e).sum())
                    gx, gy = np.where(active, -gx, 0.0), np.where(active, -gy, 0.0)
                accumulate(pairs[:, 0], gx, zx, coords_grad, w_grad)
                accumulate(pairs[:, 1], gy, zy, coords_grad, w_grad)
            coords = optimizer_step(coords, coords_grad, adam_labels, config)
            if w is not None:
                w = adam_step(w, w_grad, adam_w, config.lr_instances)
        history.append({"epoch": epoch, "loss": epoch_loss})
    return coords, w, history


ENGINE_POSITIVES = 201  # a partial last batch at every batch size below, and a partial last span
# at a span of 64 positives; the default span holds them all
ENGINE_SPANS = [64, training.SPAN_POSITIVES]


@pytest.fixture(scope="module")
def engine_inputs():
    labels_only = generate_synthetic_tree(5, 3)
    tree = generate_synthetic_tree(3, 3)
    features = gaussian_cluster_features(tree, 9, 4, seed=1)
    every = np.arange(len(features.instance_ids))
    with_instances = np.concatenate(
        [tree.closure_rows, instance_positive_rows(tree, features, every)]
    )
    return {
        False: (labels_only, labels_only.closure_rows[:ENGINE_POSITIVES], None),
        True: (tree, with_instances[:ENGINE_POSITIVES], features.features),
    }


# kind, optimizer, rebalanced sampler, neg_passes, pick_per_level, instances
ENGINE_CASES = [
    ("oe", "adam", False, 1, True, False),
    ("ec", "adam", False, 2, False, False),
    ("hc", "rsgd", False, 3, True, False),
    ("hc", "adam", False, 1, False, True),
    ("oe", "adam", False, 3, True, True),
    ("hc", "adam", True, 2, True, True),
    ("ec", "adam", True, 3, False, True),
    ("hc", "rsgd", True, 1, True, True),
]


class TestEngineInSpans:
    @pytest.mark.parametrize("batch_size", [1, 5, 10, 63, 64, 65, 200])
    @pytest.mark.parametrize("case", ENGINE_CASES, ids=lambda c: "-".join(map(str, c)))
    @pytest.mark.parametrize("span", ENGINE_SPANS, ids=lambda s: f"span{s}")
    def test_matches_per_batch_loop(self, engine_inputs, case, batch_size, span, monkeypatch):
        monkeypatch.setattr(training, "SPAN_POSITIVES", span)
        kind, optimizer, rebalance, passes, ppl, with_instances = case
        h, positives, features = engine_inputs[with_instances]
        assert len(positives) == ENGINE_POSITIVES
        cfg = TrainConfig(
            kind=kind, dim=3, lr=0.05, lr_instances=0.01, epochs=2, batch_size=batch_size,
            optimizer=optimizer, neg_passes=passes, pick_per_level=ppl,
            rebalance_images=rebalance, seed=7,
        )
        coords, w, history = train_graph_embedding(h, positives, cfg, features=features)
        ref_coords, ref_w, ref_history = _per_batch_train_graph_embedding(
            h, positives, cfg, features=features
        )
        assert coords.tobytes() == ref_coords.tobytes()
        assert (w is None) == (ref_w is None)
        if w is not None:
            assert w.tobytes() == ref_w.tobytes()
        assert [(r["epoch"], r["loss"].hex()) for r in history] == [
            (r["epoch"], r["loss"].hex()) for r in ref_history
        ]

    @pytest.mark.parametrize(
        "span, batch_size, calls",
        [(64, 1, [64, 64, 64, 9]), (64, 10, [70, 70, 61]), (64, 65, [65, 65, 65, 6]),
         (64, 500, [201]), (1024, 10, [201]), (100, 1, [100, 100, 1])],
    )
    @pytest.mark.parametrize("rebalance", [False, True])
    def test_one_sampler_call_per_span(self, engine_inputs, monkeypatch, span, batch_size, calls, rebalance):
        # a span is the fewest whole batches holding at least SPAN_POSITIVES positives,
        # so an epoch makes ceil(positives / span) sampler calls
        h, positives, features = engine_inputs[True]
        name = "_sample_negatives_rebalanced" if rebalance else "_sample_negatives_for"
        real, sizes = getattr(training, name), []

        def counted(graph, u, v, *args, **kwargs):
            sizes.append(len(u))
            return real(graph, u, v, *args, **kwargs)

        monkeypatch.setattr(training, name, counted)
        monkeypatch.setattr(training, "SPAN_POSITIVES", span)
        cfg = TrainConfig(kind="ec", dim=2, epochs=2, batch_size=batch_size,
                          rebalance_images=rebalance, seed=3)
        train_graph_embedding(h, positives, cfg, features=features)
        per_call = -(-span // batch_size) * batch_size
        assert len(sizes) == 2 * -(-ENGINE_POSITIVES // per_call)
        assert sizes == calls * 2

    @pytest.mark.parametrize("rebalance", [False, True])
    def test_counts_cut_the_pairs_per_positive(self, rebalance):
        graph = _instance_graph()
        cfg = TrainConfig(kind="ec", dim=2, epochs=1, seed=0, neg_passes=2)
        sampler = _sample_negatives_rebalanced if rebalance else _sample_negatives_for
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        counts = np.full(len(graph.positives), -1, dtype=np.int64)
        pairs = sampler(graph, graph.positives[:, 0], graph.positives[:, 1], rng, cfg, counts=counts)
        ends = np.cumsum(counts)
        assert ends[-1] == len(pairs)
        for i, (u, v) in enumerate(graph.positives.tolist()):
            expected = one_positive(sampler, graph, u, v, ref, cfg)
            assert [tuple(p) for p in pairs[ends[i] - counts[i] : ends[i]].tolist()] == expected

    def test_row_at_the_origin_lands_on_the_floor(self, trainer_setup, monkeypatch):
        h, split = trainer_setup
        cfg = TrainConfig(kind="ec", dim=2, epochs=3, batch_size=5, seed=0)
        lo = cfg.cone_params().epsilon + geometry.DOMAIN_PAD
        real_adam, real_project, real_sampler = (
            training.adam_step, geometry.project_rows, training._sample_negatives_for
        )

        def run(zero_at):
            steps, projected, negatives = [], {}, []

            def adam(*args, **kwargs):
                out = real_adam(*args, **kwargs)
                steps.append(1)
                if len(steps) == zero_at:  # epoch 2, batch 2: row 3 at the origin
                    out[3] = 0.0
                return out

            def project(X, p, rng=None):
                out = real_project(X, p, rng)
                projected[len(steps)] = out  # the projection after adam step len(steps)
                return out

            def sampler(*args, **kwargs):
                negatives.append(real_sampler(*args, **kwargs))
                return negatives[-1]

            monkeypatch.setattr(training, "adam_step", adam)
            monkeypatch.setattr(geometry, "project_rows", project)
            monkeypatch.setattr(training, "_sample_negatives_for", sampler)
            table, history = train_label_embeddings(h, split, cfg)
            return table.coords, history, projected, negatives

        coords, history, projected, negatives = run(zero_at=6)
        assert np.linalg.norm(projected[6][3]) == pytest.approx(lo, rel=1e-12)
        assert np.all(np.isfinite(coords)) and len(history) == cfg.epochs
        again = run(zero_at=6)
        assert coords.tobytes() == again[0].tobytes() and history == again[1]
        # the projection draws nothing from the training stream
        untouched = run(zero_at=0)
        assert all(np.array_equal(a, b) for a, b in zip(negatives, untouched[3]))
        assert len(negatives) == len(untouched[3])
        assert coords.tobytes() != untouched[0].tobytes()

    def test_missing_label_is_named(self):
        emb = table_of([[0.2, 0.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match=r"lacks 1 .*'n9'"):
            pair_energies(emb, edge_set(("n9", "n1")))
