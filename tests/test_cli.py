"""End-to-end CLI pipelines: outputs, determinism, error behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hierembed
from hierembed.cli import main


def run(args):
    assert main(args) == 0


def tree_files(tmp_path, levels=3, branching=3):
    out = tmp_path / "tree"
    run(["gen-tree", "--levels", str(levels), "--branching", str(branching), "--out", str(out)])
    return out / "nodes.tsv", out / "edges.tsv", out


def dir_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


# The declared Python API: the names ``hierembed/__init__.py`` imports. Everything
# else in the submodules serves the CLI and may change with it.
PUBLIC_NAMES = {
    "ConeParams", "GeometryError", "cone_energy", "energy_gradients", "euclid_aperture",
    "euclid_xi", "exp_map", "hyper_aperture", "hyper_xi", "oe_energy", "poincare_distance",
    "project_to_domain", "riemannian_rescale",
    "EdgeSet", "Hierarchy", "HierarchyError", "Node", "SamplingError", "SplitResult",
    "augment_eval_negatives", "generate_synthetic_tree", "split_edges", "transitive_closure",
    "FeatureMatrix", "JointModel", "reconstruct_labels", "train_joint",
    "ConfusionCounts", "aggregate", "hit_at_k", "precision_recall_f1", "tpr_tnr",
    "EmbeddingTable", "TrainConfig", "TrainingError", "evaluate_edge_prediction",
    "optimizer_step", "train_label_embeddings",
}


def test_public_names_are_the_declared_api():
    # submodules appear as attributes once imported, and are not names of the API
    names = {name for name, value in vars(hierembed).items()
             if not name.startswith("_") and not isinstance(value, type(hierembed))}
    assert names == PUBLIC_NAMES
    assert hierembed.__version__ == "0.1.0"


def test_parser_is_built_once_and_keeps_no_state():
    from hierembed.cli import build_parser

    parser = build_parser()
    base = ["classify", "--nodes", "n", "--edges", "e", "--model", "m", "--features", "f",
            "--out", "o"]
    first = parser.parse_args([*base, "--subset", "all", "--split-seed", "5"])
    second = build_parser().parse_args(base)
    assert build_parser() is parser
    assert (first.subset, first.split_seed) == ("all", 5)
    assert (second.subset, second.split_seed) == ("test", None)


class TestGenTree:
    def test_files_and_counts(self, tmp_path):
        nodes, edges, out = tree_files(tmp_path, 4, 3)
        assert len(nodes.read_text().splitlines()) == 40
        assert len(edges.read_text().splitlines()) == 39
        assert (out / "gen-tree.config.json").exists()

    def test_chain(self, tmp_path):
        nodes, _, _ = tree_files(tmp_path, 3, 1)
        assert len(nodes.read_text().splitlines()) == 3


class TestSplit:
    def test_outputs(self, tmp_path):
        nodes, edges, _ = tree_files(tmp_path, 4, 3)
        out = tmp_path / "split"
        run(["split", "--nodes", str(nodes), "--edges", str(edges),
             "--fraction", "0.25", "--seed", "5", "--out", str(out)])
        for name in ("train_edges.tsv", "val_edges.tsv", "test_edges.tsv", "eval_negatives.tsv"):
            assert (out / name).exists()
        negs = (out / "eval_negatives.tsv").read_text().splitlines()
        assert negs[0] == "split\tparent_id\tchild_id\tpos_ref"
        n_val = len((out / "val_edges.tsv").read_text().splitlines())
        assert sum(1 for l in negs[1:] if l.startswith("val\t")) == 10 * n_val


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Small end-to-end label pipeline shared across CLI tests."""
    root = tmp_path_factory.mktemp("pipe")
    nodes, edges, _ = tree_files(root, 4, 3)
    split = root / "split"
    run(["split", "--nodes", str(nodes), "--edges", str(edges),
         "--fraction", "0.5", "--seed", "7", "--out", str(split)])
    emb = root / "emb"
    run(["train-labels", "--nodes", str(nodes), "--edges", str(edges),
         "--split-dir", str(split), "--geometry", "ec", "--dim", "2",
         "--margin", "0.3", "--epochs", "60", "--seed", "1", "--out", str(emb)])
    return root, nodes, edges, split, emb


class TestTrainLabels:
    def test_outputs(self, pipeline):
        _, _, _, _, emb = pipeline
        assert (emb / "embeddings.emb").exists()
        assert (emb / "embeddings.emb.nodes.tsv").exists()
        log = (emb / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,loss,val_f1,threshold"
        assert len(log) == 61
        assert (emb / "test_metrics.csv").exists()
        snap = json.loads((emb / "train-labels.config.json").read_text())
        assert snap["geometry"] == "ec" and snap["optimizer"] == "adam"

    def test_rerun_byte_identical(self, pipeline):
        root, nodes, edges, split, emb = pipeline
        before = dir_bytes(emb)
        run(["train-labels", "--nodes", str(nodes), "--edges", str(edges),
             "--split-dir", str(split), "--geometry", "ec", "--dim", "2",
             "--margin", "0.3", "--epochs", "60", "--seed", "1", "--out", str(emb)])
        after = dir_bytes(emb)
        assert before.keys() == after.keys()
        for name in before:
            assert before[name] == after[name], name

    def test_batch_far_above_the_positives(self, tmp_path):
        # the labels benchmark's split at seed 1: 258 train edges; a batch of
        # 10**12 once sized the per-positive buffer to the batch (7.28 TiB)
        nodes, edges, _ = tree_files(tmp_path, 5, 3)
        split = tmp_path / "split"
        run(["split", "--nodes", str(nodes), "--edges", str(edges),
             "--fraction", "0.5", "--seed", "1", "--out", str(split)])
        n_train = len((split / "train_edges.tsv").read_text().splitlines())
        assert n_train == 258
        outs = {}
        for batch in (n_train, 10**12):
            outs[batch] = tmp_path / f"emb{batch}"
            run(["train-labels", "--nodes", str(nodes), "--edges", str(edges),
                 "--split-dir", str(split), "--dim", "10", "--batch", str(batch),
                 "--epochs", "3", "--seed", "1", "--out", str(outs[batch])])
        for name in ("embeddings.emb", "train_log.csv"):
            assert (outs[10**12] / name).read_bytes() == (outs[n_train] / name).read_bytes()

    def test_names_split_labels_the_hierarchy_lacks(self, tmp_path, capsys):
        big_nodes, big_edges, _ = tree_files(tmp_path / "big", 3, 3)
        split = tmp_path / "split"
        run(["split", "--nodes", str(big_nodes), "--edges", str(big_edges),
             "--fraction", "0.5", "--seed", "7", "--out", str(split)])
        nodes, edges, _ = tree_files(tmp_path, 3, 2)
        out = tmp_path / "emb"
        code = main(["train-labels", "--nodes", str(nodes), "--edges", str(edges),
                     "--split-dir", str(split), "--epochs", "1", "--out", str(out)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (payload["error"], payload["type"]) == (
            "hierarchy lacks 6 of the 13 labels in the split: "
            "'r.0.2', 'r.1.2', 'r.2', 'r.2.0', 'r.2.1' and 1 more",
            "HierarchyError",
        )
        assert not (out / "embeddings.emb").exists()

    def test_names_a_margin_sweep_token_that_is_no_number(self, pipeline, tmp_path, capsys):
        _, nodes, edges, split, _ = pipeline
        out = tmp_path / "emb"
        code = main(["train-labels", "--nodes", str(nodes), "--edges", str(edges),
                     "--split-dir", str(split), "--epochs", "1", "--margin-sweep", "0.1,x",
                     "--out", str(out)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (payload["error"], payload["type"]) == (
            "--margin-sweep: 'x' is not a number", "CliError"
        )
        assert not (out / "embeddings.emb").exists()


class TestReconstruct:
    def test_from_label_embeddings(self, pipeline, tmp_path):
        _, nodes, edges, _, emb = pipeline
        out = tmp_path / "rec"
        run(["reconstruct", "--nodes", str(nodes), "--edges", str(edges),
             "--model", str(emb / "embeddings.emb"), "--out", str(out)])
        lines = (out / "reconstruction.csv").read_text().splitlines()
        assert lines[0] == "TPR,TNR,full-F1,threshold"
        vals = lines[1].split(",")
        assert 0.0 <= float(vals[0]) <= 1.0


class TestExport2d:
    def test_raw2d(self, pipeline, tmp_path):
        _, nodes, edges, _, emb = pipeline
        out = tmp_path / "viz"
        run(["export-2d", "--nodes", str(nodes), "--edges", str(edges),
             "--model", str(emb / "embeddings.emb"), "--method", "raw2d", "--out", str(out)])
        lines = (out / "coords.tsv").read_text().splitlines()
        assert lines[0] == "node_id\tx\ty\tlevel"
        assert len(lines) == 41  # 40 nodes + header

    def test_pca_of_planar_data_preserves_geometry(self, tmp_path):
        # embed 2-D coordinates into 5-D, export via pca, compare pair distances
        from hierembed import storage
        from hierembed.hierarchy import generate_synthetic_tree, save_hierarchy

        h = generate_synthetic_tree(2, 3)
        nodes, edges = tmp_path / "n.tsv", tmp_path / "e.tsv"
        save_hierarchy(h, nodes, edges)
        rng = np.random.default_rng(0)
        flat = rng.standard_normal((4, 2))
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0].T  # (2, 5)
        coords = flat @ basis
        ids = tuple(sorted(n.node_id for n in h.nodes))
        storage.save_embeddings(tmp_path / "m.emb", ids, coords, "oe")
        out = tmp_path / "viz"
        run(["export-2d", "--nodes", str(nodes), "--edges", str(edges),
             "--model", str(tmp_path / "m.emb"), "--method", "pca", "--out", str(out)])
        rows = [l.split("\t") for l in (out / "coords.tsv").read_text().splitlines()[1:]]
        xy = np.array([[float(r[1]), float(r[2])] for r in rows])
        d_out = np.linalg.norm(xy[:, None] - xy[None, :], axis=2)
        d_in = np.linalg.norm(flat[:, None] - flat[None, :], axis=2)
        np.testing.assert_allclose(d_out, d_in, atol=1e-9)

    def test_raw2d_requires_2d(self, tmp_path):
        from hierembed import storage
        from hierembed.hierarchy import generate_synthetic_tree, save_hierarchy

        h = generate_synthetic_tree(2, 2)
        nodes, edges = tmp_path / "n.tsv", tmp_path / "e.tsv"
        save_hierarchy(h, nodes, edges)
        ids = tuple(sorted(n.node_id for n in h.nodes))
        storage.save_embeddings(tmp_path / "m.emb", ids, np.zeros((3, 4)), "oe")
        code = main(["export-2d", "--nodes", str(nodes), "--edges", str(edges),
                     "--model", str(tmp_path / "m.emb"), "--method", "raw2d",
                     "--out", str(tmp_path / "viz")])
        assert code == 1

    def test_names_model_labels_the_hierarchy_lacks(self, tmp_path, capsys):
        from hierembed import storage
        from hierembed.hierarchy import generate_synthetic_tree

        big = generate_synthetic_tree(3, 3)
        ids = sorted(n.node_id for n in big.nodes)
        storage.save_embeddings(tmp_path / "m.emb", ids, np.full((len(ids), 2), 0.3), "ec")
        nodes, edges, _ = tree_files(tmp_path, 3, 2)
        out = tmp_path / "viz"
        code = main(["export-2d", "--nodes", str(nodes), "--edges", str(edges),
                     "--model", str(tmp_path / "m.emb"), "--method", "raw2d", "--out", str(out)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (payload["error"], payload["type"]) == (
            "hierarchy lacks 6 of the 13 model labels being exported: "
            "'r.0.2', 'r.1.2', 'r.2', 'r.2.0', 'r.2.1' and 1 more",
            "CliError",
        )
        assert not (out / "coords.tsv").exists()


@pytest.fixture(scope="module")
def joint_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("joint")
    nodes, edges, _ = tree_files(root, 3, 2)
    feats = root / "feats"
    run(["gen-features", "--nodes", str(nodes), "--edges", str(edges),
         "--per-leaf", "10", "--dim", "16", "--seed", "3", "--out", str(feats)])
    model = root / "model"
    run(["train-joint", "--nodes", str(nodes), "--edges", str(edges),
         "--features", str(feats / "features.feat"), "--geometry", "ec",
         "--dim", "4", "--epochs", "40", "--seed", "2", "--out", str(model)])
    return root, nodes, edges, feats, model


class TestJointPipeline:

    def test_gen_features_files(self, joint_run):
        _, _, _, feats, _ = joint_run
        assert (feats / "features.feat").exists()
        assert (feats / "instances.tsv").exists()
        assert len((feats / "instances.tsv").read_text().splitlines()) == 40
        assert (feats / "instances-levels.tsv").exists()

    def test_model_and_log(self, joint_run):
        _, _, _, _, model = joint_run
        assert (model / "model.bin").exists()
        log = (model / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,loss,val_f1"
        assert len(log) == 41

    def test_classify_rows_per_instance(self, joint_run):
        root, nodes, edges, feats, model = joint_run
        out = root / "cls"
        run(["classify", "--nodes", str(nodes), "--edges", str(edges),
             "--model", str(model / "model.bin"),
             "--features", str(feats / "features.feat"),
             "--subset", "test", "--out", str(out)])
        rows = (out / "predictions.tsv").read_text().splitlines()
        n_test = 4  # 10% of 40
        assert len(rows) == n_test * 3  # L rows per instance
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("m-F1,L1,L2,L3,hit3_final")

    def test_classify_deterministic(self, joint_run, tmp_path):
        root, nodes, edges, feats, model = joint_run
        out = tmp_path / "c1"
        args = ["classify", "--nodes", str(nodes), "--edges", str(edges),
                "--model", str(model / "model.bin"),
                "--features", str(feats / "features.feat"),
                "--subset", "val", "--out", str(out)]
        run(args)
        before = dir_bytes(out)
        run(args)
        assert before == dir_bytes(out)

    def test_classify_scores_each_level_once(self, joint_run, tmp_path, monkeypatch):
        from hierembed import joint

        root, nodes, edges, feats, model = joint_run
        calls = {"level_energies": 0, "embed_instances": 0}
        for name in calls:
            original = getattr(joint, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(joint, name, counted)
        run(["classify", "--nodes", str(nodes), "--edges", str(edges),
             "--model", str(model / "model.bin"),
             "--features", str(feats / "features.feat"),
             "--subset", "all", "--out", str(tmp_path / "cls")])
        assert calls == {"level_energies": 3, "embed_instances": 1}

    def test_classify_scores_each_level_once_per_block(self, joint_run, tmp_path, monkeypatch):
        from hierembed import joint

        root, nodes, edges, feats, model = joint_run
        # 40 instances against 4 leaves: blocks of 11, 11, 11 and 7 rows
        monkeypatch.setattr(joint, "PAIR_CHUNK", 44)
        calls = {"level_energies": 0, "embed_instances": 0}
        for name in calls:
            original = getattr(joint, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(joint, name, counted)
        run(["classify", "--nodes", str(nodes), "--edges", str(edges),
             "--model", str(model / "model.bin"),
             "--features", str(feats / "features.feat"),
             "--subset", "all", "--out", str(tmp_path / "cls")])
        assert calls == {"level_energies": 3 * 4, "embed_instances": 1}

    def test_reconstruct_from_joint_model(self, joint_run, tmp_path):
        root, nodes, edges, _, model = joint_run
        out = tmp_path / "rec"
        run(["reconstruct", "--nodes", str(nodes), "--edges", str(edges),
             "--model", str(model / "model.bin"), "--out", str(out)])
        assert (out / "reconstruction.csv").exists()

    def test_classify_names_labels_the_model_lacks(self, joint_run, tmp_path, capsys):
        # the model covers a 3x2 tree; level 2 of a 3x3 tree adds r.2
        _, _, _, feats, model = joint_run
        nodes, edges, _ = tree_files(tmp_path, 3, 3)
        code = main(["classify", "--nodes", str(nodes), "--edges", str(edges),
                     "--model", str(model / "model.bin"),
                     "--features", str(feats / "features.feat"), "--out", str(tmp_path / "c")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "model lacks 1 of the 3 hierarchy labels being scored: 'r.2'"

    def test_classify_names_a_feature_width_the_model_does_not_map(
        self, joint_run, tmp_path, capsys
    ):
        _, nodes, edges, _, model = joint_run
        base = ["--nodes", str(nodes), "--edges", str(edges)]
        run(["gen-features", *base, "--per-leaf", "2", "--dim", "5", "--out", str(tmp_path / "f")])
        feats = tmp_path / "f" / "features.feat"
        code = main(["classify", *base, "--model", str(model / "model.bin"),
                     "--features", str(feats), "--out", str(tmp_path / "c")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (payload["type"], payload["error"]) == ("CliError", (
            f"features in {feats} are 5 wide, "
            f"but the model in {model / 'model.bin'} maps features 16 wide"
        ))

    def test_reconstruct_names_labels_the_model_lacks(self, tmp_path, capsys):
        from hierembed import storage
        from hierembed.hierarchy import generate_synthetic_tree

        small = generate_synthetic_tree(3, 2)
        ids = [n.node_id for n in small.nodes]
        rng = np.random.default_rng(0)
        storage.save_embeddings(tmp_path / "m.emb", ids, 0.3 + 0.1 * rng.random((len(ids), 2)), "ec")
        nodes, edges, _ = tree_files(tmp_path, 3, 3)
        code = main(["reconstruct", "--nodes", str(nodes), "--edges", str(edges),
                     "--model", str(tmp_path / "m.emb"), "--out", str(tmp_path / "rec")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == (
            "model lacks 6 of the 13 hierarchy labels being scored: "
            "'r.0.2', 'r.1.2', 'r.2', 'r.2.0', 'r.2.1' and 1 more"
        )

    def test_reconstruct_of_a_single_label_names_the_missing_pair(self, tmp_path, capsys):
        from hierembed import storage

        (tmp_path / "nodes.tsv").write_text("a\t1\ta\n")
        (tmp_path / "edges.tsv").write_text("")
        storage.save_embeddings(tmp_path / "m.emb", ["a"], np.array([[0.5, 0.1]]), "ec")
        code = main(["reconstruct", "--nodes", str(tmp_path / "nodes.tsv"),
                     "--edges", str(tmp_path / "edges.tsv"), "--model", str(tmp_path / "m.emb"),
                     "--out", str(tmp_path / "rec")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["command"] == "reconstruct"
        assert payload["type"] == "ValueError"
        assert payload["error"] == (
            "reconstruction needs two labels: there is no label pair to score"
        )

    @pytest.mark.parametrize(
        "leaf, message",
        [("zz", "leaf label 'zz' not in the hierarchy"),
         ("r.1", "leaf label 'r.1' is not at the deepest level")],
    )
    @pytest.mark.parametrize("command", ["classify", "train-classifier"])
    def test_names_a_feature_leaf_off_the_deepest_level(
        self, joint_run, tmp_path, capsys, command, leaf, message
    ):
        from hierembed import storage

        _, nodes, edges, feats, model = joint_run
        ids, x, leaves = storage.load_features(feats / "features.feat")
        storage.save_features(tmp_path / "bad.feat", ids, x, (*leaves[:-1], leaf))
        args = [command, "--nodes", str(nodes), "--edges", str(edges),
                "--features", str(tmp_path / "bad.feat"), "--out", str(tmp_path / "out")]
        if command == "classify":
            args += ["--model", str(model / "model.bin"), "--subset", "all"]
        assert main(args) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (payload["error"], payload["type"]) == (message, "ValueError")

    def test_init_labels_missing_file(self, joint_run, tmp_path):
        root, nodes, edges, feats, _ = joint_run
        code = main(["train-joint", "--nodes", str(nodes), "--edges", str(edges),
                     "--features", str(feats / "features.feat"), "--geometry", "ec",
                     "--dim", "4", "--epochs", "1", "--init-labels",
                     str(tmp_path / "missing.emb"), "--out", str(tmp_path / "m")])
        assert code == 1


class TestClassifierPipeline:
    def test_train_classifier(self, tmp_path):
        nodes, edges, _ = tree_files(tmp_path, 3, 2)
        feats = tmp_path / "feats"
        run(["gen-features", "--nodes", str(nodes), "--edges", str(edges),
             "--per-leaf", "15", "--dim", "16", "--seed", "3", "--out", str(feats)])
        out = tmp_path / "clf"
        run(["train-classifier", "--nodes", str(nodes), "--edges", str(edges),
             "--features", str(feats / "features.feat"),
             "--labels", str(feats / "instances-levels.tsv"),
             "--head", "mc", "--epochs", "40", "--lr", "0.05",
             "--seed", "1", "--out", str(out)])
        assert (out / "classifier.bin").exists()
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "aggregation,m-F1,L1,L2,L3"
        m_f1 = float(metrics[1].split(",")[1])
        assert m_f1 > 0.8  # separable clusters

    def test_hab_reports_count_stats(self, tmp_path):
        nodes, edges, _ = tree_files(tmp_path, 3, 2)
        feats = tmp_path / "feats"
        run(["gen-features", "--nodes", str(nodes), "--edges", str(edges),
             "--per-leaf", "15", "--dim", "16", "--seed", "3", "--out", str(feats)])
        out = tmp_path / "clf"
        run(["train-classifier", "--nodes", str(nodes), "--edges", str(edges),
             "--features", str(feats / "features.feat"),
             "--head", "hab", "--epochs", "40", "--lr", "0.05",
             "--seed", "1", "--out", str(out)])
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].endswith("pred_min,pred_max,pred_mean,pred_std")
        assert lines[1].startswith("joint,")
        assert lines[2].startswith("per-level,")

    def test_labels_file_names_a_short_row(self, tmp_path, capsys):
        nodes, edges, _ = tree_files(tmp_path, 3, 2)
        feats = tmp_path / "feats"
        run(["gen-features", "--nodes", str(nodes), "--edges", str(edges),
             "--per-leaf", "5", "--dim", "8", "--seed", "3", "--out", str(feats)])
        rows = (feats / "instances-levels.tsv").read_text().splitlines()
        iid = rows[3].split("\t")[0]
        rows[3] = rows[3].rsplit("\t", 1)[0]  # drop the last level's label
        bad = tmp_path / "short.tsv"
        bad.write_text("\n".join(rows) + "\n")
        code = main(["train-classifier", "--nodes", str(nodes), "--edges", str(edges),
                     "--features", str(feats / "features.feat"), "--labels", str(bad),
                     "--head", "mc", "--epochs", "1", "--out", str(tmp_path / "clf")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == f"instance {iid!r} has 2 level labels in {bad}, expected 3"

    def test_labels_file_names_a_repeated_instance(self, tmp_path, capsys):
        nodes, edges, _ = tree_files(tmp_path, 3, 2)
        feats = tmp_path / "feats"
        run(["gen-features", "--nodes", str(nodes), "--edges", str(edges),
             "--per-leaf", "3", "--dim", "4", "--seed", "3", "--out", str(feats)])
        rows = (feats / "instances-levels.tsv").read_text().splitlines()
        iid = rows[0].split("\t")[0]
        bad = tmp_path / "repeated.tsv"
        bad.write_text("\n".join([*rows, f"{iid}\tr\tr.1\tr.1.0"]) + "\n")
        code = main(["train-classifier", "--nodes", str(nodes), "--edges", str(edges),
                     "--features", str(feats / "features.feat"), "--labels", str(bad),
                     "--head", "mc", "--epochs", "1", "--out", str(tmp_path / "clf")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == (
            f"{bad}, lines 1 and {len(rows) + 1}: instance {iid!r} is listed twice"
        )
        assert payload["type"] == "FormatError"


class TestConvertEthec:
    def test_convert(self, tmp_path):
        meta = {
            "img_a": {"family": "F1", "subfamily": "S1", "genus": "G1", "specific_epithet": "x"},
            "img_b": {"family": "F1", "subfamily": "S1", "genus": "G1", "specific_epithet": "y"},
        }
        src = tmp_path / "meta.json"
        src.write_text(json.dumps(meta), encoding="utf-8")
        out = tmp_path / "ethec"
        run(["convert-ethec", "--metadata", str(src), "--out", str(out)])
        assert (out / "nodes.tsv").exists()
        assert (out / "edges.tsv").exists()
        assert len((out / "instances-levels.tsv").read_text().splitlines()) == 2

    def test_tab_in_a_name_fails(self, tmp_path, capsys):
        meta = {"img": {"family": "F\t1", "subfamily": "S", "genus": "G", "specific_epithet": "x"}}
        src = tmp_path / "meta.json"
        src.write_text(json.dumps(meta), encoding="utf-8")
        out = tmp_path / "ethec"
        assert main(["convert-ethec", "--metadata", str(src), "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (payload["type"], payload["error"]) == (
            "FormatError",
            f"{out / 'nodes.tsv'}: field 'F\\t1' holds a tab, line feed or carriage return",
        )
        assert not (out / "nodes.tsv").exists()


class TestErrors:
    def test_machine_readable_error_line(self, tmp_path, capsys):
        code = main(["split", "--nodes", str(tmp_path / "missing.tsv"),
                     "--edges", str(tmp_path / "missing2.tsv"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert payload["command"] == "split"
        assert payload["type"] == "FileNotFoundError"
        assert "error" in payload

    def test_training_error_line_names_type_epoch_and_batch(self, pipeline, capsys, monkeypatch):
        from hierembed import geometry

        root, nodes, edges, split, _ = pipeline
        real = geometry.energies_and_gradients
        calls = []

        def poisoned(X, Y, params, *rest):
            e, gx, gy = real(X, Y, params, *rest)
            calls.append(1)
            return e, (np.full_like(gx, np.nan) if len(calls) == 2 else gx), gy  # batch 2

        monkeypatch.setattr(geometry, "energies_and_gradients", poisoned)
        code = main(["train-labels", "--nodes", str(nodes), "--edges", str(edges),
                     "--split-dir", str(split), "--epochs", "1", "--seed", "1",
                     "--out", str(root / "poisoned")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["type"] == "TrainingError"
        assert payload["command"] == "train-labels"
        assert payload["error"].endswith(" at epoch 1, batch 2")


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """Tree, split and features for commands that are to fail on their options."""
    root = tmp_path_factory.mktemp("bad")
    nodes, edges, _ = tree_files(root, 3, 2)
    base = ["--nodes", str(nodes), "--edges", str(edges)]
    run(["split", *base, "--fraction", "0.5", "--out", str(root / "split")])
    run(["gen-features", *base, "--per-leaf", "3", "--dim", "4", "--out", str(root / "feats")])
    feats = str(root / "feats" / "features.feat")
    inputs = {
        "train-labels": [*base, "--split-dir", str(root / "split")],
        "train-joint": [*base, "--features", feats],
        "train-classifier": [*base, "--features", feats],
        "gen-features": base,
    }
    return root, inputs


BAD_OPTIONS = [
    ("train-labels", ["--dim", "0"], "embedding dim must be at least 1, got 0"),
    ("train-joint", ["--dim", "0"], "embedding dim must be at least 1, got 0"),
    ("train-labels", ["--epochs", "-1"], "epochs must be nonnegative, got -1"),
    ("train-joint", ["--epochs", "-1"], "epochs must be nonnegative, got -1"),
    ("train-labels", ["--neg-passes", "0"], "neg_passes must be at least 1, got 0"),
    ("train-labels", ["--neg-passes", "-1"], "neg_passes must be at least 1, got -1"),
    # a 3x2 tree: its largest level holds 4 labels, and it has 7 in all
    ("train-labels", ["--neg-passes", "5"],
     "neg_passes 5 exceeds the largest candidate pool, 4 nodes: "
     "no pool holds a distinct negative for every pass"),
    ("train-labels", ["--uniform-negatives", "--neg-passes", "8"],
     "neg_passes 8 exceeds the largest candidate pool, 7 nodes: "
     "no pool holds a distinct negative for every pass"),
    ("train-classifier", ["--batch", "0"], "batch size must be positive, got 0"),
    ("train-classifier", ["--epochs", "-1"], "epochs must be nonnegative, got -1"),
    ("train-classifier", ["--lr", "-1"], "learning rate must be nonnegative, got -1.0"),
    ("gen-features", ["--per-leaf", "0"], "per_leaf must be at least 1, got 0"),
    ("gen-features", ["--dim", "0"], "feature dim must be at least 1, got 0"),
]


class TestBadOptionsFailFast:
    @pytest.mark.parametrize(
        "command, flags, message", BAD_OPTIONS, ids=[f"{c}{'='.join(f)}" for c, f, _ in BAD_OPTIONS]
    )
    def test_one_error_line(self, small_inputs, command, flags, message):
        # a subprocess with a timeout, so that a hang (as --dim 0 once was) fails the test
        root, inputs = small_inputs
        src = str(Path(hierembed.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = root / f"{command}-{'-'.join(flags)}"
        proc = subprocess.run(
            [sys.executable, "-m", "hierembed.cli", command, *inputs[command], *flags,
             "--out", str(out)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": message, "command": command, "type": "ValueError"}
        assert list(out.iterdir()) == []  # no untrained model


class TestRerun:
    def test_snapshot_round_trip(self, tmp_path):
        tree = tmp_path / "tree"
        run(["gen-tree", "--levels", "3", "--branching", "2", "--out", str(tree)])
        split = tmp_path / "split"
        run(["split", "--nodes", str(tree / "nodes.tsv"), "--edges", str(tree / "edges.tsv"),
             "--fraction", "0.5", "--seed", "3", "--out", str(split)])
        before = dir_bytes(split)
        run(["rerun", "--config", str(split / "split.config.json")])
        assert before == dir_bytes(split)

    def test_snapshot_with_threads_key_replays(self, tmp_path):
        # older snapshots carry a ``threads`` key that no option reads any more
        tree = tmp_path / "tree"
        run(["gen-tree", "--levels", "3", "--branching", "2", "--out", str(tree)])
        split = tmp_path / "split"
        run(["split", "--nodes", str(tree / "nodes.tsv"), "--edges", str(tree / "edges.tsv"),
             "--fraction", "0.5", "--seed", "3", "--out", str(split)])
        snapshot = split / "split.config.json"
        fresh = json.loads(snapshot.read_text())
        assert "threads" not in fresh
        before = dir_bytes(split)
        snapshot.write_text(json.dumps({**fresh, "threads": 4}, sort_keys=True, indent=2) + "\n")
        run(["rerun", "--config", str(snapshot)])
        assert before == dir_bytes(split)

    def test_rerun_training_snapshot(self, pipeline):
        _, _, _, _, emb = pipeline
        before = dir_bytes(emb)
        run(["rerun", "--config", str(emb / "train-labels.config.json")])
        assert before == dir_bytes(emb)


class TestLabelFileCone:
    """Label files keep the cone constant and energy they were trained with."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cone")
        nodes, edges, _ = tree_files(root, 3, 3)
        split = root / "split"
        run(["split", "--nodes", str(nodes), "--edges", str(edges),
             "--fraction", "0.5", "--seed", "7", "--out", str(split)])
        base = ["train-labels", "--nodes", str(nodes), "--edges", str(edges),
                "--split-dir", str(split), "--epochs", "30", "--seed", "1"]
        run(base + ["--geometry", "ec", "--aperture-k", "0.3", "--out", str(root / "k03")])
        run(base + ["--geometry", "oe", "--squared", "--out", str(root / "sq")])
        run(["gen-features", "--nodes", str(nodes), "--edges", str(edges), "--per-leaf", "3",
             "--dim", "8", "--seed", "3", "--out", str(root / "feats")])
        # a joint model that takes K=0.3 from its label initialisation
        run(["train-joint", "--nodes", str(nodes), "--edges", str(edges),
             "--features", str(root / "feats" / "features.feat"), "--geometry", "ec",
             "--dim", "2", "--epochs", "3", "--seed", "2",
             "--init-labels", str(root / "k03" / "embeddings.emb"), "--out", str(root / "j03")])
        return root, nodes, edges

    @staticmethod
    def reconstruct(root, nodes, edges, model, out, *extra):
        return main(["reconstruct", "--nodes", str(nodes), "--edges", str(edges),
                     "--model", str(model), "--out", str(root / out), *extra])

    @staticmethod
    def expected(model, nodes, edges, params):
        from hierembed import joint, storage
        from hierembed.geometry import ConeParams
        from hierembed.hierarchy import load_hierarchy
        from hierembed.training import EmbeddingTable

        ids, coords, kind = storage.load_model(model)[:3]
        table = EmbeddingTable(ids, coords, ConeParams(kind, *params))
        res = joint.reconstruct_labels(table, load_hierarchy(nodes, edges))
        return [res.tpr, res.tnr, res.f1, res.threshold]

    @staticmethod
    def row(path):
        return [float(x) for x in path.read_text().splitlines()[1].split(",")]

    def test_reconstruct_uses_stored_k(self, trained):
        root, nodes, edges = trained
        model = root / "k03" / "embeddings.emb"
        assert self.reconstruct(root, nodes, edges, model, "rec03") == 0
        got = self.row(root / "rec03" / "reconstruction.csv")
        assert got == self.expected(model, nodes, edges, (0.3, False))
        assert got != self.expected(model, nodes, edges, (0.1, False))
        snap = json.loads((root / "rec03" / "reconstruct.config.json").read_text())
        assert snap["aperture_k"] == 0.3 and "squared" not in snap
        # the same K given explicitly agrees with the file, and rerun replays
        before = dir_bytes(root / "rec03")
        assert self.reconstruct(root, nodes, edges, model, "rec03", "--aperture-k", "0.3") == 0
        run(["rerun", "--config", str(root / "rec03" / "reconstruct.config.json")])
        assert dir_bytes(root / "rec03") == before

    def test_reconstruct_uses_stored_squared(self, trained):
        root, nodes, edges = trained
        model = root / "sq" / "embeddings.emb"
        assert self.reconstruct(root, nodes, edges, model, "recsq") == 0
        got = self.row(root / "recsq" / "reconstruction.csv")
        assert got == self.expected(model, nodes, edges, (0.1, True))
        assert got[3] != self.expected(model, nodes, edges, (0.1, False))[3]
        snap = json.loads((root / "recsq" / "reconstruct.config.json").read_text())
        assert "squared" not in snap
        before = dir_bytes(root / "recsq")
        run(["rerun", "--config", str(root / "recsq" / "reconstruct.config.json")])
        assert dir_bytes(root / "recsq") == before

    def test_conflicting_option_rejected(self, trained, capsys):
        root, nodes, edges = trained
        path = root / "k03" / "embeddings.emb"
        assert self.reconstruct(root, nodes, edges, path, "bad", "--aperture-k", "0.1") == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == f"--aperture-k 0.1 conflicts with k=0.3 stored in {path}"
        assert payload["type"] == "CliError"

    def test_joint_run_takes_k_of_its_init_labels(self, trained, capsys):
        from hierembed import storage

        root, nodes, edges = trained
        assert storage.load_model(root / "j03" / "model.bin")[4]["k"] == 0.3
        snap = json.loads((root / "j03" / "train-joint.config.json").read_text())
        assert snap["aperture_k"] == 0.3
        init = root / "k03" / "embeddings.emb"
        code = main(["train-joint", "--nodes", str(nodes), "--edges", str(edges),
                     "--features", str(root / "feats" / "features.feat"), "--dim", "2",
                     "--epochs", "1", "--init-labels", str(init), "--aperture-k", "0.1",
                     "--out", str(root / "jbad")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == f"--aperture-k 0.1 conflicts with k=0.3 stored in {init}"

    def test_joint_run_takes_k_of_a_joint_model(self, trained, capsys):
        from hierembed import storage

        root, nodes, edges = trained
        init = root / "j03" / "model.bin"
        base = ["train-joint", "--nodes", str(nodes), "--edges", str(edges),
                "--features", str(root / "feats" / "features.feat"), "--dim", "2",
                "--epochs", "1", "--init-labels", str(init)]
        run(base + ["--out", str(root / "jj")])
        assert storage.load_model(root / "jj" / "model.bin")[4]["k"] == 0.3
        assert main(base + ["--aperture-k", "0.5", "--out", str(root / "jjbad")]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == f"--aperture-k 0.5 conflicts with k=0.3 stored in {init}"

    def test_classify_names_a_label_file(self, trained, capsys):
        root, nodes, edges = trained
        model = root / "k03" / "embeddings.emb"
        code = main(["classify", "--nodes", str(nodes), "--edges", str(edges),
                     "--model", str(model), "--features", str(root / "feats" / "features.feat"),
                     "--out", str(root / "clsbad")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (payload["type"], payload["error"]) == (
            "CliError", f"{model} is a label file, not a joint model"
        )

    def test_joint_run_names_init_labels_of_another_dim(self, trained, capsys):
        root, nodes, edges = trained
        init = root / "k03" / "embeddings.emb"  # 2-dimensional
        code = main(["train-joint", "--nodes", str(nodes), "--edges", str(edges),
                     "--features", str(root / "feats" / "features.feat"), "--dim", "4",
                     "--epochs", "1", "--init-labels", str(init), "--out", str(root / "jdim")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == f"{init} holds 2-dimensional labels, but --dim is 4"
        assert payload["type"] == "CliError"

    def test_joint_run_refuses_a_squared_init(self, trained, capsys):
        root, nodes, edges = trained
        init = root / "sq" / "embeddings.emb"
        code = main(["train-joint", "--nodes", str(nodes), "--edges", str(edges),
                     "--features", str(root / "feats" / "features.feat"), "--geometry", "oe",
                     "--dim", "2", "--epochs", "1", "--init-labels", str(init),
                     "--out", str(root / "jsq")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (payload["type"], payload["error"]) == (
            "CliError",
            f"{init} was trained with the squared oe energy, which train-joint does not support",
        )
        assert not (root / "jsq" / "model.bin").exists()

    @pytest.mark.parametrize("case, error", [
        ("narrow_map", "its linear map gives 1-wide points, but its labels are 2 wide"),
        ("dim", "its header dim 7 contradicts its arrays, which are 2 wide"),
        ("feature_dim", "its header feature_dim 9 contradicts its arrays, which are 8 wide"),
        ("no_widths", None),
    ])
    def test_classify_refuses_a_model_whose_header_contradicts_its_arrays(
        self, trained, tmp_path, capsys, case, error
    ):
        from hierembed import storage

        root, nodes, edges = trained
        ids, coords, _, w, header = storage.load_model(root / "j03" / "model.bin")
        assert (header["dim"], header["feature_dim"], w.shape) == (2, 8, (8, 2))
        if case == "narrow_map":
            w = w[:, :1]
        elif case == "no_widths":  # files written before the keys existed
            header = {k: v for k, v in header.items() if k not in ("dim", "feature_dim")}
        else:
            header = {**header, case: {"dim": 7, "feature_dim": 9}[case]}
        model = tmp_path / "model.bin"
        storage.save_joint_model(model, ids, coords, w, header)

        def classify(path, out):
            return main(["classify", "--nodes", str(nodes), "--edges", str(edges),
                         "--model", str(path), "--features", str(root / "feats" / "features.feat"),
                         "--subset", "all", "--out", str(tmp_path / out)])

        code = classify(model, "cls")
        if error is None:
            assert code == 0
            assert classify(root / "j03" / "model.bin", "ref") == 0
            assert (tmp_path / "cls" / "predictions.tsv").read_bytes() == (
                tmp_path / "ref" / "predictions.tsv").read_bytes()
            return
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (payload["type"], payload["error"]) == ("CliError", f"{model}: {error}")
        assert not (tmp_path / "cls" / "predictions.tsv").exists()

    def test_joint_model_keeps_its_k_under_older_snapshots(self, trained):
        from hierembed import joint, storage
        from hierembed.geometry import ConeParams
        from hierembed.hierarchy import load_hierarchy
        from hierembed.training import EmbeddingTable

        root, nodes, edges = trained
        model = root / "j03" / "model.bin"
        assert self.reconstruct(root, nodes, edges, model, "recj") == 0
        ids, coords, _, _, header = storage.load_model(model)
        assert header["k"] == 0.3
        rows = {}
        for k in (0.3, 0.1):
            table = EmbeddingTable(ids, coords, ConeParams("ec", k))
            res = joint.reconstruct_labels(table, load_hierarchy(nodes, edges))
            rows[k] = [res.tpr, res.tnr, res.f1, res.threshold]
        assert self.row(root / "recj" / "reconstruction.csv") == rows[0.3] != rows[0.1]
        # older snapshots carry the option's default, 0.1; the model's own K still holds
        path = root / "recj" / "reconstruct.config.json"
        snap = json.loads(path.read_text())
        assert snap["aperture_k"] == 0.3
        before = dir_bytes(root / "recj")
        path.write_text(json.dumps({**snap, "aperture_k": 0.1}, indent=2, sort_keys=True))
        run(["rerun", "--config", str(path)])
        assert dir_bytes(root / "recj") == before

    def test_file_without_trailer_takes_the_option(self, trained, tmp_path):
        from hierembed import storage

        root, nodes, edges = trained
        ids, coords, kind = storage.load_model(root / "k03" / "embeddings.emb")[:3]
        legacy = tmp_path / "legacy.emb"
        storage.save_embeddings(legacy, ids, coords, kind)
        assert self.reconstruct(tmp_path, nodes, edges, legacy, "r", "--aperture-k", "0.3") == 0
        got = self.row(tmp_path / "r" / "reconstruction.csv")
        assert got == self.expected(legacy, nodes, edges, (0.3, False))
        assert self.reconstruct(tmp_path, nodes, edges, legacy, "d") == 0
        assert self.row(tmp_path / "d" / "reconstruction.csv") == self.expected(
            legacy, nodes, edges, (0.1, False)
        )

    def test_export_reads_files_with_trailer(self, trained):
        root, nodes, edges = trained
        run(["export-2d", "--nodes", str(nodes), "--edges", str(edges),
             "--model", str(root / "k03" / "embeddings.emb"), "--out", str(root / "viz")])
        assert len((root / "viz" / "coords.tsv").read_text().splitlines()) == 14


# ---------------------------------------------------------------------------
# Instance files against the per-row writers they replaced
# ---------------------------------------------------------------------------

def loop_instances_tsv(instance_ids, leaf_labels) -> bytes:
    return "".join(
        f"{iid}\t{row}\t{leaf}\n" for row, (iid, leaf) in enumerate(zip(instance_ids, leaf_labels))
    ).encode("utf-8")


def loop_instance_levels_tsv(rows) -> bytes:
    return "".join(iid + "\t" + "\t".join(labels) + "\n" for iid, labels in rows).encode("utf-8")


def loop_predictions_tsv(instance_ids, subset, preds, energies) -> bytes:
    """One f-string per instance per level; the energy through ``cli._fmt``."""
    from hierembed.cli import _fmt

    out = []
    for row, i in enumerate(subset):
        for lvl in range(preds.shape[1]):
            out.append(
                f"{instance_ids[i]}\t{lvl + 1}\t{preds[row, lvl]}\t{_fmt(energies[row, lvl])}\n"
            )
    return "".join(out).encode("utf-8")


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    """A 3x3 tree, its gen-features output and an ``oe`` joint model written
    directly, whose label points in [-3, 0)^3 are dominated by some instance
    points, so that some winning energies are exactly 0.0."""
    from hierembed import storage

    root = tmp_path_factory.mktemp("rows")
    nodes, edges, _ = tree_files(root, 3, 3)
    base = ["--nodes", str(nodes), "--edges", str(edges)]
    run(["gen-features", *base, "--per-leaf", "5", "--dim", "6", "--seed", "4",
         "--out", str(root / "feats")])
    rng = np.random.default_rng(9)
    ids = tuple(line.split("\t")[0] for line in nodes.read_text().splitlines())
    header = {"geometry": "oe", "k": 0.1, "margin": 1.0, "dim": 3, "lr_labels": 0.01,
              "lr_instances": 0.001, "split_seed": 1, "feature_dim": 6}
    storage.save_joint_model(root / "model.bin", sorted(ids), rng.random((len(ids), 3)) * 3 - 3,
                             rng.standard_normal((6, 3)) * 0.2, header)
    return root, base


class TestInstanceFilesMatchRowLoops:
    def test_gen_features_sidecars(self, instance_files):
        from hierembed import hierarchy, joint, synth

        root, _ = instance_files
        h = hierarchy.load_hierarchy(root / "tree" / "nodes.tsv", root / "tree" / "edges.tsv")
        features = synth.gaussian_cluster_features(h, 5, 6, 4)
        paths = joint.level_truth(h, features, range(len(features.instance_ids)))
        feats = root / "feats"
        assert (feats / "instances.tsv").read_bytes() == loop_instances_tsv(
            features.instance_ids, features.leaf_labels
        )
        assert (feats / "instances-levels.tsv").read_bytes() == loop_instance_levels_tsv(
            zip(features.instance_ids, paths.tolist())
        )

    def test_instance_levels_of_ragged_rows(self, tmp_path):
        from hierembed.ethec import save_instance_levels

        rows = [("a", ["l1", "l2"]), ("b", []), ("c", ["x"]), ("dé", ["ü", "v"])]
        save_instance_levels(rows, tmp_path / "levels.tsv")
        assert (tmp_path / "levels.tsv").read_bytes() == loop_instance_levels_tsv(rows)
        save_instance_levels([], tmp_path / "empty.tsv")
        assert (tmp_path / "empty.tsv").read_bytes() == b""

    @pytest.mark.parametrize(
        "subset, block",
        [("all", 4096), ("all", 7), ("all", 45), ("test", 4096), ("val", 2), ("train", 1)],
    )
    def test_predictions(self, instance_files, tmp_path, monkeypatch, subset, block):
        from hierembed import cli, hierarchy, joint, storage

        monkeypatch.setattr(storage, "TSV_BLOCK", block)
        root, base = instance_files
        feats = root / "feats" / "features.feat"
        run(["classify", *base, "--model", str(root / "model.bin"), "--features", str(feats),
             "--subset", subset, "--out", str(tmp_path / "cls")])
        h = hierarchy.load_hierarchy(root / "tree" / "nodes.tsv", root / "tree" / "edges.tsv")
        labels, w, _ = cli._load_model(root / "model.bin", None)
        model = joint.JointModel(labels, w, labels.params)
        features = cli._load_feature_matrix(feats)
        n = len(features.instance_ids)
        idx = dict(zip(("train", "val", "test"), joint.split_instances(n, 1)), all=np.arange(n))
        preds, energies, _ = joint.classify_and_report(model, h, features, idx[subset])
        got = (tmp_path / "cls" / "predictions.tsv").read_bytes()
        assert got == loop_predictions_tsv(features.instance_ids, idx[subset], preds, energies)
        assert len(got.splitlines()) == 3 * len(idx[subset])
        if subset == "all":
            assert n == 45  # 135 rows: blocks of 7 rows end ragged, blocks of 45 exactly
            assert b"\t0.0\n" in got

    def test_predictions_of_an_empty_subset(self, tmp_path):
        # four instances: val and test get int(0.4) == 0 of them
        nodes, edges, _ = tree_files(tmp_path, 3, 2)
        base = ["--nodes", str(nodes), "--edges", str(edges)]
        run(["gen-features", *base, "--per-leaf", "1", "--dim", "3", "--out", str(tmp_path / "f")])
        run(["train-joint", *base, "--features", str(tmp_path / "f" / "features.feat"),
             "--dim", "2", "--epochs", "1", "--out", str(tmp_path / "m")])
        run(["classify", *base, "--model", str(tmp_path / "m" / "model.bin"),
             "--features", str(tmp_path / "f" / "features.feat"), "--subset", "test",
             "--out", str(tmp_path / "cls")])
        assert (tmp_path / "cls" / "predictions.tsv").read_bytes() == b""


# sha256 of the instance files of one fixed gen-tree -> gen-features -> classify
# run. A change to the feature stream or to a file format changes them: such a
# change has to say so and record the new digests here.
GOLDEN = {
    "features.feat": "c623ad4e1b36f522ac51eec4df16aded9cfd765fc62ada11633b4e851fe4213a",
    "instances.tsv": "ffa763a17d29355aa47b9f4bd8208defe2c2eb0719035c06f1ada20ddbe756ac",
    "instances-levels.tsv": "32bf00fc93e1758b8237fd01c82aba3bb07ed3d9c86a46bfc466a318a9e3a767",
    "predictions.tsv": "691ae3ec5f242ea90b620171ae5add71b72c0dc09f7c3326c7dcd350f58c9d5d",
}


def test_golden_instance_file_digests(tmp_path):
    import hashlib

    from hierembed import storage

    nodes, edges, _ = tree_files(tmp_path, 3, 3)
    base = ["--nodes", str(nodes), "--edges", str(edges)]
    feats = tmp_path / "feats"
    run(["gen-features", *base, "--per-leaf", "6", "--dim", "8", "--seed", "13",
         "--out", str(feats)])
    rng = np.random.default_rng(21)
    ids = sorted(line.split("\t")[0] for line in nodes.read_text().splitlines())
    directions = rng.standard_normal((len(ids), 4))
    coords = directions / np.linalg.norm(directions, axis=1, keepdims=True) * rng.uniform(
        0.3, 0.9, (len(ids), 1)
    )
    header = {"geometry": "ec", "k": 0.1, "margin": 1.0, "dim": 4, "lr_labels": 0.01,
              "lr_instances": 0.001, "split_seed": 2, "feature_dim": 8}
    storage.save_joint_model(tmp_path / "model.bin", ids, coords,
                             rng.standard_normal((8, 4)) * 0.1, header)
    run(["classify", *base, "--model", str(tmp_path / "model.bin"),
         "--features", str(feats / "features.feat"), "--subset", "all",
         "--out", str(tmp_path / "cls")])
    files = {name: (tmp_path / "cls" if name == "predictions.tsv" else feats) / name
             for name in GOLDEN}
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
    assert got == GOLDEN


# sha256 of one fixed hc classify --subset all run that scores its 1152
# instances in three row blocks against 144 leaves, the last block short.
GOLDEN_BLOCKS = {
    "predictions.tsv": "2f2806b54cedc41dd27fcf303bdaa0424ee53d20998866f50c89fc94cad14fcc",
    "metrics.csv": "b3497d9c62d79b07b07039d09d79b0d6a44c9f82a23fc00245a39a57b962ef99",
}


def test_golden_classify_digests_across_row_blocks(tmp_path):
    import hashlib

    from hierembed import joint, storage

    nodes, edges, _ = tree_files(tmp_path, 3, 12)
    base = ["--nodes", str(nodes), "--edges", str(edges)]
    feats = tmp_path / "feats"
    run(["gen-features", *base, "--per-leaf", "8", "--dim", "8", "--seed", "17",
         "--out", str(feats)])
    rng = np.random.default_rng(23)
    ids = sorted(line.split("\t")[0] for line in nodes.read_text().splitlines())
    directions = rng.standard_normal((len(ids), 4))
    coords = directions / np.linalg.norm(directions, axis=1, keepdims=True) * rng.uniform(
        0.2, 0.8, (len(ids), 1)
    )
    header = {"geometry": "hc", "k": 0.1, "margin": 1.0, "dim": 4, "lr_labels": 1e-4,
              "lr_instances": 0.001, "split_seed": 2, "feature_dim": 8}
    storage.save_joint_model(tmp_path / "model.bin", ids, coords,
                             rng.standard_normal((8, 4)) * 0.3, header)
    run(["classify", *base, "--model", str(tmp_path / "model.bin"),
         "--features", str(feats / "features.feat"), "--subset", "all",
         "--out", str(tmp_path / "cls")])
    step = joint.PAIR_CHUNK // 144
    assert 1152 > 2 * step and 1152 % step  # three blocks or more, the last one short
    got = {name: hashlib.sha256((tmp_path / "cls" / name).read_bytes()).hexdigest()
           for name in GOLDEN_BLOCKS}
    assert got == GOLDEN_BLOCKS


# sha256 of every other text table the CLI writes, from one fixed run of each
# writer: gen-tree, split (also at the `labels` benchmark's 5x3 tree, fraction
# 0.5, seed 1), a planted label file's sidecar, export-2d (raw2d and pca) and
# convert-ethec. A change to one of these formats has to say so and record the
# new digests here.
GOLDEN_TABLES = {
    "tree/nodes.tsv": "daabfc083157281b847f31b67f32745550af04c3e9e19a379df2bc9f6ac52730",
    "tree/edges.tsv": "1cf3c49bb000db9c4aa2689845b8415e31aba060e053934468eb1fc24ff1eaf8",
    "split/train_edges.tsv": "c674d13947d88067a9e60ff74670005ad330f6c197c383d1754648e808c7b9ac",
    "split/val_edges.tsv": "59e2973bcd0f041fa91b32bc107dc98c632808187832d76c0824890552be90d6",
    "split/test_edges.tsv": "9cd4e4888e407d6358f923b84b8f093a304eca66f3389226ca0b42ca6ab0d617",
    "split/eval_negatives.tsv": "3bfdccebfa702ed6130c19b4bcbc3495f0e3600c76a615775b07ced18297a6b7",
    "labels-split/train_edges.tsv": "3fce939711e75b3591b1ba2da0bef9183a1ef0b05efc6c236a1190226ebf5bfe",
    "labels-split/val_edges.tsv": "c862d0db40b30c3e5df673810edb1e0cb71fb41c84b75c04bd0b0136c35ff7a6",
    "labels-split/test_edges.tsv": "29b7787c8a4733f06077f23f61a62a484e652baca5c6a51a78d68230c4e0d51a",
    "labels-split/eval_negatives.tsv": "7a55ea319e85b206f2bf8832fdc4d156ccda2874878f9a3a722e221dbed63eb6",
    "flat.emb.nodes.tsv": "d1fe9f26d83ae406b56f186bf0b078608dc74ae04e55c432c547c0a0c86a998d",
    "raw2d/coords.tsv": "e45fd366ec46880408261f631ce8a3afbe4352c5f9e72666ad088558dbcb95ee",
    "pca/coords.tsv": "836bff285619912f9aa5b3281d8b310d3ff20805710165cbaf8041085c72ec59",
    "ethec/nodes.tsv": "a994d062d443e7137fc25e18f5d980c4c4abedc9663cc37b59cb77b81f747a8d",
    "ethec/edges.tsv": "678761f5a63e536057a23df4970c80e2649d38259349fc8bb6cdae784dafa483",
    "ethec/instances-levels.tsv": "ceb15ac70ee855bd95980c43884d38d8d5c60ed826fc5089057e60b0c585e29c",
}


def test_golden_text_table_digests(tmp_path):
    import hashlib

    from hierembed import storage

    nodes, edges, _ = tree_files(tmp_path, 4, 2)
    base = ["--nodes", str(nodes), "--edges", str(edges)]
    run(["split", *base, "--fraction", "0.5", "--seed", "3", "--out", str(tmp_path / "split")])
    labels = tmp_path / "labels-tree"
    run(["gen-tree", "--levels", "5", "--branching", "3", "--out", str(labels)])
    run(["split", "--nodes", str(labels / "nodes.tsv"), "--edges", str(labels / "edges.tsv"),
         "--fraction", "0.5", "--seed", "1", "--out", str(tmp_path / "labels-split")])
    ids = sorted(line.split("\t")[0] for line in nodes.read_text().splitlines())
    rng = np.random.default_rng(5)
    storage.save_embeddings(tmp_path / "flat.emb", ids, rng.uniform(-0.5, 0.5, (len(ids), 2)), "ec")
    storage.save_embeddings(tmp_path / "deep.emb", ids, rng.uniform(-0.5, 0.5, (len(ids), 4)), "ec")
    for method, model in (("raw2d", "flat.emb"), ("pca", "deep.emb")):
        run(["export-2d", *base, "--model", str(tmp_path / model), "--method", method,
             "--out", str(tmp_path / method)])
    meta = {
        "img_b": {"family": "Nymphalidae", "subfamily": "Satyrinae", "genus": "Erebia",
                  "specific_epithet": "aethiops"},
        "img_a": {"family": "Papilionidae", "subfamily": "Parnassiinae", "genus": "Parnassius",
                  "specific_epithet": "apollo"},
        "img_c": {"family": "Nymphalidae", "subfamily": "Satyrinae", "genus": "Erebia",
                  "specific_epithet": "ligea élan"},
    }
    (tmp_path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    run(["convert-ethec", "--metadata", str(tmp_path / "meta.json"), "--out", str(tmp_path / "ethec")])
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_TABLES}
    assert got == GOLDEN_TABLES


# sha256 of the trained outputs of one small run down each sampler path: the
# plain retry loop with pick-per-level (ec), the exact sampler with uniform
# negatives (oe, two passes), the retry loop's repeat check with RSGD and
# three passes (hc), and the joint trainer plain and rebalanced, and one
# reconstruct of the hc label file. A change to the training stream, the
# samplers, the optimizers or the metrics changes them: such a change has to
# say so and record the new digests here.
GOLDEN_TRAINED = {
    "labels-ec/embeddings.emb": "9d1cdf29a255ba10bcf61bd54b2d6c9dad2a0fc392e7e03868966860ce8764cc",
    "labels-ec/train_log.csv": "12155f1ea099779af568e9f2ac6ba6e59b45e3935c2616169eb2d1060f524ae5",
    "labels-ec/test_metrics.csv": "958586fc0b6ad43328f0a26706319eb8cb31fd2807c1e88e34166d6445820a25",
    "labels-oe/embeddings.emb": "5f3be6f947fb5fadf9c718733fac709a13256f2df2673ec83e47d02f79f2408c",
    "labels-oe/train_log.csv": "4222989772ffb0bc6690ee886a9ac1321331e634fb77a3bddec4b5d1783e3540",
    "labels-oe/test_metrics.csv": "c65e12f4516b4a0c7a1360f659e75529b265a2d37a53791c8604d36114923f01",
    "labels-hc/embeddings.emb": "cf61351804210643f985ffb1fb22f8d884715e7efd3784b162e48f8ece37a3e2",
    "labels-hc/train_log.csv": "16fd6ed46a4c83b43f35d925f16f5117995ba447674912076dc7c87474260193",
    "labels-hc/test_metrics.csv": "45e2529624c5403670a45d341f61dce762bf1721b4fb86223539331c0e080abb",
    "joint-hc/model.bin": "406370d7ac9301b770afaf73f81593cd90e77bfaadd9f0b5316156720214385c",
    "joint-hc/train_log.csv": "cb567867c51a476d719f472e312e82f195e09c5a6054210c6bab394a74d6780b",
    "joint-hc-rebalanced/model.bin": "fa8d611c4ea1a08dd8695f958dab92ddb20fe200c00e568ebb1e79f7822c1f4e",
    "joint-hc-rebalanced/train_log.csv": "1560cf68219951fa07386006e28892676f7760876d75209d15efd35344a98ada",
    "joint-ec/model.bin": "5931418f38b7bd7bd541e4ceb4aeea2f1e6f0a0f8b14002ca24e250b65261bc3",
    "joint-ec/train_log.csv": "f36bfeafb9ef590131250ac18ec97dbf8d2abd0342ade2646231c782a8fca17b",
    "joint-oe/model.bin": "522fad06944601f7c3e9881a2a4c26724e7d2919d5ba6c2d17b4e04cada05a07",
    "joint-oe/train_log.csv": "2463c363709dd49a548fbc47f131cb4239cea6ccd2f6b4ca22027fad0e69f8b8",
    "labels-oe-squared/embeddings.emb": "b385332202b0cb936538351ef77a266bfcee16b5631f795b3ff2478f6bdf71c3",
    "labels-oe-squared/train_log.csv": "30734ebd4c459b8ccc09384850d515ca683f3e014628b2649eae41a617e21478",
    "labels-oe-squared/test_metrics.csv": "54a59b764b5ef85fbd2cdbae5c52a41bce3b4940e1db3fd727949ef92d805730",
    "labels-hc-adam/embeddings.emb": "3b2184cbd80bd7d83280ce3f724a206db46149d0596143df10c9d1b097d4b835",
    "labels-hc-adam/train_log.csv": "48bef911105ca5faec86e744333329cd1c8120f18f6ba2780ac12d3313fe7066",
    "labels-hc-adam/test_metrics.csv": "adc20330d4777d20c23b0cebcd82b06d380a4686c0d408109a866fca68fe48a0",
    "reconstruct-hc/reconstruction.csv": "349d22ebaf1af4d7ede49d4e390ad409ff0a75ba0c9c808d3a3a619ac153326f",
}

TRAINED_RUNS = {
    "labels-ec": ["train-labels", "--geometry", "ec"],
    "labels-oe": ["train-labels", "--geometry", "oe", "--uniform-negatives", "--neg-passes", "2"],
    "labels-hc": ["train-labels", "--geometry", "hc", "--neg-passes", "3"],
    "joint-hc": ["train-joint", "--geometry", "hc"],
    "joint-hc-rebalanced": ["train-joint", "--geometry", "hc", "--rebalance-images"],
    "joint-ec": ["train-joint", "--geometry", "ec"],
    "joint-oe": ["train-joint", "--geometry", "oe"],
    "labels-oe-squared": ["train-labels", "--geometry", "oe", "--squared"],
    "labels-hc-adam": ["train-labels", "--geometry", "hc", "--optimizer", "adam"],
}


def test_golden_trained_output_digests(tmp_path):
    import hashlib

    nodes, edges, _ = tree_files(tmp_path, 4, 3)
    base = ["--nodes", str(nodes), "--edges", str(edges)]
    run(["split", *base, "--fraction", "0.5", "--seed", "3", "--out", str(tmp_path / "split")])
    run(["gen-features", *base, "--per-leaf", "3", "--dim", "4", "--seed", "5",
         "--out", str(tmp_path / "feats")])
    inputs = {
        "train-labels": ["--split-dir", str(tmp_path / "split"), "--epochs", "8"],
        "train-joint": ["--features", str(tmp_path / "feats" / "features.feat"),
                        "--epochs", "8", "--batch", "10"],
    }
    got = {}
    for name, (command, *flags) in TRAINED_RUNS.items():
        out = tmp_path / name
        run([command, *base, *inputs[command], *flags, "--dim", "3", "--seed", "4",
             "--out", str(out)])
        files = ["embeddings.emb", "train_log.csv", "test_metrics.csv"]
        if command == "train-joint":
            files = ["model.bin", "train_log.csv"]
        for file in files:
            got[f"{name}/{file}"] = hashlib.sha256((out / file).read_bytes()).hexdigest()
    out = tmp_path / "reconstruct-hc"
    run(["reconstruct", *base, "--model", str(tmp_path / "labels-hc" / "embeddings.emb"),
         "--out", str(out)])
    got["reconstruct-hc/reconstruction.csv"] = hashlib.sha256(
        (out / "reconstruction.csv").read_bytes()
    ).hexdigest()
    assert got == GOLDEN_TRAINED


# sha256 of the outputs of small train-classifier runs: all five heads
# unweighted and class-weighted, hab with per-class thresholds, one resampled
# run, and all five heads on a tree whose sibling groups have sizes 1 to 10.
# A change to the heads' losses, the hab decision thresholds, the classifier
# trainer or Adam changes them: such a change has to say so and record the new
# digests here.
GOLDEN_CLASSIFIER = {
    "hab-none/classifier.bin": "7e0358d5f697c4e5ba23fdcfa8b97139ea0e51657c747ac964d479c7dac81a29",
    "hab-none/train_log.csv": "1811697d37efa8c79079bf6aa14316bcfeed99ea85b59362b7f8c6b5aa579766",
    "hab-none/metrics.csv": "781ae30eae15ee2895ac3a580b279840cddb5395aae5419c4074f313eccd297b",
    "hab-class-weights/classifier.bin": "23a55e0c9c8b4528567a9607cc6b7291da21f37ca51e3aef3d1aaf1e3147373a",
    "hab-class-weights/train_log.csv": "f5c675ad2087ae5a1850e0733ebcedf011e2c7888af519aa11deac20abe8108d",
    "hab-class-weights/metrics.csv": "b207b0512d41516c5a3cce62483139ec8bd36100f21488e360a72b07e459995b",
    "plc-none/classifier.bin": "663a1db6764462a595cf359267ed004f0707d83c8d5853472a9c4a83cdeb592c",
    "plc-none/train_log.csv": "d5fc0a95452e3d04e496c1fa41d40ab8733fdd088068271bc9227d28543d3651",
    "plc-none/metrics.csv": "f83ea6a3279c437197d341d9903efb3a968306a037f7dcb4a386ceffddbf9ec4",
    "plc-class-weights/classifier.bin": "48e0fab9fa30654482f6cac8ea4b4a2e9dd32096ed45feb691e8da6c3d2f2bcd",
    "plc-class-weights/train_log.csv": "6a1d904243c0045660849f3506ade854ddadba827a3933208a51d98ecc83dbe5",
    "plc-class-weights/metrics.csv": "d133241ea7b5dc542056434fcf4a5928a687e6e04bc0cd1bc6d756746ecfa5e2",
    "mc-none/classifier.bin": "fa3de01b15402d9ec4726c1b00c3f9d58767ef8cade85224db31af0d027d20ef",
    "mc-none/train_log.csv": "1718fb61d8aa876000acb2fc14c3d23e3991029c197590515097c0bec65f064c",
    "mc-none/metrics.csv": "2bf10b74ab270feb7dd667733f4f6091ce4c7a375458d1f1560de5f663bca328",
    "mc-class-weights/classifier.bin": "71558a6284703c67106b2e137c68c173fe2e3dd6c03124e4355be349515d44d0",
    "mc-class-weights/train_log.csv": "cda8d37fe30abf184b968095a6f7d6947ec37adfdd97415b31e776ceb7a026db",
    "mc-class-weights/metrics.csv": "8e1381eceb387186b396862612613e64ca2f9f46d9b26e3f557f8c00604e4ba7",
    "mplc-none/classifier.bin": "f6d6e79ae950af0dc157fe839034855cb060f679eb7550dcba762695c4d417d2",
    "mplc-none/train_log.csv": "b46b4fb443cb94182fae3a174e956e082295ed7a422a0109a274e298ac7f56f7",
    "mplc-none/metrics.csv": "d133241ea7b5dc542056434fcf4a5928a687e6e04bc0cd1bc6d756746ecfa5e2",
    "mplc-class-weights/classifier.bin": "074151f391f4e40f5862d879dd2d4d165ca4c87970fba46bdd0a9d8224547801",
    "mplc-class-weights/train_log.csv": "9c7aa46c2a26061b076a9032efcfdcc72c509ecfe2b7ea0bba2d2e335eff7a0d",
    "mplc-class-weights/metrics.csv": "d133241ea7b5dc542056434fcf4a5928a687e6e04bc0cd1bc6d756746ecfa5e2",
    "hs-none/classifier.bin": "12c1a0d7e7473f4c355ca28685e07e0dfb010d09475e3a317819cdd579422d25",
    "hs-none/train_log.csv": "b46b4fb443cb94182fae3a174e956e082295ed7a422a0109a274e298ac7f56f7",
    "hs-none/metrics.csv": "d133241ea7b5dc542056434fcf4a5928a687e6e04bc0cd1bc6d756746ecfa5e2",
    "hs-class-weights/classifier.bin": "7e817a928ef348f89a17604fbddd11a5b94ab291e97f2c2a2275b206e065ad00",
    "hs-class-weights/train_log.csv": "9c7aa46c2a26061b076a9032efcfdcc72c509ecfe2b7ea0bba2d2e335eff7a0d",
    "hs-class-weights/metrics.csv": "d133241ea7b5dc542056434fcf4a5928a687e6e04bc0cd1bc6d756746ecfa5e2",
    "hab-pcdb/classifier.bin": "19c924fce5f3a90a5834f38c28c21355683947b98570bf133cb6eb191ca87144",
    "hab-pcdb/train_log.csv": "ad3db6e9dd6b4ff1adaa8081190203381a46ce9e0a874c3645247278d9dc4be8",
    "hab-pcdb/metrics.csv": "2df6ab27a9fc849c336f25a18408531d92b15644c0305ad89cc668f2532ef4b9",
    "hs-resample/classifier.bin": "17b4a7edf606fe5204464a84840e65a3800b11c73c2a6439fcff01047b0641a3",
    "hs-resample/train_log.csv": "3cfae3fcf3bc54346f41faa73384ee3cd058799fca55f4c0e1547229170e2ed2",
    "hs-resample/metrics.csv": "2bf10b74ab270feb7dd667733f4f6091ce4c7a375458d1f1560de5f663bca328",
    "uneven-hab/classifier.bin": "4198067fdfcb6216a2439746f4e5d352b22613965aecb1ee8766ca23acc75d07",
    "uneven-hab/train_log.csv": "5a9f5a79d3bacddf7707c29217cb23f16097bb8acabcf13894b97f636b71bc69",
    "uneven-hab/metrics.csv": "180e767bf20f1207023c4db981f325515ee3ed8b0a3f236aca537e8a94fb6552",
    "uneven-plc/classifier.bin": "8d193a129f116f58410b7d77d27ad9361cbb0750427f693d8105ba5c306414b2",
    "uneven-plc/train_log.csv": "e6a81879a1c7f33ed8be165d7a1540a8d8f1c18f3f2aa36b82f68a4dd8982355",
    "uneven-plc/metrics.csv": "8249c9144fce1bb82fd52cf28c160596cb3f169123469d3d35ddc8826261477c",
    "uneven-mc/classifier.bin": "7aace5a1131924b12c8efa75543383f70301dd9eb1b8a2b64a68f5ce3e1763c8",
    "uneven-mc/train_log.csv": "6646c5d2fb86f2e19b6ecf41a5349946f1aab1389a985c524ca861d4d6d85bf0",
    "uneven-mc/metrics.csv": "a8ff1c88ca46cc80f80cccb6960efca05ffbf029e9c5ce23d5a65e2876132d05",
    "uneven-mplc/classifier.bin": "99d3f21428b76fd53e561ff5e0068eba622d8029bec4f3190904a7a377609471",
    "uneven-mplc/train_log.csv": "3e2e46480dce6fc9af3fbf9d58b171a4cb28413285fa78090f236b29c2e598df",
    "uneven-mplc/metrics.csv": "0ce408935b70aca89f1800a16ae0f5cae9a4e4abe72656da9a234f4cf0906cc1",
    "uneven-hs/classifier.bin": "5840a909d1cbce867f5db137336eaf978ec74a10eb3a6f552a7e7cd08a628203",
    "uneven-hs/train_log.csv": "ad6f6fdc66f2626c7143027f921f4e49e2a4b21f7a4606c2f9ab5ddb0f637bd6",
    "uneven-hs/metrics.csv": "0ce408935b70aca89f1800a16ae0f5cae9a4e4abe72656da9a234f4cf0906cc1",
}

CLASSIFIER_RUNS = {
    **{f"{head}-{imbalance}": ("regular", ["--head", head, "--imbalance", imbalance])
       for head in ("hab", "plc", "mc", "mplc", "hs")
       for imbalance in ("none", "class-weights")},
    "hab-pcdb": ("regular", ["--head", "hab", "--threshold-mode", "pcdb"]),
    "hs-resample": ("regular", ["--head", "hs", "--imbalance", "resample"]),
    **{f"uneven-{head}": ("uneven", ["--head", head])
       for head in ("hab", "plc", "mc", "mplc", "hs")},
}

# children per node of the uneven tree's first two levels, in id order
UNEVEN_BRANCHING = {"a": 9, "b": 2, "a.0": 10, "a.1": 1, "a.2": 2, "a.3": 3, "a.4": 1,
                    "a.5": 2, "a.6": 1, "a.7": 1, "a.8": 2, "b.0": 4, "b.1": 1}


def uneven_tree_files(root: Path):
    """A two-root, three-level tree whose sibling groups have sizes 1 to 10."""
    nodes, edges = ["a\t1\ta", "b\t1\tb"], []
    for parent, k in UNEVEN_BRANCHING.items():
        level = parent.count(".") + 2
        for j in range(k):
            child = f"{parent}.{j}"
            nodes.append(f"{child}\t{level}\t{child}")
            edges.append(f"{parent}\t{child}")
    root.mkdir(parents=True)
    (root / "nodes.tsv").write_text("\n".join(nodes) + "\n", encoding="utf-8")
    (root / "edges.tsv").write_text("\n".join(edges) + "\n", encoding="utf-8")
    return root / "nodes.tsv", root / "edges.tsv"


def test_golden_classifier_output_digests(tmp_path):
    import hashlib

    trees = {"regular": tree_files(tmp_path, 3, 3)[:2],
             "uneven": uneven_tree_files(tmp_path / "uneven")}
    base = {}
    for name, (nodes, edges) in trees.items():
        tree = ["--nodes", str(nodes), "--edges", str(edges)]
        feats = tmp_path / f"feats-{name}"
        run(["gen-features", *tree, "--per-leaf", "6" if name == "regular" else "4",
             "--dim", "8", "--seed", "9", "--out", str(feats)])
        base[name] = [*tree, "--features", str(feats / "features.feat")]
    got = {}
    for name, (tree, flags) in CLASSIFIER_RUNS.items():
        out = tmp_path / name
        run(["train-classifier", *base[tree], *flags, "--epochs", "3", "--batch", "16",
             "--lr", "0.05", "--seed", "2", "--out", str(out)])
        for file in ("classifier.bin", "train_log.csv", "metrics.csv"):
            got[f"{name}/{file}"] = hashlib.sha256((out / file).read_bytes()).hexdigest()
    assert got == GOLDEN_CLASSIFIER
