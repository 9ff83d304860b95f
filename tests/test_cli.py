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
            "CliError",
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

        def poisoned(X, Y, params):
            e, gx, gy = real(X, Y, params)
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

        ids, coords, kind = storage.load_embeddings(model)
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
        assert storage.load_joint_model(root / "j03" / "model.bin")[3]["k"] == 0.3
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

    def test_joint_model_keeps_its_k_under_older_snapshots(self, trained):
        from hierembed import joint, storage
        from hierembed.geometry import ConeParams
        from hierembed.hierarchy import load_hierarchy
        from hierembed.training import EmbeddingTable

        root, nodes, edges = trained
        model = root / "j03" / "model.bin"
        assert self.reconstruct(root, nodes, edges, model, "recj") == 0
        ids, coords, _, header = storage.load_joint_model(model)
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
        ids, coords, kind = storage.load_embeddings(root / "k03" / "embeddings.emb")
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
        from hierembed import cli, hierarchy, joint

        monkeypatch.setattr(cli, "PREDICTION_BLOCK", block)
        root, base = instance_files
        feats = root / "feats" / "features.feat"
        run(["classify", *base, "--model", str(root / "model.bin"), "--features", str(feats),
             "--subset", subset, "--out", str(tmp_path / "cls")])
        h = hierarchy.load_hierarchy(root / "tree" / "nodes.tsv", root / "tree" / "edges.tsv")
        model, _ = cli._load_joint(root / "model.bin")
        features = cli._load_feature_matrix(feats)
        n = len(features.instance_ids)
        idx = dict(zip(("train", "val", "test"), joint.split_instances(n, 1)), all=np.arange(n))
        preds, energies, _ = joint.classify_and_report(model, h, features, idx[subset])
        got = (tmp_path / "cls" / "predictions.tsv").read_bytes()
        assert got == loop_predictions_tsv(features.instance_ids, idx[subset], preds, energies)
        assert len(got.splitlines()) == 3 * len(idx[subset])
        if subset == "all":
            assert n == 45  # so blocks of 7 end ragged and a block of 45 ends exactly
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
