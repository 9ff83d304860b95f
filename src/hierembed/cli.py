"""Command-line pipeline: synthetic trees, splits, training, evaluation.

Every subcommand writes its outputs plus a resolved-config snapshot
(``<command>.config.json``) into the output directory, contains no
timestamps, and is byte-reproducible given the same inputs and seed.
Errors exit nonzero with one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import ethec, geometry, heads, hierarchy, joint, storage, synth, training
from .metrics import level_accuracy, micro_f1

DEFAULT_JOINT = {
    "ec": {"epochs": 200, "lr_labels": 1e-2},
    "hc": {"epochs": 100, "lr_labels": 1e-4},
    "oe": {"epochs": 200, "lr_labels": 1e-2},
}


class CliError(RuntimeError):
    pass


def _write_snapshot(out_dir: Path, command: str, args: dict) -> None:
    payload = {k: v for k, v in sorted(args.items()) if k not in ("func",)}
    payload["command"] = command
    path = out_dir / f"{command}.config.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(fieldnames) + "\n")
        for row in rows:
            f.write(",".join(_fmt(row.get(k, "")) for k in fieldnames) + "\n")


def _load_hierarchy(args) -> hierarchy.Hierarchy:
    return hierarchy.load_hierarchy(args.nodes, args.edges)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_tree(args) -> None:
    out = _out_dir(args.out)
    h = hierarchy.generate_synthetic_tree(args.levels, args.branching)
    hierarchy.save_hierarchy(h, out / "nodes.tsv", out / "edges.tsv")
    _write_snapshot(out, "gen-tree", vars(args))


def cmd_split(args) -> None:
    out = _out_dir(args.out)
    h = _load_hierarchy(args)
    split = hierarchy.split_edges(h, args.fraction, args.seed)
    split = hierarchy.augment_eval_negatives(split, h.closure(), args.seed)
    hierarchy.save_split(split, out)
    _write_snapshot(out, "split", vars(args))


def _train_config(args, **fields) -> training.TrainConfig:
    """The ``TrainConfig`` of a training command: its shared options plus ``fields``."""
    return training.TrainConfig(
        kind=args.geometry, dim=args.dim, batch_size=args.batch, seed=args.seed, **fields
    )


def cmd_train_labels(args) -> None:
    out = _out_dir(args.out)
    h = _load_hierarchy(args)
    split = hierarchy.load_split(args.split_dir, h)
    optimizer = args.optimizer
    if optimizer is None:
        optimizer = "rsgd" if args.geometry == "hc" else "adam"
    margins = [args.margin]
    if args.margin_sweep:
        margins = []
        for tok in args.margin_sweep.split(","):
            try:
                margins.append(float(tok))
            except ValueError:
                raise CliError(f"--margin-sweep: {tok!r} is not a number") from None

    best = None
    for margin in margins:
        config = _train_config(
            args,
            margin=margin,
            lr=args.lr,
            epochs=args.epochs,
            aperture_k=args.aperture_k,
            optimizer=optimizer,
            oe_squared=args.squared,
            pick_per_level=not args.uniform_negatives,
            neg_passes=args.neg_passes,
            init_norm_hi=args.init_norm_hi,
        )
        table, history = training.train_label_embeddings(h, split, config)
        final_f1 = history[-1].get("val_f1", 0.0) if history else 0.0
        final_f1 = final_f1 if isinstance(final_f1, float) else 0.0
        if best is None or final_f1 > best[0]:
            best = (final_f1, margin, table, history)
    _, chosen_margin, table, history = best

    storage.save_embeddings(
        out / "embeddings.emb",
        table.node_ids,
        table.coords,
        table.params.kind,
        k=args.aperture_k,
        squared=args.squared,
    )
    _write_csv(out / "train_log.csv", ["epoch", "loss", "val_f1", "threshold"], history)
    if len(split.val) and len(split.test):
        val_res = training.evaluate_edge_prediction(table, split.val, split.val_negatives)
        test_res = training.edge_prediction_at_threshold(
            table, split.test, split.test_negatives, val_res.threshold
        )
        _write_csv(
            out / "test_metrics.csv",
            ["threshold", "precision", "recall", "f1", "accuracy"],
            [
                {
                    "threshold": test_res.threshold,
                    "precision": test_res.precision,
                    "recall": test_res.recall,
                    "f1": test_res.f1,
                    "accuracy": test_res.accuracy,
                }
            ],
        )
    snapshot = dict(vars(args))
    snapshot["chosen_margin"] = chosen_margin
    snapshot["optimizer"] = optimizer
    _write_snapshot(out, "train-labels", snapshot)


def _load_feature_matrix(path) -> joint.FeatureMatrix:
    ids, feats, leaves = storage.load_features(path)
    return joint.FeatureMatrix(ids, feats, leaves)


def _stored_k(header: dict, given: float | None, path) -> float:
    """The cone constant stored in ``path``, else ``--aperture-k`` or 0.1.

    An ``--aperture-k`` that disagrees with a stored one is an error.
    """
    stored = header.get("k")
    if stored is None:
        return 0.1 if given is None else given
    if given is not None and given != stored:
        raise CliError(f"--aperture-k {given!r} conflicts with k={stored!r} stored in {path}")
    return stored


def cmd_train_joint(args) -> None:
    out = _out_dir(args.out)
    h = _load_hierarchy(args)
    features = _load_feature_matrix(args.features)
    defaults = DEFAULT_JOINT[args.geometry]
    init, stored = None, {}
    if args.init_labels:
        if not Path(args.init_labels).exists():
            raise CliError(f"label initialization file not found: {args.init_labels}")
        init, _, stored = _load_model(args.init_labels, None)
        if init.params.kind != args.geometry:
            raise CliError(f"initialization geometry {init.params.kind!r} "
                           f"does not match --geometry {args.geometry!r}")
        if init.coords.shape[1] != args.dim:
            raise CliError(
                f"{args.init_labels} holds {init.coords.shape[1]}-dimensional labels, "
                f"but --dim is {args.dim}"
            )
        if init.params.oe_squared:
            raise CliError(f"{args.init_labels} was trained with the squared oe energy, "
                           "which train-joint does not support")
    k = _stored_k(stored, args.aperture_k, args.init_labels)
    epochs = args.epochs if args.epochs is not None else defaults["epochs"]
    lr_labels = args.lr_labels if args.lr_labels is not None else defaults["lr_labels"]
    config = _train_config(
        args,
        margin=args.margin,
        lr=lr_labels,
        lr_instances=args.lr_im,
        epochs=epochs,
        aperture_k=k,
        rebalance_images=args.rebalance_images,
    )
    if init is not None:
        init = training.EmbeddingTable(init.node_ids, init.coords, config.cone_params())
    split_seed = args.split_seed if args.split_seed is not None else args.seed
    train_idx, val_idx, _ = joint.split_instances(len(features.instance_ids), split_seed)
    model, history = joint.train_joint(
        h,
        features,
        config,
        init_labels=init,
        train_idx=train_idx,
        val_idx=val_idx,
    )
    header = {
        "geometry": args.geometry,
        "k": k,
        "margin": args.margin,
        "dim": args.dim,
        "lr_labels": lr_labels,
        "lr_instances": args.lr_im,
        "split_seed": split_seed,
        "feature_dim": int(features.features.shape[1]),
    }
    storage.save_joint_model(
        out / "model.bin", model.labels.node_ids, model.labels.coords, model.w, header
    )
    _write_csv(out / "train_log.csv", ["epoch", "loss", "val_f1"], history)
    snapshot = dict(vars(args))
    snapshot.update(
        {"epochs": epochs, "lr_labels": lr_labels, "split_seed": split_seed, "aperture_k": k}
    )
    _write_snapshot(out, "train-joint", snapshot)


def _load_model(path, aperture_k: float | None):
    """The label table of the joint model or label file at ``path`` with the cone it
    was trained with, the model's linear map (None for a label file) and its header.

    A joint model's stored ``k`` is used and ``aperture_k`` is ignored, as older
    snapshots carry the option's default. Label files written by ``train-labels``
    store ``k`` and ``squared``; older ones take ``aperture_k`` (default 0.1) and
    the unsquared energy.

    A joint model whose linear map does not give points as wide as its labels,
    or whose header ``dim``/``feature_dim`` contradicts its arrays, is refused;
    a header without those keys is taken as it is.
    """
    node_ids, coords, kind, w, header = storage.load_model(path)
    widths = {"dim": coords.shape[1]}
    if w is not None:
        if w.shape[1] != coords.shape[1]:
            raise CliError(f"{path}: its linear map gives {w.shape[1]}-wide points, "
                           f"but its labels are {coords.shape[1]} wide")
        widths["feature_dim"] = w.shape[0]
    for key, width in widths.items():
        if key in header and header[key] != width:
            raise CliError(f"{path}: its header {key} {header[key]!r} contradicts "
                           f"its arrays, which are {width} wide")
    k = _stored_k(header, aperture_k if w is None else None, path)
    params = geometry.ConeParams(kind=kind, k=k, oe_squared=header.get("squared", False))
    return training.EmbeddingTable(node_ids, coords, params), w, header


def cmd_classify(args) -> None:
    out = _out_dir(args.out)
    labels, w, header = _load_model(args.model, None)
    if w is None:
        raise CliError(f"{args.model} is a label file, not a joint model")
    model = joint.JointModel(labels, w, labels.params)
    h = _load_hierarchy(args)
    features = _load_feature_matrix(args.features)
    if features.features.shape[1] != model.w.shape[0]:
        raise CliError(f"features in {args.features} are {features.features.shape[1]} wide, "
                       f"but the model in {args.model} maps features {model.w.shape[0]} wide")
    n = len(features.instance_ids)
    split_seed = args.split_seed if args.split_seed is not None else header.get("split_seed", 0)
    train_idx, val_idx, test_idx = joint.split_instances(n, split_seed)
    subset = {
        "train": train_idx,
        "val": val_idx,
        "test": test_idx,
        "all": np.arange(n),
    }[args.subset]

    preds, energies, report = joint.classify_and_report(model, h, features, subset)
    # One row per instance per level: id, level, predicted label and the energy's repr.
    ids = np.repeat(np.asarray(features.instance_ids, dtype=object)[subset], h.level_count)
    levels = [str(lvl) for lvl in range(1, h.level_count + 1)] * len(subset)
    rows = zip(ids.tolist(), levels, preds.ravel().tolist(), map(repr, energies.ravel().tolist()))
    storage.write_tsv(out / "predictions.tsv", rows)
    fields = (
        ["m-F1"]
        + [f"L{i + 1}" for i in range(h.level_count)]
        + ["hit3_final", "hit5_final", "hit3_level_avg", "hit5_level_avg"]
    )
    row = {"m-F1": report.overall_f1}
    for i, f1 in enumerate(report.level_f1):
        row[f"L{i + 1}"] = f1
    row.update(
        {
            "hit3_final": report.hit3_final,
            "hit5_final": report.hit5_final,
            "hit3_level_avg": report.hit3_level_avg,
            "hit5_level_avg": report.hit5_level_avg,
        }
    )
    _write_csv(out / "metrics.csv", fields, [row])
    snapshot = dict(vars(args))
    snapshot["split_seed"] = split_seed
    _write_snapshot(out, "classify", snapshot)


def cmd_reconstruct(args) -> None:
    out = _out_dir(args.out)
    h = _load_hierarchy(args)
    table = _load_model(args.model, args.aperture_k)[0]
    res = joint.reconstruct_labels(table, h)
    _write_csv(
        out / "reconstruction.csv",
        ["TPR", "TNR", "full-F1", "threshold"],
        [{"TPR": res.tpr, "TNR": res.tnr, "full-F1": res.f1, "threshold": res.threshold}],
    )
    # the resolved cone, so that ``rerun`` scores the same way
    snapshot = dict(vars(args))
    snapshot["aperture_k"] = table.params.k
    _write_snapshot(out, "reconstruct", snapshot)


def _instance_level_labels(
    h: hierarchy.Hierarchy, features: joint.FeatureMatrix, labels_path
) -> np.ndarray:
    if labels_path:
        listed = ethec.load_instance_levels(labels_path)
        by_id = dict(listed)
        if len(by_id) < len(listed):
            first: dict[str, int] = {}
            for i, (iid, _) in enumerate(listed):
                if iid in first:
                    raise storage.row_error(
                        labels_path, i, f"instance {iid!r} is listed twice", earlier=first[iid]
                    )
                first[iid] = i
        rows = []
        for iid in features.instance_ids:
            if iid not in by_id:
                raise CliError(f"instance {iid!r} missing from {labels_path}")
            if len(by_id[iid]) != h.level_count:
                raise CliError(
                    f"instance {iid!r} has {len(by_id[iid])} level labels in {labels_path}, "
                    f"expected {h.level_count}"
                )
            rows.append(by_id[iid])
        return np.array(rows, dtype=object).reshape(len(rows), h.level_count)
    return joint.level_truth(h, features, range(len(features.instance_ids)))


def cmd_train_classifier(args) -> None:
    out = _out_dir(args.out)
    h = _load_hierarchy(args)
    features = _load_feature_matrix(args.features)
    labels = _instance_level_labels(h, features, args.labels)
    n = len(features.instance_ids)
    split_seed = args.split_seed if args.split_seed is not None else args.seed
    train_idx, val_idx, test_idx = joint.split_instances(n, split_seed)
    policy = heads.ImbalancePolicy.from_labels(args.imbalance, labels[train_idx, -1])
    config = heads.ClassifierConfig(
        head=args.head,
        lr=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        seed=args.seed,
        threshold_mode=args.threshold_mode,
    )
    clf, history = heads.train_linear_classifier(
        features.features[train_idx],
        labels[train_idx],
        features.features[val_idx],
        labels[val_idx],
        h,
        policy,
        config,
    )
    header = {
        "head": args.head,
        "threshold_mode": args.threshold_mode,
        "thresholds": None if clf.thresholds is None else [float(t) for t in clf.thresholds],
        "level_sizes": list(clf.index.level_sizes),
    }
    storage.save_linear_classifier(
        out / "classifier.bin",
        clf.w,
        clf.b,
        header,
    )
    log_fields = ["epoch", "loss"] + [f"val_f1_L{i + 1}" for i in range(h.level_count)]
    _write_csv(out / "train_log.csv", log_fields, history)
    metrics_rows = classifier_metrics(clf, features.features[test_idx], labels[test_idx])
    fields = ["aggregation", "m-F1"] + [f"L{i + 1}" for i in range(h.level_count)]
    if args.head == "hab":
        fields += ["pred_min", "pred_max", "pred_mean", "pred_std"]
    _write_csv(out / "metrics.csv", fields, metrics_rows)
    snapshot = dict(vars(args))
    snapshot["split_seed"] = split_seed
    _write_snapshot(out, "train-classifier", snapshot)


def classifier_metrics(
    clf: heads.LinearClassifier, X: np.ndarray, labels: np.ndarray
) -> list[dict]:
    """Table-style rows: overall m-F1 plus per-level scores.

    Single-label heads produce one row. The one-vs-rest head reports both
    the joint aggregation over all labels and the per-level aggregation,
    plus predicted-label count statistics.
    """
    index = clf.index
    if clf.head == "hab":
        truth = index.multi_hot(labels)
        pred = heads.predict_sets(clf, X)
        level_f1s = heads.level_micro_f1(index, pred, truth)
        per_level = {f"L{i + 1}": f1 for i, f1 in enumerate(level_f1s)}
        counts = pred.sum(axis=1)
        stats = {
            "pred_min": int(counts.min()) if len(counts) else 0,
            "pred_max": int(counts.max()) if len(counts) else 0,
            "pred_mean": float(counts.mean()) if len(counts) else 0.0,
            "pred_std": float(counts.std()) if len(counts) else 0.0,
        }
        return [
            {"aggregation": "joint", "m-F1": micro_f1(pred, truth), **per_level, **stats},
            {"aggregation": "per-level", "m-F1": float(np.mean(level_f1s)), **per_level, **stats},
        ]
    per_level, overall = level_accuracy(heads.predict_levels(clf, X), labels)
    row = {"aggregation": "per-level", "m-F1": overall}
    row.update({f"L{i + 1}": acc for i, acc in enumerate(per_level)})
    return [row]


def cmd_export_2d(args) -> None:
    out_path = Path(args.out)
    out_dir = out_path if out_path.suffix == "" else out_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_path / "coords.tsv" if out_path.suffix == "" else out_path
    h = _load_hierarchy(args)
    table = _load_model(args.model, None)[0]
    node_ids, coords = table.node_ids, table.coords
    if not len(node_ids):
        raise CliError("model has no embedded nodes")
    unknown = sorted(set(node_ids) - h.row_of.keys())
    if unknown:
        raise CliError(
            f"hierarchy lacks {len(unknown)} of the {len(node_ids)} model labels "
            f"being exported: {hierarchy.name_some(unknown)}"
        )
    if args.method == "raw2d":
        if coords.shape[1] != 2:
            raise CliError(f"raw2d export needs a 2-D model, got {coords.shape[1]}-D")
        xy = coords
    else:
        centered = coords - coords.mean(axis=0, keepdims=True)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        comps = vt[:2]
        # Deterministic sign: largest-|loading| entry of each component >= 0.
        for r in range(comps.shape[0]):
            j = int(np.argmax(np.abs(comps[r])))
            if comps[r, j] < 0:
                comps[r] = -comps[r]
        xy = centered @ comps.T
        if xy.shape[1] < 2:
            xy = np.hstack([xy, np.zeros((xy.shape[0], 2 - xy.shape[1]))])
    rows = ((nid, _fmt(x), _fmt(y), str(h.node(nid).level)) for nid, (x, y) in zip(node_ids, xy))
    storage.write_tsv(target, rows, header=("node_id", "x", "y", "level"))
    _write_snapshot(out_dir, "export-2d", vars(args))


def cmd_convert_ethec(args) -> None:
    out = _out_dir(args.out)
    h, instances = ethec.convert_metadata(args.metadata)
    hierarchy.save_hierarchy(h, out / "nodes.tsv", out / "edges.tsv")
    ethec.save_instance_levels(instances, out / "instances-levels.tsv")
    _write_snapshot(out, "convert-ethec", vars(args))


def cmd_rerun(args) -> None:
    """Re-run a command from its resolved-config snapshot."""
    payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
    command = payload.pop("command", None)
    if not command:
        raise CliError("snapshot carries no command name")
    argv = [command]
    for key, value in sorted(payload.items()):
        # derived bookkeeping, or a flag of older versions (``threads``)
        if key in ("chosen_margin", "threads") or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
            continue
        argv.extend([flag, str(value)])
    code = main(argv)
    if code != 0:
        raise CliError(f"replayed command {command!r} failed")


def cmd_gen_features(args) -> None:
    out = _out_dir(args.out)
    h = _load_hierarchy(args)
    features = synth.gaussian_cluster_features(
        h, args.per_leaf, args.dim, args.seed, noise=args.noise
    )
    storage.save_features(
        out / "features.feat", features.instance_ids, features.features, features.leaf_labels
    )
    paths = joint.level_truth(h, features, range(len(features.instance_ids)))
    rows = list(zip(features.instance_ids, paths.tolist()))
    ethec.save_instance_levels(rows, out / "instances-levels.tsv")
    _write_snapshot(out, "gen-features", vars(args))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _add_hierarchy_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: adding its arguments costs a
    few milliseconds, and ``parse_args`` keeps no state between calls."""
    ap = argparse.ArgumentParser(prog="hierembed")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tree", help="write a complete synthetic tree")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--branching", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gen_tree)

    p = sub.add_parser("split", help="split closure edges into train/val/test")
    _add_hierarchy_inputs(p)
    p.add_argument("--fraction", type=float, default=0.0,
                   help="share of leftover non-basic closure edges added to train")
    _add_common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train-labels", help="embed the label hierarchy alone")
    _add_hierarchy_inputs(p)
    p.add_argument("--split-dir", required=True)
    p.add_argument("--geometry", choices=("oe", "ec", "hc"), default="ec")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--aperture-k", type=float, default=0.1)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--margin-sweep", default=None,
                   help="comma list of margins; keeps the best val F1")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch", type=int, default=10)
    p.add_argument("--optimizer", choices=("adam", "rsgd"), default=None,
                   help="default: rsgd for hc, adam otherwise")
    p.add_argument("--squared", action="store_true", help="squared order-embedding energy")
    p.add_argument("--uniform-negatives", action="store_true",
                   help="draw each corruption uniformly from the valid candidates among all "
                   "labels, not one per level; skip a slot only when none is left")
    p.add_argument("--neg-passes", type=int, default=1)
    p.add_argument("--init-norm-hi", type=float, default=None,
                   help="upper bound for init norms (default 0.9 of the domain cap)")
    _add_common(p)
    p.set_defaults(func=cmd_train_labels)

    p = sub.add_parser("train-joint", help="embed instances with the labels")
    _add_hierarchy_inputs(p)
    p.add_argument("--features", required=True)
    p.add_argument("--geometry", choices=("oe", "ec", "hc"), default="ec")
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--aperture-k", type=float, default=None,
                   help="default: the K stored in --init-labels, else 0.1; must match a stored K")
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=None, help="default: ec 200, hc 100")
    p.add_argument("--lr-labels", type=float, default=None, help="default: ec 1e-2, hc 1e-4")
    p.add_argument("--lr-im", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--init-labels", default=None, help="label-only embeddings file")
    p.add_argument("--rebalance-images", action="store_true",
                   help="propose each corruption from the instance pool with probability 1/2, "
                   "else from a uniformly chosen label level; keep only valid negatives")
    p.add_argument("--split-seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_train_joint)

    p = sub.add_parser("classify", help="per-level minimum-energy classification")
    _add_hierarchy_inputs(p)
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--subset", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--split-seed", type=int, default=None,
                   help="default: the seed recorded in the model header")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reconstruct", help="label-hierarchy reconstruction quality")
    _add_hierarchy_inputs(p)
    p.add_argument("--model", required=True)
    p.add_argument("--aperture-k", type=float, default=None,
                   help="cone constant of label files that do not store one (default 0.1); "
                   "must match a stored one; joint models use their own")
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("train-classifier", help="linear classifier with a hierarchy-aware head")
    _add_hierarchy_inputs(p)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", default=None, help="instances-levels.tsv (default: derive from leaves)")
    p.add_argument("--head", choices=("hab", "plc", "mc", "mplc", "hs"), default="plc")
    p.add_argument("--imbalance", choices=("none", "class-weights", "resample"), default="none")
    p.add_argument("--threshold-mode", choices=("ofadb", "pcdb"), default="ofadb")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--split-seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_train_classifier)

    p = sub.add_parser("export-2d", help="export label coordinates for plotting")
    _add_hierarchy_inputs(p)
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=("raw2d", "pca"), default="raw2d")
    _add_common(p)
    p.set_defaults(func=cmd_export_2d)

    p = sub.add_parser("convert-ethec", help="ETHEC metadata JSON to pipeline TSVs")
    p.add_argument("--metadata", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_convert_ethec)

    p = sub.add_parser("rerun", help="replay a command from its config snapshot")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_rerun)

    p = sub.add_parser("gen-features", help="synthetic Gaussian cluster features per leaf")
    _add_hierarchy_inputs(p)
    p.add_argument("--per-leaf", type=int, default=20)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--noise", type=float, default=0.25)
    _add_common(p)
    p.set_defaults(func=cmd_gen_features)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # surface one machine-readable line
        payload = {"error": str(exc), "command": args.command, "type": type(exc).__name__}
        sys.stderr.write(json.dumps(payload) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
