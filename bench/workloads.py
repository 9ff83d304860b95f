"""The four benchmark workloads: inputs from a seed, timed CLI steps, checks.

Each round of a workload builds its inputs in ``<round>/in`` (setup) and
then runs its steps, CLI commands writing to ``<round>/out``, one after the
other through ``hierembed.cli.main`` in this process. Tree shapes are fixed
per workload, so timings do not depend on the seed; the seed drives the
edge split, the features, the seeded model files and the training runs.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

K = 0.1  # aperture constant of every cone model here (the CLI default)

WHY = {
    "labels": "label-only ec training with small batches on a deep single-root tree, "
    "then reconstruct: the sampler's wasted root-level retries, kernel and "
    "optimizer overhead and the per-epoch val sweep",
    "joint": "joint hc training with instance nodes and large batches, plain and "
    "rebalanced, then classify: the sampler's instance and rebalanced paths and "
    "the classify hook",
    "eval-wide": "read-only reconstruct and classify of seeded models on a wide "
    "tree: the threshold sweep, pairwise energies and per-label level energies, "
    "no sampler or optimizer",
    "heads": "all five classifier heads, unweighted and class-weighted: the "
    "only workload that reaches the heads' batched and per-sample losses",
}

# Sizes of a full run. Each round takes a few seconds on a 2-CPU machine.
FULL = {
    "labels": {"levels": 5, "branching": 3, "dim": 10, "epochs": 12},
    "joint": {"levels": 4, "branching": 3, "per_leaf": 20, "epochs": 2},
    "eval-wide": {"levels": 3, "branching": 12, "per_leaf": 120},
    "heads": {"levels": 3, "branching": 12, "per_leaf": 10, "epochs": 2},
}

# Sizes for the schema smoke test: every step runs, in well under a second.
TINY = {
    "labels": {"levels": 4, "branching": 2, "dim": 10, "epochs": 2},
    "joint": {"levels": 3, "branching": 2, "per_leaf": 4, "epochs": 1},
    "eval-wide": {"levels": 3, "branching": 3, "per_leaf": 4},
    "heads": {"levels": 3, "branching": 3, "per_leaf": 4, "epochs": 1},
}

HEADS = ("hab", "plc", "mc", "mplc", "hs")
FEATURE_DIM = 64


@dataclass
class Step:
    """One timed CLI command; ``kind`` picks the rate its work counts toward."""

    kind: str  # train | recon | classify | heads
    argv: list[str]
    work: Callable[[], int]  # work units, read from the inputs after the round


class Round:
    """Paths and sizes of one round; ``cli`` runs one command, True if it succeeded."""

    def __init__(self, root: Path, seed: int, size: dict, cli: Callable[[list[str]], bool]):
        self.root = root
        self.seed = seed
        self.size = size
        self.cli = cli
        self.inp = root / "in"
        self.out = root / "out"

    def tree_args(self) -> list[str]:
        t = self.inp / "tree"
        return ["--nodes", str(t / "nodes.tsv"), "--edges", str(t / "edges.tsv")]

    def gen_tree(self) -> bool:
        s = self.size
        return self.cli(["gen-tree", "--levels", str(s["levels"]), "--branching",
                         str(s["branching"]), "--out", str(self.inp / "tree")])

    def gen_features(self) -> bool:
        return self.cli(["gen-features", *self.tree_args(), "--per-leaf",
                         str(self.size["per_leaf"]), "--dim", str(FEATURE_DIM),
                         "--seed", str(self.seed), "--out", str(self.inp / "feats")])

    def features(self) -> str:
        return str(self.inp / "feats" / "features.feat")

    def tree(self) -> "Tree":
        return Tree.read(self.inp / "tree")


@dataclass
class Tree:
    """Node levels and parents as read from the tree files."""

    level: dict[str, int]
    parent: dict[str, str]

    @classmethod
    def read(cls, d: Path) -> "Tree":
        level, parent = {}, {}
        for line in (d / "nodes.tsv").read_text(encoding="utf-8").splitlines():
            nid, lvl, _ = line.split("\t")
            level[nid] = int(lvl)
        for line in (d / "edges.tsv").read_text(encoding="utf-8").splitlines():
            u, v = line.split("\t")
            parent[v] = u
        return cls(level, parent)

    @property
    def levels(self) -> int:
        return max(self.level.values())

    def closure_size(self) -> int:
        """Number of (ancestor, descendant) pairs."""
        return sum(self.level[n] - 1 for n in self.level)


def planted_coords(tree: Tree, dim: int, kind: str, rng: np.random.Generator):
    """Label points that roughly nest each child in its parent's cone.

    Norms grow from 0.25 at the top level to 0.85 at the deepest. A child's
    direction leaves its parent's by about 0.9 of the angle that still fits
    the parent's cone (Euclidean estimate), with Gaussian spread, so most but
    not all edges hold. Returns sorted ids, coordinates and unit directions.
    """
    depth = max(tree.levels - 1, 1)
    radius = {l: 0.25 + 0.6 * (l - 1) / depth for l in range(1, tree.levels + 1)}
    ids = sorted(tree.level, key=lambda n: (tree.level[n], n))
    dirs: dict[str, np.ndarray] = {}
    for nid in ids:
        g = rng.standard_normal(dim)
        p = tree.parent.get(nid)
        if p is None:
            dirs[nid] = g / np.linalg.norm(g)
            continue
        rp, rc = radius[tree.level[p]], radius[tree.level[nid]]
        arg = K / rp if kind == "ec" else K * (1 - rp * rp) / rp
        fit = math.tan(math.asin(min(arg, 1.0))) * (rc - rp) / rc
        g -= (g @ dirs[p]) * dirs[p]
        d = dirs[p] + 0.9 * fit * g / math.sqrt(dim - 1)
        dirs[nid] = d / np.linalg.norm(d)
    order = sorted(ids)
    u = np.array([dirs[n] for n in order])
    r = np.array([radius[tree.level[n]] for n in order])
    return tuple(order), u * r[:, None], u


def write_planted_labels(rnd: Round, kind: str, dim: int, path: Path) -> None:
    from hierembed import storage

    ids, coords, _ = planted_coords(rnd.tree(), dim, kind, np.random.default_rng(rnd.seed))
    storage.save_embeddings(path, ids, coords, kind)


def write_planted_joint(rnd: Round, path: Path) -> None:
    """hc joint model: planted labels plus a map sending leaf means beyond their leaf."""
    from hierembed import storage

    tree = rnd.tree()
    dim = 10
    ids, coords, dirs = planted_coords(tree, dim, "hc", np.random.default_rng(rnd.seed))
    _, feats, leaves = storage.load_features(rnd.features())
    row = {n: i for i, n in enumerate(ids)}
    leaf_ids = sorted(set(leaves))
    leaves = np.array(leaves)
    means = np.array([feats[leaves == leaf].mean(axis=0) for leaf in leaf_ids])
    targets = math.atanh(0.95) * dirs[[row[leaf] for leaf in leaf_ids]]
    w = np.linalg.lstsq(means, targets, rcond=None)[0]
    header = {"geometry": "hc", "k": K, "margin": 1.0, "dim": dim, "lr_labels": 1e-4,
              "lr_instances": 1e-3, "split_seed": rnd.seed, "feature_dim": FEATURE_DIM}
    storage.save_joint_model(path, ids, coords, w, header)


def _lines(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0


def _n_train(rnd: Round) -> int:
    from hierembed import joint

    n = _lines(rnd.inp / "feats" / "instances.tsv")
    return len(joint.split_instances(n, rnd.seed)[0])


def _pairs(rnd: Round) -> int:
    n = _lines(rnd.inp / "tree" / "nodes.tsv")
    return n * (n - 1)


# ---------------------------------------------------------------------------
# Workloads: setup(rnd) builds the inputs, steps(rnd) lists the timed commands
# ---------------------------------------------------------------------------

def setup_labels(rnd: Round) -> None:
    rnd.gen_tree()
    rnd.cli(["split", *rnd.tree_args(), "--fraction", "0.5", "--seed", str(rnd.seed),
             "--out", str(rnd.inp / "split")])


def steps_labels(rnd: Round) -> list[Step]:
    s = rnd.size
    emb = rnd.out / "emb"
    train = ["train-labels", *rnd.tree_args(), "--split-dir", str(rnd.inp / "split"),
             "--geometry", "ec", "--dim", str(s["dim"]), "--batch", "10",
             "--epochs", str(s["epochs"]), "--seed", str(rnd.seed), "--out", str(emb)]
    recon = ["reconstruct", *rnd.tree_args(), "--model", str(emb / "embeddings.emb"),
             "--out", str(rnd.out / "rec")]
    return [
        Step("train", train, lambda: s["epochs"] * _lines(rnd.inp / "split" / "train_edges.tsv")),
        Step("recon", recon, lambda: _pairs(rnd)),
    ]


def setup_joint(rnd: Round) -> None:
    if rnd.gen_tree() and rnd.gen_features():
        write_planted_labels(rnd, "hc", 10, rnd.inp / "init.emb")


def steps_joint(rnd: Round) -> list[Step]:
    s = rnd.size

    def positives() -> int:
        tree = rnd.tree()
        return s["epochs"] * (tree.closure_size() + _n_train(rnd) * tree.levels)

    base = ["train-joint", *rnd.tree_args(), "--features", rnd.features(),
            "--geometry", "hc", "--dim", "10", "--batch", "64", "--epochs", str(s["epochs"]),
            "--init-labels", str(rnd.inp / "init.emb"), "--seed", str(rnd.seed)]
    classify = ["classify", *rnd.tree_args(), "--model", str(rnd.out / "joint" / "model.bin"),
                "--features", rnd.features(), "--subset", "test", "--out", str(rnd.out / "cls")]
    return [
        Step("train", base + ["--out", str(rnd.out / "joint")], positives),
        Step("train", base + ["--rebalance-images", "--out", str(rnd.out / "joint-rb")], positives),
        Step("classify", classify, lambda: _lines(rnd.out / "cls" / "predictions.tsv")),
    ]


def setup_eval_wide(rnd: Round) -> None:
    if rnd.gen_tree() and rnd.gen_features():
        write_planted_labels(rnd, "ec", 10, rnd.inp / "labels.emb")
        write_planted_joint(rnd, rnd.inp / "model.bin")


def steps_eval_wide(rnd: Round) -> list[Step]:
    recon = ["reconstruct", *rnd.tree_args(), "--model", str(rnd.inp / "labels.emb"),
             "--out", str(rnd.out / "rec")]
    classify = ["classify", *rnd.tree_args(), "--model", str(rnd.inp / "model.bin"),
                "--features", rnd.features(), "--subset", "all", "--out", str(rnd.out / "cls")]
    return [
        Step("recon", recon, lambda: _pairs(rnd)),
        Step("classify", classify, lambda: _lines(rnd.out / "cls" / "predictions.tsv")),
    ]


def setup_heads(rnd: Round) -> None:
    if rnd.gen_tree():
        rnd.gen_features()


def steps_heads(rnd: Round) -> list[Step]:
    s = rnd.size
    out = []
    for head in HEADS:
        for imbalance in ("none", "class-weights"):
            argv = ["train-classifier", *rnd.tree_args(), "--features", rnd.features(),
                    "--head", head, "--imbalance", imbalance, "--epochs", str(s["epochs"]),
                    "--seed", str(rnd.seed), "--out", str(rnd.out / f"{head}-{imbalance}")]
            out.append(Step("heads", argv, lambda: s["epochs"] * _n_train(rnd)))
    return out


SETUP = {"labels": setup_labels, "joint": setup_joint,
         "eval-wide": setup_eval_wide, "heads": setup_heads}
STEPS = {"labels": steps_labels, "joint": steps_joint,
         "eval-wide": steps_eval_wide, "heads": steps_heads}


# ---------------------------------------------------------------------------
# Quality and correctness
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _first(path: Path, column: str) -> float:
    return float(read_csv(path)[0][column])


def quality(name: str, rnd: Round) -> dict[str, float]:
    """The workload's F1 scores, by the names the report uses."""
    out = rnd.out
    if name == "labels":
        return {"edge_f1": _first(out / "emb" / "test_metrics.csv", "f1"),
                "recon_f1": _first(out / "rec" / "reconstruction.csv", "full-F1")}
    if name == "joint":
        return {"cls_mf1": _first(out / "cls" / "metrics.csv", "m-F1")}
    if name == "eval-wide":
        return {"recon_f1": _first(out / "rec" / "reconstruction.csv", "full-F1"),
                "cls_mf1": _first(out / "cls" / "metrics.csv", "m-F1")}
    scores = [_first(out / f"{h}-{i}" / "metrics.csv", "m-F1")
              for h in HEADS for i in ("none", "class-weights")]
    return {"heads_mf1": float(np.mean(scores))}


QUALITY_CSVS = ("test_metrics.csv", "reconstruction.csv", "metrics.csv")
NOT_SCORES = ("aggregation", "threshold")  # and the hab head's pred_* count stats


def check_outputs(rnd: Round) -> list[str]:
    """Problems found in the round's outputs; empty when all checks pass."""
    problems = []
    for path in sorted(rnd.out.rglob("*.csv")):
        if path.name not in QUALITY_CSVS:
            continue
        for row in read_csv(path):
            for col, val in row.items():
                if col in NOT_SCORES or col.startswith("pred_"):
                    continue
                try:
                    ok = 0.0 <= float(val) <= 1.0
                except (TypeError, ValueError):
                    ok = False
                if not ok:
                    problems.append(f"{path.relative_to(rnd.root)}: {col}={val!r} not in [0, 1]")
    tree = rnd.tree() if (rnd.inp / "tree" / "nodes.tsv").exists() else None
    for path in sorted(rnd.out.rglob("predictions.tsv")):
        for line in path.read_text(encoding="utf-8").splitlines():
            fields = line.split("\t")
            if (len(fields) != 4 or tree is None or not fields[1].isdigit()
                    or tree.level.get(fields[2]) != int(fields[1])):
                problems.append(f"{path.relative_to(rnd.root)}: bad prediction {line!r}")
                break
    return problems


def digest(root: Path) -> str:
    """Hash of every file's relative path and bytes under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
