"""Label hierarchies: leveled trees/forests, closures, splits, sampling.

A hierarchy is a forest of labels arranged in levels ``1..L``; edges only
connect a level-``i`` parent to a level-``i+1`` child and every non-root
node has exactly one parent. Multi-root datasets (several top-level
families) are plain forests here; no virtual root node is materialized.

``Hierarchy`` also holds the tree in integer form, built once. Row ``r``
is the node ``ids[r]``, the ids in sorted order, which is the row order
of every label table. ``level_of[r]`` is the row's level and
``anc[r, i]`` the row of its ancestor at level ``i + 1``: a node is its
own entry at its own level, and ``-1`` fills the levels below it. The
closure, label paths and within-level positions are read from these: the
closure once, as ``closure_rows``, a read-only ``(P, 2)`` int64 array of
(ancestor row, descendant row), sorted. Row order is id order, so its
string view ``transitive_closure`` is sorted by id.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .storage import int_column, read_tsv, row_error, write_tsv

RETRY_CAP = 100


class HierarchyError(ValueError):
    """Structural problem: bad levels, duplicate ids, missing parents."""


class SamplingError(RuntimeError):
    """Negative sampling exhausted its retry budget."""


@dataclass(frozen=True)
class Node:
    node_id: str
    level: int
    name: str


@dataclass(frozen=True)
class EdgeSet:
    """Ordered ``(u, v)`` pairs meaning ``v`` is a sub-concept of ``u``."""

    pairs: tuple[tuple[str, str], ...]
    polarity: str = "positive"
    _set: frozenset[tuple[str, str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = set()
        for u, v in self.pairs:
            if u == v:
                raise HierarchyError(f"self-loop edge ({u!r}, {v!r})")
            if (u, v) in seen:
                raise HierarchyError(f"duplicate edge ({u!r}, {v!r})")
            seen.add((u, v))
        object.__setattr__(self, "_set", frozenset(seen))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self.pairs)

    def __contains__(self, pair) -> bool:
        return tuple(pair) in self._set

    def to_set(self) -> frozenset[tuple[str, str]]:
        return self._set


@dataclass(frozen=True)
class SplitResult:
    """Positive edge splits plus the fixed evaluation negatives.

    ``val_negative_refs[i]`` is the row of the val positive that negative
    ``i`` corrupts (same for test).
    """

    train: EdgeSet
    val: EdgeSet
    test: EdgeSet
    val_negatives: EdgeSet
    test_negatives: EdgeSet
    val_negative_refs: tuple[int, ...]
    test_negative_refs: tuple[int, ...]


class Hierarchy:
    """Immutable leveled label forest with cached closure and level maps."""

    def __init__(self, nodes: Sequence[Node], edges: Sequence[tuple[str, str]]):
        self._nodes = tuple(nodes)
        self._edges = tuple((str(u), str(v)) for u, v in edges)
        self._by_id = {}
        for n in self._nodes:
            if n.node_id in self._by_id:
                raise HierarchyError(f"duplicate node id {n.node_id!r}")
            if n.level < 1:
                raise HierarchyError(f"node {n.node_id!r} has level {n.level} < 1")
            self._by_id[n.node_id] = n
        levels = sorted({n.level for n in self._nodes})
        if not levels:
            raise HierarchyError("hierarchy has no nodes")
        if levels != list(range(1, len(levels) + 1)):
            raise HierarchyError(f"levels must be contiguous from 1, got {levels}")
        self._level_count = levels[-1]
        self._children: dict[str, list[str]] = {n.node_id: [] for n in self._nodes}
        self._parent: dict[str, str] = {}
        for u, v in self._edges:
            if u not in self._by_id or v not in self._by_id:
                raise HierarchyError(f"edge ({u!r}, {v!r}) references unknown node")
            if self._by_id[v].level != self._by_id[u].level + 1:
                raise HierarchyError(
                    f"edge ({u!r}, {v!r}) must go from level i to level i+1"
                )
            if v in self._parent:
                raise HierarchyError(f"node {v!r} has more than one parent")
            self._parent[v] = u
            self._children[u].append(v)
        for node_id, kids in self._children.items():
            kids.sort()
        for n in self._nodes:
            if n.level > 1 and n.node_id not in self._parent:
                raise HierarchyError(f"non-root node {n.node_id!r} has no parent")
        self.ids = tuple(sorted(self._by_id))
        self.row_of = {nid: r for r, nid in enumerate(self.ids)}
        self.level_of = np.array([self._by_id[nid].level for nid in self.ids], dtype=np.int64)
        parent_row = np.array([self.row_of.get(self._parent.get(nid), -1) for nid in self.ids])
        rows = np.arange(len(self.ids))
        self.anc = np.full((len(self.ids), self._level_count), -1, dtype=np.int64)
        self.anc[rows, self.level_of - 1] = rows
        for i in range(self._level_count - 1, 0, -1):  # each parent column from the one below
            below = self.anc[:, i] >= 0
            self.anc[below, i - 1] = parent_row[self.anc[below, i]]
        self.level_of.setflags(write=False)
        self.anc.setflags(write=False)
        self._level_members = {
            lvl: tuple(self.ids[r] for r in np.flatnonzero(self.level_of == lvl).tolist())
            for lvl in levels
        }
        self._closure: EdgeSet | None = None

    # -- accessors ---------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self._nodes

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    @property
    def level_count(self) -> int:
        return self._level_count

    @property
    def level_sizes(self) -> tuple[int, ...]:
        return tuple(len(self._level_members[l]) for l in range(1, self._level_count + 1))

    @property
    def total_labels(self) -> int:
        return len(self._nodes)

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    def level_members(self, level: int) -> tuple[str, ...]:
        """Node ids at ``level``, sorted: the canonical within-level order."""
        return self._level_members[level]

    def children(self, node_id: str) -> tuple[str, ...]:
        return tuple(self._children[node_id])

    def parent(self, node_id: str) -> str | None:
        return self._parent.get(node_id)

    def roots(self) -> tuple[str, ...]:
        return self._level_members[1]

    def ancestors(self, node_id: str) -> tuple[str, ...]:
        """Strict ancestors ordered parent first, root last."""
        r = self.row_of[node_id]
        return tuple(self.ids[a] for a in self.anc[r, : self.level_of[r] - 1][::-1])

    def leaf_descendants(self, node_id: str) -> tuple[str, ...]:
        """Deepest-level descendants of ``node_id`` (itself if at level L)."""
        r = self.row_of[node_id]
        under = (self.anc[:, self.level_of[r] - 1] == r) & (self.level_of == self._level_count)
        return tuple(self.ids[d] for d in np.flatnonzero(under))

    @functools.cached_property
    def closure_rows(self) -> np.ndarray:
        """(ancestor row, descendant row) of every closure pair, basic edges
        included: read-only, shape ``(P, 2)``, sorted."""
        strict = (self.anc >= 0) & (self.anc != np.arange(len(self.ids))[:, None])
        desc, anc = np.nonzero(strict)[0], self.anc[strict]
        order = np.lexsort((desc, anc))
        rows = np.stack([anc[order], desc[order]], axis=1)
        rows.setflags(write=False)
        return rows

    def closure(self) -> EdgeSet:
        if self._closure is None:
            self._closure = transitive_closure(self)
        return self._closure


def _edge_set(h: Hierarchy, rows: np.ndarray) -> EdgeSet:
    """The id pairs of hierarchy row pairs ``(k, 2)``, in their order."""
    return EdgeSet(tuple((h.ids[a], h.ids[b]) for a, b in rows.tolist()))


def transitive_closure(h: Hierarchy) -> EdgeSet:
    """All (ancestor, descendant) pairs, basic edges included, sorted by id:
    the string view of ``h.closure_rows``."""
    return _edge_set(h, h.closure_rows)


def split_edges(h: Hierarchy, nonbasic_train_fraction: float, seed: int) -> SplitResult:
    """Partition the closure: basic edges train, 5%/5% of the rest val/test.

    After carving out val and test, ``nonbasic_train_fraction`` of the
    remaining non-basic closure edges joins the train set; the rest are
    dropped. Deterministic under ``seed``.

    A closure pair is basic when it spans one level. Each split keeps the
    sorted order of ``h.closure_rows``.
    """
    if not 0.0 <= nonbasic_train_fraction <= 1.0:
        raise ValueError("nonbasic_train_fraction must lie in [0, 1]")
    rows = h.closure_rows
    train = h.level_of[rows[:, 1]] - h.level_of[rows[:, 0]] == 1  # the basic pairs, then extras
    nonbasic = np.flatnonzero(~train)  # closure positions of the non-basic pairs
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(nonbasic))
    n_eval = int(len(nonbasic) * 0.05)
    rest = order[2 * n_eval :]
    n_extra = int(len(rest) * nonbasic_train_fraction)
    train[nonbasic[rest[:n_extra]]] = True

    def pick(i: np.ndarray) -> EdgeSet:
        return _edge_set(h, rows[np.sort(nonbasic[i])])

    empty = EdgeSet((), polarity="negative")
    return SplitResult(
        train=_edge_set(h, rows[train]),
        val=pick(order[:n_eval]),
        test=pick(order[n_eval : 2 * n_eval]),
        val_negatives=empty,
        test_negatives=empty,
        val_negative_refs=(),
        test_negative_refs=(),
    )


def _corrupt_eval_side(
    pos: tuple[str, str],
    corrupt_u: bool,
    pool: Sequence[str],
    closure: frozenset[tuple[str, str]],
    taken: set[tuple[str, str]],
    rng: np.random.Generator,
    count: int,
) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    u, v = pos
    for _ in range(count):
        for _ in range(RETRY_CAP):
            cand = pool[int(rng.integers(len(pool)))]
            pair = (cand, v) if corrupt_u else (u, cand)
            if pair[0] == pair[1] or pair in closure or pair in taken:
                continue
            taken.add(pair)
            out.append(pair)
            break
        else:
            break  # side exhausted; the caller tops up from the other side
    return out


def augment_eval_negatives(split: SplitResult, closure: EdgeSet, seed: int) -> SplitResult:
    """Attach 10 negatives per val/test positive: 5 corrupt-u, 5 corrupt-v.

    Every emitted pair is absent from the full closure; within each split
    the negative set is duplicate-free. When one side has no valid
    corruption left (e.g. the sole root entails everything, so ``(root,
    y')`` is always a closure member), the missing draws come from the
    other side so that each positive still gets 10 negatives.
    """
    closed = closure.to_set()
    nodes = sorted({n for pair in closed for n in pair})
    rng = np.random.default_rng(seed)

    def build(positives: EdgeSet) -> tuple[tuple[tuple[str, str], ...], tuple[int, ...]]:
        taken: set[tuple[str, str]] = set()
        pairs: list[tuple[str, str]] = []
        refs: list[int] = []
        for idx, pos in enumerate(positives):
            got: list[tuple[str, str]] = []
            for corrupt_u in (True, False):
                got.extend(
                    _corrupt_eval_side(pos, corrupt_u, nodes, closed, taken, rng, 5)
                )
            for corrupt_u in (True, False):
                if len(got) >= 10:
                    break
                got.extend(
                    _corrupt_eval_side(
                        pos, corrupt_u, nodes, closed, taken, rng, 10 - len(got)
                    )
                )
            if len(got) < 10:
                raise SamplingError(
                    f"no non-closure corruption for {pos} after {RETRY_CAP} retries"
                )
            pairs.extend(got)
            refs.extend([idx] * len(got))
        return tuple(pairs), tuple(refs)

    val_pairs, val_refs = build(split.val)
    test_pairs, test_refs = build(split.test)
    return replace(
        split,
        val_negatives=EdgeSet(val_pairs, polarity="negative"),
        test_negatives=EdgeSet(test_pairs, polarity="negative"),
        val_negative_refs=val_refs,
        test_negative_refs=test_refs,
    )


def generate_synthetic_tree(levels: int, branching: int) -> Hierarchy:
    """Complete tree: one root at level 1, ``branching`` children per node."""
    if levels < 1 or branching < 1:
        raise ValueError("levels and branching must be >= 1")
    total = sum(branching**i for i in range(levels))
    if total > 10_000_000:
        raise HierarchyError(f"tree would have {total} nodes; refusing")
    width = len(str(branching - 1)) if branching > 1 else 1
    nodes = [Node("r", 1, "r")]
    edges: list[tuple[str, str]] = []
    frontier = ["r"]
    for level in range(2, levels + 1):
        nxt = []
        for parent in frontier:
            for i in range(branching):
                child = f"{parent}.{i:0{width}d}"
                nodes.append(Node(child, level, child))
                edges.append((parent, child))
                nxt.append(child)
        frontier = nxt
    return Hierarchy(nodes, edges)


# ---------------------------------------------------------------------------
# TSV interchange
# ---------------------------------------------------------------------------

def save_hierarchy(h: Hierarchy, nodes_path, edges_path) -> None:
    write_tsv(nodes_path, ((n.node_id, str(n.level), n.name) for n in h.nodes))
    write_tsv(edges_path, h.edges)


def load_hierarchy(nodes_path, edges_path) -> Hierarchy:
    ids, levels, names = read_tsv(nodes_path, 3)
    nodes = map(Node, ids, int_column(nodes_path, levels), names)
    return Hierarchy(list(nodes), list(zip(*read_tsv(edges_path, 2))))


def save_edge_tsv(edges: Iterable[tuple[str, str]], path) -> None:
    write_tsv(path, edges)


def load_edge_tsv(path, polarity: str = "positive") -> EdgeSet:
    return EdgeSet(tuple(zip(*read_tsv(path, 2))), polarity=polarity)


NEGATIVES_HEADER = ("split", "parent_id", "child_id", "pos_ref")


def save_split(split: SplitResult, out_dir) -> None:
    """Write train/val/test edge TSVs plus one negatives TSV with pos_ref."""
    out = Path(out_dir)
    save_edge_tsv(split.train, out / "train_edges.tsv")
    save_edge_tsv(split.val, out / "val_edges.tsv")
    save_edge_tsv(split.test, out / "test_edges.tsv")
    rows = [("val", u, v, str(r)) for (u, v), r in zip(split.val_negatives, split.val_negative_refs)]
    rows += [("test", u, v, str(r)) for (u, v), r in zip(split.test_negatives, split.test_negative_refs)]
    write_tsv(out / "eval_negatives.tsv", rows, header=NEGATIVES_HEADER)


def load_split(split_dir) -> SplitResult:
    out = Path(split_dir)
    path = out / "eval_negatives.tsv"
    which, us, vs, refs = read_tsv(path, 4, header=NEGATIVES_HEADER)
    refs = int_column(path, refs, 1)
    if unknown := [i for i, name in enumerate(which) if name not in ("val", "test")]:
        raise row_error(path, unknown[0] + 1, f"split {which[unknown[0]]!r} is neither 'val' nor 'test'")
    rows = {name: [i for i, w in enumerate(which) if w == name] for name in ("val", "test")}
    return SplitResult(
        train=load_edge_tsv(out / "train_edges.tsv"),
        val=load_edge_tsv(out / "val_edges.tsv"),
        test=load_edge_tsv(out / "test_edges.tsv"),
        val_negatives=EdgeSet(tuple((us[i], vs[i]) for i in rows["val"]), polarity="negative"),
        test_negatives=EdgeSet(tuple((us[i], vs[i]) for i in rows["test"]), polarity="negative"),
        val_negative_refs=tuple(refs[i] for i in rows["val"]),
        test_negative_refs=tuple(refs[i] for i in rows["test"]),
    )
