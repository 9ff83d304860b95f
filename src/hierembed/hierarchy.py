"""Label hierarchies: leveled trees/forests, closures, splits, sampling.

A hierarchy is a forest of labels arranged in levels ``1..L``; edges only
connect a level-``i`` parent to a level-``i+1`` child and every non-root
node has exactly one parent. Multi-root datasets (several top-level
families) are plain forests here; no virtual root node is materialized.

``Hierarchy`` also holds the tree in integer form, built once. Row ``r``
is the node ``ids[r]``, the ids in sorted order, which is the row order
of every label table. ``level_of[r]`` is the row's level,
``level_rows[i]`` a read-only array of the rows at level ``i + 1`` in row
order, and ``anc[r, i]`` the row of its ancestor at level ``i + 1``: a
node is its own entry at its own level, and ``-1`` fills the levels below
it. The closure, label paths and within-level positions are read from
these: the closure once, as ``closure_rows``, a read-only ``(P, 2)`` int64
array of (ancestor row, descendant row), sorted. Row order is id order, so
its id pairs are sorted by id.

An ``EdgeSet`` holds rows too: a read-only ``(k, 2)`` array into a
hierarchy's ``ids``. Closures, splits and evaluation negatives are built,
checked and scored as rows; id strings appear only in an ``EdgeSet``'s lazy
id views, ``pairs`` and iteration, and where ``save_split``/``load_split``
write and read the split files.

``augment_eval_negatives`` draws its candidates with a generator private to
the call. Every draw is ``rng.integers(n)`` for one ``n``, so the draws are
computed from blocks of the generator's 32-bit words, one array step per
block (``block_draws``); a block read ahead moves no output.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .storage import int_column, read_tsv, row_error, write_tsv

RETRY_CAP = 100
WORD = 2**32  # ``rng.integers(n)`` reads 32-bit generator words for any n <= 2**32
DRAW_BLOCK = 2**12  # words read per array step of ``augment_eval_negatives``'s draws


class HierarchyError(ValueError):
    """Structural problem: bad levels, duplicate ids, missing parents."""


class SamplingError(RuntimeError):
    """Negative sampling exhausted its retry budget."""


@dataclass(frozen=True)
class Node:
    node_id: str
    level: int
    name: str


def name_some(names: Sequence[str], shown: int = 5) -> str:
    """The first ``shown`` names, quoted, and how many more there are."""
    more = f" and {len(names) - shown} more" if len(names) > shown else ""
    return ", ".join(repr(name) for name in names[:shown]) + more


def block_draws(rng: np.random.Generator, n: int) -> Iterator[int]:
    """The draws of ``rng.integers(n)``, ``2 <= n <= 2**32``, one after another,
    computed from blocks of DRAW_BLOCK 32-bit words of ``rng``, one array step
    per block. ``rng`` is read to the end of the block in use.

    NumPy's Lemire step maps a word ``w`` to ``(w * n) >> 32``; it throws the
    word away and reads the next one when ``(w * n) mod 2**32`` falls below
    ``(2**32 - n) mod n``.
    """
    cut = (WORD - n) % n
    while True:
        m = rng.integers(0, WORD, size=DRAW_BLOCK, dtype=np.uint32).astype(np.uint64) * np.uint64(n)
        yield from (m >> np.uint64(32))[m & np.uint64(WORD - 1) >= cut].tolist()


def _first_fault(ids: Sequence[str], rows: np.ndarray) -> tuple[int, int | None, str] | None:
    """The first row of ``rows`` that is a self-loop or repeats an earlier row: its
    index, the earlier row's (None for a self-loop) and the fault; None if none.

    One array test clears a set without faults; the row loop names the first one.
    """
    keys = rows[:, 0] * len(ids) + rows[:, 1]
    if not (rows[:, 0] == rows[:, 1]).any() and len(np.unique(keys)) == len(keys):
        return None
    return _first_fault_by_rows(ids, rows)


def _first_fault_by_rows(ids: Sequence[str], rows: np.ndarray) -> tuple[int, int | None, str] | None:
    """``_first_fault``, found by a loop over the rows."""
    seen: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(rows.tolist()):
        if u == v or (u, v) in seen:
            pair = f"edge ({ids[u]!r}, {ids[v]!r})"
            return (i, None, f"self-loop {pair}") if u == v else (i, seen[u, v], f"duplicate {pair}")
        seen[u, v] = i
    return None


@dataclass(frozen=True, eq=False)
class EdgeSet:
    """Ordered ``(u, v)`` pairs meaning ``v`` is a sub-concept of ``u``, none a
    self-loop or repeated: ``rows``, a read-only ``(k, 2)`` int64 array of rows
    into ``ids``, a hierarchy's sorted ids. The id pairs are built on first use."""

    ids: tuple[str, ...] = field(repr=False)
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=np.int64).reshape(-1, 2)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        if fault := _first_fault(self.ids, rows):
            raise HierarchyError(fault[2])

    @functools.cached_property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple((self.ids[a], self.ids[b]) for a, b in self.rows.tolist())

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self.pairs)


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
        self.level_rows = tuple(np.flatnonzero(self.level_of == lvl) for lvl in levels)
        for rows in self.level_rows:
            rows.setflags(write=False)
        self._level_members = {
            lvl: tuple(self.ids[r] for r in rows.tolist())
            for lvl, rows in zip(levels, self.level_rows)
        }

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
        return tuple(len(rows) for rows in self.level_rows)

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

    def ancestors(self, node_id: str) -> tuple[str, ...]:
        """Strict ancestors ordered parent first, root last."""
        r = self.row_of[node_id]
        return tuple(self.ids[a] for a in self.anc[r, : self.level_of[r] - 1][::-1])

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
        return transitive_closure(self)


def transitive_closure(h: Hierarchy) -> EdgeSet:
    """All (ancestor, descendant) pairs, basic edges included, sorted by id:
    the set of ``h.closure_rows``."""
    return EdgeSet(h.ids, h.closure_rows)


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
        return EdgeSet(h.ids, rows[np.sort(nonbasic[i])])

    empty = EdgeSet(h.ids, ())
    return SplitResult(
        train=EdgeSet(h.ids, rows[train]),
        val=pick(order[:n_eval]),
        test=pick(order[n_eval : 2 * n_eval]),
        val_negatives=empty,
        test_negatives=empty,
        val_negative_refs=(),
        test_negative_refs=(),
    )


def augment_eval_negatives(split: SplitResult, closure: EdgeSet, seed: int) -> SplitResult:
    """Attach 10 negatives per val/test positive: 5 corrupt-u, 5 corrupt-v.

    Every emitted pair is absent from the full closure; within each split
    the negative set is duplicate-free. When one side has no valid
    corruption left (e.g. the sole root entails everything, so ``(root,
    y')`` is always a closure member), the missing draws come from the
    other side so that each positive still gets 10 negatives. Candidates
    are the closure's nodes; a pair of rows ``(a, b)`` is checked by its key
    ``a * n + b``, n the label count.

    Each candidate is the draw ``rng.integers(len(nodes))`` of a generator
    private to the call, seeded with ``seed``. ``block_draws`` computes the
    draws from blocks of the generator's words; as no other caller reads the
    generator, reading a block ahead changes no output.
    """
    ids, n = closure.ids, len(closure.ids)
    if split.val.ids != ids or split.test.ids != ids:
        raise ValueError("the split and the closure are over different hierarchies")
    closed = set((closure.rows[:, 0] * n + closure.rows[:, 1]).tolist())
    nodes = np.unique(closure.rows).tolist()
    draws = block_draws(np.random.default_rng(seed), len(nodes))

    def corrupt(pos: list[int], corrupt_u: bool, taken: set[int], count: int) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        u, v = pos
        for _ in range(count):
            for _ in range(RETRY_CAP):
                cand = nodes[next(draws)]
                a, b = (cand, v) if corrupt_u else (u, cand)
                key = a * n + b
                if a == b or key in closed or key in taken:
                    continue
                taken.add(key)
                out.append((a, b))
                break
            else:
                break  # side exhausted; the caller tops up from the other side
        return out

    def build(positives: EdgeSet) -> tuple[EdgeSet, tuple[int, ...]]:
        taken: set[int] = set()
        pairs: list[tuple[int, int]] = []
        refs: list[int] = []
        for idx, pos in enumerate(positives.rows.tolist()):
            got = corrupt(pos, True, taken, 5) + corrupt(pos, False, taken, 5)
            for corrupt_u in (True, False):
                got += corrupt(pos, corrupt_u, taken, 10 - len(got))
            if len(got) < 10:
                raise SamplingError(f"no non-closure corruption for {(ids[pos[0]], ids[pos[1]])} "
                                    f"after {RETRY_CAP} retries")
            pairs.extend(got)
            refs.extend([idx] * len(got))
        return EdgeSet(ids, pairs), tuple(refs)

    (val, val_refs), (test, test_refs) = build(split.val), build(split.test)
    return replace(split, val_negatives=val, test_negatives=test, val_negative_refs=val_refs,
                   test_negative_refs=test_refs)


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


NEGATIVES_HEADER = ("split", "parent_id", "child_id", "pos_ref")


def save_split(split: SplitResult, out_dir) -> None:
    """Write train/val/test edge TSVs plus one negatives TSV with pos_ref."""
    out = Path(out_dir)
    for name in ("train", "val", "test"):
        write_tsv(out / f"{name}_edges.tsv", getattr(split, name))
    rows = [("val", u, v, str(r)) for (u, v), r in zip(split.val_negatives, split.val_negative_refs)]
    rows += [("test", u, v, str(r)) for (u, v), r in zip(split.test_negatives, split.test_negative_refs)]
    write_tsv(out / "eval_negatives.tsv", rows, header=NEGATIVES_HEADER)


def load_split(split_dir, h: Hierarchy) -> SplitResult:
    """The split saved in ``split_dir``, as rows of ``h``.

    A label ``h`` lacks, counted over all five lists, is a ``HierarchyError``. A
    ``FormatError`` names the file and line of a self-loop or repeated pair, of a
    positive that is no closure pair, of an evaluation negative that is a closure
    pair, of a ``pos_ref`` that is no row of its split's positives, and of a
    negative that keeps neither side of the positive its ``pos_ref`` names.
    """
    out = Path(split_dir)
    path = out / "eval_negatives.tsv"
    which, us, vs, refs = read_tsv(path, 4, header=NEGATIVES_HEADER)
    refs = int_column(path, refs, 1)
    if unknown := [i for i, name in enumerate(which) if name not in ("val", "test")]:
        raise row_error(path, unknown[0] + 1, f"split {which[unknown[0]]!r} is neither 'val' nor 'test'")
    lists, split_refs = {}, {}  # lists: name -> file, the line index of each pair, its ids
    for name in ("train", "val", "test"):
        parents, children = read_tsv(out / f"{name}_edges.tsv", 2)
        lists[name] = (out / f"{name}_edges.tsv", range(len(parents)), parents, children)
    for name in ("val", "test"):
        at = [i for i, w in enumerate(which) if w == name]
        lists[f"{name}_negatives"] = (path, [i + 1 for i in at], [us[i] for i in at], [vs[i] for i in at])
        split_refs[f"{name}_negative_refs"] = tuple(refs[i] for i in at)
    labels = {nid for _, _, *columns in lists.values() for column in columns for nid in column}
    if unknown := sorted(labels - h.row_of.keys()):
        raise HierarchyError(f"hierarchy lacks {len(unknown)} of the {len(labels)} labels in the "
                             f"split: {name_some(unknown)}")
    sets = {}
    for name, (file, lines, parents, children) in lists.items():
        rows = np.array([(h.row_of[u], h.row_of[v]) for u, v in zip(parents, children)],
                        dtype=np.int64).reshape(-1, 2)
        try:
            sets[name] = EdgeSet(h.ids, rows)
        except HierarchyError:  # a self-loop or a repeat: name its line
            i, earlier, problem = _first_fault_by_rows(h.ids, rows)
            earlier = None if earlier is None else lines[earlier]
            raise row_error(file, lines[i], problem, earlier) from None
    n, closure = len(h.ids), h.closure_rows[:, 0] * len(h.ids) + h.closure_rows[:, 1]

    def closed(edges: EdgeSet) -> np.ndarray:
        return np.isin(edges.rows[:, 0] * n + edges.rows[:, 1], closure)

    for name in ("train", "val", "test"):
        if len(stray := np.flatnonzero(~closed(sets[name]))):
            i = int(stray[0])
            raise row_error(lists[name][0], i, f"positive {sets[name].pairs[i]} is no closure pair")
    for name in ("val", "test"):
        negatives, lines = sets[f"{name}_negatives"], lists[f"{name}_negatives"][1]
        is_closed, positives = closed(negatives), sets[name].rows.tolist()
        pos_refs = split_refs[f"{name}_negative_refs"]
        for i, ((u, v), ref) in enumerate(zip(negatives.rows.tolist(), pos_refs)):
            if is_closed[i]:
                raise row_error(path, lines[i], f"negative {negatives.pairs[i]} is a closure pair")
            if not 0 <= ref < len(positives):
                raise row_error(path, lines[i], f"pos_ref {ref} is no row of the {len(positives)} "
                                f"{name} positives")
            if u != positives[ref][0] and v != positives[ref][1]:
                raise row_error(path, lines[i], f"negative {negatives.pairs[i]} keeps neither side "
                                f"of {name} positive {ref}, {sets[name].pairs[ref]}")
    return SplitResult(**sets, **split_refs)
