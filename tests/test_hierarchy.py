"""Hierarchy structure, closures, splits, and negative sampling."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierembed.heads import HierarchyIndex
from hierembed.hierarchy import (
    RETRY_CAP,
    EdgeSet,
    Hierarchy,
    HierarchyError,
    Node,
    SamplingError,
    _first_fault,
    _first_fault_by_rows,
    augment_eval_negatives,
    generate_synthetic_tree,
    load_hierarchy,
    load_split,
    save_hierarchy,
    save_split,
    split_edges,
    transitive_closure,
)
from hierembed.joint import FeatureMatrix, instance_positive_rows, level_truth
from hierembed.storage import FormatError, write_tsv
from hierembed.training import _Graph


def id_edges(h: Hierarchy, pairs) -> EdgeSet:
    """The id pairs ``pairs`` as an ``EdgeSet`` of ``h``'s rows."""
    return EdgeSet(h.ids, [(h.row_of[u], h.row_of[v]) for u, v in pairs])


def brute_force_closure(h: Hierarchy) -> set:
    """Oracle: per-node BFS over the children relation."""
    out = set()
    for n in h.nodes:
        frontier = list(h.children(n.node_id))
        while frontier:
            cur = frontier.pop()
            out.add((n.node_id, cur))
            frontier.extend(h.children(cur))
    return out


class TestStructure:
    def test_tree_counts(self):
        assert generate_synthetic_tree(3, 7).total_labels == 57
        assert generate_synthetic_tree(4, 3).total_labels == 40
        chain = generate_synthetic_tree(5, 1)
        assert chain.total_labels == 5
        assert chain.level_sizes == (1, 1, 1, 1, 1)

    def test_level_grading_enforced(self):
        nodes = [Node("a", 1, "a"), Node("b", 3, "b"), Node("c", 2, "c")]
        with pytest.raises(HierarchyError):
            Hierarchy(nodes, [("a", "b")])

    def test_single_parent_enforced(self):
        nodes = [Node("a", 1, "a"), Node("b", 1, "b"), Node("c", 2, "c")]
        with pytest.raises(HierarchyError):
            Hierarchy(nodes, [("a", "c"), ("b", "c")])

    def test_orphan_rejected(self):
        nodes = [Node("a", 1, "a"), Node("b", 2, "b")]
        with pytest.raises(HierarchyError):
            Hierarchy(nodes, [])

    def test_forest_allowed(self):
        nodes = [Node("a", 1, "a"), Node("b", 1, "b"), Node("c", 2, "c")]
        h = Hierarchy(nodes, [("a", "c")])
        assert h.level_members(1) == ("a", "b")

    def test_edge_set_rejects_duplicates_and_loops(self):
        h = Hierarchy([Node(nid, 1, nid) for nid in "abcd"], [])
        with pytest.raises(HierarchyError, match=r"^duplicate edge \('a', 'b'\)$"):
            id_edges(h, (("a", "b"), ("a", "b")))
        with pytest.raises(HierarchyError, match=r"^self-loop edge \('a', 'a'\)$"):
            id_edges(h, (("a", "a"),))

    def test_edge_set_id_views_are_built_once(self):
        h = Hierarchy([Node(nid, 1, nid) for nid in "abcd"], [])
        edges = id_edges(h, (("a", "b"), ("a", "c"), ("b", "d")))
        assert edges.rows.tolist() == [[0, 1], [0, 2], [1, 3]]
        assert edges.rows.dtype == np.int64 and not edges.rows.flags.writeable
        first = edges.pairs
        assert first == (("a", "b"), ("a", "c"), ("b", "d"))
        for _ in range(2):
            assert ("a", "b") in edges and ("b", "d") in edges
            assert ("b", "a") not in edges and ("a", "d") not in edges
            assert edges.pairs is first and tuple(edges) == first
        assert frozenset(edges) == {("a", "b"), ("a", "c"), ("b", "d")}
        assert EdgeSet(h.ids, [[0, 1], [0, 2], [1, 3]]).pairs == edges.pairs

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_array_fault_check_matches_row_loop(self, data):
        n = data.draw(st.integers(2, 12))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        rows = data.draw(st.lists(pair, max_size=20, unique=True))
        for _ in range(data.draw(st.integers(0, 3))):  # plant self-loops and repeats anywhere
            at = data.draw(st.integers(0, len(rows)))
            if rows and data.draw(st.booleans()):
                rows.insert(at, rows[data.draw(st.integers(0, len(rows) - 1))])
            else:
                rows.insert(at, (data.draw(st.integers(0, n - 1)),) * 2)
        ids, rows = tuple(f"n{k}" for k in range(n)), np.array(rows, dtype=np.int64).reshape(-1, 2)
        assert _first_fault(ids, rows) == _first_fault_by_rows(ids, rows)


class TestClosure:
    def test_three_level_seven_branching(self):
        # 56 root descendants plus 7 per mid node
        h = generate_synthetic_tree(3, 7)
        closure = transitive_closure(h)
        assert len(closure) == 105
        assert frozenset(closure) == brute_force_closure(h)

    def test_single_edge(self):
        h = Hierarchy([Node("a", 1, "a"), Node("b", 2, "b")], [("a", "b")])
        assert frozenset(transitive_closure(h)) == {("a", "b")}

    def test_chain(self):
        h = Hierarchy(
            [Node("a", 1, "a"), Node("b", 2, "b"), Node("c", 3, "c")],
            [("a", "b"), ("b", "c")],
        )
        assert frozenset(transitive_closure(h)) == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_idempotence(self):
        # closing an already-closed relation adds nothing
        h = generate_synthetic_tree(4, 2)
        closure = frozenset(h.closure())
        extended = set(closure)
        for u, v in closure:
            for v2, w in closure:
                if v2 == v:
                    extended.add((u, w))
        assert extended == closure

    def test_oracle_on_random_trees(self):
        for levels, branching in ((2, 5), (4, 2), (5, 1)):
            h = generate_synthetic_tree(levels, branching)
            assert frozenset(transitive_closure(h)) == brute_force_closure(h)


class TestSplit:
    def test_fraction_zero_train_is_basic(self):
        h = generate_synthetic_tree(3, 7)
        split = split_edges(h, 0.0, 3)
        assert frozenset(split.train) == set(h.edges)

    def test_five_percent_each(self):
        h = generate_synthetic_tree(4, 3)  # 102 closure, 63 non-basic
        split = split_edges(h, 0.0, 3)
        n_nonbasic = len(h.closure()) - len(h.edges)
        assert len(split.val) == int(0.05 * n_nonbasic)
        assert len(split.test) == int(0.05 * n_nonbasic)

    def test_deterministic(self):
        h = generate_synthetic_tree(4, 3)
        a = split_edges(h, 0.25, 9)
        b = split_edges(h, 0.25, 9)
        assert a.train.pairs == b.train.pairs
        assert a.val.pairs == b.val.pairs
        assert a.test.pairs == b.test.pairs

    def test_partition_properties(self):
        h = generate_synthetic_tree(4, 3)
        split = split_edges(h, 1.0, 5)
        closure = frozenset(h.closure())
        train, val, test = frozenset(split.train), frozenset(split.val), frozenset(split.test)
        assert not val & test
        assert not train & val and not train & test
        assert train | val | test == closure  # fraction=1 keeps everything
        assert set(h.edges) <= train

    def test_fraction_scales_train(self):
        h = generate_synthetic_tree(4, 3)
        sizes = [len(split_edges(h, f, 5).train) for f in (0.0, 0.25, 0.5, 1.0)]
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1]


class TestEvalNegatives:
    def test_ten_per_positive(self):
        h = generate_synthetic_tree(4, 3)
        split = split_edges(h, 0.0, 1)
        split = augment_eval_negatives(split, h.closure(), 1)
        assert len(split.val_negatives) == 10 * len(split.val)
        assert len(split.test_negatives) == 10 * len(split.test)

    def test_absent_from_closure(self):
        h = generate_synthetic_tree(4, 3)
        split = augment_eval_negatives(split_edges(h, 0.0, 1), h.closure(), 1)
        closure = frozenset(h.closure())
        for pair in split.val_negatives:
            assert pair not in closure
        for pair in split.test_negatives:
            assert pair not in closure

    def test_refs_align(self):
        h = generate_synthetic_tree(4, 3)
        split = augment_eval_negatives(split_edges(h, 0.0, 1), h.closure(), 1)
        assert len(split.val_negative_refs) == len(split.val_negatives)
        val_pairs = tuple(split.val)
        for (u, v), ref in zip(split.val_negatives, split.val_negative_refs):
            pu, pv = val_pairs[ref]
            assert u == pu or v == pv  # one side matches its positive

    def test_seed_determinism(self):
        h = generate_synthetic_tree(4, 3)
        base = split_edges(h, 0.0, 1)
        a = augment_eval_negatives(base, h.closure(), 4)
        b = augment_eval_negatives(base, h.closure(), 4)
        assert a.val_negatives.pairs == b.val_negatives.pairs
        assert a.test_negatives.pairs == b.test_negatives.pairs


class TestRoundTrip:
    def test_hierarchy_tsv(self, tmp_path):
        h = generate_synthetic_tree(3, 4)
        save_hierarchy(h, tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
        h2 = load_hierarchy(tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
        assert h2.nodes == h.nodes
        assert h2.edges == h.edges

    def test_split_tsv(self, tmp_path):
        h = generate_synthetic_tree(4, 3)
        split = augment_eval_negatives(split_edges(h, 0.25, 2), h.closure(), 2)
        save_split(split, tmp_path)
        loaded = load_split(tmp_path, h)
        for name in ("train", "val", "test", "val_negatives", "test_negatives"):
            assert getattr(loaded, name).rows.tolist() == getattr(split, name).rows.tolist()
        assert loaded.train.pairs == split.train.pairs
        assert loaded.val.pairs == split.val.pairs
        assert loaded.test.pairs == split.test.pairs
        assert loaded.val_negatives.pairs == split.val_negatives.pairs
        assert loaded.val_negative_refs == split.val_negative_refs
        assert loaded.test_negatives.pairs == split.test_negatives.pairs

    def test_ids_keep_characters_other_line_splitters_break_at(self, tmp_path):
        ids = ["r\u2028", "r\u2028.\x85", "r\u2028.\x0b\x1c"]
        h = Hierarchy([Node(ids[0], 1, "root\x0c"), Node(ids[1], 2, "a"), Node(ids[2], 2, "")],
                      [(ids[0], ids[1]), (ids[0], ids[2])])
        save_hierarchy(h, tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
        h2 = load_hierarchy(tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
        assert (h2.nodes, h2.edges) == (h.nodes, h.edges)

    def test_crlf_tables_load(self, tmp_path):
        h = generate_synthetic_tree(3, 2)
        save_hierarchy(h, tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
        for name in ("nodes.tsv", "edges.tsv"):
            path = tmp_path / name
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        h2 = load_hierarchy(tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
        assert (h2.nodes, h2.edges) == (h.nodes, h.edges)

    def test_level_that_is_not_an_integer(self, tmp_path):
        nodes = tmp_path / "nodes.tsv"
        nodes.write_text("r\t1\tr\n\nr.0\ttwo\tr.0\n", encoding="utf-8")
        (tmp_path / "edges.tsv").write_text("r\tr.0\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_hierarchy(nodes, tmp_path / "edges.tsv")
        assert str(err.value) == f"{nodes}, line 3: 'two' is not an integer"

    @pytest.fixture
    def negatives(self, tmp_path):
        h = generate_synthetic_tree(4, 3)
        save_split(augment_eval_negatives(split_edges(h, 0.0, 1), h.closure(), 1), tmp_path)
        path = tmp_path / "eval_negatives.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == 61 and lines[1].startswith("val\t")
        return h, path, lines

    def test_split_without_its_header(self, negatives):
        h, path, lines = negatives
        path.write_text("".join(lines[1:]), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_split(path.parent, h)
        assert str(err.value).startswith(f"{path}, line 1: 'val\\t")
        assert str(err.value).endswith("is not the header 'split\\tparent_id\\tchild_id\\tpos_ref'")

    def test_split_of_an_unknown_name(self, negatives):
        h, path, lines = negatives
        path.write_text("".join([lines[0], "vall" + lines[1][3:], *lines[2:]]), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_split(path.parent, h)
        assert str(err.value) == f"{path}, line 2: split 'vall' is neither 'val' nor 'test'"

    def test_negative_that_is_a_closure_pair(self, negatives):
        h, path, lines = negatives
        path.write_text("".join([lines[0], "val\tr\tr.0\t0\n", *lines[2:]]), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_split(path.parent, h)
        assert str(err.value) == f"{path}, line 2: negative ('r', 'r.0') is a closure pair"

    @pytest.mark.parametrize("ref", ["3", "999", "-1"])
    def test_pos_ref_outside_its_positives(self, negatives, ref):
        h, path, lines = negatives
        assert (path.parent / "val_edges.tsv").read_text().count("\n") == 3
        row = lines[5].rsplit("\t", 1)[0] + f"\t{ref}\n"
        path.write_text("".join([*lines[:5], row, *lines[6:]]), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_split(path.parent, h)
        assert str(err.value) == f"{path}, line 6: pos_ref {ref} is no row of the 3 val positives"

    @pytest.mark.parametrize("name", ["train_edges", "val_edges", "test_edges"])
    def test_positive_that_is_no_closure_pair(self, negatives, name):
        h, path, _ = negatives
        path = path.parent / f"{name}.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join([*lines, "r.0\tr.1\n"]), encoding="utf-8")  # two siblings
        with pytest.raises(FormatError) as err:
            load_split(path.parent, h)
        assert str(err.value) == (
            f"{path}, line {len(lines) + 1}: positive ('r.0', 'r.1') is no closure pair"
        )

    def test_negative_that_keeps_neither_side_of_its_positive(self, negatives):
        h, path, lines = negatives
        u, v = (path.parent / "val_edges.tsv").read_text().split("\n")[0].split("\t")
        assert lines[1].endswith("\t0\n")  # line 2 corrupts val positive 0
        # the positive reversed: no closure pair, and the same labels on the other sides
        path.write_text("".join([lines[0], f"val\t{v}\t{u}\t0\n", *lines[2:]]), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_split(path.parent, h)
        assert str(err.value) == (
            f"{path}, line 2: negative ({v!r}, {u!r}) keeps neither side of val positive 0, "
            f"({u!r}, {v!r})"
        )

    @pytest.mark.parametrize("name", ["train_edges", "val_edges", "test_edges", "eval_negatives"])
    def test_repeated_pair_names_both_lines(self, negatives, name):
        h, path, _ = negatives
        path = path.parent / f"{name}.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        at = 1 if name == "eval_negatives" else 0  # the first pair, below any header
        path.write_text("".join([*lines[: at + 1], lines[at], *lines[at + 1 :]]), encoding="utf-8")
        u, v = lines[at].rstrip("\n").split("\t")[at : at + 2]
        with pytest.raises(FormatError) as err:
            load_split(path.parent, h)
        assert str(err.value) == (
            f"{path}, lines {at + 1} and {at + 2}: duplicate edge ({u!r}, {v!r})"
        )

    @pytest.mark.parametrize("name", ["train_edges", "val_edges", "test_edges", "eval_negatives"])
    def test_self_loop_names_its_line(self, negatives, name):
        h, path, _ = negatives
        path = path.parent / f"{name}.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        loop = "test\tr.1\tr.1\t0\n" if name == "eval_negatives" else "r.1\tr.1\n"
        path.write_text("".join([*lines, loop]), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_split(path.parent, h)
        assert str(err.value) == f"{path}, line {len(lines) + 1}: self-loop edge ('r.1', 'r.1')"


# ---------------------------------------------------------------------------
# The integer tree table against the string walks it replaced
# ---------------------------------------------------------------------------


def ref_transitive_closure(h: Hierarchy) -> tuple:
    """Per-node DFS over the children, nodes and descendants in id order."""
    pairs = []
    for n in sorted(h.nodes, key=lambda x: x.node_id):
        stack = list(h.children(n.node_id))
        seen = set()
        while stack:
            cur = stack.pop()
            seen.add(cur)
            stack.extend(h.children(cur))
        pairs.extend((n.node_id, d) for d in sorted(seen))
    return tuple(pairs)


def ref_split_edges(h: Hierarchy, fraction: float, seed: int) -> tuple:
    """Train, val and test id pairs of ``split_edges`` as a walk over the string closure."""
    basic = set(h.edges)
    nonbasic = [e for e in ref_transitive_closure(h) if e not in basic]
    order = np.random.default_rng(seed).permutation(len(nonbasic))
    n_eval = int(len(nonbasic) * 0.05)
    rest = order[2 * n_eval :]
    extra = [nonbasic[i] for i in rest[: int(len(rest) * fraction)]]
    return (
        tuple(sorted(basic | set(extra))),
        tuple(sorted(nonbasic[i] for i in order[:n_eval])),
        tuple(sorted(nonbasic[i] for i in order[n_eval : 2 * n_eval])),
    )


def ref_ancestors(h: Hierarchy, node_id: str) -> tuple:
    out = []
    cur = h.parent(node_id)
    while cur is not None:
        out.append(cur)
        cur = h.parent(cur)
    return tuple(out)


def ref_leaf_descendants(h: Hierarchy, node_id: str) -> tuple:
    if h.node(node_id).level == h.level_count:
        return (node_id,)
    out = []
    stack = list(h.children(node_id))
    while stack:
        cur = stack.pop()
        if h.node(cur).level == h.level_count:
            out.append(cur)
        else:
            stack.extend(h.children(cur))
    return tuple(sorted(out))


def ref_level_truth(h: Hierarchy, features, idx) -> np.ndarray:
    out = np.empty((len(idx), h.level_count), dtype=object)
    for row, i in enumerate(idx):
        leaf = features.leaf_labels[i]
        out[row] = [*reversed(ref_ancestors(h, leaf)), leaf]
    return out


def ref_instance_positive_edges(h: Hierarchy, features, idx) -> list:
    out = []
    for i in idx:
        leaf = features.leaf_labels[i]
        for anc in (leaf, *ref_ancestors(h, leaf)):
            out.append((anc, features.instance_ids[i]))
    return out


def ref_index_chain(h: Hierarchy):
    """``HierarchyIndex``'s position, parent and leaf-path tables by parent lookups."""
    levels = [
        tuple(sorted(n.node_id for n in h.nodes if n.level == lvl))
        for lvl in range(1, h.level_count + 1)
    ]
    pos_in_level = {nid: pos for members in levels for pos, nid in enumerate(members)}
    parent_pos = [
        np.array([pos_in_level[h.parent(c)] for c in members], dtype=np.int64)
        for members in levels[1:]
    ]
    path = [np.arange(len(levels[-1]))]
    for pp in reversed(parent_pos):
        path.insert(0, pp[path[0]])
    return levels, pos_in_level, parent_pos, np.stack(path, axis=1)


@st.composite
def uneven_forests(draw):
    """1-4 levels, 1-3 roots, childless nodes above the deepest level, and
    ids (unpadded, so string and numeric order differ) shuffled against level order."""
    levels = [list(range(draw(st.integers(1, 3))))]
    parent = {}
    for _ in range(draw(st.integers(0, 3))):
        below = []
        for j, p in enumerate(levels[-1]):
            for _ in range(draw(st.integers(1 if j == 0 else 0, 3))):
                child = len(levels[0]) + len(parent)
                parent[child] = p
                below.append(child)
        levels.append(below)
    count = sum(len(level) for level in levels)
    name = draw(st.permutations([f"n{k}" for k in range(count)]))
    nodes = [Node(name[k], depth + 1, name[k]) for depth, ks in enumerate(levels) for k in ks]
    edges = [(name[p], name[c]) for c, p in parent.items()]
    return Hierarchy(draw(st.permutations(nodes)), draw(st.permutations(edges)))


class TestTreeTable:
    @settings(max_examples=150, deadline=None)
    @given(uneven_forests(), st.data())
    def test_views_match_string_walks(self, h, data):
        ids = tuple(sorted(n.node_id for n in h.nodes))
        assert h.ids == ids
        assert transitive_closure(h).pairs == ref_transitive_closure(h)
        for r, nid in enumerate(ids):
            path = (*reversed(ref_ancestors(h, nid)), nid)
            assert h.level_of[r] == h.node(nid).level == len(path)
            assert h.anc[r].tolist() == [ids.index(a) for a in path] + [-1] * (
                h.level_count - len(path)
            )
            assert h.ancestors(nid) == ref_ancestors(h, nid)

        levels, pos_in_level, parent_pos, leaf_path = ref_index_chain(h)
        for lvl, members in enumerate(levels, 1):
            assert h.level_members(lvl) == members
        index = HierarchyIndex(h)
        assert index.pos_in_level == pos_in_level
        assert len(index.parent_pos) == len(parent_pos)
        for got, want in zip(index.parent_pos, parent_pos):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        np.testing.assert_array_equal(index.leaf_path, leaf_path)
        assert index.leaf_path.dtype == leaf_path.dtype

        row = {nid: r for r, nid in enumerate(ids)}
        closure = ref_transitive_closure(h)
        assert h.closure_rows.dtype == np.int64 and h.closure_rows.shape == (len(closure), 2)
        assert h.closure_rows.tolist() == [[row[u], row[v]] for u, v in closure]
        assert not h.closure_rows.flags.writeable
        fraction = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="fraction")
        seed = data.draw(st.integers(0, 99), label="seed")
        split = split_edges(h, fraction, seed)
        got = (split.train.pairs, split.val.pairs, split.test.pairs)
        assert got == ref_split_edges(h, fraction, seed)
        graph = _Graph(h, h.closure_rows)
        assert graph.n_labels == graph.n_total == len(ids)
        assert len(graph.levels) == len(levels)
        for got, members in zip(graph.levels, levels):
            want = np.array([row[m] for m in members], dtype=np.int64)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype

        leaves = data.draw(st.lists(st.sampled_from(levels[-1]), min_size=1, max_size=6))
        features = FeatureMatrix(
            tuple(f"i{k}" for k in range(len(leaves))), np.zeros((len(leaves), 1)), tuple(leaves)
        )
        idx = data.draw(st.lists(st.integers(0, len(leaves) - 1), max_size=8))
        truth = level_truth(h, features, idx)
        want = ref_level_truth(h, features, idx)
        assert truth.dtype == object and truth.shape == want.shape
        assert truth.tolist() == want.tolist()
        got = instance_positive_rows(h, features, idx)
        edges = ref_instance_positive_edges(h, features, idx)
        assert got.dtype == np.int64 and got.shape == (len(edges), 2)
        # the k-th instance of ``idx`` is graph row len(ids) + k, h.level_count edges each
        k = np.arange(len(edges)) // h.level_count
        assert got.tolist() == [[row[a], len(ids) + j] for (a, _), j in zip(edges, k.tolist())]
        assert [features.instance_ids[idx[j]] for j in k] == [i for _, i in edges]
        if len(idx):
            np.testing.assert_array_equal(
                index.tau_from_labels(truth), [[pos_in_level[t] for t in row] for row in want]
            )

    def test_ancestors_of_unknown_id_raises(self):
        with pytest.raises(KeyError):
            generate_synthetic_tree(2, 2).ancestors("zz")

    @pytest.mark.parametrize(
        "leaf, message",
        [("zz", "leaf label 'zz' not in the hierarchy"),
         ("r.1", "leaf label 'r.1' is not at the deepest level")],
    )
    def test_level_truth_names_a_leaf_off_the_deepest_level(self, leaf, message):
        h = generate_synthetic_tree(3, 2)
        features = FeatureMatrix(("a", "b"), np.zeros((2, 1)), ("r.0.0", leaf))
        np.testing.assert_array_equal(level_truth(h, features, [0]), [["r", "r.0", "r.0.0"]])
        for call in (level_truth, instance_positive_rows):
            with pytest.raises(ValueError) as err:
                call(h, features, [0, 1])
            assert str(err.value) == message
        with pytest.raises(ValueError, match=message):
            features.leaf_rows(h)


# ---------------------------------------------------------------------------
# The row split against the string split it replaced
# ---------------------------------------------------------------------------


def ref_corrupt_eval_side(pos, corrupt_u, pool, closure, taken, rng, count) -> list:
    """Up to ``count`` id pairs that replace one side of ``pos`` by a draw from
    ``pool``, rejected against sets of id pairs."""
    out = []
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
            break
    return out


def ref_eval_negatives(positives, closure, rng) -> tuple:
    """One split's negative id pairs and pos_refs, drawn over id strings."""
    nodes = sorted({n for pair in closure for n in pair})
    taken, pairs, refs = set(), [], []
    for idx, pos in enumerate(positives):
        got = []
        for corrupt_u in (True, False):
            got.extend(ref_corrupt_eval_side(pos, corrupt_u, nodes, closure, taken, rng, 5))
        for corrupt_u in (True, False):
            if len(got) >= 10:
                break
            got.extend(
                ref_corrupt_eval_side(pos, corrupt_u, nodes, closure, taken, rng, 10 - len(got))
            )
        if len(got) < 10:
            raise SamplingError(f"no non-closure corruption for {pos} after {RETRY_CAP} retries")
        pairs.extend(got)
        refs.extend([idx] * len(got))
    return pairs, refs


def ref_save_split(h: Hierarchy, fraction: float, seed: int, out) -> None:
    """The split files of ``h`` as the string split wrote them."""
    train, val, test = ref_split_edges(h, fraction, seed)
    closure = set(ref_transitive_closure(h))
    rng = np.random.default_rng(seed)
    negatives = [("split", "parent_id", "child_id", "pos_ref")]
    for name, positives in (("val", val), ("test", test)):
        pairs, refs = ref_eval_negatives(positives, closure, rng)
        negatives += [(name, u, v, str(r)) for (u, v), r in zip(pairs, refs)]
    for name, pairs in (("train", train), ("val", val), ("test", test)):
        write_tsv(out / f"{name}_edges.tsv", pairs)
    write_tsv(out / "eval_negatives.tsv", negatives)


SPLIT_TABLES = ("train_edges.tsv", "val_edges.tsv", "test_edges.tsv", "eval_negatives.tsv")
SPLIT_SETS = ("train", "val", "test", "val_negatives", "test_negatives")


class TestSplitIdentity:
    @settings(max_examples=150, deadline=None)
    @given(uneven_forests(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_split_files_match_the_string_split(self, h, fraction, seed):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new"), Path(tmp, "old")
            new.mkdir(), old.mkdir()
            try:
                ref_save_split(h, fraction, seed, old)
            except SamplingError as exc:
                with pytest.raises(SamplingError) as err:
                    augment_eval_negatives(split_edges(h, fraction, seed), h.closure(), seed)
                assert str(err.value) == str(exc)
                return
            split = augment_eval_negatives(split_edges(h, fraction, seed), h.closure(), seed)
            save_split(split, new)
            for name in SPLIT_TABLES:
                assert (new / name).read_bytes() == (old / name).read_bytes(), name
            loaded = load_split(new, h)
            for name in SPLIT_SETS:
                got, want = getattr(loaded, name).rows, getattr(split, name).rows
                assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
            assert loaded.val_negative_refs == split.val_negative_refs
            assert loaded.test_negative_refs == split.test_negative_refs
