"""Hierarchy structure, closures, splits, and negative sampling."""

import numpy as np
import pytest

from hierembed.hierarchy import (
    EdgeSet,
    Hierarchy,
    HierarchyError,
    Node,
    augment_eval_negatives,
    generate_synthetic_tree,
    load_hierarchy,
    load_split,
    sample_negative_pick_per_level,
    save_hierarchy,
    save_split,
    split_edges,
    transitive_closure,
)


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
        assert h.roots() == ("a", "b")

    def test_edge_set_rejects_duplicates_and_loops(self):
        with pytest.raises(HierarchyError):
            EdgeSet((("a", "b"), ("a", "b")))
        with pytest.raises(HierarchyError):
            EdgeSet((("a", "a"),))

    def test_leaf_descendants(self):
        h = generate_synthetic_tree(3, 2)
        assert len(h.leaf_descendants("r")) == 4
        assert h.leaf_descendants("r.0") == ("r.0.0", "r.0.1")


class TestClosure:
    def test_three_level_seven_branching(self):
        # 56 root descendants plus 7 per mid node
        h = generate_synthetic_tree(3, 7)
        closure = transitive_closure(h)
        assert len(closure) == 105
        assert closure.to_set() == brute_force_closure(h)

    def test_single_edge(self):
        h = Hierarchy([Node("a", 1, "a"), Node("b", 2, "b")], [("a", "b")])
        assert transitive_closure(h).to_set() == {("a", "b")}

    def test_chain(self):
        h = Hierarchy(
            [Node("a", 1, "a"), Node("b", 2, "b"), Node("c", 3, "c")],
            [("a", "b"), ("b", "c")],
        )
        assert transitive_closure(h).to_set() == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_idempotence(self):
        # closing an already-closed relation adds nothing
        h = generate_synthetic_tree(4, 2)
        closure = h.closure_set()
        extended = set(closure)
        for u, v in closure:
            for v2, w in closure:
                if v2 == v:
                    extended.add((u, w))
        assert extended == closure

    def test_oracle_on_random_trees(self):
        for levels, branching in ((2, 5), (4, 2), (5, 1)):
            h = generate_synthetic_tree(levels, branching)
            assert transitive_closure(h).to_set() == brute_force_closure(h)


class TestSplit:
    def test_fraction_zero_train_is_basic(self):
        h = generate_synthetic_tree(3, 7)
        split = split_edges(h, 0.0, 3)
        assert split.train.to_set() == set(h.edges)

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
        closure = h.closure_set()
        train, val, test = split.train.to_set(), split.val.to_set(), split.test.to_set()
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
        closure = h.closure_set()
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


class TestPickPerLevel:
    def test_one_per_level(self):
        h = generate_synthetic_tree(4, 3)
        rng = np.random.default_rng(0)
        negs = sample_negative_pick_per_level(("r.0", "r.0.1.2"), "corrupt-u", h, rng)
        # corrupting u: one u' per level; all absent from the closure
        levels = [h.node(u).level for u, _ in negs]
        assert len(levels) == len(set(levels))
        assert len(negs) >= h.level_count - 1
        closure = h.closure_set()
        for pair in negs:
            assert pair not in closure

    def test_corrupt_v_side(self):
        h = generate_synthetic_tree(4, 3)
        rng = np.random.default_rng(0)
        negs = sample_negative_pick_per_level(("r.0", "r.0.1.2"), "corrupt-v", h, rng)
        assert all(u == "r.0" for u, _ in negs)
        closure = h.closure_set()
        for pair in negs:
            assert pair not in closure

    def test_degenerate_single_level(self):
        nodes = [Node("a", 1, "a"), Node("b", 1, "b"), Node("c", 1, "c")]
        h = Hierarchy(nodes, [])
        rng = np.random.default_rng(0)
        negs = sample_negative_pick_per_level(("a", "b"), "corrupt-u", h, rng)
        assert len(negs) <= 1

    def test_bad_side_rejected(self):
        h = generate_synthetic_tree(2, 2)
        with pytest.raises(ValueError):
            sample_negative_pick_per_level(("r", "r.0"), "corrupt-w", h, np.random.default_rng(0))


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
        loaded = load_split(tmp_path)
        assert loaded.train.pairs == split.train.pairs
        assert loaded.val.pairs == split.val.pairs
        assert loaded.test.pairs == split.test.pairs
        assert loaded.val_negatives.pairs == split.val_negatives.pairs
        assert loaded.val_negative_refs == split.val_negative_refs
        assert loaded.test_negatives.pairs == split.test_negatives.pairs
