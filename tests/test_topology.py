import pytest

from treebandit.topology import (
    TopologyError,
    TreeTopology,
    build_chain_tree,
    build_uniform_tree,
)


class TestUniformTree:
    def test_counts_d2_l2(self):
        t = build_uniform_tree(2, 2)
        assert t.node_count == 7
        assert len(t.leaves) == 4

    def test_counts_d4_l3(self):
        t = build_uniform_tree(4, 3)
        assert t.node_count == 85
        assert len(t.leaves) == 64

    def test_single_stage(self):
        t = build_uniform_tree(2, 1)
        assert t.node_count == 3
        assert len(t.leaves) == 2
        assert all(t.is_leaf(c) for c in t.children[0])

    def test_rejects_bad_args(self):
        with pytest.raises(TopologyError):
            build_uniform_tree(1, 2)
        with pytest.raises(TopologyError):
            build_uniform_tree(2, 0)

    @pytest.mark.parametrize("fanout,depth", [(2, 1), (2, 3), (3, 2), (4, 3)])
    def test_structure_exhaustive(self, fanout, depth):
        t = build_uniform_tree(fanout, depth)
        for i in t.non_leaves:
            assert len(t.children[i]) == fanout
        for leaf in t.leaves:
            assert t.depth_of[leaf] == depth
        assert t.depth == depth
        assert t.max_fanout == fanout
        # parent/child maps mutually consistent
        for i in range(t.node_count):
            for j in t.children[i]:
                assert t.parent[j] == i
        for j in range(1, t.node_count):
            assert j in t.children[t.parent[j]]

    def test_breadth_first_ids(self):
        t = build_uniform_tree(2, 2)
        assert t.children[0] == (1, 2)
        assert t.children[1] == (3, 4)
        assert t.children[2] == (5, 6)
        assert t.leaves == (3, 4, 5, 6)


class TestChainTree:
    def test_l2_structure(self):
        t = build_chain_tree(2)
        assert t.node_count == 5
        assert t.non_leaves == (0, 1)
        assert t.leaves == (2, 3, 4)
        assert t.children[0] == (2, 1)
        assert t.children[1] == (3, 4)

    def test_l3_structure(self):
        t = build_chain_tree(3)
        assert t.node_count == 7
        assert t.non_leaves == (0, 1, 2)
        assert t.leaves == (3, 4, 5, 6)
        assert t.children[0] == (3, 1)
        assert t.children[1] == (4, 2)
        assert t.children[2] == (5, 6)

    def test_hop_distances(self):
        assert build_chain_tree(2).depth_of[1] == 1
        assert build_chain_tree(3).depth_of[1] == 1
        t = build_chain_tree(3)
        assert t.depth_of[0] == 0
        assert t.depth_of[6] == 3

    def test_ragged_depths(self):
        t = build_chain_tree(3)
        assert t.depth == 3
        assert sorted(t.depth_of[l] for l in t.leaves) == [1, 2, 3, 3]

    def test_rejects_short_chain(self):
        with pytest.raises(TopologyError):
            build_chain_tree(1)


class TestQueries:
    def test_root_hop_zero(self):
        assert build_uniform_tree(2, 2).depth_of[0] == 0

    def test_unknown_id(self):
        t = build_uniform_tree(2, 2)
        for query in (t.is_leaf, t.children_all_leaves):
            with pytest.raises(TopologyError):
                query(7)

    def test_children_all_leaves(self):
        t = build_uniform_tree(2, 2)
        assert not t.children_all_leaves(0)
        assert t.children_all_leaves(1)
        assert t.children_all_leaves(2)

    def test_leaf_index(self):
        t = build_uniform_tree(2, 2)
        assert [t.leaf_index(l) for l in t.leaves] == [0, 1, 2, 3]
        with pytest.raises(TopologyError):
            t.leaf_index(1)

    def test_child_toward(self):
        t = build_uniform_tree(2, 2)
        assert t.child_toward(0, 3) == 0
        assert t.child_toward(0, 6) == 1
        assert t.child_toward(1, 4) == 1
        with pytest.raises(TopologyError):
            t.child_toward(1, 6)


class TestAdjacencyParsing:
    """The checks TreeTopology makes on the children lists it is given."""

    def test_ragged_allowed(self):
        t = TreeTopology(((2, 1), (3, 4), (), (), ()))
        assert t.children == build_chain_tree(2).children
        assert t.depth == 2

    def test_root_as_child(self):
        with pytest.raises(TopologyError, match="root"):
            TreeTopology(((1,), (0,)))

    def test_two_parents(self):
        with pytest.raises(TopologyError, match="two parents"):
            TreeTopology(((1, 2), (3,), (3,), ()))

    def test_unreachable(self):
        with pytest.raises(TopologyError, match="unreachable"):
            TreeTopology(((1, 2), (), (), (4,), ()))


class TestDirectConstruction:
    def test_single_node_rejected(self):
        with pytest.raises(TopologyError):
            TreeTopology(((),))

    def test_unknown_child_id(self):
        with pytest.raises(TopologyError):
            TreeTopology(((1, 5), (), ()))
