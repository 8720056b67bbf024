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
        for query in (t.is_leaf, t.children_all_leaves, t.path_to):
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
        for node in (1, -1, t.node_count):  # a non-leaf, and ids on either side of the range
            with pytest.raises(TopologyError, match=f"node {node} is not a leaf"):
                t.leaf_index(node)

    def test_child_index_is_the_position_among_the_nodes_children(self):
        t = build_uniform_tree(3, 2)
        assert [t.child_index(0, c) for c in (1, 2, 3)] == [0, 1, 2]
        assert [t.child_index(2, c) for c in (7, 8, 9)] == [0, 1, 2]
        chain = build_chain_tree(3)  # node i's children: (leaf, next node); last: two leaves
        assert [chain.child_index(0, 3), chain.child_index(0, 1)] == [0, 1]
        assert [chain.child_index(1, 4), chain.child_index(1, 2)] == [0, 1]
        assert [chain.child_index(2, 5), chain.child_index(2, 6)] == [0, 1]

    @pytest.mark.parametrize("node", [-1, -4, 7, 99, 4])  # negative, out of range, a leaf
    def test_child_index_needs_a_non_leaf_node(self, node):
        with pytest.raises(TopologyError, match=f"^node {node} is not a non-leaf node$"):
            build_uniform_tree(2, 2).child_index(node, 1)

    @pytest.mark.parametrize("node, child", [(0, 3), (0, 0), (1, 5), (2, 3), (0, -1)])
    def test_child_index_needs_an_edge(self, node, child):
        with pytest.raises(TopologyError, match=fr"^\({node},{child}\) is not an edge$"):
            build_uniform_tree(2, 2).child_index(node, child)


@pytest.mark.parametrize("tree", [
    build_uniform_tree(3, 2),
    build_chain_tree(4),
    TreeTopology(((1, 2, 3), (4, 5), (), (6,), (), (), (7, 8), (), ())),
], ids=["uniform", "chain", "ragged"])
def test_leaf_pos_is_each_leafs_position_and_minus_one_elsewhere(tree):
    pos = {leaf: k for k, leaf in enumerate(tree.leaves)}
    assert tree.leaf_pos == tuple(pos.get(node, -1) for node in range(tree.node_count))
    assert all(tree.leaf_index(leaf) == k for leaf, k in pos.items())


def test_path_to_runs_from_the_root_down_to_the_node():
    uniform = build_uniform_tree(2, 2)
    assert [uniform.path_to(n) for n in (0, 1, 3, 5, 6)] == [
        (0,), (0, 1), (0, 1, 3), (0, 2, 5), (0, 2, 6)]
    chain = build_chain_tree(3)  # node i's children: (leaf, next node); last: two leaves
    assert [chain.path_to(n) for n in (3, 4, 2, 5, 6)] == [
        (0, 3), (0, 1, 4), (0, 1, 2), (0, 1, 2, 5), (0, 1, 2, 6)]
    ragged = TreeTopology(((3, 1), (), (5, 4), (2,), (), ()))  # ids out of order
    assert [ragged.path_to(n) for n in (0, 1, 3, 2, 4, 5)] == [
        (0,), (0, 1), (0, 3), (0, 3, 2), (0, 3, 2, 4), (0, 3, 2, 5)]
    for tree in (uniform, chain, ragged):
        for node in range(tree.node_count):
            path = tree.path_to(node)
            assert len(path) == tree.depth_of[node] + 1
            assert all(down in tree.children[up] for up, down in zip(path, path[1:]))


def test_first_slot_gives_each_node_the_slots_of_its_children_in_order():
    uniform = build_uniform_tree(3, 2)
    assert uniform.first_slot == (0, 3, 6, 9, 12) + (12,) * 9
    chain = build_chain_tree(3)  # node i's children: (leaf, next node); last: two leaves
    assert chain.first_slot == (0, 2, 4, 6, 6, 6, 6, 6)
    ragged = TreeTopology(((3, 1), (), (5, 4), (2,), (), ()))  # ids out of order
    assert ragged.first_slot == (0, 2, 2, 4, 5, 5, 5)
    for tree in (uniform, chain, ragged):
        by_slot = [child for kids in tree.children for child in kids]  # every node but the root
        for node, kids in enumerate(tree.children):  # a leaf's range is empty
            assert by_slot[tree.first_slot[node]:tree.first_slot[node + 1]] == list(kids)
        assert len(tree.first_slot) == tree.node_count + 1
        assert tree.first_slot[-1] == tree.node_count - 1 == len(by_slot)


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
