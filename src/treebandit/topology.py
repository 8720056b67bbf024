"""Rooted-tree topologies for multi-stage routing systems.

A system is a rooted tree: the root receives one job per round and every
non-leaf node forwards the job to one of its children until it reaches a
leaf, where the job is served. Node ids are dense integers in
``[0, node_count)`` with the root at id 0. ``depth`` is the number of
forwarding stages, i.e. the hop distance from the root to the deepest leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TopologyError(ValueError):
    """Raised for malformed trees or invalid builder arguments."""


@dataclass(frozen=True)
class TreeTopology:
    """Immutable rooted tree described by per-node ordered children lists.

    ``children[i]`` is the ordered tuple of child ids of node ``i`` (empty
    for leaves). Child order is significant: policies index their
    distributions by child position.
    """

    children: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...] = field(init=False, repr=False)
    depth_of: tuple[int, ...] = field(init=False, repr=False)
    leaves: tuple[int, ...] = field(init=False, repr=False)
    depth: int = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.children)
        if n < 2:
            raise TopologyError("tree needs a root with at least one child")
        parent = [-1] * n
        for i, kids in enumerate(self.children):
            for j in kids:
                if not isinstance(j, int) or not (0 <= j < n):
                    raise TopologyError(f"node {i} lists unknown child {j}")
                if j == 0:
                    raise TopologyError("root (id 0) cannot be a child")
                if parent[j] != -1:
                    raise TopologyError(f"node {j} has two parents ({parent[j]} and {i})")
                parent[j] = i
        depth_of = [-1] * n
        depth_of[0] = 0
        frontier = [0]
        seen = 1
        while frontier:
            nxt = []
            for i in frontier:
                for j in self.children[i]:
                    depth_of[j] = depth_of[i] + 1
                    nxt.append(j)
                    seen += 1
            frontier = nxt
        if seen != n:
            missing = [i for i in range(n) if depth_of[i] == -1]
            raise TopologyError(f"nodes unreachable from root: {missing}")
        leaves = tuple(i for i in range(n) if not self.children[i])
        object.__setattr__(self, "parent", tuple(parent))
        object.__setattr__(self, "depth_of", tuple(depth_of))
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "depth", max(depth_of[i] for i in leaves))

    @property
    def node_count(self) -> int:
        return len(self.children)

    @property
    def non_leaves(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.node_count) if self.children[i])

    @property
    def max_fanout(self) -> int:
        return max(len(kids) for kids in self.children if kids)

    def is_leaf(self, node: int) -> bool:
        self._check(node)
        return not self.children[node]

    def children_all_leaves(self, node: int) -> bool:
        self._check(node)
        return bool(self.children[node]) and all(
            not self.children[j] for j in self.children[node]
        )

    def leaf_index(self, leaf: int) -> int:
        """Position of ``leaf`` in the sorted leaf list (cost-vector index)."""
        try:
            return self.leaves.index(leaf)
        except ValueError:
            raise TopologyError(f"node {leaf} is not a leaf") from None

    def child_toward(self, node: int, leaf: int) -> int:
        """Child position at ``node`` whose subtree contains ``leaf``."""
        self._check(node)
        self._check(leaf)
        cur = leaf
        while self.parent[cur] not in (node, -1):
            cur = self.parent[cur]
        if self.parent[cur] != node:
            raise TopologyError(f"leaf {leaf} is not below node {node}")
        return self.children[node].index(cur)

    def _check(self, node: int) -> None:
        if not (0 <= node < self.node_count):
            raise TopologyError(f"unknown node id {node}")


def build_uniform_tree(fanout: int, depth: int) -> TreeTopology:
    """Complete tree where every non-leaf has ``fanout`` children.

    Ids are assigned breadth-first (root 0, then level by level), so node
    ``i``'s children are ``fanout*i + 1 .. fanout*i + fanout`` and the
    leaves are the last ``fanout**depth`` ids.
    """
    if fanout < 2:
        raise TopologyError(f"fanout must be at least 2, got {fanout}")
    if depth < 1:
        raise TopologyError(f"depth must be at least 1, got {depth}")
    non_leaves = (fanout**depth - 1) // (fanout - 1)
    children = [tuple(range(fanout * i + 1, fanout * i + fanout + 1)) for i in range(non_leaves)]
    children.extend(() for _ in range(fanout**depth))
    return TreeTopology(tuple(children))


def build_chain_tree(depth: int) -> TreeTopology:
    """Chain of ``depth`` binary non-leaf nodes, each shedding one leaf.

    Node ``i`` (for i < depth-1) has children ``(leaf depth+i, node i+1)``;
    the deepest node ``depth-1`` has two leaf children ``(2*depth-1,
    2*depth)``. Total ``2*depth + 1`` nodes; leaf depths are 1..depth, so
    the tree is intentionally ragged.
    """
    if depth < 2:
        raise TopologyError(f"chain depth must be at least 2, got {depth}")
    children: list[tuple[int, ...]] = []
    for i in range(depth - 1):
        children.append((depth + i, i + 1))
    children.append((2 * depth - 1, 2 * depth))
    children.extend(() for _ in range(depth + 1))
    return TreeTopology(tuple(children))
