"""Single-run simulation engine.

Each round a job enters at the root and is forwarded child-by-child until
it reaches a leaf, whose cost for that round is the system's realized cost.
The engine draws the full leaf-cost vector exactly once per round; the same
draw feeds both the policies (as bandit or one-hop feedback) and the regret
ledger, so regret is measured on the sample path the algorithm actually saw.
Draws are fetched a block of rounds at a time, which changes no value: a
block of draws from a numpy Generator equals the same draws made one call
at a time, and the ledger adds the block's rows in round order.

Two feedback models:

- END_TO_END_BANDIT: only nodes on the job's path learn anything, and all
  they see is the single realized leaf cost. The receive probability v is
  propagated multiplicatively down the path (v[root] = 1, v[child] =
  v[node] * x[node][child], with x[node][child] read from the node's
  ``prob(child)``) and handed to each path node's update.
- COMPLETE_ONE_HOP: every non-leaf selects a child every round, would-be
  costs y propagate bottom-up through the selections, and every node
  observes y for ALL its children.

Communication per hop is two scalars (v down, cost up); the recursion's
call boundary stands in for the message exchange.

Randomness comes from one environment stream and one stream per non-leaf,
each keyed by the run's entropy (``rng_streams``). The PCG64 seed states of
all non-leaves are computed at once per replication by a copy of numpy's
SeedSequence hash, which the tests pin to numpy's; a node's generator is
built from its state at the node's first visit.

Policies that require expected costs (the oracle) get them from one
recursion of w from the root over the start-of-round distributions, run
after any segment restart and before the trace and the routing of each
round in which its inputs may have changed: the environment returned a new
expected-cost array, or some non-leaf's distribution is not fixed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from treebandit.env import CostEnvironment
from treebandit.policy import ModeDraw, NodePolicy, anytime_segment
from treebandit.topology import TreeTopology


class EngineError(ValueError):
    """Raised for inconsistent run setups or out-of-range costs."""


class FeedbackModel(Enum):
    COMPLETE_ONE_HOP = "one_hop"
    END_TO_END_BANDIT = "bandit"


@dataclass(frozen=True)
class RoundOutcome:
    """What one round did: the routed path, the realized cost, the receive
    probabilities along the path (index 0 is the root's, always 1), and the
    per-path-node mode draws (bandit runs only)."""

    path: tuple[int, ...]
    realized_cost: float
    receive_probs: tuple[float, ...]
    modes: tuple[ModeDraw, ...] | None


class RegretLedger:
    """Cumulative algorithm cost vs cumulative cost of every leaf.

    Regret is measured against the best single leaf in hindsight on the
    same realized draws the algorithm was fed.
    """

    def __init__(self, n_leaves: int) -> None:
        self.cumulative_algorithm_cost = 0.0
        self.cumulative_leaf_costs = np.zeros(n_leaves)
        self.rounds_elapsed = 0

    def record(self, realized_costs: list[float], leaf_costs: np.ndarray) -> None:
        """Add a block of rounds: ``realized_costs[i]`` and row ``i`` of
        ``leaf_costs`` belong to the same round.

        Both totals are summed round by round, in order, so they hold the
        same floats whatever the block size. Adding ``leaf_costs.sum(axis=0)``
        to the running total would not: deadline costs are not integers.
        """
        total = self.cumulative_algorithm_cost
        for cost in realized_costs:
            total += cost
        self.cumulative_algorithm_cost = total
        running = np.empty((len(leaf_costs) + 1, self.cumulative_leaf_costs.size))
        running[0] = self.cumulative_leaf_costs
        running[1:] = leaf_costs
        np.add.accumulate(running, axis=0, out=running)
        self.cumulative_leaf_costs = running[-1].copy()
        self.rounds_elapsed += len(leaf_costs)

    def optimal_stationary_cost(self) -> float:
        return float(self.cumulative_leaf_costs.min())

    def regret(self) -> float:
        return self.cumulative_algorithm_cost - self.optimal_stationary_cost()


@dataclass
class TraceRecorder:
    """Windowed mean selection probabilities for watched (node, child) pairs.

    Accumulates the probability in force at the start of each round and
    emits one row per watched pair every ``window`` rounds:
    (window_end_round, node_id, child_node_id, mean probability). Only full
    windows are emitted. It is built from ``window`` and ``watched`` alone;
    ``rows`` collects the output.
    """

    window: int
    watched: tuple[tuple[int, int], ...]  # (node id, child node id)
    rows: list[tuple[int, int, int, float]] = field(init=False, default_factory=list)
    _acc: list[float] = field(init=False)
    _count: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise EngineError(f"trace window must be >= 1, got {self.window}")
        self._acc = [0.0] * len(self.watched)

    def observe(self, t: int, probs) -> None:
        for k, p in enumerate(probs):
            self._acc[k] += p
        self._count += 1
        if self._count == self.window:
            for (node, child), total in zip(self.watched, self._acc):
                self.rows.append((t, node, child, total / self.window))
            self._acc = [0.0] * len(self.watched)
            self._count = 0


# A round's environment costs come from a block of this many leaf costs
# (rows = rounds); node streams refill in buffers that double up to the cap.
# Both bound the memory a run holds at a few hundred KiB.
BLOCK_ELEMENTS = 16384
NODE_BUFFER_FIRST = 8
NODE_BUFFER_CAP = 256


def _words(ints) -> list[int]:
    """The uint32 words SeedSequence reads from ints: each int's little-endian words, 0 as [0]."""
    words = []
    for n in map(int, ints):
        if n < 0:
            raise EngineError(f"stream keys must be non-negative, got {n}")
        words += [(n >> s) & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32)]
    return words


def _generator(words: list[int]) -> np.random.Generator:
    """``default_rng(key)`` for the key whose words are ``words``, minus its list
    coercion. The environment stream is seeded here; tests patch it to record the key."""
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) at its default pool size
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# the values generate_state's hash constant takes over its 8 uint32 words
_STATE_CONSTS = np.array(
    [_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(2 * _POOL_SIZE + 1)],
    dtype=np.uint32,
)


def _times(x, c: int):
    """x * c mod 2**32, for a Python int or a uint32 array x (which wraps by itself)."""
    return x * c & _MASK32 if type(x) is int else x * c


def _mix(x, y):
    v = _times(x, _MIX_MULT_L) - _times(y, _MIX_MULT_R)
    if type(v) is int:
        v &= _MASK32
    return v ^ v >> _XSHIFT


def _seed_states(base: list[int], nodes) -> np.ndarray:
    """Row k is ``SeedSequence(base + [nodes[k]]).generate_state(4, np.uint64)``,
    the PCG64 seed of that key, for every k in one pass.

    This is SeedSequence's ``mix_entropy`` and ``generate_state``. The words
    that every key shares are mixed once as Python ints, each product masked
    to 32 bits; only the node word is an array, and uint32 arithmetic wraps.
    """
    key = [*base, np.array(nodes, dtype=np.uint32)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = _times(value, hash_const)
        return value ^ value >> _XSHIFT

    pool = [hashmix(key[i] if i < len(key) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in key[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # the node word has reached every pool word, so each is an array by now;
    # generate_state cycles twice through the pool and pairs the words little-endian
    state = np.stack(pool * 2, axis=1)
    state ^= _STATE_CONSTS[:-1]
    state *= _STATE_CONSTS[1:]
    state ^= state >> _XSHIFT
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_state_type() -> type:
    """The seed sequence stand-in that node streams build ``PCG64`` from.
    Defined at first use, so that importing the package leaves numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        """Hands ``PCG64`` a seed state computed by ``_seed_states``."""

        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            # what PCG64 asks for; any other request would need another hash
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise EngineError(
                    f"a node seed state is 4 uint64 words, asked for {n_words} of {np.dtype(dtype)}"
                )
            return self.state

    return SeedState


def _node_generator(state: np.ndarray) -> np.random.Generator:
    """The Generator of ``PCG64`` seeded with ``state``. Every node stream is
    seeded here, at its first draw; tests patch it to record the states."""
    return np.random.Generator(np.random.PCG64(_seed_state_type()(state)))


def _float_buffers(state: np.ndarray):
    """Lists of the floats that successive ``random()`` calls of the node's
    Generator return; the generator is built when the first list is asked for."""
    gen = _node_generator(state)
    size = NODE_BUFFER_FIRST
    while True:
        yield gen.random(size).tolist()
        size = min(2 * size, NODE_BUFFER_CAP)


class NodeStream:
    """A node's random stream: ``random()`` returns the next float of the
    Generator of ``PCG64`` seeded with ``state`` (a row of ``_seed_states``),
    as a Python float. The generator is built at the first call, so a node
    no job reaches costs no generator. ``random`` is the C-level ``__next__``
    of a chain over the buffers, so a draw resumes no Python frame."""

    __slots__ = ("random",)

    def __init__(self, state: np.ndarray) -> None:
        self.random = chain.from_iterable(_float_buffers(state)).__next__


def rng_streams(topology: TreeTopology, entropy) -> tuple[np.random.Generator, list]:
    """Environment stream plus one stream per non-leaf node: ``default_rng``
    of (entropy..., 0) and of (entropy..., 1, node id), so replays are
    bit-exact and node draws are independent of traversal order.

    The env stream is seeded through numpy's SeedSequence. The seed states of
    all node streams are computed here at once by ``_seed_states``, a copy of
    SeedSequence's hash that the tests pin to numpy's; each node's generator
    is built from its state at the node's first draw.
    """
    base = _words(entropy)
    env_rng = _generator(base + [0])
    node_rngs: list = [None] * topology.node_count
    for node, state in zip(topology.non_leaves, _seed_states(base + [1], topology.non_leaves)):
        node_rngs[node] = NodeStream(state)
    return env_rng, node_rngs


class Simulation:
    """One seeded run: topology + per-node policies + environment + model.

    Rounds run a block at a time: the environment draws the costs of up to
    ``BLOCK_ELEMENTS // n_leaves`` rounds in one call, the range check and
    the regret ledger take the whole block, and each round of the block is
    routed from its row. ``run_round`` runs a one-round block.
    """

    def __init__(
        self,
        topology: TreeTopology,
        policies: dict[int, NodePolicy],
        env: CostEnvironment,
        feedback: FeedbackModel,
        entropy=(0,),
    ) -> None:
        if env.n_leaves != len(topology.leaves):
            raise EngineError(
                f"environment has {env.n_leaves} leaves, topology has {len(topology.leaves)}"
            )
        missing = [n for n in topology.non_leaves if n not in policies]
        if missing:
            raise EngineError(f"missing policies for non-leaf nodes {missing}")
        for node in topology.non_leaves:
            pol = policies[node]
            want = len(topology.children[node])
            if pol.n_children != want:
                raise EngineError(
                    f"policy at node {node} covers {pol.n_children} children, tree has {want}"
                )
        self.topology = topology
        self.policies = dict(policies)
        self.env = env
        self.feedback = feedback
        self.ledger = RegretLedger(env.n_leaves)
        self.env_rng, self._node_rngs = rng_streams(topology, entropy)
        # flat lookups for the round loop
        self._children = topology.children
        self._pols: list = [policies.get(n) for n in range(topology.node_count)]
        self._leaf_pos = [-1] * topology.node_count
        for k, leaf in enumerate(topology.leaves):
            self._leaf_pos[leaf] = k
        order = sorted(topology.non_leaves, key=lambda n: -topology.depth_of[n])
        self._non_leaves_deep_first = tuple(order)
        self._anytime = any(policies[n].anytime for n in topology.non_leaves)
        self._oracle = frozenset(
            n for n in topology.non_leaves if policies[n].requires_expected_costs
        )
        self._all_fixed = all(policies[n].fixed for n in topology.non_leaves)
        self._refreshed = None  # the expected costs of a refresh that still holds
        if feedback is FeedbackModel.COMPLETE_ONE_HOP:
            # y holds non-leaf n's cost at n and leaf k's at node_count + k
            slot = [n if k < 0 else topology.node_count + k for n, k in enumerate(self._leaf_pos)]
            self._kid_slots = [tuple([slot[c] for c in kids]) for kids in topology.children]
            self._y = [0.0] * (topology.node_count + env.n_leaves)
            self._drawn: list = [None] * topology.node_count
        self._block_rounds = max(1, BLOCK_ELEMENTS // env.n_leaves)

    # -- per-round machinery -------------------------------------------------

    def _draw_block(self, t: int, n: int) -> np.ndarray:
        block = self.env.costs_block(t, n, self.env_rng)
        # written so that a NaN, which fails every comparison, fails the check
        if not (block.min() >= 0.0 and block.max() <= 1.0):
            bad = ~((block >= 0.0) & (block <= 1.0)).all(axis=1)
            first = t + int(np.argmax(bad))
            raise EngineError(
                f"environment produced costs outside [0,1] or NaN at round {first}"
            )
        return block

    def _w(self, node: int, expected: np.ndarray) -> float:
        """w of ``node`` under leaf means ``expected``; refreshes every oracle in its subtree."""
        kids = self._children[node]
        if not kids:
            val = float(expected[self._leaf_pos[node]])
        else:
            child_ws = [self._w(c, expected) for c in kids]
            pol = self._pols[node]
            if node in self._oracle:
                pol.set_expected_costs(child_ws)
            # left-to-right adds: sum() compensates from Python 3.12 on
            val = 0.0
            for p, w in zip(pol.distribution(), child_ws):
                val += p * w
        return val

    def conditional_expected_cost(self, node: int, t: int) -> float:
        """w[node, t]: expected realized cost of a job arriving at ``node``
        now, under every descendant's current distribution."""
        self.topology._check(node)
        self._refreshed = None  # the subtree's oracles now hold round t's costs
        return self._w(node, self.env.expected_costs(t))

    def _bandit_round(self, block: np.ndarray, i: int):
        """Route a job on the costs in block row i and update the path.

        Returns the realized cost and the hops: (node, draw, receive prob)
        for each node on the path, ending with (leaf, None, its prob)."""
        children = self._children
        pols = self._pols
        rngs = self._node_rngs
        hops = []
        node = 0
        v = 1.0
        kids = children[0]
        while kids:
            pol = pols[node]
            draw = pol.select(rngs[node])
            hops.append((node, draw, v))
            child = draw.child
            v = v * pol.prob(child)
            node = kids[child]
            kids = children[node]
        realized = block.item(i, self._leaf_pos[node])
        for hop_node, draw, own_v in hops:
            pols[hop_node].update(draw, realized, own_v)
        hops.append((node, None, v))
        return realized, hops

    def _complete_round(self, block: np.ndarray, i: int):
        """Every non-leaf selects and observes all its children's would-be
        costs (row i); returns what ``_bandit_round`` returns."""
        children = self._children
        pols = self._pols
        kid_slots = self._kid_slots
        y = self._y
        drawn = self._drawn
        y[self.topology.node_count:] = block[i].tolist()
        # children before parents, so each node copies its chosen child's final y
        for node in self._non_leaves_deep_first:
            draw = pols[node].select(self._node_rngs[node])
            drawn[node] = draw
            y[node] = y[kid_slots[node][draw.child]]
        # receive probabilities come from the distributions before any update
        hops = []
        node = 0
        v = 1.0
        kids = children[0]
        while kids:
            draw = drawn[node]
            hops.append((node, draw, v))
            v = v * pols[node].prob(draw.child)
            node = kids[draw.child]
            kids = children[node]
        hops.append((node, None, v))
        for node in self._non_leaves_deep_first:
            pols[node].observe_all([y[s] for s in kid_slots[node]])
        return y[0], hops

    def _run_block(self, t0: int, n: int, trace=None, watch_idx=()):
        """Run rounds t0..t0+n-1 on one block of environment costs; returns
        the last round's realized cost and hops."""
        block = self._draw_block(t0, n)
        bandit = self.feedback is FeedbackModel.END_TO_END_BANDIT
        route = self._bandit_round if bandit else self._complete_round
        anytime = self._anytime
        realized = []
        for i in range(n):
            t = t0 + i
            if anytime:
                m, boundary = anytime_segment(t)
                if boundary:
                    for node in self.topology.non_leaves:
                        self._pols[node].start_segment(m)
            if self._oracle:
                expected = self.env.expected_costs(t)
                if expected is not self._refreshed:
                    self._w(0, expected)
                    self._refreshed = expected if self._all_fixed else None
            if trace is not None:
                trace.observe(t, [self._pols[n].prob(j) for n, j in watch_idx])
            cost, hops = route(block, i)
            realized.append(cost)
        self.ledger.record(realized, block)
        return cost, hops

    # -- public API ------------------------------------------------------------

    def run_round(self, t: int) -> RoundOutcome:
        """Execute round t (t >= 1) and report what happened."""
        if t < 1:
            raise EngineError(f"round must be >= 1, got {t}")
        realized, hops = self._run_block(t, 1)
        modes = None
        if self.feedback is FeedbackModel.END_TO_END_BANDIT:
            modes = tuple(draw for _, draw, _ in hops[:-1])
        return RoundOutcome(
            tuple(node for node, _, _ in hops), realized, tuple(v for _, _, v in hops), modes
        )

    def run(self, T: int, trace: TraceRecorder | None = None) -> RegretLedger:
        """Execute rounds 1..T; optionally record windowed probability traces."""
        if T < 0:
            raise EngineError(f"horizon must be >= 0, got {T}")
        watch_idx = []
        for node, child in trace.watched if trace is not None else ():
            if not 0 <= node < self.topology.node_count or self._pols[node] is None:
                raise EngineError(f"watched node {node} is not a non-leaf node")
            if child not in self._children[node]:
                raise EngineError(f"watched pair ({node},{child}) is not an edge")
            watch_idx.append((node, self._children[node].index(child)))
        t = 1
        while t <= T:
            n = min(self._block_rounds, T - t + 1)
            self._run_block(t, n, trace, watch_idx)
            t += n
        return self.ledger
