"""Single-run simulation engine.

Each round a job enters at the root and is forwarded child-by-child until
it reaches a leaf, whose cost for that round is the system's realized cost.
The engine draws the full leaf-cost vector exactly once per round; the same
draw feeds both the policies (as bandit or one-hop feedback) and the regret
ledger, so regret is measured on the sample path the algorithm actually saw.
Draws are fetched a block of rounds at a time, which changes no value: a
block of draws from a numpy Generator equals the same draws made one call
at a time, and the ledger adds the block's rows in round order (numpy's
reduce down the rows of one matrix, whose order a test pins).

Two feedback models:

- END_TO_END_BANDIT: only nodes on the job's path learn anything, and all
  they see is the single realized leaf cost, handed up only when it is
  nonzero: an update with cost 0 changes nothing. The receive probability v
  is propagated multiplicatively down the path (v[root] = 1, v[child] =
  v[node] * x[node][child], with x[node][child] read from the node's
  ``prob(child)`` before its own update) and handed to each path node's
  update.
- COMPLETE_ONE_HOP: every non-leaf selects a child every round, would-be
  costs y propagate bottom-up through the selections, and every node
  observes y for ALL its children: one slice of the round's y, a list with
  a slot per node in which each non-leaf's children sit side by side.

Communication per hop is two scalars (v down, cost up). A round's route
returns only the realized cost and keeps each non-leaf's draw in one
per-node list; ``run_round`` reads the path from those draws and the
receive probabilities from a one-round trace of every edge.

Randomness comes from one environment stream and one stream per non-leaf,
each keyed by the run's entropy (``rng_streams``). The PCG64 seed states of
all non-leaves are computed at once per replication by a copy of numpy's
SeedSequence hash, which the tests pin to numpy's, and every non-leaf's
generator is built from its state with its stream, when the ``Simulation`` is.

``run`` walks the blocks in one loop, and each block, drawn and checked by
``_draw_block``, is run either by a compiled round (``_round.c``, built and
loaded by ``_round.load``) or row by row on the Python route. The compiled
rounds take untraced blocks when every non-leaf is exactly an ``EpsilonExp3``
or an ``Exp3Baseline`` (bandit feedback) or a ``NormalizedEG`` (one-hop
feedback): one C call per block, with the same node draws and the same floats
in the same order, so the outputs are the same bytes. ``run_round``, traced
runs, any other policy, and a run whose library cannot be built take the
Python route, which is the reference; once it has run, a ``Simulation`` keeps
it, since its node streams hold buffered floats.

Policies that require expected costs (the oracle) get them from one
recursion of w from the root over the start-of-round distributions, run
after any segment restart and before the trace and the routing of each
round in which its inputs may have changed: the environment returned a new
expected-cost array, or some non-leaf's distribution is not fixed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from treebandit import _round
from treebandit.env import CostEnvironment
from treebandit.policy import (
    PROB_FLOOR,
    FeedbackModel,
    ModeDraw,
    NodePolicy,
    anytime_segment,
)
from treebandit.topology import TreeTopology


class EngineError(ValueError):
    """Raised for inconsistent run setups or out-of-range costs."""


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

        The totals are summed round by round, in order, so they hold the same
        floats whatever the block size. Adding ``leaf_costs.sum(axis=0)`` to
        the running total would not: deadline costs are not integers. They are
        one matrix, laid out like the compiled round's totals, reduced down its
        rows: the running totals (algorithm cost, then each leaf's) on top of
        one row per round (realized cost, then the leaf costs). With two or
        more columns, which it always has, numpy's reduce adds the rows in order.
        """
        rows = np.empty((len(leaf_costs) + 1, self.cumulative_leaf_costs.size + 1))
        rows[0, 0] = self.cumulative_algorithm_cost
        rows[0, 1:] = self.cumulative_leaf_costs
        rows[1:, 0] = realized_costs
        rows[1:, 1:] = leaf_costs
        totals = np.add.reduce(rows, axis=0)
        self.cumulative_algorithm_cost = float(totals[0])
        self.cumulative_leaf_costs = totals[1:]
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
# (rows = rounds); a node stream refills this many floats at a time, on the
# Python route only (the compiled round draws from the Generator itself).
# Both bound the memory a run holds at a few hundred KiB.
BLOCK_ELEMENTS = 16384
NODE_BUFFER = 256


def _words(ints) -> list[int]:
    """The uint32 words SeedSequence reads from ints: each int's little-endian words, 0 as [0]."""
    words = []
    for n in map(int, ints):
        if n < 0:
            raise EngineError(f"stream keys must be non-negative, got {n}")
        words += [(n >> s) & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32)]
    return words


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
    seeded here, when it is built; tests patch it to record the states."""
    return np.random.Generator(np.random.PCG64(_seed_state_type()(state)))


def _float_buffers(generator: np.random.Generator):
    """Successive lists of ``NODE_BUFFER`` floats of ``generator``: chunks of
    ``Generator.random(k)`` join into the floats that single draws give. A
    function, since a generator expression would keep a function object alive
    for each node."""
    while True:
        yield generator.random(NODE_BUFFER).tolist()


class NodeStream:
    """A node's random stream: ``generator`` is the Generator of ``PCG64``
    seeded with ``state`` (a row of ``_seed_states``), built with the stream,
    and ``random()`` returns its next float as a Python float. ``random`` is
    the C-level ``__next__`` of a chain over the buffers, so only a refill
    resumes a Python frame. The compiled round draws from ``generator``
    directly, which is coherent only while ``random()`` has buffered nothing:
    the engine then keeps its Python route."""

    __slots__ = ("random", "generator")

    def __init__(self, state: np.ndarray) -> None:
        self.generator = _node_generator(state)
        self.random = chain.from_iterable(_float_buffers(self.generator)).__next__


def rng_streams(topology: TreeTopology, entropy) -> tuple[np.random.Generator, list]:
    """Environment stream plus one stream per non-leaf node: ``default_rng``
    of (entropy..., 0) and of (entropy..., 1, node id), so replays are
    bit-exact and node draws are independent of traversal order.

    The env stream is ``default_rng`` of the key's words. The seed states of
    all node streams are computed here at once by ``_seed_states``, a copy of
    SeedSequence's hash that the tests pin to numpy's, and each node's
    generator is built from its state here, with its stream.
    """
    base = _words(entropy)
    env_rng = np.random.default_rng(base + [0])
    node_rngs: list = [None] * topology.node_count
    for node, state in zip(topology.non_leaves, _seed_states(base + [1], topology.non_leaves)):
        node_rngs[node] = NodeStream(state)
    return env_rng, node_rngs


class Simulation:
    """One seeded run: topology + per-node policies + environment + model.

    Rounds run a block at a time: the environment draws the costs of up to
    ``BLOCK_ELEMENTS // n_leaves`` rounds in one call, the block check and
    the regret ledger take the whole block, and each round of the block is
    routed from its row, by the compiled round or on the Python route
    (``run``). ``run_round`` runs a one-round block on the Python route.
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
        owner: dict[int, int] = {}  # id of each policy object -> the first node it serves
        for node in topology.non_leaves:
            pol = policies[node]
            if owner.setdefault(id(pol), node) != node:
                raise EngineError(f"nodes {owner[id(pol)]} and {node} share one policy object; "
                                  "every non-leaf needs its own")
            want = len(topology.children[node])
            if pol.n_children != want:
                raise EngineError(
                    f"policy at node {node} covers {pol.n_children} children, tree has {want}"
                )
            if feedback not in pol.accepts:
                raise EngineError(f"policy at node {node} ({type(pol).__name__}) does not "
                                  f"accept {feedback.value} feedback")
        self.topology = topology
        self.policies = dict(policies)
        self.env = env
        self.feedback = feedback
        self.ledger = RegretLedger(env.n_leaves)
        self.env_rng, self._node_rngs = rng_streams(topology, entropy)
        # flat lookups for the round loop
        self._children = topology.children
        self._pols: list = [policies.get(n) for n in range(topology.node_count)]
        self._leaf_pos = topology.leaf_pos
        self._anytime = any(policies[n].anytime for n in topology.non_leaves)
        self._oracle = frozenset(
            n for n in topology.non_leaves if policies[n].requires_expected_costs
        )
        self._all_fixed = all(policies[n].fixed for n in topology.non_leaves)
        self._refreshed = None  # the expected costs of a refresh that still holds
        if feedback is FeedbackModel.COMPLETE_ONE_HOP:
            # a slot per node: the children at their first_slot slots, the root the last
            first = topology.first_slot
            slot = {c: s for n, kids in enumerate(topology.children)
                    for s, c in enumerate(kids, first[n])}
            slot[0] = first[-1]
            self._slots_deep_first = tuple(
                (n, first[n], first[n + 1], slot[n])
                for n in sorted(topology.non_leaves, key=lambda n: -topology.depth_of[n]))
            self._leaf_slots = np.array([slot[n] for n in topology.leaves], dtype=np.intp)
        self._drawn: list = [None] * topology.node_count  # each non-leaf's latest draw
        self._block_rounds = max(1, BLOCK_ELEMENTS // env.n_leaves)
        # run() hands untraced rounds to the compiled round while this holds;
        # the Python route clears it, since its node streams then hold buffered floats
        self._compilable = all(type(policies[n]) in _round.KINDS for n in topology.non_leaves)

    # -- per-round machinery -------------------------------------------------

    def _draw_block(self, t: int, n: int) -> np.ndarray:
        """The costs of rounds t..t+n-1, the block both routes run: n rows of
        one cost per leaf, each in [0, 1], as the contiguous float64 rows that
        the compiled round reads."""
        block = np.ascontiguousarray(self.env.costs_block(t, n, self.env_rng), dtype=np.float64)
        if block.shape != (n, self.env.n_leaves):
            raise EngineError(f"environment returned a cost block of shape "
                              f"{block.shape}, not {(n, self.env.n_leaves)}")
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

    def _bandit_round(self, block: np.ndarray, i: int) -> float:
        """Route a job on the costs in block row i, each node's draw going to
        ``_drawn``; returns the realized cost. Only if it is nonzero, walk the
        path again and update each node with it and its receive probability,
        reading the node's ``prob`` of its draw before its own update."""
        children = self._children
        pols = self._pols
        rngs = self._node_rngs
        drawn = self._drawn
        node, kids = 0, children[0]
        while kids:
            draw = drawn[node] = pols[node].select(rngs[node])
            node = kids[draw.child]
            kids = children[node]
        realized = block.item(i, self._leaf_pos[node])
        if realized:
            v, node, kids = 1.0, 0, children[0]
            while kids:
                pol, draw = pols[node], drawn[node]
                v_node, v = v, v * pol.prob(draw.child)
                pol.update(draw, realized, v_node)
                node = kids[draw.child]
                kids = children[node]
        return realized

    def _complete_round(self, rows: np.ndarray, i: int) -> float:
        """Every non-leaf selects, its draw going to ``_drawn``, and observes
        all its children's would-be costs; returns the realized cost. Row i
        of ``rows``, as the list y, holds the leaf costs at their slots;
        children first, each non-leaf writes its chosen child's cost at its
        own slot (the root's is the last), then observes the slice of its
        children's slots."""
        pols = self._pols
        rngs = self._node_rngs
        drawn = self._drawn
        y = rows[i].tolist()
        for node, first, _, own in self._slots_deep_first:
            draw = drawn[node] = pols[node].select(rngs[node])
            y[own] = y[first + draw.child]
        for node, first, end, _ in self._slots_deep_first:
            pols[node].observe_all(y[first:end])
        return y[-1]

    def _run_rows(self, t0: int, block: np.ndarray, trace=None, watch_idx=()) -> float:
        """Run rounds t0, t0+1, ... on the Python route, one per row of
        ``block``; returns the last round's realized cost."""
        self._compilable = False
        n = len(block)
        route, rows = self._bandit_round, block
        if self.feedback is FeedbackModel.COMPLETE_ONE_HOP:
            # a slot per node; _complete_round writes the non-leaves' slots
            route, rows = self._complete_round, np.empty((n, self.topology.node_count))
            rows[:, self._leaf_slots] = block
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
            realized.append(route(rows, i))
        self.ledger.record(realized, block)
        return realized[-1]

    # -- public API ------------------------------------------------------------

    def run_round(self, t: int) -> RoundOutcome:
        """Execute round t (t >= 1) and report what happened. The path follows
        the draws in ``_drawn``; the receive probabilities multiply its edges'
        start-of-round probabilities, read by a one-round trace of every edge
        (after any segment restart and oracle refresh, before routing)."""
        if t < 1:
            raise EngineError(f"round must be >= 1, got {t}")
        children = self._children
        edges = [(node, j) for node in self.topology.non_leaves
                 for j in range(len(children[node]))]
        trace = TraceRecorder(1, tuple((node, children[node][j]) for node, j in edges))
        realized = self._run_rows(t, self._draw_block(t, 1), trace, edges)
        start = {(node, child): p for _, node, child, p in trace.rows}
        path, probs = [0], [1.0]
        while children[path[-1]]:
            node = path[-1]
            path.append(children[node][self._drawn[node].child])
            probs.append(probs[-1] * start[node, path[-1]])
        modes = None
        if self.feedback is FeedbackModel.END_TO_END_BANDIT:
            modes = tuple(self._drawn[node] for node in path[:-1])
        return RoundOutcome(tuple(path), realized, tuple(probs), modes)

    def run(self, T: int, trace: TraceRecorder | None = None) -> RegretLedger:
        """Execute rounds 1..T; optionally record windowed probability traces.

        One loop walks the blocks. Each is one call of the compiled round of
        ``self.feedback`` when the run is untraced, ``_compilable`` holds and
        the library loads, else the Python rows. The compiled rounds work on
        flat arrays, packed before the loop: each non-leaf's kind, parameters
        and generator, and its children's scores and softmax entries at their
        ``first_slot`` slots; then, for bandit feedback, the children's ids
        and the leaves' cost columns, and for one-hop feedback the non-leaves
        deep-first, their own slots and the leaves' slots. After the loop the
        scores, softmax entries, draws and ledger totals are written back,
        also when a block fails its check; a bandit update that fails in C is
        then made in Python, to raise its own error.
        """
        if T < 0:
            raise EngineError(f"horizon must be >= 0, got {T}")
        kernels = _round.load()[0] if trace is None and self._compilable else None
        kernel = kernels and kernels[self.feedback]
        watch_idx = [(node, self.topology.child_index(node, child))
                     for node, child in (trace.watched if trace is not None else ())]
        nodes, first = self.topology.non_leaves, self.topology.first_slot
        pols, ledger = self._pols, self.ledger
        if kernel is not None:
            count = self.topology.node_count
            kind, param, gen = [0] * count, [(0.0, 0.0, 0.0, 0.0)] * count, [0] * count
            for n in nodes:
                pol = pols[n]
                kind[n] = _round.KINDS[type(pol)]
                param[n] = pol.eta, pol._floor, pol._scale, pol.mix
                gen[n] = _round.bitgen_address(self._node_rngs[n].generator)
            theta = np.array([x for n in nodes for x in pols[n]._theta])
            soft = np.array([x for n in nodes for x in pols[n]._soft])
            drawn = np.full(count, -1, dtype=np.intc)
            totals = np.concatenate(([ledger.cumulative_algorithm_cost],
                                     ledger.cumulative_leaf_costs))
            if self.feedback is FeedbackModel.END_TO_END_BANDIT:
                fault = np.zeros(2)
                route = [chain.from_iterable(self._children), self._leaf_pos]
                tail = [PROB_FLOOR, fault.ctypes.data]
            else:  # the non-leaves deep-first, their own slots, the leaf slots; a slot row
                order, _, _, own = zip(*self._slots_deep_first)
                y = np.empty(count)
                route, tail = [order, own, self._leaf_slots], [y.ctypes.data]
            held = [np.array(kind, dtype=np.intc), np.array(first, dtype=np.intc),
                    *(np.fromiter(r, dtype=np.intc) for r in route), np.array(param),
                    np.array(gen, dtype=np.uintp), theta, soft, drawn, totals]
            # addresses only: held, fault and y keep the arrays
            arrays = [a.ctypes.data for a in held] + tail
        failed, t = -1, 1
        try:
            while t <= T and failed < 0:
                block = self._draw_block(t, min(self._block_rounds, T - t + 1))
                if kernel is None:
                    self._run_rows(t, block, trace, watch_idx)
                else:
                    failed = kernel(*block.shape, block.ctypes.data, *arrays)
                    ledger.rounds_elapsed += len(block) if failed < 0 else 0
                t += len(block)
        finally:  # a block that fails its check leaves the blocks before it
            if kernel is not None:
                theta, soft, drawn = theta.tolist(), soft.tolist(), drawn.tolist()
                for n in nodes:
                    pol, code = pols[n], drawn[n]
                    pol._theta = theta[first[n]:first[n + 1]]
                    pol._soft = soft[first[n]:first[n + 1]]
                    if code >= 0:
                        self._drawn[n] = (pol._uniform_draws if code % 2 else pol._draws)[code // 2]
                ledger.cumulative_algorithm_cost = float(totals[0])
                ledger.cumulative_leaf_costs = totals[1:]
        if failed >= 0:
            pols[failed].update(self._drawn[failed], *fault.tolist())
            raise EngineError(f"the compiled round stopped at node {failed}, "
                              "whose update in Python did not fail")
        return ledger
