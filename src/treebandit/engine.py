"""Single-run simulation engine.

Each round a job enters at the root and is forwarded child-by-child until
it reaches a leaf, whose cost for that round is the system's realized cost.
The engine draws the full leaf-cost vector exactly once per round; the same
draw feeds both the policies (as bandit or one-hop feedback) and the regret
ledger, so regret is measured on the sample path the algorithm actually saw.

Two feedback models:

- END_TO_END_BANDIT: only nodes on the job's path learn anything, and all
  they see is the single realized leaf cost. The receive probability v is
  propagated multiplicatively down the path (v[root] = 1, v[child] =
  v[node] * x[node][child]) and handed to each path node's update.
- COMPLETE_ONE_HOP: every non-leaf selects a child every round, would-be
  costs y propagate bottom-up through the selections, and every node
  observes y for ALL its children.

Communication per hop is two scalars (v down, cost up); the recursion's
call boundary stands in for the message exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from treebandit.env import CostEnvironment
from treebandit.policy import ModeDraw, NodePolicy
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

    def record(self, realized_cost: float, leaf_costs: np.ndarray) -> None:
        self.cumulative_algorithm_cost += realized_cost
        self.cumulative_leaf_costs += leaf_costs
        self.rounds_elapsed += 1

    def optimal_stationary_cost(self) -> float:
        if self.rounds_elapsed == 0:
            return 0.0
        return float(self.cumulative_leaf_costs.min())

    def regret(self) -> float:
        if self.rounds_elapsed == 0:
            return 0.0
        return self.cumulative_algorithm_cost - self.optimal_stationary_cost()

    def time_average_regret(self) -> float:
        if self.rounds_elapsed == 0:
            return 0.0
        return self.regret() / self.rounds_elapsed


@dataclass
class TraceRecorder:
    """Windowed mean selection probabilities for watched (node, child) pairs.

    Accumulates the probability in force at the start of each round and
    emits one row per watched pair every ``window`` rounds:
    (window_end_round, node_id, child_node_id, mean probability). Only full
    windows are emitted.
    """

    window: int
    watched: tuple[tuple[int, int], ...]  # (node id, child node id)
    rows: list[tuple[int, int, int, float]] = field(default_factory=list)
    _acc: list[float] = field(default_factory=list)
    _count: int = 0

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


def rng_streams(topology: TreeTopology, entropy) -> tuple[np.random.Generator, list]:
    """Environment stream plus one stream per non-leaf node.

    All streams derive from (entropy..., role, node id), so replays are
    bit-exact and node draws are independent of traversal order.
    """
    base = [int(e) for e in entropy]
    env_rng = np.random.default_rng(base + [0])
    node_rngs: list = [None] * topology.node_count
    for node in topology.non_leaves:
        node_rngs[node] = np.random.default_rng(base + [1, node])
    return env_rng, node_rngs


class Simulation:
    """One seeded run: topology + per-node policies + environment + model."""

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
        self._exp_cache: tuple[int, np.ndarray] | None = None

    # -- per-round machinery -------------------------------------------------

    def _begin_round(self, t: int) -> None:
        if self._anytime and (t & (t - 1)) == 0:
            m = t.bit_length() - 1
            for node in self.topology.non_leaves:
                self._pols[node].start_segment(m)

    def _draw_costs(self, t: int) -> np.ndarray:
        costs = self.env.costs(t, self.env_rng)
        # written so that a NaN, which fails every comparison, fails the check
        if not (costs.min() >= 0.0 and costs.max() <= 1.0):
            raise EngineError(f"environment produced costs outside [0,1] or NaN at round {t}")
        return costs

    def _expected_costs(self, t: int) -> np.ndarray:
        if self._exp_cache is None or self._exp_cache[0] != t:
            self._exp_cache = (t, self.env.expected_costs(t))
        return self._exp_cache[1]

    def _w(self, node: int, t: int, memo: dict[int, float]) -> float:
        got = memo.get(node)
        if got is not None:
            return got
        kids = self._children[node]
        if not kids:
            val = float(self._expected_costs(t)[self._leaf_pos[node]])
        else:
            child_ws = [self._w(c, t, memo) for c in kids]
            pol = self._pols[node]
            if pol.requires_expected_costs:
                pol.set_expected_costs(child_ws)
            x = pol.distribution()
            val = sum(p * w for p, w in zip(x, child_ws))
        memo[node] = val
        return val

    def conditional_expected_cost(self, node: int, t: int) -> float:
        """w[node, t]: expected realized cost of a job arriving at ``node``
        now, under every descendant's current distribution."""
        self.topology._check(node)
        return self._w(node, t, {})

    def _bandit_round(self, t: int):
        costs = self._draw_costs(t)
        node = 0
        v = 1.0
        path = [0]
        vs = [1.0]
        pending = []  # (policy, draw, own receive prob)
        children = self._children
        memo: dict[int, float] = {}
        while True:
            kids = children[node]
            if not kids:
                break
            pol = self._pols[node]
            if pol.requires_expected_costs:
                pol.set_expected_costs([self._w(c, t, memo) for c in kids])
            x = pol.distribution()
            draw = pol.select(self._node_rngs[node])
            pending.append((pol, draw, v))
            v = v * x[draw.child]
            node = kids[draw.child]
            path.append(node)
            vs.append(v)
        realized = float(costs[self._leaf_pos[node]])
        for pol, draw, own_v in pending:
            pol.update(draw, realized, own_v)
        self.ledger.record(realized, costs)
        return path, vs, [d for _, d, _ in pending], realized

    def _complete_round(self, t: int):
        costs = self._draw_costs(t)
        n = self.topology.node_count
        chosen_child = [-1] * n
        chosen_prob = [0.0] * n
        draws: dict[int, ModeDraw] = {}
        memo: dict[int, float] = {}
        for node in self.topology.non_leaves:
            pol = self._pols[node]
            if pol.requires_expected_costs:
                pol.set_expected_costs(
                    [self._w(c, t, memo) for c in self._children[node]]
                )
            draw = pol.select(self._node_rngs[node])
            draws[node] = draw
            chosen_child[node] = self._children[node][draw.child]
            chosen_prob[node] = pol.distribution()[draw.child]
        y = [0.0] * n
        for leaf in self.topology.leaves:
            y[leaf] = float(costs[self._leaf_pos[leaf]])
        for node in self._non_leaves_deep_first:
            y[node] = y[chosen_child[node]]
        for node in self.topology.non_leaves:
            self._pols[node].observe_all(
                [y[c] for c in self._children[node]]
            )
        path = [0]
        vs = [1.0]
        mode_list = []
        node = 0
        while chosen_child[node] != -1:
            mode_list.append(draws[node])
            vs.append(vs[-1] * chosen_prob[node])
            node = chosen_child[node]
            path.append(node)
        realized = y[0]
        self.ledger.record(realized, costs)
        return path, vs, mode_list, realized

    # -- public API ------------------------------------------------------------

    def run_round(self, t: int) -> RoundOutcome:
        """Execute round t and report what happened."""
        self._begin_round(t)
        if self.feedback is FeedbackModel.END_TO_END_BANDIT:
            path, vs, modes, realized = self._bandit_round(t)
            return RoundOutcome(tuple(path), realized, tuple(vs), tuple(modes))
        path, vs, modes, realized = self._complete_round(t)
        return RoundOutcome(tuple(path), realized, tuple(vs), None)

    def run(self, T: int, trace: TraceRecorder | None = None) -> RegretLedger:
        """Execute rounds 1..T; optionally record windowed probability traces."""
        if T < 0:
            raise EngineError(f"horizon must be >= 0, got {T}")
        bandit = self.feedback is FeedbackModel.END_TO_END_BANDIT
        if trace is not None:
            for node, child in trace.watched:
                if node >= self.topology.node_count or self._pols[node] is None:
                    raise EngineError(f"watched node {node} is not a non-leaf node")
                if child not in self._children[node]:
                    raise EngineError(f"watched pair ({node},{child}) is not an edge")
            watch_idx = [
                (node, self._children[node].index(child))
                for node, child in trace.watched
            ]
        round_fn = self._bandit_round if bandit else self._complete_round
        for t in range(1, T + 1):
            self._begin_round(t)
            if trace is not None:
                memo: dict[int, float] = {}
                probs = []
                for node, idx in watch_idx:
                    pol = self._pols[node]
                    if pol.requires_expected_costs:
                        # the oracle's distribution follows this round's expected costs
                        pol.set_expected_costs([self._w(c, t, memo) for c in self._children[node]])
                    probs.append(pol.distribution()[idx])
                trace.observe(t, probs)
            round_fn(t)
        return self.ledger
