"""Cost environments: per-round leaf cost vectors c[j,t] in [0,1].

An environment generates the would-be cost of EVERY leaf each round. The
engine draws the vector exactly once per round and uses the same draw for
both the algorithm's feedback (the reached leaf's entry) and the regret
ledger (all entries). All environments here are oblivious: draws never
depend on the algorithm's choices.

Cost vectors are indexed by leaf position, i.e. ``vector[k]`` is the cost
of ``topology.leaves[k]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from treebandit.topology import TreeTopology


class EnvError(ValueError):
    """Raised for invalid environment parameters or unsupported queries."""


class CostEnvironment:
    """Interface: ``costs(t, rng)`` plus optional ``expected_costs(t)``."""

    n_leaves: int

    def costs(self, t: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def expected_costs(self, t: int) -> np.ndarray:
        raise EnvError(f"{type(self).__name__} does not define expected costs")


def bernoulli_tree_means(n_leaves: int, p_min: float) -> list[float]:
    """Default mean layout: one certain-cost leaf, the rest evenly spaced.

    Leaf 0 has mean 1.0 (it is the one whose mean later drops to 0); the
    remaining leaves run from (1+p_min)/2 down to p_min, so e.g. 4 leaves
    with p_min=0.2 give (1.0, 0.6, 0.4, 0.2).
    """
    if n_leaves < 2:
        raise EnvError("need at least 2 leaves")
    if not 0.0 <= p_min <= 1.0:
        raise EnvError(f"p_min must be in [0,1], got {p_min}")
    rest = np.linspace((1.0 + p_min) / 2.0, p_min, n_leaves - 1)
    return [1.0] + [float(p) for p in rest]


class BernoulliTreeEnv(CostEnvironment):
    """Independent Bernoulli leaf costs, with an optional distribution shift.

    ``means[k]`` is the probability that leaf position ``k`` costs 1 in a
    round. From round ``shift_round`` on (inclusive), ``shift_leaf``'s mean
    becomes 0 — modelling a configuration that abruptly turns best.
    """

    def __init__(
        self,
        means,
        shift_round: int | None = None,
        shift_leaf: int | None = None,
    ) -> None:
        p = np.asarray(means, dtype=np.float64)
        if p.ndim != 1 or p.size < 2:
            raise EnvError("means must be a vector with at least 2 entries")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise EnvError("Bernoulli means must lie in [0,1]")
        self.n_leaves = int(p.size)
        self._pre = p.copy()
        if shift_round is not None:
            if shift_round < 1:
                raise EnvError(f"shift_round must be >= 1, got {shift_round}")
            if shift_leaf is None:
                shift_leaf = int(np.argmax(p))
            if not 0 <= shift_leaf < p.size:
                raise EnvError(f"shift_leaf {shift_leaf} out of range")
            post = p.copy()
            post[shift_leaf] = 0.0
            self._post = post
        else:
            self._post = p.copy()
        self.shift_round = shift_round
        self.shift_leaf = shift_leaf

    def _means_at(self, t: int) -> np.ndarray:
        if self.shift_round is not None and t >= self.shift_round:
            return self._post
        return self._pre

    def costs(self, t: int, rng: np.random.Generator) -> np.ndarray:
        p = self._means_at(t)
        return (rng.random(self.n_leaves) < p).astype(np.float64)

    def expected_costs(self, t: int) -> np.ndarray:
        return self._means_at(t)


class LowerBoundChainEnv(CostEnvironment):
    """Bernoulli means realizing the hard chain instance.

    For a chain of ``depth`` non-leaf nodes the shallow leaves (positions
    0..depth-2) form a strictly increasing mean ladder
    ``(1 - (2**depth - 2**k) * delta) / 2`` and the two deepest leaves get
    ``(1 -/+ 2**depth * delta) / 2``; exactly one leaf (one of the deepest
    two) is best, and each shallow leaf beats everything visible below it
    until the deepest pair is resolved.
    """

    def __init__(self, depth: int, delta: float, best_last_leaf: bool = False) -> None:
        if depth < 2:
            raise EnvError(f"chain depth must be at least 2, got {depth}")
        limit = 2.0**-depth
        if not 0.0 < delta < limit:
            raise EnvError(
                f"delta must satisfy 0 < delta < 2**-{depth} = {limit}, got {delta}"
            )
        scale = 2.0**depth
        ladder = [(1.0 - (scale - 2.0**k) * delta) / 2.0 for k in range(depth - 1)]
        low = (1.0 - scale * delta) / 2.0
        high = (1.0 + scale * delta) / 2.0
        deep = [high, low] if best_last_leaf else [low, high]
        self.depth = depth
        self.delta = delta
        self.means = np.asarray(ladder + deep, dtype=np.float64)
        self.n_leaves = int(self.means.size)
        self.min_expected_cost = low

    def costs(self, t: int, rng: np.random.Generator) -> np.ndarray:
        return (rng.random(self.n_leaves) < self.means).astype(np.float64)

    def expected_costs(self, t: int) -> np.ndarray:
        return self.means


@dataclass(frozen=True)
class RateSchedule:
    """Exponential-delay rate, affine in the round index.

    rate(t) interpolates linearly from ``start`` at t=1 to ``end`` at
    t=horizon. Use start == end for a constant link.
    """

    start: float
    end: float
    horizon: int = 1

    def __post_init__(self) -> None:
        if self.start <= 0.0 or self.end <= 0.0:
            raise EnvError("rates must be positive")
        if self.horizon < 1:
            raise EnvError("horizon must be >= 1")

    def rate(self, t: int) -> float:
        if self.horizon <= 1 or self.start == self.end:
            return self.start
        frac = (t - 1) / (self.horizon - 1)
        return self.start + (self.end - self.start) * frac


class DeadlineLatencyEnv(CostEnvironment):
    """Deadline-violation costs for latency that accumulates along the path.

    Each tree edge may carry an exponential delay (rate possibly
    time-varying); each leaf adds a deterministic processing time and has a
    base miss rate. A round's cost for a leaf is 1 if its total path latency
    exceeds the deadline, else the leaf's miss rate — so the per-leaf cost
    is exactly two-valued. One delay draw per edge per round is shared by
    every leaf beneath that edge.
    """

    def __init__(
        self,
        topology: TreeTopology,
        edge_rates: dict[int, RateSchedule | None],
        leaf_proc: dict[int, float],
        leaf_miss: dict[int, float],
        deadline: float = 1.0,
    ) -> None:
        if deadline <= 0.0:
            raise EnvError("deadline must be positive")
        for node in edge_rates:
            if not 1 <= node < topology.node_count:
                raise EnvError(f"edge key {node} is not a non-root node")
        self.topology = topology
        self.n_leaves = len(topology.leaves)
        self.deadline = deadline
        # An edge is identified by its child node id (unique in-edge).
        self._edges = sorted(n for n, r in edge_rates.items() if r is not None)
        self._edge_pos = {n: k for k, n in enumerate(self._edges)}
        self._schedules = [edge_rates[n] for n in self._edges]
        self._proc = np.zeros(self.n_leaves)
        self._miss = np.zeros(self.n_leaves)
        self._paths: list[list[int]] = []  # stochastic-edge positions per leaf
        for k, leaf in enumerate(topology.leaves):
            miss = float(leaf_miss.get(leaf, 0.0))
            if not 0.0 <= miss <= 1.0:
                raise EnvError(f"miss rate of leaf {leaf} must be in [0,1]")
            self._proc[k] = float(leaf_proc.get(leaf, 0.0))
            self._miss[k] = miss
            edges = []
            node = leaf
            while node != 0:
                if node in self._edge_pos:
                    edges.append(self._edge_pos[node])
                node = topology.parent[node]
            self._paths.append(edges[::-1])

    def _rates_at(self, t: int) -> np.ndarray:
        return np.array([s.rate(t) for s in self._schedules], dtype=np.float64)

    def costs(self, t: int, rng: np.random.Generator) -> np.ndarray:
        if self._edges:
            delays = rng.exponential(1.0, size=len(self._edges)) / self._rates_at(t)
        else:
            delays = np.zeros(0)
        out = np.empty(self.n_leaves)
        for k in range(self.n_leaves):
            latency = self._proc[k] + sum(delays[e] for e in self._paths[k])
            out[k] = 1.0 if latency > self.deadline else self._miss[k]
        return out

    def expected_costs(self, t: int) -> np.ndarray:
        rates = self._rates_at(t)
        out = np.empty(self.n_leaves)
        for k in range(self.n_leaves):
            budget = self.deadline - self._proc[k]
            lam = [rates[e] for e in self._paths[k]]
            p_violate = hypoexponential_survival(budget, lam)
            out[k] = p_violate + (1.0 - p_violate) * self._miss[k]
        return out


def hypoexponential_survival(budget: float, rates) -> float:
    """P(sum of independent Exp(rate_k) delays > budget).

    Uses the phase-type representation: the survival function is the total
    remaining mass of a pure-death Markov chain after time ``budget``, i.e.
    the first row sum of expm(M * budget) with M the bidiagonal generator.
    Exact for repeated rates, unlike the partial-fraction formula.
    """
    if budget <= 0.0:
        return 1.0
    k = len(rates)
    if k == 0:
        return 0.0
    gen = np.zeros((k, k))
    for i, lam in enumerate(rates):
        gen[i, i] = -lam
        if i + 1 < k:
            gen[i, i + 1] = lam
    return float(np.clip(expm(gen * budget)[0].sum(), 0.0, 1.0))


def make_mec_env(
    topology: TreeTopology,
    horizon: int,
    constant_rate: float = 8.0,
    ramp: tuple[float, float] = (2.0, 200.0),
    proc_range: tuple[float, float] = (0.5, 0.2),
    miss_range: tuple[float, float] = (0.005, 0.10),
    deadline: float = 1.0,
) -> DeadlineLatencyEnv:
    """Edge-computing scenario: root -> server (network link) -> model.

    First-hop edges alternate a constant-rate link and a link whose rate
    ramps over the horizon (congestion building up). Each server hosts the
    same menu of models: processing times interpolate across ``proc_range``
    and miss rates across ``miss_range`` (geometrically), so the slowest
    model is the most accurate. Second-hop edges carry no network delay.
    """
    if topology.depth != 2:
        raise EnvError("MEC scenario expects a depth-2 topology (server, model)")
    edge_rates: dict[int, RateSchedule | None] = {}
    for idx, server in enumerate(topology.children[0]):
        if idx % 2 == 0:
            edge_rates[server] = RateSchedule(constant_rate, constant_rate)
        else:
            edge_rates[server] = RateSchedule(ramp[0], ramp[1], horizon)
    leaf_proc: dict[int, float] = {}
    leaf_miss: dict[int, float] = {}
    for server in topology.children[0]:
        kids = topology.children[server]
        procs = np.linspace(proc_range[0], proc_range[1], len(kids))
        misses = np.geomspace(miss_range[0], miss_range[1], len(kids))
        for j, leaf in enumerate(kids):
            leaf_proc[leaf] = float(procs[j])
            leaf_miss[leaf] = float(misses[j])
    return DeadlineLatencyEnv(topology, edge_rates, leaf_proc, leaf_miss, deadline)


def make_multihop_env(
    topology: TreeTopology,
    horizon: int,
    constant_rate: float = 8.0,
    ramp: tuple[float, float] = (2.0, 200.0),
    deadline: float = 1.0,
) -> DeadlineLatencyEnv:
    """Multi-hop relay scenario: every edge is a stochastic link.

    Links alternate constant and ramping rates by (depth + child position)
    parity, so every path mixes stable and congesting hops. Leaves have no
    processing time or base miss rate: cost is purely the deadline flag.
    """
    edge_rates: dict[int, RateSchedule | None] = {}
    for node in range(topology.node_count):
        for idx, child in enumerate(topology.children[node]):
            if (topology.depth_of[child] + idx) % 2 == 0:
                edge_rates[child] = RateSchedule(constant_rate, constant_rate)
            else:
                edge_rates[child] = RateSchedule(ramp[0], ramp[1], horizon)
    return DeadlineLatencyEnv(topology, edge_rates, {}, {}, deadline)


class CsvMatrixEnv(CostEnvironment):
    """Replay environment: one row of per-leaf costs per round from a CSV.

    Header names the leaf node ids, which must be the topology's leaves in
    order; row t (1-based) is the cost vector of round t. Costs are
    deterministic, so expected_costs equals costs.
    """

    def __init__(self, path: str) -> None:
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if not header:
                raise EnvError(f"{path}: empty cost matrix")
            self.leaf_ids = [int(tok) for tok in header.split(",")]
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                vals = [float(tok) for tok in line.split(",")]
                if len(vals) != len(self.leaf_ids):
                    raise EnvError(f"{path}:{lineno}: expected {len(self.leaf_ids)} costs")
                rows.append(vals)
        if not rows:
            raise EnvError(f"{path}: no cost rows")
        self._matrix = np.asarray(rows, dtype=np.float64)
        # a NaN fails both comparisons, so it is rejected with the range
        if not np.all((self._matrix >= 0.0) & (self._matrix <= 1.0)):
            raise EnvError(f"{path}: costs must be finite and lie in [0,1]")
        self.n_leaves = self._matrix.shape[1]
        self.n_rounds = self._matrix.shape[0]

    def _row(self, t: int) -> np.ndarray:
        if not 1 <= t <= self.n_rounds:
            raise EnvError(f"round {t} outside the {self.n_rounds}-row cost matrix")
        return self._matrix[t - 1]

    def costs(self, t: int, rng: np.random.Generator) -> np.ndarray:
        return self._row(t)

    def expected_costs(self, t: int) -> np.ndarray:
        return self._row(t)
