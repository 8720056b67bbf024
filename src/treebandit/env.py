"""Cost environments: per-round leaf cost vectors c[j,t] in [0,1].

An environment generates the would-be cost of EVERY leaf each round. The
engine draws the vector exactly once per round and uses the same draw for
both the algorithm's feedback (the reached leaf's entry) and the regret
ledger (all entries). All environments here are oblivious: draws never
depend on the algorithm's choices, so the engine fetches them a block of
rounds at a time with ``costs_block``. A block of n rounds holds exactly
the values that n one-round blocks would have drawn, in the same order.

Cost vectors are indexed by leaf position, i.e. ``vector[k]`` is the cost
of ``topology.leaves[k]``.
"""

from __future__ import annotations

import math

import numpy as np

from treebandit.topology import TreeTopology


class EnvError(ValueError):
    """Raised for invalid environment parameters or unsupported queries."""


class CostEnvironment:
    """Interface: one draw method, ``costs_block(t, n, rng)``, which every
    subclass defines, plus optional ``expected_costs(t)``."""

    n_leaves: int

    def costs_block(self, t: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """Rows ``i = 0..n-1`` hold the cost vector of round ``t + i``."""
        raise NotImplementedError

    def expected_costs(self, t: int) -> np.ndarray:
        """Leaf means at round ``t``. Returning the same array object as at
        an earlier round promises the same values, so the engine may skip
        the recursion that uses them; a new object makes it recompute."""
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
        if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails too
            raise EnvError("Bernoulli means must lie in [0,1]")
        self.n_leaves = int(p.size)
        self._pre = p.copy()
        self._pre.flags.writeable = False
        if shift_round is not None:
            if shift_round < 1:
                raise EnvError(f"shift_round must be >= 1, got {shift_round}")
            if shift_leaf is None:
                shift_leaf = int(np.argmax(p))
            if not 0 <= shift_leaf < p.size:
                raise EnvError(f"shift_leaf {shift_leaf} out of range")
            post = p.copy()
            post[shift_leaf] = 0.0
            post.flags.writeable = False
            self._post = post
        elif shift_leaf is not None:
            raise EnvError("shift_leaf needs a shift_round")
        else:
            self._post = self._pre
        self.shift_round = shift_round
        self.shift_leaf = shift_leaf

    def costs_block(self, t: int, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random((n, self.n_leaves))
        # rows before the shift round use the pre-shift means; each draw is
        # replaced by its 0/1 cost in place
        pre = n if self.shift_round is None else min(max(self.shift_round - t, 0), n)
        np.less(u[:pre], self._pre, out=u[:pre])
        np.less(u[pre:], self._post, out=u[pre:])
        return u

    def expected_costs(self, t: int) -> np.ndarray:
        if self.shift_round is not None and t >= self.shift_round:
            return self._post
        return self._pre


class LowerBoundChainEnv(BernoulliTreeEnv):
    """Bernoulli means realizing the hard chain instance, drawn as an
    unshifted ``BernoulliTreeEnv`` with these fixed means.

    For a chain of ``depth`` non-leaf nodes the shallow leaves (positions
    0..depth-2) form a strictly increasing mean ladder
    ``(1 - (2**depth - 2**k) * delta) / 2`` and the two deepest leaves get
    ``(1 -/+ 2**depth * delta) / 2``; exactly one leaf (one of the deepest
    two) is best, and each shallow leaf beats everything visible below it
    until the deepest pair is resolved. ``delta`` defaults to ``2**-(depth+1)``.
    ``means`` is the read-only array that ``expected_costs`` returns.
    """

    def __init__(self, depth: int, delta: float | None = None, best_last_leaf: bool = False) -> None:
        if depth < 2:
            raise EnvError(f"chain depth must be at least 2, got {depth}")
        limit = 2.0**-depth
        delta = limit / 2 if delta is None else delta
        if not 0.0 < delta < limit:
            raise EnvError(
                f"delta must satisfy 0 < delta < 2**-{depth} = {limit}, got {delta}"
            )
        scale = 2.0**depth
        ladder = [(1.0 - (scale - 2.0**k) * delta) / 2.0 for k in range(depth - 1)]
        low = (1.0 - scale * delta) / 2.0
        high = (1.0 + scale * delta) / 2.0
        super().__init__(ladder + ([high, low] if best_last_leaf else [low, high]))
        self.depth = depth
        self.delta = delta
        self.means = self._pre
        self.min_expected_cost = low


class DeadlineLatencyEnv(CostEnvironment):
    """Deadline-violation costs for latency that accumulates along the path.

    Each tree edge may carry an exponential delay whose rate is affine in
    the round index: ``edge_rates`` maps a non-root node to the pair
    ``(rate at round 1, rate at round horizon)`` of its in-edge, so equal
    rates make a constant link, and an edge left out adds no delay. With
    ``horizon`` 1 every edge keeps its first rate. Each leaf adds a
    deterministic processing time and has a base miss rate. A round's cost
    for a leaf is 1 if its total path latency exceeds the deadline, else the
    leaf's miss rate — so the per-leaf cost is exactly two-valued. One delay
    draw per edge per round is shared by every leaf beneath that edge.
    """

    def __init__(
        self,
        topology: TreeTopology,
        edge_rates: dict[int, tuple[float, float]],
        leaf_proc: dict[int, float],
        leaf_miss: dict[int, float],
        deadline: float = 1.0,
        horizon: int = 1,
    ) -> None:
        if not 0.0 < deadline < math.inf:  # NaN fails too
            raise EnvError(f"deadline must be positive and finite, got {deadline}")
        if horizon < 1:
            raise EnvError(f"horizon must be >= 1, got {horizon}")
        for node in edge_rates:
            if not 1 <= node < topology.node_count:
                raise EnvError(f"edge key {node} is not a non-root node")
        self.n_leaves = len(topology.leaves)
        self.deadline = deadline
        self.horizon = horizon
        # An edge is identified by its child node id (unique in-edge).
        edges = sorted(edge_rates)
        rates = np.array([edge_rates[n] for n in edges], dtype=np.float64).reshape(-1, 2)
        if not np.all((rates > 0.0) & (rates < math.inf)):  # NaN fails too
            raise EnvError("rates must be finite and positive")
        self._start = rates[:, 0]
        self._slope = rates[:, 1] - rates[:, 0]
        edge_pos = {n: k for k, n in enumerate(edges)}
        self._proc = np.zeros(self.n_leaves)
        self._miss = np.zeros(self.n_leaves)
        self._paths: list[list[int]] = []  # stochastic-edge positions per leaf
        for k, leaf in enumerate(topology.leaves):
            miss = float(leaf_miss.get(leaf, 0.0))
            if not 0.0 <= miss <= 1.0:
                raise EnvError(f"miss rate of leaf {leaf} must be in [0,1]")
            proc = float(leaf_proc.get(leaf, 0.0))
            if not -math.inf < proc < math.inf:  # NaN fails too
                raise EnvError(f"processing time of leaf {leaf} must be finite, got {proc}")
            self._proc[k] = proc
            self._miss[k] = miss
            self._paths.append([edge_pos[n] for n in topology.path_to(leaf) if n in edge_pos])

    def _rates(self, t: int, n: int) -> np.ndarray:
        """Rows ``i = 0..n-1`` hold every stochastic edge's rate at round ``t + i``;
        a constant edge's ``start + 0.0 * frac`` is exactly ``start``."""
        frac = (np.arange(t - 1, t - 1 + n) / (self.horizon - 1) if self.horizon > 1
                else np.zeros(n))
        return self._start + self._slope * frac[:, None]

    def costs_block(self, t: int, n: int, rng: np.random.Generator) -> np.ndarray:
        delays = rng.exponential(1.0, size=(n, self._start.size)) / self._rates(t, n)
        out = np.empty((n, self.n_leaves))
        for k, path in enumerate(self._paths):
            # proc + ((d1 + d2) + ...): the per-round proc + sum(delays) order
            latency = 0.0
            for e in path:
                latency = latency + delays[:, e]
            latency = self._proc[k] + latency
            out[:, k] = np.where(latency > self.deadline, 1.0, self._miss[k])
        return out

    def expected_costs(self, t: int) -> np.ndarray:
        rates = self._rates(t, 1)[0]
        out = np.empty(self.n_leaves)
        for k in range(self.n_leaves):
            budget = self.deadline - self._proc[k]
            lam = [rates[e] for e in self._paths[k]]
            p_violate = hypoexponential_survival(budget, lam)
            out[k] = p_violate + (1.0 - p_violate) * self._miss[k]
        return out


def hypoexponential_survival(budget: float, rates) -> float:
    """P(sum of independent Exp(rate_k) delays > budget).

    The first row sum of expm(M * budget), M the generator of the pure-death
    chain through the delays. Uniformization (Jensen 1953) gives expm(M h) as
    exp(-L h) sum_n (L h)**n / n! (I + M / L)**n, with no negative term, for L
    the largest rate and h = budget / 2**s <= 1 / L. It is squared s times,
    each time resetting the diagonal to exp(-rate * t) so errors do not double.
    An infinite budget gives 0; a NaN budget, or a rate that is not finite and
    positive, raises ``EnvError``.
    """
    # each check is written so that a NaN, which fails every comparison, fails it
    if not budget <= math.inf:
        raise EnvError(f"budget must be a number, got {budget}")
    rates = np.asarray(rates, dtype=float)
    for rate in rates.tolist():
        if not 0.0 < rate < math.inf:
            raise EnvError(f"rates must be finite and positive, got {rate}")
    if budget <= 0.0:
        return 1.0
    if budget == math.inf or rates.size == 0:
        return 0.0
    top = rates.max()
    s = max(0, math.ceil(math.log2(top) + math.log2(budget)))  # no overflow
    step = math.ldexp(budget, -s)
    jump = np.diag(1.0 - rates / top) + np.diag(rates[:-1] / top, 1)
    term = prob = math.exp(-top * step) * np.eye(len(rates))
    for n in range(1, 30):  # top * step <= 1, so the tail is below 1/30!
        term = term @ jump * (top * step / n)
        prob = prob + term
    with np.errstate(over="ignore"):  # a rate * t past the float range has exp 0
        for j in range(s + 1):
            prob = prob @ prob if j else prob
            np.fill_diagonal(prob, np.exp(-rates * math.ldexp(step, j)))
    return float(np.clip(prob[0].sum(), 0.0, 1.0))


def _deadline_env(topology: TreeTopology, horizon: int, ramps: dict[int, bool], leaf_proc: dict,
                  leaf_miss: dict, constant_rate: float = 8.0,
                  ramp: tuple[float, float] = (2.0, 200.0), **deadline) -> DeadlineLatencyEnv:
    """The deadline scenarios' links: a node's in-edge ramps over ``ramp`` where ``ramps``
    flags it and holds ``constant_rate`` elsewhere; ``deadline`` goes to the env."""
    rates = {n: ramp if up else (constant_rate, constant_rate) for n, up in ramps.items()}
    return DeadlineLatencyEnv(topology, rates, leaf_proc, leaf_miss, horizon=horizon, **deadline)


def make_mec_env(topology: TreeTopology, horizon: int,
                 proc_range: tuple[float, float] = (0.5, 0.2),
                 miss_range: tuple[float, float] = (0.005, 0.10), **links) -> DeadlineLatencyEnv:
    """Edge-computing scenario: root -> server (network link) -> model.

    First-hop edges alternate a constant-rate link and a link whose rate
    ramps over the horizon (congestion clearing up). Each server hosts the
    same menu of models: processing times interpolate across ``proc_range``
    and miss rates across ``miss_range`` (geometrically), so the slowest
    model is the most accurate. Second-hop edges carry no network delay.
    ``links`` may set ``constant_rate``, ``ramp`` and ``deadline``.
    """
    if topology.depth != 2:
        raise EnvError("MEC scenario expects a depth-2 topology (server, model)")
    ramps = {server: idx % 2 == 1 for idx, server in enumerate(topology.children[0])}
    leaf_proc: dict[int, float] = {}
    leaf_miss: dict[int, float] = {}
    for server in topology.children[0]:
        kids = topology.children[server]
        procs = np.linspace(proc_range[0], proc_range[1], len(kids))
        misses = np.geomspace(miss_range[0], miss_range[1], len(kids))
        for j, leaf in enumerate(kids):
            leaf_proc[leaf] = float(procs[j])
            leaf_miss[leaf] = float(misses[j])
    return _deadline_env(topology, horizon, ramps, leaf_proc, leaf_miss, **links)


def make_multihop_env(topology: TreeTopology, horizon: int, **links) -> DeadlineLatencyEnv:
    """Multi-hop relay scenario: every edge is a stochastic link.

    Links alternate constant and ramping rates by (depth + child position)
    parity, so every path mixes stable and congesting hops. Leaves have no
    processing time or base miss rate: cost is purely the deadline flag.
    ``links`` may set ``constant_rate``, ``ramp`` and ``deadline``.
    """
    ramps = {child: (topology.depth_of[child] + idx) % 2 == 1
             for kids in topology.children for idx, child in enumerate(kids)}
    return _deadline_env(topology, horizon, ramps, {}, {}, **links)


class CsvMatrixEnv(CostEnvironment):
    """Replay environment: one row of per-leaf costs per round from a CSV.

    Header names the leaf node ids, which must be the topology's leaves in
    order; row t (1-based) is the cost vector of round t. Costs are
    deterministic, so expected_costs equals the drawn costs.
    """

    def __init__(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else str(exc)
            raise EnvError(f"cannot read {path}: {reason}") from None
        header = lines[0].strip() if lines else ""
        if not header:
            raise EnvError(f"{path}: empty cost matrix")
        try:
            self.leaf_ids = [int(tok) for tok in header.split(",")]
        except ValueError:
            raise EnvError(f"{path}:1: header must be leaf ids, got {header!r}") from None
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                vals = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise EnvError(
                    f"{path}:{lineno}: costs must be numbers, got {line.strip()!r}"
                ) from None
            if len(vals) != len(self.leaf_ids):
                raise EnvError(f"{path}:{lineno}: expected {len(self.leaf_ids)} costs")
            # a NaN fails both comparisons, so it is rejected with the range
            if not all(0.0 <= v <= 1.0 for v in vals):
                raise EnvError(f"{path}:{lineno}: costs must be finite and lie in [0,1]")
            rows.append(vals)
        if not rows:
            raise EnvError(f"{path}: no cost rows")
        self._matrix = np.asarray(rows, dtype=np.float64)
        self._matrix.flags.writeable = False  # costs_block and expected_costs hand out views
        self.n_leaves = self._matrix.shape[1]
        self.n_rounds = self._matrix.shape[0]

    def _check_rounds(self, t: int, n: int) -> None:
        if t < 1 or t + n - 1 > self.n_rounds:
            first = t if t < 1 else self.n_rounds + 1
            raise EnvError(f"round {first} outside the {self.n_rounds}-row cost matrix")

    def costs_block(self, t: int, n: int, rng: np.random.Generator) -> np.ndarray:
        self._check_rounds(t, n)
        return self._matrix[t - 1 : t - 1 + n]

    def expected_costs(self, t: int) -> np.ndarray:
        self._check_rounds(t, 1)
        return self._matrix[t - 1]
