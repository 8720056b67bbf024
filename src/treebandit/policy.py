"""Per-node forwarding policies.

Every non-leaf node owns one policy instance and never shares state with
other nodes: coordination happens only through the job itself, the receive
probability handed down, and the realized end-to-end cost handed back up.

Policies fall into two feedback families:

- ``observe_all(child_costs)``: complete one-hop feedback, the node sees
  every child's would-be cost each round (exponential-weights update).
- ``update(draw, cost, receive_prob)``: end-to-end bandit feedback, the
  node sees one realized cost only on rounds the job passed through it.

``distribution()`` returns the current selection distribution over child
positions; the engine uses it both for receive-probability propagation and
for trace emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

PROB_FLOOR = 1e-300


class PolicyError(ValueError):
    """Raised for invalid parameters or feedback-model misuse."""


class NumericalError(ArithmeticError):
    """Raised when a conditional probability underflows the guard floor.

    The mixing floor at ancestor nodes is what keeps importance weights
    bounded; if it ever fails to, that is an error worth surfacing, not a
    value worth clamping.
    """


@dataclass(frozen=True)
class PolicyParams:
    eta: float
    epsilon: float


@dataclass(frozen=True)
class ModeDraw:
    """Result of one selection: mode ("U" uniform, "E" exploit, or None
    for policies without a mode split) and the chosen child position."""

    mode: str | None
    child: int


def default_params(T: int, L: int, D: int, children_all_leaves: bool) -> PolicyParams:
    """Horizon-tuned parameters for the epsilon-mixed bandit policy.

    eta = T^(-L/(L+1)) everywhere; epsilon = 0 at nodes whose children are
    all leaves (they need no educating descendants), else D * T^(-1/(L+1))
    clamped to 1 so tiny horizons stay valid.
    """
    if T < 1:
        raise PolicyError(f"horizon must be >= 1, got {T}")
    if L < 1:
        raise PolicyError(f"depth must be >= 1, got {L}")
    if D < 2:
        raise PolicyError(f"fanout must be >= 2, got {D}")
    eta = float(T) ** (-L / (L + 1.0))
    epsilon = 0.0 if children_all_leaves else min(1.0, D * float(T) ** (-1.0 / (L + 1.0)))
    return PolicyParams(eta=eta, epsilon=epsilon)


def eg_default_eta(n_children: int, T: int) -> float:
    """sqrt(log|C| / T): the rate behind the complete-feedback regret bound."""
    if T < 1:
        raise PolicyError(f"horizon must be >= 1, got {T}")
    return math.sqrt(math.log(max(n_children, 1)) / T)


def classic_exp3_gamma(n_children: int, T: int) -> float:
    """Classic horizon-tuned EXP3 mixing rate min(1, sqrt(K ln K / ((e-1) T)))."""
    if T < 1:
        raise PolicyError(f"horizon must be >= 1, got {T}")
    k = max(n_children, 2)
    return min(1.0, math.sqrt(k * math.log(k) / ((math.e - 1.0) * T)))


def stable_softmax(theta, eta: float) -> list[float]:
    """exp(eta * theta_j) / sum_k exp(eta * theta_k), max-shifted."""
    m = max(theta)
    exps = [math.exp(eta * (v - m)) for v in theta]
    s = sum(exps)
    return [e / s for e in exps]


def _draw_index(probs, rng) -> int:
    u = rng.random()
    acc = 0.0
    last = len(probs) - 1
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return last


class NodePolicy:
    """Base class; subclasses override the methods their feedback model uses."""

    requires_expected_costs = False
    anytime = False

    def __init__(self, n_children: int) -> None:
        if n_children < 1:
            raise PolicyError("node needs at least one child")
        self.n_children = n_children

    def distribution(self) -> list[float]:
        raise NotImplementedError

    def select(self, rng) -> ModeDraw:
        return ModeDraw(None, _draw_index(self.distribution(), rng))

    def update(self, draw: ModeDraw, cost: float, receive_prob: float) -> None:
        raise PolicyError(f"{type(self).__name__} does not accept bandit feedback")

    def observe_all(self, child_costs) -> None:
        raise PolicyError(f"{type(self).__name__} does not accept one-hop feedback")

    def start_segment(self, m: int) -> None:
        pass


def _check_cost(cost: float) -> None:
    if not 0.0 <= cost <= 1.0:
        raise PolicyError(f"cost must lie in [0,1], got {cost}")


class NormalizedEG(NodePolicy):
    """Exponential weights under complete one-hop feedback.

    Each round the node observes every child's realized would-be cost and
    subtracts it from that child's score; selection is softmax(eta * theta).
    """

    def __init__(self, n_children: int, eta: float) -> None:
        super().__init__(n_children)
        if eta <= 0.0:
            raise PolicyError(f"eta must be positive, got {eta}")
        self.eta = eta
        self.theta = [0.0] * n_children
        self._dist: list[float] | None = None

    def distribution(self) -> list[float]:
        if self._dist is None:
            self._dist = stable_softmax(self.theta, self.eta)
        return self._dist

    def observe_all(self, child_costs) -> None:
        if len(child_costs) != self.n_children:
            raise PolicyError("need one cost per child")
        theta = self.theta
        for j, y in enumerate(child_costs):
            _check_cost(y)
            theta[j] -= y
        self._dist = None


class EpsilonExp3(NodePolicy):
    """Epsilon-mixed EXP3 under end-to-end bandit feedback.

    With probability epsilon the node enters uniform mode U (educating its
    subtree regardless of scores); otherwise exploit mode E samples
    softmax(eta * theta). The update importance-weights the realized cost by
    the probability of the (mode, child) event AND the node's own receive
    probability, which keeps the score estimator unbiased for every child
    even though the node only sees jobs that reach it.
    """

    def __init__(self, n_children: int, eta: float, epsilon: float) -> None:
        super().__init__(n_children)
        self.theta = [0.0] * n_children
        self.set_params(eta, epsilon)

    def exploit_probs(self) -> list[float]:
        if self._soft is None:
            self._soft = stable_softmax(self.theta, self.eta)
        return self._soft

    def distribution(self) -> list[float]:
        if self._dist is None:
            soft = self.exploit_probs()
            eps = self.epsilon
            floor = eps / self.n_children
            self._dist = [floor + (1.0 - eps) * p for p in soft]
        return self._dist

    def select(self, rng) -> ModeDraw:
        if rng.random() < self.epsilon:
            child = int(rng.random() * self.n_children)
            if child == self.n_children:  # guard the measure-zero edge
                child -= 1
            return ModeDraw("U", child)
        return ModeDraw("E", _draw_index(self.exploit_probs(), rng))

    def update(self, draw: ModeDraw, cost: float, receive_prob: float) -> None:
        if receive_prob <= 0.0:
            raise PolicyError(f"receive probability must be positive, got {receive_prob}")
        _check_cost(cost)
        if cost == 0.0:
            return
        if draw.mode == "U":
            dec = cost * self.n_children / receive_prob
        elif draw.mode == "E":
            p = self.exploit_probs()[draw.child]
            if p < PROB_FLOOR:
                raise NumericalError(
                    f"exploit-mode probability underflowed ({p!r}) for child {draw.child}"
                )
            dec = cost / (receive_prob * p)
        else:
            raise PolicyError(f"unknown mode {draw.mode!r}")
        self.theta[draw.child] -= dec
        self._soft = None
        self._dist = None

    def set_params(self, eta: float, epsilon: float) -> None:
        if eta <= 0.0:
            raise PolicyError(f"eta must be positive, got {eta}")
        if not 0.0 <= epsilon <= 1.0:
            raise PolicyError(f"epsilon must lie in [0,1], got {epsilon}")
        self.eta = eta
        self.epsilon = epsilon
        self._soft = None
        self._dist = None

    def reset(self) -> None:
        self.theta = [0.0] * self.n_children
        self._soft = None
        self._dist = None


def anytime_segment(t: int) -> tuple[int, bool]:
    """Doubling-trick segment index m for round t, plus boundary flag.

    Segment m covers rounds 2^m .. 2^(m+1)-1; the flag is True exactly at
    t = 2^m, where parameters are refreshed for horizon 2^m and scores
    restart from zero.
    """
    if t < 1:
        raise PolicyError(f"round index must be >= 1, got {t}")
    m = t.bit_length() - 1
    return m, t == (1 << m)


class AnytimeEpsilonExp3(EpsilonExp3):
    """Doubling-trick wrapper: runs the fixed-horizon policy on segments of
    length 1, 2, 4, ... with parameters re-derived for each segment length.

    The engine calls start_segment at every power-of-two round on every
    node (round indices are global knowledge, so this needs no messages).
    """

    anytime = True

    def __init__(self, n_children: int, depth: int, max_fanout: int, children_all_leaves: bool) -> None:
        self._depth = depth
        self._max_fanout = max_fanout
        self._children_all_leaves = children_all_leaves
        first = default_params(1, depth, max_fanout, children_all_leaves)
        super().__init__(n_children, eta=first.eta, epsilon=first.epsilon)

    def start_segment(self, m: int) -> None:
        params = default_params(
            1 << m, self._depth, self._max_fanout, self._children_all_leaves
        )
        self.reset()
        self.set_params(params.eta, params.epsilon)


class Exp3Baseline(NodePolicy):
    """Independent per-node EXP3: each node learns as if its children were
    plain bandit arms, importance-weighting by its OWN choice probability
    only. No receive-probability correction and no education mode — the
    baseline whose deep nodes starve once ancestors commit.
    """

    def __init__(self, n_children: int, eta: float, gamma: float) -> None:
        super().__init__(n_children)
        if eta <= 0.0:
            raise PolicyError(f"eta must be positive, got {eta}")
        if not 0.0 <= gamma <= 1.0:
            raise PolicyError(f"gamma must lie in [0,1], got {gamma}")
        self.eta = eta
        self.gamma = gamma
        self.theta = [0.0] * n_children
        self._dist: list[float] | None = None

    def distribution(self) -> list[float]:
        if self._dist is None:
            soft = stable_softmax(self.theta, self.eta)
            g = self.gamma
            floor = g / self.n_children
            self._dist = [floor + (1.0 - g) * p for p in soft]
        return self._dist

    def update(self, draw: ModeDraw, cost: float, receive_prob: float) -> None:
        _check_cost(cost)
        if cost == 0.0:
            return
        p = self.distribution()[draw.child]
        if p < PROB_FLOOR:
            raise NumericalError(
                f"choice probability underflowed ({p!r}) for child {draw.child}"
            )
        self.theta[draw.child] -= cost / p
        self._dist = None


class StationaryPolicy(NodePolicy):
    """Always forwards to one fixed child; ignores all feedback."""

    def __init__(self, n_children: int, child: int) -> None:
        super().__init__(n_children)
        if not 0 <= child < n_children:
            raise PolicyError(f"child {child} out of range")
        self.child = child
        self._dist = [1.0 if j == child else 0.0 for j in range(n_children)]

    def distribution(self) -> list[float]:
        return self._dist

    def select(self, rng) -> ModeDraw:
        return ModeDraw(None, self.child)

    def update(self, draw, cost, receive_prob) -> None:
        pass

    def observe_all(self, child_costs) -> None:
        pass


class UniformRandomPolicy(NodePolicy):
    """Forwards uniformly at random forever; ignores all feedback."""

    def __init__(self, n_children: int) -> None:
        super().__init__(n_children)
        self._dist = [1.0 / n_children] * n_children

    def distribution(self) -> list[float]:
        return self._dist

    def select(self, rng) -> ModeDraw:
        child = int(rng.random() * self.n_children)
        if child == self.n_children:
            child -= 1
        return ModeDraw(None, child)

    def update(self, draw, cost, receive_prob) -> None:
        pass

    def observe_all(self, child_costs) -> None:
        pass


@dataclass(frozen=True)
class OracleParams:
    """forward_prob_fn maps the absolute expected-cost gap to the
    probability of forwarding to the HIGHER-cost child (weakly decreasing,
    values in [0,1])."""

    forward_prob_fn: Callable[[float], float]


def constant_forward_prob(q: float) -> Callable[[float], float]:
    """P(gap) = min(1/2, q): constant in the gap, the canonical regime."""
    p = min(0.5, q)
    return lambda gap: p


def exp_decay_forward_prob(q: float) -> Callable[[float], float]:
    """P(gap) = min(1, q) * exp(-gap): decays with the cost gap."""
    base = min(1.0, q)
    return lambda gap: base * math.exp(-gap)


class OraclePolicy(NodePolicy):
    """Two-child policy that knows its children's expected costs.

    The engine refreshes the expected costs each round (for a non-leaf
    child that is its current conditional expected cost); the policy then
    forwards to the worse child with probability P(gap). It never learns.
    """

    requires_expected_costs = True

    def __init__(self, n_children: int, params: OracleParams) -> None:
        super().__init__(n_children)
        if n_children != 2:
            raise PolicyError("oracle policy is defined for exactly 2 children")
        self.params = params
        self._dist: list[float] | None = None

    def set_expected_costs(self, expected_child_costs) -> None:
        e0, e1 = expected_child_costs
        if e0 == e1:
            self._dist = [0.5, 0.5]
            return
        p_high = self.params.forward_prob_fn(abs(e1 - e0))
        if not 0.0 <= p_high <= 1.0:
            raise PolicyError(f"forward probability {p_high} outside [0,1]")
        if e1 > e0:
            self._dist = [1.0 - p_high, p_high]
        else:
            self._dist = [p_high, 1.0 - p_high]

    def distribution(self) -> list[float]:
        if self._dist is None:
            raise PolicyError("expected child costs not supplied this round")
        return self._dist

    def update(self, draw, cost, receive_prob) -> None:
        pass

    def observe_all(self, child_costs) -> None:
        pass
