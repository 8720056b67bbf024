"""Per-node forwarding policies.

Every non-leaf node owns one policy instance and never shares state with
other nodes: coordination happens only through the job itself, the receive
probability handed down, and the realized end-to-end cost handed back up.

Policies fall into two feedback families:

- ``observe_all(child_costs)``: complete one-hop feedback, the node sees
  every child's would-be cost each round (exponential-weights update).
- ``update(draw, cost, receive_prob)``: end-to-end bandit feedback, the
  node sees one realized cost only on rounds the job passed through it.
  An update with cost 0 must change nothing: the engine skips them, and
  each learner returns at once on cost 0 for direct callers.

A class's ``accepts`` names the feedback models it learns under.

``distribution()`` returns the current selection distribution over child
positions, for trace emission and the expected-cost recursion.
``prob(child)`` returns one entry of it, the same float, without building
the list: the engine multiplies it into the receive probabilities along a
path.

The three learners share one exponential-weights learner,
``_SoftmaxPolicy``: scores ``theta``, rate ``eta``, their softmax, and its
``prob``/``distribution``/``select``. The softmax is recomputed where
``theta`` or ``eta`` changes and nowhere else, so every read finds it
current. Each supplies only its uniform floor ``mix`` and its update:
``EpsilonExp3`` mixes in ``epsilon`` (and splits its draw into modes U and
E) and ``Exp3Baseline`` mixes in ``gamma``, both learning through
``update``; ``NormalizedEG`` mixes in nothing and learns through
``observe_all``. The fixed policies share ``_FixedPolicy``, which ignores
all feedback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import exp
from typing import Callable

PROB_FLOOR = 1e-300


class FeedbackModel(Enum):
    COMPLETE_ONE_HOP = "one_hop"
    END_TO_END_BANDIT = "bandit"


class PolicyError(ValueError):
    """Raised for invalid parameters or feedback-model misuse."""


class NumericalError(ArithmeticError):
    """Raised when a conditional probability underflows the guard floor.

    The mixing floor at ancestor nodes is what keeps importance weights
    bounded; if it ever fails to, that is an error worth surfacing, not a
    value worth clamping.
    """


@dataclass(frozen=True)
class ModeDraw:
    """Result of one selection: mode ("U" uniform, "E" exploit, or None
    for policies without a mode split) and the chosen child position."""

    mode: str | None
    child: int


@cache
def _mode_draws(mode: str | None, n_children: int) -> tuple[ModeDraw, ...]:
    """``ModeDraw(mode, j)`` for every child position ``j``, made once and
    shared: a draw is immutable, so select hands these out instead of
    allocating one per visit."""
    return tuple(ModeDraw(mode, j) for j in range(n_children))


def default_params(T: int, L: int, D: int, children_all_leaves: bool) -> tuple[float, float]:
    """Horizon-tuned ``(eta, epsilon)`` for the epsilon-mixed bandit policy.

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
    return eta, epsilon


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
    """exp(eta * theta_j) / sum_k exp(eta * theta_k), max-shifted. The sum
    adds left to right; ``sum()`` compensates from Python 3.12 on."""
    m = max(theta)
    exps = []
    s = 0.0
    for v in theta:
        e = exp(eta * (v - m))
        exps.append(e)
        s += e
    j = 0
    for e in exps:
        exps[j] = e / s
        j += 1
    return exps


class NodePolicy:
    """Base class; subclasses override the methods their feedback model uses."""

    accepts: frozenset[FeedbackModel] = frozenset()
    requires_expected_costs = False
    anytime = False
    fixed = False  # True: the distribution changes only in set_expected_costs

    def __init__(self, n_children: int) -> None:
        if n_children < 1:
            raise PolicyError("node needs at least one child")
        self.n_children = n_children
        self._draws = _mode_draws(None, n_children)

    def distribution(self) -> list[float]:
        raise NotImplementedError

    def prob(self, child: int) -> float:
        """``distribution()[child]``; subclasses compute it without the list."""
        return self.distribution()[child]

    def select(self, rng) -> ModeDraw:
        u = rng.random()
        acc = 0.0
        for j, p in enumerate(self.distribution()):
            acc += p
            if u < acc:
                return self._draws[j]
        return self._draws[-1]

    def update(self, draw: ModeDraw, cost: float, receive_prob: float) -> None:
        raise PolicyError(f"{type(self).__name__} does not accept bandit feedback")

    def observe_all(self, child_costs) -> None:
        raise PolicyError(f"{type(self).__name__} does not accept one-hop feedback")

    def start_segment(self, m: int) -> None:
        pass


class _SoftmaxPolicy(NodePolicy):
    """Exponential weights with a uniform floor: child j is drawn with
    probability ``mix / K + (1 - mix) * softmax(eta * theta)_j``.

    Subclasses pass in their mix and supply the feedback method that lowers
    the scores ``_theta``. ``_soft`` is softmax(eta * theta) at all times:
    whatever changes the scores or ``eta`` recomputes it before returning.
    ``set_params`` writes ``eta`` and ``mix`` and derives floor and scale.
    """

    def __init__(self, n_children: int, eta: float, mix: float) -> None:
        super().__init__(n_children)
        self._theta = [0.0] * n_children
        self.set_params(eta, mix)

    @property
    def theta(self) -> list[float]:
        """A copy of the scores; assign a list to replace them."""
        return list(self._theta)

    @theta.setter
    def theta(self, scores) -> None:
        scores = list(scores)
        if len(scores) != self.n_children:
            raise PolicyError(f"need one score per child, got {len(scores)}")
        self._theta = scores
        self._soft = stable_softmax(scores, self.eta)

    def set_params(self, eta: float, mix: float) -> None:
        # written so that a NaN, which fails every comparison, fails the check
        if not 0.0 < eta < math.inf:
            raise PolicyError(f"eta must be positive and finite, got {eta}")
        if not 0.0 <= mix <= 1.0:
            raise PolicyError(f"mixing rate (epsilon or gamma) must lie in [0,1], got {mix}")
        self.eta = eta
        self.mix = mix
        self._floor = mix / self.n_children
        self._scale = 1.0 - mix
        self._soft = stable_softmax(self._theta, eta)

    def exploit_probs(self) -> list[float]:
        """softmax(eta * theta)."""
        return self._soft

    def distribution(self) -> list[float]:
        return [self.prob(j) for j in range(self.n_children)]

    def prob(self, child: int) -> float:
        return self._floor + self._scale * self._soft[child]

    def select(self, rng) -> ModeDraw:
        # inverse CDF of distribution(), its entries made on the fly
        floor = self._floor
        scale = self._scale
        u = rng.random()
        acc = 0.0
        for j, p in enumerate(self._soft):
            acc += floor + scale * p
            if u < acc:
                return self._draws[j]
        return self._draws[-1]


class NormalizedEG(_SoftmaxPolicy):
    """Exponential weights under complete one-hop feedback, with no floor.

    Each round the node observes every child's realized would-be cost and
    subtracts it from that child's score; selection is softmax(eta * theta).
    """

    accepts = frozenset({FeedbackModel.COMPLETE_ONE_HOP})

    def __init__(self, n_children: int, eta: float) -> None:
        super().__init__(n_children, eta, 0.0)

    def observe_all(self, child_costs) -> None:
        if len(child_costs) != self.n_children:
            raise PolicyError("need one cost per child")
        for y in child_costs:
            if not 0.0 <= y <= 1.0:
                raise PolicyError(f"cost must lie in [0,1], got {y}")
        theta = self._theta
        for j, y in enumerate(child_costs):
            theta[j] -= y
        self._soft = stable_softmax(theta, self.eta)


class EpsilonExp3(_SoftmaxPolicy):
    """Epsilon-mixed EXP3 under end-to-end bandit feedback.

    With probability epsilon the node enters uniform mode U (educating its
    subtree regardless of scores); otherwise exploit mode E samples
    softmax(eta * theta). The update importance-weights the realized cost by
    the probability of the (mode, child) event AND the node's own receive
    probability, which keeps the score estimator unbiased for every child
    even though the node only sees jobs that reach it.
    """

    accepts = frozenset({FeedbackModel.END_TO_END_BANDIT})

    def __init__(self, n_children: int, eta: float, epsilon: float) -> None:
        super().__init__(n_children, eta, epsilon)
        self._uniform_draws = _mode_draws("U", n_children)
        self._draws = _mode_draws("E", n_children)

    @property
    def epsilon(self) -> float:
        return self.mix

    def select(self, rng) -> ModeDraw:
        if rng.random() < self.mix:
            return self._uniform_draws[int(rng.random() * self.n_children)]
        # the softmax's CDF, inline: a shared scan would cost a call per visit
        u = rng.random()
        acc = 0.0
        for j, p in enumerate(self._soft):
            acc += p
            if u < acc:
                return self._draws[j]
        return self._draws[-1]

    def update(self, draw: ModeDraw, cost: float, receive_prob: float) -> None:
        if not receive_prob > 0.0:  # a NaN fails it too
            raise PolicyError(f"receive probability must be positive, got {receive_prob}")
        if not 0.0 <= cost <= 1.0:
            raise PolicyError(f"cost must lie in [0,1], got {cost}")
        if cost == 0.0:
            return
        if draw.mode == "U":
            dec = cost * self.n_children / receive_prob
        elif draw.mode == "E":
            p = self._soft[draw.child]
            if p < PROB_FLOOR:
                raise NumericalError(
                    f"exploit-mode probability underflowed ({p!r}) for child {draw.child}"
                )
            dec = cost / (receive_prob * p)
        else:
            raise PolicyError(f"unknown mode {draw.mode!r}")
        self._theta[draw.child] -= dec
        self._soft = stable_softmax(self._theta, self.eta)


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
        self._shape = (depth, max_fanout, children_all_leaves)  # default_params' arguments after T
        super().__init__(n_children, *default_params(1, *self._shape))

    def start_segment(self, m: int) -> None:
        self._theta = [0.0] * self.n_children
        self.set_params(*default_params(1 << m, *self._shape))


class Exp3Baseline(_SoftmaxPolicy):
    """Independent per-node EXP3: each node learns as if its children were
    plain bandit arms, importance-weighting by its OWN choice probability
    only. No receive-probability correction and no education mode — the
    baseline whose deep nodes starve once ancestors commit.
    """

    accepts = frozenset({FeedbackModel.END_TO_END_BANDIT})

    def __init__(self, n_children: int, eta: float, gamma: float) -> None:
        super().__init__(n_children, eta, gamma)

    @property
    def gamma(self) -> float:
        return self.mix

    def update(self, draw: ModeDraw, cost: float, receive_prob: float) -> None:
        if not 0.0 <= cost <= 1.0:
            raise PolicyError(f"cost must lie in [0,1], got {cost}")
        if cost == 0.0:
            return
        p = self.prob(draw.child)
        if p < PROB_FLOOR:
            raise NumericalError(
                f"choice probability underflowed ({p!r}) for child {draw.child}"
            )
        self._theta[draw.child] -= cost / p
        self._soft = stable_softmax(self._theta, self.eta)


class _FixedPolicy(NodePolicy):
    """A policy that never learns: it ignores all feedback, and its
    distribution is the list ``_dist``."""

    accepts = frozenset(FeedbackModel)
    fixed = True

    def distribution(self) -> list[float]:
        return self._dist

    def update(self, draw, cost, receive_prob) -> None:
        pass

    def observe_all(self, child_costs) -> None:
        pass


class StationaryPolicy(_FixedPolicy):
    """Always forwards to one fixed child."""

    def __init__(self, n_children: int, child: int) -> None:
        super().__init__(n_children)
        if not 0 <= child < n_children:
            raise PolicyError(f"child {child} out of range")
        self.child = child
        self._dist = [1.0 if j == child else 0.0 for j in range(n_children)]

    def select(self, rng) -> ModeDraw:
        return self._draws[self.child]


class UniformRandomPolicy(_FixedPolicy):
    """Forwards uniformly at random forever."""

    def __init__(self, n_children: int) -> None:
        super().__init__(n_children)
        self._dist = [1.0 / n_children] * n_children

    def select(self, rng) -> ModeDraw:
        return self._draws[int(rng.random() * self.n_children)]


def constant_forward_prob(q: float) -> Callable[[float], float]:
    """P(gap) = min(1/2, q): constant in the gap, the canonical regime."""
    p = min(0.5, q)
    return lambda gap: p


def exp_decay_forward_prob(q: float) -> Callable[[float], float]:
    """P(gap) = min(1, q) * exp(-gap): decays with the cost gap."""
    base = min(1.0, q)
    return lambda gap: base * math.exp(-gap)


class OraclePolicy(_FixedPolicy):
    """Two-child policy that knows its children's expected costs.

    The engine refreshes the expected costs before the trace and the routing
    of each round in which they may have changed (for a non-leaf child they
    are its current conditional expected cost); the policy then forwards to
    the worse (higher-cost) child with probability ``forward_prob_fn(gap)``,
    weakly decreasing in the absolute expected-cost gap, in [0,1]. It never
    learns.
    """

    requires_expected_costs = True

    def __init__(self, n_children: int, forward_prob_fn: Callable[[float], float]) -> None:
        super().__init__(n_children)
        if n_children != 2:
            raise PolicyError("oracle policy is defined for exactly 2 children")
        self.forward_prob_fn = forward_prob_fn
        self._dist: list[float] | None = None

    def set_expected_costs(self, expected_child_costs) -> None:
        e0, e1 = expected_child_costs
        if e0 == e1:
            self._dist = [0.5, 0.5]
            return
        p_high = self.forward_prob_fn(abs(e1 - e0))
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
