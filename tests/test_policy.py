import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from treebandit.policy import (
    AnytimeEpsilonExp3,
    EpsilonExp3,
    Exp3Baseline,
    ModeDraw,
    NormalizedEG,
    NumericalError,
    OraclePolicy,
    PolicyError,
    StationaryPolicy,
    UniformRandomPolicy,
    anytime_segment,
    classic_exp3_gamma,
    constant_forward_prob,
    default_params,
    eg_default_eta,
    exp_decay_forward_prob,
    stable_softmax,
)


class TestDefaultParams:
    def test_interior_node_large_horizon(self):
        eta, epsilon = default_params(10**6, 2, 2, children_all_leaves=False)
        assert_allclose(eta, 1e-4, rtol=1e-12)
        assert_allclose(epsilon, 0.02, rtol=1e-12)

    def test_leaf_parent_gets_no_mixing(self):
        assert default_params(10**6, 2, 2, children_all_leaves=True)[1] == 0.0

    def test_single_stage_small_horizon(self):
        eta, epsilon = default_params(16, 1, 2, children_all_leaves=True)
        assert_allclose(eta, 0.25, rtol=1e-12)
        assert epsilon == 0.0

    def test_epsilon_clamped_for_tiny_horizons(self):
        assert default_params(2, 2, 4, children_all_leaves=False)[1] == 1.0

    def test_validation(self):
        with pytest.raises(PolicyError):
            default_params(0, 2, 2, False)
        with pytest.raises(PolicyError):
            default_params(10, 0, 2, False)
        with pytest.raises(PolicyError):
            default_params(10, 2, 1, False)

    def test_eg_eta(self):
        assert_allclose(eg_default_eta(2, 10**5), math.sqrt(math.log(2) / 10**5))


@pytest.mark.parametrize("pol, accepts", [
    (EpsilonExp3(2, eta=1.0, epsilon=0.5), {"bandit"}),
    (AnytimeEpsilonExp3(2, depth=1, max_fanout=2, children_all_leaves=True), {"bandit"}),
    (Exp3Baseline(2, eta=1.0, gamma=0.5), {"bandit"}),
    (NormalizedEG(2, eta=1.0), {"one_hop"}),
    (StationaryPolicy(2, 0), {"bandit", "one_hop"}),
    (UniformRandomPolicy(2), {"bandit", "one_hop"}),
    (OraclePolicy(2, constant_forward_prob(0.2)), {"bandit", "one_hop"}),
], ids=["eps_exp3", "anytime", "exp3", "normalized_eg", "stationary", "uniform", "oracle"])
def test_each_policy_states_the_feedback_it_accepts(pol, accepts):
    assert {model.value for model in pol.accepts} == accepts


class TestNormalizedEG:
    def test_fresh_state_is_uniform(self):
        pol = NormalizedEG(2, eta=0.7)
        assert_allclose(pol.distribution(), [0.5, 0.5], atol=1e-15)

    def test_update_rule(self):
        pol = NormalizedEG(2, eta=0.1)
        pol.observe_all([1.0, 0.0])
        assert_allclose(pol.theta, [-1.0, 0.0])
        pol.theta = [-2.0, -3.0]
        pol.observe_all([0.5, 0.5])
        assert_allclose(pol.theta, [-2.5, -3.5])

    def test_one_sided_costs_closed_form(self):
        eta = 0.3
        pol = NormalizedEG(2, eta=eta)
        for t in range(1, 8):
            pol.observe_all([0.0, 1.0])
            assert_allclose(pol.distribution()[0], 1.0 / (1.0 + math.exp(-eta * t)), rtol=1e-12)

    def test_shift_invariance(self):
        pol = NormalizedEG(3, eta=0.3)
        pol.theta = [-5.0, -5.0, -5.0]
        assert_allclose(pol.distribution(), [1 / 3] * 3, atol=1e-15)

    def test_iterated_equals_closed_form(self):
        rng = np.random.default_rng(5)
        eta = 0.21
        pol = NormalizedEG(4, eta=eta)
        totals = np.zeros(4)
        for _ in range(60):
            y = rng.random(4)
            pol.observe_all(y)
            totals += y
            want = np.exp(-eta * (totals - totals.min()))
            want /= want.sum()
            assert_allclose(pol.distribution(), want, atol=1e-10)

    def test_rejects_out_of_range_costs(self):
        pol = NormalizedEG(2, eta=0.5)
        pol.observe_all([0.25, 0.0])
        theta, dist = list(pol.theta), pol.distribution()
        for costs in ([0.5, 1.5], [-0.1, 0.5], [1.0, 1.5], [0.5, float("nan")]):
            with pytest.raises(PolicyError):
                pol.observe_all(costs)
            # a rejected round changes neither the scores nor the cache
            assert pol.theta == theta
            assert pol.distribution() == dist
            assert pol.distribution() == dist

    def test_rejects_bandit_feedback(self):
        with pytest.raises(PolicyError):
            NormalizedEG(2, eta=0.5).update(ModeDraw("E", 0), 0.5, 1.0)


class TestEpsilonExp3Select:
    def test_symmetric_marginals(self):
        for eps in (0.5, 0.02):
            pol = EpsilonExp3(2, eta=1.0, epsilon=eps)
            assert_allclose(pol.distribution(), [0.5, 0.5], atol=1e-15)

    def test_mixture_marginal_frozen_example(self):
        pol = EpsilonExp3(2, eta=1.0, epsilon=0.2)
        pol.theta = [0.0, -10.0]
        want = 0.2 * 0.5 + 0.8 / (1.0 + math.exp(-10.0))
        assert_allclose(pol.distribution()[0], want, rtol=1e-12)
        assert_allclose(pol.distribution()[0], 0.89997, atol=1e-4)

    def test_select_frequencies_match_marginals(self):
        pol = EpsilonExp3(3, eta=0.8, epsilon=0.3)
        pol.theta = [0.0, -1.0, -2.5]
        rng = np.random.default_rng(12)
        n = 200_000
        counts = np.zeros(3)
        modes = {"U": 0, "E": 0}
        for _ in range(n):
            d = pol.select(rng)
            counts[d.child] += 1
            modes[d.mode] += 1
        x = np.array(pol.distribution())
        sigma = np.sqrt(x * (1 - x) / n)
        assert np.all(np.abs(counts / n - x) <= 4 * sigma)
        assert abs(modes["U"] / n - 0.3) <= 4 * math.sqrt(0.3 * 0.7 / n)

    def test_epsilon_floor(self):
        pol = EpsilonExp3(4, eta=2.0, epsilon=0.1)
        pol.theta = [0.0, -50.0, -90.0, -200.0]
        x = pol.distribution()
        assert all(v >= 0.1 / 4 - 1e-15 for v in x)
        assert_allclose(sum(x), 1.0, atol=1e-12)

    def test_epsilon_zero_never_uniform_mode(self):
        pol = EpsilonExp3(2, eta=1.0, epsilon=0.0)
        rng = np.random.default_rng(3)
        assert all(pol.select(rng).mode == "E" for _ in range(200))

    def test_epsilon_one_always_uniform_mode(self):
        pol = EpsilonExp3(2, eta=1.0, epsilon=1.0)
        rng = np.random.default_rng(3)
        assert all(pol.select(rng).mode == "U" for _ in range(200))


class TestEpsilonExp3Update:
    def test_uniform_mode_decrement(self):
        pol = EpsilonExp3(2, eta=1.0, epsilon=0.5)
        pol.update(ModeDraw("U", 1), cost=1.0, receive_prob=0.5)
        assert_allclose(pol.theta, [0.0, -4.0])

    def test_exploit_mode_decrement_symmetric(self):
        pol = EpsilonExp3(2, eta=0.37, epsilon=0.5)
        pol.update(ModeDraw("E", 0), cost=1.0, receive_prob=1.0)
        assert_allclose(pol.theta, [-2.0, 0.0])

    def test_exploit_mode_decrement_equals_weight_ratio(self):
        # decrement = y * (sum_k e^(eta theta_k)) / (v * e^(eta theta_chosen))
        eta = 1.0
        pol = EpsilonExp3(2, eta=eta, epsilon=0.2)
        pol.theta = [0.0, -10.0]
        pol.update(ModeDraw("E", 1), cost=1.0, receive_prob=0.25)
        want = (math.exp(0.0) + math.exp(-10.0)) / (0.25 * math.exp(-10.0))
        assert_allclose(pol.theta[1], -10.0 - want, rtol=1e-12)

    def test_zero_cost_is_noop(self):
        pol = EpsilonExp3(2, eta=1.0, epsilon=0.5)
        pol.update(ModeDraw("U", 0), cost=0.0, receive_prob=0.01)
        pol.update(ModeDraw("E", 1), cost=0.0, receive_prob=0.01)
        assert pol.theta == [0.0, 0.0]

    def test_validation(self):
        pol = EpsilonExp3(2, eta=1.0, epsilon=0.5)
        with pytest.raises(PolicyError):
            pol.update(ModeDraw("U", 0), cost=1.0, receive_prob=0.0)
        with pytest.raises(PolicyError):
            pol.update(ModeDraw("U", 0), cost=1.5, receive_prob=0.5)
        with pytest.raises(PolicyError):
            pol.update(ModeDraw(None, 0), cost=0.5, receive_prob=0.5)

    @pytest.mark.parametrize("mode", ["U", "E"])
    def test_nan_receive_prob_rejected(self, mode):
        pol = EpsilonExp3(2, eta=1.0, epsilon=0.5)
        pol.theta = [-0.25, -1.0]
        with pytest.raises(PolicyError, match="receive probability must be positive, got nan"):
            pol.update(ModeDraw(mode, 1), cost=1.0, receive_prob=math.nan)
        assert pol.theta == [-0.25, -1.0]

    def test_underflow_guard_raises(self):
        pol = EpsilonExp3(2, eta=1.0, epsilon=0.0)
        pol.theta = [0.0, -800.0]
        with pytest.raises(NumericalError):
            pol.update(ModeDraw("E", 1), cost=1.0, receive_prob=1.0)

    def test_underflowing_importance_weight_raises(self):
        # 5e-324 * 0.5 rounds to 0.0, so the weight v * p underflows
        pol = EpsilonExp3(2, eta=1.0, epsilon=0.0)
        text = "receive probability times exploit-mode probability underflowed (5e-324 * 0.5) for child 1"
        with pytest.raises(NumericalError, match=f"^{re.escape(text)}$"):
            pol.update(ModeDraw("E", 1), cost=1.0, receive_prob=5e-324)
        assert pol.theta == [0.0, 0.0]

    def test_theta_never_increases(self):
        rng = np.random.default_rng(8)
        pol = EpsilonExp3(3, eta=0.4, epsilon=0.3)
        prev = list(pol.theta)
        for _ in range(400):
            d = pol.select(rng)
            pol.update(d, cost=float(rng.random()), receive_prob=0.5)
            assert all(a <= b + 1e-15 for a, b in zip(pol.theta, prev))
            prev = list(pol.theta)


class TestEstimatorMoments:
    """Monte-Carlo check of the importance-weighted estimator's first two
    moments against the closed forms, with scores and costs frozen."""

    def _decrements(self, pol, y, v):
        dec_u = np.zeros(pol.n_children)
        dec_e = np.zeros(pol.n_children)
        for j in range(pol.n_children):
            for mode, out in (("U", dec_u), ("E", dec_e)):
                probe = EpsilonExp3(pol.n_children, pol.eta, pol.epsilon)
                probe.theta = list(pol.theta)
                probe.update(ModeDraw(mode, j), cost=y[j], receive_prob=v)
                out[j] = pol.theta[j] - probe.theta[j]
        return dec_u, dec_e

    def test_first_and_second_moments(self):
        rng = np.random.default_rng(2024)
        n = 200_000
        for _ in range(4):
            k = int(rng.integers(2, 5))
            pol = EpsilonExp3(
                k,
                eta=float(rng.uniform(0.05, 1.0)),
                epsilon=float(rng.uniform(0.05, 0.9)),
            )
            pol.theta = list(-rng.uniform(0.0, 4.0, size=k))
            v = float(rng.uniform(0.1, 1.0))
            y = rng.uniform(0.05, 1.0, size=k)
            soft = np.array(pol.exploit_probs())
            dec_u, dec_e = self._decrements(pol, y, v)

            received = rng.random(n) < v
            uniform_mode = rng.random(n) < pol.epsilon
            child_u = rng.integers(0, k, size=n)
            child_e = np.searchsorted(np.cumsum(soft), rng.random(n))
            child = np.where(uniform_mode, child_u, child_e)
            for j in (0, k - 1):
                hit = received & (child == j)
                z = np.where(
                    hit, np.where(uniform_mode, dec_u[j], dec_e[j]), 0.0
                )
                want_mean = y[j]
                want_second = (
                    (pol.epsilon * k + (1.0 - pol.epsilon) / soft[j]) * y[j] ** 2 / v
                )
                for sample, want in ((z, want_mean), (z**2, want_second)):
                    err = sample.mean() - want
                    tol = 4.0 * sample.std(ddof=1) / math.sqrt(n)
                    assert abs(err) <= tol, (err, tol)


class TestAnytimeSchedule:
    def test_segments(self):
        assert anytime_segment(1) == (0, True)
        assert anytime_segment(8) == (3, True)
        for t in range(9, 16):
            assert anytime_segment(t) == (3, False)
        bounds = [t for t in range(1, 33) if anytime_segment(t)[1]]
        assert bounds == [1, 2, 4, 8, 16, 32]

    def test_wrap_supplies_segment_params(self):
        pol = AnytimeEpsilonExp3(2, depth=2, max_fanout=2, children_all_leaves=False)
        m, boundary = anytime_segment(8)
        assert boundary
        pol.start_segment(m)
        assert_allclose(pol.eta, 8.0 ** (-2.0 / 3.0))
        assert_allclose(pol.epsilon, min(1.0, 2 * 8.0 ** (-1.0 / 3.0)))
        assert not anytime_segment(9)[1]

    def test_policy_resets_on_boundary(self):
        pol = AnytimeEpsilonExp3(2, depth=2, max_fanout=2, children_all_leaves=False)
        pol.start_segment(0)
        pol.update(ModeDraw("U", 0), cost=1.0, receive_prob=1.0)
        assert pol.theta[0] < 0.0
        pol.start_segment(3)
        assert pol.theta == [0.0, 0.0]
        want_eta, want_epsilon = default_params(8, 2, 2, False)
        assert_allclose(pol.eta, want_eta)
        assert_allclose(pol.epsilon, want_epsilon)

    def test_rejects_nonpositive_round(self):
        with pytest.raises(PolicyError):
            anytime_segment(0)


class TestExp3Baseline:
    def test_fresh_state_uniform(self):
        pol = Exp3Baseline(4, eta=0.1, gamma=0.2)
        assert_allclose(pol.distribution(), [0.25] * 4, atol=1e-15)

    def test_classic_gamma(self):
        want = math.sqrt(2 * math.log(2) / ((math.e - 1) * 10**5))
        assert_allclose(classic_exp3_gamma(2, 10**5), want, rtol=1e-12)
        assert classic_exp3_gamma(50, 1) == 1.0  # clamp binds for large K, tiny T

    def test_update_divides_by_own_probability(self):
        pol = Exp3Baseline(2, eta=0.5, gamma=0.0)
        pol.update(ModeDraw(None, 0), cost=0.8, receive_prob=0.123)  # v ignored
        assert_allclose(pol.theta, [-1.6, 0.0])

    def test_estimator_unbiased_given_received(self):
        rng = np.random.default_rng(77)
        pol = Exp3Baseline(3, eta=0.3, gamma=0.15)
        pol.theta = [-1.0, 0.0, -2.0]
        x = np.array(pol.distribution())
        y = np.array([0.9, 0.4, 0.6])
        n = 200_000
        child = np.searchsorted(np.cumsum(x), rng.random(n))
        for j in range(3):
            z = np.where(child == j, y[j] / x[j], 0.0)
            tol = 3.0 * z.std(ddof=1) / math.sqrt(n)
            assert abs(z.mean() - y[j]) <= tol

    def test_gamma_floor(self):
        pol = Exp3Baseline(2, eta=5.0, gamma=0.1)
        pol.theta = [0.0, -100.0]
        assert pol.distribution()[1] >= 0.05 - 1e-15


class TestSimplePolicies:
    def test_stationary(self):
        pol = StationaryPolicy(3, child=2)
        rng = np.random.default_rng(0)
        assert pol.select(rng).child == 2
        assert pol.distribution() == [0.0, 0.0, 1.0]
        pol.update(ModeDraw(None, 2), 1.0, 0.5)  # ignored
        assert pol.distribution() == [0.0, 0.0, 1.0]
        with pytest.raises(PolicyError):
            StationaryPolicy(2, child=5)

    def test_uniform(self):
        pol = UniformRandomPolicy(4)
        rng = np.random.default_rng(1)
        counts = np.bincount([pol.select(rng).child for _ in range(40_000)], minlength=4)
        assert np.all(np.abs(counts / 40_000 - 0.25) < 0.02)


class _LastDraw:
    """A stub rng whose every draw is the largest float below 1."""

    def random(self):
        return float(np.nextafter(1.0, 0.0))


def test_uniform_draw_at_the_top_of_the_unit_interval_picks_the_last_child():
    for K in range(2, 65):
        assert UniformRandomPolicy(K).select(_LastDraw()).child == K - 1
        draw = EpsilonExp3(K, 0.5, 1.0).select(_LastDraw())  # epsilon 1: always uniform mode
        assert (draw.mode, draw.child) == ("U", K - 1)


def oracle_picks(forward_prob_fn, expected_child_costs, n, seed):
    """How often an oracle told these expected costs forwards to child 1."""
    pol = OraclePolicy(2, forward_prob_fn)
    pol.set_expected_costs(expected_child_costs)
    rng = np.random.default_rng(seed)
    return sum(pol.select(rng).child for _ in range(n))


class TestOracle:
    def test_greedy_limit(self):
        assert oracle_picks(constant_forward_prob(0.0), (0.3, 0.7), 100, seed=4) == 0

    def test_forward_probability(self):
        n = 100_000
        picks = oracle_picks(lambda gap: 0.25, (0.3, 0.7), n, seed=5)
        assert abs(picks / n - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / n)

    def test_tie_symmetry(self):
        n = 100_000
        picks = oracle_picks(constant_forward_prob(0.0), (0.5, 0.5), n, seed=6)
        assert abs(picks / n - 0.5) <= 4 * math.sqrt(0.25 / n)

    def test_prob_builders(self):
        assert constant_forward_prob(2.0)(0.3) == 0.5
        assert constant_forward_prob(0.01)(5.0) == 0.01
        assert_allclose(exp_decay_forward_prob(0.4)(1.0), 0.4 * math.exp(-1.0))

    def test_policy_distribution(self):
        pol = OraclePolicy(2, constant_forward_prob(0.2))
        with pytest.raises(PolicyError):
            pol.distribution()
        pol.set_expected_costs((0.7, 0.3))
        assert_allclose(pol.distribution(), [0.2, 0.8])
        pol.set_expected_costs((0.3, 0.7))
        assert_allclose(pol.distribution(), [0.8, 0.2])
        with pytest.raises(PolicyError):
            OraclePolicy(3, constant_forward_prob(0.2))


class TestSoftmaxNumerics:
    def test_extreme_scores_stay_normalized(self):
        x = stable_softmax([-1e6, -2e6, 0.0], eta=1.0)
        assert_allclose(sum(x), 1.0, atol=1e-12)
        assert x[2] == pytest.approx(1.0)

    def test_shift_invariance_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            theta = list(-rng.uniform(0, 50, size=3))
            eta = float(rng.uniform(0.01, 2.0))
            a = stable_softmax(theta, eta)
            b = stable_softmax([v - 123.456 for v in theta], eta)
            assert np.allclose(a, b, atol=1e-12)


def _apply(pol, op, rng):
    """One random change to a softmax learner's scores or parameters."""
    k = pol.n_children
    if op == "update" and not isinstance(pol, NormalizedEG):
        mode = None if isinstance(pol, Exp3Baseline) else str(rng.choice(["U", "E"]))
        cost = 0.0 if rng.random() < 0.2 else float(rng.random())
        try:
            pol.update(ModeDraw(mode, int(rng.integers(k))), cost, float(rng.uniform(0.01, 1.0)))
        except NumericalError:
            pass  # rejected before any score changed
    elif op == "observe_all" and isinstance(pol, NormalizedEG):
        pol.observe_all(rng.random(k).tolist())
    elif op == "set_params":
        mix = 0.0 if isinstance(pol, NormalizedEG) else float(rng.random())
        pol.set_params(float(rng.uniform(0.01, 3.0)), mix)
    elif op == "start_segment":
        pol.start_segment(int(rng.integers(0, 20)))
    elif op == "theta":
        pol.theta = (-rng.uniform(0.0, 50.0, size=k)).tolist()


_SOFTMAX_LEARNERS = {
    "eps_exp3": lambda k: EpsilonExp3(k, eta=0.4, epsilon=0.2),
    "anytime": lambda k: AnytimeEpsilonExp3(k, depth=2, max_fanout=k, children_all_leaves=False),
    "exp3": lambda k: Exp3Baseline(k, eta=0.3, gamma=0.1),
    "normalized_eg": lambda k: NormalizedEG(k, eta=0.3),
}
_CHANGES = ("update", "observe_all", "set_params", "start_segment", "theta")


class TestSoftmaxIsCurrent:
    """The softmax is recomputed where the scores or eta change, so a read
    never finds it stale and never computes it."""

    @pytest.mark.parametrize("name", sorted(_SOFTMAX_LEARNERS))
    def test_softmax_matches_scores_after_any_changes(self, name):
        rng = np.random.default_rng(31)
        for _ in range(100):
            pol = _SOFTMAX_LEARNERS[name](int(rng.integers(2, 6)))
            for op in rng.choice(_CHANGES, size=int(rng.integers(1, 25))):
                _apply(pol, str(op), rng)
                assert pol.exploit_probs() == stable_softmax(pol.theta, pol.eta)
                # the floor and scale that set_params derives follow mix
                assert pol.distribution() == [
                    pol.mix / pol.n_children + (1.0 - pol.mix) * p for p in pol.exploit_probs()]

    @pytest.mark.parametrize("name", sorted(_SOFTMAX_LEARNERS))
    def test_reads_compute_no_softmax(self, name, monkeypatch):
        from treebandit import policy

        calls = []

        def counted(theta, eta):
            calls.append(1)
            return stable_softmax(theta, eta)

        pol = _SOFTMAX_LEARNERS[name](3)
        monkeypatch.setattr(policy, "stable_softmax", counted)
        pol.theta = [0.0, -1.0, -2.5]
        assert len(calls) == 1
        rng = np.random.default_rng(4)
        for _ in range(50):
            pol.select(rng)
            pol.prob(int(rng.integers(3)))
            pol.distribution()
            pol.exploit_probs()
            if not isinstance(pol, NormalizedEG):
                pol.update(ModeDraw(None if name == "exp3" else "E", 1), 0.0, 0.5)
        assert len(calls) == 1
        # a change recomputes it once
        if isinstance(pol, NormalizedEG):
            pol.observe_all([0.5, 0.25, 1.0])
        else:
            pol.update(ModeDraw(None if name == "exp3" else "U", 1), 0.5, 0.5)
        pol.set_params(0.5, pol.mix)
        assert len(calls) == 3

    def test_assigned_scores_are_copied(self):
        pol = EpsilonExp3(2, eta=1.0, epsilon=0.2)
        scores = [0.0, -3.0]
        pol.theta = scores
        scores[1] = 0.0
        pol.theta[0] = -9.0
        assert pol.theta == [0.0, -3.0]
        assert pol.exploit_probs() == stable_softmax([0.0, -3.0], 1.0)
        with pytest.raises(PolicyError, match="one score per child"):
            pol.theta = [0.0]


class TestSoftmaxParams:
    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", sorted(_SOFTMAX_LEARNERS))
    def test_rejects_eta_that_is_not_finite_and_positive(self, name, eta):
        pol = _SOFTMAX_LEARNERS[name](3)
        pol.theta = [0.0, -1.0, -2.5]
        before = (pol.eta, pol.mix, pol.distribution())
        with pytest.raises(PolicyError, match="eta must be positive and finite"):
            pol.set_params(eta, pol.mix)
        # a rejected call changes nothing
        assert (pol.eta, pol.mix, pol.distribution()) == before

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
    def test_constructors_reject_non_finite_eta(self, eta):
        for make in (lambda: EpsilonExp3(3, eta, 0.1), lambda: Exp3Baseline(3, eta, 0.1),
                     lambda: NormalizedEG(3, eta)):
            with pytest.raises(PolicyError, match="eta must be positive and finite"):
                make()
