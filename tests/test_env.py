import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from treebandit.env import (
    BernoulliTreeEnv,
    CsvMatrixEnv,
    DeadlineLatencyEnv,
    EnvError,
    LowerBoundChainEnv,
    RateSchedule,
    bernoulli_tree_means,
    hypoexponential_survival,
    make_mec_env,
    make_multihop_env,
)
from treebandit.topology import build_uniform_tree


def mc_mean_costs(env, t, n_draws, seed=0):
    rng = np.random.default_rng(seed)
    acc = np.zeros(env.n_leaves)
    for _ in range(n_draws):
        acc += env.costs(t, rng)
    return acc / n_draws


def assert_within_binomial_ci(empirical, p, n_draws, n_sigma=3.0):
    sigma = np.sqrt(np.maximum(p * (1.0 - p), 0.0) / n_draws)
    assert np.all(np.abs(empirical - p) <= n_sigma * sigma + 1e-12)


class TestBernoulliTreeEnv:
    def test_default_mean_layout(self):
        assert_allclose(bernoulli_tree_means(4, 0.2), [1.0, 0.6, 0.4, 0.2])
        assert_allclose(bernoulli_tree_means(8, 0.4), [1.0] + list(np.linspace(0.7, 0.4, 7)))

    def test_costs_are_bernoulli(self):
        env = BernoulliTreeEnv([1.0, 0.5, 0.4, 0.2], shift_round=50)
        rng = np.random.default_rng(1)
        for t in range(1, 50):
            c = env.costs(t, rng)
            assert set(np.unique(c)) <= {0.0, 1.0}
            assert c[0] == 1.0  # certain-cost leaf before the shift

    def test_shift_zeroes_the_certain_leaf(self):
        env = BernoulliTreeEnv([1.0, 0.5, 0.4, 0.2], shift_round=50)
        assert env.shift_leaf == 0
        rng = np.random.default_rng(2)
        for t in range(50, 120):
            assert env.costs(t, rng)[0] == 0.0
        assert env.expected_costs(49)[0] == 1.0
        assert env.expected_costs(50)[0] == 0.0

    def test_monte_carlo_matches_expected(self):
        env = BernoulliTreeEnv([1.0, 0.5, 0.4, 0.2], shift_round=1000)
        n = 100_000
        emp = mc_mean_costs(env, t=3, n_draws=n, seed=7)
        assert_within_binomial_ci(emp, env.expected_costs(3), n)

    def test_explicit_shift_leaf(self):
        env = BernoulliTreeEnv([0.3, 0.9, 0.1], shift_round=10, shift_leaf=2)
        assert env.expected_costs(10)[2] == 0.0
        assert env.expected_costs(10)[1] == 0.9

    def test_validation(self):
        with pytest.raises(EnvError):
            BernoulliTreeEnv([0.5, 1.2])
        with pytest.raises(EnvError):
            BernoulliTreeEnv([0.5])
        with pytest.raises(EnvError):
            BernoulliTreeEnv([0.5, 0.5], shift_round=0)
        with pytest.raises(EnvError):
            BernoulliTreeEnv([0.5, 0.5], shift_round=5, shift_leaf=9)

    def test_replay_determinism(self):
        env = BernoulliTreeEnv([1.0, 0.5, 0.4, 0.2], shift_round=30)
        a = [env.costs(t, np.random.default_rng(99)) for t in range(1, 6)]
        b = [env.costs(t, np.random.default_rng(99)) for t in range(1, 6)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestLowerBoundChainEnv:
    def test_frozen_ladder_depth2(self):
        env = LowerBoundChainEnv(2, 0.1)
        assert_allclose(env.means, [0.35, 0.3, 0.7])
        assert_allclose(env.min_expected_cost, 0.3)

    def test_frozen_ladder_depth3(self):
        env = LowerBoundChainEnv(3, 1.0 / 16.0)
        assert_allclose(env.means, [0.28125, 0.3125, 0.25, 0.75])
        assert_allclose(env.min_expected_cost, 0.25)

    def test_best_last_leaf_swaps_deep_pair(self):
        env = LowerBoundChainEnv(2, 0.1, best_last_leaf=True)
        assert_allclose(env.means, [0.35, 0.7, 0.3])

    def test_min_expected_cost_formula(self):
        for depth in (2, 3, 4):
            delta = 2.0 ** -(depth + 1)
            env = LowerBoundChainEnv(depth, delta)
            want = (1.0 - 2.0**depth * delta) / 2.0
            assert_allclose(env.means.min(), want)
            assert_allclose(env.min_expected_cost, want)

    def test_ladder_strictly_increasing(self):
        for depth in (2, 3, 4):
            delta = 2.0 ** -(depth + 1)
            env = LowerBoundChainEnv(depth, delta)
            ladder = env.means[: depth - 1]
            assert env.min_expected_cost < ladder[0]
            assert np.all(np.diff(ladder) > 0.0) or ladder.size == 1
            assert np.all((env.means > 0.0) & (env.means < 1.0))

    def test_delta_range(self):
        with pytest.raises(EnvError):
            LowerBoundChainEnv(2, 0.3)
        with pytest.raises(EnvError):
            LowerBoundChainEnv(2, 0.25)
        with pytest.raises(EnvError):
            LowerBoundChainEnv(2, 0.0)
        with pytest.raises(EnvError):
            LowerBoundChainEnv(1, 0.1)

    def test_costs_match_means(self):
        env = LowerBoundChainEnv(2, 0.125)
        n = 100_000
        emp = mc_mean_costs(env, t=1, n_draws=n, seed=11)
        assert_within_binomial_ci(emp, env.means, n)


class TestHypoexponentialSurvival:
    def test_single_rate(self):
        assert_allclose(hypoexponential_survival(1.0, [2.0]), math.exp(-2.0), rtol=1e-10)

    def test_distinct_rates_partial_fractions(self):
        rates = [1.0, 3.0, 7.0]
        d = 0.8
        want = 0.0
        for i, li in enumerate(rates):
            coef = 1.0
            for j, lj in enumerate(rates):
                if j != i:
                    coef *= lj / (lj - li)
            want += coef * math.exp(-li * d)
        assert_allclose(hypoexponential_survival(d, rates), want, rtol=1e-9)

    def test_repeated_rates_erlang(self):
        lam, n, d = 4.0, 3, 0.5
        want = math.exp(-lam * d) * sum((lam * d) ** k / math.factorial(k) for k in range(n))
        assert_allclose(hypoexponential_survival(d, [lam] * n), want, rtol=1e-9)

    def test_edge_cases(self):
        assert hypoexponential_survival(0.0, [1.0]) == 1.0
        assert hypoexponential_survival(-0.5, [1.0]) == 1.0
        assert hypoexponential_survival(2.0, []) == 0.0


class TestDeadlineLatencyEnv:
    def _simple_env(self):
        topo = build_uniform_tree(2, 2)
        edge_rates = {
            1: RateSchedule(8.0, 8.0),
            2: RateSchedule(2.0, 200.0, horizon=100),
        }
        proc = {3: 0.5, 4: 0.2, 5: 0.5, 6: 0.2}
        miss = {3: 0.005, 4: 0.10, 5: 0.005, 6: 0.10}
        return DeadlineLatencyEnv(topo, edge_rates, proc, miss)

    def test_two_valued_costs(self):
        env = self._simple_env()
        rng = np.random.default_rng(3)
        for t in (1, 50, 100):
            for _ in range(200):
                c = env.costs(t, rng)
                assert set(np.round(c, 12)) <= {0.005, 0.10, 1.0}

    def test_expected_costs_closed_form(self):
        env = self._simple_env()
        # leaf 3: budget 0.5 on one Exp(8) link; leaf 4: budget 0.8
        e = env.expected_costs(1)
        p3 = math.exp(-8.0 * 0.5)
        p4 = math.exp(-8.0 * 0.8)
        assert_allclose(e[0], p3 + (1 - p3) * 0.005, rtol=1e-9)
        assert_allclose(e[1], p4 + (1 - p4) * 0.10, rtol=1e-9)
        # the ramped link at t=1 has rate 2
        p5 = math.exp(-2.0 * 0.5)
        assert_allclose(e[2], p5 + (1 - p5) * 0.005, rtol=1e-9)

    def test_ramp_lowers_violation_probability(self):
        env = self._simple_env()
        early = env.expected_costs(1)
        late = env.expected_costs(100)
        assert late[2] < early[2]  # rate grew 2 -> 200, misses get rare
        assert_allclose(late[0], early[0])  # constant link unchanged

    def test_monte_carlo_matches_expected(self):
        env = self._simple_env()
        n = 100_000
        emp = mc_mean_costs(env, t=40, n_draws=n, seed=17)
        want = env.expected_costs(40)
        sigma = np.sqrt(want * (1 - want) / n)  # conservative: costs in [0,1]
        assert np.all(np.abs(emp - want) <= 3.0 * sigma + 1e-12)

    def test_impossible_budget(self):
        topo = build_uniform_tree(2, 1)
        env = DeadlineLatencyEnv(topo, {1: RateSchedule(5.0, 5.0)}, {1: 1.5, 2: 0.0}, {})
        assert env.expected_costs(1)[0] == 1.0

    def test_shared_edge_draws_correlate_siblings(self):
        # Siblings under one server share the link draw: with equal
        # processing times they always agree on the deadline flag.
        topo = build_uniform_tree(2, 2)
        env = DeadlineLatencyEnv(
            topo,
            {1: RateSchedule(1.0, 1.0), 2: RateSchedule(1.0, 1.0)},
            {leaf: 0.5 for leaf in topo.leaves},
            {},
        )
        rng = np.random.default_rng(5)
        for _ in range(300):
            c = env.costs(1, rng)
            assert c[0] == c[1] and c[2] == c[3]

    def test_validation(self):
        topo = build_uniform_tree(2, 1)
        with pytest.raises(EnvError):
            DeadlineLatencyEnv(topo, {0: RateSchedule(1, 1)}, {}, {})
        with pytest.raises(EnvError):
            DeadlineLatencyEnv(topo, {}, {}, {1: 1.5})
        with pytest.raises(EnvError):
            RateSchedule(0.0, 5.0)


class TestScenarioBuilders:
    def test_mec_layout(self):
        topo = build_uniform_tree(2, 2)
        env = make_mec_env(topo, horizon=1000)
        e1 = env.expected_costs(1)
        # both servers host identical (proc, miss) menus; at t=1 the ramped
        # link (rate 2) violates more often than the constant one (rate 8)
        assert e1[2] > e1[0] and e1[3] > e1[1]
        eT = env.expected_costs(1000)
        assert eT[2] < e1[2]  # ramped link speeds up over the horizon

    def test_mec_needs_depth2(self):
        with pytest.raises(EnvError):
            make_mec_env(build_uniform_tree(2, 3), horizon=10)

    def test_multihop_all_edges_stochastic(self):
        topo = build_uniform_tree(2, 3)
        env = make_multihop_env(topo, horizon=500)
        rng = np.random.default_rng(9)
        c = env.costs(1, rng)
        assert set(np.unique(c)) <= {0.0, 1.0}
        assert len(env._edges) == topo.node_count - 1

    def test_multihop_expected_in_unit_interval(self):
        topo = build_uniform_tree(2, 2)
        env = make_multihop_env(topo, horizon=100)
        e = env.expected_costs(50)
        assert np.all((e > 0.0) & (e < 1.0))


class TestCsvMatrixEnv:
    def test_replay(self, tmp_path):
        path = tmp_path / "costs.csv"
        path.write_text("3,4,5,6\n0,1,0.5,0.25\n1,0,0,0\n")
        env = CsvMatrixEnv(str(path))
        assert env.n_leaves == 4
        assert env.leaf_ids == [3, 4, 5, 6]
        rng = np.random.default_rng(0)
        assert_allclose(env.costs(1, rng), [0, 1, 0.5, 0.25])
        assert_allclose(env.costs(2, rng), [1, 0, 0, 0])
        assert_allclose(env.expected_costs(2), [1, 0, 0, 0])
        with pytest.raises(EnvError):
            env.costs(3, rng)

    def test_validation(self, tmp_path):
        bad_width = tmp_path / "w.csv"
        bad_width.write_text("3,4\n0,1\n1\n")
        with pytest.raises(EnvError):
            CsvMatrixEnv(str(bad_width))
        bad_range = tmp_path / "r.csv"
        bad_range.write_text("3,4\n0,2\n")
        with pytest.raises(EnvError):
            CsvMatrixEnv(str(bad_range))
        empty = tmp_path / "e.csv"
        empty.write_text("3,4\n")
        with pytest.raises(EnvError):
            CsvMatrixEnv(str(empty))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_costs_rejected(self, tmp_path, bad):
        path = tmp_path / "n.csv"
        path.write_text(f"3,4\n0,1\n0.5,{bad}\n")
        with pytest.raises(EnvError, match="finite"):
            CsvMatrixEnv(str(path))
