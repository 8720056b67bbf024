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
        acc += env.costs_block(t, 1, rng)[0]
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
            c = env.costs_block(t, 1, rng)[0]
            assert set(np.unique(c)) <= {0.0, 1.0}
            assert c[0] == 1.0  # certain-cost leaf before the shift

    def test_shift_zeroes_the_certain_leaf(self):
        env = BernoulliTreeEnv([1.0, 0.5, 0.4, 0.2], shift_round=50)
        assert env.shift_leaf == 0
        rng = np.random.default_rng(2)
        for t in range(50, 120):
            assert env.costs_block(t, 1, rng)[0, 0] == 0.0
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
        with pytest.raises(EnvError, match="shift_leaf needs a shift_round"):
            BernoulliTreeEnv([0.5, 0.2], shift_leaf=9)

    def test_nan_mean_rejected(self):
        # a NaN mean would make its leaf always cost 0 and its expected cost NaN
        with pytest.raises(EnvError, match=r"^Bernoulli means must lie in \[0,1\]$"):
            BernoulliTreeEnv([math.nan, 0.5, 0.2, 0.3])

    def test_replay_determinism(self):
        env = BernoulliTreeEnv([1.0, 0.5, 0.4, 0.2], shift_round=30)
        a = [env.costs_block(t, 1, np.random.default_rng(99))[0] for t in range(1, 6)]
        b = [env.costs_block(t, 1, np.random.default_rng(99))[0] for t in range(1, 6)]
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

    def test_delta_defaults_to_half_its_limit(self):
        for depth in (2, 3, 4, 5):
            env = LowerBoundChainEnv(depth)
            assert env.delta == 2.0 ** -(depth + 1)
            assert np.array_equal(env.means, LowerBoundChainEnv(depth, 2.0 ** -(depth + 1)).means)

    def test_delta_range(self):
        with pytest.raises(EnvError):
            LowerBoundChainEnv(2, 0.3)
        with pytest.raises(EnvError):
            LowerBoundChainEnv(2, 0.25)
        with pytest.raises(EnvError):
            LowerBoundChainEnv(2, 0.0)
        with pytest.raises(EnvError):
            LowerBoundChainEnv(1, 0.1)

    def test_drawn_as_an_unshifted_bernoulli_env(self):
        env = LowerBoundChainEnv(3)
        assert isinstance(env, BernoulliTreeEnv) and env.shift_round is None
        assert env.expected_costs(1) is env.means and env.expected_costs(99) is env.means
        assert not env.means.flags.writeable
        # the chain's own draw before it became a subclass: one comparison per block
        want = (np.random.default_rng(3).random((50, 4)) < env.means).astype(np.float64)
        assert np.array_equal(env.costs_block(7, 50, np.random.default_rng(3)), want)

    def test_costs_match_means(self):
        env = LowerBoundChainEnv(2, 0.125)
        n = 100_000
        emp = mc_mean_costs(env, t=1, n_draws=n, seed=11)
        assert_within_binomial_ci(emp, env.means, n)


@pytest.mark.parametrize("env, pre, post", [
    (BernoulliTreeEnv([0.9, 0.5, 0.1]), [0.9, 0.5, 0.1], [0.9, 0.5, 0.1]),
    (BernoulliTreeEnv([0.9, 0.5, 0.1], shift_round=4), [0.9, 0.5, 0.1], [0.0, 0.5, 0.1]),
    (LowerBoundChainEnv(2, 0.125), [0.3125, 0.25, 0.75], [0.3125, 0.25, 0.75]),
], ids=["bernoulli", "bernoulli_shifted", "chain"])
def test_expected_costs_are_read_only(env, pre, post):
    # the engine keeps what it computed from an expected-cost array while
    # the same array comes back, so nothing may write into it
    for t in (1, 3, 4, 9):
        with pytest.raises(ValueError):
            env.expected_costs(t)[0] = 0.5
        assert env.expected_costs(t).tolist() == (pre if t < 4 else post)
    u = np.random.default_rng(4).random((6, 3))
    want = np.vstack((u[:3] < pre, u[3:] < post)).astype(np.float64)
    assert np.array_equal(env.costs_block(1, 6, np.random.default_rng(4)), want)


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

    def test_infinite_budget_is_never_exceeded(self):
        assert hypoexponential_survival(math.inf, [2.0]) == 0.0
        assert hypoexponential_survival(math.inf, [1e-300, 1e300]) == 0.0

    def test_nan_budget_rejected(self):
        with pytest.raises(EnvError, match="budget must be a number, got nan"):
            hypoexponential_survival(math.nan, [2.0])

    @pytest.mark.parametrize("rate", [math.inf, 0.0, -1.0, math.nan])
    def test_rate_must_be_finite_and_positive(self, rate):
        for budget in (1.0, 0.0, math.inf):
            with pytest.raises(EnvError, match=f"finite and positive, got {rate}"):
                hypoexponential_survival(budget, [2.0, rate])

    def test_near_instant_delay_adds_nothing(self):
        # validate accepts any finite rate; expm of this generator overflowed to NaN
        assert_allclose(hypoexponential_survival(2.0, [1e300, 1.0]), math.exp(-2.0), rtol=1e-12)

    def test_closed_forms_on_a_seeded_grid(self):
        # Erlang for 1-6 equal rates, and two distinct rates with rate * budget
        # up to 1e6 and rate ratios up to 1e20, in either order
        gen = np.random.default_rng(11)
        for _ in range(1000):
            budget = 10.0 ** gen.uniform(-3, 1)
            x = 10.0 ** gen.uniform(-3, 6)
            fast = x / budget
            n = int(gen.integers(1, 7))
            erlang = math.exp(-x) * sum(x**j / math.factorial(j) for j in range(n))
            assert abs(hypoexponential_survival(budget, [fast] * n) - erlang) <= 1e-12
            slow = fast / 10.0 ** gen.uniform(0, 20)
            # (fast e^-slow*b - slow e^-fast*b) / (fast - slow), written without cancellation
            a = math.exp(-slow * budget)
            two = a - slow * a * math.expm1(-(fast - slow) * budget) / (fast - slow)
            rates = [slow, fast] if gen.random() < 0.5 else [fast, slow]
            assert abs(hypoexponential_survival(budget, rates) - two) <= 1e-12

    def test_matches_scipy_expm(self):
        expm = pytest.importorskip("scipy.linalg").expm
        # 1-6 rates up to 1e6, 30% of them repeats, budgets 1e-3 to 10
        gen = np.random.default_rng(5)
        for _ in range(3000):
            rates = []
            for _ in range(int(gen.integers(1, 7))):
                repeat = rates and gen.random() < 0.3
                rates.append(rates[int(gen.integers(len(rates)))] if repeat
                             else 10.0 ** gen.uniform(-1, 6))
            budget = 10.0 ** gen.uniform(-3, 1)
            generator = np.diag(-np.array(rates)) + np.diag(rates[:-1], 1)
            want = min(1.0, expm(generator * budget)[0].sum())
            assert abs(hypoexponential_survival(budget, rates) - want) <= 1e-12


class TestDeadlineLatencyEnv:
    def _simple_env(self):
        topo = build_uniform_tree(2, 2)
        edge_rates = {1: (8.0, 8.0), 2: (2.0, 200.0)}
        proc = {3: 0.5, 4: 0.2, 5: 0.5, 6: 0.2}
        miss = {3: 0.005, 4: 0.10, 5: 0.005, 6: 0.10}
        return DeadlineLatencyEnv(topo, edge_rates, proc, miss, horizon=100)

    def test_two_valued_costs(self):
        env = self._simple_env()
        rng = np.random.default_rng(3)
        for t in (1, 50, 100):
            for _ in range(200):
                c = env.costs_block(t, 1, rng)[0]
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
        env = DeadlineLatencyEnv(topo, {1: (5.0, 5.0)}, {1: 1.5, 2: 0.0}, {})
        assert env.expected_costs(1)[0] == 1.0

    def test_shared_edge_draws_correlate_siblings(self):
        # Siblings under one server share the link draw: with equal
        # processing times they always agree on the deadline flag.
        topo = build_uniform_tree(2, 2)
        env = DeadlineLatencyEnv(
            topo,
            {1: (1.0, 1.0), 2: (1.0, 1.0)},
            {leaf: 0.5 for leaf in topo.leaves},
            {},
        )
        rng = np.random.default_rng(5)
        for _ in range(300):
            c = env.costs_block(1, 1, rng)[0]
            assert c[0] == c[1] and c[2] == c[3]

    def test_validation(self):
        topo = build_uniform_tree(2, 1)
        with pytest.raises(EnvError):
            DeadlineLatencyEnv(topo, {0: (1, 1)}, {}, {})
        with pytest.raises(EnvError):
            DeadlineLatencyEnv(topo, {}, {}, {1: 1.5})
        for rates, horizon in (((0.0, 5.0), 10), ((math.nan, 5.0), 10), ((1.0, 5.0), 0)):
            with pytest.raises(EnvError):
                DeadlineLatencyEnv(topo, {1: rates}, {}, {}, horizon=horizon)

    @pytest.mark.parametrize("deadline", [math.nan, math.inf, 0.0, -1.0])
    def test_deadline_must_be_positive_and_finite(self, deadline):
        # a NaN deadline is never exceeded, so every cost would be the miss rate
        topo = build_uniform_tree(2, 1)
        with pytest.raises(EnvError, match=f"^deadline must be positive and finite, got {deadline}$"):
            DeadlineLatencyEnv(topo, {1: (5.0, 5.0)}, {}, {}, deadline=deadline)

    @pytest.mark.parametrize("proc", [math.nan, math.inf, -math.inf])
    def test_processing_time_must_be_finite(self, proc):
        topo = build_uniform_tree(2, 1)
        with pytest.raises(EnvError, match=f"^processing time of leaf 2 must be finite, got {proc}$"):
            DeadlineLatencyEnv(topo, {1: (5.0, 5.0)}, {1: 0.25, 2: proc}, {})

    def test_rates_interpolate_from_round_one_to_the_horizon(self):
        env = self._simple_env()
        assert env._rates(1, 1)[0].tolist() == [8.0, 2.0]
        assert env._rates(50, 1)[0].tolist() == [8.0, 2.0 + 198.0 * (49 / 99)]
        assert env._rates(100, 1)[0].tolist() == [8.0, 200.0]
        # a block's rows are the rounds' one-row blocks
        assert env._rates(1, 100).tolist() == [env._rates(t, 1)[0].tolist() for t in range(1, 101)]
        topo = build_uniform_tree(2, 2)
        flat = DeadlineLatencyEnv(topo, {1: (8.0, 8.0), 2: (2.0, 200.0)}, {}, {})
        assert flat._rates(1, 100).tolist() == [[8.0, 2.0]] * 100


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
        c = env.costs_block(1, 1, rng)[0]
        assert set(np.unique(c)) <= {0.0, 1.0}
        assert env._start.size == topo.node_count - 1

    def test_edge_rates_at_the_first_and_last_round(self):
        # mec: first-hop links alternate constant (even position) and ramp
        mec = make_mec_env(build_uniform_tree(3, 2), horizon=1000)
        assert mec._rates(1, 1)[0].tolist() == [8.0, 2.0, 8.0]
        assert mec._rates(1000, 1)[0].tolist() == [8.0, 200.0, 8.0]
        # multihop: edges 1..14 in node order (depths 1, 2, 3); constant where
        # depth + child position is even
        multihop = make_multihop_env(build_uniform_tree(2, 3), horizon=500)
        assert multihop._rates(1, 1)[0].tolist() == [2.0, 8.0] + [8.0, 2.0] * 2 + [2.0, 8.0] * 4
        assert multihop._rates(500, 1)[0].tolist() == (
            [200.0, 8.0] + [8.0, 200.0] * 2 + [200.0, 8.0] * 4)
        assert mec.deadline == multihop.deadline == 1.0
        # the link keywords reach the env
        slow = make_multihop_env(build_uniform_tree(2, 3), 500, deadline=0.5, constant_rate=4.0)
        assert slow.deadline == 0.5 and slow.horizon == 500
        assert slow._rates(1, 1)[0].tolist() == [2.0, 4.0] + [4.0, 2.0] * 2 + [2.0, 4.0] * 4

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
        assert_allclose(env.costs_block(1, 1, rng)[0], [0, 1, 0.5, 0.25])
        assert_allclose(env.costs_block(2, 1, rng)[0], [1, 0, 0, 0])
        assert_allclose(env.expected_costs(2), [1, 0, 0, 0])
        with pytest.raises(EnvError):
            env.costs_block(3, 1, rng)

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
