"""Engine tests: routing, receive probabilities, feedback isolation,
regret accounting, replay determinism, and conditional expected cost."""

import math

import numpy as np
import pytest

from treebandit.engine import (
    EngineError,
    FeedbackModel,
    RegretLedger,
    Simulation,
    TraceRecorder,
    rng_streams,
)
from treebandit.env import BernoulliTreeEnv, CostEnvironment, EnvError, LowerBoundChainEnv
from treebandit.policy import (
    AnytimeEpsilonExp3,
    EpsilonExp3,
    Exp3Baseline,
    NormalizedEG,
    OracleParams,
    OraclePolicy,
    PolicyError,
    StationaryPolicy,
    UniformRandomPolicy,
    constant_forward_prob,
    default_params,
)
from treebandit.topology import build_chain_tree, build_uniform_tree


def uniform_tree_policies(topology, factory):
    return {n: factory(len(topology.children[n])) for n in topology.non_leaves}


def make_bandit_sim(topology, means, factory, entropy=(7,)):
    env = BernoulliTreeEnv(means)
    policies = uniform_tree_policies(topology, factory)
    return Simulation(topology, policies, env, FeedbackModel.END_TO_END_BANDIT, entropy)


class FixedCostEnv(CostEnvironment):
    """Returns the same cost vector every round; used to force exact paths."""

    def __init__(self, vec):
        self._vec = np.asarray(vec, dtype=float)

    @property
    def n_leaves(self):
        return len(self._vec)

    def costs(self, t, rng):
        return self._vec.copy()

    def expected_costs(self, t):
        return self._vec.copy()


class TestConstruction:
    def test_missing_policy_rejected(self):
        topo = build_uniform_tree(2, 2)
        policies = {0: EpsilonExp3(2, eta=0.1, epsilon=0.2)}
        with pytest.raises(EngineError, match="missing policies"):
            Simulation(policies=policies, topology=topo,
                       env=BernoulliTreeEnv([0.5] * 4),
                       feedback=FeedbackModel.END_TO_END_BANDIT)

    def test_fanout_mismatch_rejected(self):
        topo = build_uniform_tree(2, 1)
        policies = {0: EpsilonExp3(3, eta=0.1, epsilon=0.2)}
        with pytest.raises(EngineError, match="covers 3 children"):
            Simulation(topo, policies, BernoulliTreeEnv([0.5, 0.5]),
                       FeedbackModel.END_TO_END_BANDIT)

    def test_env_leaf_count_mismatch_rejected(self):
        topo = build_uniform_tree(2, 2)
        policies = uniform_tree_policies(topo, lambda k: UniformRandomPolicy(k))
        with pytest.raises(EngineError, match="leaves"):
            Simulation(topo, policies, BernoulliTreeEnv([0.5] * 3),
                       FeedbackModel.END_TO_END_BANDIT)

    def test_negative_horizon_rejected(self):
        topo = build_uniform_tree(2, 1)
        sim = make_bandit_sim(topo, [0.5, 0.5], lambda k: UniformRandomPolicy(k))
        with pytest.raises(EngineError, match="horizon"):
            sim.run(-1)


class TestReceiveProbabilities:
    def test_uniform_mixture_v_chain(self):
        # theta = 0 makes the mixture uniform at every node, so the receive
        # probability halves at each hop of a binary tree.
        topo = build_uniform_tree(2, 2)
        sim = make_bandit_sim(topo, [0.5] * 4,
                              lambda k: EpsilonExp3(k, eta=0.1, epsilon=0.3))
        out = sim.run_round(1)
        assert out.receive_probs == (1.0, 0.5, 0.25)
        assert len(out.path) == 3
        assert out.path[0] == 0

    def test_v_product_matches_analytic_mixture(self):
        # Recompute each node's mixture from its pre-round state and check
        # the engine's v products against the independent calculation.
        topo = build_uniform_tree(2, 2)
        sim = make_bandit_sim(topo, [0.9, 0.1, 0.5, 0.5],
                              lambda k: EpsilonExp3(k, eta=0.5, epsilon=0.2))
        for t in range(1, 201):
            snapshot = {}
            for n in topo.non_leaves:
                pol = sim.policies[n]
                weights = [math.exp(pol.eta * th) for th in pol.theta]
                z = sum(weights)
                k = pol.n_children
                snapshot[n] = [
                    pol.epsilon / k + (1.0 - pol.epsilon) * w / z for w in weights
                ]
            out = sim.run_round(t)
            expect = 1.0
            for depth, node in enumerate(out.path[:-1]):
                child = out.path[depth + 1]
                idx = topo.children[node].index(child)
                assert out.receive_probs[depth] == pytest.approx(expect, rel=1e-12)
                expect *= snapshot[node][idx]
            assert out.receive_probs[-1] == pytest.approx(expect, rel=1e-12)

    def test_modes_reported_in_bandit_runs_only(self):
        topo = build_uniform_tree(2, 2)
        sim = make_bandit_sim(topo, [0.5] * 4,
                              lambda k: EpsilonExp3(k, eta=0.1, epsilon=0.3))
        out = sim.run_round(1)
        assert len(out.modes) == 2
        assert all(m.mode in ("U", "E") for m in out.modes)

        eg = Simulation(topo, uniform_tree_policies(topo, lambda k: NormalizedEG(k, 0.1)),
                        BernoulliTreeEnv([0.5] * 4), FeedbackModel.COMPLETE_ONE_HOP, (3,))
        assert eg.run_round(1).modes is None


class TestFeedbackIsolation:
    def test_only_path_nodes_update_in_bandit_mode(self):
        topo = build_uniform_tree(2, 3)
        env = FixedCostEnv([1.0] * 8)
        policies = uniform_tree_policies(topo, lambda k: EpsilonExp3(k, eta=0.1, epsilon=0.4))
        sim = Simulation(topo, policies, env, FeedbackModel.END_TO_END_BANDIT, (11,))
        before = {n: list(policies[n].theta) for n in topo.non_leaves}
        out = sim.run_round(1)
        on_path = set(out.path[:-1])
        for n in topo.non_leaves:
            if n in on_path:
                assert policies[n].theta != before[n]
            else:
                assert policies[n].theta == before[n]

    def test_every_non_leaf_updates_in_one_hop_mode(self):
        topo = build_uniform_tree(2, 3)
        env = FixedCostEnv([1.0] * 8)
        policies = uniform_tree_policies(topo, lambda k: NormalizedEG(k, eta=0.1))
        sim = Simulation(topo, policies, env, FeedbackModel.COMPLETE_ONE_HOP, (11,))
        sim.run_round(1)
        for n in topo.non_leaves:
            assert all(th != 0.0 for th in policies[n].theta)

    def test_one_hop_feedback_policy_in_bandit_run_raises(self):
        topo = build_uniform_tree(2, 1)
        sim = Simulation(topo, {0: NormalizedEG(2, 0.1)}, BernoulliTreeEnv([0.5, 0.5]),
                         FeedbackModel.END_TO_END_BANDIT, (1,))
        with pytest.raises(PolicyError):
            sim.run_round(1)

    def test_bandit_policy_in_one_hop_run_raises(self):
        topo = build_uniform_tree(2, 1)
        sim = Simulation(topo, {0: EpsilonExp3(2, 0.1, 0.2)}, BernoulliTreeEnv([0.5, 0.5]),
                         FeedbackModel.COMPLETE_ONE_HOP, (1,))
        with pytest.raises(PolicyError):
            sim.run_round(1)


class TestOneHopSemantics:
    def test_root_observes_exact_leaf_costs_at_depth_one(self):
        topo = build_uniform_tree(3, 1)
        env = FixedCostEnv([0.0, 1.0, 1.0])
        pol = NormalizedEG(3, eta=0.25)
        sim = Simulation(topo, {0: pol}, env, FeedbackModel.COMPLETE_ONE_HOP, (5,))
        sim.run(4)
        # theta accumulates minus the observed costs: (0, -4, -4)
        assert pol.theta == [0.0, -4.0, -4.0]

    def test_realized_cost_follows_selections(self):
        topo = build_uniform_tree(2, 2)
        env = FixedCostEnv([0.1, 0.1, 0.1, 0.1])
        policies = uniform_tree_policies(topo, lambda k: NormalizedEG(k, 0.1))
        sim = Simulation(topo, policies, env, FeedbackModel.COMPLETE_ONE_HOP, (5,))
        out = sim.run_round(1)
        assert out.realized_cost == pytest.approx(0.1)
        assert len(out.path) == 3


class TestRegretLedger:
    def test_empty_ledger(self):
        led = RegretLedger(4)
        assert led.regret() == 0.0
        assert led.time_average_regret() == 0.0

    def test_stationary_on_best_leaf_has_zero_regret(self):
        # Deterministic costs: leaf 4 always costs 0, everything else 1.
        topo = build_uniform_tree(2, 2)
        env = FixedCostEnv([1.0, 0.0, 1.0, 1.0])
        policies = {0: StationaryPolicy(2, 0), 1: StationaryPolicy(2, 1),
                    2: StationaryPolicy(2, 0)}
        sim = Simulation(topo, policies, env, FeedbackModel.END_TO_END_BANDIT, (1,))
        led = sim.run(50)
        assert led.regret() == 0.0
        assert led.cumulative_algorithm_cost == 0.0

    def test_stationary_on_worst_leaf_has_linear_regret(self):
        topo = build_uniform_tree(2, 1)
        env = FixedCostEnv([1.0, 0.0])
        sim = Simulation(build_uniform_tree(2, 1), {0: StationaryPolicy(2, 0)},
                         env, FeedbackModel.END_TO_END_BANDIT, (1,))
        led = sim.run(40)
        assert led.regret() == pytest.approx(40.0)
        assert led.time_average_regret() == pytest.approx(1.0)

    def test_ledger_matches_round_outcomes(self):
        topo = build_uniform_tree(2, 2)
        sim = make_bandit_sim(topo, [0.8, 0.2, 0.5, 0.5],
                              lambda k: EpsilonExp3(k, eta=0.2, epsilon=0.2))
        total = 0.0
        for t in range(1, 301):
            total += sim.run_round(t).realized_cost
        assert sim.ledger.cumulative_algorithm_cost == pytest.approx(total, rel=1e-12)
        assert sim.ledger.rounds_elapsed == 300
        assert sim.ledger.regret() == pytest.approx(
            total - sim.ledger.cumulative_leaf_costs.min(), rel=1e-12)

    def test_out_of_range_costs_rejected(self):
        topo = build_uniform_tree(2, 1)
        sim = Simulation(topo, {0: UniformRandomPolicy(2)}, FixedCostEnv([0.5, 1.5]),
                         FeedbackModel.END_TO_END_BANDIT, (1,))
        with pytest.raises(EngineError, match="outside"):
            sim.run_round(1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_costs_rejected(self, bad):
        topo = build_uniform_tree(2, 1)
        sim = Simulation(topo, {0: UniformRandomPolicy(2)}, FixedCostEnv([0.5, bad]),
                         FeedbackModel.END_TO_END_BANDIT, (1,))
        with pytest.raises(EngineError, match="NaN"):
            sim.run(5)


class TestDeterminism:
    def test_same_entropy_replays_bit_exact(self):
        topo = build_uniform_tree(2, 2)

        def outcomes(entropy):
            sim = make_bandit_sim(topo, [0.7, 0.3, 0.4, 0.6],
                                  lambda k: EpsilonExp3(k, eta=0.3, epsilon=0.25),
                                  entropy)
            return [sim.run_round(t) for t in range(1, 101)]

        a = outcomes((42, 1000, 3))
        b = outcomes((42, 1000, 3))
        assert a == b
        c = outcomes((42, 1000, 4))
        assert any(x.path != y.path or x.realized_cost != y.realized_cost
                   for x, y in zip(a, c))

    def test_env_stream_independent_of_policy_draws(self):
        # Same entropy, different policies: the environment sample path is
        # identical because env and node streams are separate.
        topo = build_uniform_tree(2, 1)
        env_a = BernoulliTreeEnv([0.5, 0.5])
        env_b = BernoulliTreeEnv([0.5, 0.5])
        sim_a = Simulation(topo, {0: UniformRandomPolicy(2)}, env_a,
                           FeedbackModel.END_TO_END_BANDIT, (9, 50, 2))
        sim_b = Simulation(topo, {0: EpsilonExp3(2, 0.5, 0.5)}, env_b,
                           FeedbackModel.END_TO_END_BANDIT, (9, 50, 2))
        sim_a.run(60)
        sim_b.run(60)
        assert np.array_equal(sim_a.ledger.cumulative_leaf_costs,
                              sim_b.ledger.cumulative_leaf_costs)

    def test_rng_streams_are_distinct(self):
        topo = build_uniform_tree(2, 2)
        env_rng, node_rngs = rng_streams(topo, (1, 2))
        draws = {env_rng.random() for _ in range(1)}
        for n in topo.non_leaves:
            draws.add(node_rngs[n].random())
        assert len(draws) == 1 + len(topo.non_leaves)


class TestConditionalExpectedCost:
    def test_leaf_value_is_environment_mean(self):
        topo = build_uniform_tree(2, 2)
        sim = make_bandit_sim(topo, [0.8, 0.2, 0.6, 0.4],
                              lambda k: UniformRandomPolicy(k))
        assert sim.conditional_expected_cost(3, 1) == pytest.approx(0.8)
        assert sim.conditional_expected_cost(6, 1) == pytest.approx(0.4)

    def test_uniform_policies_average_the_leaves(self):
        topo = build_uniform_tree(2, 2)
        sim = make_bandit_sim(topo, [0.8, 0.2, 0.6, 0.4],
                              lambda k: UniformRandomPolicy(k))
        assert sim.conditional_expected_cost(1, 1) == pytest.approx(0.5)
        assert sim.conditional_expected_cost(2, 1) == pytest.approx(0.5)
        assert sim.conditional_expected_cost(0, 1) == pytest.approx(0.5)

    def test_mixed_policies(self):
        topo = build_uniform_tree(2, 2)
        env = BernoulliTreeEnv([0.8, 0.2, 0.6, 0.4])
        policies = {0: UniformRandomPolicy(2), 1: StationaryPolicy(2, 1),
                    2: StationaryPolicy(2, 0)}
        sim = Simulation(topo, policies, env, FeedbackModel.END_TO_END_BANDIT, (1,))
        assert sim.conditional_expected_cost(1, 1) == pytest.approx(0.2)
        assert sim.conditional_expected_cost(2, 1) == pytest.approx(0.6)
        assert sim.conditional_expected_cost(0, 1) == pytest.approx(0.4)

    def test_requires_expected_costs_and_env_without_them(self):
        class DrawOnlyEnv(CostEnvironment):
            @property
            def n_leaves(self):
                return 2

            def costs(self, t, rng):
                return (rng.random(2) < 0.5).astype(float)

        topo = build_uniform_tree(2, 1)
        sim = Simulation(topo, {0: UniformRandomPolicy(2)}, DrawOnlyEnv(),
                         FeedbackModel.END_TO_END_BANDIT, (1,))
        with pytest.raises(EnvError):
            sim.conditional_expected_cost(0, 1)


class TestOracleWiring:
    def test_oracle_chain_routes_with_expected_costs(self):
        topo = build_chain_tree(2)
        env = LowerBoundChainEnv(2, 0.1)
        params = OracleParams(constant_forward_prob(0.3))
        policies = {0: OraclePolicy(2, params), 1: OraclePolicy(2, params)}
        sim = Simulation(topo, policies, env, FeedbackModel.END_TO_END_BANDIT, (4,))
        out = sim.run_round(1)
        assert out.path[0] == 0
        assert len(out.path) >= 2
        # node 1 saw the two deep-leaf means, root saw (shallow leaf, w(node 1))
        deep = policies[1].distribution()
        assert len(deep) == 2
        w1 = sim.conditional_expected_cost(1, 1)
        assert 0.0 <= w1 <= 1.0

    def test_oracle_greedy_goes_to_cheap_leaf(self):
        topo = build_uniform_tree(2, 1)
        env = FixedCostEnv([0.9, 0.1])
        pol = OraclePolicy(2, OracleParams(constant_forward_prob(0.0)))
        sim = Simulation(topo, {0: pol}, env, FeedbackModel.END_TO_END_BANDIT, (4,))
        for t in range(1, 21):
            assert sim.run_round(t).path[-1] == 2
        assert sim.ledger.cumulative_algorithm_cost == pytest.approx(2.0)


class TestAnytimeBroadcast:
    def test_segment_boundaries_reset_state_and_params(self):
        topo = build_uniform_tree(2, 2)
        policies = uniform_tree_policies(
            topo, lambda k: AnytimeEpsilonExp3(k, depth=2, max_fanout=2,
                                               children_all_leaves=False))
        policies[1] = AnytimeEpsilonExp3(2, depth=2, max_fanout=2,
                                         children_all_leaves=True)
        policies[2] = AnytimeEpsilonExp3(2, depth=2, max_fanout=2,
                                         children_all_leaves=True)
        env = FixedCostEnv([1.0] * 4)
        sim = Simulation(topo, policies, env, FeedbackModel.END_TO_END_BANDIT, (2,))
        sim.run(8)
        # last boundary at t = 8 loads parameters for segment length 2^3
        want_root = default_params(8, 2, 2, False)
        assert policies[0].eta == pytest.approx(want_root.eta)
        assert policies[0].epsilon == pytest.approx(want_root.epsilon)
        want_leafy = default_params(8, 2, 2, True)
        assert policies[1].epsilon == want_leafy.epsilon == 0.0

    def test_theta_reset_at_boundary(self):
        topo = build_uniform_tree(2, 1)
        pol = AnytimeEpsilonExp3(2, depth=1, max_fanout=2, children_all_leaves=True)
        env = FixedCostEnv([1.0, 1.0])
        sim = Simulation(topo, {0: pol}, env, FeedbackModel.END_TO_END_BANDIT, (2,))
        sim.run(7)  # rounds 1..7, boundaries at 1, 2, 4
        theta_after_7 = list(pol.theta)
        assert any(th != 0.0 for th in theta_after_7)
        sim.run_round(8)  # boundary: reset happens before the round's draw
        nonzero = [th for th in pol.theta if th != 0.0]
        assert len(nonzero) == 1  # exactly the round-8 decrement survives

    def test_fixed_horizon_policies_see_no_broadcast(self):
        topo = build_uniform_tree(2, 1)
        pol = EpsilonExp3(2, eta=0.125, epsilon=0.25)
        env = FixedCostEnv([1.0, 1.0])
        sim = Simulation(topo, {0: pol}, env, FeedbackModel.END_TO_END_BANDIT, (2,))
        sim.run(8)
        assert pol.eta == 0.125
        assert pol.epsilon == 0.25
        assert any(th != 0.0 for th in pol.theta)


class TestTrace:
    def test_stationary_probabilities_are_exact(self):
        topo = build_uniform_tree(2, 2)
        env = FixedCostEnv([0.5] * 4)
        policies = {0: StationaryPolicy(2, 1), 1: StationaryPolicy(2, 0),
                    2: StationaryPolicy(2, 0)}
        sim = Simulation(topo, policies, env, FeedbackModel.END_TO_END_BANDIT, (3,))
        trace = TraceRecorder(window=5, watched=((0, 1), (0, 2), (2, 5)))
        sim.run(12, trace=trace)
        # two full windows, partial third window not emitted
        assert len(trace.rows) == 6
        assert trace.rows[0] == (5, 0, 1, 0.0)
        assert trace.rows[1] == (5, 0, 2, 1.0)
        assert trace.rows[2] == (5, 2, 5, 1.0)
        assert trace.rows[3][0] == 10

    def test_watched_pair_must_be_an_edge(self):
        topo = build_uniform_tree(2, 2)
        sim = make_bandit_sim(topo, [0.5] * 4, lambda k: UniformRandomPolicy(k))
        with pytest.raises(EngineError, match="not an edge"):
            sim.run(10, trace=TraceRecorder(window=5, watched=((0, 5),)))

    def test_window_must_be_positive(self):
        with pytest.raises(EngineError, match="window"):
            TraceRecorder(window=0, watched=((0, 1),))

    def test_uniform_policy_trace_means(self):
        topo = build_uniform_tree(4, 1)
        env = FixedCostEnv([0.5] * 4)
        sim = Simulation(topo, {0: UniformRandomPolicy(4)}, env,
                         FeedbackModel.END_TO_END_BANDIT, (3,))
        trace = TraceRecorder(window=10, watched=((0, 2),))
        sim.run(30, trace=trace)
        assert [r[3] for r in trace.rows] == [0.25, 0.25, 0.25]

    def test_oracle_traced_from_the_first_round(self):
        # the oracle has no distribution until it is given expected costs,
        # so the trace must supply them before it reads one
        topo = build_uniform_tree(2, 1)
        env = FixedCostEnv([0.9, 0.1])
        pol = OraclePolicy(2, OracleParams(constant_forward_prob(0.25)))
        sim = Simulation(topo, {0: pol}, env, FeedbackModel.END_TO_END_BANDIT, (3,))
        trace = TraceRecorder(window=2, watched=((0, 1), (0, 2)))
        sim.run(4, trace=trace)
        assert trace.rows == [(2, 0, 1, 0.25), (2, 0, 2, 0.75), (4, 0, 1, 0.25), (4, 0, 2, 0.75)]


class TestBaselinePolicyWiring:
    def test_exp3_runs_end_to_end(self):
        topo = build_uniform_tree(2, 2)
        sim = make_bandit_sim(topo, [0.9, 0.5, 0.5, 0.1],
                              lambda k: Exp3Baseline(k, eta=0.05, gamma=0.1))
        led = sim.run(500)
        assert led.rounds_elapsed == 500
        assert 0.0 <= led.time_average_regret() <= 1.0
