"""Engine tests: routing, receive probabilities, feedback isolation,
regret accounting, replay determinism, and conditional expected cost."""

import math

import numpy as np
import pytest

from treebandit import engine
from treebandit.engine import (
    EngineError,
    FeedbackModel,
    RegretLedger,
    Simulation,
    NodeStream,
    TraceRecorder,
    rng_streams,
)
from treebandit.env import BernoulliTreeEnv, CostEnvironment, EnvError, LowerBoundChainEnv
from treebandit.policy import (
    AnytimeEpsilonExp3,
    EpsilonExp3,
    Exp3Baseline,
    NormalizedEG,
    OraclePolicy,
    PolicyError,
    StationaryPolicy,
    UniformRandomPolicy,
    constant_forward_prob,
    default_params,
    exp_decay_forward_prob,
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

    def costs_block(self, t, n, rng):
        return np.tile(self._vec, (n, 1))

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

    @pytest.mark.parametrize("t", [0, -1])
    @pytest.mark.parametrize("factory", [
        lambda k: EpsilonExp3(k, eta=0.1, epsilon=0.2),
        lambda k: AnytimeEpsilonExp3(k, depth=1, max_fanout=2, children_all_leaves=True),
    ], ids=["eps_exp3", "anytime"])
    def test_round_before_the_first_rejected(self, factory, t):
        topo = build_uniform_tree(2, 1)
        sim = make_bandit_sim(topo, [0.5, 0.5], factory)
        with pytest.raises(EngineError, match=f"round must be >= 1, got {t}"):
            sim.run_round(t)
        assert sim.ledger.rounds_elapsed == 0
        assert sim.policies[0].theta == [0.0, 0.0]


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

    def test_receive_probs_come_from_start_of_round_distributions(self):
        # every node learns each round, so a v read after the updates differs
        topo = build_uniform_tree(3, 2)
        policies = uniform_tree_policies(topo, lambda k: NormalizedEG(k, 0.7))
        sim = Simulation(topo, policies, BernoulliTreeEnv(np.linspace(0.9, 0.1, 9)),
                         FeedbackModel.COMPLETE_ONE_HOP, (8,))
        for t in range(1, 51):
            snapshot = {n: policies[n].distribution() for n in topo.non_leaves}
            out = sim.run_round(t)
            expect = [1.0]
            for node, child in zip(out.path, out.path[1:]):
                expect.append(expect[-1] * snapshot[node][topo.children[node].index(child)])
            assert out.receive_probs == tuple(expect)


class TestRegretLedger:
    def test_empty_ledger(self):
        led = RegretLedger(4)
        assert led.regret() == 0.0
        assert led.optimal_stationary_cost() == 0.0

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
        assert led.rounds_elapsed == 40

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

    def test_node_stream_hands_out_the_generator_floats(self):
        # 600 draws run through several buffer refills, past the cap
        stream = NodeStream(np.random.SeedSequence([4, 1, 2]).generate_state(4, np.uint64))
        got = [stream.random() for _ in range(600)]
        assert got == np.random.default_rng([4, 1, 2]).random(600).tolist()
        assert all(type(u) is float for u in got)

    def test_only_nodes_on_the_path_are_seeded(self, monkeypatch):
        topo = build_uniform_tree(4, 3)
        seeded = []
        generator = engine._generator
        node_generator = engine._node_generator
        # a node stream is seeded from its key's state, which names the key
        key_of = {
            np.random.SeedSequence([5, 6, 1, n]).generate_state(4, np.uint64).tobytes(): [5, 6, 1, n]
            for n in topo.non_leaves
        }

        def recording(words):
            seeded.append(list(words))
            return generator(words)

        def recording_node(state):
            seeded.append(key_of[state.tobytes()])
            return node_generator(state)

        monkeypatch.setattr(engine, "_generator", recording)
        monkeypatch.setattr(engine, "_node_generator", recording_node)
        sim = make_bandit_sim(topo, np.linspace(0.9, 0.1, 64),
                              lambda k: EpsilonExp3(k, eta=0.3, epsilon=0.5), (5, 6))
        assert seeded == [[5, 6, 0]]  # the environment's stream only
        path = sim.run_round(1).path
        assert seeded == [[5, 6, 0]] + [[5, 6, 1, node] for node in path[:-1]]

    @pytest.mark.parametrize("entropy", [(0,), (0, 0, 0), (2**40 + 7, 1, 0), (5, 2**33, 2**70)])
    def test_streams_equal_default_rng_on_the_same_keys(self, entropy):
        topo = build_uniform_tree(3, 2)  # non-leaves 0..3, node 0 included
        env_rng, node_rngs = rng_streams(topo, entropy)
        want = np.random.default_rng(list(entropy) + [0]).random(600)
        assert np.array_equal(env_rng.random(600), want)
        for node in topo.non_leaves:
            got = [node_rngs[node].random() for _ in range(600)]
            assert got == np.random.default_rng(list(entropy) + [1, node]).random(600).tolist()

    def test_negative_stream_key_rejected(self):
        with pytest.raises(EngineError, match="non-negative"):
            rng_streams(build_uniform_tree(2, 1), (3, -1))

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

            def costs_block(self, t, n, rng):
                return (rng.random((n, 2)) < 0.5).astype(float)

        topo = build_uniform_tree(2, 1)
        sim = Simulation(topo, {0: UniformRandomPolicy(2)}, DrawOnlyEnv(),
                         FeedbackModel.END_TO_END_BANDIT, (1,))
        with pytest.raises(EnvError):
            sim.conditional_expected_cost(0, 1)


class TestOracleWiring:
    def test_oracle_chain_routes_with_expected_costs(self):
        topo = build_chain_tree(2)
        env = LowerBoundChainEnv(2, 0.1)
        forward = constant_forward_prob(0.3)
        policies = {0: OraclePolicy(2, forward), 1: OraclePolicy(2, forward)}
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
        pol = OraclePolicy(2, constant_forward_prob(0.0))
        sim = Simulation(topo, {0: pol}, env, FeedbackModel.END_TO_END_BANDIT, (4,))
        for t in range(1, 21):
            assert sim.run_round(t).path[-1] == 2
        assert sim.ledger.cumulative_algorithm_cost == pytest.approx(2.0)


    @pytest.mark.parametrize("feedback, watched", [
        (FeedbackModel.END_TO_END_BANDIT, ()),
        (FeedbackModel.COMPLETE_ONE_HOP, ()),
        (FeedbackModel.END_TO_END_BANDIT, ((0, 1), (2, 5))),
    ], ids=["bandit", "one_hop", "bandit_traced"])
    def test_oracles_set_when_their_inputs_may_have_changed(
            self, feedback, watched, monkeypatch):
        # the depth-3 chain: non-leaves 0, 1, 2, leaves 3..6
        topo = build_chain_tree(3)
        forward = exp_decay_forward_prob(0.3)
        if feedback is FeedbackModel.END_TO_END_BANDIT:
            learner = EpsilonExp3(2, eta=0.3, epsilon=0.2)
        else:
            learner = NormalizedEG(2, eta=0.3)
        cases = [
            # constant means and only oracles: set once, at round 1
            (LowerBoundChainEnv(3, 0.05), None, [1]),
            # new means at the shift round: set once more, then
            (BernoulliTreeEnv([0.9, 0.6, 0.4, 0.2], shift_round=12), None, [1, 12]),
            # a learner's distribution moves every round, and the oracles
            # above it read it
            (LowerBoundChainEnv(3, 0.05), learner, range(1, 31)),
        ]
        round_now = [None]
        node_of = {}
        calls = []
        oracle_set = OraclePolicy.set_expected_costs

        def set_expected_costs(pol, child_costs):
            calls.append((round_now[0], node_of[id(pol)]))
            oracle_set(pol, child_costs)

        monkeypatch.setattr(OraclePolicy, "set_expected_costs", set_expected_costs)
        for env, learner_at_2, rounds in cases:
            policies = {n: OraclePolicy(2, forward) for n in topo.non_leaves}
            if learner_at_2 is not None:
                policies[2] = learner_at_2
            node_of = {id(pol): n for n, pol in policies.items()}
            calls.clear()

            def expected_costs(t, read=env.expected_costs):
                round_now[0] = t
                return read(t)

            monkeypatch.setattr(env, "expected_costs", expected_costs)
            sim = Simulation(topo, policies, env, feedback, (4,))
            trace = TraceRecorder(window=5, watched=watched) if watched else None
            sim.run(30, trace=trace)
            oracles = [n for n in topo.non_leaves if isinstance(policies[n], OraclePolicy)]
            assert sorted(calls) == [(t, n) for t in rounds for n in oracles]

    def test_no_stale_oracle_after_conditional_expected_cost(self):
        # conditional_expected_cost at a post-shift round sets the oracle
        # from the post-shift means; the next round must set it back
        env = BernoulliTreeEnv([0.9, 0.2], shift_round=5)
        root = OraclePolicy(2, exp_decay_forward_prob(0.9))
        sim = Simulation(build_uniform_tree(2, 1), {0: root}, env,
                         FeedbackModel.END_TO_END_BANDIT, (3,))
        sim.run_round(1)
        pre_shift = list(root.distribution())
        sim.conditional_expected_cost(0, 10)
        assert root.distribution() != pre_shift
        sim.run_round(2)
        assert root.distribution() == pre_shift
        assert root.distribution() == pytest.approx([0.4469, 0.5531], abs=1e-4)

    def test_oracle_root_follows_its_learning_children(self):
        topo = build_uniform_tree(2, 2)
        means = [0.8, 0.2, 0.6, 0.4]
        forward = exp_decay_forward_prob(0.9)
        root = OraclePolicy(2, forward)
        policies = {0: root, 1: EpsilonExp3(2, eta=0.5, epsilon=0.2),
                    2: EpsilonExp3(2, eta=0.5, epsilon=0.2)}
        sim = Simulation(topo, policies, BernoulliTreeEnv(means),
                         FeedbackModel.END_TO_END_BANDIT, (6,))
        reference = OraclePolicy(2, forward)
        for t in range(1, 201):
            ws = []
            for node in topo.children[0]:
                w = 0.0
                for p, leaf in zip(policies[node].distribution(), topo.children[node]):
                    w += p * means[topo.leaves.index(leaf)]
                ws.append(w)
            reference.set_expected_costs(ws)
            sim.run_round(t)
            assert root.distribution() == reference.distribution()


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
        root_eta, root_epsilon = default_params(8, 2, 2, False)
        assert policies[0].eta == pytest.approx(root_eta)
        assert policies[0].epsilon == pytest.approx(root_epsilon)
        assert policies[1].epsilon == default_params(8, 2, 2, True)[1] == 0.0

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

    @pytest.mark.parametrize("block_elements", [engine.BLOCK_ELEMENTS, 4, 12])
    def test_restarts_exactly_at_powers_of_two(self, block_elements, monkeypatch):
        # 4 leaves: one block of 40 rounds, blocks of 1 round, or of 3 rounds
        # (so rounds 2, 8, 16 and 32 fall inside a block)
        monkeypatch.setattr(engine, "BLOCK_ELEMENTS", block_elements)
        topo = build_uniform_tree(2, 2)
        policies = uniform_tree_policies(
            topo, lambda k: AnytimeEpsilonExp3(k, depth=2, max_fanout=2,
                                               children_all_leaves=False))
        rounds_done = [0]
        calls = []
        root_select = policies[0].select

        def counting_select(rng):  # the root selects once per bandit round
            rounds_done[0] += 1
            return root_select(rng)

        def spy(node, start):
            def start_segment(m):
                calls.append((rounds_done[0] + 1, node, m))
                start(m)
            return start_segment

        policies[0].select = counting_select
        for node, pol in policies.items():
            pol.start_segment = spy(node, pol.start_segment)
        sim = Simulation(topo, policies, FixedCostEnv([0.5] * 4),
                         FeedbackModel.END_TO_END_BANDIT, (2,))
        sim.run(40)
        assert rounds_done[0] == 40
        assert calls == [(1 << m, node, m) for m in range(6) for node in topo.non_leaves]

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

    @pytest.mark.parametrize("node", [-3, -1, 1, 3])
    def test_watched_node_must_be_a_non_leaf(self, node):
        topo = build_uniform_tree(2, 1)
        sim = make_bandit_sim(topo, [0.5, 0.5], lambda k: UniformRandomPolicy(k))
        with pytest.raises(EngineError, match=f"watched node {node} is not a non-leaf node"):
            sim.run(4, trace=TraceRecorder(window=2, watched=((node, 1),)))
        assert sim.ledger.rounds_elapsed == 0

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
        pol = OraclePolicy(2, constant_forward_prob(0.25))
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
        assert 0.0 <= led.regret() / led.rounds_elapsed <= 1.0
