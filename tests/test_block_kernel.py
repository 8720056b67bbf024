"""Property tests: fetching rounds in blocks changes no value.

The engine draws environment costs a block of rounds at a time and adds
the block to the regret ledger at once. Two properties keep that invisible:

- every environment's ``costs_block(t, n, rng)`` equals, bit for bit, the
  per-round draws written out here as reference loops (the per-round code
  the block methods replaced);
- ``Simulation.run(T)`` leaves the same ledger, policy scores and trace as
  ``run_round`` called once per round, whatever the block size.

A third property covers the oracle's expected-cost refresh, which the
engine skips while neither the means nor any distribution under it can
have changed: the run equals one whose environment hands out a new array
every round, and so is refreshed every round.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from treebandit import engine  # noqa: E402
from treebandit.engine import (  # noqa: E402
    EngineError,
    FeedbackModel,
    Simulation,
    TraceRecorder,
)
from treebandit.env import (  # noqa: E402
    BernoulliTreeEnv,
    CostEnvironment,
    CsvMatrixEnv,
    EnvError,
    LowerBoundChainEnv,
    make_mec_env,
    make_multihop_env,
)
from treebandit.policy import (  # noqa: E402
    AnytimeEpsilonExp3,
    EpsilonExp3,
    Exp3Baseline,
    NormalizedEG,
    OraclePolicy,
    StationaryPolicy,
    UniformRandomPolicy,
    constant_forward_prob,
    exp_decay_forward_prob,
)
from treebandit.topology import build_chain_tree, build_uniform_tree  # noqa: E402

# --------------------------------------------------------------------------
# per-round reference draws


def bernoulli_round(env, t, rng):
    return (rng.random(env.n_leaves) < env.expected_costs(t)).astype(np.float64)


def chain_round(env, t, rng):
    return (rng.random(env.n_leaves) < env.means).astype(np.float64)


def deadline_round(env, t, rng):
    rates = env._rates(t, 1)[0]
    delays = rng.exponential(1.0, size=rates.size) / rates
    out = np.empty(env.n_leaves)
    for k in range(env.n_leaves):
        latency = env._proc[k] + sum(delays[e] for e in env._paths[k])
        out[k] = 1.0 if latency > env.deadline else env._miss[k]
    return out


def csv_round(env, t, rng):
    return env._matrix[t - 1]


CSV_ROWS = 200


@pytest.fixture(scope="module")
def csv_env(tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "costs.csv"
    rng = np.random.default_rng(5)
    rows = "\n".join(",".join(repr(float(c)) for c in row) for row in rng.random((CSV_ROWS, 4)))
    path.write_text("3,4,5,6\n" + rows + "\n")
    return CsvMatrixEnv(str(path))


def make_env(kind: str, t: int, n: int, offset: int, csv_env):
    """The env of ``kind``, with a Bernoulli shift placed ``offset`` rounds
    after the block's first round (negative: before it, beyond n: after it)."""
    if kind == "bernoulli":
        return BernoulliTreeEnv([1.0, 0.6, 0.3, 0.2], shift_round=max(1, t + offset)), bernoulli_round
    if kind == "bernoulli-unshifted":
        return BernoulliTreeEnv([0.9, 0.5, 0.1]), bernoulli_round
    if kind == "chain":
        return LowerBoundChainEnv(3, 0.05), chain_round
    if kind == "mec":
        return make_mec_env(build_uniform_tree(3, 2), horizon=t + n + offset % 7), deadline_round
    if kind == "multihop":
        return make_multihop_env(build_uniform_tree(2, 3), horizon=t + n + offset % 7), deadline_round
    return csv_env, csv_round


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["bernoulli", "bernoulli-unshifted", "chain", "mec", "multihop", "csv"]),
    t=st.integers(1, 150),
    n=st.integers(1, 40),
    offset=st.integers(-5, 45),
    seed=st.integers(0, 2**32 - 1),
)
def test_costs_block_equals_per_round_draws(csv_env, kind, t, n, offset, seed):
    env, per_round = make_env(kind, t, n, offset, csv_env)
    if kind == "csv":
        n = min(n, CSV_ROWS - t + 1) if t <= CSV_ROWS else 1
        t = min(t, CSV_ROWS)
    block = env.costs_block(t, n, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    want = np.stack([per_round(env, t + i, rng) for i in range(n)])
    assert block.dtype == np.float64 and block.shape == want.shape
    assert np.array_equal(block, want)
    # n one-row blocks draw the same rows as one n-row block
    rng = np.random.default_rng(seed)
    assert np.array_equal(np.stack([env.costs_block(t + i, 1, rng)[0] for i in range(n)]), want)


def test_csv_block_past_the_last_row_names_the_first_missing_round(csv_env):
    with pytest.raises(EnvError, match=f"round {CSV_ROWS + 1} outside"):
        csv_env.costs_block(CSV_ROWS - 1, 3, None)


# --------------------------------------------------------------------------
# whole runs


def build_sim(kind: str, feedback: FeedbackModel, depth: int, entropy):
    if kind == "oracle":
        topo = build_chain_tree(depth + 1)
        env = LowerBoundChainEnv(depth + 1, 2.0 ** -(depth + 3))
        policies = {n: OraclePolicy(2, constant_forward_prob(0.2)) for n in topo.non_leaves}
        return Simulation(topo, policies, env, feedback, entropy)
    topo = build_uniform_tree(2, 2 if kind == "mec" else depth)
    if kind == "mec":  # miss rates make the costs non-integer
        env = make_mec_env(topo, horizon=40)
    elif kind == "multihop":
        env = make_multihop_env(topo, horizon=40)
    else:
        env = BernoulliTreeEnv(np.linspace(0.9, 0.1, len(topo.leaves)), shift_round=9)
    policies = {}
    for n in topo.non_leaves:
        if feedback is FeedbackModel.COMPLETE_ONE_HOP:
            policies[n] = NormalizedEG(2, eta=0.4)
        elif n % 3 == 0:
            policies[n] = AnytimeEpsilonExp3(2, depth, 2, topo.children_all_leaves(n))
        elif n % 3 == 1:
            policies[n] = EpsilonExp3(2, eta=0.3, epsilon=0.2)
        else:
            policies[n] = Exp3Baseline(2, eta=0.3, gamma=0.1)
    return Simulation(topo, policies, env, feedback, entropy)


def policy_state(sim):
    return [getattr(sim.policies[n], "theta", None) for n in sorted(sim.policies)]


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["bernoulli", "mec", "multihop", "oracle"]),
    one_hop=st.booleans(),
    depth=st.integers(1, 3),
    T=st.integers(1, 60),
    block_elements=st.integers(1, 40),
    window=st.one_of(st.none(), st.integers(1, 6)),
    seed=st.integers(0, 2**31),
)
def test_run_equals_one_round_at_a_time(kind, one_hop, depth, T, block_elements, window, seed):
    feedback = FeedbackModel.COMPLETE_ONE_HOP if one_hop else FeedbackModel.END_TO_END_BANDIT
    entropy = (seed, T)
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        blocked = build_sim(kind, feedback, depth, entropy)
    trace = None
    if window is not None:
        trace = TraceRecorder(window=window, watched=((0, blocked.topology.children[0][0]),))
    blocked.run(T, trace=trace)

    stepped = build_sim(kind, feedback, depth, entropy)
    for t in range(1, T + 1):
        stepped.run_round(t)

    for led in (blocked.ledger, stepped.ledger):
        assert led.rounds_elapsed == T
    assert blocked.ledger.cumulative_algorithm_cost == stepped.ledger.cumulative_algorithm_cost
    assert np.array_equal(blocked.ledger.cumulative_leaf_costs, stepped.ledger.cumulative_leaf_costs)
    assert policy_state(blocked) == policy_state(stepped)

    if trace is not None:
        whole = build_sim(kind, feedback, depth, entropy)
        whole_trace = TraceRecorder(window=window, watched=trace.watched)
        whole.run(T, trace=whole_trace)
        assert trace.rows == whole_trace.rows


class NaNAtRound(CostEnvironment):
    n_leaves = 2

    def __init__(self, bad_round):
        self.bad_round = bad_round

    def costs_block(self, t, n, rng):
        block = np.full((n, 2), 0.5)
        if t <= self.bad_round < t + n:
            block[self.bad_round - t, 1] = np.nan
        return block


def test_nan_deep_inside_a_block_names_its_round():
    topo = build_uniform_tree(2, 1)
    sim = Simulation(topo, {0: EpsilonExp3(2, 0.1, 0.1)}, NaNAtRound(777),
                     FeedbackModel.END_TO_END_BANDIT, (1,))
    assert sim._block_rounds > 777
    with pytest.raises(EngineError, match=r"NaN at round 777$"):
        sim.run(1000)


# --------------------------------------------------------------------------
# the oracle's expected-cost refresh


class FreshArrays(CostEnvironment):
    """``env`` handing out a new, equal expected-cost array at every call,
    which obliges the engine to refresh the oracles every round."""

    def __init__(self, env):
        self.env = env
        self.n_leaves = env.n_leaves

    def costs_block(self, t, n, rng):
        return self.env.costs_block(t, n, rng)

    def expected_costs(self, t):
        return self.env.expected_costs(t).copy()


def oracle_tree_sim(env_kind, shift_round, kinds, feedback, fresh, entropy):
    """An oracle root over nodes 1 and 2 of the fanout-2, depth-2 tree,
    each an oracle, a fixed policy or a learner."""
    topo = build_uniform_tree(2, 2)
    if env_kind == "chain":
        env = LowerBoundChainEnv(3, 0.05)
    else:
        env = BernoulliTreeEnv([0.9, 0.3, 0.6, 0.2], shift_round=shift_round)
    if fresh:
        env = FreshArrays(env)
    forward = exp_decay_forward_prob(0.8)
    policies = {0: OraclePolicy(2, forward)}
    for node, kind in zip((1, 2), kinds):
        if kind == "oracle":
            policies[node] = OraclePolicy(2, forward)
        elif kind == "stationary":
            policies[node] = StationaryPolicy(2, 1)
        elif kind == "uniform":
            policies[node] = UniformRandomPolicy(2)
        elif feedback is FeedbackModel.COMPLETE_ONE_HOP:
            policies[node] = NormalizedEG(2, eta=0.4)
        elif kind == "eps_exp3":
            policies[node] = EpsilonExp3(2, eta=0.3, epsilon=0.2)
        else:
            policies[node] = AnytimeEpsilonExp3(2, 2, 2, children_all_leaves=True)
    return Simulation(topo, policies, env, feedback, entropy)


NODE_KINDS = ["oracle", "stationary", "uniform", "eps_exp3", "anytime_eps_exp3"]


@settings(max_examples=200, deadline=None)
@given(
    env_kind=st.sampled_from(["bernoulli", "chain"]),
    shift_round=st.integers(1, 70),
    kinds=st.tuples(st.sampled_from(NODE_KINDS), st.sampled_from(NODE_KINDS)),
    one_hop=st.booleans(),
    fresh=st.booleans(),
    T=st.integers(1, 60),
    block_rounds=st.integers(1, 40),
    window=st.one_of(st.none(), st.integers(1, 6)),
    seed=st.integers(0, 2**31),
)
def test_skipped_refresh_equals_refresh_every_round(
        env_kind, shift_round, kinds, one_hop, fresh, T, block_rounds, window, seed):
    feedback = FeedbackModel.COMPLETE_ONE_HOP if one_hop else FeedbackModel.END_TO_END_BANDIT
    entropy = (seed, T)
    sims = []
    for every_round in (False, True):
        # 4 leaves: blocks of block_rounds rounds
        with mock.patch.object(engine, "BLOCK_ELEMENTS", 4 * block_rounds):
            sim = oracle_tree_sim(env_kind, shift_round, kinds, feedback,
                                  fresh or every_round, entropy)
        trace = None
        if window is not None:
            trace = TraceRecorder(window=window, watched=((0, 1), (1, 3), (2, 6)))
        sim.run(T, trace=trace)
        sims.append((sim, trace))
    (cached, cached_trace), (reference, reference_trace) = sims
    assert cached.ledger.cumulative_algorithm_cost == reference.ledger.cumulative_algorithm_cost
    assert np.array_equal(cached.ledger.cumulative_leaf_costs,
                          reference.ledger.cumulative_leaf_costs)
    assert policy_state(cached) == policy_state(reference)
    for node in cached.topology.non_leaves:
        assert cached.policies[node].distribution() == reference.policies[node].distribution()
    if window is not None:
        assert cached_trace.rows == reference_trace.rows
