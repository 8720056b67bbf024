"""The compiled rounds (``_round.c``) compute the Python route's floats.

``Simulation.run`` hands untraced bandit rounds to the compiled bandit round
when every non-leaf is an ``EpsilonExp3`` or an ``Exp3Baseline``, and
untraced one-hop rounds to the compiled one-hop round when every non-leaf is
a ``NormalizedEG``. A twin that
takes the Python route, as it does without a compiler, must end with the
same ledger totals, scores, softmax entries and draws, compared with ``==``,
and every node stream must hand out the same next float. The trees are
ragged, their children out of id order, the blocks small enough that runs
cross them, and ``run_round`` (always the Python route) runs before and
after ``run``. Each error an update raises, raises with the same class and
text on both routes.

These tests skip, with the loader's reason, where the library cannot be
built.
"""

import re
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from treebandit import _round, engine  # noqa: E402
from treebandit.engine import EngineError, FeedbackModel, Simulation  # noqa: E402
from treebandit.env import BernoulliTreeEnv, CostEnvironment  # noqa: E402
from treebandit.policy import (  # noqa: E402
    EpsilonExp3,
    Exp3Baseline,
    NormalizedEG,
    NumericalError,
    PolicyError,
)
from treebandit.topology import TreeTopology  # noqa: E402

KERNEL, REASON = _round.load()
pytestmark = pytest.mark.skipif(KERNEL is None, reason=str(REASON))


class SparseUniformEnv(CostEnvironment):
    """Leaf costs uniform on [0.3, 1), or 0 where a draw is below 0.3."""

    def __init__(self, n_leaves):
        self._n = n_leaves

    @property
    def n_leaves(self):
        return self._n

    def costs_block(self, t, n, rng):
        costs = rng.random((n, self._n))
        costs[costs < 0.3] = 0.0
        return costs


@st.composite
def ragged_trees(draw):
    """A tree of at most about 30 nodes and depth 4, whose non-root ids are
    shuffled, so that children are out of id order and leaves and non-leaves
    mix among a node's children."""
    children, depth = [[]], [0]
    queue = [0]
    while queue:
        node = queue.pop(0)
        if node == 0 or (depth[node] < 4 and len(depth) < 30 and draw(st.booleans())):
            for _ in range(draw(st.integers(1, 4))):
                children[node].append(len(depth))
                queue.append(len(depth))
                children.append([])
                depth.append(depth[node] + 1)
    label = [0] + draw(st.permutations(range(1, len(depth))))
    relabelled = [()] * len(depth)
    for node, kids in enumerate(children):
        relabelled[label[node]] = tuple(label[c] for c in kids)
    return TreeTopology(tuple(relabelled))


mixes = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
etas = st.floats(-3.0, 1.0).map(lambda x: 10.0**x)


@st.composite
def setups(draw):
    """A ragged tree, a draw of policies for it, an env, a block size and a seed."""
    topo = draw(ragged_trees())
    spec = {}
    for node in topo.non_leaves:
        k = len(topo.children[node])
        cls = draw(st.sampled_from((EpsilonExp3, Exp3Baseline)))
        theta = draw(st.none() | st.lists(st.floats(-50.0, 0.0), min_size=k, max_size=k))
        spec[node] = (cls, k, draw(etas), draw(mixes), theta)
    n_leaves = len(topo.leaves)
    if n_leaves < 2 or draw(st.booleans()):  # a Bernoulli env needs two leaves
        env = SparseUniformEnv(n_leaves)
    else:
        env = BernoulliTreeEnv(draw(st.lists(
            st.sampled_from((0.0, 0.2, 0.5, 1.0)), min_size=n_leaves, max_size=n_leaves)))
    block_elements = draw(st.integers(1, 4 * n_leaves))
    return topo, spec, env, block_elements, draw(st.integers(0, 2**32 - 1))


def build(topo, spec, env, block_elements, seed):
    policies = {}
    for node, (cls, k, eta, mix, theta) in spec.items():
        policies[node] = pol = cls(k, eta, mix)
        if theta is not None:
            pol.theta = theta
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        return Simulation(topo, policies, env, FeedbackModel.END_TO_END_BANDIT, entropy=(seed,))


def on_python_route(step):
    """``step()`` as it runs without a compiler."""
    with mock.patch.object(_round, "load", return_value=(None, "the reference route")):
        return step()


def outcome(step):
    """What ``step()`` returned, or the class and text of what it raised."""
    try:
        return step()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def state(sim):
    ledger = sim.ledger
    return (
        ledger.cumulative_algorithm_cost,
        ledger.cumulative_leaf_costs.tolist(),
        ledger.rounds_elapsed,
        [(sim.policies[n]._theta, sim.policies[n]._soft, sim._drawn[n])
         for n in sim.topology.non_leaves],
    )


def next_floats(sim):
    return [sim._node_rngs[n].random() for n in sim.topology.non_leaves]


def assert_twins(fast, twin):
    assert state(fast) == state(twin)
    assert next_floats(fast) == next_floats(twin)


@settings(max_examples=150, deadline=None)
@given(case=setups(), horizons=st.tuples(st.integers(0, 40), st.integers(1, 40)))
def test_run_equals_the_python_route(case, horizons):
    fast, twin = build(*case), build(*case)
    T1, T2 = horizons
    for T in (T1, T2):
        got = outcome(lambda: fast.run(T).rounds_elapsed)
        want = outcome(lambda: on_python_route(lambda: twin.run(T).rounds_elapsed))
        assert got == want
        assert fast._compilable  # the compiled round ran
        assert state(fast) == state(twin)
        if isinstance(want, tuple):
            break
    else:
        assert outcome(lambda: fast.run_round(T2 + 1)) == outcome(lambda: twin.run_round(T2 + 1))
    assert_twins(fast, twin)


@settings(max_examples=60, deadline=None)
@given(case=setups(), T=st.integers(0, 40))
def test_a_round_first_keeps_the_python_route(case, T):
    # run_round buffers node floats, so the compiled round may not draw after it
    fast, twin = build(*case), build(*case)
    for step in (lambda sim: sim.run_round(1), lambda sim: sim.run(T).rounds_elapsed,
                 lambda sim: sim.run_round(T + 1)):
        got = outcome(lambda: step(fast))
        want = outcome(lambda: on_python_route(lambda: step(twin)))
        assert got == want
        if isinstance(want, tuple):
            break
    assert not fast._compilable
    assert_twins(fast, twin)


# -- one-hop feedback -----------------------------------------------------------


def build_one_hop(topo, spec, env, block_elements, seed):
    """``build``'s twin with a ``NormalizedEG`` of the spec's eta and scores at
    every non-leaf, under one-hop feedback."""
    policies = {}
    for node, (_, k, eta, _, theta) in spec.items():
        policies[node] = pol = NormalizedEG(k, eta)
        if theta is not None:
            pol.theta = theta
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_elements):
        return Simulation(topo, policies, env, FeedbackModel.COMPLETE_ONE_HOP, entropy=(seed,))


@settings(max_examples=150, deadline=None)
@given(case=setups(), horizons=st.tuples(st.integers(0, 40), st.integers(1, 40)),
       round_first=st.booleans())
def test_a_one_hop_run_equals_the_python_route(case, horizons, round_first):
    # a run_round first buffers node floats, and the runs after it keep the Python route
    fast, twin = build_one_hop(*case), build_one_hop(*case)
    T1, T2 = horizons
    steps = [lambda sim: sim.run(T1).rounds_elapsed, lambda sim: sim.run(T2).rounds_elapsed,
             lambda sim: sim.run_round(T2 + 1)]
    if round_first:
        steps.insert(0, lambda sim: sim.run_round(1))
    for step in steps:
        assert step(fast) == on_python_route(lambda: step(twin))
        assert fast._compilable is (not round_first and step is not steps[-1])
        assert state(fast) == state(twin)
    assert_twins(fast, twin)


# -- errors ---------------------------------------------------------------------

# numpy's PCG64 steps its 128-bit state s to s * MULT + inc, then outputs the
# new state's high and low words xor-ed and rotated. A state of 0 outputs 0,
# which random() turns into 0.0, and with inc = 2**64 - 1 a state of inc
# outputs 64 one bits, which random() turns into 1 - 2**-53, its largest float.
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
INC = 2**64 - 1
STARTS = {
    "top": 0,  # 1 - 2**-53 first
    "zero, top": -INC * pow(PCG64_MULT, -1, 2**128) % 2**128,  # 0.0, then 1 - 2**-53
}


def force_draws(sim, node, start):
    sim._node_rngs[node].generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": STARTS[start], "inc": INC},
        "has_uint32": 0,
        "uinteger": 0,
    }


def fan(k):
    return TreeTopology(((*range(1, k + 1),),) + ((),) * k)


# one tenth ten times sums to 1 - 2**-53, so a draw of 1 - 2**-53 passes all
# ten and falls through to the last child, whose softmax entry exp(-700) / 10
# is below PROB_FLOOR
TENTHS = [0.0] * 10 + [-700.0]


def exploit_underflow():
    pol = EpsilonExp3(11, 1.0, 0.0)
    pol.theta = TENTHS
    return fan(11), {0: pol}, {0: "zero, top"}  # mode E, then the last child


def choice_underflow():
    pol = Exp3Baseline(11, 1.0, 0.0)
    pol.theta = TENTHS
    return fan(11), {0: pol}, {0: "top"}


def tiny_receive_prob(epsilon):
    """The root enters mode U (a draw of 0.0 < epsilon) and picks child 1, a
    non-leaf whose softmax entry is 0, so node 2 receives epsilon / 2."""
    root = EpsilonExp3(2, 1.0, epsilon)
    root.theta = [0.0, -1e6]
    topo = TreeTopology(((1, 2), (), (3, 4), (), ()))
    return topo, {0: root, 2: EpsilonExp3(2, 1.0, 0.0)}, {0: "zero, top"}


@pytest.mark.parametrize("case, error, text", [
    (exploit_underflow, NumericalError,
     "exploit-mode probability underflowed (9.85967654375977e-306) for child 10"),
    (choice_underflow, NumericalError,
     "choice probability underflowed (9.85967654375977e-306) for child 10"),
    # 5e-324 / 2 rounds to 0.0
    (lambda: tiny_receive_prob(5e-324), PolicyError, "receive probability must be positive, got 0.0"),
    # node 2 receives 5e-324, and 5e-324 * 0.5 rounds to 0.0
    (lambda: tiny_receive_prob(1e-323), NumericalError, "receive probability times exploit-mode "
     "probability underflowed (5e-324 * 0.5) for child 0"),
])
def test_an_update_error_is_the_python_routes(case, error, text):
    sims = []
    for _ in range(2):
        topo, policies, starts = case()
        sim = Simulation(topo, policies, BernoulliTreeEnv([1.0] * len(topo.leaves)),
                         FeedbackModel.END_TO_END_BANDIT)
        for node, start in starts.items():
            force_draws(sim, node, start)
        sims.append(sim)
    fast, twin = sims
    with pytest.raises(error) as got:
        fast.run(3)
    with pytest.raises(error) as want:
        on_python_route(lambda: twin.run(3))
    assert str(got.value) == str(want.value) == text
    assert fast._compilable and not twin._compilable
    assert_twins(fast, twin)


class NaNAtRound7(SparseUniformEnv):
    def costs_block(self, t, n, rng):
        costs = super().costs_block(t, n, rng)
        if t <= 7 < t + n:
            costs[7 - t, 0] = float("nan")
        return costs


def test_a_range_error_keeps_the_blocks_before_it():
    spec = {n: (EpsilonExp3, 2, 0.5, 0.2, None) for n in range(3)}
    # three rounds a block: rounds 1-6 run, the block of round 7 fails its check
    fast, twin = (build(TreeTopology(((1, 2), (3, 4), (5, 6), (), (), (), ())), spec,
                        NaNAtRound7(4), 12, 5) for _ in range(2))
    text = re.escape("environment produced costs outside [0,1] or NaN at round 7")
    with pytest.raises(EngineError, match=f"^{text}$"):
        fast.run(10)
    with pytest.raises(EngineError, match=f"^{text}$"):
        on_python_route(lambda: twin.run(10))
    assert fast.ledger.rounds_elapsed == 6
    assert_twins(fast, twin)


class ShortRows(SparseUniformEnv):
    def costs_block(self, t, n, rng):
        return super().costs_block(t, n, rng)[:, 1:]


class WideRows(SparseUniformEnv):
    def costs_block(self, t, n, rng):
        return rng.random((n, self._n + 1))


def test_a_block_of_the_wrong_shape_is_an_engine_error():
    spec = {0: (Exp3Baseline, 3, 0.5, 0.1, None)}
    for env, shape in ((ShortRows(3), (10, 2)), (WideRows(3), (10, 4))):
        fast, twin = (build(TreeTopology(((1, 2, 3), (), (), ())), spec, env, 30, 0)
                      for _ in range(2))
        text = re.escape(f"environment returned a cost block of shape {shape}, not (10, 3)")
        with pytest.raises(EngineError, match=f"^{text}$"):
            fast.run(20)
        with pytest.raises(EngineError, match=f"^{text}$"):
            on_python_route(lambda: twin.run(20))
        assert_twins(fast, twin)
