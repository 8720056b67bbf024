"""Property tests: the per-visit policy path computes the parent's floats.

At every hop the engine calls ``select(rng)`` and then ``prob(child)``,
which returns one entry of ``distribution()`` without building the list.
Three properties keep that change invisible in the outputs:

- ``stable_softmax`` equals, bit for bit, the list-comprehension softmax it
  replaced, written out here as a reference;
- every policy's ``prob(child)`` equals ``distribution()[child]``, and for
  the three softmax policies both equal the list the parent's
  ``distribution()`` built from the reference softmax;
- ``select`` draws the same child in the same mode as the parent's
  ``distribution()`` + ``select()`` pair, and leaves its stream at the same
  position as a twin stream that pair used.

The expected-cost recursion ``w`` adds ``p * w`` left to right as well,
checked on trees with three and four children per node.
"""

import functools
import math
import operator

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from treebandit.engine import FeedbackModel, Simulation  # noqa: E402
from treebandit.env import BernoulliTreeEnv  # noqa: E402
from treebandit.policy import (  # noqa: E402
    AnytimeEpsilonExp3,
    EpsilonExp3,
    Exp3Baseline,
    ModeDraw,
    NormalizedEG,
    NumericalError,
    OraclePolicy,
    StationaryPolicy,
    UniformRandomPolicy,
    constant_forward_prob,
    exp_decay_forward_prob,
    stable_softmax,
)
from treebandit.topology import TreeTopology, build_uniform_tree  # noqa: E402

KINDS = ("eps_exp3", "anytime", "exp3", "normalized_eg", "stationary", "uniform", "oracle")

# Scores from 0 down to -1e4 and up to 1e4, spread over ten decades.
scores = st.one_of(
    st.just(0.0),
    st.floats(-6.0, 4.0).map(lambda x: -(10.0**x)),
    st.floats(-6.0, 4.0).map(lambda x: 10.0**x),
    st.floats(-50.0, 50.0),
)
etas = st.floats(-4.0, 0.0).map(lambda x: 10.0**x)


def reference_softmax(theta, eta):
    """The parent's softmax: list comprehensions, and a normaliser added
    left to right (what ``sum()`` did before Python 3.12)."""
    m = max(theta)
    exps = [math.exp(eta * (v - m)) for v in theta]
    s = functools.reduce(operator.add, exps)
    return [e / s for e in exps]


def reference_draw_index(probs, rng):
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


def uniform_child(rng, k):
    child = int(rng.random() * k)
    return k - 1 if child == k else child


def parent_distribution(pol):
    """The list the parent's ``distribution()`` built for a softmax policy;
    exponential weights mix in no floor, so theirs was the softmax itself."""
    if isinstance(pol, NormalizedEG):
        return reference_softmax(pol.theta, pol.eta)
    mix = pol.epsilon if isinstance(pol, EpsilonExp3) else pol.gamma
    floor = mix / pol.n_children
    return [floor + (1.0 - mix) * p for p in reference_softmax(pol.theta, pol.eta)]


def parent_select(pol, rng):
    """The parent's select, after the engine's ``distribution()`` call."""
    if isinstance(pol, EpsilonExp3):
        if rng.random() < pol.epsilon:
            return ModeDraw("U", uniform_child(rng, pol.n_children))
        return ModeDraw("E", reference_draw_index(reference_softmax(pol.theta, pol.eta), rng))
    if isinstance(pol, StationaryPolicy):
        return ModeDraw(None, pol.child)
    if isinstance(pol, UniformRandomPolicy):
        return ModeDraw(None, uniform_child(rng, pol.n_children))
    if isinstance(pol, (Exp3Baseline, NormalizedEG)):
        return ModeDraw(None, reference_draw_index(parent_distribution(pol), rng))
    return ModeDraw(None, reference_draw_index(pol.distribution(), rng))


@st.composite
def visited_policies(draw):
    """A policy of any class, the visits to make to it (the cost handed
    back, the receive probability and every child's cost) and a seed."""
    kind = draw(st.sampled_from(KINDS))
    k = 2 if kind == "oracle" else draw(st.integers(2, 6))
    mix = draw(st.floats(0.0, 1.0))
    if kind == "eps_exp3":
        pol = EpsilonExp3(k, draw(etas), mix)
    elif kind == "anytime":
        pol = AnytimeEpsilonExp3(k, draw(st.integers(1, 4)), k, draw(st.booleans()))
        pol.start_segment(draw(st.integers(0, 16)))
    elif kind == "exp3":
        pol = Exp3Baseline(k, draw(etas), mix)
    elif kind == "normalized_eg":
        pol = NormalizedEG(k, draw(etas))
    elif kind == "stationary":
        pol = StationaryPolicy(k, draw(st.integers(0, k - 1)))
    elif kind == "uniform":
        pol = UniformRandomPolicy(k)
    else:
        fn = draw(st.sampled_from((constant_forward_prob, exp_decay_forward_prob)))
        pol = OraclePolicy(2, fn(mix))
    visits = draw(st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
            st.floats(-3.0, 0.0).map(lambda x: 10.0**x),
            st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k),
        ),
        min_size=1, max_size=12,
    ))
    return pol, visits, draw(st.integers(0, 2**32 - 1))


def visit(pol, rng, cost, receive_prob, child_costs, expected):
    """One hop the way the engine makes it; the selected draw, or None once
    a probability underflows (an error the engine raises as well)."""
    if pol.requires_expected_costs:
        pol.set_expected_costs(expected)
    d = pol.select(rng)
    try:
        if isinstance(pol, NormalizedEG):
            pol.observe_all(child_costs)
        else:
            pol.update(d, cost, receive_prob)
    except NumericalError:
        return None
    return d


@settings(max_examples=400, deadline=None)
@given(
    theta=st.lists(scores, min_size=2, max_size=8),
    eta=etas,
)
def test_softmax_matches_list_reference(theta, eta):
    assert stable_softmax(theta, eta) == reference_softmax(theta, eta)


@settings(max_examples=300, deadline=None)
@given(case=visited_policies())
def test_prob_is_the_distribution_entry(case):
    pol, visits, seed = case
    rng = np.random.default_rng(seed)
    for cost, v, child_costs in visits:
        expected = child_costs[:2]
        if pol.requires_expected_costs:
            pol.set_expected_costs(expected)
        d = pol.select(rng)
        x = pol.distribution()
        assert pol.prob(d.child) == x[d.child]
        assert [pol.prob(j) for j in range(pol.n_children)] == x
        if isinstance(pol, (EpsilonExp3, Exp3Baseline, NormalizedEG)):
            assert x == parent_distribution(pol)
        if visit(pol, rng, cost, v, child_costs, expected) is None:
            break


@settings(max_examples=300, deadline=None)
@given(case=visited_policies())
def test_select_leaves_stream_where_parent_did(case):
    pol, visits, seed = case
    rng = np.random.default_rng(seed)
    for i, (cost, v, child_costs) in enumerate(visits):
        expected = child_costs[:2]
        if pol.requires_expected_costs:
            pol.set_expected_costs(expected)
        stream = np.random.default_rng([seed, i])
        twin = np.random.default_rng([seed, i])
        assert pol.select(stream) == parent_select(pol, twin)
        assert stream.random() == twin.random()
        if visit(pol, rng, cost, v, child_costs, expected) is None:
            break


class SeesW(UniformRandomPolicy):
    """A uniform policy that asks for expected costs, so the engine's
    recursion hands it the w of its children at every refresh."""

    requires_expected_costs = True

    def set_expected_costs(self, child_ws):
        self.seen = list(child_ws)


@settings(max_examples=100, deadline=None)
@given(
    fanout=st.integers(3, 4),
    depth=st.integers(1, 2),
    eta=etas,
    seed=st.integers(0, 2**32 - 1),
)
def test_expected_cost_recursion_adds_left_to_right(fanout, depth, eta, seed):
    topo = build_uniform_tree(fanout, depth)
    gen = np.random.default_rng(seed)
    means = gen.random(len(topo.leaves))
    policies = {n: EpsilonExp3(fanout, eta, 0.1) for n in topo.non_leaves}
    # the tree runs under a one-child stem, whose policy asks for expected
    # costs, so the engine hands it w of the tree's root at every round
    stem = SeesW(1)
    shifted = tuple(tuple(c + 1 for c in kids) for kids in topo.children)
    sim = Simulation(
        TreeTopology(((1,),) + shifted), {0: stem, **{n + 1: p for n, p in policies.items()}},
        BernoulliTreeEnv(means), FeedbackModel.END_TO_END_BANDIT, entropy=(seed,)
    )
    sim.run(30)

    def w(node):
        kids = topo.children[node]
        if not kids:
            return float(means[topo.leaf_index(node)])
        terms = [p * w(c) for p, c in zip(policies[node].distribution(), kids)]
        return functools.reduce(operator.add, terms)

    want = w(0)
    sim.run_round(31)
    assert stem.seen == [want]
