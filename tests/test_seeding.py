"""Node-stream seed states: the engine's one-pass copy of numpy's
SeedSequence hash gives numpy's states, and the seed sequence stand-in
that node streams hand PCG64 serves that request only."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from treebandit import engine  # noqa: E402
from treebandit.engine import EngineError  # noqa: E402

# the word edges: one word, its largest value, two words, three words
key_ints = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**70]), st.integers(0, 2**96))


def numpy_state(key) -> list[int]:
    return np.random.SeedSequence(key).generate_state(4, np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.lists(key_ints, min_size=1, max_size=5),
    nodes=st.lists(st.integers(0, 10**6), min_size=1, max_size=8),
)
# rng_streams' keys for entropy (0,) and (0, 0): the node word falls inside
# the pool and enters SeedSequence's first mixing loop
@example(prefix=[0, 1], nodes=[0, 1, 2, 10**6])
@example(prefix=[0, 0, 1], nodes=[0, 3])
@example(prefix=[2**32 - 1, 2**32, 2**70, 0, 1], nodes=[10**6])
def test_seed_states_equal_numpy(prefix, nodes):
    got = engine._seed_states(engine._words(prefix), nodes)
    assert got.dtype == np.uint64 and got.shape == (len(nodes), 4)
    assert got.tolist() == [numpy_state([*prefix, node]) for node in nodes]


def test_stand_in_serves_only_pcg64s_request():
    from numpy.random.bit_generator import ISeedSequence

    state = engine._seed_states([3, 1], [5])[0]
    stand_in = engine._seed_state_type()(state)
    assert isinstance(stand_in, ISeedSequence)
    assert stand_in.generate_state(4, np.uint64) is state
    for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64), (4, np.int64)):
        with pytest.raises(EngineError, match="4 uint64 words"):
            stand_in.generate_state(n_words, dtype)
    with pytest.raises(EngineError):
        stand_in.generate_state(4)  # SeedSequence's default dtype is uint32
    # the Generator built on the stand-in is default_rng on the key
    assert np.array_equal(
        np.random.Generator(np.random.PCG64(stand_in)).random(50),
        np.random.default_rng([3, 1, 5]).random(50),
    )
