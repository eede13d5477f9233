"""Property tests on random small code pairs: the batch kernel against the
reference recovery, and run_trials' independence of workers and batching."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from subqec import (
    LinearCode,
    NoiseModel,
    PauliGrid,
    SubsystemCode,
    gf2,
    recover,
    run_trials,
)
from subqec.simulate import _batch_failures

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def linear_codes(draw):
    """A code of length <= 5 from a random full-rank generator."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    generator = np.array(rows, np.uint8)
    assume(gf2.rank(generator) == k)
    return LinearCode.from_generator(generator)


@st.composite
def grid_codes(draw):
    return SubsystemCode(draw(linear_codes()), draw(linear_codes()))


noises = st.one_of(
    st.builds(NoiseModel.depolarizing, st.floats(0.0, 0.5)),
    st.builds(NoiseModel.x_only, st.floats(0.0, 0.5)),
    st.builds(NoiseModel.z_only, st.floats(0.0, 0.5)),
    st.builds(NoiseModel.independent_xz, st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
)


@PROPERTY_SETTINGS
@given(code=grid_codes(), seed=st.integers(0, 2 ** 32 - 1))
def test_batch_matches_recover_on_random_codes(code, seed):
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 2, (24, code.n1, code.n2), dtype=np.uint8)
    x = rng.integers(0, 2, (24, code.n1, code.n2), dtype=np.uint8)
    batch = _batch_failures(code, z, x)
    for i in range(24):
        assert batch[i] == (not recover(code, PauliGrid(z[i], x[i])).logical_ok)


@PROPERTY_SETTINGS
@given(code=grid_codes(), noise=noises, seed=st.integers(0, 2 ** 64 - 1),
       batch_size=st.integers(1, 400))
def test_run_trials_independent_of_workers_and_batching(code, noise, seed,
                                                        batch_size):
    base = run_trials(code, noise, 500, seed)
    assert run_trials(code, noise, 500, seed, workers=2) == base
    assert run_trials(code, noise, 500, seed, batch_size=batch_size) == base
