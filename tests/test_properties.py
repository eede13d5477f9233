"""Property tests on random small code pairs: the batch kernel and the
raw-word Monte Carlo kernel against the reference recovery, run_trials'
independence of workers and batching, the decomposition along the grid's
two bases, the generator lists as views of the generator stacks, the
construction check on the factors against the Gram check on the stacks,
the brute-force distance against the paper's min(d1, d2) (found at d and
not below it) and against the search over all three Paulis per site, the
exact failing counts and rate against walking every grid pattern, the
exact rate against its correctly rounded value, and the distance search
on grids whose sites share signatures against the three-Pauli search."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from subqec import (
    LinearCode,
    NoiseModel,
    PauliGrid,
    ShorCode,
    SubsystemCode,
    distance_bruteforce,
    exact_rate_enumeration,
    extract_syndrome,
    failing_counts,
    gf2,
    recover,
    run_trials,
)
from subqec.simulate import _Kernel, _count_chunk

from references import (
    batch_failures,
    distance_by_three_paulis,
    gram_check,
    symplectic_rows,
    trial_uniforms,
    walked_exact_rate,
    walked_failing_counts,
)

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


def full_rank_rows(draw, rows, n):
    m = np.array(draw(st.lists(st.integers(0, 1), min_size=rows * n,
                               max_size=rows * n)), np.uint8).reshape(rows, n)
    assume(gf2.rank(m) == rows)
    return m


@st.composite
def any_codes(draw, n_max=5):
    """A code of length <= n_max with k anywhere in 0..n, from a random
    generator or a random check matrix, so that k = 0 and k = n factors
    (empty quadrants) come up."""
    n = draw(st.integers(1, n_max))
    k = draw(st.integers(0, n))
    if draw(st.booleans()):
        return LinearCode.from_generator(full_rank_rows(draw, k, n))
    return LinearCode.from_parity(full_rank_rows(draw, n - k, n))


@st.composite
def grid_codes(draw):
    return SubsystemCode(draw(linear_codes()), draw(linear_codes()))


@st.composite
def small_grids(draw):
    """Grids of at most 20 sites from two :func:`any_codes` factors, the
    longer one either way round."""
    a = draw(any_codes(n_max=10))
    b = draw(any_codes(n_max=20 // a.n))
    return SubsystemCode(a, b) if draw(st.booleans()) else SubsystemCode(b, a)


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
    batch = batch_failures(code, z, x)
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


unit_interval = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
any_noises = st.one_of(
    st.builds(NoiseModel.depolarizing, unit_interval),
    st.builds(NoiseModel.x_only, unit_interval),
    st.builds(NoiseModel.z_only, unit_interval),
    st.builds(NoiseModel.independent_xz, unit_interval, unit_interval),
)


@PROPERTY_SETTINGS
@given(c1=any_codes(), c2=any_codes(), noise=any_noises,
       seed=st.integers(0, 2 ** 64 - 1))
def test_raw_word_kernel_matches_float_reference(c1, c2, noise, seed):
    """Trial by trial, the kernel's (logical, bit-flip, phase-flip) outcome
    equals recover() on the errors the float uniforms give."""
    code = SubsystemCode(c1, c2)
    width = 4 * -(-noise.draws_per_site * code.n // 4)
    z_offset = (noise.draws_per_site - 1) * code.n
    kernel = _Kernel(code, width, z_offset)
    trials = 12
    got = [tuple(_count_chunk(kernel, noise, seed, 8192, (t, t + 1)))
           for t in range(trials)]
    u = trial_uniforms(seed, 0, trials, noise.draws_per_site * code.n)
    zbits, xbits = noise.errors_from_uniforms(u, code.n)
    shape = (code.n1, code.n2)
    for t in range(trials):
        out = recover(code, PauliGrid(zbits[t].reshape(shape),
                                      xbits[t].reshape(shape)))
        assert got[t] == (not out.logical_ok, out.residual_x.any(),
                          out.residual_z.any()), t
    whole = _count_chunk(kernel, noise, seed, 5, (0, trials))
    assert tuple(whole) == tuple(map(sum, zip(*got)))


BLOCKS = ("z_stab", "z_gauge", "z_logical", "z_detect",
          "x_stab", "x_gauge", "x_logical", "x_detect")


def assert_unit_block(dec, block, index):
    """``block`` holds a single 1 at flat ``index``; every other block is
    zero."""
    for field in BLOCKS:
        got = getattr(dec, field)
        want = np.zeros(got.shape, np.uint8)
        if field == block:
            want.flat[index] = 1
        assert np.array_equal(got, want), (block, index, field)


@PROPERTY_SETTINGS
@given(c1=any_codes(), c2=any_codes(), seed=st.integers(0, 2 ** 32 - 1))
def test_decomposition_along_the_two_bases(c1, c2, seed):
    code = SubsystemCode(c1, c2)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        op = PauliGrid(rng.integers(0, 2, (code.n1, code.n2)),
                       rng.integers(0, 2, (code.n1, code.n2)),
                       int(rng.integers(0, 4)))
        dec = code.decompose(op)
        assert code.recompose(dec) == op
        syn = extract_syndrome(code, op)
        assert np.array_equal(dec.z_detect, syn.s_x)
        assert np.array_equal(dec.x_detect, syn.s_z)
    for family, block in (("z_stabilizers", "z_stab"), ("z_gauges", "z_gauge"),
                          ("x_stabilizers", "x_stab"), ("x_gauges", "x_gauge")):
        for index, op in enumerate(getattr(code, family)):
            assert_unit_block(code.decompose(op), block, index)
    for family, block in (("logical_z", "z_logical"), ("logical_x", "x_logical")):
        ops = [op for row in getattr(code, family) for op in row]
        for index, op in enumerate(ops):
            assert_unit_block(code.decompose(op), block, index)


FAMILIES = (("z_stabilizers", "z_stabilizer_bits", False),
            ("x_stabilizers", "x_stabilizer_bits", True),
            ("z_gauges", "z_gauge_bits", False),
            ("x_gauges", "x_gauge_bits", True),
            ("logical_z", "logical_z_bits", False),
            ("logical_x", "logical_x_bits", True))


@PROPERTY_SETTINGS
@given(c1=any_codes(), c2=any_codes(), shor=st.booleans())
def test_generator_lists_are_views_of_the_stacks(c1, c2, shor):
    code = (ShorCode if shor else SubsystemCode)(c1, c2)
    zero = np.zeros((code.n1, code.n2), np.uint8)
    for family, stack_name, x_type in FAMILIES:
        ops = getattr(code, family)
        bits = getattr(code, stack_name)
        if family.startswith("logical"):
            assert [len(row) for row in ops] == [c2.k] * c1.k
            ops = [op for row in ops for op in row]
        assert not bits.flags.writeable
        assert bits.shape == (len(ops), code.n1, code.n2)
        for op, grid in zip(ops, bits):
            assert op.phase == 0
            assert not (op.z.flags.writeable or op.x.flags.writeable)
            assert op.z.dtype == op.x.dtype == np.uint8
            assert np.array_equal(op.x if x_type else op.z, grid)
            assert np.array_equal(op.z if x_type else op.x, zero)
    s_z, s_x = len(code.z_stabilizer_bits), len(code.x_stabilizer_bits)
    stacked = np.zeros((s_z + s_x, 2 * code.n), np.uint8)
    stacked[:s_z, :code.n] = code.z_stabilizer_bits.reshape(s_z, code.n)
    stacked[s_z:, code.n:] = code.x_stabilizer_bits.reshape(s_x, code.n)
    assert np.array_equal(symplectic_rows(code.stabilizers, code.n), stacked)


LISTS = tuple(family for family, _, _ in FAMILIES)
STACKS = tuple(stack for _, stack, _ in FAMILIES)


@PROPERTY_SETTINGS
@given(c1=any_codes(n_max=4), c2=any_codes(n_max=4), shor=st.booleans(),
       held=st.sets(st.sampled_from(STACKS)))
def test_verification_on_the_factors(c1, c2, shor, held):
    """The Gram reference accepts an intact code, whichever stacks it held
    before the check.  Construction and the Monte Carlo and exact rates
    build no stack, and both rates refuse a ShorCode, which their decoding
    does not fit."""
    cls = ShorCode if shor else SubsystemCode
    code = cls(c1, c2)
    noise = NoiseModel.independent_xz(0.1, 0.2)
    if shor:
        with pytest.raises(ValueError, match="ShorCode"):
            run_trials(code, noise, 200, seed=3)
        with pytest.raises(ValueError, match="ShorCode"):
            exact_rate_enumeration(code, noise)
    else:
        report = run_trials(code, noise, 200, seed=3)
        exact_rate_enumeration(code, noise)
    assert not set(vars(code)) & set(STACKS + LISTS)
    counted = sum(code.stabilizer_counts)
    assert counted == (len(code.z_stabilizer_bits)
                       + len(code.x_stabilizer_bits))
    assert shor or report.code_params[3] == counted
    gram_check(cls(c1, c2))
    code = cls(c1, c2)
    for name in held:
        getattr(code, name)
    assert set(vars(code)) & set(STACKS) == held
    gram_check(code)


@st.composite
def small_grid_pairs(draw):
    """Two codes with k >= 1 on a grid of at most 16 qubits."""
    c1 = draw(linear_codes())
    n2 = draw(st.integers(1, 16 // c1.n))
    k2 = draw(st.integers(1, n2))
    return c1, LinearCode.from_generator(full_rank_rows(draw, k2, n2))


@PROPERTY_SETTINGS
@given(pair=small_grid_pairs())
def test_distance_bruteforce_is_min_of_factor_distances(pair):
    c1, c2 = pair
    d = min(c1.min_distance(), c2.min_distance())
    code = SubsystemCode(c1, c2)
    assert distance_bruteforce(code, d) == d
    # Below the distance no candidate may hit: a last-site lookup that
    # over-reports shows here.
    if d > 1:
        assert distance_bruteforce(code, d - 1) is None


@PROPERTY_SETTINGS
@given(code=small_grids(), shor=st.booleans())
def test_distance_by_type_matches_three_pauli_search(code, shor):
    """Searching pure X-type and pure Z-type operators finds what trying
    X, Z and Y at every site finds, for every bound, on grids of up to 20
    sites with k = 0..n factors."""
    if shor:
        code = ShorCode(code.c1, code.c2)
    for w_max in range(1, 5):
        assert distance_bruteforce(code, w_max) == distance_by_three_paulis(
            code, w_max)


@PROPERTY_SETTINGS
@given(code=small_grids(), kind=st.sampled_from(["x_only", "z_only"]),
       p=st.sampled_from([0.0, 0.03, 0.5, 1.0]))
def test_exact_rate_line_route_matches_pattern_walk(code, kind, p):
    """The i.i.d.-line route equals walking all 2**n grid patterns through
    the kernel's lanes, exactly at p = 0 and p = 1."""
    noise = getattr(NoiseModel, kind)(p)
    got, want = exact_rate_enumeration(code, noise), walked_exact_rate(code, noise)
    if p in (0.0, 1.0):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12)


def axis_rate(code, kind, p):
    """The exact rate of one axis as a Fraction: a float p is m/d, so it is
    the sum of F_w m**w (d-m)**(N-w) over d**N, with direct powers."""
    m, d = p.as_integer_ratio()
    return Fraction(sum(f * m ** w * (d - m) ** (code.n - w) for w, f in
                        enumerate(failing_counts(code, kind))), d ** code.n)


probabilities = st.one_of(st.sampled_from([0.0, 1.0, 5e-324]),
                          st.floats(0.0, 1.0))


@PROPERTY_SETTINGS
@given(code=small_grids(),
       kind=st.sampled_from(["x_only", "z_only", "independent_xz"]),
       p_x=probabilities, p_z=probabilities)
def test_exact_rate_is_correctly_rounded(code, kind, p_x, p_z):
    """Every exact rate is the float nearest its exact value from the
    failing counts, and independent_xz is 1 - (1 - P_x)(1 - P_z) of the
    two exact axis rates, rounded once."""
    if kind == "independent_xz":
        noise = NoiseModel.independent_xz(p_x, p_z)
        exact = 1 - ((1 - axis_rate(code, "x_only", p_x))
                     * (1 - axis_rate(code, "z_only", p_z)))
    else:
        noise = getattr(NoiseModel, kind)(p_x)
        exact = axis_rate(code, kind, p_x)
    assert exact_rate_enumeration(code, noise) == float(exact)


@PROPERTY_SETTINGS
@given(code=small_grids(), kind=st.sampled_from(["x_only", "z_only"]))
def test_failing_counts_match_pattern_walk(code, kind):
    """The counts by weight equal the pattern walk's, integer for integer,
    and the passing patterns number one leader tuple per syndrome times
    2**(n_line - k_line) row patterns per signature on each of the n_d
    lines: 2**((n_d - k_d) k_line + n_d (n_line - k_line))."""
    counts = failing_counts(code, kind)
    assert all(type(f) is int for f in counts)
    assert list(counts) == walked_failing_counts(code, kind).tolist()
    dec, line = (code.c1, code.c2) if kind == "x_only" else (code.c2, code.c1)
    passing = sum(comb(code.n, w) - f for w, f in enumerate(counts))
    assert passing == 2 ** ((dec.n - dec.k) * line.k
                            + dec.n * (line.n - line.k))


@st.composite
def codes_with_repeated_columns(draw):
    """An :func:`any_codes` factor of length <= 3 with copies of its own
    columns and zero columns appended to its generator, so that grid sites
    share signatures and some have signature 0."""
    c = draw(any_codes(n_max=3))
    picks = draw(st.lists(st.integers(-1, c.n - 1), min_size=1, max_size=3))
    extra = [np.zeros((c.k, 1), np.uint8) if i < 0 else c.generator[:, [i]]
             for i in picks]
    return LinearCode.from_generator(np.hstack([c.generator, *extra]))


@PROPERTY_SETTINGS
@given(c1=codes_with_repeated_columns(), c2=any_codes(n_max=4),
       swap=st.booleans())
def test_distance_on_repeated_signatures_matches_three_pauli_search(
        c1, c2, swap):
    """The search over distinct nonzero site signatures finds what trying
    X, Z and Y at every site finds, for every bound, on grids where many
    sites share a signature or have none, on both constructions."""
    if swap:
        c1, c2 = c2, c1
    for cls in (SubsystemCode, ShorCode):
        code = cls(c1, c2)
        for w_max in range(1, 5):
            assert distance_bruteforce(code, w_max) == distance_by_three_paulis(
                code, w_max)
