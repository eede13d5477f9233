"""Tests for the Monte Carlo simulator, exact enumeration, and the
measurement-count comparison report."""

import concurrent.futures
import itertools
import json
from fractions import Fraction
from math import comb, fsum

import numpy as np
import pytest

from subqec import (
    LinearCode,
    NoiseModel,
    PauliGrid,
    ShorCode,
    SubsystemCode,
    compare_report,
    exact_rate_enumeration,
    failing_counts,
    hamming_7_4,
    recover,
    repetition,
    run_trials,
)
from subqec import simulate
from subqec.classical import _codeword_rule
from subqec.simulate import (
    _WILSON_Z,
    _Kernel,
    _below,
    _count_chunk,
)

from references import (batch_failures, golay_23_12, golay_24_12, hamming,
                        parity_line_counts, reed_muller_2_5, trial_uniforms)


@pytest.fixture(scope="module")
def code4(rep2):
    return SubsystemCode(rep2, rep2)


def majority_failure(n, q):
    """Failure rate of coset-leader decoding of rep(n) when each bit flips
    independently with probability q.  For even n exactly one of the two
    weight-n/2 patterns sharing a syndrome is its coset leader, so half of
    them fail."""
    rate = sum(comb(n, w) * q ** w * (1 - q) ** (n - w)
               for w in range(n // 2 + 1, n + 1))
    if n % 2 == 0:
        rate += 0.5 * comb(n, n // 2) * (q * (1 - q)) ** (n // 2)
    return rate


def reference_exact_rate(code, noise):
    """Exact single-axis failure rate by sending every pattern through the
    reference recovery path."""
    n = code.n
    zero = np.zeros((code.n1, code.n2), np.uint8)
    rate = 0.0
    for pattern in range(1 << n):
        bits = ((pattern >> np.arange(n)) & 1).astype(np.uint8)
        grid = bits.reshape(code.n1, code.n2)
        err = (PauliGrid(zero, grid) if noise.kind == "x_only"
               else PauliGrid(grid, zero))
        if not recover(code, err).logical_ok:
            w = int(bits.sum())
            rate += noise.p ** w * (1 - noise.p) ** (n - w)
    return rate


# -- noise models ------------------------------------------------------------

def test_noise_validation():
    with pytest.raises(ValueError):
        NoiseModel.depolarizing(1.5)
    with pytest.raises(ValueError):
        NoiseModel.independent_xz(0.1, -0.2)
    with pytest.raises(ValueError, match="unknown noise kind"):
        NoiseModel("bogus")
    with pytest.raises(ValueError, match="p=1.5"):
        NoiseModel("x_only", p=1.5)


@pytest.mark.parametrize("make, value", [
    (NoiseModel.x_only, True),
    (NoiseModel.z_only, np.True_),
    (NoiseModel.depolarizing, False),
    (NoiseModel.x_only, "0.1"),
    (NoiseModel.x_only, None),
    (NoiseModel.x_only, 0.1 + 0j),
    (lambda p: NoiseModel.independent_xz(0.1, p), True),
])
def test_noise_rejects_bool_and_non_real_probabilities(make, value):
    # A bool would otherwise run as 0 or 1, and the others fail later with
    # TypeError.
    with pytest.raises(ValueError, match="is not a real number"):
        make(value)


def test_noise_accepts_real_numbers_of_any_type():
    assert NoiseModel.x_only(1).p == 1
    assert NoiseModel.x_only(np.float32(0.25)).describe() == {
        "kind": "x_only", "p": 0.25}
    assert NoiseModel.independent_xz(np.float64(0.1), 0).p_x == 0.1


@pytest.mark.parametrize("convert", [np.float16, np.float32, np.float64,
                                     Fraction])
@pytest.mark.parametrize("make, rates", [
    (NoiseModel.depolarizing, (Fraction(1, 20),)),
    (NoiseModel.x_only, (Fraction(1, 20),)),
    (NoiseModel.z_only, (Fraction(3, 20),)),
    (NoiseModel.independent_xz, (Fraction(1, 50), Fraction(3, 50))),
])
def test_noise_stores_rates_as_python_floats(code9, ham, convert, make,
                                             rates):
    # A numpy or Fraction rate would otherwise carry its own arithmetic
    # into the limits and the exact rates, and json would refuse it.
    given = [convert(r) for r in rates]
    noise, plain = make(*given), make(*map(float, given))
    assert noise == plain
    assert all(type(getattr(noise, f)) is float for f in ("p", "p_x", "p_z"))
    assert json.loads(json.dumps(noise.describe())) == plain.describe()
    if noise.kind != "depolarizing":
        for code in (code9, SubsystemCode(ham, repetition(3))):
            assert (exact_rate_enumeration(code, noise).hex()
                    == exact_rate_enumeration(code, plain).hex())
    assert (run_trials(code9, noise, 3000, seed=5)
            == run_trials(code9, plain, 3000, seed=5))


@pytest.mark.parametrize("kind, fields, unread", [
    ("x_only", {"p": 0.1, "p_x": 0.3}, "p_x=0.3"),
    ("z_only", {"p": 0.1, "p_z": 0.2}, "p_z=0.2"),
    ("depolarizing", {"p": 0.1, "p_z": 0.5}, "p_z=0.5"),
    ("depolarizing", {"p_x": 0.1}, "p_x=0.1"),
    ("independent_xz", {"p": 0.1, "p_x": 0.1, "p_z": 0.1}, "p=0.1"),
])
def test_noise_rejects_probabilities_its_kind_does_not_read(kind, fields,
                                                            unread):
    with pytest.raises(ValueError, match=f"{kind} noise does not read {unread}"):
        NoiseModel(kind, **fields)


def test_noise_accepts_unread_fields_at_zero():
    assert NoiseModel("x_only", p=0.1, p_x=0.0, p_z=0.0) == NoiseModel.x_only(0.1)
    assert (NoiseModel("independent_xz", p=0.0, p_x=0.1, p_z=0.2)
            == NoiseModel.independent_xz(0.1, 0.2))


@pytest.mark.parametrize("noise, described, draws", [
    (NoiseModel.depolarizing(0.1), [("kind", "depolarizing"), ("p", 0.1)], 1),
    (NoiseModel.x_only(0.2), [("kind", "x_only"), ("p", 0.2)], 1),
    (NoiseModel.z_only(0.3), [("kind", "z_only"), ("p", 0.3)], 1),
    (NoiseModel.independent_xz(0.1, 0.2),
     [("kind", "independent_xz"), ("p_x", 0.1), ("p_z", 0.2)], 2),
], ids=lambda v: v.kind if isinstance(v, NoiseModel) else None)
def test_describe_and_draws_per_site(noise, described, draws):
    # The kind comes first, then the rates the kind reads, in field order.
    assert list(noise.describe().items()) == described
    assert noise.draws_per_site == draws


def test_depolarizing_splits_evenly():
    noise = NoiseModel.depolarizing(0.3)
    u = np.array([[0.05, 0.15, 0.25, 0.35]])
    z, x = noise.errors_from_uniforms(u, 4)
    # thirds: [0,0.1) X, [0.1,0.2) Y, [0.2,0.3) Z, rest identity
    assert x.tolist() == [[1, 1, 0, 0]]
    assert z.tolist() == [[0, 1, 1, 0]]


def test_independent_xz_layout():
    noise = NoiseModel.independent_xz(0.5, 0.5)
    u = np.array([[0.4, 0.6, 0.6, 0.4]])
    z, x = noise.errors_from_uniforms(u, 2)
    assert x.tolist() == [[1, 0]]
    assert z.tolist() == [[0, 1]]


# -- counter-based RNG ---------------------------------------------------------

def test_uniforms_are_partition_independent():
    whole = trial_uniforms(42, 0, 200, 9)
    pieces = np.vstack([
        trial_uniforms(42, 0, 13, 9),
        trial_uniforms(42, 13, 100, 9),
        trial_uniforms(42, 100, 200, 9),
    ])
    assert np.array_equal(whole, pieces)


def test_uniforms_depend_on_seed():
    assert not np.array_equal(trial_uniforms(1, 0, 10, 9),
                              trial_uniforms(2, 0, 10, 9))


# -- batched recovery ------------------------------------------------------------

def test_batch_matches_reference_recovery_exhaustive(code9):
    """Every single-axis pattern on the 3x3 grid, both axes."""
    zero = np.zeros((3, 3), np.uint8)
    pats = ((np.arange(512)[:, None] >> np.arange(9)) & 1).astype(np.uint8)
    grids = pats.reshape(-1, 3, 3)
    batch_x = batch_failures(code9, np.zeros_like(grids), grids)
    batch_z = batch_failures(code9, grids, np.zeros_like(grids))
    for i, g in enumerate(grids):
        assert batch_x[i] == (not recover(code9, PauliGrid(zero, g)).logical_ok)
        assert batch_z[i] == (not recover(code9, PauliGrid(g, zero)).logical_ok)


def test_batch_matches_reference_recovery_mixed(code49):
    rng = np.random.default_rng(61)
    z = rng.integers(0, 2, (200, 7, 7), dtype=np.uint8)
    x = rng.integers(0, 2, (200, 7, 7), dtype=np.uint8)
    batch = batch_failures(code49, z, x)
    for i in range(200):
        single = not recover(code49, PauliGrid(z[i], x[i])).logical_ok
        assert batch[i] == single


# -- run_trials -------------------------------------------------------------------

def test_same_seed_same_report(code9):
    noise = NoiseModel.depolarizing(0.05)
    a = run_trials(code9, noise, 20000, seed=5)
    b = run_trials(code9, noise, 20000, seed=5)
    assert a == b


def test_worker_count_does_not_change_results(code9):
    noise = NoiseModel.x_only(0.05)
    reports = [run_trials(code9, noise, 30000, seed=17, workers=w)
               for w in (1, 2, 8)]
    assert reports[0] == reports[1] == reports[2]


class RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records the pool size and the work
    items it is asked for and runs them in the calling thread, so it starts
    no threads."""

    calls = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        RecordingExecutor.calls.append((self.max_workers, items))
        return map(fn, items)


@pytest.mark.parametrize("cores", [3, None])
def test_thread_pool_capped_at_core_count(code9, monkeypatch, cores):
    noise = NoiseModel.depolarizing(0.05)
    base = run_trials(code9, noise, 5000, seed=29)
    RecordingExecutor.calls = []
    # run_trials imports the executor only when it fans out.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        RecordingExecutor)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: cores)
    assert run_trials(code9, noise, 5000, seed=29, workers=5000) == base
    # One range per thread; a single core runs the whole run in the
    # calling thread, with no executor.
    if cores is None:
        assert RecordingExecutor.calls == []
    else:
        assert RecordingExecutor.calls == [
            (3, [(0, 1666), (1666, 3333), (3333, 5000)])]


@pytest.mark.parametrize("workers", [1, 2, 10 ** 15])
@pytest.mark.parametrize("trials", [2 ** 53 + 1, 2 ** 63, 10 ** 30])
def test_split_tiles_trials_at_exact_bounds(code9, monkeypatch, trials,
                                            workers):
    # A float split lost the last trial of 2**53 + 1, and could not cast
    # 2**63 or 10**30 to an integer bound at all.
    ranges = []

    def record(kernel, noise, seed, batch_size, trial_range):
        ranges.append(trial_range)
        return np.zeros(3, np.int64)

    monkeypatch.setattr(simulate, "_count_chunk", record)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    report = run_trials(code9, NoiseModel.x_only(0.1), trials, seed=1,
                        workers=workers)
    threads = min(workers, 3)
    assert sorted(ranges) == [(trials * i // threads,
                               trials * (i + 1) // threads)
                              for i in range(threads)]
    assert (report.trials, report.logical_failures) == (trials, 0)


def test_huge_worker_count_splits_by_trials(code9):
    # Threads are capped by trials and cores, so 10**15 workers allocate
    # nothing sized by the worker count.
    noise = NoiseModel.x_only(0.1)
    assert run_trials(code9, noise, trials=5, seed=1,
                      workers=10 ** 15) == run_trials(code9, noise, 5, seed=1)


def test_batch_size_does_not_change_results(code9):
    noise = NoiseModel.independent_xz(0.03, 0.07)
    a = run_trials(code9, noise, 10000, seed=23, batch_size=8192)
    b = run_trials(code9, noise, 10000, seed=23, batch_size=777)
    assert a == b


def test_zero_probability_never_fails(code9):
    for noise in (NoiseModel.depolarizing(0.0), NoiseModel.x_only(0.0)):
        report = run_trials(code9, noise, 5000, seed=1)
        assert report.logical_failures == 0
        assert report.rate == 0.0


def test_report_fields(code9):
    report = run_trials(code9, NoiseModel.x_only(0.1), 10000, seed=4)
    assert report.trials == 10000
    assert report.code_params == (9, 1, 4, 4)
    assert report.rate == report.logical_failures / 10000
    expect_se = np.sqrt(report.rate * (1 - report.rate) / 10000)
    assert report.std_error == pytest.approx(expect_se, rel=1e-12)


def test_run_trials_validation(code9):
    noise = NoiseModel.x_only(0.1)
    for trials in (0, -5):
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            run_trials(code9, noise, trials, seed=1)
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="^seed must fit in 64 bits$"):
            run_trials(code9, noise, 10, seed=seed)
    for workers in (0, -5):
        with pytest.raises(ValueError, match="^workers must be >= 1$"):
            run_trials(code9, noise, 10, seed=1, workers=workers)
    for batch_size in (0, -5):
        with pytest.raises(ValueError, match="^batch_size must be >= 1$"):
            run_trials(code9, noise, 10, seed=1, batch_size=batch_size)


@pytest.mark.parametrize("name", ["trials", "seed", "workers", "batch_size"])
def test_run_trials_rejects_non_integers(code9, name):
    # trials=10.5 used to run 10 trials and report 10.5, seed=1.5 ran seed 1
    # and reported 1.5, workers=2.5 and batch_size=2.5 raised TypeError.
    noise = NoiseModel.x_only(0.1)
    args = {"trials": 10, "seed": 1, "workers": 1, "batch_size": 8192}
    for bad in (10.5, 2.0, True, "7", None):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run_trials(code9, noise, **{**args, name: bad})
    # Integral numpy scalars are integers.
    report = run_trials(code9, noise, **{**args, name: np.int64(args[name])})
    assert report == run_trials(code9, noise, **args)
    assert type(report.trials) is int and type(report.seed) is int


def test_wilson_interval(code9):
    # Each endpoint e of the Wilson interval solves
    # (rate - e)^2 = z^2 e (1 - e) / trials.
    report = run_trials(code9, NoiseModel.depolarizing(0.3), 1000, seed=3)
    assert report.ci_low < report.rate < report.ci_high
    for e in (report.ci_low, report.ci_high):
        lhs = (report.rate - e) ** 2
        rhs = _WILSON_Z ** 2 * e * (1 - e) / report.trials
        assert lhs == pytest.approx(rhs, rel=1e-9)
    # No failures: std_error claims certainty, the interval does not.
    zero = run_trials(code9, NoiseModel.x_only(0.0), 1000, seed=3)
    assert zero.std_error == 0.0
    assert zero.ci_low == 0.0
    z2 = _WILSON_Z ** 2
    assert zero.ci_high == pytest.approx(z2 / (1000 + z2), rel=1e-12)
    # Every trial fails at p = 1 (see test_exact_rate_zero_and_one).
    full = run_trials(code9, NoiseModel.x_only(1.0), 1000, seed=3)
    assert full.ci_high == 1.0
    assert full.ci_low == pytest.approx(1000 / (1000 + z2), rel=1e-12)


def test_batch_replays_recover_above_table_limit():
    # A [21,18] code: three copies of the Hamming check columns, so every
    # syndrome has a weight-1 leader, but no 2^21-word table is built; the
    # kernel reads its syndrome rule, and recover() is the reference.
    check = np.tile(hamming_7_4().check, 3)
    code = SubsystemCode(LinearCode.from_parity(check), repetition(1))
    noise = NoiseModel.x_only(0.05)
    report = run_trials(code, noise, 60, seed=4)
    xbits = noise.errors_from_uniforms(trial_uniforms(4, 0, 60, 21), 21)[1]
    zero = np.zeros((21, 1), np.uint8)
    expect = sum(not recover(code, PauliGrid(zero, x.reshape(21, 1))).logical_ok
                 for x in xbits)
    assert report.logical_failures == expect


def test_run_trials_above_sixteen_bits(rep3):
    # rep17 has syndromes whose leaders weigh up to 8; the coset-leader
    # table covers them.  The first trials are checked against recover.
    code = SubsystemCode(repetition(17), rep3)
    noise = NoiseModel.depolarizing(0.2)
    report = run_trials(code, noise, 3000, seed=8)
    assert report.trials == 3000
    assert 0 < report.logical_failures < 3000
    u = trial_uniforms(8, 0, 40, noise.draws_per_site * code.n)
    zbits, xbits = noise.errors_from_uniforms(u, code.n)
    z = zbits.reshape(-1, 17, 3)
    x = xbits.reshape(-1, 17, 3)
    batch = batch_failures(code, z, x)
    for i in range(40):
        assert batch[i] == (not recover(code, PauliGrid(z[i], x[i])).logical_ok)


@pytest.mark.parametrize("n", [21, 32, 63])
@pytest.mark.parametrize("kind,p", [("x_only", 0.2), ("z_only", 0.01)])
def test_long_repetition_grids_match_majority(n, kind, p):
    # rep(n) x rep3 past 20 bits: under x_only rep(n) decodes by its
    # codewords the n row parities, each odd with probability
    # q = (1 - (1 - 2p)**3) / 2; under z_only rep3 decodes the three column
    # parities over n sites.
    lines, length = (n, 3) if kind == "x_only" else (3, n)
    expect = majority_failure(lines, (1 - (1 - 2 * p) ** length) / 2)
    assert 0.01 < expect < 0.5
    code = SubsystemCode(repetition(n), repetition(3))
    report = run_trials(code, getattr(NoiseModel, kind)(p), 20000, seed=n)
    assert report.ci_low <= expect <= report.ci_high


def test_golay_grid_fails_from_weight_four():
    # Golay x rep1 under x_only decodes one 23-bit Golay word, which is
    # perfect: decoding fails exactly when the error weighs 4 or more.
    code = SubsystemCode(golay_23_12(), repetition(1))
    p = 0.1
    expect = 1 - sum(comb(23, w) * p ** w * (1 - p) ** (23 - w)
                     for w in range(4))
    report = run_trials(code, NoiseModel.x_only(p), 20000, seed=23)
    assert report.ci_low <= expect <= report.ci_high


@pytest.mark.parametrize("make, n2, want", [
    (golay_24_12, 3, 7516), (reed_muller_2_5, 1, 906),
], ids=["golay24 x rep3", "rm25 x rep1"])
def test_run_trials_pinned_where_the_leader_table_replaced_codewords(
        make, n2, want):
    # Both factors compared each word with their 4095 and 65535 codewords
    # before they took their leader tables; the counts are the same.
    code = SubsystemCode(make(), repetition(n2))
    report = run_trials(code, NoiseModel.x_only(0.05), 20000, seed=1)
    assert report.logical_failures == report.bit_flip_failures == want


def test_forty_bit_grid_decodes_by_its_leader_table():
    # A seeded [40,20] code x rep1: k = 20 puts code 1 on the syndrome
    # rule, whose 2**20 leaders reach past 2**20 words of a walk weight by
    # weight.  Replayed trials and 8 leaders are checked against the
    # codeword rule, which never reads the leaders.
    rng = np.random.default_rng(40)
    g = np.hstack([np.eye(20, dtype=np.uint8),
                   rng.integers(0, 2, (20, 20), dtype=np.uint8)])
    c1 = LinearCode.from_generator(g[:, rng.permutation(40)])
    code, noise = SubsystemCode(c1, repetition(1)), NoiseModel.x_only(0.15)
    assert run_trials(code, noise, 2000, seed=40).trials == 2000
    xbits = noise.errors_from_uniforms(trial_uniforms(40, 0, 56, 40), 40)[1]
    words = np.append(xbits.astype(np.int64) @ (1 << np.arange(39, -1, -1)),
                      c1.leaders[rng.integers(0, 1 << 20, 8)])
    want = _codeword_rule(c1)(words)
    assert np.array_equal(c1.fails(words), want)
    assert 0 < want[:56].sum() and not want[56:].any()
    assert run_trials(code, noise, 56, seed=40).logical_failures == (
        want[:56].sum())


def zero_counts(kernel, noise, seed, batch_size, trial_range):
    """A stand-in for ``_count_chunk`` that draws nothing and counts no
    failure, so trial counts past any feasible run can be checked."""
    return np.zeros(3, np.int64)


def test_run_trials_refuses_more_trials_than_the_philox_stream(code9,
                                                               monkeypatch):
    # rep3^2 reads 9 words, 3 Philox blocks, a trial, and the counter wraps
    # after 2**256 blocks: Philox.advance(2**256 + 5) gives the words of
    # advance(5), so later trials would repeat earlier draws.  10**154
    # trials would also overflow the Wilson interval's floats.
    monkeypatch.setattr(simulate, "_count_chunk", zero_counts)
    noise = NoiseModel.x_only(0.1)
    for trials in (10 ** 154, 2 ** 256 // 3 + 1):
        with pytest.raises(ValueError, match="trials"):
            run_trials(code9, noise, trials, seed=1)
    report = run_trials(code9, noise, 2 ** 256 // 3, seed=1)
    assert report.trials == 2 ** 256 // 3
    assert (report.rate, report.std_error, report.ci_low) == (0.0, 0.0, 0.0)
    assert 0.0 < report.ci_high < 1e-70


def test_long_repetition_reports_identical_across_workers_and_batches():
    code = SubsystemCode(repetition(21), repetition(3))
    noise = NoiseModel.depolarizing(0.15)
    base = run_trials(code, noise, 3001, seed=21)
    assert base.bit_flip_failures > 0 and base.phase_flip_failures > 0
    for workers, batch_size in ((2, 8192), (3, 1000), (1, 7)):
        assert run_trials(code, noise, 3001, 21, workers=workers,
                          batch_size=batch_size) == base


def test_kernel_refuses_a_factor_no_route_covers(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simulate, "_count_chunk", no_trial)
    code = SubsystemCode(repetition(3), repetition(64))
    with pytest.raises(ValueError, match=r"\[64,1\] code: it needs n <= 63"):
        run_trials(code, NoiseModel.x_only(0.1), 100, seed=1)


def grid_code(pair):
    """rep(n) for an int, hamming for "ham", and for "ham21" a [21,18] code
    with no fail table (three copies of the Hamming check columns), which
    decodes by its syndrome rule."""
    def factor(c):
        if c == "ham21":
            return LinearCode.from_parity(np.tile(hamming_7_4().check, 3))
        return hamming_7_4() if c == "ham" else repetition(c)
    return SubsystemCode(*(factor(c) for c in pair))


def replayed_outcomes(code, noise, trials, seed, t0=0):
    """recover() on trials [t0, t0 + trials) of a run, drawn through the
    float reference: trial_uniforms -> errors_from_uniforms."""
    u = trial_uniforms(seed, t0, t0 + trials, noise.draws_per_site * code.n)
    zbits, xbits = noise.errors_from_uniforms(u, code.n)
    shape = (code.n1, code.n2)
    return [recover(code, PauliGrid(z.reshape(shape), x.reshape(shape)))
            for z, x in zip(zbits, xbits)]


@pytest.mark.parametrize("pair,noise", [
    ((3, 3), NoiseModel.depolarizing(0.2)),
    (("ham", "ham"), NoiseModel.depolarizing(0.05)),
    ((5, "ham"), NoiseModel.independent_xz(0.08, 0.15)),
    ((2, 4), NoiseModel.x_only(0.3)),
    ((4, 3), NoiseModel.z_only(0.3)),
    (("ham21", 1), NoiseModel.x_only(0.05)),
    (("ham21", 3), NoiseModel.depolarizing(0.03)),
])
def test_failures_by_axis_match_recover(pair, noise):
    # The last pairs have a 21-bit code 1, so the bit-flip stage reads its
    # syndrome rule; the phase-flip stage of the last one uses rep3's table.
    code = grid_code(pair)
    report = run_trials(code, noise, 300, seed=31)
    outcomes = replayed_outcomes(code, noise, 300, 31)
    assert report.logical_failures == sum(not o.logical_ok for o in outcomes)
    assert report.bit_flip_failures == sum(o.residual_x.any() for o in outcomes)
    assert report.phase_flip_failures == sum(o.residual_z.any()
                                             for o in outcomes)
    assert report.bit_flip_failures + report.phase_flip_failures > 0
    if noise.kind == "x_only":
        assert report.phase_flip_failures == 0
    if noise.kind == "z_only":
        assert report.bit_flip_failures == 0


@pytest.mark.parametrize("noise, counts", [
    (NoiseModel.depolarizing(0.05), (5711, 583, 5464)),
    (NoiseModel.x_only(0.05), (1509, 1509, 0)),
    (NoiseModel.z_only(0.05), (8914, 0, 8914)),
    (NoiseModel.independent_xz(0.02, 0.06), (10609, 124, 10543)),
], ids=lambda v: v.kind if isinstance(v, NoiseModel) else None)
def test_failure_counts_pinned_per_noise_kind(ham, noise, counts):
    # Literal (logical, bit-flip, phase-flip) counts: the float replay
    # shares the kernel's sorting of hits into X, Y and Z, so a swap of the
    # two axes would pass it but not these.
    report = run_trials(SubsystemCode(repetition(5), ham), noise, 20000,
                        seed=11)
    assert (report.logical_failures, report.bit_flip_failures,
            report.phase_flip_failures) == counts


@pytest.mark.parametrize("noise", [
    NoiseModel.depolarizing(0.1), NoiseModel.x_only(0.1),
    NoiseModel.z_only(0.1), NoiseModel.independent_xz(0.05, 0.1)])
def test_reports_identical_across_batch_sizes(code9, ham, noise):
    # Rows pack two trials; with 9001 trials the last batch is partial and
    # its last row half used.  A trial owns 12 or 20 words on rep3^2, 24 or
    # 44 on hamming x rep3.
    for code in (code9, SubsystemCode(ham, repetition(3))):
        base = run_trials(code, noise, 9001, seed=77)
        for workers, batch_size in ((2, 8192), (1, 3000), (2, 3000), (1, 1)):
            assert run_trials(code, noise, 9001, 77, workers=workers,
                              batch_size=batch_size) == base


@pytest.mark.parametrize("pair,noise,t0,t1,batch_size", [
    ((3, 3), NoiseModel.depolarizing(0.0), 0, 40, 8192),  # no hit at all
    ((3, 3), NoiseModel.depolarizing(1.0), 0, 40, 8192),  # the 65-bit limit
    ((2, 3), NoiseModel.x_only(1.0), 0, 40, 8192),
    ((3, "ham"), NoiseModel.independent_xz(1.0, 1.0), 0, 20, 8192),
    ((3, "ham"), NoiseModel.independent_xz(0.3, 0.05), 0, 60, 8192),
    ((4, 3), NoiseModel.independent_xz(0.0, 0.4), 0, 60, 8192),
    ((4, 3), NoiseModel.independent_xz(0.4, 0.0), 0, 60, 8192),
    # rep3^2 draws 9 words of its 12: hits on slots 9..11 must not count.
    ((3, 3), NoiseModel.depolarizing(0.5), 0, 60, 8192),
    ((3, 3), NoiseModel.z_only(0.5), 0, 60, 8192),
    ((3, 3), NoiseModel.depolarizing(0.2), 7, 61, 8192),  # odd t0
    ((3, 3), NoiseModel.independent_xz(0.2, 0.3), 7, 61, 1),
    (("ham", 2), NoiseModel.depolarizing(0.1), 0, 40, 1),
    # A 21-bit factor's syndrome rule on the bit-flip stage, from X slots
    # [0, 21) of 44; then on the phase-flip stage, from Z slots [21, 42).
    (("ham21", 1), NoiseModel.independent_xz(0.1, 0.3), 3, 43, 2),
    ((1, "ham21"), NoiseModel.independent_xz(0.3, 0.1), 3, 43, 2),
    # Four 17-bit bit-flip words fill more than one 63-bit lane.
    ((17, "ham"), NoiseModel.depolarizing(0.3), 0, 40, 8192),
    ((17, "ham"), NoiseModel.independent_xz(0.05, 0.1), 0, 40, 8192),
])
def test_hit_list_kernel_edge_cases(pair, noise, t0, t1, batch_size):
    """Each trial's (logical, bit-flip, phase-flip) outcome equals recover()
    on the errors the float uniforms give, and the batched counts equal
    their sum."""
    code = grid_code(pair)
    width = 4 * -(-noise.draws_per_site * code.n // 4)
    kernel = _Kernel(code, width, (noise.draws_per_site - 1) * code.n)
    want = [(not o.logical_ok, o.residual_x.any(), o.residual_z.any())
            for o in replayed_outcomes(code, noise, t1 - t0, 12, t0)]
    for t, outcome in enumerate(want, t0):
        got = _count_chunk(kernel, noise, 12, batch_size, (t, t + 1))
        assert tuple(got) == outcome, t
    whole = _count_chunk(kernel, noise, 12, batch_size, (t0, t1))
    assert tuple(whole) == tuple(map(sum, zip(*want)))
    if noise.p == 0.0 and noise.kind != "independent_xz":
        assert not whole.any()


# -- integer limits on raw words ---------------------------------------------------

def limit(c):
    """ceil(c * 2**53): a word w is a hit iff (w >> 11) < limit(c)."""
    return int(np.ceil(np.ldexp(c, 53)))


BOUNDARY_PS = [0.0, 1.0, 1 / 3, 12345 * 2.0 ** -53, 5e-324,
               1 - 2.0 ** -53, 2.0 ** -53]
BOUNDARY_PS += [np.nextafter(p, q) for p in BOUNDARY_PS[:4] for q in (0, 1)
                if 0 <= np.nextafter(p, q) <= 1]


def boundary_words(thresholds):
    """0, 2**64 - 1, and the two words either side of each limit."""
    words = {0, (1 << 64) - 1}
    for c in thresholds:
        m = limit(c)
        words |= {w for w in ((m << 11) - 1, m << 11) if 0 <= w < 1 << 64}
    return np.array(sorted(words), np.uint64)


@pytest.mark.parametrize("p", BOUNDARY_PS)
@pytest.mark.parametrize("kind", ["depolarizing", "x_only", "z_only",
                                  "independent_xz"])
def test_integer_limits_match_float_thresholds(kind, p):
    noises = ([NoiseModel.independent_xz(p, q) for q in BOUNDARY_PS]
              if kind == "independent_xz" else [NoiseModel(kind, p=p)])
    for noise in noises:
        thresholds = (noise.p_x, noise.p_z, noise.p, noise.p / 3,
                      2 * noise.p / 3)
        words = boundary_words(thresholds)
        # One site per trial; independent_xz reads its X and Z draws from
        # the same word, so each word is tested against both limits.
        draws = np.repeat(words[:, None], noise.draws_per_site, axis=1)
        u = (draws >> np.uint64(11)) * 2.0 ** -53
        want_z, want_x = noise.errors_from_uniforms(u, 1)
        pauli = noise._paulis(draws, _below)
        offset = noise.draws_per_site - 1
        assert np.array_equal(pauli[:, offset:] >> 1, want_z), (noise, words)
        assert np.array_equal(pauli[:, :1] & 1, want_x), (noise, words)
    # At p = 1 the limit 2**53 << 11 overflows 64 bits; every word hits.
    if p == 1.0:
        assert _below(np.array([(1 << 64) - 1], np.uint64), p).all()


def test_trial_uniforms_follow_the_replayed_layout():
    # Trial t owns ceil(draws/4) Philox blocks from block t*ceil(draws/4);
    # its uniforms are Generator.random over them, first `draws` kept, and
    # the raw words the kernel compares are the same words.
    seed, draws, blocks = 2 ** 64 - 5, 162, 41
    bg = np.random.Philox(key=seed)
    bg.advance(7 * blocks)
    u = np.random.Generator(bg).random(30 * blocks * 4)
    want = u.reshape(30, blocks * 4)[:, :draws]
    assert np.array_equal(trial_uniforms(seed, 7, 37, draws), want)
    raw = np.random.Philox(key=seed)
    raw.advance(7 * blocks)
    words = raw.random_raw(30 * blocks * 4)
    assert np.array_equal((words >> np.uint64(11)) * 2.0 ** -53, u)


# -- exact enumeration ---------------------------------------------------------

def test_exact_rate_zero_and_one(code9):
    assert exact_rate_enumeration(code9, NoiseModel.x_only(0.0)) == 0.0
    # At p = 1 the all-X pattern hits every site; its row parities are all
    # bad, which flips the logical qubit.
    assert exact_rate_enumeration(code9, NoiseModel.x_only(1.0)) == 1.0


@pytest.mark.parametrize("pair,kind", [
    ((3, 3), "x_only"), ((3, 3), "z_only"),
    ((2, 4), "x_only"), ((2, 4), "z_only"),
    (("ham", 1), "x_only"), ((1, "ham"), "z_only"),
])
def test_exact_rate_matches_reference_enumeration(pair, kind):
    c1, c2 = (hamming_7_4() if c == "ham" else repetition(c) for c in pair)
    code = SubsystemCode(c1, c2)
    for p in (0.05, 0.3):
        noise = getattr(NoiseModel, kind)(p)
        assert exact_rate_enumeration(code, noise) == pytest.approx(
            reference_exact_rate(code, noise), rel=1e-12)


@pytest.mark.parametrize("n", [17, 18])
def test_exact_rate_long_repetition_matches_majority(n):
    # rep(n) x rep1 under x_only is majority decoding of one rep(n) word;
    # for n = 18 the coset-leader tie-break makes half the ties fail.
    code = SubsystemCode(repetition(n), repetition(1))
    got = exact_rate_enumeration(code, NoiseModel.x_only(0.3))
    assert got == pytest.approx(majority_failure(n, 0.3), rel=1e-12)


@pytest.mark.parametrize("p,n1,n2", [
    *((p, n, n) for p in (0.01, 0.05, 0.1) for n in (2, 3)),
    *((p, n1, n2) for p in (0.05, 0.3)
      for n1, n2 in ((20, 5), (4, 7), (5, 5)))])
def test_exact_rate_repetition_grids_match_closed_form(p, n1, n2):
    # rep2^2 and rep3^2, and grids past the 20 sites that walking every
    # pattern allowed.  Under x_only each row's parity flips with
    # probability q = (1 - (1 - 2p)**n2) / 2 and code 1 decodes the n1 row
    # parities; z_only mirrors this with the columns and code 2.  rep2,
    # rep4 and rep20 take the even-n tie-break.
    code = SubsystemCode(repetition(n1), repetition(n2))
    for kind, lines, length in (("x_only", n1, n2), ("z_only", n2, n1)):
        q = (1 - (1 - 2 * p) ** length) / 2
        got = exact_rate_enumeration(code, getattr(NoiseModel, kind)(p))
        assert got == pytest.approx(majority_failure(lines, q), rel=1e-12)


def test_exact_rate_failing_every_nonzero_pattern():
    # rep1 x the [20,20] code: the one row's 2**20 patterns are its
    # signatures, and all but the zero one fail, so the rate is
    # 1 - (1-p)**20, here its correctly rounded value bit for bit.
    code = SubsystemCode(repetition(1),
                         LinearCode.from_generator(np.eye(20, dtype=np.uint8)))
    got = exact_rate_enumeration(code, NoiseModel.x_only(0.05))
    assert got == float(1 - (1 - Fraction(0.05)) ** 20) == 0.6415140775914577
    assert failing_counts(code, "x_only") == (0, *(comb(20, w)
                                                   for w in range(1, 21)))


def test_failing_counts_on_a_wide_line():
    # rep2 x [20,20]: each row's 20 bits are its signature, and rep2's two
    # leaders, 00 and 01, are 0 on row 0, so a pattern passes iff row 0 is
    # clear: F_w = C(40, w) - C(20, w).  The 2**20 signatures fall into 21
    # classes of equal A, one per weight.
    code = SubsystemCode(repetition(2),
                         LinearCode.from_generator(np.eye(20, dtype=np.uint8)))
    assert failing_counts(code, "x_only") == tuple(
        comb(40, w) - comb(20, w) for w in range(41))


@pytest.mark.parametrize("make,n2,leaders_by_weight", [
    # rep21 leads each coset with its word of weight <= 10, the perfect
    # Golay code with its word of weight <= 3, and the Hamming code with
    # 0 and the 63 words of weight 1.  RM(2,5)'s leaders reach its
    # covering radius 6; with rep1 lines the grid is one RM(2,5) word, so
    # F_w = C(32, w) less the leaders of weight w.
    (lambda: repetition(21), 3, [comb(21, j) for j in range(11)]),
    (golay_23_12, 3, [comb(23, j) for j in range(4)]),
    (lambda: hamming(6), 16, [1, 63]),
    (reed_muller_2_5, 1, [1, 32, 496, 4960, 17515, 27776, 14756]),
], ids=["rep21 x rep3", "golay x rep3", "hamming63 x rep16", "rm25 x rep1"])
def test_failing_counts_past_20_bits_match_closed_forms(make, n2,
                                                        leaders_by_weight):
    code = SubsystemCode(make(), repetition(n2))
    assert failing_counts(code, "x_only") == parity_line_counts(
        code.n1, n2, leaders_by_weight)


def test_exact_rate_past_20_bits_matches_binomial_tails():
    # Each row parity of rep3 is odd with probability q.  rep21 x rep3 is
    # majority decoding of the 21 parities, and the perfect Golay code
    # corrects exactly the parity words of weight <= 3.
    p = 0.01
    q = (1 - (1 - 2 * p) ** 3) / 2
    rep = SubsystemCode(repetition(21), repetition(3))
    assert exact_rate_enumeration(rep, NoiseModel.x_only(p)) == pytest.approx(
        majority_failure(21, q), rel=1e-12)
    golay = SubsystemCode(golay_23_12(), repetition(3))
    tail = fsum(comb(23, j) * q ** j * (1 - q) ** (23 - j)
                for j in range(4, 24))
    assert exact_rate_enumeration(golay, NoiseModel.x_only(p)) == (
        pytest.approx(tail, rel=1e-12))


HAMMING_SQUARED_COUNTS = (0, 0, 651, 15827, 202559, 1886535)


@pytest.mark.parametrize("kind", ["x_only", "z_only"])
def test_failing_counts_on_hamming_squared(ham, kind):
    # The paper's [[49,16,3]] grid: a walk over its 2**28 joint signatures
    # is out of reach, and its 2**12 syndromes are counted instead.  The
    # counts up to weight 3 are checked pattern by pattern through the
    # kernel, 19650 patterns in all.
    code = SubsystemCode(ham, ham)
    counts = failing_counts(code, kind)
    assert len(counts) == 50 and counts[:6] == HAMMING_SQUARED_COUNTS
    sites = [np.array(s, np.intp) for w in range(4)
             for s in itertools.combinations(range(49), w)]
    grids = np.zeros((len(sites), 49), np.uint8)
    for row, s in enumerate(sites):
        grids[row, s] = 1
    grids = grids.reshape(-1, 7, 7)
    zero = np.zeros_like(grids)
    failed = batch_failures(code, *((zero, grids) if kind == "x_only"
                                    else (grids, zero)))
    weights = grids.sum(axis=(1, 2))
    assert np.bincount(weights[failed], minlength=4).tolist() == list(
        counts[:4])


def test_exact_rate_on_hamming_squared(ham):
    code = SubsystemCode(ham, ham)
    for kind in ("x_only", "z_only"):
        for p, want in ((0.01, 0.0519792), (0.05, 0.555056)):
            got = exact_rate_enumeration(code, getattr(NoiseModel, kind)(p))
            assert got == pytest.approx(want, abs=5e-7)


def test_exact_rate_agrees_with_monte_carlo(code9):
    noise = NoiseModel.x_only(0.05)
    exact = exact_rate_enumeration(code9, noise)
    mc = run_trials(code9, noise, 40000, seed=12)
    assert abs(mc.rate - exact) <= 3 * mc.std_error


def test_exact_rate_independent_xz_matches_reference_pairs(code4):
    # Every (x, z) pattern pair on rep2 x rep2 through recover(); the
    # product formula must agree with the joint enumeration.
    n = code4.n
    grids = [((pattern >> np.arange(n)) & 1).astype(np.uint8).reshape(2, 2)
             for pattern in range(1 << n)]
    failing = [(int(x.sum()), int(z.sum())) for x in grids for z in grids
               if not recover(code4, PauliGrid(z, x)).logical_ok]
    assert 0 < len(failing) < len(grids) ** 2
    for p_x, p_z in ((0.1, 0.3), (0.25, 0.05), (0.0, 0.2)):
        expect = sum(p_x ** wx * (1 - p_x) ** (n - wx)
                     * p_z ** wz * (1 - p_z) ** (n - wz) for wx, wz in failing)
        got = exact_rate_enumeration(code4,
                                     NoiseModel.independent_xz(p_x, p_z))
        assert got == pytest.approx(expect, rel=1e-12)


def test_exact_rate_independent_xz_agrees_with_monte_carlo():
    code = SubsystemCode(repetition(3), repetition(4))
    noise = NoiseModel.independent_xz(0.08, 0.12)
    exact = exact_rate_enumeration(code, noise)
    assert exact == pytest.approx(0.319148, abs=5e-7)
    mc = run_trials(code, noise, 200000, seed=31)
    assert mc.ci_low <= exact <= mc.ci_high


def test_exact_rate_refuses_mixed_channels(code9):
    # Named by the rate, not by failing_counts, which takes no
    # independent_xz.
    with pytest.raises(ValueError, match=r"x_only, z_only or independent_xz"
                                         r" noise, not 'depolarizing'"):
        exact_rate_enumeration(code9, NoiseModel.depolarizing(0.1))


def test_failing_counts_refuses_other_kinds(code9):
    for kind in ("depolarizing", "independent_xz", "y_only"):
        with pytest.raises(ValueError, match=r"^exact counts take x_only or "
                                             rf"z_only, not '{kind}'$"):
            failing_counts(code9, kind)


def test_recover_is_read_lazily_from_simulate():
    # No code in the module calls recover; perfbench's smoke check reads it
    # as simulate.recover, loaded on first access.
    from subqec import recovery

    assert simulate.recover is recovery.recover
    with pytest.raises(AttributeError, match=r"module 'subqec.simulate' has "
                                             r"no attribute 'decode'"):
        simulate.decode


def test_exact_rate_refuses_large_grids():
    # Each bound of the count is checked before any table is built: rep11
    # x hamming's bit-flip stage has 2**(10*4) syndromes, and rep1 x
    # rep21's single row has 2**21 patterns.
    ham, rep21 = hamming_7_4(), repetition(21)
    for c1, c2, match in (
            (repetition(11), ham,
             r"2\*\*40 syndromes; the limit is 2\*\*20"),
            (repetition(1), rep21, r"2\*\*21 line patterns")):
        with pytest.raises(ValueError, match=match):
            exact_rate_enumeration(SubsystemCode(c1, c2),
                                   NoiseModel.x_only(0.1))
        assert not {"fails", "leaders"} & (set(vars(c1)) | set(vars(c2)))
    # rep21 x (a k = 0 code) decodes with a 21-bit code, past any fail
    # table, but its line signs no word: the rate is exactly 0, as in
    # Monte Carlo, and no table is built.
    code = SubsystemCode(rep21, LinearCode.from_parity([[1]]))
    assert exact_rate_enumeration(code, NoiseModel.x_only(0.1)) == 0.0
    assert run_trials(code, NoiseModel.x_only(0.1), 2000,
                      seed=5).logical_failures == 0
    assert "fails" not in vars(rep21)
    # rep64 has no decoding route at all, but a stage with no word needs
    # none: Monte Carlo builds no rule for it under either channel.
    rep64 = repetition(64)
    code = SubsystemCode(rep64, LinearCode.from_parity([[1]]))
    assert exact_rate_enumeration(code, NoiseModel.x_only(0.1)) == 0.0
    for noise in (NoiseModel.x_only(0.1), NoiseModel.independent_xz(0.1, 0.1)):
        report = run_trials(code, noise, 2000, seed=5)
        assert report.logical_failures == report.bit_flip_failures == 0
        assert report.rate == 0.0
    assert not {"fails", "leaders"} & set(vars(rep64))


def test_exact_rate_past_a_float_is_correctly_rounded():
    # Hamming [63,57] x rep17 has 1071 sites, so C(1071, 535) is past a
    # float, yet the rate is the correctly rounded ratio of exact ints: a
    # float p is m/d, and the oracle sums the closed-form counts with
    # direct powers.  Two hits fail iff they sit in two rows.
    code = SubsystemCode(hamming(6), repetition(17))
    want = parity_line_counts(63, 17, [1, 63])
    for p in (0.001, 1 / 64):
        m, d = p.as_integer_ratio()
        exact = Fraction(sum(f * m ** w * (d - m) ** (1071 - w)
                             for w, f in enumerate(want)), d ** 1071)
        assert exact_rate_enumeration(code, NoiseModel.x_only(p)) == float(
            exact)
    # z_only decodes with rep17 along Hamming lines of 2**63 patterns.
    with pytest.raises(ValueError, match=r"^exact z_only counts would walk "
                                         r"2\*\*63 line patterns; the limit "
                                         r"is 2\*\*20$"):
        exact_rate_enumeration(code, NoiseModel.independent_xz(0, 0))
    counts = failing_counts(code, "x_only")
    assert len(counts) == 1072 and all(type(c) is int for c in counts)
    assert counts[:3] == (0, 0, comb(63, 2) * 17 ** 2)


def test_failing_counts_refuses_a_factor_without_leader_table():
    # A [64,63] decoding factor has no leader table, so the count is
    # refused at its first step and nothing is cached.
    wide = LinearCode.from_parity(np.ones((1, 64), np.uint8))
    code = SubsystemCode(wide, repetition(1))
    with pytest.raises(ValueError, match=r"no leader table for the "
                                         r"\[64,63\] code"):
        failing_counts(code, "x_only")
    assert not {"fails", "leaders"} & set(vars(wide))


# -- failure-rate scaling ---------------------------------------------------------

def test_failure_rate_scales_with_distance(code9, code4):
    """log-log slope of rate vs p should be around (d-1)/2 + 1; allow half
    a unit of slack for Monte Carlo noise."""
    ps = [0.002, 0.005, 0.01]
    trials = {0.002: 2000000, 0.005: 600000, 0.01: 300000}
    for code, d in ((code9, 3), (code4, 2)):
        rates = []
        for p in ps:
            t = trials[p] if code is code9 else 200000
            r = run_trials(code, NoiseModel.depolarizing(p), t, seed=99)
            assert r.logical_failures > 0
            rates.append(r.rate)
        slope = np.polyfit(np.log(ps), np.log(rates), 1)[0]
        assert slope >= (d - 1) // 2 + 1 - 0.5


# -- compare report ----------------------------------------------------------------

def test_compare_rep3(rep3):
    report = compare_report(rep3, rep3)
    assert report["subsystem_stabilizers"] == 4
    assert report["shor_stabilizers"] == 8
    assert report["stabilizers_saved"] == 4
    assert report["grid"] == {"n": 9, "k": 1, "gauge_qubits": 4,
                              "distance": 3}
    assert "composed_schemes" not in report


@pytest.mark.parametrize("position", ["c1", "c2"])
def test_compare_refuses_a_factor_that_is_no_linear_code(rep3, position):
    # A spec string was read as a code and failed with AttributeError.
    pair = {"c1": rep3, "c2": rep3, position: "rep:3"}
    with pytest.raises(ValueError,
                       match=rf"^{position} must be a LinearCode, not str$"):
        compare_report(pair["c1"], pair["c2"])


@pytest.mark.parametrize("n", range(2, 7))
def test_compare_repetition_formulas(n):
    rep = repetition(n)
    report = compare_report(rep, rep)
    assert report["subsystem_stabilizers"] == 2 * (n - 1)
    assert report["shor_stabilizers"] == n * n - 1


def test_compare_counts_match_built_codes(ham, rep3):
    report = compare_report(rep3, ham)
    built = SubsystemCode(rep3, ham)
    shor_built = ShorCode(rep3, ham)
    assert report["subsystem_stabilizers"] == len(built.stabilizers)
    assert report["shor_stabilizers"] == len(shor_built.stabilizers)


def test_compare_hamming_composed_schemes(ham):
    report = compare_report(ham, ham)
    assert report["subsystem_stabilizers"] == 24
    assert report["shor_stabilizers"] == 33
    totals = {s["total"] for s in report["composed_schemes"]}
    assert totals == {30, 28, 48}
    by_total = {s["total"]: s for s in report["composed_schemes"]}
    assert by_total[30]["inner_stabilizers"] == 24
    assert by_total[30]["outer_stabilizers"] == 6
    assert by_total[28]["outer_stabilizers"] == 4
    assert by_total[48]["inner_stabilizers"] == 42
    assert by_total[48]["outer_stabilizers"] == 6


def test_composed_schemes_need_a_pair_of_7_4_3_codes(ham):
    # [I4 | 0] is a [7,4,1] code: the schemes' distance claims do not hold.
    low = LinearCode.from_generator(
        np.hstack([np.eye(4, dtype=np.uint8), np.zeros((4, 3), np.uint8)]))
    for pair in ((low, ham), (ham, low), (low, low)):
        report = compare_report(*pair)
        assert "composed_schemes" not in report
        assert report["grid"]["distance"] == 1
    # Every [7,4,3] code is the Hamming code up to column order.
    perm = [3, 6, 0, 5, 1, 4, 2]
    permuted = LinearCode.from_generator(ham.generator[:, perm])
    assert permuted.min_distance() == 3
    for pair in ((permuted, ham), (ham, permuted), (permuted, permuted)):
        schemes = compare_report(*pair)["composed_schemes"]
        assert [s["total"] for s in schemes] == [30, 28, 48]
