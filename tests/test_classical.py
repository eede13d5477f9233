"""Tests for classical linear codes and coset-leader decoding."""

import functools
import itertools
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subqec import (LinearCode, builtin, classical, gf2, hamming_7_4,
                    repetition)
from subqec.classical import _codeword_rule, _syndrome_rule

from references import (codewords, golay_23_12, golay_24_12,
                        reed_muller_2_5, rref, walked_leaders)


def same_row_space(a, b):
    ra = rref(a).reduced
    rb = rref(b).reduced
    return np.array_equal(ra[: gf2.rank(a)], rb[: gf2.rank(b)])


# -- construction ------------------------------------------------------------

def test_from_generator_rep3(rep3):
    built = LinearCode.from_generator([[1, 1, 1]])
    assert (built.n, built.k) == (3, 1)
    assert same_row_space(built.check, rep3.check)


def test_from_generator_full_rate():
    code = LinearCode.from_generator(np.eye(4, dtype=np.uint8))
    assert code.k == 4
    assert code.check.shape == (0, 4)


def test_a_code_needs_a_matrix():
    with pytest.raises(ValueError, match="need a generator or a check matrix"):
        LinearCode()


def test_from_parity_rep3():
    code = LinearCode.from_parity([[1, 1, 0], [0, 1, 1]])
    assert (code.n, code.k) == (3, 1)
    assert code.generator.tolist() == [[1, 1, 1]]


def test_from_parity_empty():
    code = LinearCode.from_parity(np.zeros((0, 3), np.uint8))
    assert code.k == 3
    assert gf2.rank(code.generator) == 3


def test_from_generator_rejects_dependent_rows():
    with pytest.raises(ValueError):
        LinearCode.from_generator([[1, 1, 0], [1, 1, 0]])


@pytest.mark.parametrize("kwargs, message", [
    ({"generator": [[1, 1]], "check": [[1, 1, 0]]}, "column counts differ"),
    ({"check": np.zeros((0, 0), np.uint8)}, "block length must be at least 1"),
    ({"check": [[1, 1, 0], [1, 1, 0]]}, "check rows are linearly dependent"),
    ({"generator": [[1, 1, 1]], "check": [[1, 1, 0]]},
     "ranks do not add up to n"),
    # Two or more faults at once: a dependent generator is named first,
    # then a dependent check, then ranks that do not add up to n, then a
    # check that does not annihilate the generator.  A matrix given alone
    # has a full-rank kernel for its partner, so its dependent rows also
    # leave the row counts short of adding up to n.
    ({"generator": [[1, 1, 0], [1, 1, 0]]},
     "generator rows are linearly dependent"),
    ({"generator": [[0, 0, 0]]}, "generator rows are linearly dependent"),
    ({"check": [[0, 0, 0]]}, "check rows are linearly dependent"),
    ({"generator": [[1, 1, 0], [1, 1, 0]], "check": [[1, 0, 0]]},
     "generator rows are linearly dependent"),
    ({"generator": [[1, 1, 1, 1], [1, 1, 1, 1]],
      "check": [[1, 1, 0, 0], [1, 1, 0, 0]]},
     "generator rows are linearly dependent"),
    ({"generator": [[1, 0, 0]], "check": [[1, 1, 0], [1, 1, 0]]},
     "check rows are linearly dependent"),
    ({"generator": [[1, 1, 1]], "check": [[1, 1, 0], [1, 1, 0], [0, 1, 1]]},
     "check rows are linearly dependent"),
    ({"generator": [[1, 1, 1], [1, 1, 1]], "check": [[1, 1, 0], [1, 1, 0]]},
     "generator rows are linearly dependent"),
    ({"generator": [[1, 1, 1], [1, 1, 1]],
      "check": [[1, 0, 0], [1, 0, 0], [0, 1, 1]]},
     "generator rows are linearly dependent"),
    ({"generator": [[1, 0, 0], [0, 1, 0]], "check": [[0, 0, 1], [1, 1, 0]]},
     "ranks do not add up to n"),
    ({"generator": [[1, 0, 0]], "check": [[1, 0, 0]]},
     "ranks do not add up to n"),
    ({"generator": [[1, 0, 0]], "check": [[1, 1, 0], [0, 0, 1]]},
     "check matrix does not annihilate the generator"),
], ids=["columns", "empty", "dependent-check", "ranks",
        "generator-dependent", "generator-zero-row", "check-zero-row",
        "dependent-generator-unannihilated",
        "dependent-generator-dependent-check",
        "dependent-check-unannihilated", "dependent-check-mismatch",
        "dependent-both-mismatch", "dependent-both-mismatch-unannihilated",
        "full-ranks-over-n-unannihilated",
        "full-ranks-under-n-unannihilated", "unannihilated"])
def test_inconsistent_matrices_are_refused(kwargs, message):
    with pytest.raises(ValueError, match=message):
        LinearCode(**kwargs)


@pytest.mark.parametrize("given", ["generator", "check", "both"])
def test_a_dual_completion_that_is_not_dual_is_refused(given, monkeypatch):
    """The code multiplies out D E^T when it is built, so a check
    complement that is not dual to the generator is refused before any
    grid reads it, whichever matrices were given."""
    rep3 = repetition(3)
    kwargs = {"generator": rep3.generator, "check": rep3.check}
    if given != "both":
        kwargs = {given: kwargs[given]}
    complete = gf2.dual_complete_columns

    def zeroed_check_complement(*args):
        p_c, g_c = complete(*args)
        return [0] * len(p_c), g_c

    LinearCode(**kwargs)
    monkeypatch.setattr(gf2, "dual_complete_columns", zeroed_check_complement)
    with pytest.raises(ValueError, match="internal error"):
        LinearCode(**kwargs)


@pytest.mark.parametrize("kwargs", [{"generator": [[257, 1, 1]]},
                                    {"check": [[1, 256, 1]]},
                                    {"generator": [[1, 0.5, 1]]}])
def test_entries_outside_0_1_are_rejected_not_wrapped(kwargs):
    with pytest.raises(ValueError, match="0 or 1"):
        LinearCode(**kwargs)


@pytest.mark.parametrize("role", ["generator", "check"])
def test_given_matrix_stays_writable_and_unshared(role):
    given = np.ones((1, 3), np.uint8)
    code = LinearCode(**{role: given})
    given[0, 0] = 0  # the caller's array is not frozen
    assert getattr(code, role).tolist() == [[1, 1, 1]]
    assert not getattr(code, role).flags.writeable


def test_parity_round_trip_preserves_code():
    rng = np.random.default_rng(21)
    done = 0
    while done < 20:
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        g = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        if gf2.rank(g) != k:
            continue
        original = LinearCode.from_generator(g)
        rebuilt = LinearCode.from_parity(original.check)
        assert same_row_space(original.generator, rebuilt.generator)
        done += 1


def test_pairing_identities_hold(rep3, ham):
    for code in (rep3, ham, LinearCode.from_generator(np.eye(3, dtype=np.uint8))):
        k = code.k
        r = code.n - code.k
        assert not gf2.mat_mul(code.check, code.generator.T).any()
        assert np.array_equal(
            gf2.mat_mul(code.check_complement, code.generator.T),
            np.eye(k, dtype=np.uint8))
        assert np.array_equal(
            gf2.mat_mul(code.check, code.generator_complement.T),
            np.eye(r, dtype=np.uint8))
        assert not gf2.mat_mul(code.check_complement,
                               code.generator_complement.T).any()


# -- distance ----------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_repetition_distance(n):
    assert repetition(n).min_distance() == n


@pytest.mark.parametrize("n", [2.0, 2.5, True, "3"])
def test_repetition_rejects_non_integer_length(n):
    # 2.0 and True used to raise TypeError from numpy's shape arguments.
    with pytest.raises(ValueError, match="repetition length must be an "
                                         "integer"):
        repetition(n)
    assert repetition(np.int64(3)).n == 3


def test_repetition_rejects_length_zero():
    with pytest.raises(ValueError, match="repetition length must be >= 1"):
        repetition(0)


def test_hamming_distance(ham):
    assert ham.min_distance() == 3


def test_full_rate_distance_is_one():
    assert LinearCode.from_generator(np.eye(5, dtype=np.uint8)).min_distance() == 1


def test_distance_matches_codeword_enumeration(ham):
    # Oracle: minimum weight over the explicitly enumerated codewords.
    words = codewords(ham)
    weights = words.sum(axis=1)
    assert ham.min_distance() == int(weights[weights > 0].min())


def test_distance_matches_codeword_enumeration_on_random_codes():
    # Oracle: the numpy codeword enumeration, against the Gray-code walk.
    rng = np.random.default_rng(77)
    for k in range(1, 13):
        for _ in range(3):
            n = k + int(rng.integers(0, 9))
            g = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
            if gf2.rank(g) != k:
                continue
            code = LinearCode.from_generator(g)
            weights = codewords(code).sum(axis=1)
            assert code.min_distance() == int(weights[weights > 0].min())


def test_distance_guard():
    code = LinearCode.from_generator(np.eye(25, dtype=np.uint8))
    with pytest.raises(ValueError, match=r"^refusing exhaustive distance "
                       r"computation for k=25 > 24$"):
        code.min_distance()
    assert code.distance_if_enumerable() is None
    zero = LinearCode.from_parity(np.eye(3, dtype=np.uint8))
    with pytest.raises(ValueError,
                       match="^the zero code has no nonzero codewords$"):
        zero.min_distance()


def test_wrong_claimed_distance_rejected():
    with pytest.raises(ValueError):
        LinearCode(generator=[[1, 1, 1]], distance=2)


def _seeded_systematic(n, k):
    rng = np.random.default_rng(n)
    return np.hstack([np.eye(k, dtype=np.uint8),
                      rng.integers(0, 2, (k, n - k), dtype=np.uint8)])


@pytest.mark.parametrize("generator,distance", [
    ([[1, 1, 1]], "3"), ([[1, 1, 1]], 3.0), ([[1, 1, 1]], True),
    ([[1]], True),
    *((_seeded_systematic(n, k), d) for n, k in ((40, 30), (30, 20))
      for d in (2.5, True))])
def test_claimed_distance_must_be_an_integer(generator, distance):
    # "3" was reported as "claimed distance 3 but true distance is 3", and
    # True was taken as 1.  The type is checked before the codewords are
    # enumerated: [40,30] was refused as too large to enumerate, and
    # [30,20] walked its 2**20 codewords first.
    with pytest.raises(ValueError,
                       match=r"^distance must be an integer, not "):
        LinearCode(generator=generator, distance=distance)
    assert LinearCode(generator=[[1, 1, 1]], distance=np.int64(3)).d == 3


# -- syndrome ----------------------------------------------------------------

def test_syndrome_of_codewords_is_zero(rep3, ham):
    for code in (rep3, ham):
        for word in codewords(code):
            assert not code.syndrome(word).any()


def test_syndrome_known_value(rep3):
    assert rep3.syndrome([1, 0, 0]).tolist() == [1, 0]
    assert rep3.syndrome([True, False, False]).tolist() == [1, 0]
    assert rep3.syndrome([[1, 0, 0]]).tolist() == [1, 0]


@pytest.mark.parametrize("e", [[2, 0, 0], [0.5, 1, 0], [-1, 0, 0]])
def test_syndrome_rejects_non_binary_entries(rep3, e):
    # A cast to uint8 let 2 count as 0 and cut 0.5 to 0, and -1 raised
    # OverflowError.
    with pytest.raises(ValueError, match="0 or 1"):
        rep3.syndrome(e)


def test_syndrome_length_check(rep3):
    with pytest.raises(ValueError):
        rep3.syndrome([1, 0])


# -- decoding ----------------------------------------------------------------

def test_decode_zero_syndrome(rep3, ham):
    for code in (rep3, ham):
        assert not code.decode(np.zeros(code.n - code.k, np.uint8)).any()


def test_decode_rep3_known(rep3):
    assert rep3.decode([1, 0]).tolist() == [1, 0, 0]
    assert rep3.decode([True, False]).tolist() == [1, 0, 0]
    assert rep3.decode([[1, 0]]).tolist() == [1, 0, 0]


def test_decode_tie_break_is_lexicographic(rep2):
    # Syndrome [1] has coset {10, 01}; both have weight 1, so the
    # lexicographically smaller vector wins.
    assert rep2.decode([1]).tolist() == [0, 1]


@pytest.mark.parametrize("codename", ["rep3", "rep5", "hamming"])
def test_decode_round_trip_within_radius(codename):
    code = {"rep3": repetition(3), "rep5": repetition(5),
            "hamming": hamming_7_4()}[codename]
    t = (code.min_distance() - 1) // 2
    for w in range(t + 1):
        for support in itertools.combinations(range(code.n), w):
            e = np.zeros(code.n, np.uint8)
            e[list(support)] = 1
            assert np.array_equal(code.decode(code.syndrome(e)), e)


def test_decode_syndrome_consistency(ham):
    # Whatever the decoder returns must reproduce the requested syndrome.
    rng = np.random.default_rng(22)
    for _ in range(50):
        s = rng.integers(0, 2, size=3, dtype=np.uint8)
        e = ham.decode(s)
        assert np.array_equal(ham.syndrome(e), s)


def test_decode_minimality_exhaustive(rep3):
    # Oracle: scan all 2^n error vectors per syndrome.
    for s_int in range(4):
        s = np.array([(s_int >> i) & 1 for i in range(2)], np.uint8)
        decoded = rep3.decode(s)
        best = min(
            (v for v in itertools.product((0, 1), repeat=3)
             if np.array_equal(rep3.syndrome(np.array(v, np.uint8)), s)),
            key=lambda v: (sum(v), v))
        assert tuple(decoded) == best


def weight_lex_leader(code, s):
    """Oracle: the (weight, lexicographic) smallest vector with syndrome s,
    by scanning all 2^n vectors."""
    return min(
        (v for v in itertools.product((0, 1), repeat=code.n)
         if np.array_equal(code.syndrome(np.array(v, np.uint8)), s)),
        key=lambda v: (sum(v), v))


def word_bits(v, n):
    """Bits of an n-bit word, position 0 first (the tables' numeral order)."""
    return np.array([(v >> (n - 1 - i)) & 1 for i in range(n)], np.uint8)


TABLE_CODES = {
    "rep6": lambda: repetition(6),
    "hamming": hamming_7_4,
    "random63": lambda: LinearCode.from_generator(
        [[1, 1, 0, 1, 0, 0], [0, 1, 1, 0, 1, 0], [1, 0, 1, 0, 0, 1]]),
    "rep1": lambda: repetition(1),
}


@pytest.mark.parametrize("codename", sorted(TABLE_CODES))
def test_decode_table_matches_weight_lex_scan(codename):
    code = TABLE_CODES[codename]()
    m = code.n - code.k
    assert code.leaders.shape == (1 << m,)
    for s_int in range(1 << m):
        s = np.array([(s_int >> i) & 1 for i in range(m)], np.uint8)
        want = weight_lex_leader(code, s)
        assert tuple(word_bits(code.leaders[s_int], code.n)) == want
        assert tuple(code.decode(s)) == want


@pytest.mark.parametrize("codename", sorted(TABLE_CODES))
def test_fail_table_matches_decode(codename):
    code = TABLE_CODES[codename]()
    fails = code.fails(np.arange(1 << code.n))
    assert fails.shape == (1 << code.n,)
    for v in range(1 << code.n):
        bits = word_bits(v, code.n)
        residual = bits ^ code.decode(code.syndrome(bits))
        logical = (code.check_complement @ residual) & 1
        assert fails[v] == bool(logical.any())


def test_tables_are_read_only(ham):
    with pytest.raises(ValueError):
        ham.leaders[0] = 1
    with pytest.raises(ValueError):  # the word table fails reads for n <= 20
        ham.fails.__self__[0] = True


def test_attributes_cannot_be_rebound_or_deleted():
    """Rebinding or deleting any attribute raises, so ``dual_basis`` and
    ``check_complement`` cannot get out of step; what is derived lazily
    still caches."""
    code = LinearCode.from_parity(hamming_7_4().check)
    assert code.d is None
    assert code.min_distance() == 3 and code.d == 3
    code.fails
    for name in [*vars(code), "leaders", "min_distance", "unset"]:
        with pytest.raises(AttributeError, match="immutable: cannot set"):
            setattr(code, name, None)
        with pytest.raises(AttributeError, match="immutable: cannot delete"):
            delattr(code, name)
    assert code.params == (7, 4, 3)
    assert np.array_equal(gf2.mat_mul(code.dual_basis, code.basis.T),
                          np.eye(7, dtype=np.uint8))
    for part, whole in (("generator_complement", "basis"),
                        ("check_complement", "dual_basis")):
        assert np.shares_memory(getattr(code, part), getattr(code, whole))
    for m in (code.generator, code.check, code.generator_complement,
              code.check_complement, code.basis, code.dual_basis):
        assert not m.flags.writeable


def test_debug_records_name_their_caller(caplog):
    # Two builds, so the second goes through the logger bound by the first.
    with caplog.at_level(logging.DEBUG, logger="subqec"):
        repetition(3).leaders
        repetition(4).leaders
    assert len(caplog.records) == 2
    for record in caplog.records:
        assert record.name == "subqec.classical"
        assert record.levelno == logging.DEBUG
        assert record.funcName == "leaders"
        assert record.filename == "classical.py"
        assert record.getMessage().startswith(
            "leader table of <LinearCode 'rep")


def test_table_builds_log_at_debug_only(caplog):
    quiet, loud = repetition(5), repetition(6)
    quiet.leaders, quiet.fails
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="subqec"):
        loud.leaders, loud.fails
    assert [r.name for r in caplog.records] == ["subqec.classical"] * 2
    for record, table in zip(caplog.records, ("leader table", "fail table")):
        assert re.fullmatch(rf"{table} of <LinearCode 'rep6' \[6,1,6\]> "
                            rf"\(n=6\) built in \d+\.\d\d ms",
                            record.getMessage())


def test_popcount_by_bitwise_count_and_by_swar(monkeypatch):
    # numpy >= 2 counts with bitwise_count; numpy 1.x, which has none,
    # takes the SWAR branch.  Both must count every int64 >= 0.
    words = np.append(np.random.default_rng(3).integers(
        0, np.iinfo(np.int64).max, 1000, dtype=np.int64),
        [0, 1, np.iinfo(np.int64).max])
    want = [bin(w).count("1") for w in words.tolist()]
    assert classical._popcount(words).tolist() == want
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert classical._popcount(words).tolist() == want


def test_fail_table_record_times_the_table_alone(monkeypatch, caplog):
    # A clock that advances one second per read: the leader table reads it
    # twice, so a fail-table record that also timed it said 3000 ms.
    ticks = itertools.count()
    monkeypatch.setattr(classical.time, "perf_counter",
                        lambda: float(next(ticks)))
    with caplog.at_level(logging.DEBUG, logger="subqec.classical"):
        repetition(5).fails
    assert [r.getMessage() for r in caplog.records] == [
        f"{table} of <LinearCode 'rep5' [5,1,5]> (n=5) built in 1000.00 ms"
        for table in ("leader table", "fail table")]


def test_tables_refused_above_twenty_bits():
    # The fail table has one entry per word, the leader table one per
    # syndrome.  Past 20 bits, fails takes a rule that builds neither.
    rep21 = repetition(21)
    assert rep21.fails(np.array([0, 1 << 20, (1 << 21) - 1])).tolist() == [
        False, False, True]
    assert "leaders" not in vars(rep21)
    with pytest.raises(ValueError, match=r"n <= 63 and n-k <= 20"):
        repetition(22).leaders
    assert "leaders" not in vars(repetition(22))


def test_reed_muller_2_5_leaders_reach_its_covering_radius():
    # RM(2,5) [32,16,8]: its n-k = 16 syndromes fit a table, and its
    # leaders reach weight 6, the code's covering radius, past 2**20 words
    # of a walk weight by weight.
    rm25 = reed_muller_2_5()
    assert (rm25.n, rm25.k) == (32, 16)
    leaders = rm25.leaders
    assert np.array_equal(leaders, walked_leaders(rm25))
    assert np.bincount(popcounts(leaders)).tolist() == [
        1, 32, 496, 4960, 17515, 27776, 14756]
    syndromes = (word_array_bits(leaders, 32) @ rm25.check.T & 1) @ (
        1 << np.arange(16))
    assert np.array_equal(syndromes, np.arange(1 << 16))
    with pytest.raises(ValueError):
        leaders[0] = 1


def test_decode_above_table_limit_names_the_real_limit():
    # rep25 decodes by its codewords: every error of weight up to 12 is its
    # own coset's leader, far past the weight-4 search that once stood here.
    code = repetition(25)
    rng = np.random.default_rng(25)
    for w in range(5, 13):
        for _ in range(5):
            e = np.zeros(code.n, np.uint8)
            e[rng.choice(code.n, size=w, replace=False)] = 1
            assert np.array_equal(code.decode(code.syndrome(e)), e)
            assert np.array_equal(code.decode(code.syndrome(1 - e)), e)


def test_decode_rep17_uses_table_and_matches_bounded_search():
    # n = 17 is above the old 16-bit table limit; syndromes whose leader
    # needs more than 4 flips once raised.
    code = repetition(17)
    far = np.zeros(code.n, np.uint8)
    far[:8] = 1
    assert np.array_equal(code.decode(code.syndrome(far)), far)
    rng = np.random.default_rng(170)
    for _ in range(30):
        w = int(rng.integers(0, 9))
        e = np.zeros(code.n, np.uint8)
        e[rng.choice(code.n, size=w, replace=False)] = 1
        assert np.array_equal(code.decode(code.syndrome(e)), e)


def word_array_bits(words, n):
    """Rows of bits of int64 words, position 0 first."""
    return (words[:, None] >> np.arange(n - 1, -1, -1) & 1).astype(np.uint8)


def popcounts(words):
    return np.array([bin(int(v)).count("1") for v in words])


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_codeword_and_syndrome_routes_match_fail_table(data):
    """Both routes the table-less codes take, called directly on codes
    short enough for a fail table, against that table on every word; and
    the trellis's leaders against keys sorted over every word."""
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(0, n), label="k")
    free = np.array(data.draw(st.lists(st.integers(0, 1), min_size=k * (n - k),
                                       max_size=k * (n - k))), np.uint8)
    order = data.draw(st.permutations(range(n)), label="column order")
    g = np.hstack([np.eye(k, dtype=np.uint8), free.reshape(k, n - k)])
    code = LinearCode.from_generator(g[:, order])
    words = np.arange(1 << n, dtype=np.int64)
    bits, m = word_array_bits(words, n), n - k
    syndromes = (bits @ code.check.T & 1) @ (1 << np.arange(m))
    first = np.lexsort((words, bits.sum(axis=1)))
    found, at = np.unique(syndromes[first], return_index=True)
    assert len(found) == 1 << m
    assert np.array_equal(code.leaders, words[first][at])
    residual = bits ^ word_array_bits(code.leaders[syndromes], n)
    table = code.fails(words)
    assert np.array_equal(table,
                          (residual @ code.check_complement.T & 1).any(axis=1))
    if n <= 10:  # 2**n words times 2**k codewords
        assert np.array_equal(_codeword_rule(code)(words), table)
    assert np.array_equal(_syndrome_rule(code)(words), table)
    two_d = words.reshape(2, -1) if n > 1 else words[None]
    assert np.array_equal(code.fails(two_d), table[two_d])


def walk_fits(n, m):
    """Whether the reference walk stays within 2**21 words on every [n, n-m]
    code: it visits the words up to the covering radius, at most m."""
    return sum(math.comb(n, w) for w in range(m + 1)) <= 1 << 21


@st.composite
def long_systematic_codes(draw):
    """Systematic codes of 21 to 63 bits with at most 8 check rows, whose
    reference walk fits whatever their covering radius."""
    m = draw(st.integers(0, 8), label="n-k")
    n = draw(st.sampled_from([n for n in range(21, 64) if walk_fits(n, m)]),
             label="n")
    k = n - m
    free = np.array(draw(st.lists(st.integers(0, 1), min_size=k * m,
                                  max_size=k * m)), np.uint8)
    order = draw(st.permutations(range(n)), label="column order")
    g = np.hstack([np.eye(k, dtype=np.uint8), free.reshape(k, m)])
    return LinearCode.from_generator(g[:, order])


@settings(max_examples=40, deadline=None)
@given(code=long_systematic_codes())
# [48,43] with checks on its last 5 positions only: covering radius 5,
# reached after about 1.9 * 2**20 words of the walk.
@example(code=LinearCode.from_parity(np.eye(5, 48, 43, dtype=np.uint8)))
def test_leaders_past_twenty_bits_match_the_walk(code):
    """The trellis's leaders past 20 bits, against the walk weight by
    weight."""
    assert np.array_equal(code.leaders, walked_leaders(code))


@pytest.mark.parametrize("make, closed_form", [
    # rep20: a word fails iff more than half its bits are set, or exactly
    # half with position 0 (the top bit) set, as the leader of its coset
    # is the lighter of v and its complement, or the lesser at a tie.
    (lambda: repetition(20),
     lambda words, weight: (weight > 10) | (weight == 10) & (words >> 19 == 1)),
    # [20,0]: every word is its own coset's leader.
    (lambda: LinearCode.from_parity(np.eye(20, dtype=np.uint8)),
     lambda words, weight: np.zeros(words.shape, bool)),
    # [20,20]: one coset, whose leader is 0.
    (lambda: LinearCode.from_generator(np.eye(20, dtype=np.uint8)),
     lambda words, weight: words != 0),
], ids=["rep20", "[20,0]", "[20,20]"])
def test_fail_table_at_twenty_bits_matches_closed_form(make, closed_form):
    """The table route at its n = 20 edge, against closed forms that never
    read the leaders; the table stays read-only."""
    code = make()
    words, weight = np.arange(1 << 20, dtype=np.int64), np.zeros(1 << 20, int)
    for b in range(20):  # the words from 2**b up add bit b to those below
        weight[1 << b:2 << b] = weight[:1 << b] + 1
    assert np.array_equal(code.fails(words), closed_form(words, weight))
    with pytest.raises(ValueError):
        code.fails.__self__[0] = True


def test_long_repetition_decodes_by_majority():
    # rep(n) past 20 bits decodes by its two-word cosets: the lighter word,
    # and at a tie (even n) the lexicographically smaller.
    rng = np.random.default_rng(2163)
    for n in range(21, 64):
        code = repetition(n)
        for w in {0, 1, n // 2 - 1, n // 2, (n + 1) // 2, n - 1, n,
                  *rng.integers(0, n + 1, 6).tolist()}:
            e = np.zeros(n, np.uint8)
            e[rng.choice(n, size=w, replace=False)] = 1
            if 2 * w != n:
                want = e if 2 * w < n else 1 - e
            else:
                want = min(e, 1 - e, key=tuple)
            assert np.array_equal(code.decode(code.syndrome(e)), want), (n, w)


def test_golay_decodes_every_error_within_radius():
    # The perfect [23, 12, 7] code: 2**11 syndromes, one per error of
    # weight <= 3, and each such error decodes to itself.
    code = golay_23_12()
    assert (code.n, code.k, code.min_distance()) == (23, 12, 7)
    for w in range(4):
        for support in itertools.combinations(range(23), w):
            e = np.zeros(23, np.uint8)
            e[list(support)] = 1
            assert np.array_equal(code.decode(code.syndrome(e)), e)
    assert np.array_equal(np.sort(popcounts(code.leaders)),
                          np.repeat(np.arange(4), [1, 23, 253, 1771]))


def test_leaders_of_21_bit_code_match_low_weight_scan():
    # Three copies of the Hamming check columns: a [21,18] code whose
    # leaders all weigh at most 1, found without a 2**21-word table.
    code = LinearCode.from_parity(np.tile(hamming_7_4().check, 3))
    words = np.array([0] + [1 << i for i in range(21)]
                     + [(1 << i) | (1 << j) for i in range(21)
                        for j in range(i)], np.int64)
    weights = popcounts(words)
    syndromes = (word_array_bits(words, 21) @ code.check.T & 1) @ (
        1 << np.arange(3))
    for s in range(8):
        mine = syndromes == s
        best = min(zip(weights[mine], words[mine]))[1]
        assert code.leaders[s] == best
    assert popcounts(code.leaders).max() == 1


@pytest.mark.parametrize("make, match", [
    (lambda: repetition(64), r"\[64,1\] code: it needs n <= 63"),
    # k = 17 > 16 and n-k = 21 > 20: neither route applies.
    (lambda: LinearCode.from_generator(np.hstack(
        [np.eye(17, dtype=np.uint8), np.ones((17, 21), np.uint8)])),
     r"\[38,17\] code: it needs n <= 63 and n-k <= 20"),
])
def test_codes_no_route_covers_are_refused(make, match):
    code = make()
    for use in (lambda: code.fails,
                lambda: code.decode(np.zeros(code.n - code.k, np.uint8))):
        with pytest.raises(ValueError, match=match):
            use()


def seeded_code(n, k):
    """A systematic [n, k] code with seeded random parity columns, its
    positions shuffled."""
    rng = np.random.default_rng(n * 64 + k)
    g = np.hstack([np.eye(k, dtype=np.uint8),
                   rng.integers(0, 2, (k, n - k), dtype=np.uint8)])
    return LinearCode.from_generator(g[:, rng.permutation(n)])


CODEWORD_ROUTE = {
    "rep21": lambda: repetition(21),
    "rep63": lambda: repetition(63),
    "[25,0]": lambda: LinearCode.from_parity(np.eye(25, dtype=np.uint8)),
    "[40,4]": lambda: seeded_code(40, 4),
}
LEADER_ROUTE = {
    "[22,2]": lambda: seeded_code(22, 2),
    "rm25": reed_muller_2_5,
    "[40,20]": lambda: seeded_code(40, 20),
    "golay24": golay_24_12,
}


@pytest.mark.parametrize("name", [*CODEWORD_ROUTE, *LEADER_ROUTE])
def test_fails_past_twenty_bits_caches_one_table(name):
    # Past 20 bits, a code with at most one nonzero codeword compares each
    # word with it, and so does a code with no leader table (n-k > 20);
    # every other code reads its leader table and never lists codewords.
    by_codewords = name in CODEWORD_ROUTE
    code = (CODEWORD_ROUTE if by_codewords else LEADER_ROUTE)[name]()
    code.fails(np.array([0, 1, (1 << code.n) - 1], np.int64))
    cached = {"leaders", "_codewords"} & set(vars(code))
    assert cached == ({"_codewords"} if by_codewords else {"leaders"})


def test_extended_golay_code_has_distance_eight():
    code = golay_24_12()
    assert (code.n, code.k, code.min_distance()) == (24, 12, 8)


def least_coset_word(code, s, rows):
    """The least word of syndrome s's coset in (weight, lexicographic)
    order, from ``rows``, every codeword as a row of bits."""
    coset = rows ^ (s @ code.generator_complement & 1)  # s G_c has syndrome s
    numeral = coset.astype(np.int64) @ (
        1 << np.arange(code.n - 1, -1, -1, dtype=np.int64))
    return coset[np.lexsort((numeral, coset.sum(axis=1)))[0]]


@pytest.mark.parametrize("make", [
    lambda: seeded_code(22, 2), lambda: seeded_code(26, 6),
    reed_muller_2_5, golay_24_12,
], ids=["[22,2]", "[26,6]", "rm25", "golay24"])
def test_leader_route_agrees_with_the_codewords(make):
    # Codes that once compared words with their 2**k codewords: the leader
    # table gives the same failures on seeded words of four densities, and
    # decode the least word of each coset among all its words.
    code = make()
    rng = np.random.default_rng(code.n)
    words = np.concatenate([functools.reduce(np.bitwise_and, rng.integers(
        0, 1 << code.n, (j, 1000), dtype=np.int64)) for j in range(1, 5)])
    assert np.array_equal(code.fails(words), _codeword_rule(code)(words))
    rows = codewords(code)
    for s in rng.integers(0, 2, (50, code.n - code.k), dtype=np.uint8):
        assert np.array_equal(code.decode(s), least_coset_word(code, s, rows))


@pytest.mark.parametrize("make", [
    lambda: repetition(3), lambda: repetition(21), golay_23_12,
], ids=["fail table", "codewords", "leaders"])
@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_fails_on_empty_word_arrays(make, shape):
    out = make().fails(np.zeros(shape, np.int64))
    assert out.shape == shape and out.dtype == bool


@pytest.mark.parametrize("s", [[2, 0], [3, 0], [0.9, 0], [-1, 0]])
def test_decode_rejects_non_binary_entries(rep3, s):
    # A cast to uint8 decoded [2, 0] as the syndrome [0, 1], [3, 0] as
    # [1, 1] and [0.9, 0] as [0, 0], and -1 raised OverflowError.
    with pytest.raises(ValueError, match="0 or 1"):
        rep3.decode(s)


def test_decode_length_check(rep3):
    with pytest.raises(ValueError):
        rep3.decode([1, 0, 1])


# -- builtin families ----------------------------------------------------------

def test_builtin_rep():
    code = builtin("rep:4")
    assert code.params == (4, 1, 4)


def test_builtin_rep1():
    code = builtin("rep:1")
    assert (code.n, code.k, code.d) == (1, 1, 1)
    assert code.check.shape == (0, 1)


def test_builtin_hamming():
    code = builtin("hamming:7-4")
    assert code.params == (7, 4, 3)
    # Check columns are the binary digits of 1..7, so they are all distinct
    # and nonzero.
    cols = {tuple(int(v) for v in code.check[:, j]) for j in range(7)}
    assert len(cols) == 7 and (0, 0, 0) not in cols


def test_builtin_rejects_unknown():
    with pytest.raises(ValueError):
        builtin("golay:23")
    with pytest.raises(ValueError):
        builtin("rep:x")
    with pytest.raises(ValueError, match="repetition length must be >= 1"):
        builtin("rep:0")


@pytest.mark.parametrize("spec", ["rep:\u0663", "rep:\uff13", "rep:1_1",
                                  "rep:+3", "rep: 3", "rep:"],
                         ids=["arabic-indic", "fullwidth", "underscore",
                              "plus", "space", "empty"])
def test_builtin_rep_takes_ascii_digits_only(spec):
    # int() read all but the empty one as a length.
    with pytest.raises(ValueError, match="bad repetition length in"):
        builtin(spec)


def test_repetition_check_is_bidiagonal():
    assert repetition(4).check.tolist() == [
        [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
