"""Tests for classical linear codes and coset-leader decoding."""

import itertools
import logging
import re

import numpy as np
import pytest

from subqec import LinearCode, builtin, gf2, hamming_7_4, repetition
from subqec.classical import DECODE_WEIGHT_CAP


def same_row_space(a, b):
    ra = gf2.rref(a).reduced
    rb = gf2.rref(b).reduced
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


def test_hamming_distance(ham):
    assert ham.min_distance() == 3


def test_full_rate_distance_is_one():
    assert LinearCode.from_generator(np.eye(5, dtype=np.uint8)).min_distance() == 1


def test_distance_matches_codeword_enumeration(ham):
    # Oracle: minimum weight over the explicitly enumerated codewords.
    words = ham.codewords()
    weights = words.sum(axis=1)
    assert ham.min_distance() == int(weights[weights > 0].min())


def test_distance_guard():
    code = LinearCode.from_generator(np.eye(25, dtype=np.uint8))
    with pytest.raises(ValueError):
        code.min_distance()


def test_wrong_claimed_distance_rejected():
    with pytest.raises(ValueError):
        LinearCode(generator=[[1, 1, 1]], distance=2)


# -- syndrome ----------------------------------------------------------------

def test_syndrome_of_codewords_is_zero(rep3, ham):
    for code in (rep3, ham):
        for word in code.codewords():
            assert not code.syndrome(word).any()


def test_syndrome_known_value(rep3):
    assert rep3.syndrome([1, 0, 0]).tolist() == [1, 0]


def test_syndrome_length_check(rep3):
    with pytest.raises(ValueError):
        rep3.syndrome([1, 0])


# -- decoding ----------------------------------------------------------------

def test_decode_zero_syndrome(rep3, ham):
    for code in (rep3, ham):
        assert not code.decode(np.zeros(code.n - code.k, np.uint8)).any()


def test_decode_rep3_known(rep3):
    assert rep3.decode([1, 0]).tolist() == [1, 0, 0]


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


def test_decode_bounded_search_matches_table():
    # Drive the bounded-weight search directly on a code small enough to
    # also have a full table; the two paths must agree wherever the search
    # cap allows an answer.
    code = repetition(6)
    for s_int in range(1 << 5):
        s = np.array([(s_int >> i) & 1 for i in range(5)], np.uint8)
        expect = code.decode(s)
        if expect.sum() <= DECODE_WEIGHT_CAP:
            assert np.array_equal(code._bounded_search(s), expect)


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
    assert code.decode_table.shape == (1 << m, code.n)
    for s_int in range(1 << m):
        s = np.array([(s_int >> i) & 1 for i in range(m)], np.uint8)
        assert tuple(code.decode_table[s_int]) == weight_lex_leader(code, s)


@pytest.mark.parametrize("codename", sorted(TABLE_CODES))
def test_fail_table_matches_decode(codename):
    code = TABLE_CODES[codename]()
    assert code.fail.shape == (1 << code.n,)
    for v in range(1 << code.n):
        bits = word_bits(v, code.n)
        residual = bits ^ code.decode(code.syndrome(bits))
        logical = (code.check_complement @ residual) & 1
        assert code.fail[v] == bool(logical.any())


def test_tables_are_read_only(ham):
    with pytest.raises(ValueError):
        ham.decode_table[0, 0] = 1
    with pytest.raises(ValueError):
        ham.fail[0] = True


def test_table_builds_log_at_debug_only(caplog):
    quiet, loud = repetition(5), repetition(6)
    quiet.decode_table, quiet.fail
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="subqec"):
        loud.decode_table, loud.fail
    assert [r.name for r in caplog.records] == ["subqec.classical"] * 2
    for record, table in zip(caplog.records, ("decode_table", "fail table")):
        assert re.fullmatch(rf"{table} of <LinearCode 'rep6' \[6,1,6\]> "
                            rf"\(n=6\) built in \d+\.\d\d ms",
                            record.getMessage())


def test_tables_refused_above_twenty_bits():
    code = repetition(21)
    with pytest.raises(ValueError):
        code.fail
    with pytest.raises(ValueError):
        code.decode_table


def test_decode_above_table_limit_names_the_real_limit():
    code = repetition(25)
    heavy = np.zeros(code.n, np.uint8)
    heavy[:5] = 1
    with pytest.raises(ValueError, match=r"longer than 20 bits.*weight <= 4"):
        code.decode(code.syndrome(heavy))


def test_decode_rep17_uses_table_and_matches_bounded_search():
    # n = 17 is above the old 16-bit table limit; syndromes whose leader
    # needs more than DECODE_WEIGHT_CAP flips used to raise.
    code = repetition(17)
    far = np.zeros(code.n, np.uint8)
    far[:8] = 1
    assert np.array_equal(code.decode(code.syndrome(far)), far)
    rng = np.random.default_rng(170)
    for _ in range(30):
        w = int(rng.integers(0, DECODE_WEIGHT_CAP + 1))
        e = np.zeros(code.n, np.uint8)
        e[rng.choice(code.n, size=w, replace=False)] = 1
        s = code.syndrome(e)
        assert np.array_equal(code.decode(s), e)
        assert np.array_equal(code._bounded_search(s), e)


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


def test_repetition_check_is_bidiagonal():
    assert repetition(4).check.tolist() == [
        [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
