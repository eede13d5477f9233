"""Tests for the GF(2) linear algebra kernels.

Small cases are checked against exhaustive enumeration; structural
properties run over seeded random matrices.  The packed-row elimination is
pinned bit for bit against a column-by-column uint8 reference.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from subqec import LinearCode, gf2, repetition

from references import (dual_complete, gram_rows, inverse, kernel_basis,
                        rref, solve)

REP3_G = np.array([[1, 1, 1]], dtype=np.uint8)
REP3_P = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)


def random_bits(rng, rows, cols):
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def row_space(m):
    """All vectors in the row space, as a set of tuples (exhaustive)."""
    vectors = {tuple(np.zeros(m.shape[1], dtype=int))}
    for r in range(1, 1 << m.shape[0]):
        picks = [m[i] for i in range(m.shape[0]) if (r >> i) & 1]
        vectors.add(tuple(int(v) for v in np.bitwise_xor.reduce(picks)))
    return vectors


# -- mat_mul ---------------------------------------------------------------

def test_mat_mul_known_product():
    a = np.array([[1, 1], [0, 1]], dtype=np.uint8)
    b = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    assert gf2.mat_mul(a, b).tolist() == [[0, 1], [1, 1]]


def test_mat_mul_parity_annihilates_generator():
    assert not gf2.mat_mul(REP3_P, REP3_G.T).any()


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        gf2.mat_mul(np.zeros((2, 3), np.uint8), np.zeros((2, 3), np.uint8))


def test_mat_mul_matches_int_arithmetic():
    rng = np.random.default_rng(100)
    shapes = [(rng.integers(1, 10), rng.integers(1, 10), rng.integers(1, 10))
              for _ in range(20)]
    # Inner dimensions from empty up to 130, each with an output on either
    # side of the switch to the BLAS product.
    for inner in (0, 1, 63, 64, 65, 130):
        for rows, cols in ((2, 3), (5, 5), (40, 33), (111, 111), (300, 7)):
            shapes.append((rows, inner, cols))
    # Both sides of the switch itself.
    shapes += [(15, 15, 15), (16, 16, 16)]
    small = blas = 0
    for rows, inner, cols in shapes:
        a = random_bits(rng, rows, inner)
        b = random_bits(rng, inner, cols)
        expect = (a.astype(int) @ b.astype(int)) % 2
        got = gf2.mat_mul(a, b)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expect.astype(np.uint8)), (rows, inner, cols)
        if rows * inner * cols >= gf2._BLAS_MIN_WORK:
            blas += 1
        else:
            small += 1
    assert small and blas, (small, blas)


def test_mat_mul_packed_product_in_row_chunks():
    rng = np.random.default_rng(101)
    # A tall product: many more output rows than columns, and an odd count
    # of them.
    rows = 2467
    a = random_bits(rng, rows, 70)
    b = random_bits(rng, 70, 40)
    expect = (a.astype(int) @ b.astype(int)) % 2
    assert rows * 70 * 40 >= gf2._BLAS_MIN_WORK
    assert np.array_equal(gf2.mat_mul(a, b), expect)


@pytest.mark.parametrize("inner", [255, 256, 257])
@pytest.mark.parametrize("outer", [1, 16])
def test_mat_mul_exact_on_sums_past_uint8(inner, outer):
    # All-ones operands: every entry is the sum ``inner``.  The uint8
    # product wraps it modulo 256; the float one must reach the mask through
    # an integer type, since a float-to-uint8 cast of 256 or more is
    # undefined.
    a = np.ones((outer, inner), np.uint8)
    b = np.ones((inner, outer), np.uint8)
    assert (outer * inner * outer >= gf2._BLAS_MIN_WORK) == (outer > 1)
    assert np.array_equal(gf2.mat_mul(a, b),
                          np.full((outer, outer), inner % 2, np.uint8))


def test_mat_mul_exact_past_float32_integers():
    # float32 rounds the sum 2**24 + 1 to 2**24, which has parity 0.
    inner = (1 << 24) + 1
    assert inner > gf2._FLOAT32_EXACT
    a = np.ones((1, inner), np.uint8)
    assert gf2.mat_mul(a, a.T).tolist() == [[1]]


# -- as_bits and packed rows -----------------------------------------------

@pytest.mark.parametrize("bad", [
    [[256, 1], [0, 1]],      # wraps to 0 in uint8
    [[257, 1, 1]],           # wraps to 1
    [[0.5, 1]],              # truncates to 0
    [[-1, 0]],               # wraps to 255
    [[float("nan"), 0]],
    np.array([[2, 0]], np.uint8),
])
def test_as_bits_rejects_entries_outside_0_1(bad):
    with pytest.raises(ValueError, match="0 or 1"):
        gf2.as_bits(bad)


def test_as_bits_rejects_other_dimensions():
    with pytest.raises(ValueError, match="expected a 2-D matrix, got ndim=1"):
        gf2.as_bits([1, 0])


def test_as_bits_accepts_bits_of_any_dtype():
    want = np.array([[1, 0, 1]], np.uint8)
    for m in ([[1, 0, 1]], [[1.0, 0.0, 1.0]], want.astype(bool),
              want.astype(np.int64), want):
        got = gf2.as_bits(m)
        assert got.dtype == np.uint8 and np.array_equal(got, want)


@pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 64, 65])
def test_pack_rows_round_trip(cols):
    rng = np.random.default_rng(cols)
    m = random_bits(rng, 5, cols)
    rows = gf2.pack_rows(m)
    for row, ints in zip(m, rows):
        # Column 0 is the top bit.
        assert ints == sum(int(b) << (cols - 1 - j) for j, b in enumerate(row))
    assert np.array_equal(gf2.unpack_rows(rows, cols), m)
    assert gf2.unpack_rows([], cols).shape == (0, cols)


def test_gram_rows_is_a_times_b_transposed():
    rng = np.random.default_rng(102)
    a, b = random_bits(rng, 6, 70), random_bits(rng, 4, 70)
    got = gf2.unpack_rows(gram_rows(gf2.pack_rows(a), gf2.pack_rows(b)), 4)
    assert np.array_equal(got, (a.astype(int) @ b.T.astype(int)) % 2)


# -- the uint8 reference ---------------------------------------------------

def reference_rref(m):
    """Column-by-column Gauss-Jordan elimination on a uint8 matrix: the
    elimination gf2 used before it moved to packed rows."""
    r = np.array(m, dtype=np.uint8)
    rows, cols = r.shape
    pivot_cols = []
    pr = 0
    for c in range(cols):
        if pr >= rows:
            break
        hits = np.nonzero(r[pr:, c])[0]
        if hits.size == 0:
            continue
        k = pr + int(hits[0])
        if k != pr:
            r[[pr, k]] = r[[k, pr]]
        mask = r[:, c].astype(bool).copy()
        mask[pr] = False
        r[mask] ^= r[pr]
        pivot_cols.append(c)
        pr += 1
    return r, len(pivot_cols), pivot_cols


def reference_kernel(m):
    red, _, pivot_cols = reference_rref(m)
    free = [c for c in range(m.shape[1]) if c not in pivot_cols]
    basis = np.zeros((len(free), m.shape[1]), dtype=np.uint8)
    for row, f in enumerate(free):
        basis[row, f] = 1
        for i, p in enumerate(pivot_cols):
            basis[row, p] = red[i, f]
    return basis


def reference_solve(m, y):
    red, _, pivot_cols = reference_rref(np.hstack([m, y[:, None]]))
    if pivot_cols and pivot_cols[-1] == m.shape[1]:
        return None
    x = np.zeros(m.shape[1], dtype=np.uint8)
    for i, c in enumerate(pivot_cols):
        x[c] = red[i, -1]
    return x


def reference_inverse(m):
    n = m.shape[0]
    red, _, pivots = reference_rref(np.hstack([m, np.eye(n, dtype=np.uint8)]))
    return red[:, n:] if pivots == list(range(n)) else None


matrices = st.tuples(st.integers(0, 9), st.integers(0, 20)).flatmap(
    lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(m=matrices, data=st.data())
def test_packed_elimination_matches_uint8_reference(m, data):
    red, rank, pivots = rref(m)
    want_red, want_rank, want_pivots = reference_rref(m)
    assert red.dtype == np.uint8 and red.shape == m.shape
    assert np.array_equal(red, want_red)
    assert (rank, pivots) == (want_rank, want_pivots)
    assert gf2.rank(m) == want_rank
    kernel = kernel_basis(m)
    assert kernel.shape == (m.shape[1] - want_rank, m.shape[1])
    assert np.array_equal(kernel, reference_kernel(m))
    y = data.draw(arrays(np.uint8, m.shape[0], elements=st.integers(0, 1)))
    want_x = reference_solve(m, y)
    x = solve(m, y)
    assert (x is None) == (want_x is None)
    if x is not None:
        assert np.array_equal(x, want_x)
    square = m[:, :m.shape[0]] if m.shape[1] >= m.shape[0] else m[:m.shape[1]]
    want_inv = reference_inverse(square)
    if want_inv is None:
        with pytest.raises(ValueError, match="singular"):
            inverse(square)
    else:
        assert np.array_equal(inverse(square), want_inv)


# -- rref / rank -----------------------------------------------------------

def test_rref_identity_fixed_point():
    eye = np.eye(4, dtype=np.uint8)
    red, rank, pivots = rref(eye)
    assert np.array_equal(red, eye)
    assert rank == 4
    assert pivots == [0, 1, 2, 3]


def test_rref_zero_matrix():
    z = np.zeros((3, 5), np.uint8)
    red, rank, pivots = rref(z)
    assert rank == 0 and pivots == [] and not red.any()


def test_rref_idempotent_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = random_bits(rng, rng.integers(1, 9), rng.integers(1, 9))
        once = rref(m)
        twice = rref(once.reduced)
        assert np.array_equal(once.reduced, twice.reduced)
        assert once.pivot_cols == twice.pivot_cols


def test_rank_transpose_invariant():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = random_bits(rng, rng.integers(1, 12), rng.integers(1, 12))
        assert gf2.rank(m) == gf2.rank(m.T)


@pytest.mark.parametrize("n", range(2, 9))
def test_rank_repetition_parity(n):
    p = np.zeros((n - 1, n), np.uint8)
    for i in range(n - 1):
        p[i, i] = p[i, i + 1] = 1
    assert gf2.rank(p) == n - 1


# -- kernel_basis ----------------------------------------------------------

def test_kernel_of_rep3_generator():
    basis = kernel_basis(REP3_G)
    # Oracle: enumerate every vector killed by G.
    expect = {v for v in itertools.product((0, 1), repeat=3)
              if sum(v) % 2 == 0}
    assert basis.shape == (2, 3)
    assert row_space(basis) == expect


def test_kernel_of_invertible_is_empty():
    basis = kernel_basis(np.eye(5, dtype=np.uint8))
    assert basis.shape == (0, 5)


def test_kernel_of_empty_matrix_is_everything():
    basis = kernel_basis(np.zeros((0, 4), np.uint8))
    assert basis.shape == (4, 4)
    assert gf2.rank(basis) == 4


def test_kernel_random_properties():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = random_bits(rng, rng.integers(1, 9), rng.integers(1, 9))
        basis = kernel_basis(m)
        assert basis.shape[0] == m.shape[1] - gf2.rank(m)
        assert not gf2.mat_mul(m, basis.T).any()
        assert gf2.rank(basis) == basis.shape[0]


# -- solve -----------------------------------------------------------------

def test_solve_known_system():
    x = solve(REP3_P, [1, 0])
    assert x is not None
    assert np.array_equal((REP3_P @ x) & 1, [1, 0])


def test_solve_inconsistent():
    assert solve(np.zeros((1, 3), np.uint8), [1]) is None


def test_solve_identity():
    y = np.array([1, 0, 1], np.uint8)
    assert np.array_equal(solve(np.eye(3, dtype=np.uint8), y), y)


def test_solve_length_mismatch():
    with pytest.raises(ValueError):
        solve(REP3_P, [1, 0, 1])


@pytest.mark.parametrize("y", [[256, 0], [1, 0.5], [-1, 1]])
def test_solve_rejects_rhs_outside_0_1(y):
    with pytest.raises(ValueError, match="0 or 1"):
        solve(REP3_P, y)


def test_solve_random_consistent_systems():
    rng = np.random.default_rng(10)
    for _ in range(50):
        m = random_bits(rng, rng.integers(1, 9), rng.integers(1, 9))
        x0 = rng.integers(0, 2, size=m.shape[1], dtype=np.uint8)
        y = (m @ x0) & 1
        x = solve(m, y)
        assert x is not None
        assert np.array_equal((m @ x) & 1, y)


# -- inverse ---------------------------------------------------------------

def test_inverse_round_trip():
    rng = np.random.default_rng(11)
    found = 0
    while found < 20:
        m = random_bits(rng, 6, 6)
        if gf2.rank(m) < 6:
            continue
        found += 1
        assert np.array_equal(gf2.mat_mul(m, inverse(m)),
                              np.eye(6, dtype=np.uint8))


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        inverse(np.zeros((3, 3), np.uint8))


# -- dual_complete ---------------------------------------------------------

def assert_pairing(p, g, p_c, g_c):
    k, n_minus_k = g.shape[0], p.shape[0]
    assert not gf2.mat_mul(p, g.T).any()
    assert np.array_equal(gf2.mat_mul(p_c, g.T), np.eye(k, dtype=np.uint8))
    assert np.array_equal(gf2.mat_mul(p, g_c.T),
                          np.eye(n_minus_k, dtype=np.uint8))
    assert not gf2.mat_mul(p_c, g_c.T).any()


def test_dual_complete_rep3():
    p_c, g_c = dual_complete(REP3_P, REP3_G)
    assert_pairing(REP3_P, REP3_G, p_c, g_c)
    # The basis vector e0 is the first greedy extension candidate.
    assert p_c.tolist() == [[1, 0, 0]]


def test_dual_complete_full_rate():
    g = np.array([[1, 1], [0, 1]], np.uint8)
    p = np.zeros((0, 2), np.uint8)
    p_c, g_c = dual_complete(p, g)
    assert g_c.shape == (0, 2)
    assert np.array_equal(gf2.mat_mul(p_c, g.T), np.eye(2, dtype=np.uint8))


def test_dual_complete_zero_rate():
    p = np.eye(3, dtype=np.uint8)
    g = np.zeros((0, 3), np.uint8)
    p_c, g_c = dual_complete(p, g)
    assert p_c.shape == (0, 3)
    assert np.array_equal(gf2.mat_mul(p, g_c.T), np.eye(3, dtype=np.uint8))


def test_dual_complete_random_pairs():
    rng = np.random.default_rng(12)
    done = 0
    while done < 40:
        n = int(rng.integers(1, 11))
        k = int(rng.integers(0, n + 1))
        g = random_bits(rng, k, n)
        if gf2.rank(g) != k:
            continue
        p = kernel_basis(g)
        p_c, g_c = dual_complete(p, g)
        assert_pairing(p, g, p_c, g_c)
        # The four blocks together form a basis of the whole space.
        assert gf2.rank(np.vstack([p, p_c])) == n
        assert gf2.rank(np.vstack([g, g_c])) == n
        done += 1


def test_dual_complete_rejects_dependent_rows():
    p = np.array([[1, 1, 0], [1, 1, 0]], np.uint8)
    g = np.array([[1, 1, 1]], np.uint8)
    with pytest.raises(ValueError, match="check rows are linearly dependent"):
        dual_complete(p, g)
    # A dependent generator is named as such, whatever else is wrong.
    for p, g in (([[1, 1, 0]], [[1, 1, 1], [1, 1, 1]]),
                 ([[1, 1, 0]], [[1, 0, 0], [1, 0, 0]]),
                 ([[1, 1, 0], [1, 1, 0]], [[0, 0, 0]])):
        with pytest.raises(ValueError,
                           match="generator rows are linearly dependent"):
            dual_complete(np.array(p, np.uint8), np.array(g, np.uint8))


def test_dual_complete_rejects_non_orthogonal():
    p = np.array([[1, 0, 0], [0, 1, 0]], np.uint8)
    g = np.array([[1, 1, 1]], np.uint8)
    with pytest.raises(ValueError, match="does not annihilate"):
        dual_complete(p, g)


@pytest.mark.parametrize("p, g", [
    ([[1, 1, 0]], [[1, 1, 1]]),
    ([[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [1, 1, 0]]),
], ids=["under", "over-unannihilated"])
def test_dual_complete_columns_words_ranks_that_do_not_add_up(p, g):
    """The package names the fault itself, with no row count checked
    before it is called, and ahead of a p that does not annihilate g."""
    p = np.array(p, np.uint8)
    with pytest.raises(ValueError, match="ranks do not add up to n"):
        gf2.dual_complete_columns(gf2.pack_rows(p.T), gf2.pack_rows(g),
                                  p.shape[1], p.shape[0])


# -- dual completion against the earlier construction ---------------------

def reference_dual_complete_rows(p, g, n):
    """The packed-row dual completion gf2 used before it eliminated the
    columns of p once, kept as the reference: p's pivots are extended by
    unit rows b, lowest column first, ``[p; b]`` is inverted by a second
    elimination, and p_c is re-based onto g by inverting ``g b^T``."""
    def eye_rows(m):
        return [1 << (m - 1 - i) for i in range(m)]

    def insert(pivots, v):
        while v:
            lead = v.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = v
                return True
            v ^= pivots[lead]
        return False

    def transpose(rows, cols):
        if not rows:
            return [0] * cols
        bits = [format(v, f"0{cols}b") for v in rows] if cols else []
        return [int("".join(col), 2) for col in zip(*bits)]

    def inverse_rows(rows):
        m = len(rows)
        inv = reference_inverse(gf2.unpack_rows(rows, m))
        assert inv is not None
        return gf2.pack_rows(inv)

    k = len(g)
    pivots = {}
    for v in p:
        assert insert(pivots, v)
    b = [e for e in eye_rows(n) if len(pivots) < n and insert(pivots, e)]
    g_c = transpose(inverse_rows(p + b), n)[:n - k]
    p_c = []
    for u in transpose(inverse_rows(gram_rows(g, b)), k):
        v = 0
        for j, e in enumerate(b):
            if u >> (k - 1 - j) & 1:
                v ^= e
        p_c.append(v)
    return p_c, g_c


def random_full_rank(rng, rows, n):
    while True:
        m = random_bits(rng, rows, n)
        if gf2.rank(m) == rows:
            return m


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 16), data=st.data())
def test_dual_completion_matches_earlier_construction(n, data):
    k = data.draw(st.integers(0, n), label="k")
    given_by = data.draw(st.sampled_from(["generator", "check", "both"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if given_by == "check":
        check = random_full_rank(rng, n - k, n)
        generator = reference_kernel(check)
        code = LinearCode(check=check)
    else:
        generator = random_full_rank(rng, k, n)
        # With both given, the check is a scrambled basis of the dual, not
        # the kernel's echelon rows.
        check = reference_kernel(generator)
        if given_by == "both":
            check = gf2.mat_mul(random_full_rank(rng, n - k, n - k), check)
        code = LinearCode(generator=generator,
                          check=check if given_by == "both" else None)
    p, g = gf2.pack_rows(check), gf2.pack_rows(generator)
    want_p_c, want_g_c = reference_dual_complete_rows(p, g, n)
    assert gf2.dual_complete_columns(gf2.pack_rows(check.T), g, n,
                                     n - k) == (want_p_c, want_g_c)
    p_c, g_c = gf2.unpack_rows(want_p_c, n), gf2.unpack_rows(want_g_c, n)
    want = {"generator": generator, "check": check, "check_complement": p_c,
            "generator_complement": g_c,
            "basis": np.concatenate([g_c, generator]),
            "dual_basis": np.concatenate([check, p_c])}
    for name, matrix in want.items():
        got = getattr(code, name)
        assert got.dtype == np.uint8 and np.array_equal(got, matrix), name


@pytest.mark.parametrize("n, k", [(130, 61), (255, 127)])
def test_elimination_past_64_columns(n, k):
    """Packed rows are ints of any width: on wide systematic codes with
    permuted columns, the derived matrices, both complements and the dual
    bases match the uint8 references."""
    rng = np.random.default_rng(n)
    g = np.hstack([np.eye(k, dtype=np.uint8),
                   random_bits(rng, k, n - k)])[:, rng.permutation(n)]
    p = reference_kernel(g)
    by_generator, by_parity = (LinearCode.from_generator(g),
                               LinearCode.from_parity(p))
    assert np.array_equal(by_generator.check, p)
    assert np.array_equal(by_parity.generator, reference_kernel(p))
    for code in (by_generator, by_parity):
        p_c, g_c = reference_dual_complete_rows(
            gf2.pack_rows(code.check), gf2.pack_rows(code.generator), n)
        assert np.array_equal(code.check_complement, gf2.unpack_rows(p_c, n))
        assert np.array_equal(code.generator_complement,
                              gf2.unpack_rows(g_c, n))
        assert code.bases_are_dual


@pytest.mark.parametrize("given_by", ["both", "check"])
@pytest.mark.parametrize("n", [63, 130])
def test_back_substitution_with_many_sparse_pivots(n, given_by):
    """Eliminating the bidiagonal check of rep(n) leaves n - 1 pivot rows,
    all but one holding one lower pivot bit for back-substitution to
    clear: the complements, given both matrices or the check only, match
    the uint8 references."""
    rep = repetition(n)
    code = rep if given_by == "both" else LinearCode.from_parity(rep.check)
    assert np.array_equal(code.generator, np.ones((1, n), np.uint8))
    p_c, g_c = reference_dual_complete_rows(
        gf2.pack_rows(rep.check), gf2.pack_rows(rep.generator), n)
    assert np.array_equal(code.check_complement, gf2.unpack_rows(p_c, n))
    assert np.array_equal(code.generator_complement, gf2.unpack_rows(g_c, n))
    assert code.bases_are_dual
