"""Dense linear algebra over GF(2).

Matrices are two-dimensional numpy arrays of dtype ``uint8`` whose entries
are 0 or 1.  All arithmetic is carried out modulo 2.  Empty matrices (zero
rows or zero columns) are legal everywhere and show up routinely: a code
with k = n has an empty parity-check matrix, and a code with k = 0 has an
empty generator.

Elimination runs on packed rows: :func:`pack_rows` makes each row one
Python int with column 0 as its top bit, so a row operation is one XOR and
a row's pivot column is its leading bit, and pivot rows are kept in a dict
keyed on that bit.  One loop, ``_eliminate``, runs every elimination; a
row's bits below a given one are its tag, which the row operations carry
along.  Back-substitution clears from each pivot row, lowest first, only
the lower pivot bits it holds.  :func:`kernel_columns` and
:func:`dual_complete_columns` eliminate the columns of a matrix packed the
same way (``pack_rows(m.T)``) tagged with their unit rows, so ``LinearCode``
builds a code without a transpose in Python; the latter's two
eliminations also name the first fault of a pair: dependent generator
rows, dependent check rows, ranks that do not add up to n, or a check
that does not annihilate the generator.  :func:`rank` packs a matrix once
and eliminates.

:func:`mat_mul` keeps small products on a uint8 ``@`` masked to the low
bit, which is exact because uint8 wraps modulo 256, an even number.  Larger
ones are one BLAS ``@`` on float copies: float32 while the inner dimension
is below 2**24, so every partial sum is an integer the type holds exactly,
and float64 past it.  The sums go through int64 before the mask, since a
float sum of 256 or more has no defined uint8 cast.
"""

from __future__ import annotations

import operator

import numpy as np

# Products of fewer multiply-adds than this stay on the uint8 ``@``, which
# is faster there than BLAS on float copies of both operands.
_BLAS_MIN_WORK = 1 << 12
# float32 holds every integer up to this one exactly, so with a smaller
# inner dimension every partial sum of a product is exact.
_FLOAT32_EXACT = 1 << 24


def as_bits(m) -> np.ndarray:
    """Coerce ``m`` to a 2-D uint8 matrix of 0/1 entries.

    Args:
        m: anything ``np.asarray`` accepts that is two-dimensional.

    Returns:
        A uint8 array with the same shape.

    Raises:
        ValueError: if ``m`` is not 2-D or contains entries other than 0/1.
    """
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.dtype == np.uint8 or a.dtype == np.bool_:
        a = a.astype(np.uint8, copy=False)
        if a.size and a.max(initial=0) > 1:
            raise ValueError("matrix entries must be 0 or 1")
        return a
    # Checked before the cast, which would wrap 256 to 0 and cut 0.5 to 0.
    if not ((a == 0) | (a == 1)).all():
        raise ValueError("matrix entries must be 0 or 1")
    return a.astype(np.uint8)


def _require_int(name: str, value, low: int | None = None) -> int:
    """``value`` as an int; a bool, a float or any other non-integral value
    raises ValueError instead of being truncated or misreported, and so
    does an int below ``low``, when given."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if low is not None and number < low:
        raise ValueError(f"{name} must be >= {low}")
    return number


# -- packed rows -------------------------------------------------------------

def pack_rows(m) -> list:
    """The rows of a 0/1 matrix as ints, column 0 being the top bit."""
    return _pack(as_bits(m))


def _pack(a: np.ndarray) -> list:
    """:func:`pack_rows` of a matrix already checked by :func:`as_bits`."""
    width = (a.shape[1] + 7) // 8
    if not width:
        return [0] * a.shape[0]
    pad = -a.shape[1] % 8
    data = np.packbits(a, axis=1).tobytes()
    return [int.from_bytes(data[i:i + width], "big") >> pad
            for i in range(0, len(data), width)]


def unpack_rows(rows: list, cols: int) -> np.ndarray:
    """The (len(rows), cols) uint8 matrix of packed rows."""
    width = (cols + 7) // 8
    data = b"".join((v << -cols % 8).to_bytes(width, "big") for v in rows)
    packed = np.frombuffer(data, np.uint8).reshape(len(rows), width)
    return np.unpackbits(packed, axis=1, count=cols)


def _eliminate(rows, low: int = 0) -> tuple:
    """Forward elimination of ``rows`` on their bits from ``low`` up, with
    the bits below ``low`` carried along as each row's tag.

    Returns the pivot rows, keyed on their leading bits, and the tags that
    the other rows reduced to, in input order (each row dependent on the
    rows before it).
    """
    pivots: dict = {}
    dropped = []
    for v in rows:
        while v >> low:
            lead = v.bit_length() - 1
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = v
                break
            v ^= p
        else:
            dropped.append(v)
    return pivots, dropped


def rank_rows(rows) -> int:
    """Rank of packed rows (forward elimination only)."""
    return len(_eliminate(rows)[0])


def _reduce(pivots: dict) -> list:
    """Clear every pivot bit from the other pivot rows, in place (the
    Gauss-Jordan back-substitution); returns the leading bits, highest
    first."""
    leads = sorted(pivots)
    # Lowest first, so XOR with a reduced row changes one pivot bit only.
    done = 0  # the pivot bits of the rows reduced so far
    for lead in leads:
        while hit := pivots[lead] & done:
            pivots[lead] ^= pivots[hit.bit_length() - 1]
        done |= 1 << lead
    leads.reverse()
    return leads


def _solve_tagged(rows, low: int) -> tuple:
    """:func:`_eliminate` then :func:`_reduce`: the tags of the reduced
    pivot rows, highest pivot first, and the dropped tags."""
    pivots, dropped = _eliminate(rows, low)
    mask = (1 << low) - 1
    return [pivots[lead] & mask for lead in _reduce(pivots)], dropped


def kernel_columns(cols, n: int) -> list:
    """Packed basis rows of the right kernel ``{v : m v = 0}`` of the
    matrix m whose n columns are packed as ints (``pack_rows(m.T)``).

    The columns are eliminated first column first, each tagged with its
    own unit row.  A column drops out exactly when it is a sum of the
    pivot columns before it, and its tag then names that sum: so the
    dropped tags are the reduced row-echelon kernel basis, one row per
    free column, lowest first.
    """
    return _eliminate([v << n | 1 << (n - 1 - c)
                       for c, v in enumerate(cols)], n)[1]


def dual_complete_columns(p_cols, g, n: int, m: int) -> tuple:
    """Complete a check p and generator g with ``p g^T = 0`` to a dual
    basis: ``(p_c, g_c)`` with ``p_c g^T = I``, ``p g_c^T = I`` and
    ``p_c g_c^T = 0``.  Takes the n columns of the m-row p packed as ints
    with row 0 the top bit (``pack_rows(p.T)``) and the packed rows of g;
    returns the packed rows of ``(p_c, g_c)``.  Raises ValueError naming
    the first fault of four: dependent rows of g, dependent rows of p,
    ``m + len(g) != n``, and a p that does not annihilate g.

    It eliminates the columns of p once, last column first, each tagged
    with its own unit row.  Column c reduces to a bare tag exactly when it
    lies in the span of the columns after it, which is exactly when the
    unit row c does not extend the rows of p and the unit rows before c:
    so the columns N that vanish are the greedy unit-row extension, the
    other columns C hold the pivots, and there are as many pivots as p
    has rank.  Three things follow:

    - the tags of the pivot rows are ``g_c``: supported on C with
      ``p g_c^T = I``, the transpose of the inverse of p restricted to C;
    - the bare tags form the generator of the code systematic on N, so
      p annihilates g exactly when each row of g equals the sum of the
      tags at its own bits in N;
    - eliminating the columns of g at N, tagged the same way, gives
      ``p_c``: supported on N with ``p_c g^T = I``.  Their pivots count
      g's rank when p annihilates g, since g's other columns are then
      sums of them; otherwise every column of g joins them to count it.
    """
    k = len(g)
    g_c, codewords = _solve_tagged(
        [v << n | 1 << (n - 1 - c)
         for c, v in zip(range(n - 1, -1, -1), reversed(p_cols))], n)
    # A bare tag's top bit is its own column.  For each row of g, w sums
    # the tags at its bits in N, and g_free gathers g's columns at N.
    free = [n - t.bit_length() for t in codewords]
    g_free = [0] * len(free)
    annihilated = True
    for j, v in enumerate(g):
        w = 0
        for i, (c, t) in enumerate(zip(free, codewords)):
            if v >> (n - 1 - c) & 1:
                w ^= t
                g_free[i] |= 1 << (k - 1 - j)
        annihilated = annihilated and w == v
    cols = [v << n | 1 << (n - 1 - c) for c, v in zip(free, g_free)]
    if not annihilated:
        cols += [sum((v >> c & 1) << (k - 1 - j) for j, v in enumerate(g))
                 << n for c in range(n)]
    p_c, _ = _solve_tagged(cols, n)
    if len(p_c) != k:
        raise ValueError("generator rows are linearly dependent")
    if len(g_c) != m:
        raise ValueError("check rows are linearly dependent")
    if m + k != n:
        raise ValueError("generator and check ranks do not add up to n")
    if not annihilated:
        raise ValueError("check matrix does not annihilate the generator")
    return p_c, g_c


# -- matrix functions --------------------------------------------------------

def mat_mul(a, b) -> np.ndarray:
    """Matrix product over GF(2).

    Raises:
        ValueError: on an inner-dimension mismatch.
    """
    a = as_bits(a)
    b = as_bits(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    return _mat_mul(a, b)


def _mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`mat_mul` of 0/1 uint8 matrices whose inner dimensions agree,
    unchecked."""
    if a.shape[0] * a.shape[1] * b.shape[1] < _BLAS_MIN_WORK:
        return (a @ b) & 1
    f = np.float32 if a.shape[1] < _FLOAT32_EXACT else np.float64
    return ((a.astype(f) @ b.astype(f)).astype(np.int64) & 1).astype(np.uint8)


def rank(m) -> int:
    """Rank of ``m`` over GF(2)."""
    return rank_rows(pack_rows(m))
