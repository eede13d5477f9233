"""Dense linear algebra over GF(2).

Matrices are two-dimensional numpy arrays of dtype ``uint8`` whose entries
are 0 or 1.  All arithmetic is carried out modulo 2.  Empty matrices (zero
rows or zero columns) are legal everywhere and show up routinely: a code
with k = n has an empty parity-check matrix, and a code with k = 0 has an
empty generator.

Elimination runs on packed rows: :func:`pack_rows` makes each row one
Python int with column 0 as its top bit, so a row operation is one XOR and
a row's pivot column is its leading bit, and pivot rows are kept in a dict
keyed on that bit.  The ``*_rows`` functions work on such lists of ints,
and :func:`dual_complete_columns` on the columns of the check packed the
same way (``pack_rows(p.T)``), so ``LinearCode`` builds a code without a
transpose in Python.  :func:`rank` packs a matrix once and eliminates.

:func:`mat_mul` keeps small products on a uint8 ``@`` masked to the low
bit, which is exact because uint8 wraps modulo 256, an even number.  Larger
ones AND the rows of both operands packed into uint64 words and XOR across
words; each entry's parity then takes two shift-XORs, which leave every
nibble's parity in its low bit, an AND with ``0x1111...1`` and a multiply
by it, which adds the 16 nibble parities into the top nibble.  No
numpy-2-only API (such as ``np.bitwise_count``) is used.
"""

from __future__ import annotations

import operator

import numpy as np

# Products of fewer multiply-adds than this stay on the uint8 ``@``, which
# is faster there than packing both operands into words.
_PACKED_MIN_WORK = 1 << 15
# Output entries per chunk of rows of a packed product: keeps each uint64
# temporary at 256 KB.
_PACKED_CHUNK = 1 << 15
_NIBBLE_LOW_BITS = np.uint64(0x1111111111111111)
_ONE, _TWO, _TOP_NIBBLE = np.uint64(1), np.uint64(2), np.uint64(60)


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


def _require_int(name: str, value) -> int:
    """``value`` as an int; a bool, a float or any other non-integral value
    raises ValueError instead of being truncated or misreported."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, not {value!r}")


# -- packed rows -------------------------------------------------------------

def pack_rows(m) -> list:
    """The rows of a 0/1 matrix as ints, column 0 being the top bit."""
    a = as_bits(m)
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


def _insert(pivots: dict, v: int) -> bool:
    """Reduce ``v`` by the pivot rows until its leading bit has no pivot
    and store it there (True), or until it vanishes (False)."""
    while v:
        lead = v.bit_length() - 1
        p = pivots.get(lead)
        if p is None:
            pivots[lead] = v
            return True
        v ^= p
    return False


def _echelon(rows) -> dict:
    """Pivot rows spanning ``rows``, keyed on their leading bits."""
    pivots: dict = {}
    for v in rows:
        _insert(pivots, v)
    return pivots


def rank_rows(rows) -> int:
    """Rank of packed rows (forward elimination only)."""
    return len(_echelon(rows))


def _reduce(pivots: dict) -> list:
    """Clear every pivot bit from the other pivot rows, in place (the
    Gauss-Jordan back-substitution); returns the leading bits, highest
    first."""
    leads = sorted(pivots)
    # Lowest pivot first: it has zeros at every lower pivot bit already, so
    # clearing its bit from the higher rows sets no pivot bit again.
    for i, lead in enumerate(leads):
        row, bit = pivots[lead], 1 << lead
        for higher in leads[i + 1:]:
            if pivots[higher] & bit:
                pivots[higher] ^= row
    leads.reverse()
    return leads


def _rref_rows(rows) -> tuple:
    """The nonzero rows of the reduced row-echelon form, in pivot order,
    and their leading bits."""
    pivots = _echelon(rows)
    leads = _reduce(pivots)
    return [pivots[lead] for lead in leads], leads


def kernel_rows(rows, cols: int) -> list:
    """Packed basis rows of the right kernel ``{v : m v = 0}`` of the
    matrix m with these packed rows, one per free column, lowest first."""
    reduced, leads = _rref_rows(rows)
    pivot_bits = set(leads)
    return [sum(1 << lead for row, lead in zip(reduced, leads) if row >> b & 1)
            | 1 << b for b in range(cols - 1, -1, -1) if b not in pivot_bits]


def _solve_tagged(rows, low: int) -> tuple:
    """Gauss-Jordan elimination of ``rows`` on their bits from ``low`` up,
    with the bits below ``low`` carried along as each row's tag.

    Returns the tags of the reduced pivot rows, highest pivot first, and
    the tags that the other rows reduced to, in input order (each row
    dependent on the rows before it).
    """
    pivots: dict = {}
    mask = (1 << low) - 1
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
    return [pivots[lead] & mask for lead in _reduce(pivots)], dropped


def dual_complete_columns(p_cols, g, n: int) -> tuple:
    """Complete a full-rank check p and generator g with ``p g^T = 0`` to
    a dual basis: ``(p_c, g_c)`` with ``p_c g^T = I``, ``p g_c^T = I`` and
    ``p_c g_c^T = 0``.  Takes the n columns of p packed as ints with row 0
    the top bit (``pack_rows(p.T)``) and the packed rows of g, where p has
    n - len(g) rows; returns the packed rows of ``(p_c, g_c)``, and raises
    ValueError for dependent rows or a p that does not annihilate g.

    It eliminates the columns of p once, last column first, each tagged
    with its own unit row.  Column c reduces to a bare tag exactly when it
    lies in the span of the columns after it, which is exactly when the
    unit row c does not extend the rows of p and the unit rows before c:
    so the columns N that vanish are the greedy unit-row extension, and the
    other columns C hold the pivots.  Three things follow:

    - the tags of the pivot rows are ``g_c``: supported on C with
      ``p g_c^T = I``, the transpose of the inverse of p restricted to C;
    - the bare tags form the generator of the code systematic on N, so
      each row of g must equal the sum of the tags at its own bits in N;
    - eliminating the columns of g at N, tagged the same way, gives
      ``p_c``: supported on N with ``p_c g^T = I``.
    """
    k = len(g)
    g_c, codewords = _solve_tagged(
        [v << n | 1 << (n - 1 - c)
         for c, v in zip(range(n - 1, -1, -1), reversed(p_cols))], n)
    if len(g_c) != n - k:
        _reject(g, "check rows are linearly dependent")
    # A bare tag's top bit is its own column.  For each row of g, w sums
    # the tags at its bits in N, and g_free gathers g's columns at N.
    free = [n - t.bit_length() for t in codewords]
    g_free = [0] * k
    annihilated = True
    for j, v in enumerate(g):
        w = 0
        for i, (c, t) in enumerate(zip(free, codewords)):
            if v >> (n - 1 - c) & 1:
                w ^= t
                g_free[i] |= 1 << (k - 1 - j)
        annihilated = annihilated and w == v
    p_c, singular = _solve_tagged(
        [v << n | 1 << (n - 1 - c) for c, v in zip(free, g_free)], n)
    # g at N is singular only when g is dependent or p does not annihilate
    # it.
    if singular or not annihilated:
        _reject(g, "check matrix does not annihilate the generator")
    return p_c, g_c


def _reject(g, reason: str):
    """Raise ValueError for a failed dual completion, naming a dependent
    generator first whatever else is wrong."""
    if rank_rows(g) != len(g):
        raise ValueError("generator rows are linearly dependent")
    raise ValueError(reason)


# -- matrix functions --------------------------------------------------------

def _words(a: np.ndarray) -> np.ndarray:
    """The rows of a 0/1 matrix packed into uint64 words."""
    padded = np.zeros((len(a), -(-a.shape[1] // 64) * 64), np.uint8)
    padded[:, :a.shape[1]] = a
    return np.packbits(padded, axis=1).view(np.uint64)


def mat_mul(a, b) -> np.ndarray:
    """Matrix product over GF(2).

    Raises:
        ValueError: on an inner-dimension mismatch.
    """
    a = as_bits(a)
    b = as_bits(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    rows, cols = a.shape[0], b.shape[1]
    if rows * a.shape[1] * cols < _PACKED_MIN_WORK:
        return (a @ b) & 1
    aw, bw = _words(a), _words(b.T)
    out = np.empty((rows, cols), np.uint8)
    step = max(1, _PACKED_CHUNK // cols)
    # Two buffers reused by every chunk: a fresh 256 KB temporary per
    # operation would cost more than the operation.
    acc_buf = np.empty((min(step, rows), cols), np.uint64)
    tmp_buf = np.empty_like(acc_buf)
    for r0 in range(0, rows, step):
        chunk = aw[r0:r0 + step]
        acc, tmp = acc_buf[:len(chunk)], tmp_buf[:len(chunk)]
        np.bitwise_and(chunk[:, 0, None], bw[:, 0], out=acc)
        for w in range(1, aw.shape[1]):
            np.bitwise_and(chunk[:, w, None], bw[:, w], out=tmp)
            acc ^= tmp
        # Two shift-XORs leave each nibble's parity in its low bit; the
        # multiply adds those 16 bits into the top nibble, which no lower
        # nibble carries into, so its low bit is the parity of the word.
        np.right_shift(acc, _ONE, out=tmp)
        acc ^= tmp
        np.right_shift(acc, _TWO, out=tmp)
        acc ^= tmp
        acc &= _NIBBLE_LOW_BITS
        acc *= _NIBBLE_LOW_BITS
        acc >>= _TOP_NIBBLE
        acc &= _ONE
        out[r0:r0 + step] = acc
    return out


def rank(m) -> int:
    """Rank of ``m`` over GF(2)."""
    return rank_rows(pack_rows(m))
