"""Dense linear algebra over GF(2).

Matrices are two-dimensional numpy arrays of dtype ``uint8`` whose entries
are 0 or 1.  All arithmetic is carried out modulo 2.  Empty matrices (zero
rows or zero columns) are legal everywhere and show up routinely: a code
with k = n has an empty parity-check matrix, and a code with k = 0 has an
empty generator.

Elimination runs on packed rows: :func:`pack_rows` makes each row one
Python int with column 0 as its top bit, so a row operation is one XOR and
a row's pivot column is its leading bit, and pivot rows are kept in a dict
keyed on that bit.  The ``*_rows`` functions work on such lists of ints
(``LinearCode`` builds a code on them); the matrix functions pack once,
eliminate and unpack.

:func:`mat_mul` keeps small products on a uint8 ``@`` masked to the low
bit, which is exact because uint8 wraps modulo 256, an even number.  Larger
ones AND the rows of both operands packed into uint64 words, XOR across
words and take each entry's parity with a shift-XOR fold.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Optional

import numpy as np

# Products of fewer multiply-adds than this stay on the uint8 ``@``, which
# is faster there than packing both operands into words.
_PACKED_MIN_WORK = 1 << 15
# Output entries per chunk of rows of a packed product: keeps each uint64
# temporary at 256 KB.
_PACKED_CHUNK = 1 << 15


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


def _rref_rows(rows) -> tuple:
    """The nonzero rows of the reduced row-echelon form, in pivot order,
    and their leading bits."""
    pivots = _echelon(rows)
    leads = sorted(pivots)
    # Lowest pivot first: it has zeros at every lower pivot bit already, so
    # clearing its bit from the higher rows sets no pivot bit again.
    for i, lead in enumerate(leads):
        row, bit = pivots[lead], 1 << lead
        for higher in leads[i + 1:]:
            if pivots[higher] & bit:
                pivots[higher] ^= row
    leads.reverse()
    return [pivots[lead] for lead in leads], leads


def kernel_rows(rows, cols: int) -> list:
    """:func:`kernel_basis` of the matrix with these packed rows."""
    reduced, leads = _rref_rows(rows)
    pivot_bits = set(leads)
    return [sum(1 << lead for row, lead in zip(reduced, leads) if row >> b & 1)
            | 1 << b for b in range(cols - 1, -1, -1) if b not in pivot_bits]


def gram_rows(a, b) -> list:
    """Packed rows of ``a @ b.T``: bit len(b)-1-j of row i is the parity of
    ``a[i] & b[j]``."""
    out = []
    for u in a:
        v = 0
        for w in b:
            v = v << 1 | (u & w).bit_count() & 1
        out.append(v)
    return out


def _eye_rows(n: int) -> list:
    return [1 << (n - 1 - i) for i in range(n)]


def _transpose(rows, cols: int) -> list:
    if not rows:
        return [0] * cols
    bits = [format(v, f"0{cols}b") for v in rows] if cols else []
    return [int("".join(col), 2) for col in zip(*bits)]


def _inverse_rows(rows) -> Optional[list]:
    """Packed inverse of n packed n-bit rows; None when singular."""
    n = len(rows)
    reduced, leads = _rref_rows([v << n | e for v, e in zip(rows, _eye_rows(n))])
    # The identity block keeps [m | I] at full row rank whatever m is; m is
    # invertible exactly when every pivot falls in the left block.
    if n and leads[-1] < n:
        return None
    return [v & (1 << n) - 1 for v in reduced]


def dual_complete_rows(p, g, n: int) -> tuple:
    """:func:`dual_complete` on the packed n-bit rows of p and g, whose
    counts add up to n; returns the packed rows of ``(p_c, g_c)``."""
    k = len(g)
    pivots = _echelon(p)
    if len(pivots) != len(p):
        raise ValueError("parity-check rows are linearly dependent")
    if rank_rows(g) != k:
        raise ValueError("generator rows are linearly dependent")
    if any(gram_rows(p, g)):
        raise ValueError("parity check does not annihilate the generator")

    # Extend p's pivots to the whole space with unit rows b, lowest column
    # first.
    b = []
    for e in _eye_rows(n):
        if len(pivots) < n and _insert(pivots, e):
            b.append(e)
    # dual = inverse([p; b]).T, whose first n-k rows pair with p.
    g_c = _transpose(_inverse_rows(p + b), n)[:n - k]
    # p_c = inverse(g b^T).T b: the rows of b recombined to pair with g.
    p_c = []
    for u in _transpose(_inverse_rows(gram_rows(g, b)), k):
        v = 0
        for j, e in enumerate(b):
            if u >> (k - 1 - j) & 1:
                v ^= e
        p_c.append(v)

    # The identities are cheap to confirm and catch any internal slip.
    if (gram_rows(p_c, g) != _eye_rows(k)
            or gram_rows(p, g_c) != _eye_rows(n - k)
            or any(gram_rows(p_c, g_c))):
        raise ValueError("internal error: dual completion identities failed")
    return p_c, g_c


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
    for r0 in range(0, rows, step):
        acc = aw[r0:r0 + step, 0, None] & bw[:, 0]
        for w in range(1, aw.shape[1]):
            acc ^= aw[r0:r0 + step, w, None] & bw[:, w]
        for shift in (32, 16, 8, 4, 2, 1):
            acc ^= acc >> np.uint64(shift)
        out[r0:r0 + step] = acc & np.uint64(1)
    return out


class Rref(NamedTuple):
    """Result of Gauss-Jordan elimination."""

    reduced: np.ndarray
    rank: int
    pivot_cols: list


def rref(m) -> Rref:
    """Reduced row-echelon form over GF(2).

    Pivots are eliminated both above and below, so the pivot columns of the
    result are standard basis vectors.  The input is not modified.

    Returns:
        ``Rref(reduced, rank, pivot_cols)`` where ``pivot_cols`` lists the
        pivot column indices in increasing order.
    """
    m = as_bits(m)
    rows, cols = m.shape
    reduced, leads = _rref_rows(pack_rows(m))
    return Rref(unpack_rows(reduced + [0] * (rows - len(reduced)), cols),
                len(leads), [cols - 1 - lead for lead in leads])


def rank(m) -> int:
    """Rank of ``m`` over GF(2)."""
    return rank_rows(pack_rows(m))


def kernel_basis(m) -> np.ndarray:
    """Basis for the right kernel ``{v : m @ v = 0}`` as matrix rows.

    Returns:
        A ``(cols - rank, cols)`` matrix whose rows are linearly independent
        and span the kernel.  Rows are emitted in order of increasing free
        column, so the result is deterministic.
    """
    m = as_bits(m)
    return unpack_rows(kernel_rows(pack_rows(m), m.shape[1]), m.shape[1])


def solve(m, y) -> Optional[np.ndarray]:
    """Solve ``m @ x = y`` over GF(2).

    Args:
        m: coefficient matrix, shape (r, c).
        y: right-hand side of length r.

    Returns:
        One solution ``x`` (free variables set to zero), or ``None`` when the
        system is inconsistent.

    Raises:
        ValueError: if the length of ``y`` does not match the row count.
    """
    m = as_bits(m)
    y = as_bits(np.reshape(y, (-1, 1)))
    if y.shape[0] != m.shape[0]:
        raise ValueError(f"rhs length {y.shape[0]} does not match {m.shape[0]} rows")
    # y is the last column of the augmented rows, their bit 0.
    reduced, leads = _rref_rows(pack_rows(np.hstack([m, y])))
    if leads and leads[-1] == 0:
        return None
    x = np.zeros(m.shape[1], dtype=np.uint8)
    for row, lead in zip(reduced, leads):
        x[m.shape[1] - lead] = row & 1
    return x


def inverse(m) -> np.ndarray:
    """Inverse of a square matrix over GF(2).

    Raises:
        ValueError: if ``m`` is not square or is singular.
    """
    m = as_bits(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError(f"matrix {m.shape} is not square")
    inv = _inverse_rows(pack_rows(m))
    if inv is None:
        raise ValueError("matrix is singular")
    return unpack_rows(inv, n)


def dual_complete(p, g) -> tuple:
    """Complete a parity-check/generator pair to a full dual basis.

    Given a full-rank parity check ``p`` ((n-k) x n) and a full-rank
    generator ``g`` (k x n) with ``p @ g.T = 0``, produce the two complement
    matrices ``(p_c, g_c)`` satisfying the four pairing identities

        p   @ g.T   = 0        p_c @ g.T   = I_k
        p   @ g_c.T = I_(n-k)  p_c @ g_c.T = 0

    The construction is deterministic: rows of ``p`` are greedily extended
    to a basis of the full space with standard basis vectors (lowest index
    first), the extension is dualized by matrix inversion, and the k x k
    block is re-based so that ``p_c`` pairs with the given ``g`` rather than
    with an arbitrary generator of the same code.

    Returns:
        ``(p_c, g_c)`` with shapes (k, n) and (n-k, n).

    Raises:
        ValueError: if shapes are inconsistent, either input is rank
            deficient, or ``p @ g.T != 0``.
    """
    p = as_bits(p)
    g = as_bits(g)
    n = p.shape[1]
    if g.shape[1] != n:
        raise ValueError(f"column counts differ: {p.shape} vs {g.shape}")
    if p.shape[0] + g.shape[0] != n:
        raise ValueError(
            f"row counts {p.shape[0]} + {g.shape[0]} do not add up to {n} columns"
        )
    p_c, g_c = dual_complete_rows(pack_rows(p), pack_rows(g), n)
    return unpack_rows(p_c, n), unpack_rows(g_c, n)
