"""Build subsystem and Shor-style grid codes from two classical codes.

Qubits live on an n1 x n2 grid.  Code 1 runs down the columns and protects
against bit flips; code 2 runs along the rows and protects against phase
flips.  Each code carries a basis E = [G_c; G] and its dual D = [P; C_c],
D E^T = I, where P/G are its check/generator matrices and C_c/G_c their
dual complements (see :mod:`subqec.classical`).  Their outer products are the
grid's Z-type basis outer(D1[a], E2[b]) and X-type basis outer(E1[a], D2[b]).
A grid Pauli (z, x) has the coordinates Zc = E1 z D2^T and Xc = D1 x E2^T
along them, and z = D1^T Zc E2, x = E1^T Xc D2.  With r = n - k, each index
quadrant holds at most one generator family of each type, and the
coordinates in it are one block of :class:`PauliDecomposition`:

    quadrant     Z-type basis    Zc block     X-type basis    Xc block
    [:r1, :r2]   Z gauges        z_gauge      X gauges        x_gauge
    [:r1, r2:]   Z stabilizers   z_stab       -               x_detect
    [r1:, :r2]   -               z_detect     X stabilizers   x_stab
    [r1:, r2:]   logical Z       z_logical    logical X       x_logical

Z-type element (a,b) anticommutes only with X-type element (a,b).  So
``z_detect`` / ``x_detect`` are the X- / Z-stabilizer syndromes, the
stabilizer and gauge blocks act trivially on the encoded qubits, and the
logical blocks are encoded errors.

Each generator family is stored once, as a read-only (g, n1, n2) uint8
stack sliced from those two products: Z-type families hold z bits and
X-type families x bits.  The public lists of :class:`PauliGrid` are views
of the stacks' rows, built on first access.

The constructors check the group structure without the algebra above,
from the stacks alone (see :meth:`SubsystemCode._verify`).  A Z-type and
an X-type generator anticommute exactly when their bit grids overlap in an
odd number of sites, and two generators of the same type always commute,
so every commutation relation sits in one block

    B = [Z stabilizers; Z gauges; logical Z] [X stabilizers; X gauges; logical X]^T

over the grid's n sites, which must be [[0, 0], [0, I_p]].  Given that
pattern, the generators are independent exactly when the Z stabilizers
and the X stabilizers each are, so only the stabilizer rows are ranked.

The Shor-style variant measures a column-local Z check for every column
instead of spreading checks over codewords of code 2; it encodes the same
logical qubits with the same logical operators and no gauge qubits, but
needs (n1-k1)*n2 + k1*(n2-k2) stabilizers instead of (n1-k1)*k2 + k1*(n2-k2).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import gf2
from .classical import LinearCode, _log_debug

if TYPE_CHECKING:  # imported where used, so construction skips it
    from .pauli import PauliGrid


@dataclass(frozen=True, eq=False)
class PauliDecomposition:
    """Coefficient blocks of a grid Pauli along the grid's two bases: the
    quadrants of its coordinates (module docstring), so ``z_stab`` is
    (n1-k1) x k2, ``z_detect`` k1 x (n2-k2), ``x_detect`` (n1-k1) x k2,
    ``x_stab`` k1 x (n2-k2), both gauge blocks (n1-k1) x (n2-k2) and both
    logical blocks k1 x k2.
    """

    z_stab: np.ndarray
    z_gauge: np.ndarray
    z_logical: np.ndarray
    z_detect: np.ndarray
    x_stab: np.ndarray
    x_gauge: np.ndarray
    x_logical: np.ndarray
    x_detect: np.ndarray
    phase: int

    def is_gauge(self) -> bool:
        """True when only stabilizer/gauge blocks are populated."""
        return not (self.z_logical.any() or self.z_detect.any()
                    or self.x_logical.any() or self.x_detect.any())


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Every outer product of a row of ``u`` with a row of ``v``, stacked as
    (rows(u), rows(v), n1, n2) bit grids."""
    return np.einsum("ai,bj->abij", u, v)


def _stack(grids: np.ndarray) -> np.ndarray:
    """A (..., n1, n2) stack of bit grids as one read-only (g, n1, n2)
    array, in C order."""
    out = np.ascontiguousarray(grids).reshape(-1, *grids.shape[-2:])
    out.setflags(write=False)
    return out


def _paulis(bits: np.ndarray, x_type: bool) -> list:
    """One Z-type (or X-type) PauliGrid per row of a read-only stack; the
    rows are wrapped as they are, since the stack holds only 0/1."""
    from .pauli import PauliGrid

    zero = np.zeros(bits.shape[1:], np.uint8)
    zero.setflags(write=False)
    wrap = PauliGrid._wrap
    return [wrap(zero, g) if x_type else wrap(g, zero) for g in bits]


def _family(bits: str, x_type: bool, doc: str) -> functools.cached_property:
    """A list attribute of PauliGrid views of the stack held in attribute
    ``bits``, built on first access."""
    def views(self) -> list:
        return _paulis(getattr(self, bits), x_type)
    views.__doc__ = doc
    return functools.cached_property(views)


class SubsystemCode:
    """Subsystem code on an n1 x n2 grid built from two classical codes.

    The constructor verifies the group structure from the generator stacks
    (see :meth:`_verify`): the generators must be independent and form a
    symplectic basis of the grid's Paulis, with the stabilizers commuting
    with everything and the gauge and logical operators in canonically
    conjugate (Z, X) pairs.
    """

    shor = False

    def __init__(self, c1: LinearCode, c2: LinearCode):
        z_basis, x_basis = self._init_shared(c1, c2)
        r1, r2 = c1.n - c1.k, c2.n - c2.k
        self.gauge_qubits = r1 * r2
        self.z_stabilizer_bits = _stack(z_basis[:r1, r2:])
        self.z_gauge_bits = _stack(z_basis[:r1, :r2])
        self.x_gauge_bits = _stack(x_basis[:r1, :r2])
        self._verify()

    def _init_shared(self, c1: LinearCode, c2: LinearCode) -> tuple:
        """Parameters, X stabilizers and logical operators, which the
        subsystem and Shor-style codes share.  Returns the Z-type and X-type
        basis stacks."""
        self.c1 = c1
        self.c2 = c2
        self.n1, self.n2 = c1.n, c2.n
        self.n = c1.n * c2.n
        self.k = c1.k * c2.k
        self.distance: Optional[int] = None
        if c1.d is not None and c2.d is not None:
            self.distance = min(c1.d, c2.d)
        r1, r2 = c1.n - c1.k, c2.n - c2.k
        z_basis = _outer(c1.dual_basis, c2.basis)
        x_basis = _outer(c1.basis, c2.dual_basis)
        self.x_stabilizer_bits = _stack(x_basis[r1:, :r2])
        self.logical_x_bits = _stack(x_basis[r1:, r2:])
        self.logical_z_bits = _stack(z_basis[r1:, r2:])
        return z_basis, x_basis

    # -- generator access ------------------------------------------------

    z_stabilizers = _family("z_stabilizer_bits", False,
                            "Z-type stabilizer generators.")
    x_stabilizers = _family("x_stabilizer_bits", True,
                            "X-type stabilizer generators.")
    z_gauges = _family("z_gauge_bits", False,
                       "Z-type gauge generators, paired in order with "
                       "``x_gauges``.")
    x_gauges = _family("x_gauge_bits", True, "X-type gauge generators.")

    def _by_logical_qubit(self, ops: list) -> list:
        k2 = self.c2.k
        return [ops[i * k2:(i + 1) * k2] for i in range(self.c1.k)]

    @functools.cached_property
    def logical_x(self) -> list:
        """``logical_x[i][j]`` is the encoded X of logical qubit (i, j)."""
        return self._by_logical_qubit(_paulis(self.logical_x_bits, True))

    @functools.cached_property
    def logical_z(self) -> list:
        """``logical_z[i][j]`` is the encoded Z of logical qubit (i, j)."""
        return self._by_logical_qubit(_paulis(self.logical_z_bits, False))

    @property
    def stabilizers(self) -> list:
        """All stabilizer generators, Z-type first."""
        return self.z_stabilizers + self.x_stabilizers

    @property
    def gauge_pairs(self) -> list:
        """Canonically conjugate (Z, X) gauge generator pairs."""
        return list(zip(self.z_gauges, self.x_gauges))

    @property
    def gauges(self) -> list:
        return self.z_gauges + self.x_gauges

    @property
    def logicals(self) -> list:
        out = []
        for i in range(self.c1.k):
            for j in range(self.c2.k):
                out.append(self.logical_x[i][j])
                out.append(self.logical_z[i][j])
        return out

    @property
    def params(self) -> tuple:
        return (self.n, self.k, self.distance)

    def __repr__(self):
        d = self.distance if self.distance is not None else "?"
        kind = "ShorCode" if self.shor else "SubsystemCode"
        return f"<{kind} [[{self.n},{self.k},{d}]] on {self.n1}x{self.n2}>"

    # -- decomposition ---------------------------------------------------

    def decompose(self, op: PauliGrid) -> PauliDecomposition:
        """Split ``op`` into its eight coefficient blocks: the quadrants of
        its coordinates ``E1 z D2^T`` and ``D1 x E2^T``."""
        if op.shape != (self.n1, self.n2):
            raise ValueError(f"operator shape {op.shape} is not "
                             f"({self.n1},{self.n2})")
        c1, c2 = self.c1, self.c2
        r1, r2 = c1.n - c1.k, c2.n - c2.k
        mm = gf2.mat_mul
        zc = mm(mm(c1.basis, op.z), c2.dual_basis.T)
        xc = mm(mm(c1.dual_basis, op.x), c2.basis.T)
        return PauliDecomposition(
            z_stab=zc[:r1, r2:], z_gauge=zc[:r1, :r2],
            z_logical=zc[r1:, r2:], z_detect=zc[r1:, :r2],
            x_stab=xc[r1:, :r2], x_gauge=xc[:r1, :r2],
            x_logical=xc[r1:, r2:], x_detect=xc[:r1, r2:],
            phase=op.phase,
        )

    def recompose(self, dec: PauliDecomposition) -> PauliGrid:
        """Rebuild the grid Pauli from its coefficient blocks."""
        from .pauli import PauliGrid

        c1, c2 = self.c1, self.c2
        mm = gf2.mat_mul
        zc = np.block([[dec.z_gauge, dec.z_stab], [dec.z_detect, dec.z_logical]])
        xc = np.block([[dec.x_gauge, dec.x_detect], [dec.x_stab, dec.x_logical]])
        z = mm(mm(c1.dual_basis.T, zc), c2.basis)
        x = mm(mm(c1.basis.T, xc), c2.dual_basis)
        return PauliGrid(z, x, dec.phase)

    def contains_gauge(self, op: PauliGrid) -> bool:
        """Membership of ``op`` in the gauge group, up to phase."""
        return self.decompose(op).is_gauge()

    # -- verification ----------------------------------------------------

    def _symplectic_rows(self, ops) -> np.ndarray:
        return np.array(
            [np.concatenate([op.z.ravel(), op.x.ravel()]) for op in ops],
            dtype=np.uint8).reshape(len(ops), 2 * self.n)

    def _verify(self):
        """Check the generator stacks with one GF(2) product and two ranks.

        Z-type generators carry only z bits and X-type ones only x bits, so
        the whole commutation matrix of the generators is fixed by one
        block: with the Z rows ``[Z stabilizers; Z gauges; logical Z]`` and
        the X rows ``[X stabilizers; X gauges; logical X]`` flattened over
        the grid's n sites, ``B = Z X^T``.  It must be ``[[0, 0], [0, I_p]]``:
        the stabilizers commute with everything, and the p gauge and
        logical operators pair off in order into conjugate (Z, X) pairs.
        The counts must fill the grid, ``s_z + s_x + p = n``.

        All rows are then independent exactly when the stabilizers of each
        type are: in any dependency among the rows, the symplectic product
        with a paired operator's partner reads off that operator's
        coefficient, which must therefore be 0, and what is left splits
        into a Z-type and an X-type sum of stabilizers.  So only
        ``rank(Z stabilizers) = s_z`` and ``rank(X stabilizers) = s_x`` are
        checked, and the rows form a symplectic basis of the grid's Paulis.
        """
        start = time.perf_counter()
        n = self.n
        z_stab = self.z_stabilizer_bits.reshape(-1, n)
        x_stab = self.x_stabilizer_bits.reshape(-1, n)
        z_rows = np.concatenate([z_stab, self.z_gauge_bits.reshape(-1, n),
                                 self.logical_z_bits.reshape(-1, n)])
        x_rows = np.concatenate([x_stab, self.x_gauge_bits.reshape(-1, n),
                                 self.logical_x_bits.reshape(-1, n)])
        s_z, s_x = len(z_stab), len(x_stab)
        p = len(z_rows) - s_z
        if s_z + s_x + p != n:
            raise ValueError(
                "internal error: stabilizer and partner counts do not fill "
                "the grid")
        b = gf2.mat_mul(z_rows, x_rows.T)
        want = np.zeros((s_z + p, s_x + p), np.uint8)
        want[s_z:, s_x:] = np.eye(p, dtype=np.uint8)
        if not np.array_equal(b, want):
            raise ValueError(
                "internal error: commutation relations break the stabilizer "
                "/ conjugate-pair pattern")
        if gf2.rank(z_stab) != s_z or gf2.rank(x_stab) != s_x:
            raise ValueError("internal error: generators are dependent")
        _log_debug(__name__, "verified %r: %d Z + %d X stabilizers, %d gauge "
                   "pairs, %d logical pairs in %.2f ms", self, s_z, s_x,
                   len(self.z_gauge_bits), len(self.logical_z_bits),
                   1e3 * (time.perf_counter() - start))


class ShorCode(SubsystemCode):
    """Shor-style subspace code: same grid, same X stabilizers and logicals,
    column-local Z checks for every column of the grid and no gauge
    qubits."""

    shor = True

    def __init__(self, c1: LinearCode, c2: LinearCode):
        self._init_shared(c1, c2)
        self.gauge_qubits = 0
        # Column j, then check row a: z = outer(P1[a], e_j).
        self.z_stabilizer_bits = _stack(
            _outer(c1.check, np.eye(c2.n, dtype=np.uint8)).swapaxes(0, 1))
        self.z_gauge_bits = self.x_gauge_bits = _stack(
            np.zeros((0, self.n1, self.n2), np.uint8))
        self._verify()
