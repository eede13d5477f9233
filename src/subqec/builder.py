"""Build subsystem and Shor-style grid codes from two classical codes.

Qubits live on an n1 x n2 grid.  Code 1 runs down the columns and protects
against bit flips; code 2 runs along the rows and protects against phase
flips.  Writing P/G for check/generator matrices and P_c/G_c for their dual
complements (see :mod:`subqec.classical`), the generating sets are outer
products:

    Z stabilizer (a,b):  z = outer(P1[a],  G2[b])     a < n1-k1, b < k2
    X stabilizer (a,b):  x = outer(G1[a],  P2[b])     a < k1,    b < n2-k2
    Z gauge      (a,b):  z = outer(P1[a],  G2_c[b])   a < n1-k1, b < n2-k2
    X gauge      (a,b):  x = outer(G1_c[a], P2[b])    same index range
    logical X    (i,j):  x = outer(G1[i],  P2_c[j])   i < k1,    j < k2
    logical Z    (i,j):  z = outer(P1_c[i], G2[j])    same index range

Each family is built as one stack of outer products, and the constructors
check the whole group structure with one symplectic Gram matrix over all
generators plus one rank computation (see :meth:`SubsystemCode._verify`).

Every Pauli on the grid splits into eight coefficient blocks along this
double dual basis (:class:`PauliDecomposition`); the stabilizer and gauge
blocks act trivially on the encoded qubits, the detect blocks are what the
stabilizers can see, and the logical blocks are encoded errors.

The Shor-style variant measures a column-local Z check for every column
instead of spreading checks over codewords of code 2; it encodes the same
logical qubits with the same logical operators and no gauge qubits, but
needs (n1-k1)*n2 + k1*(n2-k2) stabilizers instead of (n1-k1)*k2 + k1*(n2-k2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import gf2
from .classical import LinearCode
from .pauli import PauliGrid


@dataclass(frozen=True, eq=False)
class PauliDecomposition:
    """Coefficient blocks of a grid Pauli along the double dual basis.

    Block shapes (k1, k2 from code 1/2):

        z_stab    (n1-k1, k2)      z_gauge   (n1-k1, n2-k2)
        z_logical (k1, k2)         z_detect  (k1, n2-k2)
        x_stab    (k1, n2-k2)      x_gauge   (n1-k1, n2-k2)
        x_logical (k1, k2)         x_detect  (n1-k1, k2)

    ``z_detect`` is exactly the X-stabilizer syndrome of the operator and
    ``x_detect`` the Z-stabilizer syndrome.
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


def _paulis(grids: np.ndarray, x_type: bool) -> list:
    """One Z-type (or X-type) PauliGrid per grid of a (..., n1, n2) stack,
    in C order."""
    zero = np.zeros(grids.shape[-2:], np.uint8)
    flat = grids.reshape(-1, *grids.shape[-2:])
    return [PauliGrid(zero, g) if x_type else PauliGrid(g, zero) for g in flat]


class SubsystemCode:
    """Subsystem code on an n1 x n2 grid built from two classical codes.

    The constructor verifies the group structure with one symplectic Gram
    matrix (see :meth:`_verify`): the generators must be independent and
    form a symplectic basis of the grid's Paulis, with the stabilizers
    commuting with everything and the gauge and logical operators in
    canonically conjugate (Z, X) pairs.
    """

    shor = False

    def __init__(self, c1: LinearCode, c2: LinearCode):
        self._init_shared(c1, c2)
        p1, p2 = c1.check, c2.check
        self.gauge_qubits = (c1.n - c1.k) * (c2.n - c2.k)
        self.z_stabilizers = _paulis(_outer(p1, c2.generator), x_type=False)
        self.z_gauges = _paulis(_outer(p1, c2.generator_complement),
                                x_type=False)
        self.x_gauges = _paulis(_outer(c1.generator_complement, p2),
                                x_type=True)
        self._verify()

    def _init_shared(self, c1: LinearCode, c2: LinearCode) -> None:
        """Parameters, X stabilizers and logical operators, which the
        subsystem and Shor-style codes share."""
        self.c1 = c1
        self.c2 = c2
        self.n1, self.n2 = c1.n, c2.n
        self.n = c1.n * c2.n
        self.k = c1.k * c2.k
        self.distance: Optional[int] = None
        if c1.d is not None and c2.d is not None:
            self.distance = min(c1.d, c2.d)
        g1 = c1.generator
        self.x_stabilizers = _paulis(_outer(g1, c2.check), x_type=True)
        self.logical_x = [_paulis(row, x_type=True)
                          for row in _outer(g1, c2.check_complement)]
        self.logical_z = [_paulis(row, x_type=False)
                          for row in _outer(c1.check_complement, c2.generator)]

    # -- generator access ------------------------------------------------

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
        """Split ``op`` into its eight coefficient blocks."""
        if op.shape != (self.n1, self.n2):
            raise ValueError(f"operator shape {op.shape} is not "
                             f"({self.n1},{self.n2})")
        c1, c2 = self.c1, self.c2
        a, b = op.z, op.x
        mm = gf2.mat_mul
        return PauliDecomposition(
            z_stab=mm(mm(c1.generator_complement, a), c2.check_complement.T),
            z_gauge=mm(mm(c1.generator_complement, a), c2.check.T),
            z_logical=mm(mm(c1.generator, a), c2.check_complement.T),
            z_detect=mm(mm(c1.generator, a), c2.check.T),
            x_stab=mm(mm(c1.check_complement, b), c2.generator_complement.T),
            x_gauge=mm(mm(c1.check, b), c2.generator_complement.T),
            x_logical=mm(mm(c1.check_complement, b), c2.generator.T),
            x_detect=mm(mm(c1.check, b), c2.generator.T),
            phase=op.phase,
        )

    def recompose(self, dec: PauliDecomposition) -> PauliGrid:
        """Rebuild the grid Pauli from its coefficient blocks."""
        c1, c2 = self.c1, self.c2
        mm = gf2.mat_mul
        z = (mm(mm(c1.check.T, dec.z_stab), c2.generator)
             ^ mm(mm(c1.check.T, dec.z_gauge), c2.generator_complement)
             ^ mm(mm(c1.check_complement.T, dec.z_logical), c2.generator)
             ^ mm(mm(c1.check_complement.T, dec.z_detect),
                  c2.generator_complement))
        x = (mm(mm(c1.generator.T, dec.x_stab), c2.check)
             ^ mm(mm(c1.generator_complement.T, dec.x_gauge), c2.check)
             ^ mm(mm(c1.generator.T, dec.x_logical), c2.check_complement)
             ^ mm(mm(c1.generator_complement.T, dec.x_detect),
                  c2.check_complement))
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
        """Check the generators with one symplectic Gram matrix.

        Rows are the stabilizers, then the Z partners (Z gauges, then the
        logical Z operators), then the X partners (X gauges, then the
        logical X operators, in the same order).  With ``M = Z X^T`` over
        the rows' Z and X parts, ``M xor M^T`` is the commutation matrix;
        it must be ``[[0,0,0],[0,0,I],[0,I,0]]``.  The stabilizers and the
        Z partners must number ``n`` and all rows must be independent, so
        the rows form a symplectic basis of the grid's Paulis.
        """
        stab = self.stabilizers
        z_partners = self.z_gauges + [op for row in self.logical_z for op in row]
        x_partners = self.x_gauges + [op for row in self.logical_x for op in row]
        s, p = len(stab), len(z_partners)
        if s + p != self.n:
            raise ValueError(
                "internal error: stabilizer and partner counts do not fill "
                "the grid")
        rows = self._symplectic_rows(stab + z_partners + x_partners)
        m = gf2.mat_mul(rows[:, :self.n], rows[:, self.n:].T)
        want = np.zeros((s + 2 * p, s + 2 * p), np.uint8)
        want[s:s + p, s + p:] = want[s + p:, s:s + p] = np.eye(p, dtype=np.uint8)
        if not np.array_equal(m ^ m.T, want):
            raise ValueError(
                "internal error: commutation relations break the stabilizer "
                "/ conjugate-pair pattern")
        if gf2.rank(rows) != len(rows):
            raise ValueError("internal error: generators are dependent")


class ShorCode(SubsystemCode):
    """Shor-style subspace code: same grid, same X stabilizers and logicals,
    column-local Z checks for every column of the grid and no gauge
    qubits."""

    shor = True

    def __init__(self, c1: LinearCode, c2: LinearCode):
        self._init_shared(c1, c2)
        self.gauge_qubits = 0
        # Column j, then check row a: z = outer(P1[a], e_j).
        self.z_stabilizers = _paulis(
            _outer(c1.check, np.eye(c2.n, dtype=np.uint8)).swapaxes(0, 1),
            x_type=False)
        self.z_gauges = []
        self.x_gauges = []
        self._verify()
