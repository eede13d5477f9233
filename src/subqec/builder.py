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

Each generator family is the outer products of a block of code 1's rows
with a block of code 2's rows, and is stored once, as a read-only
(g, n1, n2) uint8 stack built on first access: Z-type families hold z
bits and X-type families x bits.

    family                      code 1 rows   code 2 rows
    z_stabilizer_bits           P1            G2
    z_gauge_bits                P1            G2_c
    logical_z_bits              C1_c          G2
    x_stabilizer_bits           G1            P2
    x_gauge_bits                G1_c          P2
    logical_x_bits              G1            C2_c

These are the quadrants of the two bases above.  The public lists of
:class:`PauliGrid` are views of the stacks' rows, also built on first
access, so construction builds no stack at all.

The group structure follows from ``D_i E_i^T = I`` for each factor,
which a :class:`LinearCode` checks when it is built, so the constructors
check nothing.  The symplectic product of a Z-type outer(u, v) with an
X-type outer(u', v') is (u . u')(v . v'): the parity of their overlap.
So the commutation matrix of the Z-type basis outer(D1, E2) with the
X-type basis outer(E1, D2) is (D1 E1^T) x (E2 D2^T) = I, and each Z-type
basis element anticommutes with its own X-type partner alone: the
stabilizers have their partners outside the generators and commute with
everything, and the gauge and logical operators pair off in order.  The
generators are rows of the invertible D1 x E2 and E1 x D2, so they are
independent, and the counts fill the grid.  The Gram check on the stacks
themselves, ``gram_check`` in ``tests/references.py``, is the tests'
reference.

The ``PauliGrid`` annotations name a class this module imports only where
it is used, so ``typing.get_type_hints`` resolves them with
``localns={"PauliGrid": subqec.PauliGrid}``.

The Shor-style variant measures a column-local Z check outer(P1[a], e_j)
for every column j instead of spreading checks over codewords of code 2
(the argument above holds with the identity as code 2's basis); it
encodes the same logical qubits with the same logical operators and no
gauge qubits, but needs (n1-k1)*n2 + k1*(n2-k2) stabilizers instead of
(n1-k1)*k2 + k1*(n2-k2).  Its Z stabilizers span P1 x I, which meets the
span of its logical Z outer(C1_c, G2) only in 0 as D1 is invertible, and
they commute with every X-type generator outer(G1, .) as P1 G1^T = 0.
"""

from __future__ import annotations

import functools
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
    return u[:, None, :, None] & v[None, :, None, :]


def _stack(grids: np.ndarray) -> np.ndarray:
    """A (..., n1, n2) stack of bit grids as one read-only (g, n1, n2)
    array, in C order."""
    out = np.ascontiguousarray(grids).reshape(-1, *grids.shape[-2:])
    out.setflags(write=False)
    return out


def _stabilizer_counts(n1: int, k1: int, n2: int, k2: int,
                       shor: bool = False) -> tuple:
    """(Z, X) stabilizer generator counts of the grid code on an [n1, k1]
    and an [n2, k2] factor: outer(P1, G2) (Shor: a check of code 1 per
    column) and outer(G1, P2)."""
    return (n1 - k1) * (n2 if shor else k2), k1 * (n2 - k2)


def _bits(define, doc: str) -> functools.cached_property:
    """A stack attribute, ``define(c1, c2)`` made read-only, built on first
    access."""
    def bits(self) -> np.ndarray:
        return _stack(define(self.c1, self.c2))
    bits.__doc__ = doc
    return functools.cached_property(bits)


def _no_gauges(c1: LinearCode, c2: LinearCode) -> np.ndarray:
    return np.zeros((0, c1.n, c2.n), np.uint8)


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

    The generators are independent and form a symplectic basis of the
    grid's Paulis, with the stabilizers commuting with everything and the
    gauge and logical operators in canonically conjugate (Z, X) pairs:
    this follows from the factors' own dual bases (module docstring), so
    the constructor checks only that both factors are LinearCodes.
    """

    shor = False

    def __init__(self, c1: LinearCode, c2: LinearCode):
        for name, c in (("c1", c1), ("c2", c2)):
            if not isinstance(c, LinearCode):
                raise ValueError(f"{name} must be a LinearCode, not "
                                 f"{type(c).__name__}")
        self.c1 = c1
        self.c2 = c2
        self.n1, self.n2 = c1.n, c2.n
        self.n = c1.n * c2.n
        self.k = c1.k * c2.k
        self.gauge_qubits = 0 if self.shor else (c1.n - c1.k) * (c2.n - c2.k)
        s_z, s_x = self.stabilizer_counts
        _log_debug(__name__, "built %r: %d Z + %d X stabilizers, %d gauge "
                   "pairs, %d logical pairs", self, s_z, s_x,
                   self.gauge_qubits, self.k)

    # -- generator access ------------------------------------------------

    z_stabilizer_bits = _bits(lambda c1, c2: _outer(c1.check, c2.generator),
                              "Z stabilizers: outer(P1, G2).")
    z_gauge_bits = _bits(
        lambda c1, c2: _outer(c1.check, c2.generator_complement),
        "Z gauges: outer(P1, G2_c).")
    logical_z_bits = _bits(
        lambda c1, c2: _outer(c1.check_complement, c2.generator),
        "Logical Z: outer(C1_c, G2).")
    x_stabilizer_bits = _bits(lambda c1, c2: _outer(c1.generator, c2.check),
                              "X stabilizers: outer(G1, P2).")
    x_gauge_bits = _bits(
        lambda c1, c2: _outer(c1.generator_complement, c2.check),
        "X gauges: outer(G1_c, P2).")
    logical_x_bits = _bits(
        lambda c1, c2: _outer(c1.generator, c2.check_complement),
        "Logical X: outer(G1, C2_c).")

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
    def stabilizer_counts(self) -> tuple:
        """(Z, X) stabilizer generator counts, from the factors' sizes
        alone, so no stack is built."""
        return _stabilizer_counts(self.n1, self.c1.k, self.n2, self.c2.k,
                                  self.shor)

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
    def distance(self) -> Optional[int]:
        """min(d1, d2) as the factors know it now; None if one is unknown."""
        d1, d2 = self.c1.d, self.c2.d
        return None if d1 is None or d2 is None else min(d1, d2)

    @property
    def _stages(self) -> tuple:
        """(decoding factor, partner) of the bit-flip stage, then of the
        phase-flip stage: code 1 decodes columns and code 2 rows."""
        return (self.c1, self.c2), (self.c2, self.c1)

    @property
    def params(self) -> tuple:
        return (self.n, self.k, self.distance)

    def __repr__(self):
        d = self.distance if self.distance is not None else "?"
        return (f"<{type(self).__name__} [[{self.n},{self.k},{d}]] on "
                f"{self.n1}x{self.n2}>")

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
        """Membership of ``op`` in the gauge group, up to phase.  A
        ShorCode's group is its stabilizer group: its column checks span
        both Z blocks of rows ``[:r1]`` and detect any X gauge block."""
        dec = self.decompose(op)
        return dec.is_gauge() and not (self.shor and dec.x_gauge.any())


class ShorCode(SubsystemCode):
    """Shor-style subspace code: same grid, same X stabilizers and logicals,
    column-local Z checks for every column of the grid and no gauge
    qubits."""

    shor = True

    z_stabilizer_bits = _bits(
        lambda c1, c2: _outer(c1.check, np.eye(c2.n, dtype=np.uint8))
        .swapaxes(0, 1),
        "Z stabilizers: outer(P1[a], e_j), column j then check row a.")
    z_gauge_bits = _bits(_no_gauges, "None: no gauge qubits.")
    x_gauge_bits = _bits(_no_gauges, "None: no gauge qubits.")

    @property
    def _stages(self) -> tuple:
        """Refused: each stage reads ``P1 x G2^T``, not the checks ``P1 x``."""
        raise ValueError("no decoder for a ShorCode: recovery reads the "
                         "subsystem syndrome, not its column checks")
