"""Pauli operators on a rectangular grid of qubits, in binary exponent form.

An operator is ``i**phase * prod_sites Z^z[r,c] X^x[r,c]`` where ``z`` and
``x`` are 0/1 matrices of the grid shape and ``phase`` is an exponent of i
modulo 4.  A site with z = x = 1 is Y up to the tracked phase (the literal
single-qubit Y is i**3 * Z X).

Phases are tracked exactly through multiplication but carry no error
information: syndrome extraction and recovery ignore them.
"""

from __future__ import annotations

import numpy as np

from .gf2 import _require_int, as_bits

_SITE_CHARS = "IXZY"  # index = 2*z + x


class PauliGrid:
    __slots__ = ("z", "x", "phase")

    def __init__(self, z, x, phase: int = 0):
        z = np.asarray(z)
        x = np.asarray(x)
        if z.ndim != 2 or z.shape != x.shape:
            raise ValueError(f"z/x shapes {z.shape} and {x.shape} must match")
        # as_bits may return the caller's array, which must stay writable.
        self.z = as_bits(z).copy()
        self.x = as_bits(x).copy()
        self.z.setflags(write=False)
        self.x.setflags(write=False)
        self.phase = _require_int("phase", phase) % 4

    @classmethod
    def _wrap(cls, z: np.ndarray, x: np.ndarray) -> "PauliGrid":
        """A phase-0 operator over two read-only 0/1 uint8 grids, taken as
        they are: no copy and no 0/1 check."""
        op = object.__new__(cls)
        op.z, op.x, op.phase = z, x, 0
        return op

    @classmethod
    def identity(cls, rows: int, cols: int) -> "PauliGrid":
        return cls(np.zeros((rows, cols), np.uint8), np.zeros((rows, cols), np.uint8))

    @classmethod
    def single(cls, rows: int, cols: int, r: int, c: int, kind: str) -> "PauliGrid":
        """A single-site X, Y, or Z (Y carries phase 3 so it is literal Y)."""
        # numpy would read True as a new axis, marking a whole row.
        r, c = _require_int("row", r), _require_int("column", c)
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"site ({r},{c}) outside {rows}x{cols} grid")
        if kind not in ("X", "Y", "Z"):
            raise ValueError(f"kind must be X, Y or Z, not {kind!r}")
        z = np.zeros((rows, cols), np.uint8)
        x = np.zeros((rows, cols), np.uint8)
        z[r, c], x[r, c] = divmod(_SITE_CHARS.index(kind), 2)
        return cls(z, x, 3 if kind == "Y" else 0)

    @property
    def shape(self) -> tuple:
        return self.z.shape

    def weight(self) -> int:
        """Number of sites acted on non-trivially."""
        return int(np.count_nonzero(self.z | self.x))

    def commutes(self, other: "PauliGrid") -> bool:
        if not isinstance(other, PauliGrid):
            raise TypeError(f"commutes() takes a PauliGrid, not "
                            f"{type(other).__name__!r}")
        if self.shape != other.shape:
            raise ValueError(f"grid shapes differ: {self.shape} vs {other.shape}")
        t = int(np.count_nonzero(self.z & other.x)) + int(
            np.count_nonzero(self.x & other.z))
        return t % 2 == 0

    def __mul__(self, other: "PauliGrid") -> "PauliGrid":
        if not isinstance(other, PauliGrid):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError(f"grid shapes differ: {self.shape} vs {other.shape}")
        # X^b Z^a = (-1)^(ab) Z^a X^b sitewise, hence the extra 2*tr(x z'^T).
        phase = (self.phase + other.phase
                 + 2 * int(np.count_nonzero(self.x & other.z))) % 4
        return PauliGrid(self.z ^ other.z, self.x ^ other.x, phase)

    def same_pauli(self, other: "PauliGrid") -> bool:
        """Equality of the Z/X exponents, ignoring phase."""
        return (isinstance(other, PauliGrid) and self.shape == other.shape
                and np.array_equal(self.z, other.z)
                and np.array_equal(self.x, other.x))

    def __eq__(self, other):
        if not isinstance(other, PauliGrid):
            return NotImplemented
        return self.phase == other.phase and self.same_pauli(other)

    def __hash__(self):
        return hash((self.z.tobytes(), self.x.tobytes(), self.phase, self.shape))

    def mirror(self) -> "PauliGrid":
        """Transpose the grid and swap the Z and X parts."""
        return PauliGrid(self.x.T, self.z.T, self.phase)

    def site(self, r: int, c: int) -> str:
        return _SITE_CHARS[2 * int(self.z[r, c]) + int(self.x[r, c])]

    def to_rows(self) -> list:
        """The grid as a list of I/X/Y/Z strings, one per row."""
        lookup = np.array(list(_SITE_CHARS))
        idx = 2 * self.z.astype(np.intp) + self.x.astype(np.intp)
        return ["".join(row) for row in lookup[idx]]

    def __repr__(self):
        rows = ";".join(self.to_rows())
        return f"<PauliGrid i^{self.phase} {rows}>"
