"""Syndrome extraction, two-stage recovery, and brute-force distance.

Recovery is phase-insensitive and runs in two independent stages: the
Z-stabilizer syndrome is decoded column by column with code 1 and fixes bit
flips, the X-stabilizer syndrome row by row with code 2 and fixes phase
flips.  Success means the residual (error times correction) lies in the
gauge group, i.e. both logical coefficient blocks vanish; the residual is
allowed to move gauge qubits freely.  A ShorCode is refused.

:func:`distance_bruteforce` searches the two Pauli types apart: code 1
detects an operator's X part and code 2 its Z part, so the lightest
undetectable logical is of pure X or pure Z type, and the Z-type search
is the X-type one with the factors swapped.  It scans the distinct
nonzero site signatures of each type, as a lightest operator holds no two
sites of one signature; at each weight it runs over the first signature
in order and tries both types there.  Its guard counts the subsets of
each type's s signatures, ``sum_w C(s, w)``, a bound on what it visits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .builder import SubsystemCode
from .pauli import PauliGrid

DISTANCE_CANDIDATE_GUARD = 10 ** 8


@dataclass(frozen=True, eq=False)
class Syndrome:
    """Measured stabilizer eigenvalue pattern.

    ``s_z`` has one column per Z-stabilizer codeword index (shape
    (n1-k1, k2)); ``s_x`` one row per encoded-X index (shape (k1, n2-k2)).
    """

    s_z: np.ndarray
    s_x: np.ndarray

    def any(self) -> bool:
        return bool(self.s_z.any() or self.s_x.any())


@dataclass(frozen=True, eq=False)
class RecoveryOutcome:
    """Result of :func:`recover`.

    ``residual_z`` / ``residual_x`` are the logical Z / X coefficient blocks
    (each k1 x k2) of error * correction; ``logical_ok`` is True when both
    vanish.
    """

    correction: PauliGrid
    residual_z: np.ndarray
    residual_x: np.ndarray
    logical_ok: bool


def extract_syndrome(code: SubsystemCode, err: PauliGrid) -> Syndrome:
    """Syndrome of ``err`` against the code's stabilizer generators.

    Equivalent to checking anticommutation with every generator, but
    computed directly: s_z = P1 B G2^T from the X part and s_x = G1 A P2^T
    from the Z part.
    """
    (c1, c2), _ = code._stages
    if err.shape != (code.n1, code.n2):
        raise ValueError(f"error shape {err.shape} is not ({code.n1},{code.n2})")
    s_z = (c1.check @ err.x @ c2.generator.T) & 1
    s_x = (c1.generator @ err.z @ c2.check.T) & 1
    return Syndrome(s_z, s_x)


def _decode_stage(s: np.ndarray, dec, spread) -> np.ndarray:
    """Each column of syndrome ``s`` decoded with ``dec``, which checks its
    entries are 0/1, the estimates spread along the rows of ``spread``'s
    check_complement."""
    est = np.array([dec.decode(col) for col in s.T], np.uint8)
    return (est.reshape(spread.k, dec.n).T @ spread.check_complement) & 1


def decode_bitflip(code: SubsystemCode, s_z: np.ndarray) -> PauliGrid:
    """X-type correction for a Z-stabilizer syndrome.

    Each syndrome column is decoded with code 1; the per-column estimates
    are spread back over the grid along the rows of code 2's
    check_complement.
    """
    c1, c2 = code._stages[0]
    s_z = np.asarray(s_z)
    if s_z.shape != (c1.n - c1.k, c2.k):
        raise ValueError(f"s_z shape {s_z.shape} is not "
                         f"({c1.n - c1.k},{c2.k})")
    bx = _decode_stage(s_z, c1, c2)
    return PauliGrid(np.zeros((code.n1, code.n2), np.uint8), bx)


def decode_phaseflip(code: SubsystemCode, s_x: np.ndarray) -> PauliGrid:
    """Z-type correction for an X-stabilizer syndrome (mirror of
    :func:`decode_bitflip`: rows decoded with code 2, spread along code 1's
    check_complement columns)."""
    c2, c1 = code._stages[1]
    s_x = np.asarray(s_x)
    if s_x.shape != (c1.k, c2.n - c2.k):
        raise ValueError(f"s_x shape {s_x.shape} is not "
                         f"({c1.k},{c2.n - c2.k})")
    az = _decode_stage(s_x.T, c2, c1).T
    return PauliGrid(az, np.zeros((code.n1, code.n2), np.uint8))


def recover(code: SubsystemCode, err: PauliGrid) -> RecoveryOutcome:
    """Extract the syndrome, decode both stages, and classify the residual."""
    syn = extract_syndrome(code, err)
    correction = decode_bitflip(code, syn.s_z) * decode_phaseflip(code, syn.s_x)
    residual = err * correction
    dec = code.decompose(residual)
    ok = not dec.z_logical.any() and not dec.x_logical.any()
    return RecoveryOutcome(correction, dec.z_logical, dec.x_logical, ok)


def _spread_columns(m: np.ndarray, width: int) -> list:
    """Column i of ``m`` as an int, row 0 on top, with bit p moved to bit
    ``p * width``."""
    return [sum(1 << p * width for p in range(c.bit_length()) if c >> p & 1)
            for c in gf2._pack(m.T)]


def distance_bruteforce(code: SubsystemCode, w_max: int):
    """Minimum weight of an undetectable logical error, by enumeration.

    An X part is detected by code 1 and a Z part by code 2 alone, so a
    Pauli is an undetectable logical exactly when its X part or its Z part
    is one, and neither part is heavier than the whole: the minimum over
    all Paulis is the minimum over pure X-type and pure Z-type operators.
    Scans weights 1..w_max over the subsets of distinct nonzero site
    signatures with one Pauli type at a time, looking for an operator with
    all-zero syndrome and a nonzero logical coefficient block; weights 1
    and 2 are read off the table of signatures by syndrome.  At each
    weight above 2, the first signature runs in order with both types
    tried there, so a light operator of either type is met as early in
    the scan as the other.  Returns the weight of the first hit (the true
    distance when it is <= w_max) or ``None`` if none exists within the
    bound.  A ``w_max`` above n is read as n: no operator is heavier.

    Raises:
        ValueError: when the ``sum_w C(s, w)`` candidates, over w <= w_max
            and each type's s signatures, exceed ``DISTANCE_CANDIDATE_GUARD``.
    """
    w_max = gf2._require_int("w_max", w_max, 1)
    w_max = min(w_max, code.n)

    c1, c2 = code.c1, code.c2
    # An X at site (i, j) has the detect and logical coordinates
    # D1[:, i] (x) G2[:, j], whose rows below n1-k1 are its Z-stabilizer
    # syndrome.  Each is packed into an int with the syndrome on top of the
    # k1*k2 logical bits, so an operator's signature is the XOR of its
    # sites', and its syndrome is that shifted down.  With columns packed
    # row 0 on top, the signature is spread(D1[:, i], k2) * G2[:, j], where
    # spread moves bit p to bit p * k2; the factor is below 2**k2, so the
    # product carries nowhere, is 0 when a column is and otherwise names
    # both columns.  The Z type is the X type with the factors swapped: a
    # Z at (i, j) has G1[:, i] (x) D2[:, j], whose columns below n2-k2 are
    # its X-stabilizer syndrome, packed as spread(D2[:, j], k1) * G1[:, i].
    # Sites of one signature are interchangeable, and a lightest operator
    # holds at most one of them (two cancel, leaving a lighter operator of
    # the same signature) and none of signature 0.  So each type scans the
    # products of its distinct nonzero columns: on rep(m) x rep(n), m
    # signatures of X type and n of Z type.
    logical = c1.k * c2.k
    tables = []
    for dec, other in ((c1, c2), (c2, c1)):
        cols = [v for v in dict.fromkeys(gf2._pack(other.generator.T)) if v]
        sigs = [u * v for u in dict.fromkeys(
            _spread_columns(dec.dual_basis, other.k)) if u for v in cols]
        # The last site is looked up, not scanned: acc ^ sig has zero
        # syndrome iff sig's syndrome equals acc's, and is nonzero iff
        # sig != acc.
        last_sites: dict = {}
        for s, sig in enumerate(sigs):
            last_sites.setdefault(sig >> logical, []).append((s, sig))
        tables.append((sigs, last_sites))
    total = sum(math.comb(len(sigs), w)
                for sigs, _ in tables for w in range(1, w_max + 1))
    if total > DISTANCE_CANDIDATE_GUARD:
        raise ValueError(f"{total} candidates exceed the guard of "
                         f"{DISTANCE_CANDIDATE_GUARD}; lower w_max")

    # The signatures are distinct and nonzero, so weight 1 is a signature
    # of zero syndrome and weight 2 two signatures of one syndrome.
    if any(0 in last_sites for _, last_sites in tables):
        return 1
    if w_max >= 2 and any(len(last_sites) < len(sigs)
                          for sigs, last_sites in tables):
        return 2

    def scan(sigs, last_sites, start: int, remaining: int, acc: int) -> bool:
        if remaining == 2:
            # The level above the lookup, unrolled: a call per site would
            # cost more than the lookup.
            for s in range(start, len(sigs) - 1):
                a = acc ^ sigs[s]
                for t, sig in last_sites.get(a >> logical, ()):
                    if t > s and sig != a:
                        return True
            return False
        for s in range(start, len(sigs) - remaining + 1):
            if scan(sigs, last_sites, s + 1, remaining - 1, acc ^ sigs[s]):
                return True
        return False

    # Above weight 2, each first signature in turn with both types.
    for w in range(3, w_max + 1):
        for first in range(max(len(sigs) for sigs, _ in tables) - w + 1):
            for sigs, last_sites in tables:
                if first <= len(sigs) - w and scan(
                        sigs, last_sites, first + 1, w - 1, sigs[first]):
                    return w
    return None
