"""Syndrome extraction, two-stage recovery, and brute-force distance.

Recovery is phase-insensitive and runs in two independent stages: the
Z-stabilizer syndrome is decoded column by column with code 1 and fixes bit
flips, the X-stabilizer syndrome row by row with code 2 and fixes phase
flips.  Success means the residual (error times correction) lies in the
gauge group, i.e. both logical coefficient blocks vanish; the residual is
allowed to move gauge qubits freely.
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
    if err.shape != (code.n1, code.n2):
        raise ValueError(f"error shape {err.shape} is not ({code.n1},{code.n2})")
    c1, c2 = code.c1, code.c2
    s_z = (c1.check @ err.x @ c2.generator.T) & 1
    s_x = (c1.generator @ err.z @ c2.check.T) & 1
    return Syndrome(s_z, s_x)


def decode_bitflip(code: SubsystemCode, s_z: np.ndarray) -> PauliGrid:
    """X-type correction for a Z-stabilizer syndrome.

    Each syndrome column is decoded with code 1; the per-column estimates
    are spread back over the grid along the rows of code 2's
    check_complement.
    """
    c1, c2 = code.c1, code.c2
    s_z = np.asarray(s_z, dtype=np.uint8)
    if s_z.shape != (c1.n - c1.k, c2.k):
        raise ValueError(f"s_z shape {s_z.shape} is not "
                         f"({c1.n - c1.k},{c2.k})")
    if c2.k:
        chat = np.stack([c1.decode(s_z[:, b]) for b in range(c2.k)], axis=1)
    else:
        chat = np.zeros((c1.n, 0), np.uint8)
    bx = (chat @ c2.check_complement) & 1
    return PauliGrid(np.zeros((code.n1, code.n2), np.uint8), bx)


def decode_phaseflip(code: SubsystemCode, s_x: np.ndarray) -> PauliGrid:
    """Z-type correction for an X-stabilizer syndrome (mirror of
    :func:`decode_bitflip`: rows decoded with code 2, spread along code 1's
    check_complement columns)."""
    c1, c2 = code.c1, code.c2
    s_x = np.asarray(s_x, dtype=np.uint8)
    if s_x.shape != (c1.k, c2.n - c2.k):
        raise ValueError(f"s_x shape {s_x.shape} is not "
                         f"({c1.k},{c2.n - c2.k})")
    if c1.k:
        fhat = np.stack([c2.decode(s_x[a, :]) for a in range(c1.k)], axis=0)
    else:
        fhat = np.zeros((0, c2.n), np.uint8)
    az = (c1.check_complement.T @ fhat) & 1
    return PauliGrid(az, np.zeros((code.n1, code.n2), np.uint8))


def recover(code: SubsystemCode, err: PauliGrid) -> RecoveryOutcome:
    """Extract the syndrome, decode both stages, and classify the residual."""
    syn = extract_syndrome(code, err)
    correction = decode_bitflip(code, syn.s_z) * decode_phaseflip(code, syn.s_x)
    residual = err * correction
    dec = code.decompose(residual)
    ok = not dec.z_logical.any() and not dec.x_logical.any()
    return RecoveryOutcome(correction, dec.z_logical, dec.x_logical, ok)


def distance_bruteforce(code: SubsystemCode, w_max: int,
                        candidate_guard: int = DISTANCE_CANDIDATE_GUARD):
    """Minimum weight of an undetectable logical error, by enumeration.

    Scans weights 1..w_max over all site subsets and all three non-identity
    Paulis per site, looking for an operator with all-zero syndrome and a
    nonzero logical coefficient block.  Returns the weight of the first hit
    (the true distance when it is <= w_max) or ``None`` if none exists
    within the bound.

    Raises:
        ValueError: when the candidate count exceeds ``candidate_guard``.
    """
    w_max = gf2._require_int("w_max", w_max)
    if w_max < 1:
        raise ValueError("w_max must be >= 1")
    n = code.n
    total = sum(math.comb(n, w) * 3 ** w for w in range(1, w_max + 1))
    if total > candidate_guard:
        raise ValueError(
            f"{total} candidates exceed the guard of {candidate_guard}; "
            f"lower w_max or raise candidate_guard")

    c1, c2 = code.c1, code.c2
    # A single X at site (i, j) has the detect and logical coordinates
    # D1[:, i] (x) G2[:, j], whose rows below n1-k1 are its Z-stabilizer
    # syndrome; a single Z has G1[:, i] (x) D2[:, j], whose columns below
    # n2-k2 are its X-stabilizer syndrome.  A site's X, Z and Y signatures
    # are [x bits | z bits] packed into an int, so any candidate operator's
    # signature is the XOR of its sites'.
    x_bits = np.einsum("ai,bj->ijab", c1.dual_basis, c2.generator)
    z_bits = np.einsum("ai,bj->ijab", c1.generator, c2.dual_basis)
    x_bits, z_bits = x_bits.reshape(n, -1), z_bits.reshape(n, -1)
    x_sig = np.hstack([x_bits, 0 * z_bits])
    z_sig = np.hstack([0 * x_bits, z_bits])
    syndrome = np.concatenate([
        np.repeat(np.arange(c1.n) < c1.n - c1.k, c2.k),
        np.tile(np.arange(c2.n) < c2.n - c2.k, c1.k)])

    syn_mask = gf2.pack_rows(syndrome[None, :])[0]
    sigs = [(x, z, x ^ z)
            for x, z in zip(gf2.pack_rows(x_sig), gf2.pack_rows(z_sig))]
    # The last site is looked up, not scanned: acc ^ sig has zero syndrome
    # iff sig's syndrome bits equal acc's, and is nonzero iff sig != acc.
    last_sites: dict = {}
    for s, triple in enumerate(sigs):
        for sig in triple:
            last_sites.setdefault(sig & syn_mask, []).append((s, sig))

    def scan(start: int, remaining: int, acc: int) -> bool:
        if remaining == 1:
            for s, sig in last_sites.get(acc & syn_mask, ()):
                if s >= start and sig != acc:
                    return True
            return False
        for s in range(start, n - remaining + 1):
            for sig in sigs[s]:
                if scan(s + 1, remaining - 1, acc ^ sig):
                    return True
        return False

    for w in range(1, w_max + 1):
        if scan(0, w, 0):
            return w
    return None
