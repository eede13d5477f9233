"""Reference helpers shared by the tests: the float replay of a run's draw
layout, the hit-list kernel over whole error arrays, and the failing
patterns by weight found by walking every grid pattern through the
kernel's lanes, which pin :func:`subqec.failing_counts` and
:func:`subqec.exact_rate_enumeration` on grids of up to 20 sites; past
them, ``parity_line_counts`` gives the closed form of a grid whose line
is a repetition code.

:func:`distance_by_three_paulis` is the distance search that tries X, Z
and Y at every site, the reference for
:func:`subqec.distance_bruteforce`, which searches the two Pauli types
apart.

It also keeps the GF(2) matrix helpers that the tests use as references
and that the package no longer needs: ``rref``, ``kernel_basis``,
``solve``, ``inverse``, ``dual_complete`` and ``gram_rows``, each a thin
layer over :mod:`subqec.gf2`'s one packed-row elimination loop; and two
matrices written out the slow way, a code's ``codewords`` and the
``symplectic_rows`` of a list of Pauli grids; ``walked_leaders``, a code's
coset leaders found weight by weight, the reference for
:attr:`subqec.LinearCode.leaders`; ``random_pauli``; and four codes past
20 bits built once for the tests: ``golay_23_12``, ``golay_24_12``,
``reed_muller_2_5`` and ``hamming(r)``."""

import itertools
import math
from typing import NamedTuple, Optional

import numpy as np

from subqec import gf2
from subqec.simulate import _Kernel


def trial_uniforms(seed: int, t0: int, t1: int, draws: int) -> np.ndarray:
    """Uniforms for trials [t0, t1); row t-t0 belongs to trial t.

    Each trial owns ceil(draws/4) Philox blocks of the stream keyed by
    ``seed``, so the rows depend only on (seed, trial index).
    """
    blocks = max(1, (draws + 3) // 4)
    bg = np.random.Philox(key=seed)
    bg.advance(t0 * blocks)
    u = np.random.Generator(bg).random((t1 - t0) * blocks * 4)
    return u.reshape(t1 - t0, blocks * 4)[:, :draws]


def batch_failures(code, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The kernel over a batch of (t, n1, n2) errors; True where recovery
    leaves a logical error."""
    pauli = x.reshape(-1).astype(bool) + 2 * z.reshape(-1).astype(bool)
    idx = np.flatnonzero(pauli)
    trials, bit, phase = _Kernel(code)(idx, pauli[idx])
    failed = np.zeros(len(pauli) // code.n, bool)
    failed[trials] = bit | phase
    return failed


def walked_failing_counts(code, kind: str) -> np.ndarray:
    """Failing ``x_only`` or ``z_only`` patterns by weight, found by pushing
    all 2**n grid patterns through the kernel's stage: doubling over the
    sites gives the stage's lanes and the weight of every pattern."""
    n = code.n
    axis, kernel = int(kind == "z_only"), _Kernel(code)
    sites = kernel.lanes[:, (1 + axis) * n:][:, :n]  # X or Z hits, (lanes, n)
    lanes = np.zeros((len(sites), 1 << n), np.int64)
    weights = np.zeros(1 << n, np.uint8)
    for s in range(n):
        lanes[:, 1 << s:2 << s] = lanes[:, :1 << s] ^ sites[:, s, None]
        weights[1 << s:2 << s] = weights[:1 << s] + 1
    return np.bincount(weights[kernel.fails(axis, lanes)], minlength=n + 1)


def walked_exact_rate(code, noise) -> float:
    """Exact ``x_only`` or ``z_only`` failure rate from
    :func:`walked_failing_counts`."""
    n, p = code.n, noise.p
    return math.fsum(int(count) * p ** w * (1.0 - p) ** (n - w) for w, count
                     in enumerate(walked_failing_counts(code, noise.kind))
                     if count)


def parity_line_counts(n1: int, n2: int, leaders_by_weight) -> tuple:
    """x_only failing counts of an n1-bit decoding factor with
    ``leaders_by_weight[j]`` leaders of weight j, times rep(n2).  A row's
    signature is its parity, so a pattern fails iff its word of row
    parities is no leader: F = sum_j (C(n1, j) - L_j) O**j E**(n1-j), with
    O and E the odd- and even-weight patterns of a row.  The sum over all
    j is (1 + x)**N, so only the few leaders' terms are multiplied out."""
    odd, even = (np.array([math.comb(n2, i) * (i % 2 == parity)
                           for i in range(n2 + 1)], object)
                 for parity in (1, 0))
    passing = np.zeros(n1 * n2 + 1, object)
    for j, count in enumerate(leaders_by_weight):
        term = np.array([count], object)
        for factor in [odd] * j + [even] * (n1 - j):
            term = np.convolve(term, factor)
        passing += term
    return tuple(math.comb(n1 * n2, w) - c for w, c in enumerate(passing))


def distance_by_three_paulis(code, w_max: int):
    """Minimum weight of an undetectable logical error, or None past
    ``w_max``: weights 1..w_max over all site subsets and all three
    non-identity Paulis per site.

    A single X at site (i, j) has the detect and logical coordinates
    D1[:, i] (x) G2[:, j], whose rows below n1-k1 are its Z-stabilizer
    syndrome; a single Z has G1[:, i] (x) D2[:, j], whose columns below
    n2-k2 are its X-stabilizer syndrome.  A site's X, Z and Y signatures
    are [x bits | z bits] packed into an int, so a candidate's signature is
    the XOR of its sites'; the last site is looked up by its syndrome
    bits."""
    n, c1, c2 = code.n, code.c1, code.c2
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
    last_sites: dict = {}
    for s, triple in enumerate(sigs):
        for sig in triple:
            last_sites.setdefault(sig & syn_mask, []).append((s, sig))

    def scan(start: int, remaining: int, acc: int) -> bool:
        if remaining == 1:
            return any(s >= start and sig != acc
                       for s, sig in last_sites.get(acc & syn_mask, ()))
        return any(scan(s + 1, remaining - 1, acc ^ sig)
                   for s in range(start, n - remaining + 1) for sig in sigs[s])

    return next((w for w in range(1, w_max + 1) if scan(0, w, 0)), None)


class Rref(NamedTuple):
    """Result of Gauss-Jordan elimination."""

    reduced: np.ndarray
    rank: int
    pivot_cols: list


def _rref_rows(rows) -> tuple:
    """The nonzero rows of the reduced row-echelon form of packed rows, in
    pivot order, and their leading bits."""
    pivots, _ = gf2._eliminate(rows)
    leads = gf2._reduce(pivots)
    return [pivots[lead] for lead in leads], leads


def rref(m) -> Rref:
    """Reduced row-echelon form over GF(2), pivots cleared above and below;
    ``pivot_cols`` lists the pivot columns in increasing order."""
    m = gf2.as_bits(m)
    rows, cols = m.shape
    reduced, leads = _rref_rows(gf2.pack_rows(m))
    return Rref(gf2.unpack_rows(reduced + [0] * (rows - len(reduced)), cols),
                len(leads), [cols - 1 - lead for lead in leads])


def kernel_basis(m) -> np.ndarray:
    """Rows spanning the right kernel ``{v : m @ v = 0}``, one per free
    column in increasing order."""
    m = gf2.as_bits(m)
    return gf2.unpack_rows(gf2.kernel_columns(gf2.pack_rows(m.T), m.shape[1]),
                           m.shape[1])


def solve(m, y) -> Optional[np.ndarray]:
    """One solution of ``m @ x = y`` (free variables 0), or None when the
    system is inconsistent; ValueError when y's length is not m's rows."""
    m = gf2.as_bits(m)
    y = gf2.as_bits(np.reshape(y, (-1, 1)))
    if y.shape[0] != m.shape[0]:
        raise ValueError(f"rhs length {y.shape[0]} does not match "
                         f"{m.shape[0]} rows")
    # y is the last column of the augmented rows, their bit 0.
    reduced, leads = _rref_rows(gf2.pack_rows(np.hstack([m, y])))
    if leads and leads[-1] == 0:
        return None
    x = np.zeros(m.shape[1], dtype=np.uint8)
    for row, lead in zip(reduced, leads):
        x[m.shape[1] - lead] = row & 1
    return x


def inverse(m) -> np.ndarray:
    """Inverse of a square matrix over GF(2): the tags of ``[m | I]``
    reduced; ValueError when m is not square or is singular."""
    m = gf2.as_bits(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError(f"matrix {m.shape} is not square")
    inv, dropped = gf2._solve_tagged(
        [v << n | 1 << (n - 1 - i) for i, v in enumerate(gf2.pack_rows(m))], n)
    if dropped:
        raise ValueError("matrix is singular")
    return gf2.unpack_rows(inv, n)


def dual_complete(p, g) -> tuple:
    """``(p_c, g_c)`` completing a check p and generator g to a dual basis
    (``gf2.dual_complete_columns`` on matrices)."""
    p, g = gf2.as_bits(p), gf2.as_bits(g)
    n = p.shape[1]
    if g.shape[1] != n:
        raise ValueError(f"column counts differ: {p.shape} vs {g.shape}")
    if p.shape[0] + g.shape[0] != n:
        raise ValueError(f"row counts {p.shape[0]} + {g.shape[0]} do not "
                         f"add up to {n} columns")
    p_c, g_c = gf2.dual_complete_columns(gf2.pack_rows(p.T),
                                         gf2.pack_rows(g), n, p.shape[0])
    return gf2.unpack_rows(p_c, n), gf2.unpack_rows(g_c, n)


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


def reed_muller_2_5():
    """The [32, 16, 8] Reed-Muller code RM(2,5): the all-ones row, the 5
    coordinate rows over the points of GF(2)^5 and their 10 pairwise
    products."""
    from subqec import LinearCode

    points = np.array(list(itertools.product([0, 1], repeat=5)), np.uint8).T
    pairs = itertools.combinations(range(5), 2)
    rows = [np.ones(32, np.uint8), *points,
            *(points[i] & points[j] for i, j in pairs)]
    return LinearCode.from_generator(np.array(rows), name="rm25")


def hamming(r: int):
    """The [2**r - 1, 2**r - 1 - r, 3] Hamming code, whose check columns
    are the nonzero r-bit words."""
    from subqec import LinearCode

    columns = np.arange(1, 1 << r)
    return LinearCode.from_parity((columns >> np.arange(r)[:, None] & 1)
                                  .astype(np.uint8), name=f"hamming{r}")


def golay_23_12():
    """The [23, 12, 7] binary Golay code, cyclic with generator polynomial
    g(x) = 1 + x^2 + x^4 + x^5 + x^6 + x^10 + x^11: row i is x^i g(x)."""
    from subqec import LinearCode

    g = np.zeros((12, 23), np.uint8)
    for i in range(12):
        g[i, [i + e for e in (0, 2, 4, 5, 6, 10, 11)]] = 1
    return LinearCode.from_generator(g, name="golay23")


def golay_24_12():
    """The [24, 12, 8] extended Golay code: ``golay_23_12`` with an overall
    parity position appended to each generator row."""
    from subqec import LinearCode

    g = golay_23_12().generator
    return LinearCode.from_generator(
        np.hstack([g, g.sum(axis=1, keepdims=True) & 1]), name="golay24")


def walked_leaders(code) -> np.ndarray:
    """The leader of each syndrome int (bit r at 2**r), found weight by
    weight: a word of the next weight adds one bit below its lowest, and a
    syndrome's leader is its least word of the first weight to reach it.
    The walk visits every word up to the covering radius in weight, so
    keep it to codes where those are few."""
    from subqec.classical import _bit_weights

    syndrome = _bit_weights(code.check)[::-1]  # of bit b, position n-1-b
    unled = np.iinfo(np.int64).max  # above every word of weight < 63
    leaders = np.full(1 << (code.n - code.k), unled)
    words = syndromes = np.zeros(1, np.int64)
    low = np.array([code.n])  # each word's lowest set bit
    while True:
        new = leaders[syndromes] == unled
        np.minimum.at(leaders, syndromes[new], words[new])
        if not (leaders == unled).any():
            return leaders
        bit = np.arange(low.sum()) - np.repeat(np.cumsum(low) - low, low)
        words = np.repeat(words, low) | 1 << bit
        syndromes = np.repeat(syndromes, low) ^ syndrome[bit]
        low = bit


def codewords(code) -> np.ndarray:
    """All 2**k codewords of ``code`` as rows, message bit i on generator
    row i."""
    msgs = np.arange(1 << code.k, dtype=np.int64)
    bits = ((msgs[:, None] >> np.arange(code.k)) & 1).astype(np.uint8)
    return (bits @ code.generator) & 1


def random_pauli(rng, code):
    """A uniform phase-0 Pauli on the code's grid."""
    from subqec import PauliGrid

    return PauliGrid(
        rng.integers(0, 2, (code.n1, code.n2), dtype=np.uint8),
        rng.integers(0, 2, (code.n1, code.n2), dtype=np.uint8),
    )


def symplectic_rows(ops, n: int) -> np.ndarray:
    """One row [z | x] per Pauli grid of n sites, each part flattened row
    by row."""
    return np.array([np.concatenate([op.z.ravel(), op.x.ravel()])
                     for op in ops], np.uint8).reshape(len(ops), 2 * n)
