"""Monte Carlo and exact logical-failure rates, plus measurement-count
comparisons against the Shor-style construction.

Randomness is counter based: trial t of a run with master seed s draws its
uniforms from a Philox stream keyed by s at block offset t * blocks_per_trial.
A trial's error pattern is therefore a pure function of (seed, trial index),
so results are identical no matter how trials are batched or spread over
workers.

Whether a trial fails reduces to one table lookup per classical word.  The
bit-flip stage decodes column b of the syndrome ``s_z = P1 x G2^T`` with
code 1 and spreads the estimate along row b of ``C2`` (code 2's
check_complement).  Since ``C2 G2^T = I``, the logical residual's column b is
``C1 (y_b xor leader1(P1 y_b))`` with ``y_b = x G2[b]^T``, the XOR of the
grid's columns over the support of row b of ``G2``.  So the stage fails iff
``c1.fail[y_b]`` is set for some b.  The phase-flip stage mirrors this
through ``G1 C1^T = I``: with ``w_a = G1[a] z``, the XOR of the grid's rows
over the support of row a of ``G1``, it fails iff ``c2.fail[w_a]`` is set
for some a.  The batch kernel packs each column and row of the grid into an
integer word, XORs the words and looks them up; :func:`subqec.recovery.recover`
stays the independent reference it is tested against.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classical import _TABLE_MAX_N, LinearCode
from .builder import SubsystemCode
from .pauli import PauliGrid
from .recovery import recover

_MAX_SEED = (1 << 64) - 1
_EXACT_MAX_N = 20
_EXACT_CHUNK = 1 << 14  # patterns per kernel call in exact enumeration
_NOISE_KINDS = ("depolarizing", "x_only", "z_only", "independent_xz")
_WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class NoiseModel:
    """A single-qubit Pauli channel applied independently per site.

    Use the factory classmethods; ``p`` is the total error probability for
    the single-parameter kinds, ``p_x``/``p_z`` the marginals for
    ``independent_xz``.
    """

    kind: str
    p: float = 0.0
    p_x: float = 0.0
    p_z: float = 0.0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one "
                             f"of {', '.join(_NOISE_KINDS)}")
        for label in ("p", "p_x", "p_z"):
            value = getattr(self, label)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{label}={value} is not a probability")

    @classmethod
    def depolarizing(cls, p: float) -> "NoiseModel":
        """X, Y, Z each with probability p/3."""
        return cls("depolarizing", p=p)

    @classmethod
    def x_only(cls, p: float) -> "NoiseModel":
        return cls("x_only", p=p)

    @classmethod
    def z_only(cls, p: float) -> "NoiseModel":
        return cls("z_only", p=p)

    @classmethod
    def independent_xz(cls, p_x: float, p_z: float) -> "NoiseModel":
        return cls("independent_xz", p_x=p_x, p_z=p_z)

    @property
    def draws_per_site(self) -> int:
        return 2 if self.kind == "independent_xz" else 1

    def errors_from_uniforms(self, u: np.ndarray, n: int) -> tuple:
        """Map per-trial uniforms (shape (t, draws)) to (z, x) bit arrays."""
        if self.kind == "x_only":
            return np.zeros_like(u, dtype=np.uint8), (u < self.p).astype(np.uint8)
        if self.kind == "z_only":
            return (u < self.p).astype(np.uint8), np.zeros_like(u, dtype=np.uint8)
        if self.kind == "independent_xz":
            x = (u[:, :n] < self.p_x).astype(np.uint8)
            z = (u[:, n:] < self.p_z).astype(np.uint8)
            return z, x
        # depolarizing: [0,p/3) -> X, [p/3,2p/3) -> Y, [2p/3,p) -> Z
        x = (u < 2 * self.p / 3).astype(np.uint8)
        z = ((u >= self.p / 3) & (u < self.p)).astype(np.uint8)
        return z, x

    def describe(self) -> dict:
        if self.kind == "independent_xz":
            return {"kind": self.kind, "p_x": self.p_x, "p_z": self.p_z}
        return {"kind": self.kind, "p": self.p}


@dataclass(frozen=True)
class TrialReport:
    """Outcome of :func:`run_trials`.

    ``std_error`` is the plug-in binomial standard error, which is 0 when
    no trial fails; ``ci_low``/``ci_high`` bound a 95% Wilson score
    interval for the failure rate, which stays informative there.
    """

    trials: int
    logical_failures: int
    rate: float
    std_error: float
    seed: int
    code_params: tuple  # (n, k, gauge_qubits, stabilizer_count)
    ci_low: float
    ci_high: float


def _wilson_interval(failures: int, trials: int) -> tuple:
    z2 = _WILSON_Z ** 2
    rate = failures / trials
    centre = (rate + z2 / (2 * trials)) / (1 + z2 / trials)
    half = (_WILSON_Z / (1 + z2 / trials)
            * math.sqrt(rate * (1 - rate) / trials + z2 / (4 * trials ** 2)))
    # The endpoints at 0 and 1 are exact; the formula would round near them.
    low = 0.0 if failures == 0 else centre - half
    high = 1.0 if failures == trials else centre + half
    return low, high


def _trial_uniforms(seed: int, t0: int, t1: int, draws: int) -> np.ndarray:
    """Uniforms for trials [t0, t1); row t-t0 belongs to trial t.

    Each trial owns ceil(draws/4) Philox blocks of the stream keyed by
    ``seed``, so the rows depend only on (seed, trial index).
    """
    blocks = max(1, (draws + 3) // 4)
    bg = np.random.Philox(key=seed)
    bg.advance(t0 * blocks)
    u = np.random.Generator(bg).random((t1 - t0) * blocks * 4)
    return u.reshape(t1 - t0, blocks * 4)[:, :draws]


def _line_words(bits: np.ndarray, columns: bool) -> np.ndarray:
    """Pack each column (or each row) of a batch of (t, n1, n2) bit grids
    into one integer word per trial: shape (n2, t) (or (n1, t)).

    A word reads its bits as a binary numeral, first site most significant,
    which is how :attr:`LinearCode.fail` is indexed.
    """
    planes = np.ascontiguousarray(bits.transpose((1, 2, 0) if columns
                                                 else (2, 1, 0)))
    words = np.zeros(planes.shape[1:], np.int32)
    for plane in planes:
        words <<= 1
        words |= plane
    return words


def _stage_failures(code: LinearCode, words: np.ndarray,
                    combine: np.ndarray) -> np.ndarray:
    """True for each trial where decoding with ``code`` leaves a logical
    error.  ``words`` holds one packed word of ``code`` per grid line and
    trial (shape (lines, t)); row b of ``combine`` selects the lines whose
    XOR is the b-th decoded word."""
    combined = np.empty((combine.shape[0], words.shape[1]), words.dtype)
    for b, row in enumerate(combine):
        support = np.flatnonzero(row)
        acc = words[support[0]].copy()
        for j in support[1:]:
            acc ^= words[j]
        combined[b] = acc
    return code.fail[combined].any(axis=0)


def _batch_failures(code: SubsystemCode, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectorized recovery over a batch of (t, n1, n2) errors; True where
    recovery leaves a logical error.  Exactly matches
    :func:`subqec.recovery.recover` trial for trial (pinned by tests).

    Uses the factors' ``fail`` tables (see the module docstring).  A factor
    longer than 20 bits has no table; such batches replay ``recover``.
    """
    c1, c2 = code.c1, code.c2
    if max(c1.n, c2.n) > _TABLE_MAX_N:
        return np.array([not recover(code, PauliGrid(zt, xt)).logical_ok
                         for zt, xt in zip(z, x)], dtype=bool)
    return (_stage_failures(c1, _line_words(x, columns=True), c2.generator)
            | _stage_failures(c2, _line_words(z, columns=False), c1.generator))


def _count_chunk(code: SubsystemCode, noise: NoiseModel, seed: int,
                 t0: int, t1: int, batch_size: int) -> int:
    n = code.n
    draws = noise.draws_per_site * n
    failures = 0
    for b0 in range(t0, t1, batch_size):
        b1 = min(b0 + batch_size, t1)
        u = _trial_uniforms(seed, b0, b1, draws)
        zbits, xbits = noise.errors_from_uniforms(u, n)
        zgrid = zbits.reshape(-1, code.n1, code.n2)
        xgrid = xbits.reshape(-1, code.n1, code.n2)
        failures += int(_batch_failures(code, zgrid, xgrid).sum())
    return failures


def run_trials(code: SubsystemCode, noise: NoiseModel, trials: int, seed: int,
               workers: int = 1, batch_size: int = 8192) -> TrialReport:
    """Monte Carlo estimate of the logical failure rate.

    Deterministic in (code, noise, trials, seed): splitting the same run
    over any number of workers or any batch size returns a byte-identical
    report.  ``workers`` sets how many trial ranges the run is split into;
    at most one thread per core runs them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= seed <= _MAX_SEED):
        raise ValueError("seed must fit in 64 bits")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    # A zero-trial batch builds the factors' tables before threads fan out,
    # so they share one copy.
    empty = np.zeros((0, code.n1, code.n2), np.uint8)
    _batch_failures(code, empty, empty)

    bounds = np.linspace(0, trials, workers + 1).astype(int)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    if workers == 1 or len(ranges) == 1:
        counts = [_count_chunk(code, noise, seed, a, b, batch_size)
                  for a, b in ranges]
    else:
        threads = min(len(ranges), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(pool.map(
                lambda r: _count_chunk(code, noise, seed, r[0], r[1], batch_size),
                ranges))
    failures = int(sum(counts))
    rate = failures / trials
    std_error = math.sqrt(rate * (1.0 - rate) / trials)
    ci_low, ci_high = _wilson_interval(failures, trials)
    return TrialReport(
        trials=trials,
        logical_failures=failures,
        rate=rate,
        std_error=std_error,
        seed=seed,
        code_params=(code.n, code.k, code.gauge_qubits, len(code.stabilizers)),
        ci_low=ci_low,
        ci_high=ci_high,
    )


def exact_rate_enumeration(code: SubsystemCode, noise: NoiseModel) -> float:
    """Exact logical failure rate for a single-axis channel by pushing all
    2**n error patterns through the one kernel stage the channel can trip.

    Failing patterns are counted by weight w and the rate is
    ``sum_w count_w p**w (1-p)**(n-w)``.  Only ``x_only`` and ``z_only``
    channels factorize this way; the grid is capped at 20 sites (2**20
    patterns, run in chunks of 2**14).
    """
    if noise.kind not in ("x_only", "z_only"):
        raise ValueError("exact enumeration needs an x_only or z_only channel")
    n = code.n
    if n > _EXACT_MAX_N:
        raise ValueError(f"{n} sites would mean 2**{n} patterns; too many")
    # Only one stage can fail: bit flips are decoded down the columns with
    # code 1, phase flips along the rows with code 2.
    bit_flip = noise.kind == "x_only"
    decoder, combine = ((code.c1, code.c2.generator) if bit_flip
                        else (code.c2, code.c1.generator))
    shifts = np.arange(n, dtype=np.int64)
    failing = np.zeros(n + 1, np.int64)
    for start in range(0, 1 << n, _EXACT_CHUNK):
        patterns = np.arange(start, min(start + _EXACT_CHUNK, 1 << n),
                             dtype=np.int64)
        bits = ((patterns[:, None] >> shifts) & 1).astype(np.uint8)
        grids = bits.reshape(-1, code.n1, code.n2)
        failed = _stage_failures(decoder, _line_words(grids, columns=bit_flip),
                                 combine)
        failing += np.bincount(bits[failed].sum(axis=1), minlength=n + 1)
    p = noise.p
    return math.fsum(int(count) * p ** w * (1.0 - p) ** (n - w)
                     for w, count in enumerate(failing) if count)


def _subsystem_stab_count(n1: int, k1: int, n2: int, k2: int) -> int:
    return (n1 - k1) * k2 + k1 * (n2 - k2)


def _shor_stab_count(n1: int, k1: int, n2: int, k2: int) -> int:
    return (n1 - k1) * n2 + k1 * (n2 - k2)


def _classical_summary(c: LinearCode) -> dict:
    return {"n": c.n, "k": c.k, "d": c.distance_if_enumerable()}


def compare_report(c1: LinearCode, c2: LinearCode) -> dict:
    """Stabilizer-measurement comparison for the grid built from (c1, c2).

    Counts come from the closed-form formulas; tests pin them against the
    built generating sets.  For the hamming x hamming grid the report also
    lists the composed schemes that trade extra qubits for distance, with
    their stabilizer counts split inner + outer.
    """
    sub = _subsystem_stab_count(c1.n, c1.k, c2.n, c2.k)
    shor = _shor_stab_count(c1.n, c1.k, c2.n, c2.k)
    report = {
        "code1": _classical_summary(c1),
        "code2": _classical_summary(c2),
        "grid": {
            "n": c1.n * c2.n,
            "k": c1.k * c2.k,
            "gauge_qubits": (c1.n - c1.k) * (c2.n - c2.k),
            "distance": (min(c1.d, c2.d)
                         if c1.d is not None and c2.d is not None else None),
        },
        "subsystem_stabilizers": sub,
        "shor_stabilizers": shor,
        "stabilizers_saved": shor - sub,
    }
    if (c1.n, c1.k) == (7, 4) and (c2.n, c2.k) == (7, 4):
        rep4_outer = _subsystem_stab_count(4, 1, 4, 1)
        rep3_outer = _subsystem_stab_count(3, 1, 3, 1)
        steane_block = 6  # a [[7,1,3]] code measures 7 - 1 stabilizers
        report["composed_schemes"] = [
            {
                "scheme": "hamming grid + rep4 grid outer layer",
                "inner_stabilizers": sub,
                "outer_stabilizers": rep4_outer,
                "total": sub + rep4_outer,
            },
            {
                "scheme": "hamming grid + rep3 grid outer layer on 9 logicals",
                "inner_stabilizers": sub,
                "outer_stabilizers": rep3_outer,
                "total": sub + rep3_outer,
            },
            {
                "scheme": "steane-in-steane concatenation",
                "inner_stabilizers": 7 * steane_block,
                "outer_stabilizers": steane_block,
                "total": 7 * steane_block + steane_block,
            },
        ]
    return report
