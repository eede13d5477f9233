"""Monte Carlo and exact logical-failure rates, plus measurement-count
comparisons against the Shor-style construction.

Randomness is counter based: trial t of a run with master seed s draws its
words from a Philox stream keyed by s at block offset t * blocks_per_trial.
A trial's error pattern is therefore a pure function of (seed, trial index),
so results are identical no matter how trials are batched or spread over
workers.

No uniform is formed: ``Generator.random`` would return ``(w >> 11) * 2**-53``
for a raw word w, and ``u < c`` iff ``(w >> 11) < ceil(c * 2**53)``, so the
channel's probabilities become exact integer limits on the raw words.

Whether a trial fails reduces to one table lookup per classical word.  The
bit-flip stage decodes column b of the syndrome ``s_z = P1 x G2^T`` with
code 1 and spreads the estimate along row b of ``C2`` (code 2's
check_complement).  Since ``C2 G2^T = I``, the logical residual's column b is
``C1 (y_b xor leader1(P1 y_b))`` with ``y_b = x G2[b]^T``, the XOR of the
grid's columns over the support of row b of ``G2``.  So the stage fails iff
``c1.fail[y_b]`` is set for some b.  The phase-flip stage mirrors this
through ``G1 C1^T = I``: with ``w_a = G1[a] z``, the XOR of the grid's rows
over the support of row a of ``G1``, it fails iff ``c2.fail[w_a]`` is set
for some a.  The words are linear in the hits, so a stage packs the hit
mask into bytes and XORs one 256-entry table of packed words per byte
position; :func:`subqec.recovery.recover` stays the reference it is tested
against.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classical import _TABLE_MAX_N, LinearCode
from .builder import SubsystemCode
from .pauli import PauliGrid
from .recovery import _require_int, recover

_MAX_SEED = (1 << 64) - 1
_RAW_WORDS = 1 << 17  # most raw words drawn per batch, to stay in cache
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

    def _hits(self, draws: np.ndarray, below) -> tuple:
        """(z, x) masks of the draws that hit, None for an axis never hit;
        ``below(a, c)`` marks the draws whose uniform is < c.  X reads a
        trial's first n draws, and independent_xz's Z the next n."""
        if self.kind == "x_only":
            return None, below(draws, self.p)
        if self.kind == "z_only":
            return below(draws, self.p), None
        if self.kind == "independent_xz":
            return below(draws, self.p_z), below(draws, self.p_x)
        # depolarizing: [0,p/3) -> X, [p/3,2p/3) -> Y, [2p/3,p) -> Z
        return (below(draws, self.p) ^ below(draws, self.p / 3),
                below(draws, 2 * self.p / 3))

    def errors_from_uniforms(self, u: np.ndarray, n: int) -> tuple:
        """Map per-trial uniforms (shape (t, draws)) to (z, x) bit arrays."""
        zero = np.zeros((len(u), n), np.uint8)
        z_offset = (self.draws_per_site - 1) * n
        return tuple(zero if m is None else m[:, o:o + n].astype(np.uint8)
                     for m, o in zip(self._hits(u, np.less), (z_offset, 0)))

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
    ``bit_flip_failures`` and ``phase_flip_failures`` count the trials whose
    bit-flip (X) or phase-flip (Z) stage leaves a logical error; a trial
    where both do counts in both, and once in ``logical_failures``.
    """

    trials: int
    logical_failures: int
    rate: float
    std_error: float
    seed: int
    code_params: tuple  # (n, k, gauge_qubits, stabilizer_count)
    ci_low: float
    ci_high: float
    bit_flip_failures: int | None = None
    phase_flip_failures: int | None = None


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


def _below(words: np.ndarray, c: float) -> np.ndarray:
    """Mask of the raw words whose uniform is < c: ``w < ceil(c * 2**53) <<
    11``, exact as ldexp is; at c = 1 that limit needs 65 bits."""
    limit = math.ceil(math.ldexp(c, 53)) << 11
    return words < np.uint64(limit) if limit >> 64 == 0 else words >= 0


class _Stage:
    """A decoding stage as byte tables.  ``contrib[s, b]`` holds the bits a
    hit at the stage's site s flips in word b.  A row packed little-endian
    holds ``frame`` trials of ``width`` sites, the stage's n from ``offset``
    in each; ``tables[i, v]`` holds the row's words, 63 // n to an int64
    lane, for the hits v in byte ``positions[i]``."""

    def __init__(self, decoder: LinearCode, contrib: np.ndarray, width: int,
                 offset: int, frame: int):
        n, k = contrib.shape
        per = 63 // decoder.n
        lanes = np.zeros((-(-frame * width // 8) * 8, -(-frame * k // per)),
                         np.int64)
        for j in range(frame * k):  # word b of the row's trial f is fk + b
            lanes[j // k * width + offset:][:n, j // per] |= (
                contrib[:, j % k] << (j % per * decoder.n))
        lanes = lanes.reshape(len(lanes) // 8, 8, lanes.shape[1])
        self.positions = np.flatnonzero(lanes.any(axis=(1, 2)))
        lanes = lanes[self.positions]
        self.tables = np.zeros((len(lanes), 256, lanes.shape[2]), np.int64)
        for t in range(8):  # bit t of byte q is site 8q + t
            self.tables[:, 1 << t:2 << t] = (self.tables[:, :1 << t]
                                             ^ lanes[:, t, None])
        self.lane, self.shift = np.divmod(np.arange(frame * k), per)
        self.shift *= decoder.n
        self.fail, self.frame, self.k = decoder.fail, frame, k

    def __call__(self, packed: np.ndarray) -> np.ndarray:
        """True per trial of the packed rows where some word fails."""
        acc = np.zeros((len(packed), self.tables.shape[2]), np.int64)
        for q, table in zip(self.positions, self.tables):
            acc ^= table[packed[:, q]]
        words = (acc[:, self.lane] >> self.shift) & (len(self.fail) - 1)
        fails = self.fail[words].reshape(len(packed) * self.frame, self.k)
        return fails.any(axis=1)


def _stage(code: SubsystemCode, bit_flip: bool, width: int = 0,
           offset: int = 0, frame: int = 1):
    """The bit-flip stage on X hits (or the phase-flip stage on Z hits) at
    sites [offset, offset + n) of each trial's ``width`` (default n): a hit
    at (i, j) sets position i (bit n1-1-i) of each y_b with G2[b, j] = 1,
    or position j of each w_a with G1[a, i] = 1."""
    c1, c2 = code.c1, code.c2
    width = width or code.n
    if (c1 if bit_flip else c2).n > _TABLE_MAX_N:  # no fail table
        return _replay_stage(code, bit_flip, width, offset, frame)
    if bit_flip:
        bit = c2.generator.T[None] << (c1.n - 1 - np.arange(c1.n))[:, None, None]
        return _Stage(c1, bit.reshape(code.n, c2.k), width, offset, frame)
    phase = c1.generator.T[:, None] << (c2.n - 1 - np.arange(c2.n))[:, None]
    return _Stage(c2, phase.reshape(code.n, c1.k), width, offset, frame)


def _replay_stage(code: SubsystemCode, bit_flip: bool, width: int,
                  offset: int, frame: int):
    """A stage that replays :func:`subqec.recovery.recover` on each trial's
    hits of its own axis, which alone decide that stage."""
    def stage(packed: np.ndarray) -> np.ndarray:
        bits = np.unpackbits(packed, axis=1, bitorder="little")
        hits = bits[:, :frame * width].reshape(-1, width)[:, offset:]
        grids = hits[:, :code.n].reshape(-1, code.n1, code.n2)
        zero = np.zeros(grids.shape[1:], np.uint8)
        return np.array([g.any() and not recover(
            code, PauliGrid(zero, g) if bit_flip else PauliGrid(g, zero)
        ).logical_ok for g in grids], bool)
    return stage


def _batch_failures(code: SubsystemCode, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Vectorized recovery over a batch of (t, n1, n2) errors; True where
    recovery leaves a logical error.  Exactly matches
    :func:`subqec.recovery.recover` trial for trial (pinned by tests)."""
    bit, phase = _stage(code, True), _stage(code, False)
    pack = functools.partial(np.packbits, axis=1, bitorder="little")
    return bit(pack(x.reshape(len(x), -1))) | phase(pack(z.reshape(len(z), -1)))


def _count_chunk(code: SubsystemCode, noise: NoiseModel, stages, width: int,
                 seed: int, batch_size: int, trial_range: tuple) -> np.ndarray:
    """(logical, bit-flip, phase-flip) failure counts of trials [t0, t1) of
    ``width`` raw words each; rows pack two trials, so one past t1 may be
    drawn and dropped."""
    t0, t1 = trial_range
    step = 2 * max(1, min(batch_size, _RAW_WORDS // width) // 2)
    bg = np.random.Philox(key=seed)
    bg.advance(t0 * width // 4)
    counts = np.zeros(3, np.int64)
    for b0 in range(t0, t1, step):
        t = min(step, t1 - b0)
        hits = noise._hits(bg.random_raw(-(-t // 2) * 2 * width), _below)
        bit, phase = (np.zeros(t, bool) if m is None else stage(
            np.packbits(m, bitorder="little").reshape(-1, width // 4))[:t]
            for stage, m in zip(stages, hits[::-1]))
        counts += [np.count_nonzero(bit | phase), np.count_nonzero(bit),
                   np.count_nonzero(phase)]
    return counts


def run_trials(code: SubsystemCode, noise: NoiseModel, trials: int, seed: int,
               workers: int = 1, batch_size: int = 8192) -> TrialReport:
    """Monte Carlo estimate of the logical failure rate.

    Deterministic in (code, noise, trials, seed): splitting the same run
    over any number of workers or any batch size returns a byte-identical
    report.  ``workers`` sets how many trial ranges the run is split into;
    at most one thread per core runs them.  A batch draws the words of at
    most ``batch_size`` trials, rounded up to an even count, and of about
    2**17 words at most.
    """
    trials, seed, workers, batch_size = (
        _require_int(name, value) for name, value in (
            ("trials", trials), ("seed", seed), ("workers", workers),
            ("batch_size", batch_size)))
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0 <= seed <= _MAX_SEED):
        raise ValueError("seed must fit in 64 bits")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    # The stages (and the factors' fail tables) are built before threads
    # fan out, so they share one copy.  A trial owns whole Philox blocks.
    width = 4 * max(1, (noise.draws_per_site * code.n + 3) // 4)
    z_offset = (noise.draws_per_site - 1) * code.n
    stages = (_stage(code, True, width, 0, 2),
              _stage(code, False, width, z_offset, 2))
    count = functools.partial(_count_chunk, code, noise, stages, width, seed,
                              batch_size)
    bounds = np.linspace(0, trials, workers + 1).astype(int)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    if workers == 1 or len(ranges) == 1:
        counts = [count(r) for r in ranges]
    else:
        threads = min(len(ranges), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = list(pool.map(count, ranges))
    failures, bit_flip, phase_flip = (int(c) for c in sum(counts))
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
        bit_flip_failures=bit_flip,
        phase_flip_failures=phase_flip,
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
    stage = _stage(code, noise.kind == "x_only")
    failing = np.zeros(n + 1, np.int64)
    for start in range(0, 1 << n, _EXACT_CHUNK):
        # Bit s of a pattern is site s, so its little-endian bytes are the
        # mask packed as the kernel packs it.
        patterns = np.arange(start, min(start + _EXACT_CHUNK, 1 << n),
                             dtype="<u8")
        packed = patterns.view(np.uint8).reshape(-1, 8)[:, :-(-n // 8)]
        weights = np.unpackbits(packed[stage(packed)], axis=1).sum(1, np.intp)
        failing += np.bincount(weights, minlength=n + 1)
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
