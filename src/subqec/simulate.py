"""Monte Carlo and exact logical-failure rates, plus measurement-count
comparisons against the Shor-style construction.

Randomness is counter based (``RNG_LAYOUT``): trial t of a run with master
seed s reads its d = draws_per_site * n words, X first, from block
t * ceil(d/4) of a Philox stream keyed by s.  A trial's error pattern is
therefore a pure function of (seed, trial index), so results are identical
no matter how trials are batched or spread over workers.

No uniform is formed: ``Generator.random`` would return ``(w >> 11) * 2**-53``
for a raw word w, and ``u < c`` iff ``(w >> 11) < ceil(c * 2**53)``, so the
channel's probabilities become exact integer limits on the raw words.

Whether a trial fails reduces to one call of a factor's per-word failure
rule (``LinearCode.fails``) per classical word.  The bit-flip stage decodes
column b of the syndrome ``s_z = P1 x G2^T`` with code 1 and spreads the
estimate along row b of ``C2`` (code 2's check_complement).  Since
``C2 G2^T = I``, the logical residual's column b is
``C1 (y_b xor leader1(P1 y_b))`` with ``y_b = x G2[b]^T``, the XOR of the
grid's columns over the support of row b of ``G2``.  So the stage fails iff
``c1.fails(y_b)`` for some b.  The phase-flip stage mirrors this through
``G1 C1^T = I``: with ``w_a = G1[a] z``, the XOR of the grid's rows over
the support of row a of ``G1``, it fails iff ``c2.fails(w_a)`` for some a.
The words are linear in the hits, of which a trial has few, so
:class:`_Kernel` XORs per-(Pauli, slot) contributions over each trial's
hits alone; :func:`subqec.recovery.recover` stays its reference.
"""

from __future__ import annotations

import functools
import importlib
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .gf2 import _require_int
from .classical import LinearCode, _bit_weights, _popcount, _span_words
from .builder import ShorCode, SubsystemCode, _stabilizer_counts

# Tags the draw layout the module docstring describes; change it with it.
RNG_LAYOUT = "philox4x64/trial-blocks/raw-limits/v1"
_MAX_SEED = (1 << 64) - 1
_RAW_WORDS = 1 << 17  # most raw words drawn per batch, to stay in cache
_EXACT_MAX_BITS = 20  # exact counts: most line bits and syndrome bits
_NOISE_KINDS = ("depolarizing", "x_only", "z_only", "independent_xz")
_WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile
# No code here calls recover; it stays readable as an attribute of this
# module, loaded on first access, because perfbench's smoke check reads it.
_LAZY = {"recover": "recovery"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{_LAZY[name]}"), name)


def _reads(kind: str) -> tuple:
    """The :class:`NoiseModel` fields that noise of ``kind`` reads."""
    return ("p_x", "p_z") if kind == "independent_xz" else ("p",)


@dataclass(frozen=True)
class NoiseModel:
    """A single-qubit Pauli channel applied independently per site.

    Use the factory classmethods; ``p`` is the total error probability for
    the single-parameter kinds, ``p_x``/``p_z`` the marginals for
    ``independent_xz``.  A field the kind does not read must be 0.  Rates
    are stored as Python floats.
    """

    kind: str
    p: float = 0.0
    p_x: float = 0.0
    p_z: float = 0.0

    def __post_init__(self):
        if self.kind not in _NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one "
                             f"of {', '.join(_NOISE_KINDS)}")
        read = _reads(self.kind)
        for label in ("p", "p_x", "p_z"):
            value = getattr(self, label)
            # A bool would run as 0 or 1, and a string or complex would
            # fail later with TypeError.
            if (isinstance(value, (bool, np.bool_))
                    or not isinstance(value, numbers.Real)):
                raise ValueError(f"{label}={value!r} is not a real number")
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{label}={value} is not a probability")
            if label not in read and value != 0:
                raise ValueError(f"{self.kind} noise does not read "
                                 f"{label}={value}")
            object.__setattr__(self, label, float(value))

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
        """Raw words drawn per site: one for each rate the kind reads."""
        return len(_reads(self.kind))

    def _paulis(self, draws: np.ndarray, below) -> np.ndarray:
        """Each draw's Pauli index x + 2z, 0 where it misses; ``below(a,
        c)`` marks the draws whose uniform is < c.  X reads a trial's first
        n draws, and independent_xz's Z the next n."""
        if self.kind == "x_only":
            return below(draws, self.p)
        if self.kind == "z_only":
            return 2 * below(draws, self.p)
        if self.kind == "independent_xz":
            return below(draws, self.p_x) + 2 * below(draws, self.p_z)
        # depolarizing: [0,p/3) -> X, [p/3,2p/3) -> Y, [2p/3,p) -> Z
        return (below(draws, 2 * self.p / 3)
                + 2 * (below(draws, self.p) ^ below(draws, self.p / 3)))

    def errors_from_uniforms(self, u: np.ndarray, n: int) -> tuple:
        """Map per-trial uniforms (shape (t, draws)) to (z, x) bit arrays."""
        pauli = self._paulis(u, np.less).astype(np.uint8)
        z_offset = (self.draws_per_site - 1) * n
        return pauli[:, z_offset:z_offset + n] >> 1, pauli[:, :n] & 1

    def describe(self) -> dict:
        return {"kind": self.kind,
                **{label: getattr(self, label) for label in _reads(self.kind)}}


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


def _below(words: np.ndarray, c: float) -> np.ndarray:
    """Mask of the raw words whose uniform is < c: ``w < ceil(c * 2**53) <<
    11``, exact as ldexp is; at c = 1 that limit needs 65 bits."""
    limit = math.ceil(math.ldexp(c, 53)) << 11
    return words < np.uint64(limit) if limit >> 64 == 0 else words >= 0


class _Kernel:
    """Both decoding stages of a code, run over lists of hits.

    A trial owns ``width`` slots: X hits count at [0, n), Z hits at
    [z_offset, z_offset + n).  Row r of ``lanes`` is an int64 table whose
    entry ``(x + 2 z) * width + slot`` holds the bits such a hit flips in
    the stage words packed into lane r.  Each stage reads its words with
    its factor's ``fails`` rule, built here, so a factor that no decoding
    route covers raises ValueError before any trial.  A stage whose partner
    has k = 0 packs no word, never fails, and builds no rule."""

    def __init__(self, code: SubsystemCode, width: int = 0, z_offset: int = 0):
        self.width = width or code.n
        lanes, used, self.words = [np.zeros((4, self.width), np.int64)], 0, []
        for axis, (own, other) in enumerate(code._stages):
            if not other.k:
                self.words.append(None)
                continue
            fails = own.fails
            # A hit at (i, j) sets position i (bit n1-1-i) of each y_b with
            # G2[b, j] = 1, or position j of each w_a with G1[a, i] = 1.
            place = (own.n - 1 - np.arange(own.n))[:, None, None]
            bits = other.generator.T << place  # (own site, other site, word)
            bits = bits.swapaxes(0, axis).reshape(code.n, other.k)
            sites = slice(axis * z_offset, axis * z_offset + code.n)
            lane, shift = np.zeros((2, other.k, 1), np.intp)
            for b in range(other.k):  # words fill 63-bit lanes in turn
                if used + own.n > 63:
                    lanes.append(np.zeros((4, self.width), np.int64))
                    used = 0
                lane[b], shift[b] = len(lanes) - 1, used
                lanes[-1][[1 << axis, 3], sites] |= bits[:, b] << used
                used += own.n
            self.words.append((fails, lane[:, 0], shift, (1 << own.n) - 1))
        self.lanes = np.array(lanes).reshape(len(lanes), -1)

    def fails(self, axis: int, acc: np.ndarray) -> np.ndarray:
        """Whether the stage fails, per column of XOR-reduced lanes."""
        if self.words[axis] is None:
            return np.zeros(acc.shape[1], bool)
        fails, lane, shift, mask = self.words[axis]
        return fails((acc[lane] >> shift) & mask).any(axis=0)

    def __call__(self, idx: np.ndarray, pauli: np.ndarray) -> tuple:
        """(trials, bit-flip fails, phase-flip fails) over the trials that
        hold hits, given their sorted flat slots ``idx`` and Pauli indices."""
        if not len(idx):
            return idx, np.zeros(0, bool), np.zeros(0, bool)
        trial = idx // self.width
        rows = idx + (pauli - trial) * self.width  # pauli * width + slot
        first = np.flatnonzero(np.concatenate(([True], trial[1:] != trial[:-1])))
        acc = np.array([np.bitwise_xor.reduceat(np.take(lane, rows), first)
                        for lane in self.lanes])
        return trial[first], self.fails(0, acc), self.fails(1, acc)


def _count_chunk(kernel: _Kernel, noise: NoiseModel, seed: int,
                 batch_size: int, trial_range: tuple) -> np.ndarray:
    """(logical, bit-flip, phase-flip) failure counts of trials [t0, t1)
    of ``kernel.width`` raw words each.  Only words below the channel's
    largest limit can hit, so only those are classified."""
    t0, t1 = trial_range
    step = max(1, min(batch_size, _RAW_WORDS // kernel.width))
    top = max(getattr(noise, label) for label in _reads(noise.kind))
    bg = np.random.Philox(key=seed)
    bg.advance(t0 * kernel.width // 4)
    counts = np.zeros(3, np.int64)
    for b0 in range(t0, t1, step):
        words = bg.random_raw(min(step, t1 - b0) * kernel.width)
        idx = np.flatnonzero(_below(words, top))
        _, bit, phase = kernel(idx, noise._paulis(words[idx], _below))
        del words, idx  # so the next draw reuses their pages
        counts += [np.count_nonzero(bit | phase), np.count_nonzero(bit),
                   np.count_nonzero(phase)]
    return counts


def run_trials(code: SubsystemCode, noise: NoiseModel, trials: int, seed: int,
               workers: int = 1, batch_size: int = 8192) -> TrialReport:
    """Monte Carlo estimate of the logical failure rate.

    Deterministic in (code, noise, trials, seed): splitting the same run
    over any number of workers or any batch size returns a byte-identical
    report.  ``workers`` caps the threads: the run splits into
    ``min(workers, trials, cores)`` ranges at exact integer bounds, one per
    thread.  A batch draws the words of at most ``batch_size`` trials, and
    of about 2**17 words at most.  A ShorCode is refused, and so is a run
    longer than the Philox stream.
    """
    trials, seed, workers, batch_size = (
        _require_int(name, value, low) for name, value, low in (
            ("trials", trials, 1), ("seed", seed, None),
            ("workers", workers, 1), ("batch_size", batch_size, 1)))
    if not (0 <= seed <= _MAX_SEED):
        raise ValueError("seed must fit in 64 bits")
    # The kernel (and the factors' fail tables) is built before threads fan
    # out, so they share one copy.  A trial owns whole Philox blocks.
    width = 4 * max(1, (noise.draws_per_site * code.n + 3) // 4)
    if trials * (width // 4) > 1 << 256:  # past them the counter wraps
        raise ValueError(f"trials must be <= 2**256 // {width // 4}: a trial "
                         f"reads {width // 4} of the 2**256 Philox blocks")
    kernel = _Kernel(code, width, (noise.draws_per_site - 1) * code.n)
    count = functools.partial(_count_chunk, kernel, noise, seed, batch_size)
    threads = min(workers, trials, os.cpu_count() or 1)
    if threads == 1:
        counts = count((0, trials))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts = sum(pool.map(count, (
                (trials * i // threads, trials * (i + 1) // threads)
                for i in range(threads))))
    failures, bit_flip, phase_flip = (int(c) for c in counts)
    rate = failures / trials
    std_error = math.sqrt(rate * (1.0 - rate) / trials)
    ci_low, ci_high = _wilson_interval(failures, trials)
    return TrialReport(
        trials=trials,
        logical_failures=failures,
        rate=rate,
        std_error=std_error,
        seed=seed,
        code_params=(code.n, code.k, code.gauge_qubits,
                     sum(code.stabilizer_counts)),
        ci_low=ci_low,
        ci_high=ci_high,
        bit_flip_failures=bit_flip,
        phase_flip_failures=phase_flip,
    )


def failing_counts(code: SubsystemCode, kind: str) -> tuple:
    """The N + 1 counts F_w of the weight-w patterns of ``kind`` errors,
    ``"x_only"`` or ``"z_only"``, that the N-site grid fails to correct,
    as exact ints.

    Under ``x_only`` the bit-flip stage passes iff each word ``y_b`` is its
    coset's leader (module docstring).  Position i of ``y_b`` is bit b of
    row i's k2-bit signature ``G2 x_i``, so the passing patterns are, for
    each tuple of k2 leaders of code 1 (one per syndrome, 2**((n1-k1)*k2)
    tuples), the patterns whose row i has the signature made of bit i of
    each leader.  The rows are i.i.d.: with ``A[s]`` the polynomial whose
    coefficient w counts the weight-w rows of signature s, a tuple passes
    ``prod_i A[s_i]``, fixed by its multiset of row classes, signatures of
    equal ``A``.  The tuples are grouped by that multiset, the products
    summed to ``pass_w``, and ``F_w = C(N, w) - pass_w``.  ``z_only``
    mirrors this with the columns, ``G1`` and code 2's leaders.

    A stage where either factor has k = 0 never fails.  Otherwise a grid
    is refused before any work when a line has more than 20 sites, the
    stage more than 2**20 syndromes, or the decoding factor no leader
    table (n > 63 or n-k > 20).  A ShorCode is refused.
    """
    # Read first, so a ShorCode is refused whatever the kind.
    dec, line = code._stages[kind == "z_only"]
    if kind not in ("x_only", "z_only"):
        raise ValueError(f"exact counts take x_only or z_only, not {kind!r}")
    n, m, k = code.n, line.n, line.k
    if not (dec.k and k):  # no word to decode, or every word its own leader
        return (0,) * (n + 1)
    for size, what in ((m, "line patterns"),
                       ((dec.n - dec.k) * k, "syndromes")):
        if size > _EXACT_MAX_BITS:
            raise ValueError(f"exact {kind} counts would walk 2**{size} "
                             f"{what}; the limit is 2**{_EXACT_MAX_BITS}")
    # A[s] for each signature s a row can hold, all 2**k of them or only 0
    # when the one leader is 0, and a last A that gathers the rest, each as
    # one int with the count of weight w at bit n*w: counts on n sites are
    # below 2**n, so no carry.
    held = 1 << k if len(dec.leaders) > 1 else 1
    key = np.minimum(_span_words(_bit_weights(line.generator)), held)
    table = np.bincount(key * (m + 1) + _popcount(np.arange(1 << m)),
                        minlength=(held + 1) * (m + 1)).reshape(-1, m + 1)
    if k > 1:  # classes of equal A, held as 32 bits: every count is < 2**20
        table = table.astype(np.uint32)  # frees the int64 table first
        _, first, cls = np.unique(_row_keys(table),
                                  return_index=True, return_inverse=True)
        table, cls = table[first], cls.astype(np.min_scalar_type(len(first)))
        bits = (dec.leaders[:, None] >> np.arange(dec.n) & 1).astype(
            np.min_scalar_type((1 << k) - 1))
        rows = np.sort(cls[sum(bits.reshape((-1,) + (1,) * (k - 1 - b) + (
            dec.n,)) << b for b in range(k)).reshape(-1, dec.n)], axis=1)
        _, first, count = np.unique(_row_keys(rows), return_index=True,
                                    return_counts=True)
    poly = [sum(c << n * w for w, c in enumerate(a)) for a in table.tolist()]
    if k == 1:  # the leaders of weight w pass A[1]**w A[0]**(n1-w), by Horner
        passing, power = 0, 1
        for c in np.bincount(_popcount(dec.leaders),
                             minlength=dec.n + 1).tolist():
            passing, power = passing * poly[0] + c * power, power * poly[1]
    else:
        passing = int((count.astype(object) * np.array(poly, object)[
            rows[first]].prod(axis=1)).sum())
    return tuple(math.comb(n, w) - (passing >> n * w & (1 << n) - 1)
                 for w in range(n + 1))


def _row_keys(a: np.ndarray) -> np.ndarray:
    """A bytes key per row of C-ordered ``a``: np.unique(axis=0) is slower."""
    return a.view(np.dtype((np.void, a.strides[0])))[:, 0]


def exact_rate_enumeration(code: SubsystemCode, noise: NoiseModel) -> float:
    """Exact logical failure rate for a channel whose axes are independent:
    under ``x_only`` or ``z_only``, ``math.fsum`` of the terms ``F_w p**w
    (1-p)**(N-w)`` of the :func:`failing_counts`, none negative; under
    ``independent_xz``, ``1 - (1 - P_x)(1 - P_z)`` from the ``x_only(p_x)``
    and ``z_only(p_z)`` rates.  Refused before any count: depolarizing
    noise, which correlates the axes at each site, N > 1029 sites, where
    ``C(N, N/2)`` is past a float, and what :func:`failing_counts` refuses."""
    if noise.kind == "depolarizing":
        raise ValueError(f"exact rates take x_only, z_only or independent_xz "
                         f"noise, not {noise.kind!r}")
    p, n = noise.p, code.n
    if math.comb(n, n // 2) > sys.float_info.max:  # each F_w becomes a float
        raise ValueError(f"{n} sites are past the float limit N <= 1029")
    if noise.kind == "independent_xz":
        p_x = exact_rate_enumeration(code, NoiseModel.x_only(noise.p_x))
        p_z = exact_rate_enumeration(code, NoiseModel.z_only(noise.p_z))
        return p_x + p_z - p_x * p_z  # 1 - (1-P_x)(1-P_z), without cancelling
    return math.fsum(f * p ** w * (1.0 - p) ** (n - w) for w, f in
                     enumerate(failing_counts(code, noise.kind)) if f)


def _classical_summary(c: LinearCode) -> dict:
    return {"n": c.n, "k": c.k, "d": c.distance_if_enumerable()}


def compare_report(c1: LinearCode, c2: LinearCode) -> dict:
    """Stabilizer-measurement comparison for the grid built from (c1, c2).

    The grid's parameters and both stabilizer counts are read from the
    :class:`SubsystemCode` and :class:`ShorCode` built on the pair, whose
    counts come from the factors' sizes, so no generator stack is built.
    When both factors are [7,4,3] codes (each the Hamming code up to column
    order) the report also lists the composed schemes that trade extra
    qubits for distance, with their stabilizer counts split inner + outer.
    """
    code1, code2 = _classical_summary(c1), _classical_summary(c2)
    grid = SubsystemCode(c1, c2)
    sub = sum(grid.stabilizer_counts)
    shor = sum(ShorCode(c1, c2).stabilizer_counts)
    report = {
        "code1": code1,
        "code2": code2,
        "grid": {"n": grid.n, "k": grid.k, "gauge_qubits": grid.gauge_qubits,
                 "distance": grid.distance},
        "subsystem_stabilizers": sub,
        "shor_stabilizers": shor,
        "stabilizers_saved": shor - sub,
    }
    if code1 == code2 == {"n": 7, "k": 4, "d": 3}:
        steane_block = 6  # a [[7,1,3]] code measures 7 - 1 stabilizers
        report["composed_schemes"] = [
            {"scheme": scheme, "inner_stabilizers": inner,
             "outer_stabilizers": outer, "total": inner + outer}
            for scheme, inner, outer in (
                ("hamming grid + rep4 grid outer layer",
                 sub, sum(_stabilizer_counts(4, 1, 4, 1))),
                ("hamming grid + rep3 grid outer layer on 9 logicals",
                 sub, sum(_stabilizer_counts(3, 1, 3, 1))),
                ("steane-in-steane concatenation",
                 7 * steane_block, steane_block))]
    return report
