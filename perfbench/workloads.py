"""The benchmark's workloads: inputs made from the seed, one timed pass,
and the checks on every output.

Importing this module imports numpy and the ``subqec`` package from the
``src`` directory of the checkout that holds the benchmark, never an
installed copy.
"""

from __future__ import annotations

import hashlib
import math
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "subqec"

if not (PACKAGE_DIR / "__init__.py").is_file():
    raise ImportError(f"no subqec sources at {PACKAGE_DIR}")
sys.path.insert(0, str(PACKAGE_DIR.parent))

import numpy as np  # noqa: E402

import subqec as sq  # noqa: E402

if Path(sq.__file__).resolve().parent != PACKAGE_DIR.resolve():
    raise ImportError(f"imported subqec from {sq.__file__}, not {PACKAGE_DIR}")

BATCH_SIZE = 8192          # run_trials' default, used by every timed call
CHECK_BATCH_SIZE = 3000    # second batch size for the determinism check
REFERENCE_TRIALS = 64      # leading trials replayed through recover()
RNG_LAYOUT = (
    "philox4x64 keyed by the run_trials seed; trial t owns ceil(draws/4) "
    "consecutive 4-word blocks from block t*ceil(draws/4); uniforms are "
    "numpy Generator.random over those blocks, first `draws` words kept; "
    "draws = draws_per_site * n")


class Ledger:
    """Counts library operations attempted and failed, and output checks
    that failed.  Shared by the threads of a two-thread pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list = []
        self._lock = threading.Lock()

    def call(self, fn, *args, **kwargs):
        with self._lock:
            self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every raise is counted and reported
            with self._lock:
                self.failed += 1
                self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def check(self, label: str, ok: bool) -> None:
        if not ok:
            with self._lock:
                self.wrong += 1
                self.errors.append(f"wrong result: {label}")


def derive_key(seed: int, *parts) -> int:
    """A 64-bit run_trials seed that depends only on (seed, parts)."""
    text = "/".join(str(x) for x in (seed, *parts)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


def replay_uniforms(seed: int, t0: int, t1: int, draws: int) -> np.ndarray:
    """The uniforms of trials [t0, t1), drawn with the layout RNG_LAYOUT
    documents; run_trials makes the same draws internally."""
    blocks = max(1, (draws + 3) // 4)
    bg = np.random.Philox(key=seed)
    bg.advance(t0 * blocks)
    u = np.random.Generator(bg).random((t1 - t0) * blocks * 4)
    return u.reshape(t1 - t0, blocks * 4)[:, :draws]


def replay_sampling(calls: list) -> None:
    """Redo the Philox draws of the given run_trials calls, batch by batch."""
    for seed, trials, draws in calls:
        for b0 in range(0, trials, BATCH_SIZE):
            replay_uniforms(seed, b0, min(b0 + BATCH_SIZE, trials), draws)


def majority_failure(n: int, q: float) -> float:
    """Failure rate of coset-leader decoding of rep(n) when each bit flips
    with probability q.  For even n, exactly one of the two weight-n/2
    patterns sharing a syndrome is its coset leader, so half of them fail."""
    rate = sum(math.comb(n, w) * q ** w * (1 - q) ** (n - w)
               for w in range(n // 2 + 1, n + 1))
    if n % 2 == 0:
        rate += 0.5 * math.comb(n, n // 2) * (q * (1 - q)) ** (n // 2)
    return rate


def grid_closed_form(n1: int, n2: int, p: float, axis: str) -> float:
    """Exact failure rate of rep(n1) x rep(n2) under x_only or z_only noise.

    x_only: the bit-flip stage decodes the n1 row parities with rep(n1);
    each parity flips with q = (1 - (1-2p)**n2) / 2.  z_only mirrors this
    with the n2 column parities, rep(n2) and exponent n1.
    """
    if axis == "x_only":
        return majority_failure(n1, (1 - (1 - 2 * p) ** n2) / 2)
    return majority_failure(n2, (1 - (1 - 2 * p) ** n1) / 2)


def warm(code, ledger: Ledger, key: int, sampled: list = None) -> None:
    """A 1-trial run, which fills the decode tables of both factors.

    ``sampled`` collects (seed, trials, draws) of each run_trials call, for
    replay_sampling."""
    if ledger.call(sq.run_trials, code, sq.NoiseModel.depolarizing(0.01),
                   1, key) is not None and sampled is not None:
        sampled.append((key, 1, code.n))


def timed(call_times, fn, *args):
    """``fn(*args)``; its wall time is appended to ``call_times`` unless
    that is None."""
    if call_times is None:
        return fn(*args)
    t0 = time.perf_counter()
    out = fn(*args)
    call_times.append(time.perf_counter() - t0)
    return out


class Workload:
    """One named set of inputs (why each exists: NOTES.md).  Subclasses
    define the pass and its checks.

    ``setup`` builds the codes and fills the decode tables; ``run_pass``
    does one pass of the fixed work with one or two threads and returns its
    outputs; with one thread and a ``call_times`` list, it appends the wall
    time of each library call of the pass, always in the same order.
    ``check_pair`` compares the two outputs of a pass index;
    ``final_checks`` runs the untimed checks against independent oracles.
    """

    name = ""
    unit = ""  # what work_per_pass() counts

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny


class MonteCarlo(Workload):
    unit = "trials"
    # (label, code 1 spec, code 2 spec, noise kind, noise args)
    configs: tuple = ()
    # run_trials calls per config in a pass, each with its own seed.  A call
    # of 16384 trials is two batches, so workers=2 has one for each thread,
    # and is short enough to fall in a quiet window of the host (NOTES.md).
    calls_per_config = 1
    trials = 16384
    tiny_trials = 2048

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.n_trials = self.tiny_trials if tiny else self.trials
        # (config index, call index) of each run_trials call of a pass
        self.calls = [(j, c) for j in range(len(self.configs))
                      for c in range(self.calls_per_config)]

    def work_per_pass(self) -> int:
        return self.n_trials * len(self.calls)

    def setup(self, ledger: Ledger, sampled: list = None) -> None:
        self.codes = []
        for j, (label, s1, s2, kind, args) in enumerate(self.configs):
            c1 = ledger.call(sq.builtin, s1)
            c2 = ledger.call(sq.builtin, s2)
            code = ledger.call(sq.SubsystemCode, c1, c2)
            noise = getattr(sq.NoiseModel, kind)(*args)
            warm(code, ledger, derive_key(self.seed, "warm", j), sampled)
            self.codes.append((label, code, noise))

    def key(self, i: int, j: int, c: int) -> int:
        return derive_key(self.seed, "pass", i, j, c)

    def _run_one(self, i, j, c, workers, ledger):
        _, code, noise = self.codes[j]
        return ledger.call(sq.run_trials, code, noise, self.n_trials,
                           self.key(i, j, c), workers=workers,
                           batch_size=BATCH_SIZE)

    def run_pass(self, i: int, workers: int, pool, ledger: Ledger,
                 sampled: list = None, call_times: list = None) -> list:
        out = []
        for j, c in self.calls:
            rep = timed(call_times, self._run_one, i, j, c, workers, ledger)
            if sampled is not None:
                _, code, noise = self.codes[j]
                sampled.append((self.key(i, j, c), self.n_trials,
                                noise.draws_per_site * code.n))
            out.append(None if rep is None else rep.logical_failures)
        return out

    def check_pair(self, i: int, out1: list, out2: list, ledger: Ledger) -> None:
        for (j, c), o1, o2 in zip(self.calls, out1, out2):
            if o1 is not None and o2 is not None:
                ledger.check(f"{self.codes[j][0]} pass {i} call {c}: {o1} and "
                             f"{o2} failures from the same inputs", o1 == o2)

    def final_checks(self, first_pass: list, ledger: Ledger) -> dict:
        """Checks the first call of each config in the first pass."""
        rates = {}
        for j, (label, code, noise) in enumerate(self.codes):
            key = self.key(0, j, 0)
            first = first_pass[self.calls.index((j, 0))]
            other = ledger.call(sq.run_trials, code, noise, self.n_trials, key,
                                batch_size=CHECK_BATCH_SIZE)
            if other is not None and first is not None:
                ledger.check(
                    f"{label}: batch_size {CHECK_BATCH_SIZE} gives "
                    f"{other.logical_failures} failures, batch_size "
                    f"{BATCH_SIZE} gives {first}",
                    other.logical_failures == first)
                rates[label] = first / self.n_trials
            head = ledger.call(sq.run_trials, code, noise, REFERENCE_TRIALS, key)
            u = replay_uniforms(key, 0, REFERENCE_TRIALS,
                                noise.draws_per_site * code.n)
            z, x = noise.errors_from_uniforms(u, code.n)
            shape = (code.n1, code.n2)
            outcomes = [ledger.call(sq.recover, code, sq.PauliGrid(
                z[t].reshape(shape), x[t].reshape(shape)))
                for t in range(REFERENCE_TRIALS)]
            if head is not None and None not in outcomes:
                ref = sum(not o.logical_ok for o in outcomes)
                ledger.check(
                    f"{label}: run_trials counts {head.logical_failures} "
                    f"failures in the first {REFERENCE_TRIALS} trials, "
                    f"recover() counts {ref}", head.logical_failures == ref)
        return {"failure_rate_first_pass": rates}

    def provenance(self) -> dict:
        return {
            "trials_per_call": self.n_trials,
            "calls_per_config": self.calls_per_config,
            "trials_per_pass": self.work_per_pass(),
            "batch_size": BATCH_SIZE,
            "check_batch_size": CHECK_BATCH_SIZE,
            "rng_layout": RNG_LAYOUT,
            "configs": [
                {"label": label, "code": code.params, "noise": noise.describe()}
                for label, code, noise in self.codes],
        }


class McDecode(MonteCarlo):
    name = "mc_decode"
    configs = (
        ("ham2_dep0.01", "hamming:7-4", "hamming:7-4", "depolarizing", (0.01,)),
        ("rep5xham_dep0.1", "rep:5", "hamming:7-4", "depolarizing", (0.1,)),
    )


class McSample(MonteCarlo):
    name = "mc_sample"
    configs = (
        ("rep9sq_ixz0.01", "rep:9", "rep:9", "independent_xz", (0.01, 0.01)),
    )
    calls_per_config = 2


_CLASSICAL = {"rep": lambda n: (n, 1, n), "ham": lambda n: (7, 4, 3)}


def _classical_matrices(kind: str, n: int, perm: np.ndarray) -> dict:
    """Generator/check matrices of rep(n) or hamming(7,4), columns permuted."""
    if kind == "rep":
        g = np.ones((1, n), np.uint8)
        p = np.zeros((n - 1, n), np.uint8)
        idx = np.arange(n - 1)
        p[idx, idx] = 1
        p[idx, idx + 1] = 1
        return {"generator": g[:, perm], "check": p[:, perm], "distance": n,
                "name": f"rep{n}"}
    j = np.arange(1, 8)
    p = ((j[None, :] >> np.arange(3)[:, None]) & 1).astype(np.uint8)
    return {"check": p[:, perm], "distance": 3, "name": "hamming7_4"}


class Build(Workload):
    name = "build"
    unit = "grids"

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        top = 7 if tiny else 11
        self.ladder = [(("rep", n), ("rep", n)) for n in range(3, top + 1, 2)]
        self.ladder += [(("ham", 7), ("ham", 7)), (("rep", 5), ("ham", 7))]
        rng = np.random.default_rng(seed)
        self.inputs = [
            tuple(_classical_matrices(kind, n, rng.permutation(n))
                  for kind, n in pair)
            for pair in self.ladder]

    def work_per_pass(self) -> int:
        return len(self.ladder)

    def setup(self, ledger: Ledger, sampled: list = None) -> None:
        pass

    def _build_one(self, pair, ledger: Ledger, call_times: list = None):
        c1 = timed(call_times, lambda: ledger.call(sq.LinearCode, **pair[0]))
        c2 = timed(call_times, lambda: ledger.call(sq.LinearCode, **pair[1]))
        if c1 is None or c2 is None:
            return None
        sub = timed(call_times, ledger.call, sq.SubsystemCode, c1, c2)
        shor = timed(call_times, ledger.call, sq.ShorCode, c1, c2)
        if sub is None or shor is None:
            return None
        return (c1.params, c2.params,
                sub.params, len(sub.z_stabilizers), len(sub.x_stabilizers),
                len(sub.z_gauges), len(sub.x_gauges), len(sub.logicals),
                shor.params, len(shor.z_stabilizers), len(shor.x_stabilizers),
                len(shor.gauges), len(shor.logicals))

    def run_pass(self, i, workers, pool, ledger, sampled=None,
                 call_times=None):
        if workers == 1:
            return [self._build_one(pair, ledger, call_times)
                    for pair in self.inputs]
        return list(pool.map(lambda pair: self._build_one(pair, ledger),
                             self.inputs))

    def check_pair(self, i, out1, out2, ledger):
        for spec, o1, o2 in zip(self.ladder, out1, out2):
            n1, k1, d1 = _CLASSICAL[spec[0][0]](spec[0][1])
            n2, k2, d2 = _CLASSICAL[spec[1][0]](spec[1][1])
            grid = (n1 * n2, k1 * k2, min(d1, d2))
            m1, m2 = n1 - k1, n2 - k2
            want = ((n1, k1, d1), (n2, k2, d2),
                    grid, m1 * k2, k1 * m2, m1 * m2, m1 * m2, 2 * k1 * k2,
                    grid, m1 * n2, k1 * m2, 0, 2 * k1 * k2)
            for out in (o1, o2):
                if out is not None:
                    ledger.check(f"{spec}: params and generator counts {out}, "
                                 f"expected {want}", out == want)

    def final_checks(self, first_pass, ledger):
        return {}

    def provenance(self):
        return {"ladder": [f"{a[0]}{a[1]} x {b[0]}{b[1]}" for a, b in self.ladder],
                "column_permutation": "numpy default_rng(seed).permutation per code"}


class Oracle(Workload):
    name = "oracle"
    unit = "oracle_calls"
    # Every timed call is at most about 80 ms on a quiet core, so that it
    # falls in a quiet stretch of the host at some point of a run
    # (NOTES.md): enumerations on rep3 x rep3 (512 patterns per axis) and the
    # distance search on rep4^2.  The larger cases run once per run, untimed,
    # against their closed forms: the enumerations on rep3 x rep4 (4096
    # patterns per axis, with rep4's tie-break) and the rep5^2 distance
    # search, about 0.25 s.
    pass_shape = (3, 3)
    check_shape = (3, 4)

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        rng = np.random.default_rng(seed)
        self.p_x, self.p_z = (float(v) for v in rng.uniform(0.04, 0.06, size=2))
        self.dist_rep = 3 if tiny else 4
        self.check_dist_rep = self.dist_rep + 1

    def work_per_pass(self) -> int:
        return 4

    def setup(self, ledger: Ledger, sampled: list = None) -> None:
        rep = lambda n: ledger.call(sq.repetition, n)  # noqa: E731
        grid = lambda c1, c2: ledger.call(sq.SubsystemCode, c1, c2)  # noqa: E731
        ham = ledger.call(sq.hamming_7_4)
        self.enum_code = grid(rep(3), rep(3))
        self.check_code = grid(rep(3), rep(4))
        r = rep(self.dist_rep)
        self.rep_code = grid(r, r)
        r = rep(self.check_dist_rep)
        self.check_rep_code = grid(r, r)
        self.ham_code = grid(ham, ham)
        for j, code in enumerate((self.enum_code, self.check_code,
                                  self.rep_code, self.ham_code,
                                  self.check_rep_code)):
            warm(code, ledger, derive_key(self.seed, "warm", j), sampled)
        self.items = [
            ("enum_x_only", "exact_rate_enumeration",
             (self.enum_code, sq.NoiseModel.x_only(self.p_x)),
             grid_closed_form(*self.pass_shape, self.p_x, "x_only")),
            ("enum_z_only", "exact_rate_enumeration",
             (self.enum_code, sq.NoiseModel.z_only(self.p_z)),
             grid_closed_form(*self.pass_shape, self.p_z, "z_only")),
            (f"distance_rep{self.dist_rep}sq", "distance_bruteforce",
             (self.rep_code, self.dist_rep), self.dist_rep),
            ("distance_ham2", "distance_bruteforce", (self.ham_code, 3), 3),
        ]

    def _run_one(self, item, ledger):
        _, fn, args, _ = item
        # Looked up at call time, so a traced pass goes through the wrappers.
        return ledger.call(getattr(sq, fn), *args)

    def run_pass(self, i, workers, pool, ledger, sampled=None,
                 call_times=None):
        if workers == 1:
            return [timed(call_times, self._run_one, item, ledger)
                    for item in self.items]
        return list(pool.map(lambda item: self._run_one(item, ledger),
                             self.items))

    @staticmethod
    def _check(label, out, want, ledger):
        if out is None:
            return
        ok = abs(out - want) <= 1e-12 if isinstance(want, float) else out == want
        ledger.check(f"{label}: got {out!r}, expected {want!r}", ok)

    def check_pair(self, i, out1, out2, ledger):
        for (label, _, _, want), o1, o2 in zip(self.items, out1, out2):
            self._check(label, o1, want, ledger)
            self._check(label, o2, want, ledger)

    def final_checks(self, first_pass, ledger):
        results = {label: out for (label, *_), out in zip(self.items, first_pass)}
        for axis, p in (("x_only", self.p_x), ("z_only", self.p_z)):
            label = f"enum_{axis}_rep3xrep4"
            results[label] = ledger.call(sq.exact_rate_enumeration,
                                         self.check_code,
                                         getattr(sq.NoiseModel, axis)(p))
            self._check(label, results[label],
                        grid_closed_form(*self.check_shape, p, axis), ledger)
        d = self.check_dist_rep
        label = f"distance_rep{d}sq"
        results[label] = ledger.call(sq.distance_bruteforce,
                                     self.check_rep_code, d)
        self._check(label, results[label], d, ledger)
        return results

    def provenance(self):
        return {"enumeration_grid": "rep3 x rep3 (timed), rep3 x rep4 (checked)",
                "p_x_only": self.p_x, "p_z_only": self.p_z,
                "distance_searches": [f"rep{self.dist_rep}^2 w<={self.dist_rep}",
                                      "hamming^2 w<=3"],
                "distance_checked": f"rep{self.check_dist_rep}^2 "
                                    f"w<={self.check_dist_rep}"}


class Combined(Workload):
    """The passes of several parts run as one pass.  Two workloads of two
    parts each, rather than four, give each run twice the time on the same
    budget of runs (NOTES.md)."""

    parts: tuple = ()

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.members = [cls(seed, tiny) for cls in self.parts]
        # library calls each member times in a one-thread pass
        self.calls_per_member = [0] * len(self.members)

    def setup(self, ledger: Ledger, sampled: list = None) -> None:
        for m in self.members:
            m.setup(ledger, sampled)

    def run_pass(self, i, workers, pool, ledger, sampled=None,
                 call_times=None):
        out = []
        for k, m in enumerate(self.members):
            before = len(call_times) if call_times is not None else 0
            out.append(m.run_pass(i, workers, pool, ledger, sampled,
                                  call_times))
            if call_times is not None:
                self.calls_per_member[k] = len(call_times) - before
        return out

    def check_pair(self, i, out1, out2, ledger):
        for m, o1, o2 in zip(self.members, out1, out2):
            m.check_pair(i, o1, o2, ledger)

    def final_checks(self, first_pass, ledger):
        return {m.name: m.final_checks(out, ledger)
                for m, out in zip(self.members, first_pass)}

    def provenance(self):
        return {m.name: m.provenance() for m in self.members}


class Mc(Combined):
    name = "mc"
    parts = (McDecode, McSample)


class Codes(Combined):
    name = "codes"
    parts = (Build, Oracle)


WORKLOADS = {w.name: w for w in (Mc, Codes)}
