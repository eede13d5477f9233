"""Benchmark of the subqec package.

    python3 perfbench/run.py --workload mc --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
One run does a fixed pass of the workload's work again and again for
``--seconds`` seconds with one thread, and checks every output (see
NOTES.md).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones: the untraced passes then
alternate one and two threads, and a separate traced section wraps the
package's public functions (tracer.py) and writes its spans to
``.perfbench_out/``.  The line before it is the full report, with
provenance.  Exits 2 without a result when the checkout has no package
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "subqec"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 15       # fresh processes per run; setup_s is their median
MIN_PASSES = 3          # per thread count, even when --seconds runs out
TRACED_PASSES = 2       # fixed, so traced call counts repeat exactly
UNTRACED_SHARE = 0.5    # of --seconds, for the untraced passes of a traced run
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# metric prefix -> (span name recorded by the tracer, fields reported)
LAYER_SPANS = (
    ("simulate.run_trials", "simulate.run_trials", ("calls", "s")),
    ("simulate.sample", "simulate.sample", ("s",)),
    ("simulate.threshold", "simulate.NoiseModel.errors_from_uniforms",
     ("calls", "s")),
    ("simulate.exact_rate_enumeration", "simulate.exact_rate_enumeration",
     ("calls", "s")),
    *((f"recovery.{f}", f"recovery.{f}", ("calls", "self_s"))
      for f in ("recover", "extract_syndrome", "decode_bitflip",
                "decode_phaseflip", "distance_bruteforce")),
    ("builder.decompose", "builder.SubsystemCode.decompose", ("calls", "self_s")),
    ("pauli.mul", "pauli.PauliGrid.__mul__", ("calls", "s")),
    ("gf2.mat_mul", "gf2.mat_mul", ("calls", "s")),
    ("pauli.commutes", "pauli.PauliGrid.commutes", ("calls", "s")),
    ("pauli.PauliGrid", "pauli.PauliGrid", ("calls",)),
    ("gf2.rank", "gf2.rank", ("calls", "s")),
    ("builder.SubsystemCode", "builder.SubsystemCode", ("calls", "self_s")),
    ("builder.ShorCode", "builder.ShorCode", ("calls", "self_s")),
    ("classical.decode", "classical.LinearCode.decode", ("calls", "s")),
    ("classical.LinearCode", "classical.LinearCode", ("calls", "s")),
    ("gf2.dual_complete", "gf2.dual_complete", ("s",)),
)
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
DERIVED_LAYER = (
    ("simulate.kernel.s", "s"),
    ("simulate.parallel_eff", "ratio"),
    ("simulate.parallel_eff.base_pass_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
)
PER_LAYER = tuple(
    (f"{prefix}.{field}", FIELD_UNITS[field])
    for prefix, _, fields in LAYER_SPANS for field in fields) + DERIVED_LAYER


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every pass (for smoke.py)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def quartiles(values: list) -> dict:
    q1, q3 = ((statistics.quantiles(values, n=4)[::2]) if len(values) > 1
              else (values[0], values[0]))
    return {"min": min(values), "q1": q1, "median": statistics.median(values),
            "q3": q3, "n": len(values)}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(wl, args, workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "subqec_version": wl.sq.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "worker_threads": [1, 2],
        "python": platform.python_version(),
        "numpy": wl.np.__version__,
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        **workload.provenance(),
    }


def setup_probe(args, ledger) -> float:
    """Set-up time of one fresh process (probe.py); None if it failed."""
    cmd = [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    ledger.attempted += 1
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or result["failed"]:
        ledger.failed += 1
        sys.stderr.write(proc.stderr)
        return None
    return result["setup_s"]


def measure(workload, pool, ledger, seconds: float, keep: int,
            thread_counts: tuple, probe=None) -> dict:
    """Repeat passes for ``seconds``, each pass index once per thread count
    on the same inputs, alternating which thread count goes first.

    Returns the pass times per thread count, the time of each library call
    of the one-thread passes (one row per pass), and the one-thread outputs
    of the first ``keep`` passes.  With two thread counts, the two outputs
    of each pass index are checked against each other.

    ``probe``, if given, is called SETUP_PROBES times, spread evenly over
    ``seconds`` between passes; its results are returned as setup_times.
    """
    times = {workers: [] for workers in thread_counts}
    call_times = []
    outputs = []
    setup_times = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < MIN_PASSES or time.perf_counter() < deadline:
        out = {}
        for workers in (thread_counts if i % 2 == 0 else thread_counts[::-1]):
            row = [] if workers == 1 else None
            t0 = time.perf_counter()
            out[workers] = workload.run_pass(i, workers, pool, ledger,
                                             call_times=row)
            times[workers].append(time.perf_counter() - t0)
            if row is not None:
                call_times.append(row)
        if 2 in out:
            workload.check_pair(i, out[1], out[2], ledger)
        if i < keep:
            outputs.append(out[1])
        # Spread over the run, the set-ups meet the same load from other
        # tenants as the passes, not just that of the run's first seconds.
        if (probe is not None and len(setup_times) < SETUP_PROBES
                and time.perf_counter() - start
                >= len(setup_times) * seconds / SETUP_PROBES):
            setup_times.append(probe())
        i += 1
    while probe is not None and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe())
    return {"times": times, "call_times": call_times, "outputs": outputs,
            "setup_times": [t for t in setup_times if t is not None]}


def traced_section(wl, args, untraced_outputs, ledger) -> dict:
    """Set up a fresh copy of the workload and run TRACED_PASSES one-thread
    passes with every layer wrapped, then replay the Philox draws of the
    run_trials calls made.  Writes the spans and returns the totals."""
    from tracer import Tracer

    tracer = Tracer(wl.sq)
    phases, sampled, pass_times = [], [], []
    workload = wl.WORKLOADS[args.workload](args.seed, args.tiny)
    tracer.install()
    try:
        start = time.perf_counter_ns()
        workload.setup(ledger, sampled)
        phases.append(("setup", start, time.perf_counter_ns()))
        for i in range(TRACED_PASSES):
            t0 = time.perf_counter_ns()
            out = workload.run_pass(i, 1, None, ledger, sampled)
            t1 = time.perf_counter_ns()
            phases.append((f"pass{i}", t0, t1))
            pass_times.append((t1 - t0) / 1e9)
            workload.check_pair(i, untraced_outputs[i], out, ledger)
        if sampled:
            t0 = time.perf_counter_ns()
            with tracer.span("simulate.sample"):
                wl.replay_sampling(sampled)
            phases.append(("sample_replay", t0, time.perf_counter_ns()))
        end = time.perf_counter_ns()
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.npz"
    tracer.write(spans_path, phases)
    totals = tracer.totals()
    self_sum = sum(t[2] for t in totals.values())
    return {
        "totals": totals,
        "pass_times": pass_times,
        "wall_s": (end - start) / 1e9,
        "coverage": self_sum / ((end - start) / 1e9),
        "spans": len(tracer.span_name),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def layer_metrics(traced: dict, times: dict) -> dict:
    """Per-layer metrics from the traced section's totals and the untraced
    pass times of the same run."""
    untraced_1w, untraced_2w = min(times[1]), min(times[2])
    # Compared with the untraced passes of the same indices (same inputs), so
    # both sides are the fastest of TRACED_PASSES passes.
    untraced_same = min(times[1][:TRACED_PASSES])
    totals = traced["totals"]
    values = {}
    for prefix, span, fields in LAYER_SPANS:
        calls, total_s, self_s = totals.get(span, (0, 0.0, 0.0))
        for field in fields:
            values[f"{prefix}.{field}"] = {"calls": calls, "s": total_s,
                                           "self_s": self_s}[field]
    run_trials_self = totals.get("simulate.run_trials", (0, 0.0, 0.0))[2]
    traced_pass = min(traced["pass_times"])
    values.update({
        "simulate.kernel.s": run_trials_self - values["simulate.sample.s"],
        "simulate.parallel_eff": untraced_1w / (2 * untraced_2w),
        "simulate.parallel_eff.base_pass_s": untraced_1w,
        "trace.overhead": traced_pass / untraced_same,
        "trace.untraced_pass_s": untraced_same,
        "trace.traced_pass_s": traced_pass,
        "trace.coverage": traced["coverage"],
        "trace.spans": traced["spans"],
    })
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]}
            for name, _ in PER_LAYER}


def part_rates(workload, calls: list) -> dict:
    """For each part of a pass: its calls' summed minima, its work, and the
    work per second at that time (trials/s on the Monte Carlo parts)."""
    rates, k = {}, 0
    for m, n in zip(workload.members, workload.calls_per_member):
        part_s = sum(min(t) for t in calls[k:k + n])
        k += n
        rates[m.name] = {"pass_s": part_s, m.unit: m.work_per_pass(),
                         f"{m.unit}_per_s": m.work_per_pass() / part_s}
    return rates


def run(args) -> dict:
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload](args.seed, args.tiny)
    ledger = wl.Ledger()
    workload.setup(ledger)
    seconds = args.seconds * (UNTRACED_SHARE if args.trace else 1.0)
    keep = TRACED_PASSES if args.trace else 1
    thread_counts = (1, 2) if args.trace else (1,)
    with ThreadPoolExecutor(max_workers=2) as pool:
        measured = measure(
            workload, pool, ledger, seconds, keep, thread_counts,
            probe=None if args.trace else lambda: setup_probe(args, ledger))
        # Before the two-thread check pass: its peak depends on how the two
        # threads' batches happen to overlap (57-62 MB for mc_decode alone).
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            # One untimed two-thread pass must give the first pass's outputs.
            workload.check_pair(0, measured["outputs"][0],
                                workload.run_pass(0, 2, pool, ledger), ledger)
    traced = (traced_section(wl, args, measured["outputs"], ledger)
              if args.trace else None)
    checks = workload.final_checks(measured["outputs"][0], ledger)

    times, setup_times = measured["times"], measured["setup_times"]
    # Each library call's fastest time in the run, summed over the calls of
    # a pass.  Other tenants of the machine slow the same code by up to 1.9x
    # in stretches from milliseconds to minutes; a whole pass seldom runs in
    # a quiet stretch, a single call does more often (NOTES.md).
    calls = list(zip(*measured["call_times"]))
    pass_s = sum(min(t) for t in calls)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(wl, args, workload),
        "passes": {"pass_s": pass_s,
                   "call_1w_s": [quartiles(list(t)) for t in calls],
                   **{f"{w}w_s": quartiles(t) for w, t in times.items()},
                   **{f"{w}w_all_s": t for w, t in times.items()}},
        "parts": part_rates(workload, calls),
        "ops_attempted": ledger.attempted,
        "ops_failed": ledger.failed,
        "wrong_results": ledger.wrong,
        "errors": ledger.errors[:20],
        "checks": checks,
    }
    if args.trace:
        metrics = layer_metrics(traced, times)
        report["trace_section"] = {
            "wall_s": traced["wall_s"], "spans_file": traced["spans_file"],
            "derived": ["simulate.kernel.s = simulate.run_trials self time "
                        "- simulate.sample.s"],
            "spans": {name: {"calls": c, "s": s, "self_s": ss}
                      for name, (c, s, ss) in sorted(traced["totals"].items())
                      if c},
        }
    else:
        report["setup_s"] = {**quartiles(setup_times), "all_s": setup_times} \
            if setup_times else None
        values = {
            "pass_s": pass_s,
            "setup_s": statistics.median(setup_times) if setup_times else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    report["metrics"] = metrics
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"perfbench: no subqec sources at {PACKAGE_DIR}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    report = run(args)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"report_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["wrong_results"] == 0 and report["ops_failed"] == 0,
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
