"""Smoke check of the benchmark: every workload at tiny size, untraced and
traced, must finish, report correct results and print exactly the metric
names BENCHMARK.json lists.  The tracer must wrap every public function of
the package under each name it is bound to, and remove every wrapper.  A
copy holding only BENCHMARK.json and this directory must exit non-zero
without a result.

    python3 perfbench/smoke.py

Exits 0 when every check passes.  Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def bench_run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def unwrapped_names(tracer) -> list:
    """Public functions of the package and its layer modules, under any of
    their names, that the installed tracer does not wrap."""
    missing = []
    for module in [tracer.package, *tracer.modules]:
        for attr, obj in vars(module).items():
            if (callable(obj) and not isinstance(obj, type)
                    and not attr.startswith("_")
                    and getattr(obj, "__module__", "").startswith("subqec.")
                    and not hasattr(obj, "__wrapped__")):
                missing.append(f"{module.__name__}.{attr}")
    return missing


def main() -> int:
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    closed = workloads.grid_closed_form(3, 4, 0.05, "x_only")
    if abs(closed - 0.0785324) > 5e-8:
        problems.append(f"closed form at p=0.05 gives {closed}, not 0.0785324")

    tracer = Tracer(workloads.sq)
    tracer.install()
    missing = unwrapped_names(tracer)
    traced_recover = workloads.sq.simulate.recover
    tracer.uninstall()
    if missing or not hasattr(traced_recover, "__wrapped__"):
        problems.append(f"tracer leaves unwrapped: {missing}")
    if workloads.sq.simulate.recover is not workloads.sq.recovery.recover or \
            hasattr(workloads.sq.run_trials, "__wrapped__"):
        problems.append("tracer.uninstall left wrappers in place")

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = bench_run(ROOT, name, trace)
            label = f"{name} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result (exit {proc.returncode})\n"
                                f"{proc.stderr[-2000:]}")
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                problems.append(f"{label}: metrics missing {missing}, "
                                f"unexpected {extra}, or units differ")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
            print(f"{label}: {result['attempted']} ops, "
                  f"correct={result['correct']}", flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run(bare, "mc", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare copy: exit {proc.returncode}, "
                        f"stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
