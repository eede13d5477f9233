"""One set-up of a workload in a fresh process, timed from before the
package import: import subqec, build the workload's codes and finish a
first 1-trial run_trials per code, which fills the decode tables.

numpy is imported before the clock starts.  Its import takes 50-150 ms on a
2-vCPU VM, varies with the page cache and other tenants, and is not the
package's cost; any other import the package adds is timed.

    python3 perfbench/probe.py <workload> <seed> [--tiny]

Prints {"setup_s", "attempted", "failed"} as one JSON line.  run.py starts
several of these per run and reports the median as setup_s.
"""

import json
import sys
import time

import numpy  # noqa: F401

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports subqec)

name, seed = sys.argv[1], int(sys.argv[2])
workload = workloads.WORKLOADS[name](seed, "--tiny" in sys.argv[3:])
ledger = workloads.Ledger()
workload.setup(ledger)
elapsed = time.perf_counter() - t0
print(json.dumps({"setup_s": elapsed, "attempted": ledger.attempted,
                  "failed": ledger.failed}))
