"""The package's import boundary, checked in a fresh interpreter: import,
construction and a Monte Carlo run load only the modules they use, and the
names loaded on first access still resolve."""

import json
import os
import pathlib
import subprocess
import sys

import subqec

SRC = pathlib.Path(subqec.__file__).resolve().parent.parent

# Modules that construction and a one-worker Monte Carlo run never call.
UNUSED = ("logging", "concurrent.futures", "subqec.recovery", "subqec.pauli")

SCRIPT = """
import contextlib, io, json, sys
unused = %r
before = {m for m in unused if m in sys.modules}

import subqec
from subqec import NoiseModel, SubsystemCode, builtin, cli, run_trials

code = SubsystemCode(builtin("hamming:7-4"), builtin("hamming:7-4"))
noise = NoiseModel.depolarizing(0.05)
one = run_trials(code, noise, 3000, seed=5, workers=1)
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["simulate", "--c1", "rep:3", "--c2", "rep:3",
                       "--noise", "x_only", "--p", "0.1", "--trials", "500",
                       "--seed", "11"])
loaded = sorted(m for m in unused if m in sys.modules and m not in before)

unresolved = [name for name in subqec.__all__ if not hasattr(subqec, name)]
undirected = sorted(set(subqec.__all__) - set(dir(subqec)))
same_recover = subqec.recover is subqec.recovery.recover
star = {}
exec("from subqec import *", star)
star_missing = sorted(set(subqec.__all__) - set(star))
two = run_trials(code, noise, 3000, seed=5, workers=2)

print(json.dumps({"status": status, "loaded": loaded,
                  "unresolved": unresolved, "undirected": undirected,
                  "same_recover": same_recover, "star_missing": star_missing,
                  "workers_agree": one == two}))
""" % (UNUSED,)


def test_fresh_process_import_boundary():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"status": 0, "loaded": [], "unresolved": [],
                      "undirected": [], "same_recover": True,
                      "star_missing": [], "workers_agree": True}
