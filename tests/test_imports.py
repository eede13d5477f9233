"""The package's import boundary, checked in a fresh interpreter: import,
construction and a Monte Carlo run load only the modules they use, and the
names loaded on first access still resolve."""

import json
import os
import pathlib
import subprocess
import sys
import typing

import subqec
from subqec import cli

SRC = pathlib.Path(subqec.__file__).resolve().parent.parent

# Modules that construction and a one-worker Monte Carlo run never call.
UNUSED = ("logging", "concurrent.futures", "subqec.recovery", "subqec.pauli")

SCRIPT = """
import contextlib, io, json, sys
unused = %r
before = {m for m in unused if m in sys.modules}

import subqec
from subqec import (LinearCode, NoiseModel, ShorCode, SubsystemCode, builtin,
                    cli, run_trials)

code = SubsystemCode(builtin("hamming:7-4"), builtin("hamming:7-4"))
ShorCode(LinearCode(check=[[1, 1, 0], [0, 1, 1]], distance=3), builtin("rep:2"))
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


LATE_LOGGING = """
import io, json
from subqec import SubsystemCode, repetition

SubsystemCode(repetition(3), repetition(3))  # logs nowhere: no logging yet
import logging
stream = io.StringIO()
logging.basicConfig(level=logging.DEBUG, stream=stream,
                    format="%(name)s:%(funcName)s:%(message)s")
SubsystemCode(repetition(3), repetition(4))
print(json.dumps(stream.getvalue().splitlines()))
"""


def test_logging_imported_after_a_construction_still_gets_records():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", LATE_LOGGING], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = json.loads(proc.stdout.strip().splitlines()[-1])
    assert lines == [
        "subqec.builder:__init__:built <SubsystemCode [[12,1,3]] on 3x4>: "
        "2 Z + 3 X stabilizers, 6 gauge pairs, 1 logical pairs"]


def test_pauli_annotations_resolve_with_pauligrid_given():
    """``PauliGrid`` is imported only where it is used, so the annotations
    that name it resolve once the caller supplies it."""
    localns = {"PauliGrid": subqec.PauliGrid}
    hints = {fn: typing.get_type_hints(fn, localns=localns) for fn in (
        subqec.SubsystemCode.decompose, subqec.SubsystemCode.recompose,
        subqec.SubsystemCode.contains_gauge, cli.parse_error, cli.render_op)}
    assert hints[subqec.SubsystemCode.decompose] == {
        "op": subqec.PauliGrid, "return": subqec.PauliDecomposition}
    assert hints[subqec.SubsystemCode.recompose] == {
        "dec": subqec.PauliDecomposition, "return": subqec.PauliGrid}
    assert hints[subqec.SubsystemCode.contains_gauge] == {
        "op": subqec.PauliGrid, "return": bool}
    assert hints[cli.parse_error] == {"text": str, "rows": int, "cols": int,
                                      "return": subqec.PauliGrid}
    assert hints[cli.render_op] == {"op": subqec.PauliGrid, "return": dict}
