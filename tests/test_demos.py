"""Each demo script runs to completion and prints its headline results."""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

EXPECTED = {
    "build_and_inspect.py": ("[[9,1,3]] with 4 gauge qubits",),
    "measurement_savings.py": ("inner 24 + outer 6 = 30 measurements",),
    "monte_carlo_rates.py": ("[[9,1,3]]   0.01   0.002543",
                             "[[49,16,3]]   0.01   0.051979"),
    "recovery_walkthrough.py": ("Residual is a gauge operator: True",),
}


def test_every_demo_has_an_expectation():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    for line in EXPECTED[name]:
        assert line in out
