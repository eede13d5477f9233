"""Subsystem quantum error-correcting codes from pairs of classical codes.

Two classical binary linear codes [n1,k1,d1] and [n2,k2,d2] combine on an
n1 x n2 qubit grid into a subsystem code [[n1*n2, k1*k2, min(d1,d2)]] that
needs only (n1-k1)*k2 + k1*(n2-k2) stabilizer measurements per round; the
comparable Shor-style subspace code needs (n1-k1)*n2 + k1*(n2-k2).

Importing the package loads ``gf2``, ``classical``, ``builder`` and
``simulate``, which are all that construction and a Monte Carlo run need.
The reference recovery path and the Pauli operator class are loaded on
first access (PEP 562): ``_LAZY`` maps each such name to its submodule.
"""

__version__ = "0.1.0"

from . import gf2
from .classical import LinearCode, builtin, hamming_7_4, repetition
from .builder import PauliDecomposition, ShorCode, SubsystemCode
from .simulate import (
    NoiseModel,
    TrialReport,
    compare_report,
    exact_rate_enumeration,
    failing_counts,
    run_trials,
)

# Name -> the submodule that defines it, for the names loaded on first use.
_LAZY = {
    "pauli": "pauli",
    "PauliGrid": "pauli",
    "recovery": "recovery",
    "Syndrome": "recovery",
    "RecoveryOutcome": "recovery",
    "extract_syndrome": "recovery",
    "decode_bitflip": "recovery",
    "decode_phaseflip": "recovery",
    "recover": "recovery",
    "distance_bruteforce": "recovery",
}

# The eager names, then every lazy name that is not a submodule.
__all__ = [
    "__version__", "gf2", "LinearCode", "builtin", "hamming_7_4", "repetition",
    "PauliDecomposition", "SubsystemCode", "ShorCode", "NoiseModel",
    "TrialReport", "run_trials", "exact_rate_enumeration", "failing_counts",
    "compare_report",
] + [name for name, module in _LAZY.items() if name != module]


def __getattr__(name: str):
    # importlib rather than ``from . import``, which would look the
    # submodule up with hasattr and land back here.
    import importlib

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
