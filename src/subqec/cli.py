"""Command-line front end.

Subcommands: info, build, distance, decode, simulate, compare.  Output is
JSON on stdout with sorted keys; rates, their standard error and their
interval are rounded to 6 significant digits, so identical runs emit
identical bytes and a small nonzero rate never prints as 0.  Exit codes:
0 success, 1 validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .classical import _BUILTIN_SPECS, LinearCode, builtin
from .builder import ShorCode, SubsystemCode
from .simulate import (RNG_LAYOUT, _NOISE_KINDS, NoiseModel,
                       _classical_summary, _reads, compare_report, run_trials)

# recovery and pauli are imported by the subcommands that use them, so
# simulate, build, info and compare skip them.
if TYPE_CHECKING:
    from .pauli import PauliGrid


# -- matrix files --------------------------------------------------------

def parse_matrix(text: str, source: str = "<matrix>") -> np.ndarray:
    """Parse the plain-text matrix format.

    First non-comment line is ``<rows> <cols>``; each following non-comment
    line is a string of 0/1 characters of length ``cols``.  ``#`` starts a
    comment anywhere on a line.  Errors name the offending line (1-based)
    and column.
    """
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            # str.isdigit also passes "²", which int() rejects, and "３",
            # which it reads as 3.
            if len(parts) != 2 or not all(p.isascii() and p.isdigit()
                                          for p in parts):
                raise ValueError(
                    f"{source}:{lineno}: expected '<rows> <cols>' header, "
                    f"got {line!r}")
            header = (int(parts[0]), int(parts[1]))
            continue
        if len(rows) == header[0]:
            raise ValueError(f"{source}:{lineno}: more rows than the header "
                             f"promised ({header[0]})")
        if len(line) != header[1]:
            raise ValueError(
                f"{source}:{lineno}: row has {len(line)} entries, header "
                f"promised {header[1]}")
        for col, ch in enumerate(line, start=1):
            if ch not in "01":
                raise ValueError(
                    f"{source}:{lineno}:{col}: invalid character {ch!r}; "
                    f"rows must be 0/1 strings")
        rows.append([int(ch) for ch in line])
    if header is None:
        raise ValueError(f"{source}: no header line found")
    if len(rows) != header[0]:
        raise ValueError(
            f"{source}: header promised {header[0]} rows, found {len(rows)}")
    return np.array(rows, dtype=np.uint8).reshape(header[0], header[1])


def load_code(spec: str) -> LinearCode:
    """Resolve a code spec: rep:<n>, hamming:7-4, generator:<path>, or
    parity:<path>."""
    spec = spec.strip()
    if spec.startswith("generator:") or spec.startswith("parity:"):
        role, path = spec.split(":", 1)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from None
        m = parse_matrix(text, source=path)
        if role == "generator":
            return LinearCode.from_generator(m)
        return LinearCode.from_parity(m)
    return builtin(spec)


# -- Pauli strings --------------------------------------------------------

_TERM_RE = re.compile(r"([XYZ])@\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)")


def parse_error(text: str, rows: int, cols: int) -> PauliGrid:
    """Parse ``X@(0,0),Z@(1,2),...``; repeated sites compose by
    multiplication."""
    from .pauli import PauliGrid

    op = PauliGrid.identity(rows, cols)
    # Site coordinates contain commas, so match whole terms instead of
    # splitting the string on commas.
    terms = _TERM_RE.findall(text)
    if _TERM_RE.sub("", text).strip(", \t"):
        raise ValueError(f"unparsed error terms in {text!r}; expected "
                         f"comma-separated P@(row,col) with P in X,Y,Z")
    if not terms:
        raise ValueError(f"no error terms found in {text!r}")
    for kind, r, c in terms:
        op = op * PauliGrid.single(rows, cols, int(r), int(c), kind)
    return op


# -- rendering ------------------------------------------------------------

def render_op(op: PauliGrid) -> dict:
    return {"phase": op.phase, "rows": op.to_rows()}


def _bits(m: np.ndarray) -> list:
    return [[int(v) for v in row] for row in np.atleast_2d(m)]


def _sig6(value: float) -> float:
    return float(f"{value:.6g}")


# -- subcommands ----------------------------------------------------------

def _cmd_info(args) -> dict:
    code = load_code(args.codespec)
    payload = {"name": code.name, **_classical_summary(code)}
    for role in ("generator", "check", "check_complement",
                 "generator_complement"):
        payload[role] = ["".join(map(str, r)) for r in getattr(code, role)]
    return payload


def _build(args, cls=SubsystemCode):
    return cls(load_code(args.c1), load_code(args.c2))


def _cmd_build(args) -> dict:
    code = _build(args, ShorCode if args.shor else SubsystemCode)
    for c in (code.c1, code.c2):
        c.distance_if_enumerable()  # fills in d, which code.distance reads
    s_z, s_x = code.stabilizer_counts
    payload = {
        "type": "shor" if code.shor else "subsystem",
        "n": code.n,
        "k": code.k,
        "distance": code.distance,
        "gauge_qubits": code.gauge_qubits,
        # Counted from the factors' sizes, which builds no stack.
        "z_stabilizers": s_z,
        "x_stabilizers": s_x,
        "total_stabilizers": s_z + s_x,
        "gauge_generators": 2 * code.gauge_qubits,
        "logical_pairs": code.k,
    }
    if args.verbose:
        payload["z_stabilizer_ops"] = [render_op(s) for s in code.z_stabilizers]
        payload["x_stabilizer_ops"] = [render_op(s) for s in code.x_stabilizers]
        payload["gauge_ops"] = [render_op(g) for g in code.gauges]
        payload["logical_x_ops"] = [render_op(l)
                                    for row in code.logical_x for l in row]
        payload["logical_z_ops"] = [render_op(l)
                                    for row in code.logical_z for l in row]
    return payload


def _cmd_distance(args) -> dict:
    from .recovery import distance_bruteforce

    code = _build(args)
    found = distance_bruteforce(code, args.wmax)
    return {
        "n": code.n,
        "k": code.k,
        "w_max": args.wmax,
        "distance": found,
        "found_within_bound": found is not None,
    }


def _cmd_decode(args) -> dict:
    from .recovery import extract_syndrome, recover

    code = _build(args)
    err = parse_error(args.error, code.n1, code.n2)
    syn = extract_syndrome(code, err)
    out = recover(code, err)
    return {
        "error": render_op(err),
        "syndrome": {"s_z": _bits(syn.s_z), "s_x": _bits(syn.s_x)},
        "correction": render_op(out.correction),
        "residual_z_logical": _bits(out.residual_z),
        "residual_x_logical": _bits(out.residual_x),
        "logical_ok": out.logical_ok,
    }


# NoiseModel field -> the simulate flag that sets it.
_RATE_FLAGS = {"p": "--p", "p_x": "--px", "p_z": "--pz"}


def _cmd_simulate(args) -> dict:
    code = _build(args)
    kind, read = args.noise, _reads(args.noise)
    unread = [flag for f, flag in _RATE_FLAGS.items()
              if f not in read and getattr(args, f) is not None]
    if unread:
        raise ValueError(f"{kind} noise does not read {', '.join(unread)}")
    fields = {f: getattr(args, f) for f in read}
    if None in fields.values():
        raise ValueError(
            f"{kind} needs {' and '.join(map(_RATE_FLAGS.get, read))}")
    noise = NoiseModel(kind, **fields)
    report = run_trials(code, noise, args.trials, args.seed,
                        workers=args.workers)
    n, k, gauge, stabs = report.code_params
    return {
        "trials": report.trials,
        "logical_failures": report.logical_failures,
        "bit_flip_failures": report.bit_flip_failures,
        "phase_flip_failures": report.phase_flip_failures,
        "rate": _sig6(report.rate),
        "std_error": _sig6(report.std_error),
        "ci_low": _sig6(report.ci_low),
        "ci_high": _sig6(report.ci_high),
        "seed": report.seed,
        "code": {"n": n, "k": k, "gauge_qubits": gauge,
                 "stabilizer_count": stabs},
        "noise": noise.describe(),
        "provenance": {"version": __version__, "c1": args.c1, "c2": args.c2,
                       "rng_layout": RNG_LAYOUT},
    }


def _cmd_compare(args) -> dict:
    c1 = load_code(args.c1)
    c2 = load_code(args.c2)
    return compare_report(c1, c2)


def _add_pair(sub):
    specs = (*_BUILTIN_SPECS, "generator:<path>", "parity:<path>")
    sub.add_argument("--c1", required=True,
                     help=f"first classical code ({', '.join(specs)})")
    sub.add_argument("--c2", required=True, help="second classical code")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subqec",
        description="Subsystem codes from pairs of classical linear codes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="describe a classical code")
    p.add_argument("codespec")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("build", help="build a grid code and report counts")
    _add_pair(p)
    p.add_argument("--shor", action="store_true",
                   help="build the Shor-style subspace variant")
    p.add_argument("--verbose", action="store_true",
                   help="include every generator as a Pauli grid")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("distance", help="brute-force the code distance")
    _add_pair(p)
    p.add_argument("--wmax", type=int, required=True,
                   help="largest weight to search")
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("decode", help="run recovery on a Pauli error")
    _add_pair(p)
    p.add_argument("--error", required=True,
                   help="comma-separated P@(row,col) terms, P in X,Y,Z")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="Monte Carlo logical failure rate")
    _add_pair(p)
    p.add_argument("--noise", required=True, choices=_NOISE_KINDS)
    for field, flag in _RATE_FLAGS.items():
        p.add_argument(flag, dest=field, metavar=flag[2:].upper(), type=float,
                       default=None)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare",
                       help="stabilizer counts vs the Shor-style variant")
    _add_pair(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
