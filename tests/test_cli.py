"""Command-line interface tests: golden outputs, matrix file handling,
error-string parsing, and exit codes."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import subqec
from subqec import LinearCode, cli, simulate
from subqec.cli import (
    load_code,
    main,
    parse_error,
    parse_matrix,
)
from subqec import __version__
from subqec.simulate import RNG_LAYOUT, TrialReport

GOLDEN_INFO_REP3 = """\
{
  "check": [
    "110",
    "011"
  ],
  "check_complement": [
    "100"
  ],
  "d": 3,
  "generator": [
    "111"
  ],
  "generator_complement": [
    "011",
    "001"
  ],
  "k": 1,
  "n": 3,
  "name": "rep3"
}
"""

GOLDEN_COMPARE_REP3 = """\
{
  "code1": {
    "d": 3,
    "k": 1,
    "n": 3
  },
  "code2": {
    "d": 3,
    "k": 1,
    "n": 3
  },
  "grid": {
    "distance": 3,
    "gauge_qubits": 4,
    "k": 1,
    "n": 9
  },
  "shor_stabilizers": 8,
  "stabilizers_saved": 4,
  "subsystem_stabilizers": 4
}
"""

GOLDEN_COMPARE_HAMMING2 = """\
{
  "code1": {
    "d": 3,
    "k": 4,
    "n": 7
  },
  "code2": {
    "d": 3,
    "k": 4,
    "n": 7
  },
  "composed_schemes": [
    {
      "inner_stabilizers": 24,
      "outer_stabilizers": 6,
      "scheme": "hamming grid + rep4 grid outer layer",
      "total": 30
    },
    {
      "inner_stabilizers": 24,
      "outer_stabilizers": 4,
      "scheme": "hamming grid + rep3 grid outer layer on 9 logicals",
      "total": 28
    },
    {
      "inner_stabilizers": 42,
      "outer_stabilizers": 6,
      "scheme": "steane-in-steane concatenation",
      "total": 48
    }
  ],
  "grid": {
    "distance": 3,
    "gauge_qubits": 9,
    "k": 16,
    "n": 49
  },
  "shor_stabilizers": 33,
  "stabilizers_saved": 9,
  "subsystem_stabilizers": 24
}
"""


GOLDEN_COMPARE_REP5_HAMMING = """\
{
  "code1": {
    "d": 5,
    "k": 1,
    "n": 5
  },
  "code2": {
    "d": 3,
    "k": 4,
    "n": 7
  },
  "grid": {
    "distance": 3,
    "gauge_qubits": 12,
    "k": 4,
    "n": 35
  },
  "shor_stabilizers": 31,
  "stabilizers_saved": 12,
  "subsystem_stabilizers": 19
}
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- golden outputs -----------------------------------------------------------

def test_info_rep3_golden(capsys):
    code, out, err = run_cli(capsys, "info", "rep:3")
    assert code == 0
    assert out == GOLDEN_INFO_REP3
    assert err == ""


def test_compare_rep3_golden(capsys):
    code, out, _ = run_cli(capsys, "compare", "--c1", "rep:3", "--c2", "rep:3")
    assert code == 0
    assert out == GOLDEN_COMPARE_REP3


def test_compare_hamming_squared_golden(capsys):
    # The composed schemes, their names and their order are part of the
    # output.
    code, out, _ = run_cli(capsys, "compare", "--c1", "hamming:7-4",
                           "--c2", "hamming:7-4")
    assert code == 0
    assert out == GOLDEN_COMPARE_HAMMING2


def test_compare_rep5_by_hamming_golden(capsys):
    code, out, err = run_cli(capsys, "compare", "--c1", "rep:5",
                             "--c2", "hamming:7-4")
    assert (code, out, err) == (0, GOLDEN_COMPARE_REP5_HAMMING, "")


def test_compare_lists_no_schemes_for_a_7_4_1_factor(tmp_path, capsys):
    # [I4 | 0] has n = 7 and k = 4 like the Hamming code, but d = 1.
    gen = tmp_path / "gen.txt"
    gen.write_text("4 7\n1000000\n0100000\n0010000\n0001000\n")
    code, out, err = run_cli(capsys, "compare", "--c1", f"generator:{gen}",
                             "--c2", "hamming:7-4")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert "composed_schemes" not in report
    assert report["code1"] == {"d": 1, "k": 4, "n": 7}
    assert report["grid"]["distance"] == 1


def test_decode_golden(capsys):
    args = ("decode", "--c1", "rep:3", "--c2", "rep:3",
            "--error", "X@(0,0),Z@(1,2)")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["correction"]["rows"] == ["XIZ", "III", "III"]
    assert payload["error"]["rows"] == ["XII", "IIZ", "III"]
    assert payload["logical_ok"] is True
    assert payload["syndrome"] == {"s_x": [[0, 1]], "s_z": [[1], [0]]}
    assert payload["residual_x_logical"] == [[0]]
    assert payload["residual_z_logical"] == [[0]]
    # deterministic: identical bytes on a second run
    code2, out2, _ = run_cli(capsys, *args)
    assert (code2, out2) == (code, out)


def test_build_summary(capsys):
    code, out, _ = run_cli(capsys, "build", "--c1", "rep:2", "--c2", "rep:2")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    assert payload["k"] == 1
    assert payload["gauge_qubits"] == 1
    assert payload["z_stabilizers"] == 1
    assert payload["x_stabilizers"] == 1
    assert payload["distance"] == 2
    assert "gauge_ops" not in payload


def test_build_verbose_lists_operators(capsys):
    code, out, _ = run_cli(capsys, "build", "--c1", "rep:2", "--c2", "rep:2",
                           "--verbose")
    assert code == 0
    payload = json.loads(out)
    assert payload["gauge_ops"] == [
        {"phase": 0, "rows": ["IZ", "IZ"]},
        {"phase": 0, "rows": ["II", "XX"]},
    ]
    assert payload["logical_x_ops"] == [{"phase": 0, "rows": ["XI", "XI"]}]
    assert payload["logical_z_ops"] == [{"phase": 0, "rows": ["ZZ", "II"]}]


# sha256 of the full `build --verbose` output, taken before construction
# moved to one elimination per factor: every generator, byte for byte.
BUILD_VERBOSE_SHA256 = {
    ("rep:3", "rep:3", False):
        "08d0dffc264f4113c4150f72273d86db64184c6e25a8024a934fb2bb812f8fb4",
    ("rep:3", "rep:3", True):
        "db5edda60bf481b43db1fb306fd3728460bd7d76c8e2a1d94497bba71939a725",
    ("hamming:7-4", "hamming:7-4", False):
        "d42bdeb014e9d6882ba268f32ac6c6666314b77837f3f7a1e04abbbc30f6be07",
    ("hamming:7-4", "hamming:7-4", True):
        "967c3e64131fd4c64e494acd98a80ea3eb0aa1a3fefc8eeca906d27e41ef042d",
    ("rep:5", "hamming:7-4", False):
        "f7a5482254b311ff0bdb0eaf18a5d3e5c443d3cfacfb1d06fc28d7b0b4cd919e",
    ("rep:5", "hamming:7-4", True):
        "ba28f907212208df4fe89078886303ff8e8856d0715d80798a6024c9c65f1e95",
    ("rep:2", "rep:4", False):
        "2854e6feeec4e3d33ee1b8521a621f8e5024c6182eec3fb898597914f4895ca2",
    ("rep:2", "rep:4", True):
        "7583a2bb47be4760292ae69bda48512636c93882c96fbccdf20925afc0bdc562",
}


@pytest.mark.parametrize("c1, c2, shor", sorted(BUILD_VERBOSE_SHA256))
def test_build_verbose_golden_digest(capsys, c1, c2, shor):
    argv = ["build", "--c1", c1, "--c2", c2, "--verbose"]
    code, out, _ = run_cli(capsys, *argv, *(["--shor"] if shor else []))
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == BUILD_VERBOSE_SHA256[c1, c2, shor])


def test_build_shor_variant(capsys):
    code, out, _ = run_cli(capsys, "build", "--c1", "rep:2", "--c2", "rep:2",
                           "--shor")
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "shor"
    assert payload["z_stabilizers"] == 2
    assert payload["x_stabilizers"] == 1
    assert payload["gauge_qubits"] == 0


def test_distance_golden(capsys):
    code, out, _ = run_cli(capsys, "distance", "--c1", "rep:2",
                           "--c2", "rep:2", "--wmax", "3")
    assert code == 0
    assert json.loads(out) == {"distance": 2, "found_within_bound": True,
                               "k": 1, "n": 4, "w_max": 3}


def test_distance_rep6_grid_within_guard(capsys):
    code, out, _ = run_cli(capsys, "distance", "--c1", "rep:6",
                           "--c2", "rep:6", "--wmax", "6")
    assert code == 0
    assert json.loads(out) == {"distance": 6, "found_within_bound": True,
                               "k": 1, "n": 36, "w_max": 6}


def test_distance_huge_bound_runs_to_n():
    # No operator is heavier than n, so a bound of 10**12 runs as 9 does;
    # the timeout fails a search that walks every weight up to the bound.
    src = pathlib.Path(subqec.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "subqec", "distance", "--c1", "rep:3",
         "--c2", "rep:3", "--wmax", "1000000000000"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "distance": 3, "found_within_bound": True, "k": 1, "n": 9,
        "w_max": 10 ** 12}


def test_distance_bound_too_small(capsys):
    code, out, _ = run_cli(capsys, "distance", "--c1", "rep:3",
                           "--c2", "rep:3", "--wmax", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] is None
    assert payload["found_within_bound"] is False


def test_simulate_golden_and_stable(capsys):
    args = ("simulate", "--c1", "rep:3", "--c2", "rep:3",
            "--noise", "depolarizing", "--p", "0.01",
            "--trials", "20000", "--seed", "11")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["logical_failures"] == 41
    assert payload["rate"] == 0.00205
    assert payload["std_error"] == 0.000319828
    assert payload["noise"] == {"kind": "depolarizing", "p": 0.01}
    assert payload["code"] == {"gauge_qubits": 4, "k": 1, "n": 9,
                               "stabilizer_count": 4}
    code2, out2, _ = run_cli(capsys, *args)
    assert out2 == out


def test_simulate_huge_worker_count(capsys):
    # Threads are capped by trials and cores, so the split allocates
    # nothing sized by --workers.
    args = ("simulate", "--c1", "rep:3", "--c2", "rep:3", "--noise",
            "x_only", "--p", "0.1", "--trials", "5", "--seed", "1",
            "--workers")
    one = run_cli(capsys, *args, "1")
    assert one[0] == 0
    assert run_cli(capsys, *args, "1000000000000000") == one


@pytest.mark.parametrize("trials", ["1000000000000000000000000000000",
                                    "9223372036854775808"])
def test_simulate_takes_any_trial_count(capsys, monkeypatch, trials):
    # A float split died on 10**30 with a numpy traceback, and on 2**63
    # made no range and refused with "max_workers must be greater than 0".
    ranges = []

    def record(kernel, noise, seed, batch_size, trial_range):
        ranges.append(trial_range)
        return np.zeros(3, np.int64)

    monkeypatch.setattr(simulate, "_count_chunk", record)
    code, out, err = run_cli(capsys, "simulate", "--c1", "rep:3", "--c2",
                             "rep:3", "--noise", "x_only", "--p", "0.1",
                             "--trials", trials, "--seed", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["trials"] == int(trials)
    assert ranges == [(0, int(trials))]


def test_simulate_refuses_trials_past_the_philox_stream(capsys, monkeypatch):
    # 10**400 trials would read past the stream's 2**256 blocks; a stub
    # that draws nothing shows the refusal comes before any draw.
    monkeypatch.setattr(simulate, "_count_chunk",
                        lambda *args: np.zeros(3, np.int64))
    code, out, err = run_cli(capsys, "simulate", "--c1", "rep:3", "--c2",
                             "rep:3", "--noise", "x_only", "--p", "0.1",
                             "--trials", "1" + "0" * 400, "--seed", "1")
    assert (code, out) == (1, "")
    assert "trials must be <= 2**256 // 3" in err


def test_simulate_reports_failures_by_axis(capsys):
    # The golden run: 41 failures, of which 3 trip both stages.
    code, out, _ = run_cli(capsys, "simulate", "--c1", "rep:3", "--c2", "rep:3",
                           "--noise", "depolarizing", "--p", "0.01",
                           "--trials", "20000", "--seed", "11")
    assert code == 0
    payload = json.loads(out)
    assert payload["logical_failures"] == 41
    assert payload["bit_flip_failures"] == 22
    assert payload["phase_flip_failures"] == 22
    code, out, _ = run_cli(capsys, "simulate", "--c1", "rep:3", "--c2", "rep:3",
                           "--noise", "z_only", "--p", "0.2",
                           "--trials", "2000", "--seed", "4")
    payload = json.loads(out)
    assert payload["bit_flip_failures"] == 0
    assert payload["phase_flip_failures"] == payload["logical_failures"] > 0


def test_simulate_reports_provenance(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--c1", "rep:3", "--c2",
                           "hamming:7-4", "--noise", "x_only", "--p", "0.1",
                           "--trials", "100", "--seed", "3")
    assert code == 0
    assert json.loads(out)["provenance"] == {
        "version": __version__, "c1": "rep:3", "c2": "hamming:7-4",
        "rng_layout": RNG_LAYOUT}


@pytest.mark.parametrize("noise,given,unread", [
    ("depolarizing", ("--p", "0.1", "--px", "0.3"), "--px"),
    ("x_only", ("--p", "0.1", "--pz", "0.3"), "--pz"),
    ("z_only", ("--p", "0.1", "--px", "0", "--pz", "0"), "--px, --pz"),
    ("independent_xz", ("--px", "0.1", "--pz", "0.2", "--p", "0.1"), "--p"),
    ("independent_xz", ("--p", "0.1"), "--p"),
])
def test_simulate_rejects_unread_noise_flags(capsys, noise, given, unread):
    code, out, err = run_cli(capsys, "simulate", "--c1", "rep:3", "--c2",
                             "rep:3", "--noise", noise, *given,
                             "--trials", "10", "--seed", "1")
    assert code == 1
    assert out == ""
    assert f"{noise} noise does not read {unread}" in err


@pytest.mark.parametrize("p", ["0.2", "0.02"])
def test_simulate_decodes_factors_past_twenty_bits(capsys, p):
    # rep21 once had no decoder for syndromes whose leader weighs over 4.
    code, out, err = run_cli(capsys, "simulate", "--c1", "rep:21", "--c2",
                             "rep:3", "--noise", "x_only", "--p", p,
                             "--trials", "2000", "--seed", "1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["phase_flip_failures"] == 0
    assert (payload["logical_failures"] > 0) == (p == "0.2")


def test_simulate_refuses_factor_past_63_bits(capsys, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simulate, "_count_chunk", no_trial)
    code, out, err = run_cli(capsys, "simulate", "--c1", "rep:64", "--c2",
                             "rep:3", "--noise", "x_only", "--p", "0.1",
                             "--trials", "100", "--seed", "1")
    assert code == 1 and out == ""
    assert "[64,1] code: it needs n <= 63" in err


def test_simulate_zero_failures_reports_interval(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--c1", "rep:3", "--c2", "rep:3",
                           "--noise", "x_only", "--p", "0",
                           "--trials", "1000", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["logical_failures"] == 0
    assert payload["std_error"] == 0.0
    assert payload["ci_low"] == 0.0
    assert 0.0038 < payload["ci_high"] < 0.0039


def test_simulate_keeps_tiny_rates(capsys, monkeypatch):
    # Rates are rounded to significant digits, not decimal places, so a rate
    # far below 1e-6 keeps its size instead of printing as 0.
    def fake_run_trials(code, noise, trials, seed, workers=1):
        return TrialReport(trials=trials, logical_failures=1, rate=3e-7,
                           std_error=3.0000004e-7, seed=seed,
                           code_params=(9, 1, 4, 4), ci_low=5.2961e-8,
                           ci_high=1.6994e-6)

    monkeypatch.setattr(cli, "run_trials", fake_run_trials)
    code, out, _ = run_cli(capsys, "simulate", "--c1", "rep:3", "--c2", "rep:3",
                           "--noise", "x_only", "--p", "0.001",
                           "--trials", "3333333", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["rate"] == 3e-7
    assert payload["std_error"] == 3e-7
    assert payload["ci_low"] == 5.2961e-8
    assert payload["ci_high"] == 1.6994e-6


# -- matrix files -------------------------------------------------------------

def test_matrix_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = rng.integers(0, 2, (rng.integers(1, 6), rng.integers(1, 9)),
                         dtype=np.uint8)
        text = f"{m.shape[0]} {m.shape[1]}\n" + "".join(
            "".join(map(str, row)) + "\n" for row in m)
        assert np.array_equal(parse_matrix(text), m)


def test_matrix_comments_and_blanks():
    text = "# parity check\n\n2 3\n110\n# middle\n011\n\n"
    m = parse_matrix(text)
    assert m.tolist() == [[1, 1, 0], [0, 1, 1]]


def test_matrix_header_errors():
    with pytest.raises(ValueError, match="header"):
        parse_matrix("abc\n110\n")
    with pytest.raises(ValueError, match="2 rows"):
        parse_matrix("2 3\n110\n")


def test_matrix_row_errors_carry_position():
    with pytest.raises(ValueError, match=r"<matrix>:3: row has 2 entries"):
        parse_matrix("2 3\n110\n01\n")
    with pytest.raises(ValueError, match=r"myfile:3:3"):
        parse_matrix("2 3\n110\n012\n", source="myfile")


def test_load_code_from_files(tmp_path):
    gen = tmp_path / "gen.txt"
    gen.write_text("1 3\n111\n")
    code = load_code(f"generator:{gen}")
    assert (code.n, code.k) == (3, 1)
    assert code.min_distance() == 3

    par = tmp_path / "par.txt"
    par.write_text("2 3\n110\n011\n")
    code = load_code(f"parity:{par}")
    assert (code.n, code.k) == (3, 1)
    assert code.min_distance() == 3


def test_cli_accepts_matrix_file_specs(tmp_path, capsys):
    gen = tmp_path / "gen.txt"
    gen.write_text("1 2\n11\n")
    code, out, _ = run_cli(capsys, "build", "--c1", f"generator:{gen}",
                           "--c2", "rep:3")
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["distance"]) == (6, 2)


@pytest.mark.parametrize("command, calls", [
    (("build",), 2),
    (("distance", "--wmax", "3"), 0),
    (("decode", "--error", "X@(0,0)"), 0),
    (("simulate", "--noise", "x_only", "--p", "0.1", "--trials", "20",
      "--seed", "11"), 0)], ids=["build", "distance", "decode", "simulate"])
def test_only_build_computes_factor_distances(tmp_path, capsys, monkeypatch,
                                              command, calls):
    # A generator file claims no distance, so only min_distance finds it;
    # distance, decode and simulate read none and must not pay for it.
    gen = tmp_path / "gen.txt"
    gen.write_text("1 3\n111\n")
    seen = []
    real = LinearCode.min_distance

    def spy(code):
        seen.append(code.n)
        return real(code)

    monkeypatch.setattr(LinearCode, "min_distance", spy)
    code, out, _ = run_cli(capsys, command[0], "--c1", f"generator:{gen}",
                           "--c2", f"generator:{gen}", *command[1:])
    assert code == 0 and out
    assert len(seen) == calls


def test_rank_deficient_file_exits_one(tmp_path, capsys):
    gen = tmp_path / "gen.txt"
    gen.write_text("2 3\n110\n110\n")
    code, _, err = run_cli(capsys, "info", f"generator:{gen}")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("text, message", [
    ("1 3\n111\n111\n", ":3: more rows than the header promised (1)"),
    ("# only a comment\n\n", ": no header line found"),
], ids=["extra-row", "no-header"])
def test_matrix_file_errors_exit_one(tmp_path, capsys, text, message):
    gen = tmp_path / "gen.txt"
    gen.write_text(text)
    code, out, err = run_cli(capsys, "info", f"generator:{gen}")
    assert (code, out) == (1, "")
    assert f"error: {gen}{message}" in err


def test_unreadable_matrix_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, out, err = run_cli(capsys, "info", f"parity:{missing}")
    assert (code, out) == (1, "")
    assert f"error: cannot read {missing}: " in err


def test_decode_of_an_empty_error_exits_one(capsys):
    code, out, err = run_cli(capsys, "decode", "--c1", "rep:3", "--c2",
                             "rep:3", "--error", "")
    assert (code, out, err) == (1, "", "error: no error terms found in ''\n")


@pytest.mark.parametrize("header", ["\u00b2 3", "\uff11 3", "1 \u0663"],
                         ids=["superscript", "fullwidth", "arabic-indic"])
def test_matrix_header_takes_ascii_digits_only(tmp_path, capsys, header):
    # Superscript and fullwidth digits pass str.isdigit; int() rejects the
    # first with a message that names no line and reads the others.
    gen = tmp_path / "gen.txt"
    gen.write_text(f"{header}\n111\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "info", f"generator:{gen}")
    assert (code, out) == (1, "")
    assert f"{gen}:1: expected '<rows> <cols>' header" in err


# -- error strings ------------------------------------------------------------

def test_parse_error_single_sites():
    op = parse_error("X@(0,1),Z@(2,0),Y@(1,1)", 3, 3)
    assert op.to_rows() == ["IXI", "IYI", "ZII"]


def test_parse_error_composes_duplicates():
    op = parse_error("X@(0,0),Z@(0,0)", 2, 2)
    assert op.to_rows() == ["YI", "II"]


def test_parse_error_reads_any_space_inside_a_term():
    # A tab inside a term once matched the search but not the per-term
    # parse, which raised AttributeError.
    op = parse_error("X@(\t0 ,\t1),Z@( 1,0 )", 2, 2)
    assert op.to_rows() == ["IX", "ZI"]


@pytest.mark.parametrize("text", ["X@(\u0662,0)", "X@(0,\uff11)"],
                         ids=["arabic-indic", "fullwidth"])
def test_parse_error_sites_take_ascii_digits_only(text):
    # \d matched them, and int() read them as 2 and 1.
    with pytest.raises(ValueError, match="unparsed error terms"):
        parse_error(text, 3, 3)


@pytest.mark.parametrize("argv, message", [
    (("info", "rep:\uff13"), "error: bad repetition length in 'rep:\uff13'"),
    (("decode", "--c1", "rep:3", "--c2", "rep:3", "--error",
      "X@(\u0662,0)"), "error: unparsed error terms in 'X@(\u0662,0)'")],
    ids=["rep-length", "error-site"])
def test_non_ascii_digits_exit_one(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(message)


def test_parse_error_rejects_bad_input():
    with pytest.raises(ValueError, match="outside"):
        parse_error("X@(5,0)", 2, 2)
    with pytest.raises(ValueError, match="unparsed"):
        parse_error("X@(0,0) junk", 2, 2)
    with pytest.raises(ValueError, match="unparsed"):
        parse_error("W@(0,0)", 2, 2)


# -- exit codes ---------------------------------------------------------------

def test_unknown_family_exits_one(capsys):
    code, out, err = run_cli(capsys, "info", "nosuch:1")
    assert code == 1
    assert out == ""
    assert "unknown code family 'nosuch:1'" in err


def test_unknown_subcommand_exits_two(capsys):
    assert main(["bogus"]) == 2


@pytest.mark.parametrize("command", [
    ("simulate", "--noise", "x_only", "--p", "0.1", "--trials", "20",
     "--seed", "11"),
    ("decode", "--error", "X@(0,0),X@(1,1)"),
    ("distance", "--wmax", "4")])
def test_simulate_and_decode_take_no_shor_flag(capsys, command):
    # Their recovery reads the subsystem syndrome, which a Shor code does
    # not measure, and the distance search reads only the two factors, so
    # the flag is a usage error.
    code, out, _ = run_cli(capsys, command[0], "--c1", "rep:3", "--c2",
                           "rep:3", *command[1:], "--shor")
    assert code == 2 and out == ""


@pytest.mark.parametrize("noise,given,message", [
    ("depolarizing", (), "depolarizing needs --p"),
    ("x_only", (), "x_only needs --p"),
    ("z_only", (), "z_only needs --p"),
    ("independent_xz", (), "independent_xz needs --px and --pz"),
    ("independent_xz", ("--px", "0.1"), "independent_xz needs --px and --pz"),
    ("independent_xz", ("--pz", "0.1"), "independent_xz needs --px and --pz"),
], ids=["depolarizing", "x_only", "z_only", "independent_xz",
        "independent_xz-px-only", "independent_xz-pz-only"])
def test_missing_rate_messages(capsys, noise, given, message):
    code, out, err = run_cli(capsys, "simulate", "--c1", "rep:2", "--c2",
                             "rep:2", "--noise", noise, *given,
                             "--trials", "10", "--seed", "1")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_simulate_usage_names_rate_flags(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line, however wide
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions
             if isinstance(a, cli.argparse._SubParsersAction)]
    usage = sub.choices["simulate"].format_usage()
    assert ("--noise {depolarizing,x_only,z_only,independent_xz} "
            "[--p P] [--px PX] [--pz PZ] --trials TRIALS") in usage


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_python_dash_m_runs_the_cli(capsys):
    src = pathlib.Path(subqec.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "subqec", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    built = run("build", "--c1", "rep:3", "--c2", "rep:3")
    assert built.returncode == 0, built.stderr
    assert json.loads(built.stdout)["n"] == 9
    assert run_cli(capsys, "build", "--c1", "rep:3", "--c2", "rep:3") == (
        0, built.stdout, "")
    bad = run("build", "--c1", "rep:0", "--c2", "rep:3")
    assert bad.returncode == 1
    assert bad.stdout == ""
