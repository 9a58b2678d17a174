"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from mkdv_a22 import cli, flows
from mkdv_a22.cli import build_parser, main
from mkdv_a22.exact import poly_from_json, ratfunc_from_json
from mkdv_a22.flows import flow_sample
from mkdv_a22.generation import InfertileError, generate_multistep
from mkdv_a22.miura import miura_from_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_degrees_table(capsys):
    code, out, _ = run_cli(capsys, "degrees", "0,1,0,1,0,1")
    assert code == 0
    assert "(21, 15)" in out
    code, out, _ = run_cli(capsys, "degrees")
    assert code == 0 and "(0, 0)" in out


def test_degrees_json(capsys):
    code, out, _ = run_cli(capsys, "degrees", "0,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["degrees"] == [[0, 0], [1, 0], [1, 2]]


def test_degrees_rejects_non_basic(capsys):
    code, _, err = run_cli(capsys, "degrees", "0,0")
    assert code == 2 and "alternate" in err


def test_generate_json(capsys):
    code, out, _ = run_cli(capsys, "generate", "0,1", "--c", "2,5")
    assert code == 0
    data = json.loads(out)
    assert data["pairs"][-1] == [["2", "1"], ["5", "4", "1"]]
    assert data["degrees"][-1] == [1, 2]


def test_generate_wrong_parameter_count(capsys):
    code, _, err = run_cli(capsys, "generate", "0,1", "--c", "2")
    assert code == 2 and "expected 2 parameters" in err


def test_flow_output_and_validation(capsys):
    code, out, _ = run_cli(capsys, "flow", "0", "--c", "3", "--r", "1")
    assert code == 0
    data = json.loads(out)
    assert data["gamma"] == ["-1"] and data["residual_zero"] is True
    code, out, _ = run_cli(capsys, "flow", "0", "--c", "3", "--r", "7")
    data = json.loads(out)
    assert data["field"] == {"num": [], "den": ["1"]} and data["gamma"] == ["0"]
    code, _, err = run_cli(capsys, "flow", "0", "--c", "3", "--r", "4")
    assert code == 2 and "1 or 5 mod 6" in err


@pytest.mark.parametrize("word", ["0,1", "1,0", "1,0,1", "0,1,0,1"])
def test_flow_at_non_generic_point(capsys, word):
    # c = 0 gives repeated roots (y1 = x**2 on 0,1); the flow still
    # decomposes exactly, as the translation gamma = (-1, 0, ...)
    m = len(word.split(","))
    code, out, _ = run_cli(capsys, "flow", word, "--c=" + ",".join(["0"] * m), "--r", "1")
    assert code == 0
    data = json.loads(out)
    assert data["gamma"] == ["-1"] + ["0"] * (m - 1) and data["residual_zero"] is True


def test_miura_output(capsys):
    code, out, _ = run_cli(capsys, "miura", "1", "--c", "4")
    assert code == 0
    assert json.loads(out) == {"v": {"num": ["2"], "den": ["4", "1"]}}


def test_kdv_check(capsys):
    code, out, _ = run_cli(capsys, "kdv-check", "0", "--c", "3", "--r", "1")
    assert code == 0
    data = json.loads(out)
    assert data["consistent"] == {"0": True, "1": True, "2": True}
    code, out, _ = run_cli(capsys, "kdv-check", "0", "--c", "3", "--r", "1", "--i", "1")
    assert json.loads(out)["consistent"] == {"1": True}


def test_verify_exit_codes_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "verify", "degrees", "--json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "verify", "degrees", "--json")
    assert out1 == out2
    code, _, err = run_cli(capsys, "verify", "nope")
    assert code == 2 and "unknown suite" in err


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0"])
def test_verify_rejects_a_tolerance_that_is_not_positive(capsys, tolerance):
    # no residual compares <= NaN, so a NaN tolerance would fail every case
    code, out, err = run_cli(capsys, "verify", "bethe", f"--tolerance={tolerance}")
    assert (code, out, err) == (2, "", "error: tolerance must be positive\n")


@pytest.mark.parametrize("tolerance", ["inf", "Infinity", "1e400"])
def test_verify_rejects_an_infinite_tolerance(capsys, tolerance):
    # every residual compares <= inf, so the suite would pass whatever it computed
    code, out, err = run_cli(capsys, "verify", "bethe", f"--tolerance={tolerance}", "--samples=1")
    assert (code, out, err) == (2, "", "error: tolerance must be finite\n")


@pytest.mark.parametrize(
    "target, reason",
    [("missing/report.json", "No such file or directory"), (".", "Is a directory")],
)
def test_verify_output_that_cannot_be_written_is_a_usage_error(tmp_path, target, reason):
    # a fresh interpreter, so an escaping OSError would show as a traceback
    path = str(tmp_path / target)
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from mkdv_a22.cli import main\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    argv = ["verify", "degrees", "--output", path]
    proc = subprocess.run(
        [sys.executable, "-c", script, src, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: cannot write the report to {path!r}: {reason}\n"


def test_verify_seeded_suite_byte_identical(capsys):
    args = ("verify", "loop", "--seed", "5", "--samples", "2", "--json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["reports"][0]["ok"] is True
    assert data["reports"][0]["seed"] == 5


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["flow", "0", "--c", "3"])  # missing --r
    assert exc.value.code == 2


def test_kdv_check_all_maps_match_single_runs(capsys):
    args = ("kdv-check", "0,1", "--c", "2,5", "--r", "5")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    together = json.loads(out)
    for i in ("0", "1", "2"):
        code, out, _ = run_cli(capsys, *args, "--i", i)
        single = json.loads(out)
        assert single["consistent"] == {i: together["consistent"][i]}
        assert single["scalar_operators"] == {i: together["scalar_operators"][i]}


@pytest.mark.parametrize(
    "exc", [ArithmeticError("flow bracket has order 2, expected <= 1"), AssertionError("guard")]
)
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    def broken(op, r):
        raise exc

    monkeypatch.setattr("mkdv_a22.psdo.kdv_field", broken)
    code, out, err = run_cli(capsys, "kdv-check", "0", "--c", "3", "--r", "1")
    assert code == 3 and out == ""
    assert err.startswith("internal error:") and str(exc) in err


def test_inexact_division_is_an_internal_error(capsys, monkeypatch):
    # a gcd that does not divide its arguments breaks the first reduction:
    # the heuristic gives up and every pseudo-remainder reads 0, so the
    # fallback takes the shorter input for the gcd
    monkeypatch.setattr("mkdv_a22.exact._heu_gcd", lambda fa, fb: None)
    monkeypatch.setattr("mkdv_a22.exact._int_prem", lambda a, b: [])
    code, out, err = run_cli(capsys, "generate", "0,1", "--c=2,5")
    assert code == 3 and out == ""
    assert err == "internal error: ArithmeticError: inexact polynomial division\n"


def test_infertile_step_is_an_internal_error(capsys, monkeypatch):
    # along alternating words every Wronskian step has a solution, so a
    # step without one is an engine fault, not a usage error
    monkeypatch.setattr("mkdv_a22.generation._solve_below", lambda y, target, degree: None)
    code, out, err = run_cli(capsys, "generate", "0,1", "--c=2,5")
    assert code == 3 and out == ""
    assert err == "internal error: InfertileError: no degree-1 solution with pinned index 0\n"


def test_exhausted_parameter_sampling_is_an_internal_error(capsys, monkeypatch):
    # sample_c rejects every infertile draw; when all 50 are rejected the
    # verify suite cannot run, an engine fault rather than a traceback
    def infertile(j_seq, c):
        raise InfertileError("no solution")

    monkeypatch.setattr("mkdv_a22.generation.generate_multistep", infertile)
    code, out, err = run_cli(capsys, "verify", "generation", "--samples", "1")
    assert code == 3 and out == ""
    assert err == (
        "internal error: ArithmeticError: could not sample parameters for (0,) in 50 tries\n"
    )


def test_wrong_dressing_inverse_is_an_internal_error(capsys, monkeypatch):
    # the flow conjugates by E(g, j) and then E(-g, j); doubling the inverse
    # of the first factor breaks the per-factor check, an engine invariant
    real, made = flows.exp_dressing, []

    def doubled_inverse(g, j):
        made.append(g)
        m = real(g, j)
        return m + m if len(made) == 2 else m

    monkeypatch.setattr("mkdv_a22.flows.exp_dressing", doubled_inverse)
    code, out, err = run_cli(capsys, "flow", "0,1", "--c=2,5", "--r", "1")
    assert len(made) == 2
    assert code == 3 and out == ""
    assert err == "internal error: ArithmeticError: p_inv is not the inverse of p\n"


def test_negative_parameters_with_equals_form(capsys):
    code, out, _ = run_cli(capsys, "kdv-check", "0,1", "--c=-3,2", "--r", "1", "--i", "0")
    assert code == 0
    data = json.loads(out)
    assert data["c"] == ["-3", "2"] and data["consistent"] == {"0": True}
    with pytest.raises(SystemExit) as exc:
        main(["kdv-check", "0,1", "--c", "-3,2", "--r", "1"])  # read as a missing value
    assert exc.value.code == 2


def test_kdv_check_rejects_map_index_before_generating(capsys, monkeypatch):
    def never(*args):
        raise RuntimeError("generation must not run for a usage error")

    monkeypatch.setattr("mkdv_a22.cli.generate_multistep", never)
    for extra, message in (
        (("--r", "1", "--i", "5"), "scalar map index"),
        (("--r", "4"), "1 or 5 mod 6"),
    ):
        code, out, err = run_cli(capsys, "kdv-check", "0,1", "--c=2,5", *extra)
        assert code == 2 and out == ""
        assert message in err


def test_flow_far_above_threshold(capsys):
    # the cost of a flow no longer grows with r
    code, out, _ = run_cli(capsys, "flow", "0,1", "--c=2,5", "--r", "6000000000001")
    assert code == 0
    data = json.loads(out)
    assert data["field"] == {"num": [], "den": ["1"]}
    assert data["gamma"] == ["0", "0"] and data["residual_zero"] is True



# --- big numbers ------------------------------------------------------------------

def int_digit_limit():
    """The interpreter's limit on int <-> str digits, or None where it has none."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@contextlib.contextmanager
def no_int_digit_limit():
    limit = int_digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv",
    [
        ["miura", "1,0", "--c=1e900,1"],
        ["flow", "1,0", "--c=1e900,1", "--r", "5"],
        ["generate", "1,0", "--c=" + "7" * 5000 + ",1"],
    ],
    ids=["miura", "flow", "generate-5000-digit-literal"],
)
def test_big_numbers_reach_stdout(capsys, argv):
    # answers and literals beyond the interpreter's 4300-digit int <-> str
    # limit; the CLI lifts the limit for the call and restores it
    limit = int_digit_limit()
    code, out, err = run_cli(capsys, *argv)
    assert int_digit_limit() == limit
    assert code == 0, err
    data = json.loads(out)
    with no_int_digit_limit():
        c = tuple(F(t) for t in argv[2][len("--c="):].split(","))
        trace = generate_multistep((1, 0), c)
        if argv[0] == "miura":
            assert ratfunc_from_json(data["v"]) == miura_from_trace(trace).v
        elif argv[0] == "flow":
            sample = flow_sample((1, 0), c, 5)
            assert ratfunc_from_json(data["field"]) == sample.field
            assert tuple(F(g) for g in data["gamma"]) == sample.gamma
        else:
            assert tuple(F(t) for t in data["c"]) == c
            assert [(poly_from_json(y0), poly_from_json(y1)) for y0, y1 in data["pairs"]] == [
                (p.y0, p.y1) for p in trace.pairs
            ]
            assert [ratfunc_from_json(g) for g in data["gs"]] == list(trace.gs)


# --- one parser per process ---------------------------------------------------------

def run_captured(argv: list) -> tuple:
    """(exit code, stdout, stderr) of main(argv); an argparse exit gives
    ("SystemExit", its code) as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_answers_like_a_fresh_one(monkeypatch, tmp_path):
    # options given to one call must not leak into the next: --i, --output
    # and the state of a rejected or --help command line
    report = tmp_path / "report.json"
    kdv = ["kdv-check", "0", "--c", "1", "--r", "1"]
    verify = ["verify", "degrees", "--samples", "1"]
    sequence = [
        kdv + ["--i", "1"],
        kdv,
        verify + ["--output", str(report)],
        verify,
        ["flow", "0", "--c", "3"],  # no --r: argparse rejects it
        ["generate", "0,1", "--c", "1"],  # one parameter short: main rejects it
        ["--help"],
        ["generate", "0,1", "--c", "2,5"],
    ]
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    def run_sequence():
        results = []
        for argv in sequence:
            results.append(run_captured(argv))
            if report.exists():
                results.append(report.read_text())
                report.unlink()
        return results

    shared = cli._shared_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    shared.cache_clear()
    try:
        reused = run_sequence()
        assert len(built) == 1
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = run_sequence()
        assert len(built) == 1 + len(sequence)
    finally:
        shared.cache_clear()
    assert reused == fresh
    codes = [r[0] for r in reused if isinstance(r, tuple)]
    assert codes == [0, 0, 0, 0, ("SystemExit", 2), 2, ("SystemExit", 0), 0]
    assert list(json.loads(reused[0][1])["consistent"]) == ["1"]
    assert list(json.loads(reused[1][1])["consistent"]) == ["0", "1", "2"]
    # the report is written by the --output call alone
    assert [i for i, r in enumerate(reused) if isinstance(r, str)] == [3]
    assert json.loads(reused[3])["reports"][0]["ok"] is True


def test_parser_is_built_on_the_first_call_not_at_import():
    script = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from mkdv_a22 import cli\n"
        "at_import = len(built)\n"
        "calls = []\n"
        "build = cli.build_parser\n"
        "cli.build_parser = lambda: calls.append(1) or build()\n"
        "codes = [cli.main(['degrees', '0,1', '--json']) for _ in range(3)]\n"
        "print(at_import, len(calls), codes)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, src], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 1 [0, 0, 0]"


# --- bounded argv fuzz -----------------------------------------------------------

FUZZ_COMMANDS = ("degrees", "generate", "flow", "miura", "kdv-check", "verify")
FUZZ_WORDS = ["", "0", "1", "0,1", "1,0", "0,1,0", "1,0,1"]
FUZZ_BAD_WORDS = ["0,0", "2", "a", "0,,1", "-1", "1;0", "0,1,2"]
FUZZ_PARAMS = ["0", "1", "-2", "5/3", "-9/4", "1e1", " 2"]
FUZZ_BAD_PARAMS = ["1/0", "x", ""]
FUZZ_BAD_INTS = ["0", "-1", "3", "4", "6", "x", "1.5", ""]
# the valid flow indices per word length that keep each kdv-check case cheap
FUZZ_KDV_RS = {0: ["1", "5", "7"], 1: ["1", "5", "7"], 2: ["1", "5"], 3: ["1"]}


def fuzz_argv(rng: random.Random) -> list:
    """One command line over every subcommand: mostly well-formed, with
    malformed words, parameters, flow indices and map indices mixed in."""

    def pick(good, bad, p_bad):
        return rng.choice(bad if rng.random() < p_bad else good)

    command = rng.choice(FUZZ_COMMANDS)
    if command == "verify":
        argv = [command, pick(["degrees", "loop"], ["nope", ""], 0.15), "--samples", "1"]
        argv += ["--seed", str(rng.randint(-3, 99))]
    else:
        word = pick(FUZZ_WORDS, FUZZ_BAD_WORDS, 0.2)
        argv = [command, word] if word or rng.random() < 0.5 else [command]
        length = len(word.split(",")) if word else 0
        if command != "degrees":
            n = max(length + (rng.choice([-1, 1]) if rng.random() < 0.1 else 0), 0)
            params = [pick(FUZZ_PARAMS, FUZZ_BAD_PARAMS, 0.05) for _ in range(n)]
            argv.append("--c=" + ",".join(params))
        if command == "flow" and rng.random() < 0.95:
            argv += ["--r", pick(["1", "5", "7", "11", "13"], FUZZ_BAD_INTS, 0.2)]
        if command == "kdv-check" and rng.random() < 0.95:
            argv += ["--r", pick(FUZZ_KDV_RS[length], FUZZ_BAD_INTS, 0.2)]
        if command == "kdv-check" and rng.random() < 0.7:
            argv += ["--i", pick(["0", "1", "2"], ["3", "-1", "x"], 0.2)]
    if rng.random() < 0.3:
        argv.append("--json")
    if rng.random() < 0.03:
        argv.append("--bogus")
    return argv


def run_fuzz_case(argv: list) -> tuple:
    code, out, err = run_captured(argv)
    if code == ("SystemExit", 2):  # argparse rejects the command line
        code = "argparse"
    return code, out, err


def test_cli_argv_fuzz_exits_cleanly_and_deterministically():
    rng = random.Random(20261020)
    cases = [fuzz_argv(rng) for _ in range(150)]
    first = [run_fuzz_case(argv) for argv in cases]
    for argv, (code, _, _) in zip(cases, first):
        assert code in (0, 1, 2, 3, "argparse"), argv
    assert {argv[0] for argv in cases} == set(FUZZ_COMMANDS)
    assert {code for code, _, _ in first} >= {0, 2, "argparse"}
    assert [run_fuzz_case(argv) for argv in cases] == first
