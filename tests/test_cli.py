"""Command-line interface: outputs, determinism, exit codes."""

import json

import pytest

from mkdv_a22.cli import main


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
    code, out, err = run_cli(capsys, "kdv-check", "0,1", "--c=2,5", "--r", "1", "--i", "5")
    assert code == 2 and out == ""
    assert "scalar map index" in err


def test_flow_far_above_threshold(capsys):
    # the cost of a flow no longer grows with r
    code, out, _ = run_cli(capsys, "flow", "0,1", "--c=2,5", "--r", "6000000000001")
    assert code == 0
    data = json.loads(out)
    assert data["field"] == {"num": [], "den": ["1"]}
    assert data["gamma"] == ["0", "0"] and data["residual_zero"] is True
