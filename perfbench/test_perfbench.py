"""Self-tests of the benchmark:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from cases import WORKLOADS, case_list  # noqa: E402
from checks import check_outputs  # noqa: E402
from run import harrell_davis, judge, tail_quantile  # noqa: E402
from worker import run_case  # noqa: E402

# cheap cases that still reach every traced layer
SMALL_CASES = [
    ["flow", "0,1,0", "--c=-3/2,2,7/4", "--r", "5"],
    ["flow", "1", "--c=4", "--r", "13"],
    ["kdv-check", "1,0", "--c=2,-1/3", "--r", "1", "--i", "0"],
    ["generate", "0,1,0", "--c=-3/2,2,7/4"],
    ["miura", "0,1,0", "--c=-3/2,2,7/4"],
]


def test_same_seed_gives_byte_identical_case_list():
    # separate interpreters with different hash seeds must agree
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); from cases import case_list, WORKLOADS; "
        "print(json.dumps([case_list(w, 7) for w in WORKLOADS]))"
    )
    outs = []
    for hashseed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hashseed}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(HERE)], capture_output=True, text=True, env=env, check=True
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == [case_list(w, 7) for w in WORKLOADS]
    assert case_list("population", 7) != case_list("population", 8)


def test_parameters_are_not_filtered_for_genericity():
    # every draw is kept: a seed's list has the full fixed shape
    for seed in range(5):
        cases = case_list("mkdv-flows", seed)
        assert len(cases) == 62
        assert cases[-1] == ["flow", "0,1", "--c=0,0", "--r", "1"]
        assert all(case[2].startswith("--c=") for case in cases)
    # y0 = (x + 1)**5 shares its root with y1 = x + 1: a non-generic draw
    assert ["flow", "1,0", "--c=1,1", "--r", "5"] in case_list("mkdv-flows", 1)


class _Cli:
    """Stands in for mkdv_a22.cli: one command raises, the others print."""

    @staticmethod
    def main(argv):
        if argv[0] == "boom":
            raise RuntimeError("internal failure")
        print(json.dumps({"argv": argv}))
        return 0


def test_raising_case_is_counted_and_the_run_continues():
    cases = [["boom"], ["ok", "1"], ["ok", "2"]]
    passes = [{"records": [run_case(_Cli, argv, keep_output=True) for argv in cases]} for _ in range(2)]
    rec = passes[0]["records"]
    assert rec[0]["error"] == "RuntimeError: internal failure"
    assert [r["code"] for r in rec[1:]] == [0, 0]
    verdict = judge(passes, {}, check=lambda outputs: {})
    assert (verdict["attempted"], verdict["failed"]) == (6, 2)
    assert not verdict["wrong"]


def test_raising_case_with_a_recorded_hash_makes_the_run_incorrect():
    cases = [["boom"], ["ok", "1"]]
    passes = [{"records": [run_case(_Cli, argv, keep_output=True) for argv in cases]} for _ in range(2)]
    # even the hash of what it printed before raising matches
    golden = {key: rec["sha"] for key, rec in zip(("boom", "ok 1"), passes[0]["records"])}
    verdict = judge(passes, golden, check=lambda outputs: {})
    assert verdict["wrong"] == {"boom": "recorded as passing, now fails: RuntimeError: internal failure"}
    assert verdict["golden_checked"] == 2
    assert verdict["failed"] == 2


def test_inconsistent_kdv_check_output_is_wrong():
    # exit code 1 with a printed result: the output is still checked
    out = json.dumps({"J": [1], "c": ["2"], "r": 1, "consistent": {"0": False},
                      "scalar_operators": {"0": {}}})
    rec = {"key": "kdv-check 1 --c=2 --r 1 --i 0", "s": 0.1, "code": 1, "error": None,
           "sha": "a" * 64, "stderr": "", "out": out}
    verdict = judge([{"records": [rec]}], {})
    assert verdict["wrong"] == {rec["key"]: "scalar map 0 is not consistent"}


def test_changed_output_between_passes_is_wrong():
    cases = [["ok", "1"], ["ok", "2"]]
    passes = [{"records": [run_case(_Cli, argv, keep_output=True) for argv in cases]} for _ in range(2)]
    passes[1]["records"][1]["sha"] = "0" * 64
    verdict = judge(passes, {}, check=lambda outputs: {})
    assert list(verdict["wrong"]) == ["ok 2"]
    assert verdict["failed"] == 2


def test_traced_hashes_equal_untraced_and_every_construction_is_seen():
    code = """
import json, sys
sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2])
from mkdv_a22 import cli
from tracing import Tracer
from worker import run_case
from mkdv_a22.exact import Poly, RatFunc
cases = json.loads(sys.argv[3])
plain = [run_case(cli, a, False)["sha"] for a in cases]
tracer = Tracer()
tracer.install()
traced = [run_case(cli, a, False)["sha"] for a in cases]
before = tracer.summary()["exact.ratfunc_new.calls"]
big = RatFunc._raw(Poly((2**200,)), Poly((1,)))  # a construction that skips __init__
print(json.dumps({"plain": plain, "traced": traced, "summary": tracer.summary(),
                  "raw_counted": tracer.summary()["exact.ratfunc_new.calls"] - before,
                  "spans": len(tracer.start), "names": tracer.names}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE.parent / "src"), str(HERE), json.dumps(SMALL_CASES)],
        capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout)
    assert out["plain"] == out["traced"]
    summary = out["summary"]
    assert out["spans"] == sum(summary[f"{n}.calls"] for n in out["names"])
    for name in out["names"]:
        assert summary[f"{name}.self_s"] >= -1e-9, name
    assert out["raw_counted"] == 1
    assert summary["exact.max_coeff_bits"] == 201
    for layer in ("loop.conjugate", "flows.family_tangents", "psdo.psdo_mul", "exact.poly_gcd",
                  "generation.wronskian_solve", "miura.miura_from_trace", "cli.main"):
        assert summary[f"{layer}.calls"] > 0, layer
    assert summary["cli.main.calls"] == len(SMALL_CASES)


def test_checks_catch_a_corrupted_population_output():
    from mkdv_a22 import cli

    gen = run_case(cli, ["generate", "1,0,1", "--c=3,-1/2,2"], keep_output=True)["out"]
    mia = run_case(cli, ["miura", "1,0,1", "--c=3,-1/2,2"], keep_output=True)["out"]
    good = {"generate 1,0,1 --c=3,-1/2,2": gen, "miura 1,0,1 --c=3,-1/2,2": mia}
    assert check_outputs(good) == {}
    data = json.loads(gen)
    data["pairs"][2][1][0] = "12345"
    bad = dict(good, **{"generate 1,0,1 --c=3,-1/2,2": json.dumps(data)})
    assert "generate 1,0,1 --c=3,-1/2,2" in check_outputs(bad)
    vdata = json.loads(mia)
    vdata["v"]["num"][0] = "7"
    bad = dict(good, **{"miura 1,0,1 --c=3,-1/2,2": json.dumps(vdata)})
    assert list(check_outputs(bad)) == ["miura 1,0,1 --c=3,-1/2,2"]


def test_tail_quantile_leaves_ten_cases_above():
    for n in (11, 36, 56, 62):
        assert n * (1 - tail_quantile(n)) == pytest.approx(10)


def test_harrell_davis_matches_plain_quantiles_on_smooth_data():
    values = sorted((k + 0.5) / 199 for k in range(199))
    assert harrell_davis(values, 0.5) == pytest.approx(0.5, abs=1e-3)
    assert harrell_davis(values, 0.9) == pytest.approx(0.9, abs=5e-3)
    assert harrell_davis([2.0] * 40, 0.75) == pytest.approx(2.0)
