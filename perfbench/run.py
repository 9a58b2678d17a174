"""Benchmark of the mkdv-a22 engine through its command line.

    python3 perfbench/run.py --workload <mkdv-flows|kdv-check|population|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The case list of a workload is fixed by
the seed (see cases.py).  Each pass runs the whole list once in a fresh
interpreter (worker.py), one pass after another and never two at once, so
module caches start cold as they do for every CLI user and the peak memory
of a pass belongs to one workload.  Passes repeat while the next one fits in
``--seconds``; at least one always runs.

--trace 0 reports the end-to-end metrics from untraced passes.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (spans are written to perfbench/out/).  Outputs are checked
after the passes, outside every timed region: per-case checks (checks.py),
identical output hashes across passes and between traced and untraced
passes, and the hashes recorded in golden.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (with --workload all, one such line follows
each workload's report).  See NOTES.md for the metric definitions and
why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
sys.path.insert(0, str(HERE))

from cases import WORKLOADS, case_key, case_list  # noqa: E402
from checks import check_outputs  # noqa: E402

HARD_LIMIT_S = 170.0  # the whole run must end well inside 180 s
SETUP_SAMPLES = 15
# Child interpreters write and reuse bytecode (src/mkdv_a22/__pycache__) as an
# installed package does, whatever the caller's environment says.
WORKER_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    "PYTHONHASHSEED": "0",
}

PER_LAYER = [
    ("loop.conjugate.calls", "count"),
    ("loop.conjugate.self_s", "s"),
    ("loop.grade_project.kept_ratio", "ratio"),
    ("loop.lambda_power.self_s", "s"),
    ("flows.dressing_product.calls", "count"),
    ("flows.mkdv_field.self_s", "s"),
    ("flows.family_tangents.calls", "count"),
    ("flows.family_tangents.self_s", "s"),
    ("flows.decompose_flow.self_s", "s"),
    ("generation.generate_multistep.calls", "count"),
    ("generation.wronskian_solve.calls", "count"),
    ("generation.wronskian_solve.self_s", "s"),
    ("psdo.cube_root.self_s", "s"),
    ("psdo.cube_root.max_depth", "count"),
    ("psdo.frac_power_plus.self_s", "s"),
    ("psdo.psdo_mul.calls", "count"),
    ("psdo.psdo_mul.self_s", "s"),
    ("psdo.kdv_field.self_s", "s"),
    ("miura.miura_from_trace.self_s", "s"),
    ("miura.miura_map.self_s", "s"),
    ("miura.d_miura_map_a1.self_s", "s"),
    ("exact.poly_gcd.calls", "count"),
    ("exact.poly_gcd.self_s", "s"),
    ("exact.poly_gcd.useful_ratio", "ratio"),
    ("exact.ratfunc_new.calls", "count"),
    ("exact.ratfunc_new.self_s", "s"),
    ("exact.max_coeff_bits", "bits"),
    ("exact.solve_linear.calls", "count"),
    ("exact.solve_linear.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_setup() -> float:
    """Median time from spawning a fresh interpreter to mkdv_a22.cli imported.

    One untimed spawn first compiles the bytecode, a one-off cost of a new
    install rather than of each command.
    """
    probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import mkdv_a22.cli; "
        "print(repr(time.time()))"
    )
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, "-c", probe, str(SRC)],
            capture_output=True, text=True, timeout=60, env=WORKER_ENV, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing mkdv_a22.cli failed:\n{proc.stderr}")
        if k:
            samples.append(float(proc.stdout.strip()) - t0)
    return statistics.median(samples)


def run_worker(workload: str, seed: int, traced: bool, keep: bool, timeout: float) -> dict:
    spans = str(OUT / f"spans-{workload}") if traced else ""
    cmd = [
        sys.executable, str(HERE / "worker.py"), workload, str(seed),
        "1" if traced else "0", "1" if keep else "0", spans,
    ]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, env=WORKER_ENV, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"the {workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    result["traced"] = traced
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool, started: float) -> List[dict]:
    """Fresh-process passes, one at a time, while the next one fits."""
    passes: List[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        left = HARD_LIMIT_S - (time.perf_counter() - started)
        passes.append(run_worker(workload, seed, traced, keep=not passes, timeout=left))
        elapsed = sum(p["wall_s"] for p in passes)
        nxt = trace and len(passes) % 2 == 1
        same = [p["wall_s"] for p in passes if p["traced"] == nxt]
        if not same:  # a traced run needs at least one traced pass
            continue
        est = max(same)
        if elapsed + est > seconds or (time.perf_counter() - started) + 1.5 * est > HARD_LIMIT_S:
            return passes


def load_golden(workload: str) -> Dict[str, str]:
    """Recorded output hashes of one workload, by case key."""
    if GOLDEN.is_file():
        return json.loads(GOLDEN.read_text()).get(workload, {})
    return {}


def _failure(rec: dict) -> Optional[str]:
    """Why a case run did not end with exit code 0, or None."""
    if rec["error"] is not None:
        return rec["error"]
    if rec["code"] != 0:
        return f"exit code {rec['code']}: {rec['stderr'].strip()}"
    return None


def judge(passes: List[dict], golden: Dict[str, str], check=check_outputs) -> dict:
    """Per-case failures and correctness over all passes.

    A case fails when it raises, exits non-zero, prints an output that fails
    its check, or prints different bytes in different passes or than the
    hash recorded in golden.json.  Every printed output is checked, including
    the exit-1 output of an inconsistent ``kdv-check``.  A case is *wrong*,
    and the run incorrect, when its output fails its check, changes between
    passes, or when golden.json holds a hash for it and it does not exit 0
    with exactly that output.  A case without a recorded hash that raises or
    exits non-zero only fails.
    """
    first = passes[0]["records"]
    outputs = {r["key"]: r["out"] for r in first if r["error"] is None and r["code"] in (0, 1)}
    bad_output = check(outputs)
    reasons: Dict[str, str] = {}
    wrong: Dict[str, str] = {}
    golden_checked = 0
    for k, rec in enumerate(first):
        key = rec["key"]
        runs = [p["records"][k] for p in passes]
        failure = _failure(rec)
        golden_checked += key in golden
        if any((r["sha"], r["code"], r["error"]) != (rec["sha"], rec["code"], rec["error"]) for r in runs):
            wrong[key] = "output differs between passes (traced or untraced)"
        elif key in bad_output:
            wrong[key] = bad_output[key]
        elif key in golden and failure is not None:
            wrong[key] = f"recorded as passing, now fails: {failure}"
        elif key in golden and golden[key] != rec["sha"]:
            wrong[key] = "output hash differs from the recorded one"
        elif failure is not None:
            reasons[key] = failure
    reasons.update(wrong)
    return {
        "reasons": reasons,
        "wrong": wrong,
        "golden_checked": golden_checked,
        "attempted": len(first) * len(passes),
        "failed": len(reasons) * len(passes),
    }


def tail_quantile(n: int) -> float:
    """The highest percentile of n cases with at least ten cases above it."""
    if n < 11:
        raise BenchError("the tail needs at least 11 cases")
    return (n - 10) / n


def harrell_davis(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of ascending ``values``.

    A Beta((n+1)q, (n+1)(1-q))-weighted average of all order statistics.
    Case times come in clusters (one per word length and command), and a
    plain order statistic jumps between clusters when two cases near the
    quantile swap places; this estimate moves smoothly instead.  The Beta
    weights are integrated with Simpson's rule, 64 steps per order statistic.
    """
    n = len(values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    if a < 1 or b < 1:
        raise BenchError(f"quantile {q} is too extreme for {n} values")
    steps = 64 * n
    h = 1.0 / steps
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    ys = [pdf(k * h) for k in range(steps + 1)]
    weights = []
    for i in range(n):
        lo, hi = 64 * i, 64 * (i + 1)
        weights.append(
            (ys[lo] + ys[hi] + 4 * sum(ys[lo + 1:hi:2]) + 2 * sum(ys[lo + 2:hi - 1:2])) * h / 3
        )
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, values)) / total


def end_to_end(passes: List[dict], setup_s: float, verdict: dict) -> dict:
    n = len(passes[0]["records"])
    per_case = sorted(statistics.median(p["records"][k]["s"] for p in passes) for k in range(n))
    return {
        "cases_per_s": (n / sum(per_case), "1/s"),
        "case_p50_s": (harrell_davis(per_case, 0.5), "s"),
        "case_tail_s": (harrell_davis(per_case, tail_quantile(n)), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (setup_s, "s"),
        "pass_ratio": (1.0 - verdict["failed"] / verdict["attempted"], "ratio"),
    }


def per_layer(traced: List[dict], untraced: List[dict]) -> dict:
    """Counts of the first traced pass (they repeat exactly), self times as
    medians over the traced passes."""
    first = traced[0]["trace"]

    def pass_time(p: dict) -> float:
        return sum(r["s"] for r in p["records"])

    derived = {
        "loop.grade_project.kept_ratio": _ratio(
            first["loop.grade_project.terms_kept"], first["loop.grade_project.terms_in"]
        ),
        "exact.poly_gcd.useful_ratio": _ratio(
            first["exact.poly_gcd.useful"], first["exact.poly_gcd.calls"]
        ),
        "trace.overhead_ratio": _ratio(
            statistics.median(pass_time(p) for p in traced),
            statistics.median(pass_time(p) for p in untraced),
        ),
    }

    def value(name: str) -> float:
        if name in derived:
            return derived[name]
        if name.endswith(".self_s"):
            return statistics.median(p["trace"][name] for p in traced)
        return first[name]

    return {name: (value(name), unit) for name, unit in PER_LAYER}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    setup_s = None if trace else measure_setup()
    passes = run_passes(workload, seed, seconds, trace, started)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    verdict = judge(passes, load_golden(workload))
    metrics = per_layer(traced, untraced) if trace else end_to_end(untraced, setup_s, verdict)
    n = len(passes[0]["records"])
    lines = [
        f"workload {workload}  seed {seed}  {n} cases x {len(untraced)} untraced"
        + (f" + {len(traced)} traced" if trace else "")
        + f" passes (fresh process each), {sum(p['wall_s'] for p in passes):.1f} s",
    ]
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "case_tail_s":
            note = f"  (p{100 * (n - 10) / n:.1f} of {n} per-case median times: 10 cases above it)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_SAMPLES} fresh interpreters)"
        elif name == "pass_ratio":
            note = "  (1 - fail_ratio)"
        elif name == "cases_per_s":
            note = f"  ({n} cases / sum of per-case median times)"
        lines.append(f"  {name:<38} {value:.6g} {unit}{note}")
    lines.append(
        f"  {'fail_ratio':<38} {_ratio(verdict['failed'], verdict['attempted']):.6g}"
        f"  ({verdict['failed']} of {verdict['attempted']} case runs)"
    )
    lines.append(f"  golden hashes checked: {verdict['golden_checked']} of {n} cases")
    for key, why in verdict["reasons"].items():
        tag = "WRONG" if key in verdict["wrong"] else "failed"
        lines.append(f"  {tag}: {key}: {why}")
    return {
        "lines": lines,
        "result": {
            "correct": not verdict["wrong"],
            "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mkdv_a22" / "cli.py").is_file():
        print(f"error: no engine sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            out = bench(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(out["lines"]))
            print(json.dumps(out["result"]), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
