"""One pass over a workload's case list, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <traced 0|1> <keep-output 0|1> [spans-path]

Each case is a real command line fed to ``mkdv_a22.cli.main`` in-process with
stdout and stderr captured; only the call itself is timed.  A case that
raises is recorded with its error and the pass goes on.  Prints one JSON
object: per-case records in case-list order, the peak resident memory of
this process, and (traced passes) the per-layer summary.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from cases import case_key, case_list  # noqa: E402


def run_case(cli, argv, keep_output: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing case is a result, not the end of the pass
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
    text = out.getvalue()
    rec = {
        "key": case_key(argv),
        "s": elapsed,
        "code": code,
        "error": error,
        "sha": hashlib.sha256(text.encode()).hexdigest(),
        "stderr": err.getvalue()[-300:],
    }
    if keep_output:
        rec["out"] = text
    return rec


def run_pass(workload: str, seed: int, traced: bool, keep_output: bool, spans: str = "") -> dict:
    from mkdv_a22 import cli

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    for argv in case_list(workload, seed):
        gc.collect()  # start each case from a clean heap, as a new process would
        records.append(run_case(cli, argv, keep_output))
    result = {
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spans:
            tracer.write(Path(spans))
    return result


if __name__ == "__main__":
    wl, sd, tr, keep = sys.argv[1:5]
    spans_path = sys.argv[5] if len(sys.argv) > 5 else ""
    payload = run_pass(wl, int(sd), tr == "1", keep == "1", spans_path)
    sys.stdout.write(json.dumps(payload) + "\n")
