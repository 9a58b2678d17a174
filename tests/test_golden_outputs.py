"""CLI output against the sha256 hashes recorded in perfbench/golden.json.

The seed-0 case lists of the mkdv-flows, kdv-check and population workloads
are replayed through ``cli.main``; every case with a recorded hash must print
exactly the recorded output.  ``perfbench/`` is only read.
"""

import hashlib
import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mkdv_a22 import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_cases():
    spec = importlib.util.spec_from_file_location("perfbench_cases", PERFBENCH / "cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CASES = _load_cases()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("workload", ["mkdv-flows", "kdv-check", "population"])
def test_seed0_outputs_match_recorded_hashes(workload):
    recorded = GOLDEN[workload]
    checked = 0
    for argv in CASES.case_list(workload, 0):
        key = CASES.case_key(argv)
        if key not in recorded:
            continue
        out = io.StringIO()
        with redirect_stdout(out):
            cli.main(list(argv))
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == recorded[key], key
        checked += 1
    assert checked > 0
