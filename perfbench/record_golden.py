"""Record the output hash of every case of the given seeds into golden.json.

    python3 perfbench/record_golden.py <first-seed> <last-seed>

Each distinct command line runs once, in this process.  Only outputs that
exit 0 and pass their checks are recorded; the whole file is rebuilt.
Re-run this only at a commit whose outputs are known to be right: the
benchmark marks every recorded case whose output no longer matches as wrong.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from cases import WORKLOADS, case_key, case_list  # noqa: E402
from checks import check_outputs  # noqa: E402
from run import GOLDEN  # noqa: E402
from worker import run_case  # noqa: E402


def main(first: int, last: int) -> int:
    from mkdv_a22 import cli

    golden = {}
    for workload in WORKLOADS:
        todo = {}
        for seed in range(first, last + 1):
            for argv in case_list(workload, seed):
                todo.setdefault(case_key(argv), argv)
        outputs = {}
        for n, (key, argv) in enumerate(todo.items()):
            rec = run_case(cli, argv, keep_output=True)
            if rec["error"] is None and rec["code"] == 0:
                outputs[key] = (rec["out"], rec["sha"])
            if n % 200 == 0:
                print(f"{workload}: {n}/{len(todo)}", file=sys.stderr, flush=True)
        bad = check_outputs({k: out for k, (out, _) in outputs.items()})
        golden[workload] = {k: sha for k, (_, sha) in sorted(outputs.items()) if k not in bad}
        print(f"{workload}: {len(golden[workload])} hashes of {len(todo)} cases; "
              f"failed their checks: {sorted(bad)}")
    sections = []
    for w in WORKLOADS:
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in golden[w].items())
        sections.append(f"{json.dumps(w)}: {{\n{body}\n}}")
    GOLDEN.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
