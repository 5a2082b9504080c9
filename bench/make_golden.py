"""Write golden.json: the digest of every pool item's CLI output.

Run from the repository root against the commit whose outputs are the
reference:

    PYTHONPATH=src python3 bench/make_golden.py [WORKLOAD ...]

For every pool item it records the SHA-256 of the stdout bytes and, for
information, the seconds the call took.  An output is recorded only when
it passes the benchmark's own content checks (verify reports pass,
lambda agrees with the brute-force oracle).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from worker import content_problem, import_program, run_item  # noqa: E402


def record(workload, cli):
    table = {}
    for item_id, argv in workloads.pool(workload).items():
        elapsed, code, text, error = run_item(cli, argv)
        problem = error or (code != 0 and "exit code %r" % code) or \
            content_problem(workload, argv, text)
        if problem:
            raise SystemExit("%s failed: %s" % (item_id, problem))
        table[item_id] = {"seconds": round(elapsed, 3),
                          "sha256": hashlib.sha256(text.encode()).hexdigest()}
        print(item_id, table[item_id], flush=True)
    return table


def main(names):
    cli = import_program()
    try:
        golden = workloads.load_golden()
    except FileNotFoundError:
        golden = {}
    for workload in names or workloads.WORKLOADS:
        golden[workload] = record(workload, cli)
        with open(workloads.GOLDEN_PATH, "w") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
