"""Benchmark of the cuspidal CLI: one workload, one seed, one result line.

    python3 bench/run.py --workload basis_ladder --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` (``PYTHONPATH=src``), never from an installed copy.  With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer ones; the lines before it name the machine,
the rational backend and every metric with its unit.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from reference import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 15
# A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "item_p50_s": "s", "item_max_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac") or \
            name.endswith("per_item"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def start_worker(args, env, timeout):
    """Run the worker to completion; returns (seconds, stdout)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, env=env,
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s ran past %ds" % (args, timeout)) from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("worker %s exited with %d" % (args, proc.returncode))
    return elapsed, proc.stdout


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def run(ns) -> dict:
    env = child_env()
    common = ["--workload", ns.workload, "--seed", str(ns.seed)]
    speed = Speed()
    setups = [speed.scale(start_worker(common + ["--setup-only"], env, 60)[0])
              for _ in range(SETUP_REPEATS)]
    args = common + ["--seconds", str(ns.seconds), "--trace", str(ns.trace)]
    if ns.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, "spans_%s_%d.jsonl"
                             % (ns.workload, ns.seed))
        args += ["--spans", spans]
    _, stdout = start_worker(args, env, WORKER_TIMEOUT_S)
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    result["machine"].update(machine())
    return result


def report(ns, result) -> dict:
    if ns.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(result["layers"].items())}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    attempted, failed = result["attempted"], result["failed"]
    print("# machine %s" % json.dumps(result["machine"], sort_keys=True))
    print("# %s seed %d: %d items, %d calls, failed_frac %.4f (%d/%d)"
          % (ns.workload, ns.seed, len(result["item_ids"]), attempted,
             failed / attempted, failed, attempted))
    if not ns.trace:
        print("# unscaled wall_s %.6f s (times are scaled to the reference"
              " speed, see reference.py)" % result["raw_wall_s"])
    for problem in result["problems"]:
        print("# FAILED %s" % problem)
    for name, entry in metrics.items():
        print("# %-44s %16.6f %s" % (name, entry["value"], entry["unit"]))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    try:
        result = run(ns)
    except BenchError as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 1
    print(json.dumps(report(ns, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
