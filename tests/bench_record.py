"""Record alternating benchmark pairs of a parent checkout and this one.

    python tests/bench_record.py --parent PARENT_CHECKOUT --label pr27

For each of 10 pairs and each workload of BENCHMARK.json, runs
`bench/run.py --workload W --seed S --seconds N --trace 0` once in each
checkout, from that checkout's root and on its own src/, with seed S the
pair's number (1 to 10) and N BENCHMARK.json's run_seconds.  The side
that runs first alternates from one pair to the next, so a drift of the
machine falls on both.  Then each side runs every workload once more at
`--seed 1 --trace 1` for the per-layer metrics.  It refuses
to run when the two bench/ trees differ, since the numbers would then
measure the benchmark as well as the program.

Writes BENCH_<label>.json at the root of this checkout: the `# machine`
line and the commit of each side, every run's end-to-end metrics and its
unscaled wall_s (`unscaled_wall_s`, from the `# unscaled wall_s` line)
with `correct`, `attempted`, `failed` and `load`, the 1, 5 and 15 minute
load averages before and after the run (a record without them cannot
tell a drift of the machine from a change), and per workload and metric the
quartiles (statistics.quantiles, inclusive) and median of each side and
the number of pairs in which this checkout did better; per workload, the
traced pass's per-layer metrics of each side.

pytest does not collect this file.
"""

import argparse
import filecmp
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PAIRS = 10


def bench_differs(a: pathlib.Path, b: pathlib.Path) -> list:
    """The files under bench/ that are not byte-identical in a and b."""
    def files(root):
        return {p.relative_to(root) for p in (root / "bench").rglob("*")
                if p.is_file() and "__pycache__" not in p.parts}
    left, right = files(a), files(b)
    return sorted(str(p) for p in left ^ right) + sorted(
        str(p) for p in left & right
        if not filecmp.cmp(a / p, b / p, shallow=False))


def commit(checkout: pathlib.Path) -> str:
    """HEAD of the checkout, with "-dirty" when tracked files changed."""
    done = subprocess.run(["git", "describe", "--always", "--dirty",
                           "--abbrev=40"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


UNSCALED = "# unscaled wall_s "


def run_once(checkout: pathlib.Path, workload: str, seed: int,
             seconds: int, trace: int = 0) -> tuple:
    """(machine line, result) of one bench/run.py run, with the load
    averages (os.getloadavg) just before and just after it; a --trace 0
    run's metrics gain its unscaled wall_s."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before = os.getloadavg()
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True)
    after = os.getloadavg()
    if done.returncode != 0:
        raise SystemExit("bench/run.py failed in %s (%s, seed %d):\n%s"
                         % (checkout, workload, seed, done.stderr))
    lines = done.stdout.strip().splitlines()
    machine = next(line for line in lines if line.startswith("# machine"))
    result = json.loads(lines[-1])
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    if not trace:
        line = next(line for line in lines if line.startswith(UNSCALED))
        metrics["unscaled_wall_s"] = float(line[len(UNSCALED):].split()[0])
    return machine, {"correct": result["correct"],
                     "attempted": result["attempted"],
                     "failed": result["failed"],
                     "load": {"before": before, "after": after},
                     "metrics": metrics}


def summary(pairs: list, metrics: list) -> dict:
    """Quartiles of each side and this checkout's wins, per metric."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [pair[side]["metrics"][name] for pair in pairs]
                 for side in ("parent", "change")}
        out[name] = {side: dict(zip(("q1", "median", "q3"),
                                    statistics.quantiles(values, n=4,
                                                         method="inclusive")))
                     for side, values in sides.items()}
        out[name]["change_wins"] = sum(
            (c < p) if lower else (c > p)
            for p, c in zip(sides["parent"], sides["change"]))
        out[name]["pairs"] = len(pairs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path,
                        help="root of the parent commit's checkout")
    parser.add_argument("--label", required=True,
                        help="names the output, BENCH_<label>.json")
    ns = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    parent = ns.parent.resolve()
    differs = bench_differs(parent, ROOT)
    if differs:
        sys.stderr.write("bench/ differs between the checkouts: %s\n"
                         % ", ".join(differs))
        return 1
    sides = {"parent": parent, "change": ROOT}
    machines, workloads = set(), {}
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in (w["name"] for w in spec["workloads"]):
            pair = {"seed": k + 1, "first": order[0]}
            for side in order:
                machine, pair[side] = run_once(sides[side], workload, k + 1,
                                               seconds)
                machines.add(machine)
            workloads.setdefault(workload, []).append(pair)
            print("pair %d %s: %s" % (k + 1, workload, json.dumps(
                {side: pair[side]["metrics"] for side in order})),
                flush=True)
    traced = {}
    for workload in workloads:
        for side, path in sides.items():
            machine, traced.setdefault(workload, {})[side] = run_once(
                path, workload, 1, seconds, trace=1)
            machines.add(machine)
        print("traced %s" % workload, flush=True)
    metrics = spec["end_to_end"] + [{"name": "unscaled_wall_s",
                                     "better": "lower"}]
    record = {
        "label": ns.label,
        "machine": sorted(machines),
        "commits": {side: commit(path) for side, path in sides.items()},
        "command": "bench/run.py --trace 0 --seconds %d, seed = pair; "
                   "--trace 1 --seed 1 once per side" % seconds,
        "workloads": {name: {"runs": pairs,
                             "summary": summary(pairs, metrics),
                             "traced": traced[name]}
                      for name, pairs in workloads.items()},
    }
    out = ROOT / ("BENCH_%s.json" % ns.label)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
