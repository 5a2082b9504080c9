"""Paired in-process timing of this checkout against another one.

    python tests/ab_inprocess.py --other CHECKOUT --workload W [--seed S]
                                 [--reps N] [--per-item]

Loads this checkout's src/cuspidal and the other checkout's into one
interpreter, as two packages of their own, and runs the items that
bench/workloads.py selects for workload W at seed S through each side's
cli.main.  A first, untimed pass of each side warms it up and checks
every output against its SHA-256 in bench/golden.json, and the tool
refuses to go on when one differs.  Then each repetition runs the whole
item list once on each side, the side that goes first alternating from
one repetition to the next, and takes the process time
(time.process_time) of each side's pass.  Prints each side's median pass
time, and the ratio this / other of the paired passes: its median and
quartiles (statistics.quantiles, inclusive) and the number of
repetitions in which this side was faster.

With --per-item, each repetition runs the items one at a time, both
sides back to back, the side that goes first alternating from one item
to the next.  Prints, per item, each side's minimum time, the ratio this
/ other of the minima, the median of the paired ratios and the number
of repetitions in which this side was faster, then the same for the sum
over the items.  An item's own minimum resolves a change to one heavy
item that the spread of whole passes hides.

One interpreter, paired passes and process time keep most of a busy
machine's drift out of the ratio, which separate bench/run.py runs cannot
resolve to a few percent.  It reads bench/ and writes nothing there.
pytest does not collect this file.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_cli(checkout: pathlib.Path, name: str):
    """The cli module of checkout's src/cuspidal, imported as package
    name so that the two sides share no module."""
    package = checkout / "src" / "cuspidal"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


def run_item(cli, item_id, argv) -> tuple:
    """(process seconds, stdout) of one run of one item."""
    buf = io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    seconds = time.process_time() - start
    if code != 0:
        raise SystemExit("%s exited %r on %s" % (cli.__name__, code,
                                                 item_id))
    return seconds, buf.getvalue()


def one_pass(cli, items) -> tuple:
    """(process seconds, {item id: stdout}) of one run of every item."""
    texts = {}
    start = time.process_time()
    for item_id, argv in items:
        texts[item_id] = run_item(cli, item_id, argv)[1]
    return time.process_time() - start, texts


def report(name: str, this: list, other: list) -> None:
    """One line of --per-item: the paired times of one item or the sum."""
    ratios = [t / o for t, o in zip(this, other)]
    lower = sum(t < o for t, o in zip(this, other))
    print("%-16s min %.4f / %.4f s, ratio of minima %.4f, median ratio "
          "%.4f, this lower in %d of %d"
          % (name, min(this), min(other), min(this) / min(other),
             statistics.median(ratios), lower, len(ratios)))


def per_item(sides: dict, items: list, reps: int) -> None:
    """Time every item on both sides reps times, sides alternating item by
    item, and report each item and the sum over the items."""
    times = {item_id: {side: [] for side in sides} for item_id, _ in items}
    turn = 0
    for _ in range(reps):
        for item_id, argv in items:
            order = ("this", "other") if turn % 2 == 0 else ("other", "this")
            turn += 1
            for side in order:
                times[item_id][side].append(
                    run_item(sides[side], item_id, argv)[0])
    for item_id, pair in times.items():
        report(item_id, pair["this"], pair["other"])
    sums = {side: [sum(rep) for rep in zip(*(pair[side]
                                             for pair in times.values()))]
            for side in sides}
    report("sum", sums["this"], sums["other"])


def wrong(texts: dict, golden: dict) -> list:
    """The item ids whose output differs from its golden digest."""
    return [item_id for item_id, text in texts.items()
            if hashlib.sha256(text.encode()).hexdigest()
            != golden[item_id]["sha256"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", required=True, type=pathlib.Path,
                        help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=21)
    parser.add_argument("--per-item", action="store_true",
                        help="pair the two sides item by item")
    ns = parser.parse_args(argv)
    if ns.reps < 2:
        parser.error("--reps must be at least 2 for the quartiles")
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    items = workloads.select(ns.workload, ns.seed)
    golden = workloads.load_golden()[ns.workload]
    sides = {"this": load_cli(ROOT, "cuspidal_this"),
             "other": load_cli(ns.other.resolve(), "cuspidal_other")}
    for side, cli in sides.items():
        bad = wrong(one_pass(cli, items)[1], golden)
        if bad:
            raise SystemExit("%s side differs from bench/golden.json on %s"
                             % (side, ", ".join(bad)))
    if ns.per_item:
        per_item(sides, items, ns.reps)
        return 0
    times = {side: [] for side in sides}
    for rep in range(ns.reps):
        order = ("this", "other") if rep % 2 == 0 else ("other", "this")
        for side in order:
            times[side].append(one_pass(sides[side], items)[0])
    for side, values in times.items():
        print("%-5s median %.4f s" % (side, statistics.median(values)))
    ratios = [t / o for t, o in zip(times["this"], times["other"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    lower = sum(t < o for t, o in zip(times["this"], times["other"]))
    print("ratio this/other: median %.4f, quartiles %.4f %.4f, this lower "
          "in %d of %d" % (median, q1, q3, lower, ns.reps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
