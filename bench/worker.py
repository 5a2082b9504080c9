"""One benchmark process: set up, run the items, print one JSON line.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing
at the checkout's ``src``.  Items run one at a time in this single
process (a closed loop with one client), each through
``cuspidal.cli.main`` with stdout captured.  Every output is checked
after its timer stops: exit code 0, the golden SHA-256 of the stdout
bytes, and a check of its own per workload.

Modes:
  --setup-only   import, generate the items, load the goldens, exit.
  --trace 0      repeat the item list for --seconds; time every call.
  --trace 1      one pass counting the gcd calls of Fraction, one pass
                 without tracing (the base of the overhead), one traced
                 pass (spans and counters).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import resource
import statistics
import sys
import time

import workloads
from reference import Speed

ROOT = os.path.dirname(workloads.HERE)
RATIONAL = re.compile(r'"(-?\d+)(?:/(\d+))?"')


def import_program():
    """Import the CLI module from this checkout's src/, never from
    elsewhere.  Items call ``cli.main`` through the module so that a
    traced pass reaches the wrapper installed there."""
    import cuspidal.cli
    expected = os.path.join(ROOT, "src", "cuspidal")
    found = os.path.dirname(os.path.abspath(cuspidal.cli.__file__))
    if found != expected:
        raise ImportError("cuspidal imported from %s, not %s"
                          % (found, expected))
    return cuspidal.cli


def backend() -> dict:
    """The rational type the program computes with, and whether gmpy2
    is importable; results from different backends are not comparable."""
    from cuspidal.rationals import Q
    return {"backend": type(Q(0)).__name__,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None}


def run_item(cli, argv):
    """(seconds, exit code, stdout text, error) of one CLI call."""
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except Exception as exc:  # an item that raises is a failed item
        code, error = None, "%s: %s" % (type(exc).__name__, exc)
    elapsed = time.perf_counter() - start
    return elapsed, code, buf.getvalue(), error


def content_problem(workload, argv, text):
    """What an output gets wrong by the benchmark's own checks, or None."""
    if workload == "verify_corpus" and json.loads(text)["pass"] is not True:
        return "verify reported pass = false"
    if workload == "basis_ladder":
        from cuspidal.jsonio import parse_curve
        from cuspidal.stdbasis import semimodule_oracle
        curve = parse_curve(json.loads(argv[argv.index("--curve") + 1]))
        if json.loads(text)["lambda"] != list(semimodule_oracle(curve).basis):
            return "lambda differs from semimodule_oracle"
    return None


class Checker:
    """Correctness of one item's output, judged outside its timer."""

    def __init__(self, workload, golden):
        self.workload = workload
        self.golden = golden[workload]
        self._content = {}

    def problem(self, item_id, argv, code, text, error):
        """None when the output is right, else what is wrong with it."""
        if error is not None:
            return error
        if code != 0:
            return "exit code %r" % code
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != self.golden[item_id]["sha256"]:
            return "stdout digest %s differs from the golden one" % digest
        # equal digests mean equal bytes, so one content check per item
        if item_id not in self._content:
            self._content[item_id] = content_problem(self.workload, argv,
                                                     text)
        return self._content[item_id]


def max_bits(text: str) -> int:
    """Largest bit length of a numerator or denominator in a JSON output."""
    best = 0
    for num, den in RATIONAL.findall(text):
        best = max(best, int(num).bit_length(), int(den or 1).bit_length())
    return best


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, item_id, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append("%s: %s" % (item_id, problem))


def one_pass(cli, items, hooks=None, speed=None):
    """Run every item once; returns ({item: seconds}, {item: output}).

    With ``speed`` the seconds are scaled to the reference speed."""
    times, texts = {}, {}
    for item_id, argv in items:
        if hooks:
            hooks.item = item_id
        elapsed, code, text, error = run_item(cli, argv)
        times[item_id] = speed.scale(elapsed) if speed else elapsed
        texts[item_id] = (code, text, error)
    return times, texts


def check_pass(items, texts, checker, tally):
    for item_id, argv in items:
        code, text, error = texts[item_id]
        tally.record(item_id, checker.problem(item_id, argv, code, text,
                                              error))


def measure(cli, items, checker, seconds):
    """Closed loop over the item list until the budget is spent.

    The first pass always completes; later passes start an item only
    when its fastest time so far still fits in the budget.  Every sample
    is scaled to the reference speed (reference.py); an item's time is
    the median of its scaled samples.
    """
    tally = Tally()
    raw = {item_id: [] for item_id, _ in items}
    scaled = {item_id: [] for item_id, _ in items}
    speed = Speed()
    start = time.perf_counter()
    first = True
    while True:
        ran = False
        for item_id, argv in items:
            if not first and (time.perf_counter() - start
                              + min(raw[item_id]) > seconds):
                continue
            elapsed, code, text, error = run_item(cli, argv)
            raw[item_id].append(elapsed)
            scaled[item_id].append(speed.scale(elapsed))
            tally.record(item_id, checker.problem(item_id, argv, code, text,
                                                  error))
            ran = True
        first = False
        if not ran:
            break
    per_item = [statistics.median(s) for s in scaled.values()]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return tally, {
        "wall_s": sum(per_item),
        "item_p50_s": statistics.median(per_item),
        "item_max_s": max(per_item),
        "peak_rss_mb": peak_kb / 1024.0,
        "raw_wall_s": sum(statistics.median(s) for s in raw.values()),
    }


def trace(cli, items, checker):
    """Per-layer numbers from three passes over the item list.

    The gcd-counting pass goes first and also warms the process up, so
    that the untraced and the traced pass after it compare like with like
    for ``trace.overhead_frac``.
    """
    from tracer import GcdCounter, Tracer
    tally = Tally()
    counter = GcdCounter()
    counter.install()
    try:
        _, texts = one_pass(cli, items)
    finally:
        counter.uninstall()
    check_pass(items, texts, checker, tally)

    speed = Speed()
    plain, texts = one_pass(cli, items, speed=speed)
    check_pass(items, texts, checker, tally)

    tracer = Tracer()
    tracer.install()
    try:
        traced, texts = one_pass(cli, items, hooks=tracer, speed=speed)
    finally:
        tracer.uninstall()
    check_pass(items, texts, checker, tally)
    layers = tracer.metrics()
    layers["jsonio.output_bytes"] = sum(len(t[1].encode())
                                        for t in texts.values())
    layers["rationals.max_bits"] = max(max_bits(t[1]) for t in texts.values())
    layers["rationals.gcd_calls"] = counter.calls
    layers["trace.overhead_frac"] = \
        sum(traced.values()) / sum(plain.values()) - 1
    return tally, layers, tracer.spans


def write_spans(spans, path):
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1, write every span here")
    ns = parser.parse_args(argv)

    cli = import_program()
    golden = workloads.load_golden()
    items = workloads.select(ns.workload, ns.seed)
    checker = Checker(ns.workload, golden)
    if ns.setup_only:
        return 0
    if ns.trace:
        tally, layers, spans = trace(cli, items, checker)
        if ns.spans:
            write_spans(spans, ns.spans)
        result = {"layers": layers}
    else:
        tally, result = measure(cli, items, checker, ns.seconds)
    result.update(machine=backend(), attempted=tally.attempted,
                  failed=tally.failed,
                  problems=tally.problems[:20],
                  item_ids=[item_id for item_id, _ in items])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
