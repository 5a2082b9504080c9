"""Seeded-corpus sweep: the same-bytes gate of the command line.

Writes `seed-corpus --count 5 --seed 0` into a temporary directory and,
working there with relative paths, runs every subcommand on each file of
it, every delorme pair of each curve, standard-basis and verify on a
base curve that splits (SPLIT) and a fixed list of refusals.  It
prints one line per run: the exit code, the sha256 of stdout, the
sha256 of stderr and the argv (an argument over 40 characters is shown
as its first 20 and its length).  Each file the corpus run writes, and
the file of one `standard-basis --output` run, gets a line too: "file",
its sha256 and its name.  Each run is a fresh
`python -m cuspidal.cli` process on the package under --src, by default
the src/ next to this tests/ directory.  Diff the output of two
checkouts to see which bytes a change moves:

    python tests/sweep.py > after.txt
    python tests/sweep.py --src OTHER_CHECKOUT/src > before.txt
    diff before.txt after.txt

pytest does not collect this file.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LONG = "x" * 5000
NINES = "9" * 4000
WORDS = " ".join(["x"] * 2500)
# a base curve whose high terms raise den to 70 = 35 x 2, so its power
# rows grow by the two-half rule
SPLIT = ('{"n": 5, "m": 11, "y": [[11, "1"], [12, "1/2"], [13, "1"], '
         '[90, "1/7"], [101, "-2/5"]]}')
REFUSALS = [
    ["semigroup"],
    ["semigroup", "--pair", "4,6"],
    ["semigroup", "--pair", "5"],
    ["semigroup", "--pair", "5,x"],
    ["semigroup", "--pair", "５,11"],
    ["semigroup", "--pair", LONG + ",11"],
    ["semimodule", "--generators", "5,x"],
    ["semimodule", "--generators", "5,11,1_7"],
    ["semimodule", "--generators", "5,11,-3"],
    ["semimodule", "--generators", "5,11," + LONG],
    ["semimodule", "--generators", "5,11,17", "--truncation", "3"],
    ["standard-basis", "--curve", "{oops"],
    ["standard-basis", "--curve", "missing.json"],
    ["standard-basis", "--curve", "ex5_11.json", "--truncation", "60"],
    ["standard-basis", "--curve", "ex5_11.json", "--truncation", "1_00"],
    ["standard-basis", "--curve",
     '{"n": 5, "m": 11, "y": [[11, "1"], [12, "%s"]]}' % LONG],
    ["delorme", "--curve", "ex5_11.json", "--i", "x", "--j", "1"],
    ["delorme", "--curve", "ex5_11.json", "--i", "1_0", "--j", "0"],
    ["delorme", "--curve", "ex5_11.json", "--i", LONG, "--j", "0"],
    ["delorme", "--curve", "ex5_11.json", "--i", "9", "--j", "0"],
    ["semiroots", "--curve", "ex5_11.json", "--a", "1_0"],
    ["semiroots", "--curve", "ex5_11.json", "--a", LONG],
    ["semiroots", "--curve", "ex5_11.json", "--i", "1", "--a", "0"],
    ["verify", "--curve", "ex5_11.json", "--i", "1"],
    ["dicritical-check", "--form", '{"pair": [4, 9]}'],
    ["seed-corpus", "--directory", "negative", "--count", "-3"],
    ["standard-basis", "--curve", "{" + LONG],
    ["standard-basis", "--curve", LONG + ".json"],
    ["semigroup", "--pair", "5,11", "--output", LONG + "/x.json"],
    ["standard-basis", "--curve",
     '{"n": 5, "m": 11, "y": [[11, "1"], [%s, "1"]]}' % NINES],
    ["dicritical-check", "--form",
     '{"pair": [4, 9], "dx": [[%s, 0, "1"], [%s, 0, "2"]]}' % (NINES, NINES)],
    [LONG],
    ["semigroup", "--pair", "5,11", LONG],
    ["semigroup", "--copair=" + LONG],
    ["nosuch"],
    ["semigroup", "--pair", "5,11", "a", "b", "c"],
    ["semigroup", "--copair=1"],
    ["semigroup", "--pair", "5,11", "--bogus"],
    ["semimodule", "--generators", "4,6,7"],
    ["semimodule", "--generators", "11,5,17"],
    ["standard-basis", "--curve",
     '{"n": 5, "m": 11, "y": [[11, "1"]], "truncation": 150.5}'],
    ["standard-basis", "--curve",
     '{"n": 5, "m": 11, "y": [[11, "1"]], "truncation": true}'],
    ["semiroots", "--curve", "ex5_11.json", "--a", ""],
    ["semiroots", "--curve", "ex5_11.json", "--a", "1/0"],
    ["standard-basis", "--curve",
     '{"n": 5, "m": 11, "y": [[11, "1"], [12, "1/0"]]}'],
    ["dicritical-check", "--form", '{"pair": [4, 9], "dx": [[0, 0, "1/0"]]}'],
    ["semigroup", "--pair", "5,11", WORDS],
    ["semigroup", "--copair=" + WORDS],
    [WORDS],
    ["semigroup", "--pair", "5,11"] + WORDS.split(),
    ["standard-basis", "--curve", '{"n": 1, "m": 2, "y": [[2, "1"]]}'],
    ["standard-basis", "--curve",
     '{"n": 1, "m": %s, "y": [[%s, "1"]]}' % (NINES, NINES)],
]


def shown(arg: str) -> str:
    return arg if len(arg) <= 40 else "%s...(%d chars)" % (arg[:20], len(arg))


def run(argv: list, cwd: str, env: dict) -> subprocess.CompletedProcess:
    """One CLI run; prints its exit code, digests and argv."""
    done = subprocess.run([sys.executable, "-m", "cuspidal.cli"] + argv,
                          cwd=cwd, env=env, capture_output=True)
    print(done.returncode, hashlib.sha256(done.stdout).hexdigest(),
          hashlib.sha256(done.stderr).hexdigest(),
          shlex.join(shown(a) for a in argv), flush=True)
    return done


def written(cwd: str, name: str) -> None:
    """Prints the sha256 of a file a run wrote and its name."""
    with open(os.path.join(cwd, name), "rb") as handle:
        print("file", hashlib.sha256(handle.read()).hexdigest(), name,
              flush=True)


def sweep(cwd: str, env: dict) -> None:
    run(["seed-corpus", "--directory", ".", "--count", "5", "--seed", "0"],
        cwd, env)
    for name in sorted(os.listdir(cwd)):
        written(cwd, name)
    if run(["standard-basis", "--curve", "ex5_11.json", "--output",
            "out.json"], cwd, env).returncode == 0:
        written(cwd, "out.json")
    curves = ["ex5_11.json", "ex7_17.json"] + \
        ["rand_%03d.json" % k for k in range(5)]
    run(["dicritical-check", "--form", "ex4_9_form.json"], cwd, env)
    for name in curves:
        with open(os.path.join(cwd, name)) as handle:
            body = json.load(handle)
        pair = "%d,%d" % (body["n"], body["m"])
        run(["semigroup", "--pair", pair], cwd, env)
        run(["semigroup", "--pair", pair, "--copair"], cwd, env)
        run(["semimodule", "--curve", name], cwd, env)
        done = run(["standard-basis", "--curve", name], cwd, env)
        if done.returncode == 0:
            lam = json.loads(done.stdout)["lambda"]
            run(["semimodule", "--generators", ",".join(map(str, lam))],
                cwd, env)
            for i in range(len(lam) - 1):
                for j in range(i + 1):
                    run(["delorme", "--curve", name, "--i", str(i),
                         "--j", str(j)], cwd, env)
        run(["semiroots", "--curve", name], cwd, env)
        run(["verify", "--curve", name, "--all-semiroots"], cwd, env)
    run(["standard-basis", "--curve", SPLIT], cwd, env)
    run(["verify", "--curve", SPLIT, "--all-semiroots"], cwd, env)
    for argv in REFUSALS:
        run(argv, cwd, env)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(SRC),
                        help="the directory that holds the cuspidal package")
    ns = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.abspath(ns.src))
    with tempfile.TemporaryDirectory() as cwd:
        sweep(cwd, env)


if __name__ == "__main__":
    main()
