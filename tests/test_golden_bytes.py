"""Same bytes: SHA-256 digests of the CLI's stdout on the seeded corpus.

The corpus is `seed-corpus --count 5 --seed 0`.  Every run in RUNS
prints one JSON document, and the digest of its stdout must equal the
entry of the same name in golden_bytes.json.  Only ex7_17
`verify --all-semiroots` (4 to 11 s on 2 CPUs, as the machine's speed
drifts) is skipped, to keep the whole file near 10 s; its branch recheck
is guarded by ex7_17 verify at i = 3, a = 1/2 (about 1 s, the branch
with a 1,450-bit den), ex7_17 semiroots takes about 0.7 s, and rand_002
semiroots and verify about 0.1 s and 0.3 s.

A change that means to alter the output regenerates the digests from a
checkout with

    PYTHONPATH=src python tests/test_golden_bytes.py

and says in CHANGES.md which outputs changed and why.
"""

import hashlib
import io
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stdout

import pytest

from cuspidal.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_bytes.json")
CURVES = ("ex5_11", "ex7_17", "rand_000", "rand_001", "rand_002",
          "rand_003", "rand_004")
VERIFIED = ("ex5_11", "rand_000", "rand_001", "rand_002", "rand_003",
            "rand_004")
SPLIT = ('{"n":5,"m":11,"y":[[11,"1"],[12,"1/2"],[13,"1"],'
         '[90,"1/7"],[101,"-2/5"]]}')
RUNS = (["standard-basis --curve %s.json" % c for c in CURVES]
        + ["semimodule --curve %s.json" % c for c in CURVES]
        + ["semiroots --curve %s.json" % c for c in CURVES]
        + ["verify --all-semiroots --curve %s.json" % c for c in VERIFIED]
        + ["dicritical-check --form ex4_9_form.json",
           "semigroup --pair 5,11",
           "semimodule --generators 5,11,17,23,29",
           "semimodule --generators 7,11",
           "delorme --curve ex5_11.json --i 3 --j 1",
           "verify --curve ex7_17.json --i 3 --a 1/2",
           # the adjustment at a non-default T, and at criterion 06's
           # member 7, (t^9, t^11), whose adjustment takes no potential
           "standard-basis --curve ex5_11.json --truncation 200",
           'standard-basis --curve {"n":9,"m":11,"y":[[11,"1"]]}',
           # a base curve that splits (den 70 = 35 x 2): its adjustment
           # integrates against two-half rows
           "standard-basis --curve %s" % SPLIT,
           "verify --all-semiroots --curve %s" % SPLIT])


def seed_corpus(directory: pathlib.Path) -> None:
    assert main(["seed-corpus", "--directory", str(directory), "--count",
                 "5", "--seed", "0", "--output",
                 str(directory / "manifest.json")]) == 0


def digest(directory: pathlib.Path, run: str) -> str:
    """SHA-256 of main()'s stdout for `run`, its file names in directory."""
    argv = [str(directory / a) if a.endswith(".json") else a
            for a in run.split()]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0, run
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    seed_corpus(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_names_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("run", RUNS)
def test_same_bytes(corpus, golden, run):
    assert digest(corpus, run) == golden[run]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        seed_corpus(directory)
        table = {run: digest(directory, run) for run in RUNS}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    sys.stdout.write("wrote %d digests to %s\n" % (len(table), GOLDEN))
