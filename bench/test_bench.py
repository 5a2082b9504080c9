"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import random
import sys

import pytest

import tracer
import workloads
import worker
from cuspidal.corpus import random_cusp_curve
from cuspidal.jsonio import curve_to_json, parse_curve


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, "x"),
        ("a", 1.0, 4.0, 0, "x"),
        ("a.child", 2.0, 3.5, 1, "x"),
        ("b", 5.0, 9.0, 0, "x"),
        ("other", 20.0, 21.0, -1, "y"),
    ]
    assert tracer.self_times(spans) == [3.0, 1.5, 1.5, 4.0, 1.0]


def test_wrapper_reaches_aliased_imports():
    stdbasis = sys.modules["cuspidal.stdbasis"]
    series = sys.modules["cuspidal.series"]
    original = series.pullback_form
    assert stdbasis.pullback_form is original
    t = tracer.Tracer()
    t.install()
    try:
        assert stdbasis.pullback_form is series.pullback_form
        assert stdbasis.pullback_form is not original
        stdbasis.compute_standard_basis(
            parse_curve({"n": 3, "m": 7, "y": [[7, "1"], [8, "1"]]}))
    finally:
        t.uninstall()
    assert stdbasis.pullback_form is original
    names = {span[0] for span in t.spans}
    assert {"stdbasis.compute_standard_basis", "series.pullback_form",
            "series.mul", "semimodule.build"} <= names
    assert t.metrics()["stdbasis.compute_standard_basis.calls"] == 1


def test_corpus_generator_is_criterion_06_recipe():
    ours = random.Random(workloads.CORPUS_SEED)
    theirs = random.Random(workloads.CORPUS_SEED)
    for _ in range(60):
        expected = curve_to_json(random_cusp_curve(theirs, max_n=9,
                                                   max_extra=4,
                                                   max_weight=110))
        del expected["truncation"]
        assert workloads.corpus_curve(ours) == expected
    # the pool's corpus curves are members of that sequence
    assert max(workloads.CORPUS_INDICES) < 60


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pool_item_has_a_golden_digest(workload):
    golden = workloads.load_golden()[workload]
    assert set(golden) == set(workloads.pool(workload))
    assert all(len(entry["sha256"]) == 64 for entry in golden.values())
    seen = set()
    for seed in range(20):
        items = workloads.select(workload, seed)
        assert items == workloads.select(workload, seed)
        seen.update(item_id for item_id, _ in items)
    assert len(seen) > len(items)


def test_sign_images_carry_integer_tails():
    curve = {"n": 3, "m": 7, "y": [[7, "1"], [8, "-2"], [9, "1"]]}
    assert workloads.sign_image(curve, -1, -1)["y"] == \
        [[7, "1"], [8, "2"], [9, "1"]]
    assert workloads.sign_image(curve, 1, 1) == curve


EXACT = ("series.mul.calls", "series.mul.pairs",
         "series.pullback_function.calls", "series.y_power.calls",
         "series.y_power.misses", "forms.poly_mul.calls",
         "semimodule.minimal_basis.calls",
         "blowup.is_totally_dicritical.calls",
         "stdbasis.compute_standard_basis.calls", "stdbasis.cancel_steps",
         "semiroot.solve_invariant_branch.calls", "semiroot.orders_solved",
         "semiroot.solves_per_item", "jsonio.output_bytes",
         "rationals.max_bits", "rationals.gcd_calls")


def test_traced_runs_repeat_counts_and_golden_digests():
    golden = workloads.load_golden()
    cli = worker.import_program()
    runs = []
    for workload, item_id in (("basis_ladder", "ladder_5_11_+1+1"),
                              ("semiroot_family", "semiroot_i2_a1/2"),
                              ("verify_corpus", "corpus_007_+1+1")):
        items = [(item_id, workloads.pool(workload)[item_id])]
        checker = worker.Checker(workload, golden)
        first = worker.trace(cli, items, checker)
        second = worker.trace(cli, items, checker)
        for tally, layers, spans in (first, second):
            assert (tally.attempted, tally.failed) == (3, 0), tally.problems
            assert spans
        for name in EXACT:
            assert first[1][name] == second[1][name], name
        runs.append(first[1])
    ladder, family, corpus = runs
    assert ladder["series.mul.calls"] > 0 and ladder["rationals.gcd_calls"] > 0
    assert ladder["semiroot.solve_invariant_branch.calls"] == 0
    assert family["semiroot.solves_per_item"] == 1.0
    assert corpus["semiroot.verify_main_theorem.self_s"] > 0
