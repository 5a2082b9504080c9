"""The public surface resolves: every exported name and every name the
benchmark tracer wraps.  TruncatedSeries carries no rational arithmetic,
only forms clears a form's denominators, no module reads a theta row,
the cancellation engine stdbasis._cancel holds no rational form: no
subtraction and no call to scaled or times_polynomial, and the branch
solver takes no product of two full-height denominators d[i] d[j].  No
module-level function only returns an attribute of its parameter, a
form's integer cloud is computed once, no module asserts, and the
semimodule module runs no while loop."""

import ast
import fractions
import importlib
import importlib.util
import pathlib
import pkgutil
import types

import pytest

import cuspidal
from cuspidal.forms import OneForm, _integer_cloud
from cuspidal.rationals import Q, rat
from cuspidal.semigroup import PuiseuxPair
from cuspidal.series import TruncatedSeries

from oracles import FractionGcdCounter

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(cuspidal.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module("cuspidal." + name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(cuspidal.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module("cuspidal." + node.module)
        for alias in node.names:
            assert getattr(cuspidal, alias.name) is \
                getattr(source, alias.name)


def test_tracer_targets_resolve():
    path = ROOT / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, attr_path, _ in tracer.TARGETS:
        owner = importlib.import_module("cuspidal." + module_name)
        if "." in attr_path:
            # the tracer swaps methods in the class's own __dict__
            class_name, attr = attr_path.split(".")
            owner = getattr(owner, class_name)
            assert attr in vars(owner), (module_name, attr_path)
        else:
            assert callable(getattr(owner, attr_path)), \
                (module_name, attr_path)


def test_truncated_series_defines_no_rational_arithmetic():
    # Sums, scalings, shifts and integrals of rational series live in the
    # tests' oracles; the library eliminates on integer numerators.
    # __mul__ stays only because the benchmark tracer's series.mul target
    # needs it, until a benchmark change retargets the tracer.
    methods = {name for name, value in vars(TruncatedSeries).items()
               if isinstance(value, (types.FunctionType, classmethod,
                                     staticmethod, property))}
    assert methods == {"__init__", "is_zero", "order_lb", "coefficient",
                       "truncate", "__eq__", "__repr__", "__mul__"}


@pytest.mark.parametrize("name", ["stdbasis", "semiroot", "blowup"])
def test_no_module_clears_a_form_on_its_own(name):
    # forms._integer_cloud owns a form's integers; these modules read it
    # instead of taking an lcm over coefficient denominators themselves
    module = importlib.import_module("cuspidal." + name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    clearing = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                == "lcm"
                and any(isinstance(sub, ast.Attribute)
                        and sub.attr == "denominator"
                        for arg in node.args for sub in ast.walk(arg))]
    assert clearing == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_reads_a_theta_row(name):
    # a pullback reads theta(y^beta) off the row of y^beta.  Like
    # TruncatedSeries.__mul__, PuiseuxCurve.theta_y_times_power stays only
    # for the benchmark tracer's binding and the power-table tests, until
    # a benchmark change retargets the tracer
    module = importlib.import_module("cuspidal." + name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "theta_y_times_power"]
    assert calls == []


def test_cancellation_engine_holds_no_rational_form():
    # _cancel returns its steps; stdbasis._built assembles the form from
    # them once, so the engine neither subtracts nor scales a form
    from cuspidal import stdbasis
    tree = ast.parse(pathlib.Path(stdbasis.__file__).read_text())
    engine, = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_cancel"]
    found = [node.lineno for node in ast.walk(engine)
             if isinstance(getattr(node, "op", None), ast.Sub)
             or (isinstance(node, ast.Call)
                 and getattr(node.func, "attr", getattr(node.func, "id", None))
                 in ("scaled", "times_polynomial"))]
    assert found == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_asserts(name):
    # python -O strips assert statements; a broken invariant raises
    # InternalDisagreement instead, which no flag turns off
    module = importlib.import_module("cuspidal." + name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)] == []


def test_semimodule_runs_no_unbounded_search():
    # axes, limits and conductors are read off the per-class tables, so
    # the module has no while loop
    module = importlib.import_module("cuspidal.semimodule")
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.While)] == []


def test_branch_solver_multiplies_no_two_denominators():
    # every ratio of d in solve_invariant_branch comes from the small steps
    # e[k] = d[k] / d[k - 1], never from a product d[i] * d[j] of two
    # ~1,500-bit denominators
    module = importlib.import_module("cuspidal.semiroot")
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    solver, = [node for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "solve_invariant_branch"]

    def is_d(node):
        return (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name) and node.value.id == "d")
    found = [node.lineno for node in ast.walk(solver)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
             and is_d(node.left) and is_d(node.right)]
    assert found == []


@pytest.mark.parametrize("name", MODULES)
def test_no_function_only_returns_an_attribute_of_a_parameter(name):
    # readers take sm.axes or pair.conductor themselves; a function whose
    # whole body is `return param.attr` only renames an attribute
    module = importlib.import_module("cuspidal." + name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    found = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        body = node.body
        if ast.get_docstring(node) is not None:
            body = body[1:]
        params = {a.arg for a in node.args.posonlyargs + node.args.args
                  + node.args.kwonlyargs}
        if (len(body) == 1 and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Attribute)
                and isinstance(body[0].value.value, ast.Name)
                and body[0].value.value.id in params):
            found.append(node.name)
    assert found == []


@pytest.mark.skipif(Q is not fractions.Fraction,
                    reason="counts the normalisations of fractions.Fraction")
def test_integer_cloud_is_computed_once(monkeypatch):
    w = OneForm(PuiseuxPair(5, 11),
                A={(0, 1): rat(-11, 6), (2, 3): rat(5, 4)},
                B={(1, 0): rat(5, 6), (2, 2): rat(-7, 9)})
    first = _integer_cloud(w)
    counter = FractionGcdCounter(monkeypatch)
    assert _integer_cloud(w) is first
    assert counter.calls == 0
    # the rational view is the kept integers over L, which is A and B
    # shifted into the logarithmic cloud
    cloud, L = first
    assert w.cloud == {p: (rat(mu, L), rat(zeta, L))
                       for p, (mu, zeta) in cloud.items()}
    assert all(w.cloud[(a + 1, b)][0] == c for (a, b), c in w.A.items())
    assert all(w.cloud[(a, b + 1)][1] == c for (a, b), c in w.B.items())
    assert L == 36
