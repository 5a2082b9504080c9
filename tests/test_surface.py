"""The public surface resolves: every exported name and every name the
benchmark tracer wraps.  Every function, class, method and property in
src/ is named from src/, bound by the tracer or part of the paper API.
TruncatedSeries carries no rational arithmetic, only forms clears
denominators, in forms._cleared, and no module reads a theta row.  The
seed and the cancellation engine, stdbasis._seed and _cancel, build no
form and no polynomial: they subtract nothing and call nothing that
builds, combines or scales one.  Only stdbasis._certify checks a basis
form's value, order and shape, and the construction and the adjustment
both call it and _seed.  The construction and Delorme's certificate
share one integer level sum, forms._combined, and stdbasis multiplies no
form by a polynomial or a monomial.  The branch solver takes no product
of two full-height denominators d[i] d[j].  No function or method only
returns an attribute of its parameter, a form's integer cloud is
computed once, no module asserts, and the semimodule module runs no
while loop.  Bad input has one type, errors.InputError: a
parametrization that is not a cusp, an index out of range and a zero
branch parameter are refused as InputErrors, no module raises a bare
ValueError, and cli.main exits 1 on CuspidalError alone.  Each rule and
each record has one owner: only series (PuiseuxCurve) raises NotACusp,
only semimodule._scan refuses an empty generator system or a negative
generator, and semiroot encodes no parametrization itself but goes
through jsonio.semiroot_to_json, as the standard basis and the
semimodule command go through jsonio.semimodule_to_json.  An integer has
one test, rationals.is_int, the only place that asks for a bool, and an
integer argument one rule, rationals.integer, the only source of "must
be an integer"; nothing is coerced: int() takes only a rational's numerator or
denominator or a digit group of the integer grammar, and series builds
every TruncatedSeries through its one constructor, with no _reduced.
The pair is the semigroup: PuiseuxPair carries Gamma's Apery table,
nothing defines or exports a CuspSemigroup or an _as_semigroup fork, no
module sets a gamma attribute, and a GammaSemimodule keeps its pair."""

import ast
import collections
import fractions
import importlib
import importlib.util
import pathlib
import pkgutil
import types

import pytest

import cuspidal
from cuspidal.errors import IndexOutOfRange, InputError, NotACusp, ZeroPivot
from cuspidal.forms import OneForm, _integer_cloud
from cuspidal.rationals import Q, rat
from cuspidal.semigroup import PuiseuxPair
from cuspidal.semiroot import semiroot
from cuspidal.series import PuiseuxCurve, TruncatedSeries
from cuspidal.stdbasis import compute_standard_basis

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


def _tracer_targets() -> tuple:
    """bench/tracer.py's TARGETS: (module, attribute path, span name)."""
    path = ROOT / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for module_name, attr_path, _ in targets:
        owner = importlib.import_module("cuspidal." + module_name)
        if "." in attr_path:
            # the tracer swaps methods in the class's own __dict__
            class_name, attr = attr_path.split(".")
            owner = getattr(owner, class_name)
            assert attr in vars(owner), (module_name, attr_path)
        else:
            assert callable(getattr(owner, attr_path)), \
                (module_name, attr_path)


def _definitions(node, prefix=""):
    """(qualified name, node) of every function and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield prefix + child.name, child
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def _references(node):
    """Every name node mentions: Name ids, Attribute attrs, import aliases."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


# the paper's API, which the acceptance criteria exercise, and the
# argparse hook that argparse itself calls
PAPER_API = {("semimodule", "level_set"), ("semimodule", "ray_level_set"),
             ("semimodule", "tops"), ("semimodule", "is_circular_interval"),
             ("forms", "initial_part"), ("semiroot", "zariski_invariant"),
             ("blowup", "transform_form"), ("semigroup", "represent")}
CALLED_BY_ARGPARSE = {("cli", "_Parser.error")}


def test_every_name_in_src_is_reached_from_src():
    # nothing in src/ that only tests reach: each function, class, method
    # and property is named somewhere in src/ outside its own body, or the
    # benchmark tracer binds it, or it is the paper API.  Re-exports in
    # __init__ and strings in __all__ do not count as a use
    trees = {name: ast.parse(pathlib.Path(importlib.import_module(
        "cuspidal." + name).__file__).read_text()) for name in MODULES}
    used = collections.Counter()
    for tree in trees.values():
        used.update(_references(tree))
    exempt = {(module, path) for module, path, _ in _tracer_targets()}
    exempt |= PAPER_API | CALLED_BY_ARGPARSE
    unreached = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")
                    or (module, qualname) in exempt):
                continue
            own = collections.Counter(_references(node))
            if used[name] - own[name] <= 0:
                unreached.append("%s.%s" % (module, qualname))
    assert unreached == []


def test_truncated_series_defines_no_rational_arithmetic():
    # Sums, scalings, shifts and integrals of rational series live in the
    # tests' oracles; the library eliminates on integer numerators.
    # __mul__ is the one series product: the power table grows its rows
    # through it, a square or Y times the row below, on integers.
    methods = {name for name, value in vars(TruncatedSeries).items()
               if isinstance(value, (types.FunctionType, classmethod,
                                     staticmethod, property))}
    assert methods == {"__init__", "is_zero", "order_lb", "truncate",
                       "__eq__", "__repr__", "__mul__"}


@pytest.mark.parametrize("name", [name for name in MODULES
                                  if name != "forms"])
def test_no_module_clears_a_form_on_its_own(name):
    # forms._cleared is the one routine that turns rationals into
    # integers, and forms._integer_cloud owns a form's integers; no other
    # module takes an lcm over coefficient denominators itself
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
    # _seed names the seed monomial and _cancel returns its steps, pulling
    # every x^c y^d omega_j back off omega_j's cloud; stdbasis._built
    # assembles the form from them once, so neither builds, combines,
    # subtracts nor scales a form or a polynomial
    from cuspidal import stdbasis
    tree = ast.parse(pathlib.Path(stdbasis.__file__).read_text())
    engine = [node for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and node.name in ("_seed", "_cancel")]
    assert len(engine) == 2
    banned = ("scaled", "times_polynomial", "times_monomial", "monomial",
              "OneForm", "BivariatePolynomial", "_combination")
    found = [node.lineno for function in engine for node in ast.walk(function)
             if isinstance(getattr(node, "op", None), ast.Sub)
             or (isinstance(node, ast.Call)
                 and getattr(node.func, "attr", getattr(node.func, "id", None))
                 in banned)]
    assert found == []


def test_every_basis_form_passes_one_certificate():
    # the value, order and shape of a basis form are checked in _certify
    # alone, and the construction and the adjustment both open with the
    # seed's axis check and close with that certificate
    from cuspidal import stdbasis
    tree = ast.parse(pathlib.Path(stdbasis.__file__).read_text())
    calls = {node.name: {getattr(call.func, "attr",
                                 getattr(call.func, "id", None))
                         for call in ast.walk(node)
                         if isinstance(call, ast.Call)}
             for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    checks = {"nu_C_form", "nu_E_form", "is_basic", "is_resonant"}
    assert {name for name, called in calls.items()
            if called & checks} == {"_certify"}
    for name in ("compute_standard_basis", "dicritically_adjust"):
        assert {"_seed", "_certify"} <= calls[name]


def test_delorme_certifies_its_recomposition_on_integers():
    # the construction (_built) and Delorme's certificate (_recomposes)
    # run one level sum, forms._combined, on integer clouds, and nothing
    # in stdbasis builds a rational sum or a monomial multiple of a form
    from cuspidal import forms, stdbasis
    trees = {module: ast.parse(pathlib.Path(module.__file__).read_text())
             for module in (forms, stdbasis)}
    calls = {node.name: {getattr(call.func, "attr",
                                 getattr(call.func, "id", None))
                         for call in ast.walk(node)
                         if isinstance(call, ast.Call)}
             for tree in trees.values() for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    assert "_recomposes" in calls["delorme_decompose"]
    assert "_combined" in calls["_built"]
    assert "_combined" in calls["_recomposes"]
    banned = {"_combination", "scaled", "times_polynomial", "times_monomial"}
    assert [node.lineno for node in ast.walk(trees[stdbasis])
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in banned] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_module_asserts(name):
    # python -O strips assert statements; a broken invariant raises
    # InternalDisagreement instead, which no flag turns off
    module = importlib.import_module("cuspidal." + name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)] == []


def _raised_name(node) -> str:
    """The class name a raise statement names, called or bare."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", getattr(exc, "attr", None))


def test_bad_input_has_one_type():
    # the owner of each input rule raises errors.InputError, a
    # CuspidalError, so the command line translates nothing and exits 1
    # on that one root; a bare ValueError would pass for bad input
    # nowhere and a second refusal type everywhere
    trees = {name: ast.parse(pathlib.Path(importlib.import_module(
        "cuspidal." + name).__file__).read_text()) for name in MODULES}
    assert [(name, node.lineno) for name, tree in trees.items()
            for node in ast.walk(tree) if isinstance(node, ast.Raise)
            and node.exc is not None
            and _raised_name(node) == "ValueError"] == []
    assert [name for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and node.name == "InputError"] == ["errors"]
    main = next(node for node in ast.walk(trees["cli"])
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    exits_one = [ast.unparse(handler.type) for handler in ast.walk(main)
                 if isinstance(handler, ast.ExceptHandler)
                 and any(isinstance(sub, ast.Return)
                         and getattr(sub.value, "value", None) == 1
                         for sub in ast.walk(handler))]
    assert exits_one == ["CuspidalError"]


def _calls(tree) -> dict:
    """The names each function or method of tree calls, by qualified name."""
    return {qualname: {getattr(call.func, "attr",
                               getattr(call.func, "id", None))
                       for call in ast.walk(node)
                       if isinstance(call, ast.Call)}
            for qualname, node in _definitions(tree)
            if isinstance(node, ast.FunctionDef)}


def test_each_rule_and_record_has_one_owner():
    # PuiseuxCurve owns every cusp rule, n >= 2 among them; the semimodule
    # scan owns the rules of a generator system; jsonio encodes a semiroot
    # and a semimodule once for every report that carries one, and
    # semiroot builds its one report in _report
    trees = {name: ast.parse(pathlib.Path(importlib.import_module(
        "cuspidal." + name).__file__).read_text()) for name in MODULES}
    assert {name for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and _raised_name(node) == "NotACusp"} == {"series"}
    rules = ("empty generator system", "non-negative")
    owners = {(name, qualname) for name, tree in trees.items()
              for qualname, node in _definitions(tree)
              if isinstance(node, ast.FunctionDef)
              for sub in ast.walk(node) if isinstance(sub, ast.Raise)
              for text in ast.walk(sub) if isinstance(text, ast.Constant)
              and isinstance(text.value, str)
              and any(rule in text.value for rule in rules)}
    assert owners == {("semimodule", "_scan")}
    assert "y_to_json" not in set(_references(trees["semiroot"]))
    calls = _calls(trees["semiroot"])
    assert "semiroot_to_json" in calls["_report"]
    assert "_report" in calls["semiroot"] & calls["verify_main_theorem"]
    # one exit-2 report shape: cli.main tests no report for a key
    assert [node.lineno for node in ast.walk(trees["cli"])
            if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Constant)
            and any(isinstance(op, ast.In) for op in node.ops)] == []
    assert "semimodule_to_json" in _calls(trees["jsonio"])["basis_to_json"]
    assert "semimodule_to_json" in _calls(trees["cli"])["cmd_semimodule"]


def test_refusals_of_caller_input_are_input_errors():
    # a parametrization that is not a cusp, a basis index out of range
    # and a zero branch parameter each break a rule of the caller's input
    with pytest.raises(NotACusp, match="zero leading coefficient") as exc:
        PuiseuxCurve(PuiseuxPair(5, 11), {12: 1})
    refusals = [exc.value]
    with pytest.raises(NotACusp, match="smooth branch") as exc:
        compute_standard_basis(PuiseuxCurve(PuiseuxPair(1, 2), {2: 1}))
    refusals.append(exc.value)
    basis = compute_standard_basis(PuiseuxCurve(PuiseuxPair(5, 11),
                                                {11: 1, 12: 1, 13: 1}))
    with pytest.raises(IndexOutOfRange, match="no form at index 9") as exc:
        basis.form(9)
    refusals.append(exc.value)
    with pytest.raises(ZeroPivot, match="must be nonzero") as exc:
        semiroot(basis, 1, 0)
    refusals.append(exc.value)
    assert all(isinstance(refusal, InputError) for refusal in refusals)


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


# bench/tracer.py reads basis.s_index, so this rename stays until a
# benchmark change retargets the tracer
ATTRIBUTE_RENAMES_KEPT = {("stdbasis", "ExtendedStandardBasis.s_index")}


@pytest.mark.parametrize("name", MODULES)
def test_no_function_only_returns_an_attribute_of_a_parameter(name):
    # readers take sm.axes, pair.conductor or basis.semimodule.basis
    # themselves; a function or method whose whole body is `return
    # param.attr` or `return self.a.b` only renames an attribute
    module = importlib.import_module("cuspidal." + name)
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    functions = [("", node) for node in tree.body]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            functions += [(cls.name + ".", node) for node in cls.body]
    found = []
    for owner, node in functions:
        if (not isinstance(node, ast.FunctionDef)
                or node.name.startswith("__")
                or (name, owner + node.name) in ATTRIBUTE_RENAMES_KEPT):
            continue
        body = node.body
        if ast.get_docstring(node) is not None:
            body = body[1:]
        params = {a.arg for a in node.args.posonlyargs + node.args.args
                  + node.args.kwonlyargs}
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        value = body[0].value
        if not isinstance(value, ast.Attribute):
            continue
        while isinstance(value, ast.Attribute):
            value = value.value
        if isinstance(value, ast.Name) and value.id in params:
            found.append(owner + node.name)
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


def _module_trees() -> dict:
    return {name: ast.parse(pathlib.Path(importlib.import_module(
        "cuspidal." + name).__file__).read_text()) for name in MODULES}


def test_int_coerces_nothing():
    # int() of a float truncates it and int() of a bool reads it as 0 or
    # 1; the library calls it only on a rational's numerator or
    # denominator, or on a group of a regex match, which holds digits
    found = []
    for name, tree in _module_trees().items():
        groups = {node.target.id for node in ast.walk(tree)
                  if isinstance(node, ast.comprehension)
                  and isinstance(node.target, ast.Name)
                  and isinstance(node.iter, ast.Call)
                  and getattr(node.iter.func, "attr", None) == "groups"}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "int"):
                continue
            arg = node.args[0] if len(node.args) == 1 else None
            if not (isinstance(arg, ast.Attribute)
                    and arg.attr in ("numerator", "denominator")
                    or isinstance(arg, ast.Name) and arg.id in groups):
                found.append((name, node.lineno))
    assert found == []


def test_one_integer_test_and_one_series_constructor():
    # rationals.is_int is the one place that tells a bool from an int,
    # and series has no second constructor that skips the first's rules
    trees = _module_trees()

    def asks_for_bool(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2
                and any(getattr(sub, "id", None) == "bool"
                        for sub in ast.walk(node.args[1])))
    found = [(name, node.lineno) for name, tree in trees.items()
             for node in ast.walk(tree) if asks_for_bool(node)]
    owners = {(name, qualname) for name, tree in trees.items()
              for qualname, node in _definitions(tree)
              if isinstance(node, ast.FunctionDef)
              for sub in ast.walk(node) if asks_for_bool(sub)}
    assert len(found) == 1 and owners == {("rationals", "is_int")}
    assert "_reduced" not in {qualname for qualname, _
                              in _definitions(trees["series"])}


def test_one_integer_argument_rule():
    # rationals.integer words every "<what> must be an integer" refusal,
    # so no string constant outside rationals spells the rule again
    found = [(name, node.lineno) for name, tree in _module_trees().items()
             if name != "rationals" for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.endswith("must be an integer")]
    assert found == []


def test_the_pair_is_the_semigroup():
    # PuiseuxPair carries Gamma's Apery table, so every semigroup query,
    # GammaSemimodule and minimal_basis take the pair: no second object
    # for <n, m>, no fork that accepts either, and no curve slot for it
    from cuspidal.semimodule import GammaSemimodule
    assert not hasattr(cuspidal, "CuspSemigroup")
    found = [(name, node.lineno) for name, tree in _module_trees().items()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name in ("CuspSemigroup", "_as_semigroup")
             or isinstance(node, ast.Attribute) and node.attr == "gamma"
             and isinstance(node.ctx, ast.Store)
             or isinstance(node, ast.Constant) and node.value == "gamma"]
    assert found == []
    assert "pair" in GammaSemimodule.__slots__
