"""Outside-in tracing of the cuspidal layers.

``Tracer.install()`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that record one span per call; nothing in the
library changes.  A module that did ``from .series import pullback_form``
holds its own reference, so each wrapper is installed under every
``cuspidal.*`` module attribute (and class attribute) bound to the
original object.  Submodules are reached through ``sys.modules``:
``cuspidal.semiroot`` as an attribute is the function, not the module.

A span is ``(name, start, end, parent, item)``; ``parent`` indexes the
enclosing span (-1 at top level).  Spans stay in memory until the run
ends.  Self time is a span's duration minus the durations of its direct
children, which nest inside it because the benchmark is single-threaded.

``GcdCounter`` counts the ``math.gcd`` calls of ``fractions.Fraction``
normalisation.  It is a separate pass because it adds a Python call to
every rational operation and would swamp the self times.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import math
import sys
import time
import types

# (module, attribute path, span name); an attribute path with a dot is a
# method on a class of that module.
TARGETS = (
    ("series", "TruncatedSeries.__mul__", "series.mul"),
    ("series", "pullback_function", "series.pullback_function"),
    ("series", "pullback_form", "series.pullback_form"),
    ("series", "integrate_against_conductor",
     "series.integrate_against_conductor"),
    ("series", "PuiseuxCurve.y_power", "series.y_power"),
    ("series", "PuiseuxCurve.theta_y_times_power", "series.y_power"),
    ("series", "nu_C_form", "series.nu_C_form"),
    ("forms", "BivariatePolynomial.__mul__", "forms.poly_mul"),
    ("forms", "OneForm.__add__", "forms.oneform"),
    ("forms", "OneForm.__sub__", "forms.oneform"),
    ("forms", "OneForm.times_monomial", "forms.oneform"),
    ("forms", "OneForm.times_polynomial", "forms.oneform"),
    ("semimodule", "minimal_basis", "semimodule.minimal_basis"),
    ("semimodule", "GammaSemimodule.__init__", "semimodule.build"),
    ("blowup", "is_totally_dicritical", "blowup.is_totally_dicritical"),
    ("stdbasis", "compute_standard_basis", "stdbasis.compute_standard_basis"),
    ("stdbasis", "dicritically_adjust", "stdbasis.dicritically_adjust"),
    ("stdbasis", "delorme_decompose", "stdbasis.delorme_decompose"),
    ("stdbasis", "semimodule_oracle", "stdbasis.semimodule_oracle"),
    ("semiroot", "solve_invariant_branch", "semiroot.solve_invariant_branch"),
    ("semiroot", "verify_main_theorem", "semiroot.verify_main_theorem"),
    ("jsonio", "dumps", "jsonio.dumps"),
    ("jsonio", "parse_curve", "jsonio.parse_curve"),
    ("cli", "main", "cli.main"),
)

# Span names reported with their self time; cli.main and nu_C_form are
# reported inclusive instead.
SELF_TIMED = tuple(dict.fromkeys(
    span for _, _, span in TARGETS
    if span not in ("cli.main", "series.nu_C_form")))
# Names whose calls are counted; the rest of the table reports time only.
COUNTED = ("series.mul", "series.pullback_function", "forms.poly_mul",
           "semimodule.minimal_basis", "blowup.is_totally_dicritical",
           "stdbasis.compute_standard_basis",
           "semiroot.solve_invariant_branch")


def _module(name: str):
    return sys.modules.get("cuspidal." + name) or \
        importlib.import_module("cuspidal." + name)


def self_times(spans) -> list:
    """Self time of every span: its duration minus its direct children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Tracer:
    """Records spans and exact counters while installed."""

    def __init__(self):
        self.spans = []
        self.item = None
        self.counts = {"series.mul.pairs": 0, "stdbasis.cancel_steps": 0,
                       "semiroot.orders_solved": 0}
        self.solve_keys = set()
        self._adjust_fresh = False
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------

    def install(self):
        # Import every target module first: one imported while wrappers are
        # in place would bind a wrapper that uninstall() does not restore.
        for mod_name, _, _ in TARGETS:
            _module(mod_name)
        for mod_name, path, span in TARGETS:
            mod = _module(mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(span, original)
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        self._set(owner, key, wrapper)
            else:
                original = getattr(mod, path)
                wrapper = self._wrap(span, original)
                for name, other in list(sys.modules.items()):
                    if other is None or not (name == "cuspidal" or
                                             name.startswith("cuspidal.")):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _set(self, owner, key, wrapper):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = before(args, kwargs) if before else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.item)
            if after:
                after(args, result)
            return result
        return wrapper

    # -- counters taken at the layer boundary, outside the span ---------

    def _before_series_mul(self, args, kwargs):
        self.counts["series.mul.pairs"] += \
            len(args[0].coeffs) * len(args[1].coeffs)
        return "series.mul"

    def _before_series_nu_C_form(self, args, kwargs):
        prec = args[2] if len(args) > 2 else kwargs.get("prec")
        if prec == args[0].trunc:
            return "series.nu_C_form.invariance"
        return "series.nu_C_form.window"

    def _before_stdbasis_dicritically_adjust(self, args, kwargs):
        self._adjust_fresh = args[0].adjusted is None
        return "stdbasis.dicritically_adjust"

    def _after_stdbasis_dicritically_adjust(self, args, result):
        if self._adjust_fresh:
            basis = args[0]
            self.counts["stdbasis.cancel_steps"] += \
                len(basis.traces[basis.s_index + 1].steps)

    def _after_stdbasis_compute_standard_basis(self, args, basis):
        self.counts["stdbasis.cancel_steps"] += \
            sum(len(tr.steps) for tr in basis.traces.values())

    def _after_semiroot_solve_invariant_branch(self, args, branch):
        omega, a = args[0], args[1]
        q = _module("forms").nu_E_form(omega)
        self.counts["semiroot.orders_solved"] += max(0, branch.trunc - q - 1)
        self.solve_keys.add((self.item, str(a), branch.trunc,
                             tuple(sorted(omega.A.items())),
                             tuple(sorted(omega.B.items()))))

    # -- aggregation ------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer totals over every span recorded so far."""
        own = self_times(self.spans)
        calls, self_s, total_s = {}, {}, {}
        children = {}
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own[k]
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            if parent >= 0:
                children.setdefault(parent, []).append(k)
        power_calls = calls.get("series.y_power", 0)
        misses = sum(1 for k, span in enumerate(self.spans)
                     if span[0] == "series.y_power"
                     and self._has_mul_below(k, children))
        solves = calls.get("semiroot.solve_invariant_branch", 0)
        out = {}
        for name in COUNTED:
            out[name + ".calls"] = calls.get(name, 0)
        out.update(self.counts)
        out.update({
            "series.y_power.calls": power_calls,
            "series.y_power.misses": misses,
            "series.y_power.hit_ratio":
                1 - misses / power_calls if power_calls else 0.0,
            "semiroot.solves_per_item":
                solves / len(self.solve_keys) if self.solve_keys else 0.0,
            "cli.main.s": total_s.get("cli.main", 0.0),
        })
        for name in SELF_TIMED:
            out[name + ".self_s"] = self_s.get(name, 0.0)
        for kind in ("invariance", "window"):
            out["series.nu_C_form.%s_s" % kind] = \
                total_s.get("series.nu_C_form." + kind, 0.0)
        return out

    def _has_mul_below(self, k, children) -> bool:
        todo = list(children.get(k, ()))
        while todo:
            j = todo.pop()
            if self.spans[j][0] == "series.mul":
                return True
            todo.extend(children.get(j, ()))
        return False


class GcdCounter:
    """Counts math.gcd calls made by fractions.Fraction while installed."""

    def __init__(self):
        self.calls = 0
        self._saved = None

    def install(self):
        real_gcd = math.gcd

        def gcd(*args):
            self.calls += 1
            return real_gcd(*args)
        shim = types.ModuleType("math")
        shim.__dict__.update(math.__dict__)
        shim.gcd = gcd
        self._saved = fractions.math
        fractions.math = shim

    def uninstall(self):
        if self._saved is not None:
            fractions.math = self._saved
            self._saved = None
