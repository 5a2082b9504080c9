"""The public surface resolves: every exported name and every name the
benchmark tracer wraps."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import cuspidal

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
