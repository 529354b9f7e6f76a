"""Every name a kfpq module exports must exist and be used outside the tests.

The same holds for the public methods of exported classes, and for the
default of every parameter: a parameter that no call in the package or the
benchmark ever sets has one value, and belongs in the code as a constant.
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import kfpq

MODULES = ["kfpq"] + ["kfpq." + m.name
                      for m in pkgutil.iter_modules(kfpq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = (sorted((ROOT / "src" / "kfpq").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")))

# exports that no package or benchmark code reaches, kept because tests use
# them as references
TEST_REFERENCES = {
    "bargmann.reduce": "the eigenvector identification of M, the generator "
                       "the Gram-matrix test exponentiates",
    "positivity.hermitian_difference": "the 4x4 compression oracle that "
                                       "positivity_report is checked against",
}


def _reached_names():
    """Every name read, attribute and import in the package and benchmark.

    A Name counts only where it is loaded, so a module constant is not
    reached by its own assignment: data that only tests read is caught as
    well as functions and classes that only tests call.
    """
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_export_is_reached_outside_the_tests():
    reached = _reached_names()
    unreached = {"%s.%s" % (name.rpartition(".")[2], export)
                 for name in MODULES
                 for export in importlib.import_module(name).__all__
                 if export not in reached}
    assert unreached == set(TEST_REFERENCES)


def test_every_public_method_is_reached_outside_the_tests():
    reached = _reached_names()
    unreached = set()
    for name in MODULES:
        module = importlib.import_module(name)
        for export in module.__all__:
            cls = getattr(module, export)
            if not (inspect.isclass(cls) and cls.__module__ == name):
                continue
            for attr, value in vars(cls).items():
                method = isinstance(value, (property, classmethod,
                                            staticmethod)) \
                    or inspect.isfunction(value)
                if method and not attr.startswith("_") and attr not in reached:
                    unreached.add("%s.%s" % (export, attr))
    assert unreached == set()


# defaulted parameters that no package or benchmark call sets, kept because
# tests set them
TEST_SET_DEFAULTS = {
    "witness_rayleigh_numeric.grid": "tests pass coarse grids to reach "
                                     "GridUnderResolved and to check the "
                                     "streamed grid against a dense one",
}


def _defaulted_parameters(tree):
    """(function, parameter, positional index or None) of each default.

    The index of a method's parameter is counted after self or cls, as a
    call through an instance or the class passes it.  A constructor's
    defaults are listed under its class's name, which its calls use.
    """
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                name = cls if child.name == "__init__" and cls else child.name
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    found.append((name, positional[index].arg,
                                  index - bound))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((name, arg.arg, None))
                visit(child, None)
            else:
                visit(child, child.name if isinstance(child, ast.ClassDef)
                      else None)

    visit(tree, None)
    return found


def _sets(call, parameter, index):
    """Whether a call may set the parameter, by keyword or by position."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_default_is_set_outside_the_tests():
    calls = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                # calls match by name: a call of another function of the
                # same name counts as setting the parameter
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = set()
    for path in sorted((ROOT / "src" / "kfpq").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, parameter, index in _defaulted_parameters(tree):
            if not any(_sets(call, parameter, index)
                       for call in calls.get(function, ())):
                unset.add("%s.%s" % (function, parameter))
    assert unset == set(TEST_SET_DEFAULTS)
