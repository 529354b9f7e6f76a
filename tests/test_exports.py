"""Every name a kfpq module exports must exist and be used outside the tests."""

import ast
import importlib
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
