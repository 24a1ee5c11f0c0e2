"""Every module of the package, and every test module, uses every name it
imports.

A name counts as used when the module reads it, lists it in its own
`__all__`, or the package's `__init__.py` imports it from that module (a
re-export)."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "leibniz_algebras"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


def _tree(name, root=PACKAGE):
    return ast.parse((root / name).read_text(), filename=name)


def _imported(tree):
    """The names the module's import statements bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used(tree):
    """The names the module reads, and the strings of its `__all__`."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(elt.value for elt in node.value.elts)
    return names


def _reexports():
    """(module file, name) for each name `__init__.py` imports from a
    module of the package."""
    return {
        ("%s.py" % node.module, a.asname or a.name)
        for node in ast.walk(_tree("__init__.py"))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
    }


def test_every_module_is_checked():
    assert {"__init__.py", "invariants.py", "selftest.py", "search.py"} <= set(MODULES)
    assert {"conftest.py", "test_classify.py", "test_imports.py"} <= set(TEST_MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    # `__init__.py` uses every name it re-exports; a module, every name
    # `__init__.py` re-exports from it
    tree = _tree(module)
    exported = {name for m, name in _reexports() if module in (m, "__init__.py")}
    assert sorted(_imported(tree) - _used(tree) - exported) == []


@pytest.mark.parametrize("module", TEST_MODULES)
def test_test_module_uses_every_name_it_imports(module):
    tree = _tree(module, TESTS)
    assert sorted(_imported(tree) - _used(tree)) == []
