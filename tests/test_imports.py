"""Every module of the package, and every test module, uses every name it
imports, and the package refers to every function and class it defines.
The package imports at module level only, standard-library modules too,
so an import cycle fails at import time rather than hiding in a function
body; the one exception is the CLI's `selftest` command, which loads the
self-test suite only when it runs.

A name counts as used when the module reads it, lists it in its own
`__all__`, or the package's `__init__.py` imports it from that module (a
re-export).  A module-level function or class counts as referred to when a
statement of the package other than its own definition reads it, as a name
or an attribute, imports it or lists it in `__all__`; only the self-test
functions, which `selftest._check(...)` registers, are exempt.  A method
of a package class, dunders apart, counts as used when a module of the
package, the tests or the benchmark (`perfbench/`) reads it as an
attribute.  The CLI prints a report only through its one renderer.  The
self-test imports no internal name, and `search._scan_dim` is the one
caller of the scan kernel.  `search._first_in_strata` is the one caller
of `_debit_first` and `_abelian_hyperplanes`: one function loops over
strata.  `linalg._row_action` is the one contraction of a row with the
structure table: the kernel, `search` and `algebra` call it, and no module
defines `_brackets_with_basis`.  `linalg._pair_bracket` is the one
contraction of a pair of rows: `algebra._scaled_bracket` and the kernel
call it, and no module defines `bracket_zero`.  The scan kernel imports
from the package only `fields` and `linalg`, and `linalg` imports nothing
from the kernel.
Importing the package and its CLI loads neither `dataclasses` nor
`inspect`: its records are named tuples."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "leibniz_algebras"
PERFBENCH = TESTS.parent / "perfbench"
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


def _dunder_all(tree):
    """The strings of the module's `__all__`."""
    return {
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }


def _used(tree):
    """The names the module reads, and the strings of its `__all__`."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _dunder_all(tree)


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


def _refs(node):
    """The names a statement reads, as names or attributes, imports or
    lists in `__all__`."""
    names = _dunder_all(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(a.name for a in sub.names)
    return names


def _registered_check(module, stmt):
    """Whether the statement defines a self-test registered by `@_check(...)`."""
    return module == "selftest.py" and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_check"
        for d in stmt.decorator_list
    )


def test_package_refers_to_every_function_and_class_it_defines():
    # (module, statement) -> the names that top-level statement refers to
    refs = {(module, stmt): _refs(stmt) for module in MODULES for stmt in _tree(module).body}
    unreferenced = [
        "%s:%s" % (module, stmt.name)
        for (module, stmt) in refs
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not _registered_check(module, stmt)
        and not any(stmt.name in names for key, names in refs.items() if key != (module, stmt))
    ]
    assert unreferenced == []


def _attributes_read(root):
    """The attribute names the modules under root read."""
    return {
        node.attr
        for path in root.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_method_is_read_somewhere():
    read = set().union(*map(_attributes_read, (PACKAGE, TESTS, PERFBENCH)))
    unread = [
        "%s:%s.%s" % (module, cls.name, fn.name)
        for module in MODULES
        for cls in _tree(module).body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in read
    ]
    assert unread == []


def _local_imports(tree):
    """(function, module) for each import made inside a function body of
    the module, of a package module or any other."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                found.add((fn.name, node.module))
            elif isinstance(node, ast.Import):
                found.update((fn.name, a.name) for a in node.names)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_package_modules_at_module_level(module):
    allowed = {("_cmd_selftest", "selftest")} if module == "cli.py" else set()
    assert sorted(_local_imports(_tree(module)) - allowed) == []


def _top_level_modules(tree):
    """The top-level names of the modules the module imports; a relative
    import (one of the package) counts as ""."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("" if node.level else node.module.split(".")[0])
    return found


def _package_modules(tree):
    """The modules of the package that the module imports from."""
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}


def test_scan_kernel_imports_fields_and_linalg_only():
    # the kernel takes its table as data and never reaches into
    # `AlgebraTable`: from the package it takes the field and linalg's row
    # step and canonical walk, never `algebra`, `invariants` or `search`,
    # and the dependency runs one way, kernel to `linalg`
    tree = _tree("_scan_py.py")
    assert sorted(_top_level_modules(tree) - sys.stdlib_module_names) == [""]
    assert sorted(_package_modules(tree)) == ["fields", "linalg"]
    assert "_scan_py" not in _package_modules(_tree("linalg.py"))


def test_selftest_imports_public_names_only():
    # the self-test checks answers against their definitions, so it needs
    # nothing internal: no `_`-prefixed name or module, the kernel shim
    # `_kernel` included
    imports = [
        node for node in ast.walk(_tree("selftest.py")) if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert imports
    assert sorted(node.module for node in imports if node.module.startswith("_")) == []
    assert sorted(a.name for node in imports for a in node.names if a.name.startswith("_")) == []


def _callers(name):
    """(module, top-level statement) for each call of `name`, as a name or
    an attribute, in the package."""
    return [
        (module, getattr(top, "name", "<module>"))
        for module in MODULES
        for top in _tree(module).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_only_search_calls_the_scan_kernel():
    # one module knows the kernel's call form, table form and cuts
    assert _callers("scan_subspaces") == [("search.py", "_scan_dim")]


def test_one_driver_decides_and_debits_the_strata():
    # the strata driver is the only function that debits a stratum it does
    # not walk, and the only one that decides alpha's stratum n-1
    for name in ("_debit_first", "_abelian_hyperplanes"):
        assert _callers(name) == [("search.py", "_first_in_strata")]


def test_one_routine_contracts_a_row_with_the_table():
    # the n rows [u, e_j] or [e_j, u] of a row u are read off `_products`
    # in one place; the kernel, the abelian-ideal stratum, the operators and
    # `mult_operator` keep no copy of the loop
    assert sorted(set(_callers("_row_action"))) == [
        ("_scan_py.py", "scan_subspaces"),
        ("algebra.py", "_actions"),
        ("algebra.py", "mult_operator"),
        ("search.py", "_abelian_ideal_hits"),
    ]
    defined = _defined_functions()
    assert "_row_action" in defined and "_brackets_with_basis" not in defined


def test_one_routine_contracts_a_pair_of_rows():
    # [u, v] is read off `_products` in one place: `algebra`'s brackets and
    # the kernel's [u, u] test keep no copy of the loop
    assert sorted(set(_callers("_pair_bracket"))) == [
        ("_scan_py.py", "scan_subspaces"),
        ("algebra.py", "_scaled_bracket"),
    ]
    defined = _defined_functions()
    assert "_pair_bracket" in defined and "bracket_zero" not in defined


def _defined_functions():
    """The names of the functions the package defines, nested ones too."""
    return {
        node.name for module in MODULES for node in ast.walk(_tree(module)) if isinstance(node, ast.FunctionDef)
    }


def _prints(tree):
    """(top-level function or "<module>", whether it passes file=sys.stderr)
    for each call of `print` in the module."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                to_stderr = any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords)
                found.append((owner, to_stderr))
    return found


def test_cli_prints_reports_in_one_renderer():
    # a report is a payload that `_emit` renders; `run` prints errors to
    # stderr, and `selftest` prints its own lines
    prints = _prints(_tree("cli.py"))
    assert {owner for owner, _ in prints} <= {"_emit", "run", "_cmd_selftest"}
    assert all(to_stderr for owner, to_stderr in prints if owner == "run")


def test_package_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter without `site`, so only the package's own imports
    # count; `dataclasses` would pull in inspect, ast, dis and tokenize
    code = (
        "import sys; sys.path.insert(0, %r); "
        "import leibniz_algebras, leibniz_algebras.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))" % str(PACKAGE.parent)
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
