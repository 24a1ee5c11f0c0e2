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
attribute.  The CLI prints a report only through its one renderer.
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


def test_scan_kernel_imports_the_standard_library_only():
    # the kernel takes its table as data and never reaches into
    # `AlgebraTable`; `linalg` imports the kernel, so an import of `linalg`
    # or `algebra` there would also be a cycle
    modules = _top_level_modules(_tree("_scan_py.py"))
    assert modules and sorted(modules - sys.stdlib_module_names) == []


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
