"""Scan-kernel layer: every importable backend against the pure-Python one.

The strata are the searches the library runs (abelian and abelian-ideal
scans of one dimension).  Each backend module that imports is run on each
stratum and must return exactly what `_scan_py` returns, counts and
matches in order.  The active kernel, as `search` calls it, is checked the
same way.
"""

from __future__ import annotations

import importlib

BACKEND_MODULES = ("leibniz_algebras._scan_py", "leibniz_algebras._scan_c")


def scan_strata():
    from leibniz_algebras._kernel import MODE_ABELIAN, MODE_IDEAL
    from leibniz_algebras.algebra import direct_sum
    from leibniz_algebras.catalog import heisenberg_rotation_extension
    from leibniz_algebras.families import abelian_algebra, oscillator
    from leibniz_algebras.fields import GF
    from leibniz_algebras.search import table_flat

    F3, F5 = GF(3), GF(5)
    L5 = direct_sum(oscillator(F3), abelian_algebra(1, F3))
    M5 = direct_sum(oscillator(F5), abelian_algebra(1, F5))
    return [
        ("rotation extension, GF(3)^4, dim 2, abelian",
         table_flat(heisenberg_rotation_extension(F3)), 4, 3, 2, MODE_ABELIAN),
        ("oscillator (+) F, GF(3)^5, dim 3, abelian ideal",
         table_flat(L5), 5, 3, 3, MODE_ABELIAN | MODE_IDEAL),
        ("oscillator (+) F, GF(5)^5, dim 2, abelian ideal",
         table_flat(M5), 5, 5, 2, MODE_ABELIAN | MODE_IDEAL),
    ]


def available_backends():
    """({module name: module} for backends that import, {module name: error text})."""
    found, missing = {}, {}
    for name in BACKEND_MODULES:
        try:
            found[name] = importlib.import_module(name)
        except ImportError as exc:
            missing[name] = "%s: %s" % (type(exc).__name__, exc)
    return found, missing


def cross_check():
    """Raise AssertionError on the first disagreement; return the backends checked."""
    from leibniz_algebras import _scan_py, search

    found, _ = available_backends()
    runners = {name: mod.scan_subspaces for name, mod in found.items()}
    runners["active kernel"] = search.scan_subspaces
    for label, flat, n, p, d, mode in scan_strata():
        want = _scan_py.scan_subspaces(flat, n, p, d, mode, -1, -1)
        for name, scan in runners.items():
            if scan is _scan_py.scan_subspaces:
                continue  # the reference itself
            got = scan(flat, n, p, d, mode, -1, -1)
            if got != want:
                raise AssertionError("backend %s disagrees with _scan_py on %s" % (name, label))
    return sorted(runners)
