"""The GF(p) subspace scan, as the rest of the package imports it.

There is one implementation, the pure-Python `_scan_py`, which takes its
canonical walk and its row steps from `linalg`; this module re-exports its
entry points and names it.  `search` is the only package
module that calls the scan (`search._scan_dim`); `cli` and `__init__`
import `backend` alone.
"""

from __future__ import annotations

from ._scan_py import MODE_ABELIAN, MODE_IDEAL, scan_subspaces

__all__ = ["MODE_ABELIAN", "MODE_IDEAL", "backend", "scan_subspaces"]


def backend() -> str:
    """Name of the scan backend, as run records report it."""
    return "python"
