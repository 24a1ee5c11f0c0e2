"""Span tracing and scan counting, installed from outside the package.

The package binds names with `from .x import y`, so a wrapper has to replace
every binding of the original object: each `leibniz_algebras.*` module
attribute that *is* the function, and class attributes for methods
(`FieldSpec.of` is also bound as `FieldSpec.__call__`).  `Patches` does that
by identity and restores the originals afterwards.

`Tracer` keeps per-function counts, inclusive and self time, and span
records (name, start, end, parent span, request id) in memory; `write`
dumps the spans when the run ends.  Self time is a call's duration minus the
part covered by wrapped calls made inside it.  Functions of the `fields`,
`linalg` and `algebra` layers run up to hundreds of thousands of times per
request, so they are only aggregated, never recorded as individual spans.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "leibniz_algebras"
LAYERS = ("fields", "linalg", "algebra", "_kernel", "search", "invariants",
          "classify", "serialize", "cli")
HOT_LAYERS = ("fields", "linalg", "algebra")
# (counter, function counted, only while this function is active)
NESTED_COUNTS = (
    ("search.iso_bracket_calls", "algebra.bracket", "search.iso_search"),
    ("invariants.nilradical_series_calls", "invariants.series", "invariants.nilradical"),
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Patches:
    """Replace every binding of an object inside the package; undo on restore."""

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement):
        for owner in _package_modules():
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, attr, value))
                    setattr(owner, attr, replacement)

    def replace_method(self, cls, original, replacement):
        for attr, value in list(vars(cls).items()):
            raw = value.__func__ if isinstance(value, staticmethod) else value
            if raw is original:
                self._undo.append((cls, attr, value))
                wrapped = staticmethod(replacement) if isinstance(value, staticmethod) else replacement
                setattr(cls, attr, wrapped)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def traced_functions():
    """(qualified name, owner class or None, function) for every public
    function and method of every layer module; generators are skipped
    because their body runs after the call returns."""
    out = []
    for layer in LAYERS:
        mod = sys.modules["%s.%s" % (PACKAGE, layer)]
        short = "kernel" if layer == "_kernel" else layer
        if layer == "_kernel":
            out.append(("kernel.scan_subspaces", None, mod.scan_subspaces))
            continue
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                if not inspect.isgeneratorfunction(obj):
                    out.append(("%s.%s" % (short, name), None, obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mname, member in vars(obj).items():
                    raw = member.__func__ if isinstance(member, staticmethod) else member
                    if mname.startswith("_") or not inspect.isfunction(raw):
                        continue
                    if inspect.isgeneratorfunction(raw):
                        continue
                    if layer == "fields" and mname != "of":
                        continue  # field arithmetic runs per scalar; only coercion is traced
                    out.append(("%s.%s.%s" % (short, obj.__name__, mname), obj, raw))
    return out


class Tracer:
    """Per-function counts and times plus in-memory spans for one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.spans = []
        self.request = None
        self._stack = []  # [name, start, child time, span id]
        self._active = Counter()
        self._patches = Patches()

    def install(self):
        for qualname, cls, fn in traced_functions():
            wrapper = self._wrap(qualname, fn)
            if cls is None:
                self._patches.replace(fn, wrapper)
            else:
                self._patches.replace_method(cls, fn, wrapper)

    def uninstall(self):
        self._patches.restore()

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        record = layer not in HOT_LAYERS
        nested = [(counter, outer) for counter, inner, outer in NESTED_COUNTS if inner == name]
        is_scan = name == "kernel.scan_subspaces"
        stack, active, tracer = self._stack, self._active, self

        def wrapper(*args, **kwargs):
            for counter, outer in nested:
                if active[outer]:
                    tracer.counts[counter] += 1
            span_id = len(tracer.spans) if record else None
            if record:
                tracer.spans.append(None)  # reserve the id; filled on return
            parent = stack[-1][3] if stack else None
            frame = [name, perf_counter(), 0.0, span_id if record else parent]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                duration = end - frame[1]
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[2]
                if not active[name]:
                    tracer.inclusive[name] += duration
                if stack:
                    stack[-1][2] += duration
                if record:
                    tracer.spans[span_id] = (name, frame[1], end, parent, tracer.request)
            if is_scan:
                scanned, _, matches = result
                tracer.counts["kernel.subspaces_scanned"] += scanned
                tracer.counts["kernel.matches"] += len(matches)
            return result

        return wrapper

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(t for name, t in self.self_time.items() if name.startswith(prefix))

    def per_layer_metrics(self, max_request_scanned):
        """The per-layer figures, and the end-to-end metric each should move:

        kernel.*       classify_s and wall_s on gf-large; 0 on qq-certified,
                       where a kernel change should change nothing
        search.*       wall_s on gf-large (verify_main_theorem, iso_search)
        invariants.*   classify_s on gf-large and qq-certified
        algebra.*, fields.*
                       latency_p50_s on gf-small-cli, wall_s on qq-certified,
                       and gf-large through iso_search's bracket calls
        linalg.*       wall_s on qq-certified
        classify.*, serialize.*, cli.*
                       latency_p50_s on gf-small-cli; serialize and cli read
                       0 on the library workloads
        """
        c, inc = self.calls, self.inclusive
        scanned = self.counts["kernel.subspaces_scanned"]
        matches = self.counts["kernel.matches"]
        metrics = {
            "kernel.scan_calls": (c["kernel.scan_subspaces"], "count"),
            "kernel.subspaces_scanned": (scanned, "count"),
            "kernel.matches": (matches, "count"),
            "kernel.match_ratio": (matches / scanned if scanned else 0.0, "ratio"),
            "kernel.self_s": (self.layer_self("kernel"), "s"),
            "kernel.max_request_scanned": (max_request_scanned, "count"),
            "search.alpha_s": (inc["search.alpha"], "s"),
            "search.beta_s": (inc["search.beta"], "s"),
            "search.all_abelian_ideals_s": (inc["search.all_abelian_ideals"], "s"),
            "search.iso_search_s": (inc["search.iso_search"], "s"),
            "search.iso_search_calls": (c["search.iso_search"], "count"),
            "search.iso_bracket_calls": (self.counts["search.iso_bracket_calls"], "count"),
            "search.self_s": (self.layer_self("search"), "s"),
            "invariants.nilradical_s": (inc["invariants.nilradical"], "s"),
            "invariants.nilradical_series_calls": (self.counts["invariants.nilradical_series_calls"], "count"),
            "invariants.series_calls": (c["invariants.series"], "count"),
            "invariants.series_s": (inc["invariants.series"], "s"),
            "invariants.verify_nilradical_candidate_s": (inc["invariants.verify_nilradical_candidate"], "s"),
            "invariants.fitting_s": (inc["invariants.fitting_decomposition"], "s"),
            "algebra.bracket_calls": (c["algebra.bracket"], "count"),
            "algebra.bracket_s": (inc["algebra.bracket"], "s"),
            "algebra.leibniz_checks": (c["algebra.leibniz_failure"], "count"),
            "algebra.leibniz_s": (inc["algebra.leibniz_failure"], "s"),
            "algebra.change_of_basis_s": (inc["algebra.change_of_basis"], "s"),
            "algebra.subalgebra_table_calls": (c["algebra.subalgebra_table"], "count"),
            "algebra.self_s": (self.layer_self("algebra"), "s"),
            "fields.coercions": (c["fields.FieldSpec.of"], "count"),
            "fields.coerce_s": (inc["fields.FieldSpec.of"], "s"),
            "linalg.rref_calls": (c["linalg.rref_with_pivots"], "count"),
            "linalg.rref_s": (inc["linalg.rref_with_pivots"], "s"),
            "linalg.subspace_ops": (c["linalg.subspace_sum"] + c["linalg.subspace_intersect"]
                                    + c["linalg.Subspace.from_vectors"], "count"),
            "linalg.self_s": (self.layer_self("linalg"), "s"),
            "classify.calls": (c["classify.classify"], "count"),
            "classify.self_s": (self.layer_self("classify"), "s"),
            "serialize.parse_calls": (c["serialize.parse_algebra"], "count"),
            "serialize.parse_s": (inc["serialize.parse_algebra"], "s"),
            "cli.self_s": (self.layer_self("cli"), "s"),
        }
        return {name: (value if unit == "count" else float(value), unit)
                for name, (value, unit) in metrics.items()}

    def write(self, path):
        """Dump the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, span in enumerate(self.spans):
                name, start, end, parent, request = span
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


class ScanLedger:
    """Subspaces scanned per request, counted in every run, traced or not.

    It wraps only `scan_subspaces`, which runs a few dozen times per request
    and each time for a millisecond or more, so its cost stays far below the
    timing noise."""

    def __init__(self):
        self.request = None
        self.scanned = Counter()
        self._patches = Patches()

    def install(self):
        original = sys.modules[PACKAGE + "._kernel"].scan_subspaces
        ledger = self

        def scan_subspaces(*args):
            result = original(*args)
            ledger.scanned[ledger.request] += result[0]
            return result

        self._patches.replace(original, scan_subspaces)

    def uninstall(self):
        self._patches.restore()
