#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of leibniz-algebras.

    python3 perfbench/run.py --workload gf-small-cli --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` and never from an installed copy.  Workloads (see workloads.py):
gf-small-cli, gf-large, qq-certified.  The load is a closed loop: one
client in one process sends the next request when the previous one has
returned, with no think time.

--trace 0 measures with tracing off.  --seconds fixes the number of
rounds of inputs (workloads.Workload.rounds); for each round in turn, the
round is generated from the seed and then sent as one pass.  Every answer
is checked against the hand-written reference table outside the timed
region.  A request is sent once per pass, each time under a new basis
change, so the time metrics take each request's median over the passes;
one slow basis change does not move them.

The host's speed moves by 10-50% (it shares its cores), far more than the
changes this benchmark has to show.  So calibration.work, a fixed piece of
pure-Python work, is timed at the start and end of every pass and between
its requests, every calibration.INTERVAL seconds, outside the requests'
timed regions; the mean of these samples is the pass's calibration, and
the *_cal metrics give times as multiples of it ("cal").  A slow stretch
slows the pass and its calibration alike; a change to the package moves
only the pass.  Metrics (last line of stdout, JSON):

    setup_s          time to import the package, plus the median over the
                     rounds of the time to generate a round's inputs
    wall_cal         one pass: the sum over its requests of each request's
                     median latency, in cal
    classify_cal     as wall_cal, for the time spent in classify
    peak_rss_mb      peak resident set size of the process

The report lines before it give the same times in seconds (wall_s,
classify_s), latency_p50_cal and latency_p50_s (the median latency of the
requests of that pass), requests_per_s (requests of a pass per second of
wall_s), calibration_s (median calibration of the passes), failed_ratio,
latency_p90_s (over all requests of the run) where a pass has at least 100
requests (gf-small-cli), and, on gf-large, alpha_beta_s and
verify_theorem_s.  The median latency is left out of the JSON: gf-large
has 13 requests of very different cost per pass, and which of them lies
in the middle changes with the basis changes, so its median moved by a
fifth from seed to seed (IQR/median 0.18 to 0.23 over ten seeds, against
0.02 to 0.07 for wall_cal).

--trace 1 sends round 0 once untraced and once traced, and prints the
per-layer metrics of the traced pass; trace.overhead_s is the difference of
their wall times.  The spans are written to .perfbench/ in the checkout.

A wrong answer, a failed request (one that raised, or exited with another
code than the reference's), or a request that scans half of the default
scan budget or more, prints the result with "correct": false and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import calibration

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench"
P90_MIN_REQUESTS = 100  # ten samples beyond the 90th percentile


def fail_setup(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import the package and the modules the workloads call; return seconds."""
    src = ROOT / "src"
    if not (src / "leibniz_algebras" / "__init__.py").is_file():
        fail_setup("no src/leibniz_algebras under %s; run from a source checkout" % ROOT)
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import leibniz_algebras
    import leibniz_algebras.catalog
    import leibniz_algebras.cli  # noqa: F401

    seconds = perf_counter() - t0
    if Path(leibniz_algebras.__file__).resolve().parent != (src / "leibniz_algebras").resolve():
        fail_setup("imported leibniz_algebras from %s, not from src/" % leibniz_algebras.__file__)
    return seconds


def git_commit():
    """Commit of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, rounds, inputs_digest):
    from kernel_check import available_backends
    from leibniz_algebras import backend

    _, missing = available_backends()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backend(),
        "pure_python_env": bool(os.environ.get("LEIBNIZ_ALGEBRAS_PURE_PYTHON")),
        "missing_backends": missing,
        "inputs_sha256": inputs_digest,
    }


def set_up_round(workload, seed, index, workdir):
    """Generate round `index`; (requests, seconds)."""
    t0 = perf_counter()
    requests = workload.round(seed, index, workdir)
    return requests, perf_counter() - t0


class Pass:
    """Per-request times and the outcomes of one pass."""

    def __init__(self):
        self.samples = []  # (slot, latency, {entry point: seconds})
        self.failed = []
        self.wrong = []
        self.scanned = {}
        self.calibration_samples = []  # seconds; see calibration.py

    @property
    def latencies(self):
        return [latency for _, latency, _ in self.samples]

    @property
    def wall(self):
        return sum(self.latencies)

    @property
    def calibration(self):
        return statistics.fmean(self.calibration_samples)


def run_pass(workload, requests, index, ledger, tracer=None):
    args = workload.prepare(requests)  # fresh tables, outside the timed region
    out = Pass()
    seen = Counter()
    out.calibration_samples.append(calibration.sample())
    sampled = perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for i, (request, arg) in enumerate(zip(requests, args)):
            rid = "%d:%d" % (index, i)
            ledger.request = rid
            if tracer is not None:
                tracer.request = rid
            # the same slot names the same request in every pass of a run
            seen[request.key, request.kind] += 1
            slot = (request.key, request.kind, seen[request.key, request.kind])
            t0 = perf_counter()
            try:
                answer, parts = workload.call(request, arg)
            except Exception as exc:  # a failed request is counted; the stream goes on
                out.samples.append((slot, perf_counter() - t0, {}))
                out.failed.append("%s %s: %s: %s" % (request.key, request.kind,
                                                     type(exc).__name__, exc))
                continue
            out.samples.append((slot, perf_counter() - t0, parts))
            if perf_counter() - sampled >= calibration.INTERVAL:
                out.calibration_samples.append(calibration.sample())
                sampled = perf_counter()
            failure = workload.failure(request, answer)
            if failure:
                out.failed.append("%s %s: %s" % (request.key, request.kind, failure))
                continue
            wrong = workload.check(request, arg, answer)
            if wrong:
                out.wrong.append("%s %s: %s" % (request.key, request.kind, wrong))
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.calibration_samples.append(calibration.sample())
    out.scanned = dict(ledger.scanned)
    ledger.scanned.clear()
    return out


def headroom_violations(passes):
    from leibniz_algebras.search import DEFAULT_SCAN_BUDGET

    limit = DEFAULT_SCAN_BUDGET // 2
    return ["request %s scanned %d subspaces, at least half of the %d budget"
            % (rid, n, DEFAULT_SCAN_BUDGET)
            for p in passes for rid, n in p.scanned.items() if n >= limit]


def typical_pass(passes, entry=None, in_cal=False):
    """One pass with every request at its median over the passes: per
    request slot, the median latency, or the median time spent in `entry`;
    in seconds, or with `in_cal` in multiples of each pass's calibration."""
    times = defaultdict(list)
    for p in passes:
        unit = p.calibration if in_cal else 1.0
        for slot, latency, parts in p.samples:
            times[slot].append((latency if entry is None else parts.get(entry, 0.0)) / unit)
    return [statistics.median(v) for v in times.values()]


def end_to_end(workload, setup_s, passes):
    latencies = [t for p in passes for t in p.latencies]
    per_pass = len(passes[0].samples)
    typical, typical_cal = typical_pass(passes), typical_pass(passes, in_cal=True)
    wall = sum(typical)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_cal": (sum(typical_cal), "cal"),
        "classify_cal": (sum(typical_pass(passes, "classify", in_cal=True)), "cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = dict(metrics)
    report.update({
        "calibration_s": (statistics.median(p.calibration for p in passes), "s"),
        "wall_s": (wall, "s"),
        "requests_per_s": (per_pass / wall, "1/s"),
        "latency_p50_cal": (statistics.median(typical_cal), "cal"),
        "latency_p50_s": (statistics.median(typical), "s"),
    })
    if per_pass >= P90_MIN_REQUESTS:
        report["latency_p90_s"] = (statistics.quantiles(latencies, n=10)[8], "s")
    for name in workload.entry_points:
        report["%s_s" % name] = (sum(typical_pass(passes, name)), "s")
    report["failed_ratio"] = (sum(len(p.failed) for p in passes) / len(latencies), "ratio")
    notes = "%d passes of %d requests, pass walls %s s, calibrations %s ms" % (
        len(passes), per_pass, " ".join("%.3f" % p.wall for p in passes),
        " ".join("%.2f" % (1000 * p.calibration) for p in passes))
    return metrics, report, notes


def emit(report, notes, record, passes, metrics, correct):
    for name, (value, unit) in report.items():
        print("%-28s %14.6f %s" % (name, value, unit))
    print("# %s" % notes)
    print("record %s" % json.dumps(record, sort_keys=True))
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_seconds = import_package()
    from kernel_check import cross_check
    from tracing import ScanLedger, Tracer
    from workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        fail_setup("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload](ROOT)
    rounds = 1 if args.trace else workload.rounds(args.seconds)
    cross_check()

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        ledger = ScanLedger()
        ledger.install()
        try:
            passes, inputs, setup_times = [], [], []
            if args.trace:
                requests, _ = set_up_round(workload, args.seed, 0, workdir)
                inputs.append(requests)
                passes.append(run_pass(workload, requests, 0, ledger))
                tracer = Tracer()
                passes.append(run_pass(workload, requests, 1, ledger, tracer))
            else:
                for index in range(rounds):
                    requests, seconds = set_up_round(workload, args.seed, index, workdir)
                    setup_times.append(seconds)
                    inputs.append(requests)
                    passes.append(run_pass(workload, requests, index, ledger))
        finally:
            ledger.uninstall()
    record = run_record(args, rounds, digest(inputs))

    wrong = (["failed request %s" % f for p in passes for f in p.failed]
             + [w for p in passes for w in p.wrong] + headroom_violations(passes))
    for line in wrong:
        print("WRONG: %s" % line, file=sys.stderr)
    if args.trace:
        metrics = tracer.per_layer_metrics(max(passes[1].scanned.values(), default=0))
        metrics["trace.overhead_s"] = (passes[1].wall - passes[0].wall, "s")
        report = metrics
        notes = "untraced pass %.3f s, traced pass %.3f s, %d spans" % (
            passes[0].wall, passes[1].wall, len(tracer.spans))
        tracer.write(OUT_DIR / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed)))
    else:
        setup_s = import_seconds + statistics.median(setup_times)
        metrics, report, notes = end_to_end(workload, setup_s, passes)
    emit(report, notes, record, passes, metrics, not wrong)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
