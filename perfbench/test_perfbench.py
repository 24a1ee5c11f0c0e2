"""Tests of the benchmark itself; run with `python -m pytest perfbench`.

They check that inputs depend on the seed and only on it, that traced
counts repeat exactly, that the reference table agrees with the library's
exhaustive oracles, and that a wrong reference, a failing request or a
missing source tree makes the command fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import kernel_check  # noqa: E402
import run  # noqa: E402
from tracing import ScanLedger, Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


def bench(cwd, workload, seed, trace=0, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_on_the_seed_only(name, tmp_path):
    workload = WORKLOADS[name](ROOT)
    first = digest(workload.setup(7, tmp_path, 2))
    assert digest(workload.setup(7, tmp_path, 2)) == first
    assert digest(workload.setup(8, tmp_path, 2)) != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_input_has_a_reference_answer(name, tmp_path):
    from reference import REFERENCE

    for requests in WORKLOADS[name](ROOT).setup(1, tmp_path, 1):
        for request in requests:
            assert request.key in REFERENCE


def test_small_reference_matches_the_oracles(tmp_path):
    """beta and the nilradical dimension of gf-small-cli inputs are not in
    the CLI's classify document, so the run cannot check them; this checks
    the table itself against the exhaustive oracles."""
    import leibniz_algebras as la
    from reference import REFERENCE

    workload = WORKLOADS["gf-small-cli"](ROOT)
    for key, L in workload.sources():
        ref = REFERENCE[key]
        ab = la.alpha_beta(L)
        assert (ab.alpha, ab.beta) == (ref.alpha, ref.beta), key
        assert la.nilradical(L).dim == ref.nil, key


def test_output_that_is_not_a_document_is_wrong(tmp_path):
    workload = WORKLOADS["gf-small-cli"](ROOT)
    request = workload.setup(1, tmp_path, 1)[0][0]
    assert workload.check(request, request.path, (1, "", "negative: ...")) is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_result_has_every_end_to_end_metric(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = bench(ROOT, name, 3)
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] is True and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_counts_repeat_exactly():
    runs = [bench(ROOT, "gf-small-cli", 5, trace=1) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result(runs[0])["metrics"].items()} == want
    counts = [{k: v["value"] for k, v in result(proc)["metrics"].items() if v["unit"] == "count"}
              for proc in runs]
    assert counts[0] == counts[1]
    assert counts[0]["kernel.subspaces_scanned"] > 0
    assert counts[0]["serialize.parse_calls"] > 0


def test_kernel_does_no_work_over_qq(tmp_path):
    workload = WORKLOADS["qq-certified"](ROOT)
    requests = workload.setup(1, tmp_path, 1)[0][:3]
    ledger, tracer = ScanLedger(), Tracer()
    ledger.install()
    try:
        done = run.run_pass(workload, requests, 0, ledger, tracer)
    finally:
        ledger.uninstall()
    assert not done.failed and not done.wrong
    metrics = tracer.per_layer_metrics(max(done.scanned.values(), default=0))
    assert metrics["kernel.subspaces_scanned"][0] == 0
    assert metrics["kernel.scan_calls"][0] == 0
    assert metrics["classify.calls"][0] == 3


def test_tracer_restores_every_binding(tmp_path):
    import leibniz_algebras.algebra as algebra
    import leibniz_algebras.search as search
    from leibniz_algebras.fields import FieldSpec

    before = (algebra.bracket, search.bracket, search.scan_subspaces, FieldSpec.__dict__["of"])
    tracer = Tracer()
    tracer.install()
    assert search.bracket is algebra.bracket is not before[0]
    assert FieldSpec.__dict__["__call__"] is FieldSpec.__dict__["of"]
    tracer.uninstall()
    assert (algebra.bracket, search.bracket, search.scan_subspaces,
            FieldSpec.__dict__["of"]) == before


def test_kernel_backends_agree():
    assert "active kernel" in kernel_check.cross_check()


def copy_checkout(dest, with_source=True):
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "fixtures", dest / "fixtures")


def test_corrupted_reference_fails_the_run(tmp_path):
    copy_checkout(tmp_path)
    ref = tmp_path / "perfbench" / "reference.py"
    text = ref.read_text()
    good = '"c(rot)": (_ref("Case1_c", 2, 1, 3, ROT), _ref(IDEAL, 2, 2, 3)),'
    assert good in text
    ref.write_text(text.replace(good, good.replace('"Case1_c", 2, 1, 3', '"Case1_c", 2, 1, 4')))
    proc = bench(tmp_path, "gf-small-cli", 1)
    assert proc.returncode == 1
    assert result(proc)["correct"] is False
    assert "nilradical dimension" in proc.stderr


def test_failing_requests_fail_the_run(tmp_path):
    copy_checkout(tmp_path)
    classify = tmp_path / "src" / "leibniz_algebras" / "classify.py"
    # every classify fails as the CLI's exit code 1 for a negative answer
    classify.write_text(classify.read_text() + (
        "\n\ndef classify(*args, **kwargs):\n"
        "    raise AlgebraError('broken on purpose')\n"
        "\n\nfrom .errors import AlgebraError\n"))
    proc = bench(tmp_path, "gf-small-cli", 1)
    assert proc.returncode == 1
    assert result(proc)["correct"] is False
    assert result(proc)["failed"] > 0
    assert "failed request" in proc.stderr  # exit 1 where the reference wants 0
    assert "not a classify document" in proc.stderr  # exit 1 where it wants 1


def test_fails_without_the_source_tree(tmp_path):
    copy_checkout(tmp_path, with_source=False)
    proc = bench(tmp_path, "gf-small-cli", 1)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
