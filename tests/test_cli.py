import json
from pathlib import Path

import pytest

from leibniz_algebras.cli import run
from leibniz_algebras.families import heisenberg, make_a, make_d, oscillator
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import nilradical
from leibniz_algebras.linalg import Matrix
from leibniz_algebras.serialize import DocumentWarning, parse_algebra, serialize_algebra

from conftest import F3, identity_action, rotext_with_center_candidate


@pytest.fixture
def files(tmp_path):
    def write(name, L):
        p = tmp_path / name
        p.write_text(serialize_algebra(L))
        return str(p)

    return tmp_path, write


def test_check_positive(files, capsys):
    tmp, write = files
    from leibniz_algebras.catalog import nonideal_codim2_example

    path = write("l.json", nonideal_codim2_example(F3))
    assert run(["check", path]) == 0
    out = capsys.readouterr().out
    assert "Leibniz: yes" in out and "Lie: no" in out
    assert "squares span dimension: 1" in out


def test_check_negative_exit_code(files, capsys):
    tmp, write = files
    from leibniz_algebras.families import raw_pair_table

    bad = raw_pair_table(
        Matrix(QQ, [[0, 1], [0, 0]]), Matrix(QQ, [[0, 0], [1, 0]]), QQ
    )
    path = write("bad.json", bad)
    assert run(["check", path]) == 1
    assert "Leibniz: no" in capsys.readouterr().out


def test_check_json_mode(files, capsys):
    tmp, write = files
    path = write("h.json", heisenberg(F3))
    assert run(["--json", "check", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"leibniz": True, "lie": True, "squares_span_dim": 0}


def test_invariants_report(files, capsys):
    tmp, write = files
    path = write("o.json", oscillator(F3))
    assert run(["--json", "invariants", path, "--scan"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["solvable"] and not payload["nilpotent"]
    assert payload["derived_length"] == 3
    assert payload["center_dim"] == 1
    assert payload["nilradical_dim"] == 3


def test_invariants_report_over_rationals(files, capsys):
    tmp, write = files
    path = write("o.json", oscillator(QQ))
    assert run(["--json", "invariants", path, "--scan"]) == 0
    assert json.loads(capsys.readouterr().out)["nilradical_dim"] == 3
    assert run(["invariants", path, "--scan"]) == 0
    assert "nilradical dim: 3" in capsys.readouterr().out


def test_alpha_beta_commands(files, capsys):
    tmp, write = files
    path = write("o.json", oscillator(F3))
    assert run(["--json", "alpha", path]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 2
    assert run(["--json", "beta", path]) == 0
    assert json.loads(capsys.readouterr().out)["beta"] == 1


def test_alpha_over_rationals_is_usage_error(files, capsys):
    tmp, write = files
    path = write("o.json", oscillator(QQ))
    assert run(["alpha", path]) == 2


def test_budget_exit_code(files):
    tmp, write = files
    path = write("o.json", oscillator(F3))
    assert run(["--budget", "3", "alpha", path]) == 3


def test_runs_in_one_process_share_no_state(files, capsys):
    tmp, write = files
    path = write("o.json", oscillator(F3))
    assert run(["--budget", "1", "alpha", path]) == 3
    assert run(["alpha", path]) == 0
    capsys.readouterr()
    assert run(["--json", "alpha", path]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 2
    assert run(["alpha", path]) == 0
    assert capsys.readouterr().out.startswith("alpha = 2 (exhaustive")


def test_negative_budget_is_a_usage_error(files):
    tmp, write = files
    path = write("o.json", oscillator(F3))
    assert run(["--budget", "-1", "alpha", path]) == 2
    assert run(["--budget", "many", "alpha", path]) == 2
    assert run(["--budget", "0", "alpha", path]) == 3


def test_nilradical_scan_budget_exit_code(files):
    tmp, write = files
    # the trace kernel certifies d(rot)'s zero nilradical with no scan
    path = write("d.json", make_d(Matrix(F3, [[0, 1], [2, 0]]), F3))
    assert run(["--budget", "0", "invariants", path, "--scan"]) == 0
    # the trace kernel of x acting as the identity on F^3 over GF(3) is
    # everything, so its nilradical is scanned
    path = write("y.json", identity_action(3, F3))
    assert run(["--budget", "1", "invariants", path, "--scan"]) == 3
    assert run(["invariants", path, "--scan"]) == 0


def test_classify_command(files, capsys):
    tmp, write = files
    from leibniz_algebras.catalog import heisenberg_rotation_extension

    path = write("e.json", heisenberg_rotation_extension(F3))
    assert run(["--json", "classify", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "Case3_e"
    path2 = write("h.json", heisenberg(F3))
    assert run(["classify", path2]) == 1  # NotApplicable is a negative


def test_classify_rejects_wrong_nilradical_candidate(files):
    tmp, write = files
    from leibniz_algebras.catalog import heisenberg_rotation_extension

    for F in (QQ, F3):
        path = write("e.json", heisenberg_rotation_extension(F))
        args = ["classify", path, "--witness", "0,1,0,0;0,0,1,0", "--nilradical"]
        assert run(args + ["0,0,0,1"]) == 2
        assert run(args + ["1,0,0,0;0,1,0,0;0,0,1,0"]) == 0


def _subspace_arg(W):
    return ";".join(",".join(W.field.format(x) for x in row) for row in W.basis.data)


@pytest.mark.parametrize("k, seed", [(0, 1001), (1, 1000)])
def test_classify_qq_candidate_the_partial_certificate_passed_exits_2(files, k, seed):
    tmp, write = files
    L, A, C = rotext_with_center_candidate(k, seed)
    path = write("e.json", L)
    args = ["classify", path, "--witness", _subspace_arg(A)]
    assert run(args + ["--nilradical", _subspace_arg(C)]) == 2


def test_classify_checks_a_candidate_whatever_the_verdict(files):
    tmp, write = files
    # AbelianIdealCodimLe2 exits 0, NotApplicable 1
    for L, code in ((make_a(Matrix.identity(F3, 2), Matrix(F3, [[0, 1], [2, 0]]), F3), 0),
                    (heisenberg(F3), 1)):
        path = write("l.json", L)
        assert run(["classify", path, "--nilradical", ",".join("0" * L.dim)]) == 2
        assert run(["classify", path, "--nilradical", _subspace_arg(nilradical(L))]) == code


def test_classify_with_witness_over_rationals(files, capsys):
    tmp, write = files
    from leibniz_algebras.families import make_c

    path = write("c.json", make_c(Matrix(QQ, [[0, 1], [-1, 0]]), QQ))
    assert run(["--json", "classify", path, "--witness", "1,0,0,0;0,1,0,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "Case1_c"


def test_verify_theorem_command(files, capsys):
    tmp, write = files
    path = write("o.json", oscillator(F3))
    assert run(["--json", "verify-theorem", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert any(c["name"].startswith("beta") for c in payload["claims"])


def test_make_command_writes_quoted_table(files, capsys, tmp_path):
    out = str(tmp_path / "made.json")
    assert run(["make", "--family", "a", "--lambda", "id", "--mu", "0,1,-1,0",
                "--field", "q", "-o", out]) == 0
    L = parse_algebra(Path(out).read_text())
    assert L == make_a(Matrix.identity(QQ, 2), Matrix(QQ, [[0, 1], [-1, 0]]), QQ)


def test_make_noncommuting_is_negative(files, capsys, tmp_path):
    out = str(tmp_path / "x.json")
    code = run(["make", "--family", "a", "--lambda", "0,1,0,0", "--mu", "0,0,1,0",
                "--field", "q", "-o", out])
    assert code == 1


def test_make_composite_field_is_usage_error(tmp_path):
    assert run(["make", "--family", "heisenberg", "--field", "6",
                "-o", str(tmp_path / "x.json")]) == 2


def test_iso_command(files, tmp_path, capsys):
    tmp, write = files
    p1 = write("o1.json", oscillator(F3))
    from leibniz_algebras.algebra import change_of_basis

    P = Matrix(F3, [[1, 0, 0, 1], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
    p2 = write("o2.json", change_of_basis(oscillator(F3), P))
    assert run(["iso", p1, p2]) == 0
    p3 = write("h.json", heisenberg(F3))
    assert run(["iso", p1, str(tmp / "o2.json")]) == 0
    from leibniz_algebras.catalog import heisenberg_rotation_extension

    p4 = write("e.json", heisenberg_rotation_extension(F3))
    assert run(["iso", p1, p4]) == 1


def test_fitting_command(files, capsys):
    tmp, write = files
    path = write("a.json", make_a(Matrix.identity(F3, 2), Matrix(F3, [[0, 1], [2, 0]]), F3))
    assert run(["--json", "fitting", path, "--witness", "1,0,0,0;0,1,0,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["L0"] == [["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    assert payload["L1"] == [["0", "0", "1", "0"], ["0", "0", "0", "1"]]


def test_quotient_command(files, tmp_path, capsys):
    tmp, write = files
    path = write("h.json", heisenberg(F3))
    out = str(tmp_path / "q.json")
    assert run(["quotient", path, "--ideal", "0,0,1", "-o", out]) == 0
    Q = parse_algebra(Path(out).read_text())
    assert Q.dim == 2


def test_random_command_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["random", "--family", "c", "--field", "3", "--seed", "7", "--basis-change"]
    assert run(args + ["-o", a]) == 0
    assert run(args + ["-o", b]) == 0
    assert Path(a).read_text() == Path(b).read_text()
    L = parse_algebra(Path(a).read_text())
    from leibniz_algebras.algebra import is_leibniz

    assert is_leibniz(L)


def test_solvability_command(files):
    tmp, write = files
    path = write("a.json", make_a(Matrix.identity(F3, 2), Matrix(F3, [[0, 1], [2, 0]]), F3))
    assert run(["solvability", path]) == 0


def test_solvability_budget_exit_code(files):
    tmp, write = files
    path = write("d.json", make_d(Matrix(F3, [[0, 1], [2, 0]]), F3))
    assert run(["--budget", "27", "solvability", path]) == 1  # the mathematical negative
    assert run(["--budget", "26", "solvability", path]) == 3


def test_solvability_witness_errors_exit_2(files):
    tmp, write = files
    path = write("d.json", make_d(Matrix(F3, [[0, 1], [2, 0]]), F3))
    assert run(["solvability", path, "--witness", "1,0,0"]) == 2  # not an ideal
    assert run(["solvability", path, "--witness", "1,0"]) == 2  # malformed


def test_document_error_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format_version": 1, "field": {"kind": "gf", "p": 4}, "dim": 1, "table": []}')
    assert run(["check", str(p)]) == 2
    q = tmp_path / "half.json"
    q.write_text("{ not json")
    assert run(["check", str(q)]) == 2
    assert run(["check", str(tmp_path / "missing.json")]) == 2


def test_lenient_flag(tmp_path):
    p = tmp_path / "extra.json"
    p.write_text(
        json.dumps(
            {
                "format_version": 1,
                "field": {"kind": "gf", "p": 3},
                "dim": 1,
                "table": [],
                "extra": 1,
            }
        )
    )
    assert run(["check", str(p)]) == 2
    with pytest.warns(DocumentWarning, match="unknown document fields: extra"):
        assert run(["--lenient", "check", str(p)]) == 0


def test_selftest_command(capsys):
    assert run(["selftest", "--fast", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
