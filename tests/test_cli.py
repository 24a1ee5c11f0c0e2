import hashlib
import json
from pathlib import Path

import pytest

from leibniz_algebras import selftest
from leibniz_algebras.algebra import AlgebraTable, change_of_basis, direct_sum, is_leibniz
from leibniz_algebras.catalog import heisenberg_rotation_extension, nonideal_codim2_example
from leibniz_algebras.cli import run
from leibniz_algebras.families import (
    abelian_algebra,
    heisenberg,
    make_a,
    make_c,
    make_d,
    oscillator,
    raw_pair_table,
)
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import nilradical
from leibniz_algebras.linalg import Matrix
from leibniz_algebras.serialize import DocumentWarning, parse_algebra, serialize_algebra

from conftest import F3, F5, identity_action, rotext_with_center_candidate
from test_arithmetic import ref_leibniz_failure


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
    assert "leibniz: true" in out and "lie: false" in out
    assert "squares_span_dim: 1" in out


def test_check_negative_exit_code(files, capsys):
    tmp, write = files
    bad = raw_pair_table(
        Matrix(QQ, [[0, 1], [0, 0]]), Matrix(QQ, [[0, 0], [1, 0]]), QQ
    )
    path = write("bad.json", bad)
    assert run(["check", path]) == 1
    assert "leibniz: false" in capsys.readouterr().out


def test_check_json_mode(files, capsys):
    tmp, write = files
    path = write("h.json", heisenberg(F3))
    assert run(["--json", "check", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"leibniz": True, "lie": True, "squares_span_dim": 0}


@pytest.mark.parametrize("moved, triple", [((4, 4, 4), (4, 4, 4)), ((4, 0, 4), (1, 4, 3))])
def test_check_json_names_a_late_failing_triple(files, capsys, moved, triple):
    # GF(5) rotext (+) F with one constant of the central e_5 moved: every
    # triple before the named one holds
    tmp, write = files
    L = direct_sum(heisenberg_rotation_extension(F5), abelian_algebra(1, F5))
    c = [[list(v) for v in row] for row in L.c]
    a, b, t = moved
    c[a][b][t] = F5.add(c[a][b][t], 1)
    assert ref_leibniz_failure(F5, c) == triple
    path = write("late.json", AlgebraTable(F5, c))
    assert run(["--json", "check", path]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out == json.dumps({"failing_triple": list(triple), "leibniz": False}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("p, code, err", [
    (2**61 - 1, 0, ""),
    (2**61 + 1, 2, "error: composite modulus %d\n" % (2**61 + 1)),
    (2**89 - 1, 2, "error: primality of %d is not decided" % (2**89 - 1)),
])
def test_check_on_a_large_modulus(tmp_path, capsys, p, code, err):
    # primality is decided by Miller-Rabin: 2^61 - 1 parses at once, and a
    # modulus past the exact range of the test is a document error
    doc = {"format_version": 1, "field": {"kind": "gf", "p": p}, "dim": 1,
           "table": [{"i": 0, "j": 0, "c": [0]}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert run(["--json", "check", str(path)]) == code
    out, got = capsys.readouterr()
    assert got.startswith(err) and (got == "") == (err == "")
    if not code:
        assert json.loads(out) == {"leibniz": True, "lie": True, "squares_span_dim": 0}


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
    assert "nilradical_dim: 3" in capsys.readouterr().out


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
    assert capsys.readouterr().out.startswith("alpha: 2\nexhaustive: true\n")


def test_negative_budget_is_a_usage_error(files):
    tmp, write = files
    path = write("o.json", oscillator(F3))
    assert run(["--budget", "-1", "alpha", path]) == 2
    assert run(["--budget", "many", "alpha", path]) == 2
    assert run(["--budget", "0", "alpha", path]) == 3


def test_nilradical_scan_budget_exit_code(files, capsys):
    tmp, write = files
    # the nilradical never scans, so no budget stops it: the trace kernel
    # certifies d(rot)'s zero nilradical, and the envelope's radical finds
    # F^3 when x acts as the identity on F^3 over GF(3)
    d_rot = make_d(Matrix(F3, [[0, 1], [2, 0]]), F3)
    for name, L, dim in (("d.json", d_rot, 0), ("y.json", identity_action(3, F3), 3)):
        assert run(["--budget", "0", "--json", "invariants", write(name, L), "--scan"]) == 0
        assert json.loads(capsys.readouterr().out)["nilradical_dim"] == dim


def test_classify_command(files, capsys):
    tmp, write = files
    path = write("e.json", heisenberg_rotation_extension(F3))
    assert run(["--json", "classify", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "Case3_e"
    path2 = write("h.json", heisenberg(F3))
    assert run(["classify", path2]) == 1  # NotApplicable is a negative


def test_classify_rejects_wrong_nilradical_candidate(files):
    tmp, write = files
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


def test_classify_checks_a_candidate_whatever_the_verdict(files, capsys):
    tmp, write = files
    # AbelianIdealCodimLe2 exits 0, NotApplicable 1; an abelian ideal or a
    # witness proves alpha = n-2 with no walk, and d(rot) (+) d(rot) walks
    rot = Matrix(F3, [[0, 1], [2, 0]])
    a = make_a(Matrix.identity(F3, 2), rot, F3)
    d = make_d(rot, F3)
    for L, witness, code in ((a, [], 0),
                             (direct_sum(a, abelian_algebra(1, F3)), [], 0),
                             (a, ["--witness", "0,0,1,0;0,0,0,1"], 0),
                             (heisenberg(F3), [], 1),
                             (direct_sum(d, d), [], 1)):
        path = write("l.json", L)
        N = nilradical(L)
        zero = ",".join("0" * L.dim)
        wrong = _subspace_arg(L.full_space()) if N.dim == 0 else zero
        assert run(["classify", path, "--nilradical", wrong] + witness) == 2
        assert "not the nilradical" in capsys.readouterr().err
        right = _subspace_arg(N) if N.dim else zero
        assert run(["classify", path, "--nilradical", right] + witness) == code


def test_classify_with_witness_over_rationals(files, capsys):
    tmp, write = files
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


def test_make_e_needs_n_at_least_4(tmp_path, capsys):
    out = str(tmp_path / "e.json")
    for n in ([], ["--n", "3"], ["--n", "1"], ["--n", "0"]):
        assert run(["make", "--family", "e", "--field", "3", *n, "-o", out]) == 2, n
        assert capsys.readouterr().err == "error: family e needs --n >= 4\n"
    assert run(["make", "--family", "e", "--field", "3", "--n", "4", "-o", out]) == 0


def test_iso_command(files, tmp_path, capsys):
    tmp, write = files
    p1 = write("o1.json", oscillator(F3))
    P = Matrix(F3, [[1, 0, 0, 1], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
    p2 = write("o2.json", change_of_basis(oscillator(F3), P))
    assert run(["iso", p1, p2]) == 0
    p3 = write("h.json", heisenberg(F3))
    assert run(["iso", p1, str(tmp / "o2.json")]) == 0
    p4 = write("e.json", heisenberg_rotation_extension(F3))
    assert run(["iso", p1, p4]) == 1


def test_iso_of_two_fields_is_a_usage_error(capsys):
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    gf3, qq = str(fixtures / "oscillator_gf3.json"), str(fixtures / "oscillator_qq.json")
    assert run(["iso", gf3, qq]) == 2
    assert capsys.readouterr() == ("", "error: field mismatch: GF(3) vs QQ\n")


def test_iso_of_two_dimensions_is_not_isomorphic(capsys):
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    osc, heis = str(fixtures / "oscillator_gf3.json"), str(fixtures / "heisenberg_gf3.json")
    assert run(["--json", "iso", osc, heis]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"isomorphic": False} and err == ""


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
    # every family's parameters are drawn inside its valid set, so each
    # draw builds a table at once
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for family in ("a", "b", "c", "d", "e", "heisenberg", "oscillator", "abelian"):
        for field in ("3", "5", "q"):
            args = ["random", "--family", family, "--field", field, "--seed", "7", "--basis-change"]
            assert run(args + ["--k", "2", "-o", a]) == 0
            assert run(args + ["--k", "2", "-o", b]) == 0
            assert Path(a).read_text() == Path(b).read_text(), (family, field)
            assert is_leibniz(parse_algebra(Path(a).read_text())), (family, field)


# sha256 of the documents of `leibalg random --family <family> --field
# <field> --seed 7 --basis-change --k 2 --plus-abelian 1`, recorded while
# each family still had its own draw: a seed names one document
RANDOM_DOCUMENTS = {
    ('a', '3'): "e7e62e7b299bf4859b6f0fab23ffa86f91c6ee2333ef6987b8e7f8a448cb9f2c",
    ('a', '5'): "9572a10ca66a83d8e67b26c55ec1b2af37d3e21ce806e922accd0abdad1ae151",
    ('a', 'q'): "9c6ba29593907d6cc13f8faf8c3ec8de0f1a27755ced48353dac535d896052ea",
    ('b', '3'): "8949bc9ac9413eeabf4f6a6b8e14847942f98a652207277fd5134053857ccc31",
    ('b', '5'): "e584838259b243a4050f3825ca978ccc66c1a5eb31376c4dad7d63baa2ba0340",
    ('b', 'q'): "5d4afc0431958d08b83a69dfab3f607a413a4ea75f4f6007c0142aca1fda3fad",
    ('c', '3'): "19770d1956c10ed3a924a71b61a33190057813f47b767b7038e17625c85621a0",
    ('c', '5'): "4a84e04690a5b2c30ef35df8b0485ad268f7501a976d7420de7687b6df767a0c",
    ('c', 'q'): "09682fd7709d639913079fedb2ddcc2470132459b627d1e969e41137ed69504c",
    ('d', '3'): "3ddf6bdad48afd3135ae490f956a6dbf8b5b97a434863ec892d00a441c8ff18a",
    ('d', '5'): "1c14fcd01c01901db3b040e4fe603cf64862c813e4fc4a16995c11e91822b326",
    ('d', 'q'): "dfe5fd9f3448f07a42440799cfc89693136c0962ea652f86e55707abd7ee67f5",
    ('e', '3'): "d155790445ca82a9d21a8a766e65ac72979794a13a3c453f7522985497d1c8b9",
    ('e', '5'): "4d4250a29df76ddb053ab0dc4a18a9ced9897ab32166666375c3fbb9baa4f2cd",
    ('e', 'q'): "edc43b3fd38b22a203ec8abfd6a7d9060db21af8e9b8a2614808bf554c42ae8f",
    ('heisenberg', '3'): "e272b8bdff220b469f219ea709880b161963c0b880c4c881cdc88ada2c44ca8e",
    ('heisenberg', '5'): "7e5088d520a78268dae3d8e31f4cbbfa734f9953fa04446edd4e47d38434d867",
    ('heisenberg', 'q'): "dc836c838e252dc8bb20d31dbfeb504755e782f91592521b26b7e06ca2357822",
    ('oscillator', '3'): "7d550bcf795261e65abec8def7348a2ed10f040d01a2876c1e137c63d49c4fa9",
    ('oscillator', '5'): "0501006c9be545861dd9003ede79a60c86b7a38fd267e7f360361ae08679ec25",
    ('oscillator', 'q'): "925fe7146f29a041c697a93fd90d3c24fed87ff97c22b240a5f25131484f2222",
    ('abelian', '3'): "8c10b35ad2075fbd8c918ab5fe2ac2e93fe14bce372005cf5b4564b5a289b3d4",
    ('abelian', '5'): "a90803eb48c383957de36096281ff667a80abbbc4ca8a5374e5eaa87a7273be0",
    ('abelian', 'q'): "20b6014e84ce2b8fc9061838f46efddf0c1a540d4023d74e68257a6b1cb4f259",
}


def test_random_documents_do_not_move(tmp_path):
    out = tmp_path / "r.json"
    moved = []
    for (family, field), digest in RANDOM_DOCUMENTS.items():
        args = ["random", "--family", family, "--field", field, "--seed", "7", "--basis-change",
                "--k", "2", "--plus-abelian", "1", "-o", str(out)]
        assert run(args) == 0
        if hashlib.sha256(out.read_bytes()).hexdigest() != digest:
            moved.append((family, field))
    assert moved == []


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


def _rendered(payload):
    """The text report of a JSON payload: one `key: value` line per key,
    sorted, a string value bare and any other value as compact JSON."""
    return [
        "%s: %s" % (key, value if isinstance(value, str) else json.dumps(value, sort_keys=True))
        for key, value in sorted(payload.items())
    ]


PAIR_F3 = make_a(Matrix.identity(F3, 2), Matrix(F3, [[0, 1], [2, 0]]), F3)
P4 = Matrix(F3, [[1, 0, 0, 1], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
# (command, its documents, its options, exit code)
REPORTS = {
    "check+": ("check", [nonideal_codim2_example(F3)], [], 0),
    "check-": ("check", [raw_pair_table(Matrix(QQ, [[0, 1], [0, 0]]), Matrix(QQ, [[0, 0], [1, 0]]), QQ)],
               [], 1),
    "invariants": ("invariants", [oscillator(F3)], ["--scan"], 0),
    "alpha": ("alpha", [oscillator(F3)], [], 0),
    "beta": ("beta", [oscillator(F3)], [], 0),
    "classify+": ("classify", [heisenberg_rotation_extension(QQ)],
                  ["--witness", "0,1,0,0;0,0,1,0", "--nilradical", "1,0,0,0;0,1,0,0;0,0,1,0"], 0),
    "classify-ideal": ("classify", [PAIR_F3], [], 0),
    "classify-": ("classify", [heisenberg(F3)], [], 1),
    "verify-theorem": ("verify-theorem", [oscillator(F3)], [], 0),
    "iso+": ("iso", [oscillator(F3), change_of_basis(oscillator(F3), P4)], [], 0),
    "iso-": ("iso", [oscillator(F3), heisenberg_rotation_extension(F3)], [], 1),
    "fitting": ("fitting", [PAIR_F3], ["--witness", "1,0,0,0;0,1,0,0"], 0),
    "solvability": ("solvability", [PAIR_F3], [], 0),
}


@pytest.mark.parametrize("report", REPORTS)
def test_text_report_is_the_json_payload_rendered(files, capsys, report):
    tmp, write = files
    command, algebras, options, code = REPORTS[report]
    argv = [command] + [write("%d.json" % i, L) for i, L in enumerate(algebras)] + options
    assert run(["--json"] + argv) == code
    payload = json.loads(capsys.readouterr().out)
    assert run(argv) == code
    assert capsys.readouterr().out.splitlines() == _rendered(payload)


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
    # the fast run and the full one, which alone reaches the n = 5 fixtures:
    # one line per check, every one a pass
    for options in (["--fast", "--seed", "3"], ["--seed", "0"]):
        assert run(["selftest", *options]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
        assert len(lines) == len(selftest.CHECKS)
        assert all(line.startswith("[PASS] ") for line in lines)


def test_selftest_names_a_check_that_raises(monkeypatch, capsys):
    # a check that raises fails with its exception's type and message, the
    # checks after it still run, and the run exits 1
    def raising(rng, fast):
        raise RuntimeError("no such subspace")

    checks = list(selftest.CHECKS)
    name = checks[1][0]
    checks[1] = (name, raising)
    monkeypatch.setattr(selftest, "CHECKS", checks)
    assert run(["selftest", "--fast"]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert lines[1] == "[FAIL] %s: RuntimeError: no such subspace" % name
    assert lines[2:] == ["[PASS] %s" % later for later, _ in checks[2:]]
    assert len(lines) == len(checks)
