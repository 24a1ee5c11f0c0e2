"""The "same answers" gate: what the library and the CLI answer on a fixed
corpus, one line per call, hashed against a digest recorded before a
change.  A change that keeps every verdict, witness, canonical order,
count, refusal, error message and exit code keeps the digest; on a
mismatch the test names the first line that moved.

The corpus: `standard_fixtures` and c(rot), d(rot) and rotext (+) F^k,
k = 0, 1, over GF(3), GF(5) and GF(7), each canonical and under one basis
change from `rand_invertible`, seeded by p.  On each table: `classify`,
`verify_main_theorem`, `alpha_beta`, `beta` and
`solvability_from_codim2_ideal`, then `classify` and `beta` at each of
BUDGETS; a call that raises answers with its exception's type and message.
Then `leibalg --json classify` on the document of every CLI_EVERY-th table
and on each of `conftest.MALFORMED_GF_DOCUMENTS`: stdout, stderr and exit
code.

Lines added after the first recording follow, so the earlier lines keep
their places: `leibalg --json` `alpha`, `beta` and `verify-theorem` on
every CLI_EVERY-th table's document; over QQ, `classify` of the same
tables, canonical, with their first coordinate witness, span(e_i, i in S)
for the first (n-2)-subset S in `itertools.combinations` order whose
basis vectors bracket to 0 among themselves, where one exists; and the
CALLS on DRAWS tables each of `conftest.central_extensions()` and
`conftest.one_dimensional_extensions()`, drawn by hypothesis under the
suite's derandomized profile.  The draws depend on hypothesis's version
(6.155.2 when they were recorded) as well as on this file.  Last,
`classify` and `verify_main_theorem` on the frames with more than two
central rows that the benchmark's gf-large workload sends (LARGE_SUMS):
c(rot) (+) F^2, d(rot) (+) F^3 and rotext (+) F^2 over GF(3) and
d(rot) (+) F^2 over GF(5), each under two basis changes from
`rand_invertible`, seeded by p + 100.  Then `classify`, `alpha` and
`verify_main_theorem` on h7 and h5 (+) h3 over GF(3)
(`conftest.heisenberg_sums`), each under one basis change from
`rand_invertible`, seeded by 1: alpha = n-3, with strata above it of
thousands of subspaces.

`same_answers.sha256` holds the first 8 hex digits of each line's sha256,
one a line, so a mismatch names the first line that moved.  Print the
lines, to diff two commits' answers, or with --digests that file's
contents, with

    PYTHONPATH=src:tests python -m test_same_answers [--digests]
"""

import contextlib
import hashlib
import io
import itertools
import random
import sys
import tempfile
from enum import Enum
from pathlib import Path

from leibniz_algebras.algebra import change_of_basis, direct_sum
from leibniz_algebras.catalog import heisenberg_rotation_extension, rotation_2x2, standard_fixtures
from leibniz_algebras.classify import classify, solvability_from_codim2_ideal, verify_main_theorem
from leibniz_algebras.cli import run
from leibniz_algebras.families import abelian_algebra, make_c, make_d
from leibniz_algebras.fields import GF, QQ
from leibniz_algebras.linalg import Matrix, Subspace
from leibniz_algebras.search import alpha, alpha_beta, beta
from leibniz_algebras.serialize import serialize_algebra

from hypothesis import HealthCheck, Phase, given, settings

from conftest import (
    MALFORMED_GF_DOCUMENTS,
    central_extensions,
    heisenberg_sums,
    one_dimensional_extensions,
    rand_invertible,
)

# sha256 of `answer_lines()`, one "\n" after each line, and of each line
DIGEST = "0f09c76294553eda302d5f90d63b3d87f2e1a49f99445b25f288641414f00722"
LINE_DIGESTS = Path(__file__).with_name("same_answers.sha256")
BUDGETS = (0, 1, 7, 50, 400)
CLI_EVERY = 3
CLI_SEARCHES = ("alpha", "beta", "verify-theorem")
DRAWS = 12
LARGE_SUMS = ((3, "c(rot)", 2), (3, "d(rot)", 3), (3, "rotext", 2), (5, "d(rot)", 2))
HEISENBERG_CALLS = {"classify": classify, "alpha": alpha, "verify_main_theorem": verify_main_theorem}

CALLS = {
    "classify": classify,
    "verify_main_theorem": verify_main_theorem,
    "alpha_beta": alpha_beta,
    "beta": beta,
    "solvability_from_codim2_ideal": solvability_from_codim2_ideal,
}


def _tables(F):
    """`standard_fixtures(F)` and c(rot), d(rot) and rotext (+) F^k, k = 0,
    1, canonical."""
    rot = rotation_2x2(F)
    tables = standard_fixtures(F)
    for name, T in (
        ("c(rot)", make_c(rot, F)),
        ("d(rot)", make_d(rot, F)),
        ("rotext", heisenberg_rotation_extension(F)),
    ):
        for k in (0, 1):
            T_k = direct_sum(T, abelian_algebra(1, F)) if k else T
            if T_k not in tables:  # the fixtures hold all but rotext+F
                tables.append(T_k.rename(name + "+F" * k))
    return tables


def large_sums():
    """(p, label, table) for the LARGE_SUMS, each under two basis changes."""
    for p, name, k in LARGE_SUMS:
        F = GF(p)
        rng = random.Random(p + 100)
        rot = rotation_2x2(F)
        X = {"c(rot)": make_c(rot, F), "d(rot)": make_d(rot, F), "rotext": heisenberg_rotation_extension(F)}[name]
        L = direct_sum(X, abelian_algebra(k, F))
        for t in range(2):
            yield p, "%s+F^%d disguised %d" % (name, k, t), change_of_basis(L, rand_invertible(F, L.dim, rng))


def corpus():
    """(p, label, table) for every table of the corpus, in a fixed order."""
    for p in (3, 5, 7):
        F = GF(p)
        rng = random.Random(p)
        for L in _tables(F):
            yield p, L.name, L
            yield p, L.name + " disguised", change_of_basis(L, rand_invertible(F, L.dim, rng))


def _fmt(x) -> str:
    """x as text that depends on its value alone: a subspace or matrix as
    its rows, a named tuple by its fields, a dict by its sorted keys."""
    if isinstance(x, Subspace):
        x = x.basis
    if isinstance(x, Matrix):
        return "<%s>" % ";".join(",".join(map(str, row)) for row in x.data)
    if isinstance(x, Enum):
        return str(x.value)
    if isinstance(x, tuple) and hasattr(x, "_fields"):
        return "%s(%s)" % (type(x).__name__, ", ".join("%s=%s" % (f, _fmt(v)) for f, v in zip(x._fields, x)))
    if isinstance(x, dict):
        return "{%s}" % ", ".join("%s: %s" % (k, _fmt(v)) for k, v in sorted(x.items()))
    if isinstance(x, (list, tuple)):
        return "[%s]" % ", ".join(map(_fmt, x))
    return repr(x)


def _answer(fn, *args, **kwargs) -> str:
    try:
        return _fmt(fn(*args, **kwargs))
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _cli(path: Path, text: str, command: str = "classify") -> str:
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["--json", command, str(path)])
    return "exit %d stdout %r stderr %r" % (code, out.getvalue(), err.getvalue())


def _coordinate_witness(L):
    """span(e_i, i in S) for the first (n-2)-subset S whose basis vectors
    bracket to 0 among themselves, or None."""
    n = L.dim
    if n < 2:
        return None
    for S in itertools.combinations(range(n), n - 2):
        if not any(L._products[i][j] for i in S for j in S):
            return Subspace(L.field, n, [[int(i == j) for j in range(n)] for i in S], S)
    return None


def drawn(strategy):
    """The first DRAWS tables the strategy draws under the suite's
    derandomized profile (`conftest`)."""
    tables = []

    @settings(max_examples=DRAWS, phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(strategy)
    def collect(L):
        tables.append(L)

    collect()
    return tables


def answer_lines():
    """The corpus's answer lines, in a fixed order."""
    tables = list(corpus())
    for p, label, L in tables:
        for name, call in CALLS.items():
            yield "GF(%d) %s %s: %s" % (p, label, name, _answer(call, L))
        for b in BUDGETS:
            for name in ("classify", "beta"):
                yield "GF(%d) %s %s budget %d: %s" % (p, label, name, b, _answer(CALLS[name], L, budget=b))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        for p, label, L in tables[::CLI_EVERY]:
            yield "cli GF(%d) %s: %s" % (p, label, _cli(path, serialize_algebra(L)))
        for name, text, _ in MALFORMED_GF_DOCUMENTS:
            yield "cli %s: %s" % (name, _cli(path, text))
        for p, label, L in tables[::CLI_EVERY]:
            for command in CLI_SEARCHES:
                yield "cli %s GF(%d) %s: %s" % (command, p, label, _cli(path, serialize_algebra(L), command))
    for L in _tables(QQ):
        A = _coordinate_witness(L)
        if A is not None:
            yield "QQ %s classify witness %s: %s" % (L.name, A.pivots, _answer(classify, L, A))
    for kind, strategy in (("central", central_extensions()), ("one-dimensional", one_dimensional_extensions())):
        for t, L in enumerate(drawn(strategy)):
            label = "%s extension %d GF(%d) %s" % (kind, t, L.field.p, _fmt(L.c))
            for name, call in CALLS.items():
                yield "%s %s: %s" % (label, name, _answer(call, L))
    for p, label, L in large_sums():
        for name in ("classify", "verify_main_theorem"):
            yield "GF(%d) %s %s: %s" % (p, label, name, _answer(CALLS[name], L))
    F = GF(3)
    for label, L in heisenberg_sums(F).items():
        L = change_of_basis(L, rand_invertible(F, L.dim, random.Random(1)))
        for name, call in HEISENBERG_CALLS.items():
            yield "GF(3) %s disguised %s: %s" % (label, name, _answer(call, L))


def _line_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:8]


def test_same_answers():
    lines = list(answer_lines())
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    if digest != DIGEST:
        recorded = LINE_DIGESTS.read_text().split()
        moved = next(
            (i for i, line in enumerate(lines) if i >= len(recorded) or _line_digest(line) != recorded[i]),
            len(lines),
        )
        where = "line %d: %s" % (moved + 1, lines[moved]) if moved < len(lines) else "lines dropped at the end"
        raise AssertionError("%d answer lines, digest %s; the first that moved is %s" % (len(lines), digest, where))


if __name__ == "__main__":
    show = _line_digest if sys.argv[1:] == ["--digests"] else str
    for line in answer_lines():
        print(show(line))
