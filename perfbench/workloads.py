"""The three workloads: seeded inputs, the requests sent, and answer checks.

Every input is an algebra from the reference table after a seeded random
basis change, so the program never sees the canonical basis the reference
was written for.  A run draws `rounds` rounds of inputs from the seed; a
round holds every algebra of the workload under fresh basis changes, and
one pass of the benchmark sends one round.  The cost of a request depends
on its basis change (where a first hit lies in a scan, how large the
rational coefficients grow), so medians over rounds, each with its own
basis changes, are what make a run's figures repeat across seeds.  The
number of rounds follows from --seconds and the workload's `round_seconds`
alone, never from a clock, so two commits run with the same arguments are
measured on the same inputs.  `round_seconds` is the time of one round's
requests on a 2-vCPU Xeon at 2.1 GHz.

gf-small-cli   Small algebras (n <= 5) over GF(3) and GF(5):
               `catalog.standard_fixtures` and the `fixtures/` documents
               (the two QQ documents reduced mod 3 and mod 5), each under
               SMALL_DISGUISES basis changes per round, written as JSON
               documents at set-up and sent in a seeded order as
               `leibalg --json classify <doc>` through `cli.run`.  Many
               short requests: parsing, the Leibniz check and tiny scans.
               The classify document carries the case, alpha, chi and,
               for Case1-3, the nilradical dimension, and these and the
               exit code are checked; it carries no frame and no beta, so
               the frame is checked on the library workloads only, and
               test_perfbench checks this table's beta and nilradical
               values against the exhaustive oracles.
gf-large       n = 5 and 6 algebras over GF(3) and n = 5 over GF(5), one
               basis change each per round, sent to `classify`,
               `alpha_beta` and `verify_main_theorem`.  Time goes to
               first-hit and collect-all subspace scans and `iso_search`.
qq-certified   n = 4..7 algebras over QQ, one rational basis change with
               small denominators (`random_rational_change`) each per
               round, sent to `classify` with the codim-2 witness and
               nilradical candidate carried through the change, then to
               `verify_nilradical_candidate`.  Nothing is enumerated; time
               goes to Fraction arithmetic and linear algebra.

Left out of gf-large, and why:
* `verify_main_theorem` on GF(3) rotext+F^2: on random basis changes its
  `iso_search` of the 5-dim nilradical against heisenberg (+) F^2 exceeds
  the 2,000,000-node default budget for a sizeable share of disguises and
  raises BudgetExceededError; the other two entry points run on it.
* `verify_main_theorem` on GF(3) c(rot)+F^2, so that four rounds fit in a
  run: it takes 1.1 to 2.5 s, the widest spread in the mix, and repeats
  the beta and all_abelian_ideals scans of d(rot)+F^3's verification; its
  own iso_search is against the 3-dim Heisenberg algebra and trivial.
* GF(5) n = 6 algebras: the cost of a first-hit scan is the position of
  the first hit in a 508,431-subspace stratum, which a basis change moves
  anywhere, so one request takes 1 to 9 s and a run cannot average it.
* GF(5) c(rot)+F and rotext+F (n = 5, abelian ideal of codimension 2):
  every request stops at a first hit in a 20,306-subspace stratum and
  takes 0.02 to 0.4 s depending on the basis change, which moved the
  latency median of the whole mix by a quarter from seed to seed.  GF(5)
  first-hit scans stay covered by d(rot)+F^2 here and by the gf-small-cli
  stream, which holds c(rot)+F over GF(5).
* GF(5) d(rot)+F^3: about 42 s per `classify` (the nilradical scan).
* GF(5) n = 7: `alpha`'s d = 5 stratum has 12.7M subspaces, over the 5M
  default scan budget, so it fails today.
* GF(3) c(rot)+F^3 (n = 7): about 17.5 s and 2.25M subspaces per
  `classify`, longer than a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from reference import NA, REFERENCE, UNCHECKED

import leibniz_algebras as la
from leibniz_algebras import cli
from leibniz_algebras.catalog import heisenberg_rotation_extension, rotation_2x2, standard_fixtures
from leibniz_algebras.serialize import parse_algebra, serialize_algebra

SMALL_DISGUISES = 2
FRAME_CASES = ("Case1_c", "Case2_d", "Case3_e")
FIELDS = {"GF3": la.GF(3), "GF5": la.GF(5), "QQ": la.QQ}


class Request(NamedTuple):
    key: tuple  # reference key: (field label, algebra name)
    kind: str  # "cli", "classify", "alpha_beta", "verify_theorem" or "certify"
    doc: str  # the serialized input
    path: str = ""  # where a cli request's document was written
    vectors: tuple = ()  # certify: bases of the witness and the nilradical candidate


def random_invertible(F, n, rng):
    """A uniformly random invertible n x n matrix over GF(p)."""
    while True:
        P = la.Matrix(F, [[rng.randrange(F.p) for _ in range(n)] for _ in range(n)])
        if P.is_invertible():
            return P


QQ_SCALARS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2))
QQ_SHEARS = 3


def random_rational_change(n, rng):
    """A rational basis change with small denominators: a permutation with
    scalings from QQ_SCALARS, then QQ_SHEARS shears adding a QQ_SCALARS
    multiple of one basis vector to another.

    Dense random rational matrices make the coefficients of the disguised
    table, and with them one request's time, vary up to fivefold from one
    basis change to the next; with this family the spread of one request's
    time is about a quarter of its mean.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice(QQ_SCALARS)
    for _ in range(QQ_SHEARS):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(QQ_SCALARS)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return la.Matrix(la.QQ, rows)


def family(F, base: str, k: int):
    """`base` (+) F^k for base c(rot), d(rot) or rotext."""
    rot = rotation_2x2(F)
    L = {"c(rot)": la.make_c(rot, F), "d(rot)": la.make_d(rot, F),
         "rotext": heisenberg_rotation_extension(F)}[base]
    return la.direct_sum(L, la.abelian_algebra(k, F)) if k else L


def digest(rounds) -> str:
    h = hashlib.sha256()
    for requests in rounds:
        for r in requests:
            h.update(repr((r.key, r.kind, r.doc, str(r.vectors))).encode())
    return h.hexdigest()


class Workload:
    name = ""
    entry_points = ()
    round_seconds = 1.0  # requests of one round, on the hardware named above

    def __init__(self, root: Path):
        self.root = root

    def rounds(self, seconds: float) -> int:
        """Rounds, and so passes, of a run asked to last `seconds`."""
        return max(1, round(seconds / self.round_seconds))

    def setup(self, seed: int, workdir: Path, rounds: int) -> list:
        """The first `rounds` rounds of requests for a seed."""
        return [self.round(seed, i, workdir) for i in range(rounds)]

    def round(self, seed: int, index: int, workdir: Path) -> list:
        """Round `index` for a seed: a list of Request, the same on every call."""
        return self.draw(random.Random("%s:%d:%d" % (self.name, seed, index)), index, workdir)

    def draw(self, rng, index: int, workdir: Path) -> list:
        raise NotImplementedError

    def prepare(self, requests) -> list:
        """Per-pass arguments: fresh tables, so no request reuses another's caches."""
        return [parse_algebra(r.doc) for r in requests]

    def call(self, request, arg):
        """Run one request; return (answer, {entry point: seconds})."""
        raise NotImplementedError

    def failure(self, request, answer):
        """Why a request that returned still counts as failed, or None."""
        return None

    def check(self, request, arg, answer):
        """None if the answer matches the reference, else what is wrong."""
        raise NotImplementedError


def _mismatch(what, got, want):
    return "%s: got %r, want %r" % (what, got, want)


def _check_nil(ref, diagnostics):
    """The nilradical dimension, which a verdict reports for FRAME_CASES only."""
    if ref.case not in FRAME_CASES:
        return None
    nil = diagnostics.get("dim_nilradical")
    if nil != ref.nil:
        return _mismatch("nilradical dimension", nil, ref.nil)
    return None


def _check_verdict(ref, field_label, M, verdict):
    """Compare a library ClassificationVerdict with the reference."""
    if verdict.case.value != ref.case:
        return _mismatch("case", verdict.case.value, ref.case)
    if field_label != "QQ" and verdict.diagnostics.get("alpha") != ref.alpha:
        return _mismatch("alpha", verdict.diagnostics.get("alpha"), ref.alpha)
    wrong = _check_nil(ref, verdict.diagnostics)
    if wrong:
        return wrong
    chi = None if verdict.chi is None else (verdict.chi.c1, verdict.chi.c0)
    if ref.chi != UNCHECKED and chi != ref.chi:
        return _mismatch("chi", chi, ref.chi)
    if ref.case in FRAME_CASES:
        frame, model = verdict.witness["frame"], verdict.witness["model"]
        if la.change_of_basis(M, frame).c != model.c:
            return "frame does not transport the table onto the model"
    return None


class GfSmallCli(Workload):
    name = "gf-small-cli"
    entry_points = ("classify",)
    round_seconds = 3.3

    def sources(self):
        out = []
        for label in ("GF3", "GF5"):
            for L in standard_fixtures(FIELDS[label]):
                out.append(((label, L.name), L))
        for path in sorted((self.root / "fixtures").glob("*.json")):
            L = parse_algebra(path.read_text(encoding="utf-8"))
            labels = ["GF%d" % L.field.p] if L.field.is_prime_field else ["GF3", "GF5"]
            for label in labels:
                F = FIELDS[label]
                out.append(((label, path.name), la.AlgebraTable(F, L.c, name=L.name)))
        return out

    def draw(self, rng, index, workdir):
        made = []
        for key, L in self.sources():
            for _ in range(SMALL_DISGUISES):
                M = la.change_of_basis(L, random_invertible(L.field, L.dim, rng))
                made.append((key, serialize_algebra(M)))
        rng.shuffle(made)
        requests = []
        for i, (key, doc) in enumerate(made):
            path = workdir / ("%02d-%04d.json" % (index, i))
            path.write_text(doc, encoding="utf-8")
            requests.append(Request(key, "cli", doc, path=str(path)))
        return requests

    def prepare(self, requests):
        return [r.path for r in requests]

    def call(self, request, path):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["--json", "classify", path])
        return (code, out.getvalue(), err.getvalue()), {"classify": perf_counter() - t0}

    def failure(self, request, answer):
        code, _, err = answer
        if code != REFERENCE[request.key].exit:
            return "exit %d: %s" % (code, err.strip()[:200])
        return None

    def check(self, request, path, answer):
        code, out, err = answer
        ref = REFERENCE[request.key]
        try:
            payload = json.loads(out)
            case, diag = payload["case"], payload["diagnostics"]
        except (ValueError, TypeError, KeyError):
            return "not a classify document on stdout: %r" % out[:200]
        if case != ref.case:
            return _mismatch("case", case, ref.case)
        if diag.get("alpha") != ref.alpha:
            return _mismatch("alpha", diag.get("alpha"), ref.alpha)
        wrong = _check_nil(ref, diag)
        if wrong:
            return wrong
        want_chi = None if ref.chi is None else "t^2 + (%d)t + (%d)" % ref.chi
        if payload.get("chi") != want_chi:
            return _mismatch("chi", payload.get("chi"), want_chi)
        return None


ALL_ENTRY_POINTS = ("classify", "alpha_beta", "verify_theorem")
LARGE = (
    ("GF3", "c(rot)", 2, ("classify", "alpha_beta")),
    ("GF3", "d(rot)", 3, ALL_ENTRY_POINTS),
    ("GF3", "rotext", 2, ("classify", "alpha_beta")),
    ("GF3", "rotext", 1, ALL_ENTRY_POINTS),
    ("GF5", "d(rot)", 2, ALL_ENTRY_POINTS),
)


def _name(base, k, letter):
    return base if k == 0 else "%s+%s%s" % (base, letter, "" if k == 1 else "^%d" % k)


class GfLarge(Workload):
    name = "gf-large"
    entry_points = ALL_ENTRY_POINTS
    round_seconds = 7.5

    def draw(self, rng, index, workdir):
        requests = []
        for label, base, k, kinds in LARGE:
            F = FIELDS[label]
            L = family(F, base, k)
            doc = serialize_algebra(la.change_of_basis(L, random_invertible(F, L.dim, rng)))
            for kind in kinds:
                requests.append(Request((label, _name(base, k, "F")), kind, doc))
        return requests

    def call(self, request, M):
        # looked up on each call, so that a tracer's wrappers are what runs
        fn = {"classify": la.classify, "alpha_beta": la.alpha_beta,
              "verify_theorem": la.verify_main_theorem}[request.kind]
        t0 = perf_counter()
        answer = fn(M)
        return answer, {request.kind: perf_counter() - t0}

    def check(self, request, M, answer):
        ref = REFERENCE[request.key]
        if request.kind == "classify":
            return _check_verdict(ref, request.key[0], M, answer)
        if request.kind == "alpha_beta":
            if (answer.alpha, answer.beta) != (ref.alpha, ref.beta):
                return _mismatch("(alpha, beta)", (answer.alpha, answer.beta), (ref.alpha, ref.beta))
            return None
        case = answer.case.value if answer.case else NA
        if not answer.ok or answer.alpha != ref.alpha or case != ref.case:
            return _mismatch("(ok, alpha, case)", (answer.ok, answer.alpha, case),
                             (True, ref.alpha, ref.case))
        return None


# base, k values, witness and nilradical basis indices of the base algebra
QQ_FAMILIES = (
    ("rotext", range(0, 4), (1, 2), (0, 1, 2)),
    ("c(rot)", range(0, 4), (0, 1), (1, 2, 3)),
    ("d(rot)", range(1, 5), (0,), ()),
)


class QqCertified(Workload):
    name = "qq-certified"
    entry_points = ("classify",)
    round_seconds = 4.3

    def draw(self, rng, index, workdir):
        F = la.QQ
        requests = []
        for base, ks, witness, nil in QQ_FAMILIES:
            for k in ks:
                L = family(F, base, k)
                n = L.dim
                central = tuple(range(n - k, n))
                P = random_rational_change(n, rng)
                Pinv = P.inverse()
                # the new coordinates of the old basis vector e_i are row i of P^-1
                A = tuple(Pinv.row(i) for i in witness + central)
                N = tuple(Pinv.row(i) for i in nil + central)
                doc = serialize_algebra(la.change_of_basis(L, P))
                requests.append(Request(("QQ", _name(base, k, "Q")), "certify", doc,
                                        vectors=(A, N)))
        return requests

    def prepare(self, requests):
        out = []
        for r in requests:
            M = parse_algebra(r.doc)
            A, N = (la.Subspace.from_vectors(M.field, M.dim, vs) for vs in r.vectors)
            out.append((M, A, N))
        return out

    def call(self, request, arg):
        M, A, N = arg
        t0 = perf_counter()
        verdict = la.classify(M, A=A, nilradical_candidate=N)
        t1 = perf_counter()
        certified = la.verify_nilradical_candidate(M, N)
        return (verdict, certified), {"classify": t1 - t0}

    def check(self, request, arg, answer):
        M, _, N = arg
        verdict, certified = answer
        if not certified:
            return "nilradical candidate rejected"
        if N.dim != REFERENCE[request.key].nil:
            return _mismatch("nilradical candidate dimension", N.dim, REFERENCE[request.key].nil)
        return _check_verdict(REFERENCE[request.key], "QQ", M, verdict)


WORKLOADS = {w.name: w for w in (GfSmallCli, GfLarge, QqCertified)}
