"""Command-line front end.

Exit codes: 0 success, 1 mathematical negative (not Leibniz, not isomorphic,
classification not applicable, failed theorem claim), 2 usage or document
error, 3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .algebra import (
    AlgebraTable,
    center,
    change_of_basis,
    is_lie,
    leibniz_failure,
    left_annihilator,
    quotient,
    squares_ideal,
    direct_sum,
)
from .catalog import heisenberg_rotation_extension, nonideal_codim2_example
from .classify import Case, classify, solvability_from_codim2_ideal, verify_main_theorem
from .errors import (
    AlgebraError,
    BudgetExceededError,
    DocumentError,
    FamilyParameterError,
    NoAbelianIdealError,
    NotLeibnizError,
)
from .families import (
    abelian_algebra,
    heisenberg,
    make_a,
    make_b,
    make_c,
    make_d,
    make_e,
    oscillator,
)
from .fields import GF, QQ, FieldSpec, is_prime
from .invariants import fitting_decomposition, nilradical, series
from .linalg import Matrix, Subspace
from .search import DEFAULT_SCAN_BUDGET, alpha, beta, iso_search
from .serialize import parse_algebra, serialize_algebra
from ._kernel import backend


class UsageError(Exception):
    pass


def _parse_field_arg(text: str) -> FieldSpec:
    t = text.strip().lower()
    if t in ("q", "qq", "rationals"):
        return QQ
    try:
        p = int(t)
    except ValueError:
        raise UsageError("field must be 'q' or a prime number, got %r" % text)
    if not is_prime(p):
        raise UsageError("composite modulus %d" % p)
    return GF(p)


def _parse_scalar_arg(text: str, F: FieldSpec):
    try:
        return F.of(text.strip())
    except (ValueError, TypeError, ZeroDivisionError):
        raise UsageError("bad scalar %r for %r" % (text, F))


def _parse_vector_arg(text: str, F: FieldSpec) -> tuple:
    return tuple(_parse_scalar_arg(x, F) for x in text.split(","))


def _parse_subspace_arg(text: str, F: FieldSpec, ambient: int) -> Subspace:
    vectors = [_parse_vector_arg(part, F) for part in text.split(";") if part.strip()]
    for v in vectors:
        if len(v) != ambient:
            raise UsageError("witness vectors must have length %d" % ambient)
    return Subspace.from_vectors(F, ambient, vectors)


def _parse_matrix_arg(text: str, F: FieldSpec, size: int) -> Matrix:
    t = text.strip().lower()
    if t == "id":
        return Matrix.identity(F, size)
    if t == "0":
        return Matrix.zeros(F, size, size)
    entries = [_parse_scalar_arg(x, F) for x in text.split(",")]
    if len(entries) != size * size:
        raise UsageError("matrix needs %d entries, got %d" % (size * size, len(entries)))
    return Matrix(F, [entries[r * size : (r + 1) * size] for r in range(size)])


def _load_algebra(path: str, lenient: bool) -> AlgebraTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    return parse_algebra(text, strict=not lenient)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _write_out(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _subspace_payload(U: Subspace, F: FieldSpec):
    return [[F.format(x) for x in row] for row in U.basis.data]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    L = _load_algebra(args.file, args.lenient)
    bad = leibniz_failure(L)
    if bad is None:
        lie = is_lie(L)
        IL = squares_ideal(L)
        _emit(
            args,
            {"leibniz": True, "lie": lie, "squares_span_dim": IL.dim},
            [
                "Leibniz: yes",
                "Lie: %s" % ("yes" if lie else "no"),
                "squares span dimension: %d" % IL.dim,
            ],
        )
        return 0
    _emit(
        args,
        {"leibniz": False, "failing_triple": list(bad)},
        ["Leibniz: no (first failing basis triple %r)" % (bad,)],
    )
    return 1


def _cmd_invariants(args) -> int:
    L = _load_algebra(args.file, args.lenient)
    rep = series(L)
    CL = center(L)
    IL = squares_ideal(L)
    ann = left_annihilator(L)
    payload = {
        "dim": L.dim,
        "lie": is_lie(L),
        "solvable": rep.solvable,
        "nilpotent": rep.nilpotent,
        "derived_length": rep.derived_length,
        "derived_dims": list(rep.derived_dims),
        "lower_central_dims": list(rep.lower_central_dims),
        "center_dim": CL.dim,
        "squares_span_dim": IL.dim,
        "left_annihilator_dim": ann.dim,
    }
    lines = [
        "dim: %d" % L.dim,
        "Lie: %s" % payload["lie"],
        "solvable: %s (derived length %s)" % (rep.solvable, rep.derived_length),
        "nilpotent: %s" % rep.nilpotent,
        "derived chain dims: %s" % (payload["derived_dims"],),
        "lower central chain dims: %s" % (payload["lower_central_dims"],),
        "center dim: %d" % CL.dim,
        "squares span dim: %d" % IL.dim,
        "left annihilator dim: %d" % ann.dim,
    ]
    if args.scan:
        N = nilradical(L, args.budget)
        payload["nilradical_dim"] = N.dim
        lines.append("nilradical dim: %d" % N.dim)
    _emit(args, payload, lines)
    return 0


def _cmd_alpha_beta(args, which: str) -> int:
    L = _load_algebra(args.file, args.lenient)
    res = (
        alpha(L, args.budget)
        if which == "alpha"
        else beta(L, args.budget)
    )
    value = res.alpha if which == "alpha" else res.beta
    witness = res.alpha_witness if which == "alpha" else res.beta_witness
    _emit(
        args,
        {
            which: value,
            "witness": _subspace_payload(witness, L.field),
            "exhaustive": res.exhaustive,
            "subspaces_scanned": res.scanned,
        },
        [
            "%s = %d (exhaustive, %d subspaces scanned)" % (which, value, res.scanned),
            "witness basis: %s" % (_subspace_payload(witness, L.field),),
        ],
    )
    return 0


def _cmd_classify(args) -> int:
    L = _load_algebra(args.file, args.lenient)
    F = L.field
    A = _parse_subspace_arg(args.witness, F, L.dim) if args.witness else None
    N = (
        _parse_subspace_arg(args.nilradical, F, L.dim)
        if args.nilradical
        else None
    )
    verdict = classify(L, A=A, nilradical_candidate=N, budget=args.budget)
    payload = {"case": verdict.case.value, "diagnostics": {}}
    lines = ["case: %s" % verdict.case.value]
    for k, v in sorted(verdict.diagnostics.items()):
        payload["diagnostics"][k] = repr(v) if not isinstance(v, (int, bool)) else v
        lines.append("  %s: %s" % (k, v))
    if "abelian_ideal" in verdict.witness:
        W = verdict.witness["abelian_ideal"]
        payload["abelian_ideal"] = _subspace_payload(W, F)
        lines.append("abelian ideal witness (dim %d): %s" % (W.dim, _subspace_payload(W, F)))
    if verdict.chi is not None:
        payload["chi"] = repr(verdict.chi)
        lines.append("canonical chi: %r" % (verdict.chi,))
    if "nilradical" in verdict.witness:
        W = verdict.witness["nilradical"]
        payload["nilradical"] = _subspace_payload(W, F)
        lines.append("nilradical basis: %s" % (_subspace_payload(W, F),))
    _emit(args, payload, lines)
    return 0 if verdict.case is not Case.NOT_APPLICABLE else 1


def _cmd_verify_theorem(args) -> int:
    L = _load_algebra(args.file, args.lenient)
    rep = verify_main_theorem(L, budget=args.budget)
    payload = {
        "algebra": rep.algebra,
        "alpha": rep.alpha,
        "case": rep.case.value if rep.case else None,
        "claims": [
            {"name": c.name, "status": c.status, "detail": c.detail} for c in rep.claims
        ],
        "ok": rep.ok,
    }
    lines = ["algebra: %s" % rep.algebra, "alpha: %d" % rep.alpha]
    if rep.case:
        lines.append("case: %s" % rep.case.value)
    for c in rep.claims:
        detail = (" (%s)" % c.detail) if c.detail else ""
        lines.append("[%s] %s%s" % (c.status.upper(), c.name, detail))
    _emit(args, payload, lines)
    return 0 if rep.ok else 1


def _make_family(args, F: FieldSpec) -> AlgebraTable:
    fam = args.family
    if fam == "a":
        return make_a(
            _parse_matrix_arg(args.lam, F, 2), _parse_matrix_arg(args.mu, F, 2), F
        )
    if fam == "b":
        return make_b(
            _parse_matrix_arg(args.lam, F, 2), _parse_matrix_arg(args.mu, F, 2), F
        )
    if fam == "c":
        return make_c(_parse_matrix_arg(args.lam, F, 2), F)
    if fam == "d":
        return make_d(_parse_matrix_arg(args.m, F, 2), F)
    if fam == "e":
        n = args.n
        if n is None:
            raise UsageError("family e needs --n")
        size = n - 1
        phi = _parse_matrix_arg(args.phi, F, size)
        theta = _parse_matrix_arg(args.theta, F, size)
        v = _parse_vector_arg(args.v, F) if args.v else (F.zero,) * size
        if len(v) != size:
            raise UsageError("--v must have length %d" % size)
        return make_e(phi, theta, v, n, F)
    if fam == "heisenberg":
        return heisenberg(F)
    if fam == "oscillator":
        return oscillator(F)
    if fam == "abelian":
        return abelian_algebra(args.k, F)
    if fam == "nonideal-example":
        return nonideal_codim2_example(F)
    if fam == "rotation-extension":
        return heisenberg_rotation_extension(F)
    raise UsageError("unknown family %r" % fam)


def _cmd_make(args) -> int:
    F = _parse_field_arg(args.field)
    L = _make_family(args, F)
    if args.plus_abelian:
        L = direct_sum(L, abelian_algebra(args.plus_abelian, F))
    _write_out(args, serialize_algebra(L))
    return 0


def _cmd_random(args) -> int:
    F = _parse_field_arg(args.field)
    rng = random.Random(args.seed)

    def rand_scalar():
        if F.is_prime_field:
            return F.of(rng.randrange(F.p))
        from fractions import Fraction

        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    def rand_matrix2():
        return Matrix(F, [[rand_scalar(), rand_scalar()], [rand_scalar(), rand_scalar()]])

    fam = args.family
    for _ in range(200):
        try:
            if fam == "a":
                lam = rand_matrix2()
                mu = Matrix.identity(F, 2).scale(rand_scalar()) + lam.scale(rand_scalar())
                L = make_a(lam, mu, F)
            elif fam == "b":
                lam = rand_matrix2()
                mu = Matrix.identity(F, 2).scale(rand_scalar()) + lam.scale(rand_scalar())
                L = make_b(lam, mu, F)
            elif fam == "c":
                a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
                L = make_c(Matrix(F, [[a, b], [c, F.neg(a)]]), F)
            elif fam == "d":
                a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
                L = make_d(Matrix(F, [[a, b], [c, F.neg(a)]]), F)
            elif fam == "e":
                a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
                phi = Matrix(
                    F,
                    [
                        [a, b, F.zero],
                        [c, F.neg(a), F.zero],
                        [F.zero, F.zero, F.zero],
                    ],
                )
                L = make_e(phi, -phi, (F.zero, F.zero, rand_scalar()), 4, F)
            elif fam == "heisenberg":
                L = heisenberg(F)
            elif fam == "oscillator":
                L = oscillator(F)
            elif fam == "abelian":
                L = abelian_algebra(args.k, F)
            else:
                raise UsageError("unknown family %r" % fam)
        except FamilyParameterError:
            continue
        break
    else:
        raise UsageError("could not draw valid parameters for family %r" % fam)
    if args.plus_abelian:
        L = direct_sum(L, abelian_algebra(args.plus_abelian, F))
    if args.basis_change:
        while True:
            P = Matrix(
                F, [[rand_scalar() for _ in range(L.dim)] for _ in range(L.dim)]
            )
            if P.is_invertible():
                break
        L = change_of_basis(L, P)
    _write_out(args, serialize_algebra(L))
    return 0


def _cmd_iso(args) -> int:
    L1 = _load_algebra(args.file1, args.lenient)
    L2 = _load_algebra(args.file2, args.lenient)
    res = iso_search(L1, L2, node_budget=args.budget)
    if res.isomorphic:
        F = L1.field
        _emit(
            args,
            {
                "isomorphic": True,
                "map_rows": [[F.format(x) for x in row] for row in res.map.data],
            },
            [
                "isomorphic: yes",
                "basis map rows: %s" % ([[F.format(x) for x in row] for row in res.map.data],),
            ],
        )
        return 0
    _emit(args, {"isomorphic": False}, ["isomorphic: no"])
    return 1


def _cmd_fitting(args) -> int:
    L = _load_algebra(args.file, args.lenient)
    A = _parse_subspace_arg(args.witness, L.field, L.dim)
    split = fitting_decomposition(L, A)
    F = L.field
    _emit(
        args,
        {
            "L0": _subspace_payload(split.L0, F),
            "L1": _subspace_payload(split.L1, F),
        },
        [
            "L0 (dim %d): %s" % (split.L0.dim, _subspace_payload(split.L0, F)),
            "L1 (dim %d): %s" % (split.L1.dim, _subspace_payload(split.L1, F)),
        ],
    )
    return 0


def _cmd_quotient(args) -> int:
    L = _load_algebra(args.file, args.lenient)
    I = _parse_subspace_arg(args.ideal, L.field, L.dim)
    Q, _ = quotient(L, I)
    _write_out(args, serialize_algebra(Q))
    return 0


def _cmd_solvability(args) -> int:
    L = _load_algebra(args.file, args.lenient)
    W = _parse_subspace_arg(args.witness, L.field, L.dim) if args.witness else None
    ok = solvability_from_codim2_ideal(L, witness=W, budget=args.budget)
    _emit(args, {"solvable_length_le_3": ok}, ["solvable with derived length <= 3: %s" % ok])
    return 0 if ok else 1


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(seed=args.seed, fast=args.fast)
    print("backend: %s" % backend())
    return 0 if ok else 1


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid budget value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError("budget must be >= 0, got %d" % value)
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="leibalg",
        description="Exact computations with structure-constant Leibniz algebras.",
    )
    top.add_argument("--json", action="store_true", help="machine-readable reports")
    top.add_argument("--lenient", action="store_true", help="warn instead of rejecting unknown document fields")
    top.add_argument("--budget", type=_budget, default=DEFAULT_SCAN_BUDGET, help="search budget (>= 0)")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_):
        return sub.add_parser(name, help=help_)

    p = add("check", "Leibniz / Lie / squares-span report")
    p.add_argument("file")

    p = add("invariants", "series, center, annihilator, optional nilradical")
    p.add_argument("file")
    p.add_argument("--scan", action="store_true", help="include the nilradical (over GF(p), scans when no trace form certifies it)")

    for which in ("alpha", "beta"):
        p = add(which, "exhaustive abelian %s scan" % ("subalgebra" if which == "alpha" else "ideal"))
        p.add_argument("file")

    p = add("classify", "decide the classification branch")
    p.add_argument("file")
    p.add_argument("--witness", help="abelian codim-2 subalgebra, vectors 'a,b,..;c,d,..'")
    p.add_argument("--nilradical", help="nilradical candidate, checked against the exact nilradical")

    p = add("verify-theorem", "check every claim of the branch classify matched")
    p.add_argument("file")

    p = add("make", "construct a family instance and emit its document")
    p.add_argument("--family", required=True,
                   choices=["a", "b", "c", "d", "e", "heisenberg", "oscillator", "abelian",
                            "nonideal-example", "rotation-extension"])
    p.add_argument("--field", required=True, help="'q' or a prime p")
    p.add_argument("--lambda", dest="lam", default="0", help="2x2 matrix: 'id', '0', or 4 entries")
    p.add_argument("--mu", default="0")
    p.add_argument("--m", default="0")
    p.add_argument("--phi", default="0")
    p.add_argument("--theta", default="0")
    p.add_argument("--v", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--plus-abelian", type=int, default=0, metavar="K")
    p.add_argument("-o", "--output")

    p = add("random", "seeded random family instance, optionally disguised")
    p.add_argument("--family", required=True,
                   choices=["a", "b", "c", "d", "e", "heisenberg", "oscillator", "abelian"])
    p.add_argument("--field", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--plus-abelian", type=int, default=0, metavar="K")
    p.add_argument("--basis-change", action="store_true")
    p.add_argument("-o", "--output")

    p = add("iso", "brute-force isomorphism search between two documents")
    p.add_argument("file1")
    p.add_argument("file2")

    p = add("fitting", "split L = L0 (+) L1 under an abelian subalgebra")
    p.add_argument("file")
    p.add_argument("--witness", required=True)

    p = add("quotient", "quotient by a two-sided ideal")
    p.add_argument("file")
    p.add_argument("--ideal", required=True)
    p.add_argument("-o", "--output")

    p = add("solvability", "confirm solvability from an abelian codim-2 ideal")
    p.add_argument("file")
    p.add_argument("--witness")

    p = add("selftest", "run the condensed property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fast", action="store_true")

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: parsing never changes it, and each
    parse_args call returns a fresh Namespace."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "invariants":
            return _cmd_invariants(args)
        if args.command == "alpha":
            return _cmd_alpha_beta(args, "alpha")
        if args.command == "beta":
            return _cmd_alpha_beta(args, "beta")
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "verify-theorem":
            return _cmd_verify_theorem(args)
        if args.command == "make":
            return _cmd_make(args)
        if args.command == "random":
            return _cmd_random(args)
        if args.command == "iso":
            return _cmd_iso(args)
        if args.command == "fitting":
            return _cmd_fitting(args)
        if args.command == "quotient":
            return _cmd_quotient(args)
        if args.command == "solvability":
            return _cmd_solvability(args)
        if args.command == "selftest":
            return _cmd_selftest(args)
        raise UsageError("unknown command %r" % args.command)
    except BudgetExceededError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (UsageError, DocumentError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (NotLeibnizError, FamilyParameterError, NoAbelianIdealError) as exc:
        print("negative: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AlgebraError as exc:
        print("internal inconsistency: %s" % exc, file=sys.stderr)
        return 1


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
