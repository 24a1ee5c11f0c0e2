"""Command-line front end.

Exit codes: 0 success, 1 mathematical negative (not Leibniz, not isomorphic,
classification not applicable, failed theorem claim), 2 usage or document
error, 3 search budget exceeded.

Each report command builds one JSON payload, which `_emit` prints: as
indented JSON under --json, the stable machine interface, and otherwise as
one `key: value` line per key.  `make` and `random` share one table of the
families (`_FAMILIES`).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

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
    FieldMismatchError,
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


def _emit(args, payload: dict) -> None:
    """Print a report.  Under --json the payload as indented JSON, keys
    sorted; otherwise one `key: value` line per key in the same order, a
    string value bare and any other value as compact JSON."""
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in sorted(payload.items()):
        text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
        print("%s: %s" % (key, text))


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
    if bad is not None:
        _emit(args, {"leibniz": False, "failing_triple": list(bad)})
        return 1
    _emit(args, {"leibniz": True, "lie": is_lie(L), "squares_span_dim": squares_ideal(L).dim})
    return 0


def _cmd_invariants(args) -> int:
    L = _load_algebra(args.file, args.lenient)
    rep = series(L)
    payload = {
        "dim": L.dim,
        "lie": is_lie(L),
        "solvable": rep.solvable,
        "nilpotent": rep.nilpotent,
        "derived_length": rep.derived_length,
        "derived_dims": list(rep.derived_dims),
        "lower_central_dims": list(rep.lower_central_dims),
        "center_dim": center(L).dim,
        "squares_span_dim": squares_ideal(L).dim,
        "left_annihilator_dim": left_annihilator(L).dim,
    }
    if args.scan:
        payload["nilradical_dim"] = nilradical(L).dim
    _emit(args, payload)
    return 0


def _cmd_alpha_beta(args) -> int:
    which = args.command
    L = _load_algebra(args.file, args.lenient)
    res = (alpha if which == "alpha" else beta)(L, args.budget)
    _emit(
        args,
        {
            which: getattr(res, which),
            "witness": _subspace_payload(getattr(res, which + "_witness"), L.field),
            "exhaustive": res.exhaustive,
            "subspaces_scanned": res.scanned,
        },
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
    payload = {
        "case": verdict.case.value,
        "diagnostics": {
            k: v if isinstance(v, (int, bool)) else repr(v) for k, v in verdict.diagnostics.items()
        },
    }
    for key in ("abelian_ideal", "nilradical"):
        if key in verdict.witness:
            payload[key] = _subspace_payload(verdict.witness[key], F)
    if verdict.chi is not None:
        payload["chi"] = repr(verdict.chi)
    _emit(args, payload)
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
    _emit(args, payload)
    return 0 if rep.ok else 1


# Family parameters.  `make` reads them from the options, `random` draws
# them with `scalar()`, a seeded scalar of the field, in a fixed order: a
# seed names one document.


def _parse_pair(args, F: FieldSpec) -> tuple:
    return _parse_matrix_arg(args.lam, F, 2), _parse_matrix_arg(args.mu, F, 2)


def _draw_pair(args, F: FieldSpec, scalar) -> tuple:
    """lam, and mu in span(1, lam), so that the two commute."""
    lam = Matrix(F, [[scalar(), scalar()], [scalar(), scalar()]])
    return lam, Matrix.identity(F, 2).scale(scalar()) + lam.scale(scalar())


def _draw_traceless(args, F: FieldSpec, scalar) -> tuple:
    a, b, c = scalar(), scalar(), scalar()
    return (Matrix(F, [[a, b], [c, F.neg(a)]]),)


def _parse_e(args, F: FieldSpec) -> tuple:
    n = args.n
    if n is None or n < 4:
        raise UsageError("family e needs --n >= 4")
    size = n - 1
    phi = _parse_matrix_arg(args.phi, F, size)
    theta = _parse_matrix_arg(args.theta, F, size)
    v = _parse_vector_arg(args.v, F) if args.v else (F.zero,) * size
    if len(v) != size:
        raise UsageError("--v must have length %d" % size)
    return phi, theta, v, n


def _draw_e(args, F: FieldSpec, scalar) -> tuple:
    """n = 4: phi acts on span(u, w) by a traceless matrix and kills z, so
    it is a derivation of H; theta = -phi, and v is a multiple of z."""
    (m,) = _draw_traceless(args, F, scalar)
    zero = F.zero
    phi = Matrix(F, [[*m.data[0], zero], [*m.data[1], zero], [zero] * 3])
    return phi, -phi, (zero, zero, scalar()), 4


def _no_parameters(args, F: FieldSpec, scalar=None) -> tuple:
    return ()


def _k(args, F: FieldSpec, scalar=None) -> tuple:
    return (args.k,)


# family -> (constructor, parameters for `make`, parameters for `random` or
# None); the constructor takes the parameters, then the field
_FAMILIES = {
    "a": (make_a, _parse_pair, _draw_pair),
    "b": (make_b, _parse_pair, _draw_pair),
    "c": (make_c, lambda args, F: (_parse_matrix_arg(args.lam, F, 2),), _draw_traceless),
    "d": (make_d, lambda args, F: (_parse_matrix_arg(args.m, F, 2),), _draw_traceless),
    "e": (make_e, _parse_e, _draw_e),
    "heisenberg": (heisenberg, _no_parameters, _no_parameters),
    "oscillator": (oscillator, _no_parameters, _no_parameters),
    "abelian": (abelian_algebra, _k, _k),
    "nonideal-example": (nonideal_codim2_example, _no_parameters, None),
    "rotation-extension": (heisenberg_rotation_extension, _no_parameters, None),
}


def _plus_abelian(args, L: AlgebraTable) -> AlgebraTable:
    if args.plus_abelian:
        L = direct_sum(L, abelian_algebra(args.plus_abelian, L.field))
    return L


def _cmd_make(args) -> int:
    F = _parse_field_arg(args.field)
    build, parse, _ = _FAMILIES[args.family]
    _write_out(args, serialize_algebra(_plus_abelian(args, build(*parse(args, F), F))))
    return 0


def _cmd_random(args) -> int:
    F = _parse_field_arg(args.field)
    rng = random.Random(args.seed)

    def scalar():
        if F.is_prime_field:
            return F.of(rng.randrange(F.p))
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    build, _, draw = _FAMILIES[args.family]
    L = _plus_abelian(args, build(*draw(args, F, scalar), F))
    if args.basis_change:
        while True:
            P = Matrix(F, [[scalar() for _ in range(L.dim)] for _ in range(L.dim)])
            if P.is_invertible():
                break
        L = change_of_basis(L, P)
    _write_out(args, serialize_algebra(L))
    return 0


def _cmd_iso(args) -> int:
    L1 = _load_algebra(args.file1, args.lenient)
    L2 = _load_algebra(args.file2, args.lenient)
    res = iso_search(L1, L2, node_budget=args.budget)
    if not res.isomorphic:
        _emit(args, {"isomorphic": False})
        return 1
    map_rows = [[L1.field.format(x) for x in row] for row in res.map.data]
    _emit(args, {"isomorphic": True, "map_rows": map_rows})
    return 0


def _cmd_fitting(args) -> int:
    L = _load_algebra(args.file, args.lenient)
    A = _parse_subspace_arg(args.witness, L.field, L.dim)
    split = fitting_decomposition(L, A)
    F = L.field
    _emit(args, {"L0": _subspace_payload(split.L0, F), "L1": _subspace_payload(split.L1, F)})
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
    _emit(args, {"solvable_length_le_3": ok})
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

    def add(name, help_, handler):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        return p

    p = add("check", "Leibniz / Lie / squares-span report", _cmd_check)
    p.add_argument("file")

    p = add("invariants", "series, center, annihilator, optional nilradical", _cmd_invariants)
    p.add_argument("file")
    p.add_argument("--scan", action="store_true",
                   help="include the dimension of the exact nilradical (nothing is scanned)")

    for which in ("alpha", "beta"):
        p = add(which, "exhaustive abelian %s scan" % ("subalgebra" if which == "alpha" else "ideal"),
                _cmd_alpha_beta)
        p.add_argument("file")

    p = add("classify", "decide the classification branch", _cmd_classify)
    p.add_argument("file")
    p.add_argument("--witness", help="abelian codim-2 subalgebra, vectors 'a,b,..;c,d,..'")
    p.add_argument("--nilradical", help="nilradical candidate, checked against the exact nilradical")

    p = add("verify-theorem", "check every claim of the branch classify matched", _cmd_verify_theorem)
    p.add_argument("file")

    p = add("make", "construct a family instance and emit its document", _cmd_make)
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
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

    p = add("random", "seeded random family instance, optionally disguised", _cmd_random)
    p.add_argument("--family", required=True,
                   choices=[name for name, (_, _, draw) in _FAMILIES.items() if draw])
    p.add_argument("--field", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--plus-abelian", type=int, default=0, metavar="K")
    p.add_argument("--basis-change", action="store_true")
    p.add_argument("-o", "--output")

    p = add("iso", "brute-force isomorphism search between two documents", _cmd_iso)
    p.add_argument("file1")
    p.add_argument("file2")

    p = add("fitting", "split L = L0 (+) L1 under an abelian subalgebra", _cmd_fitting)
    p.add_argument("file")
    p.add_argument("--witness", required=True)

    p = add("quotient", "quotient by a two-sided ideal", _cmd_quotient)
    p.add_argument("file")
    p.add_argument("--ideal", required=True)
    p.add_argument("-o", "--output")

    p = add("solvability", "confirm solvability from an abelian codim-2 ideal", _cmd_solvability)
    p.add_argument("file")
    p.add_argument("--witness")

    p = add("selftest", "run the condensed property suites", _cmd_selftest)
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
        return args.handler(args)
    except BudgetExceededError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except (UsageError, DocumentError, FieldMismatchError) as exc:
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
