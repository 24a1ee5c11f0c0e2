"""Condensed property suite runnable from the CLI.

Mirrors the randomized/property checks of the pytest suite in a
self-contained form so `selftest` can certify an installation without the
test tree.  All randomness flows from the given seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._kernel import MODE_ABELIAN, MODE_IDEAL, scan_subspaces
from .algebra import (
    AlgebraTable,
    _is_frame,
    center,
    change_of_basis,
    is_leibniz,
    is_lie,
    product_space,
    quotient,
    squares_ideal,
    subalgebra_table,
)
from .catalog import standard_fixtures
from .classify import Case, classify, verify_main_theorem
from .errors import BudgetExceededError
from .families import _skew_table, oscillator, raw_pair_table
from .fields import GF, QQ
from .invariants import _trace_kernel, nilradical, series, verify_nilradical_candidate
from .linalg import (
    Matrix,
    QuadraticPoly,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    is_irreducible_quadratic,
    rref,
    subspace_intersect,
    subspace_sum,
)
from .search import (
    DEFAULT_SCAN_BUDGET,
    _request,
    _scan_dim,
    alpha,
    alpha_beta,
    beta,
    iso_search,
    table_flat,
)

CHECKS = []


def _check(name):
    def deco(fn):
        CHECKS.append((name, fn))
        return fn

    return deco


def _rand_scalar(F, rng):
    if F.is_prime_field:
        return F.of(rng.randrange(F.p))
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _rand_matrix(F, rows, cols, rng):
    return Matrix(F, [[_rand_scalar(F, rng) for _ in range(cols)] for _ in range(rows)])


def _rand_invertible(F, n, rng):
    while True:
        M = _rand_matrix(F, n, n, rng)
        if M.is_invertible():
            return M


@_check("field axioms on random scalar triples")
def _field_axioms(rng, fast):
    count = 200 if fast else 1000
    for F in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(count):
            a, b, c = (_rand_scalar(F, rng) for _ in range(3))
            if F.add(F.add(a, b), c) != F.add(a, F.add(b, c)):
                return "additive associativity failed over %r" % F
            if F.mul(F.mul(a, b), c) != F.mul(a, F.mul(b, c)):
                return "multiplicative associativity failed over %r" % F
            if F.mul(a, F.add(b, c)) != F.add(F.mul(a, b), F.mul(a, c)):
                return "distributivity failed over %r" % F
            if a != F.zero and F.mul(a, F.inv(a)) != F.one:
                return "inverse failed over %r" % F
    return None


@_check("rref idempotence and rank invariance under row shuffles")
def _rref_props(rng, fast):
    count = 20 if fast else 60
    for F in (QQ, GF(2), GF(3)):
        for _ in range(count):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            M = _rand_matrix(F, rows, cols, rng)
            R, rank = rref(M)
            R2, rank2 = rref(R)
            if R2 != R or rank2 != rank:
                return "rref not idempotent over %r" % F
            perm = list(range(rows))
            rng.shuffle(perm)
            Ms = Matrix(F, [M.data[i] for i in perm])
            if rref(Ms)[1] != rank:
                return "rank changed under row shuffle over %r" % F
    return None


@_check("dimension formula dim U + dim V = dim(U+V) + dim(U^V)")
def _grassmann(rng, fast):
    count = 30 if fast else 120
    for F in (GF(2), GF(3)):
        for _ in range(count):
            n = rng.randint(1, 6)
            U = Subspace.from_vectors(
                F, n, [[rng.randrange(F.p) for _ in range(n)] for _ in range(rng.randint(0, n))]
            )
            V = Subspace.from_vectors(
                F, n, [[rng.randrange(F.p) for _ in range(n)] for _ in range(rng.randint(0, n))]
            )
            if U.dim + V.dim != subspace_sum(U, V).dim + subspace_intersect(U, V).dim:
                return "dimension formula failed over %r" % F
    return None


@_check("subspace stream counts match gaussian binomials")
def _counts(rng, fast):
    top = 4 if fast else 5
    for p in (2, 3):
        F = GF(p)
        for n in range(top + 1):
            for d in range(n + 1):
                got = sum(1 for _ in enumerate_subspaces(n, d, F))
                if got != gaussian_binomial(n, d, p):
                    return "count mismatch for (n=%d, d=%d, p=%d)" % (n, d, p)
    return None


@_check("quadratic irreducibility agrees with exhaustive factorization")
def _irred(rng, fast):
    for p in (2, 3, 5):
        F = GF(p)
        for c1 in range(p):
            for c0 in range(p):
                q = QuadraticPoly(c1, c0)
                splits = any(
                    (r + s) % p == (p - c1) % p and (r * s) % p == c0
                    for r in range(p)
                    for s in range(p)
                )
                if is_irreducible_quadratic(q, F) == splits:
                    return "irreducibility mismatch for t^2+%dt+%d over GF(%d)" % (c1, c0, p)
    return None


@_check("pair-action table is Leibniz exactly when the parameters commute")
def _pair_biconditional(rng, fast):
    count = 50 if fast else 200
    for F, cnt in ((GF(5), count), (QQ, count // 4)):
        for _ in range(cnt):
            lam = _rand_matrix(F, 2, 2, rng)
            mu = _rand_matrix(F, 2, 2, rng)
            commute = (lam @ mu) == (mu @ lam)
            if is_leibniz(raw_pair_table(lam, mu, F)) != commute:
                return "biconditional failed over %r" % F
    return None


@_check("fixture sanity: squares span annihilates, Lie iff skew, series flags")
def _fixture_sanity(rng, fast):
    for F in (GF(3), QQ):
        for L in standard_fixtures(F):
            if not is_leibniz(L):
                return "fixture %s is not Leibniz over %r" % (L.name, F)
            IL = squares_ideal(L)
            full = L.full_space()
            if not product_space(L, IL, full).is_zero():
                return "[squares span, L] != 0 for %s" % L.name
            rep = series(L)
            if rep.nilpotent and not rep.solvable:
                return "nilpotent but not solvable: %s" % L.name
            Q, _ = quotient(L, IL)
            if not is_leibniz(Q):
                return "quotient by squares span broke the Leibniz rule: %s" % L.name
    return None


@_check("change of basis preserves invariant dimensions; the frame check agrees with it")
def _cob_invariance(rng, fast):
    F = GF(3)
    count = 3 if fast else 8
    for L in standard_fixtures(F):
        if L.dim == 0:
            continue
        rep = series(L)
        for _ in range(count):
            P = _rand_invertible(F, L.dim, rng)
            M = change_of_basis(L, P)
            i, j, k = (rng.randrange(L.dim) for _ in range(3))
            c = [[list(v) for v in row] for row in M.c]
            c[i][j][k] = F.add(c[i][j][k], F.one)
            if not _is_frame(L, P, M) or _is_frame(L, P, AlgebraTable(F, c)):
                return "the frame check disagrees with change_of_basis: %s" % L.name
            if not is_leibniz(M):
                return "basis change broke the Leibniz rule: %s" % L.name
            if is_lie(M) != is_lie(L):
                return "basis change flipped the Lie flag: %s" % L.name
            if center(M).dim != center(L).dim:
                return "basis change moved the center dimension: %s" % L.name
            if series(M).derived_dims != rep.derived_dims:
                return "basis change moved derived dimensions: %s" % L.name
    return None


@_check("oscillator scan: alpha 2, beta 1; search agrees after disguise")
def _oscillator_scan(rng, fast):
    F = GF(3)
    O = oscillator(F)
    if alpha(O).alpha != 2 or beta(O).beta != 1:
        return "oscillator alpha/beta wrong"
    P = _rand_invertible(F, 4, rng)
    D = change_of_basis(O, P)
    if alpha(D).alpha != 2 or beta(D).beta != 1:
        return "disguised oscillator alpha/beta wrong"
    if not iso_search(O, D).isomorphic:
        return "disguised oscillator not recognized"
    return None


@_check("trace-form cut leaves abelian-ideal scans unchanged, before and after disguise")
def _trace_cut(rng, fast):
    F = GF(3)
    mode = MODE_ABELIAN | MODE_IDEAL
    for L0 in standard_fixtures(F, max_dim=4 if fast else 5):
        for L in (L0, change_of_basis(L0, _rand_invertible(F, L0.dim, rng))):
            n, table, funcs = L.dim, table_flat(L), _trace_kernel(L)._annihilator()._rows
            for d in range(n + 1):
                cut = scan_subspaces(table, n, F.p, d, mode, -1, -1, funcs)
                if cut != scan_subspaces(table, n, F.p, d, mode, -1, -1):
                    return "the cut changed the dimension-%d scan of %s" % (d, L0.name)
    return None


@_check("center cut leaves alpha's stratum scans unchanged, before and after disguise")
def _center_cut(rng, fast):
    F = GF(3)
    for L0 in standard_fixtures(F, max_dim=4 if fast else 5):
        for L in (L0, change_of_basis(L0, _rand_invertible(F, L0.dim, rng))):
            n, table, d = L.dim, table_flat(L), alpha(L).alpha
            cut = scan_subspaces(table, n, F.p, d, MODE_ABELIAN, -1, -1, (), center(L)._rows)
            if cut != scan_subspaces(table, n, F.p, d, MODE_ABELIAN, -1, -1):
                return "the center cut changed the dimension-%d scan of %s" % (d, L0.name)
    return None


def _walked(L, mode):
    """(d, witness, scanned) of the first stratum, from n down, holding a
    subspace of `mode`, by the stratum walk."""
    total = 0
    with _request(DEFAULT_SCAN_BUDGET):
        for d in range(L.dim, -1, -1):
            scanned, subs = _scan_dim(L, d, mode, 1)
            total += scanned
            if subs:
                return d, subs[0], total
    return None


@_check("alpha from one structure slice and beta from the center and trace kernel equal the "
        "stratum walks, before and after disguise")
def _stratum_walks(rng, fast):
    F = GF(3)
    for L0 in standard_fixtures(F, max_dim=4 if fast else 5):
        for L in (L0, change_of_basis(L0, _rand_invertible(F, L0.dim, rng))):
            a, b = alpha(L), beta(L)
            if (a.alpha, a.alpha_witness, a.scanned) != _walked(L, MODE_ABELIAN):
                return "alpha of %s differs from the stratum walk" % L0.name
            if (b.beta, b.beta_witness, b.scanned) != _walked(L, MODE_ABELIAN | MODE_IDEAL):
                return "beta of %s differs from the stratum walk" % L0.name
    return None


@_check(
    "nilradical is the sum of the nilpotent ideals, also as classify caches it; "
    "the nilradical check is exact"
)
def _nilradical(rng, fast):
    F = GF(3)
    # x acting as the identity on F^3: every trace is 0, so the trace kernel
    # is the whole algebra, which is not nilpotent.  Where classify reports
    # the nilradical (alpha = n-2, no abelian ideal from the search), it
    # leaves it in the cache of a fresh copy of the table, entered by a
    # matched frame or by the certificate
    e = [tuple(int(i == j) for i in range(4)) for j in range(4)]
    identity = _skew_table(F, 4, {(0, j): e[j] for j in (1, 2, 3)}, "identity-action-3")
    for L0 in [*standard_fixtures(F, max_dim=4 if fast else 5), identity]:
        for L in (L0, change_of_basis(L0, _rand_invertible(F, L0.dim, rng))):
            total = Subspace.zero(F, L.dim)
            with _request(DEFAULT_SCAN_BUDGET):
                for d in range(1, L.dim + 1):
                    for U in _scan_dim(L, d, MODE_IDEAL, -1)[1]:
                        if series(subalgebra_table(L, U)).nilpotent:
                            total = subspace_sum(total, U)
            N = nilradical(L)
            if N != total:
                return "the nilradical of %s is not the sum of its nilpotent ideals" % L0.name
            M = AlgebraTable(F, L.c)
            if "dim_nilradical" in classify(M).diagnostics and M._cache.get("nilradical") != total:
                return "classify of %s caches a nilradical that is not the sum" % L0.name
            for U in (N, center(L), L.full_space()):
                if verify_nilradical_candidate(L, U) is not (U == N):
                    return "the nilradical check misjudges %r for %s" % (U, L0.name)
    return None


def _alpha_beta_exceeds(L, budget) -> bool:
    try:
        alpha_beta(L, budget=budget)
    except BudgetExceededError:
        return True
    return False


@_check("one budget bounds a whole request: alpha_beta within S, not S-1")
def _one_budget(rng, fast):
    F = GF(3)
    for L in standard_fixtures(F, max_dim=4 if fast else 5):
        if L.dim < 2 or alpha(L).alpha != L.dim - 2:
            continue
        S = alpha_beta(L).scanned
        if S != alpha(L).scanned + beta(L).scanned:
            return "alpha_beta of %s did not count its alpha and beta scans" % L.name
        if _alpha_beta_exceeds(L, S) or not _alpha_beta_exceeds(L, S - 1):
            return "alpha_beta of %s scans %d subspaces, but that is not its budget" % (L.name, S)
    return None


@_check("classifier verdicts on the fixture sweep")
def _classify_sweep(rng, fast):
    # classify proves alpha = n-2 by an abelian ideal before any walk; its
    # alpha must be the one `alpha` walks for, disguised or not
    F = GF(3)
    for L0 in standard_fixtures(F, max_dim=4 if fast else 5):
        for L in (L0, change_of_basis(L0, _rand_invertible(F, L0.dim, rng))):
            v = classify(L)
            if v.diagnostics["alpha"] != alpha(L).alpha:
                return "classify and alpha disagree on alpha for %s" % L0.name
            if v.case is Case.NOT_APPLICABLE:
                continue
            rep = verify_main_theorem(L)
            if not rep.ok:
                bad = [c.name for c in rep.claims if c.status == "fail"]
                return "theorem claims failed for %s: %s" % (L0.name, bad)
    return None


def run_selftest(seed: int = 0, fast: bool = False) -> bool:
    rng = random.Random(seed)
    ok = True
    for name, fn in CHECKS:
        failure = fn(rng, fast)
        if failure is None:
            print("[PASS] %s" % name)
        else:
            print("[FAIL] %s: %s" % (name, failure))
            ok = False
    return ok
