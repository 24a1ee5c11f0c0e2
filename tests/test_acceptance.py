"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Every expected value is either taken from the quoted product tables the
constructors reproduce, or recomputed here by an independent route
(exhaustive scans, explicit series, hand-checked witnesses) before being
asserted.
"""

import random

from leibniz_algebras.algebra import (
    center,
    change_of_basis,
    direct_sum,
    is_abelian_subspace,
    is_ideal,
    is_leibniz,
    is_subalgebra,
    mult_operator,
    product_space,
    subalgebra_table,
)
from leibniz_algebras.catalog import (
    heisenberg_rotation_extension,
    standard_fixtures,
)
from leibniz_algebras.classify import Case, classify, solvability_from_codim2_ideal
from leibniz_algebras.families import (
    abelian_algebra,
    heisenberg,
    make_a,
    make_c,
    raw_pair_table,
    span_equivalent_iso,
)
from leibniz_algebras.fields import GF, QQ
from leibniz_algebras.invariants import (
    check_annihilator_bound,
    fitting_decomposition,
    series,
)
from leibniz_algebras.linalg import (
    Matrix,
    Subspace,
    subspace_intersect,
    subspace_sum,
)
from leibniz_algebras.search import (
    all_abelian_ideals,
    all_abelian_subalgebras,
    alpha,
    beta,
    is_maximal_subalgebra,
    iso_search,
)

F2, F3, F5 = GF(2), GF(3), GF(5)
ROT3 = Matrix(F3, [[0, 1], [2, 0]])
SEED = 74207281


def _report(name):
    print("[PASS] %s" % name)


def _rand_matrix2(F, rng):
    if F.is_prime_field:
        entries = [rng.randrange(F.p) for _ in range(4)]
    else:
        from fractions import Fraction

        entries = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(4)]
    return Matrix(F, [entries[:2], entries[2:]])


def _rand_invertible(F, n, rng):
    while True:
        M = Matrix(F, [[rng.randrange(F.p) for _ in range(n)] for _ in range(n)])
        if M.is_invertible():
            return M


def test_criterion_pair_table_leibniz_biconditional():
    rng = random.Random(SEED)
    mismatches = 0
    for field, count in ((F5, 200), (QQ, 50)):
        for _ in range(count):
            lam = _rand_matrix2(field, rng)
            mu = _rand_matrix2(field, rng)
            commute = (lam @ mu) == (mu @ lam)
            if is_leibniz(raw_pair_table(lam, mu, field)) != commute:
                mismatches += 1
    assert mismatches == 0
    _report(
        "pair-table Leibniz biconditional: 200 GF(5) + 50 rational samples, 0 mismatches"
    )


def test_criterion_oscillator_alpha_beta():
    from leibniz_algebras.families import oscillator

    O = oscillator(F3)
    ra, rb = alpha(O), beta(O)
    assert ra.alpha == 2 and ra.exhaustive
    assert rb.beta == 1 and rb.exhaustive
    assert is_abelian_subspace(O, ra.alpha_witness) and is_subalgebra(O, ra.alpha_witness)
    assert is_abelian_subspace(O, rb.beta_witness) and is_ideal(O, rb.beta_witness)
    _report("oscillator over GF(3): exhaustive scan gives alpha = 2, beta = 1")


def test_criterion_pair_action_dimension_claims():
    for k in (0, 1, 2):
        L = make_a(Matrix.identity(F3, 2), ROT3, F3)
        if k:
            L = direct_sum(L, abelian_algebra(k, F3))
        n = L.dim
        res = beta(L)
        assert res.beta == n - 2
        CL = center(L)
        L2 = product_space(L, L.full_space(), L.full_space())
        assert res.beta_witness == subspace_sum(CL, L2)
        assert CL.dim == n - 4
        assert series(L).derived_length == 2
    _report(
        "pair action with irreducible parameter: beta = n-2 realized by center + derived "
        "subalgebra, center dim n-4, derived length 2, for k in {0,1,2}"
    )


def test_criterion_heisenberg_extension_lie_case():
    L = make_c(ROT3, F3)
    rep = series(L)
    assert rep.derived_length == 3
    L2 = product_space(L, L.full_space(), L.full_space())
    assert L2.dim == 3
    assert iso_search(subalgebra_table(L, L2), heisenberg(F3)).isomorphic
    assert beta(L).beta == 1
    ideals = all_abelian_ideals(L, 1)
    assert len(ideals) == 1
    assert ideals[0] == center(L)
    _report(
        "rotation instance of the central-extension family: derived length 3, "
        "derived subalgebra is a Heisenberg algebra (iso_search), beta = 1 with "
        "a unique maximal abelian ideal equal to the center"
    )


def test_criterion_nonlie_extension_classifies_as_case3():
    L = heisenberg_rotation_extension(F3)
    v = classify(L)
    assert v.case is Case.CASE3_E
    N = v.witness["nilradical"]
    assert N.dim == 3
    assert iso_search(subalgebra_table(L, N), heisenberg(F3)).isomorphic
    assert beta(L).beta == 1
    T = subalgebra_table(L, N)
    CN = Subspace.from_vectors(
        F3, 4, [_ambient(N, row) for row in center(T).basis.data]
    )
    ideals = all_abelian_ideals(L, 1)
    assert ideals == [CN]
    _report(
        "non-Lie heisenberg extension: Case3_e with 3-dim heisenberg nilradical, "
        "beta = 1, unique maximal abelian ideal = center of the nilradical"
    )


def _ambient(W, coords):
    F = W.field
    v = [F.zero] * W.ambient_dim
    for c, row in zip(coords, W.basis.data):
        if c != F.zero:
            v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
    return tuple(v)


def test_criterion_codim2_abelian_ideal_implies_solvable():
    count = 0
    for L in standard_fixtures(F3, max_dim=5):
        try:
            ok = solvability_from_codim2_ideal(L)
        except ValueError:
            continue  # no qualifying ideal
        assert ok
        rep = series(L)
        assert rep.solvable and rep.derived_length <= 3
        count += 1
    assert count >= 10
    _report(
        "every fixture with an abelian codim-2 ideal is solvable with derived "
        "length <= 3 (%d fixtures)" % count
    )


def test_criterion_annihilator_bound_sweep():
    violations = 0
    checked = 0
    for F in (F2, F3):
        for L in standard_fixtures(F, max_dim=5):
            if L.dim == 0:
                continue
            a = alpha(L).alpha
            if L.dim - a < 2:
                continue  # the bound's derivation needs codimension >= 2
            for A in all_abelian_subalgebras(L, a):
                if not is_maximal_subalgebra(L, A):
                    continue
                holds, lhs, rhs = check_annihilator_bound(L, A)
                checked += 1
                if not holds:
                    violations += 1
    assert checked >= 10 and violations == 0
    _report(
        "annihilator bound holds for every scanned maximal abelian subalgebra "
        "of maximal dimension over GF(2)/GF(3) (%d pairs, 0 violations)" % checked
    )


def test_criterion_fitting_split_on_scanned_subalgebras():
    pairs = 0
    for L in standard_fixtures(F3, max_dim=5):
        n = L.dim
        for d in range(max(0, n - 2), n + 1):
            for A in all_abelian_subalgebras(L, d):
                split = fitting_decomposition(L, A)
                assert split.L0.dim + split.L1.dim == n
                assert subspace_intersect(split.L0, split.L1).is_zero()
                assert product_space(L, A, split.L1) == split.L1
                for a in A.basis.data:
                    op = mult_operator(L, a, "left")
                    W = split.L0
                    for _ in range(n):
                        W = Subspace.from_vectors(
                            F3, n, [op.apply_col(v) for v in W.basis.data]
                        )
                    assert W.is_zero()
                pairs += 1
    _report(
        "fitting split is direct with [A, L1] = L1 and nilpotent action on L0 "
        "for every scanned abelian subalgebra of codim <= 2 (%d pairs)" % pairs
    )


def test_criterion_basis_invariance_of_verdicts():
    rng = random.Random(SEED)
    fixtures = [
        make_a(Matrix.identity(F3, 2), ROT3, F3),
        make_c(ROT3, F3),
        heisenberg_rotation_extension(F3),
    ]
    from leibniz_algebras.families import make_d, oscillator

    fixtures += [make_d(ROT3, F3), oscillator(F3)]
    for L in fixtures:
        base = classify(L)
        for _ in range(100):
            P = _rand_invertible(F3, L.dim, rng)
            v = classify(change_of_basis(L, P))
            assert v.case is base.case
            assert v.chi == base.chi
    _report(
        "100 seeded basis changes per classified fixture reproduce identical "
        "case tags and canonical chi diagnostics"
    )


def test_criterion_span_equivalence_maps():
    rng = random.Random(SEED)
    for _ in range(100):
        lam = _rand_matrix2(F3, rng)
        mu = _rand_matrix2(F3, rng)
        C = _rand_invertible(F3, 2, rng)
        lam2 = lam.scale(C.data[0][0]) + mu.scale(C.data[0][1])
        mu2 = lam.scale(C.data[1][0]) + mu.scale(C.data[1][1])
        P = span_equivalent_iso(lam, mu, lam2, mu2)
        assert P is not None
        T1 = raw_pair_table(lam, mu, F3)
        T2 = raw_pair_table(lam2, mu2, F3)
        assert change_of_basis(T2, P).c == T1.c
    _report(
        "span-equivalent parameter pairs: 100 seeded samples transported "
        "bit-exactly by the explicit map"
    )


def test_criterion_totality_sweep():
    classified = 0
    for L in standard_fixtures(F3, max_dim=5):
        v = classify(L)  # a ConsistencyError here would fail the criterion
        if v.case is Case.NOT_APPLICABLE:
            assert alpha(L).alpha != L.dim - 2
        else:
            classified += 1
    assert classified >= 10
    _report(
        "totality: every GF(3) fixture with alpha = n-2 receives a classification "
        "case (%d classified, no internal-inconsistency errors)" % classified
    )
