import random
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leibniz_algebras import algebra, invariants, search
from leibniz_algebras.algebra import (
    AlgebraTable,
    center,
    change_of_basis,
    direct_sum,
    is_abelian_subspace,
    is_ideal,
    is_lie,
    product_space,
    quotient,
    subalgebra_table,
)
from leibniz_algebras.catalog import (
    heisenberg_rotation_extension,
    nonideal_codim2_example,
    rotation_2x2,
    standard_fixtures,
)
from leibniz_algebras.classify import (
    Case,
    _codim2_abelian_ideal_qq,
    _derived_subalgebra,
    _heisenberg_frame,
    _match_case1,
    _match_case2,
    _match_case3,
    _squarefree_part,
    canonical_quadratic,
    classify,
    solvability_from_codim2_ideal,
    verify_main_theorem,
)
from leibniz_algebras.errors import BudgetExceededError
from leibniz_algebras.families import (
    abelian_algebra,
    heisenberg,
    make_a,
    make_b,
    make_c,
    make_d,
    make_e,
    oscillator,
)
from leibniz_algebras.fields import GF, QQ, is_prime
from leibniz_algebras.invariants import _trace_kernel, nilradical, series, verify_nilradical_candidate
from leibniz_algebras.linalg import (
    Matrix,
    QuadraticPoly,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    is_irreducible_quadratic,
)
from leibniz_algebras.search import (
    _first_in_strata,
    all_abelian_ideals,
    all_abelian_subalgebras,
    alpha,
    beta,
)
from leibniz_algebras.serialize import parse_algebra

from conftest import (
    F2,
    F3,
    F5,
    F7,
    carried,
    central_extensions,
    cycle_actions,
    family_algebras,
    identity_actions,
    left_only_actions,
    one_budget_algebras,
    one_dimensional_extensions,
    rand_invertible,
    rational_change,
    rot_swap_extension,
    rotext_with_center_candidate,
    scanned_by,
)

ROT3 = Matrix(F3, [[0, 1], [2, 0]])
ROTQ = Matrix(QQ, [[0, 1], [-1, 0]])


def span(F, n, *vecs):
    return Subspace.from_vectors(F, n, vecs)


# -- canonical diagnostics ---------------------------------------------------


def test_canonical_quadratic_gf():
    # (c1, c0) ~ (s c1, s^2 c0); over GF(3) squares are {1}, so scaling the
    # linear term can still lower the tuple
    q = canonical_quadratic(F3, QuadraticPoly(2, 1))
    assert (q.c1, q.c0) == (1, 1)
    q = canonical_quadratic(F3, QuadraticPoly(0, 2))
    assert (q.c1, q.c0) == (0, 2)
    F5 = GF(5)
    q = canonical_quadratic(F5, QuadraticPoly(0, 4))
    assert (q.c1, q.c0) == (0, 1)  # 4 = 2^2 * 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_canonical_quadratic_is_the_least_rescaling(p):
    # the definition: the least (s*c1, s^2*c0) over every nonzero s
    F = GF(p)
    for c1 in range(p):
        for c0 in range(p):
            least = min((s * c1 % p, s * s * c0 % p) for s in range(1, p))
            q = canonical_quadratic(F, QuadraticPoly(c1, c0))
            assert (q.c1, q.c0) == least


def test_canonical_quadratic_qq():
    q = canonical_quadratic(QQ, QuadraticPoly(QQ.of(3), QQ.of(18)))
    assert (q.c1, q.c0) == (1, 2)
    q = canonical_quadratic(QQ, QuadraticPoly(QQ.of(0), QQ.of("8/9")))
    assert (q.c1, q.c0) == (0, 2)  # squarefree part of 8*9 = 72 is 2
    q = canonical_quadratic(QQ, QuadraticPoly(QQ.of(0), QQ.of(-4)))
    assert (q.c1, q.c0) == (0, -1)


def squarefree_part_to_the_square_root(n):
    # trial division up to the square root of the cofactor, as before the
    # cube-root bound
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return out * n


def test_squarefree_part_stops_at_the_cube_root():
    for n in range(1, 200_000):
        assert _squarefree_part(n) == squarefree_part_to_the_square_root(n)
    # products of prime powers, whose squarefree part is known: the cofactor
    # left at the cube root is 1, q, q^2 or q q'
    rng = random.Random(2024)
    primes = [q for q in range(2, 2000) if is_prime(q)]
    for _ in range(2000):
        factors = {rng.choice(primes): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}
        n, want = 1, 1
        for q, e in factors.items():
            n *= q**e
            want *= q if e % 2 else 1
        assert _squarefree_part(n) == want
    # two primes near 10^7: 46,000 trial divisions, where there were
    # 3 million before
    assert _squarefree_part(10000079 * 10000019) == 10000079 * 10000019


def test_field_admits_irreducible_quadratic():
    # no supported field is quadratically closed, so verify_main_theorem
    # reports its quadratically-closed corollary as n/a on every field
    for p in (2, 3, 5, 7):
        F = GF(p)
        assert any(
            is_irreducible_quadratic(QuadraticPoly(F.of(c1), F.of(c0)), F)
            for c1 in range(p)
            for c0 in range(p)
        )
    assert is_irreducible_quadratic(QuadraticPoly(QQ.of(0), QQ.of(-2)), QQ)


# -- classify over GF(3) --------------------------------------------------------


def test_classify_case0_pair_action():
    L = make_a(Matrix.identity(F3, 2), ROT3, F3)
    v = classify(L)
    assert v.case is Case.ABELIAN_IDEAL_CODIM_LE2
    W = v.witness["abelian_ideal"]
    assert W == span(F3, 4, (0, 0, 1, 0), (0, 0, 0, 1))
    CL = center(L)
    L2 = product_space(L, L.full_space(), L.full_space())
    from leibniz_algebras.linalg import subspace_sum

    assert W == subspace_sum(CL, L2)


def test_classify_case1_rotation_c():
    L = make_c(ROT3, F3)
    v = classify(L)
    assert v.case is Case.CASE1_C
    assert (v.chi.c1, v.chi.c0) == (0, 1)
    assert v.diagnostics["dim_center"] == 1
    assert change_of_basis(L, v.witness["frame"]).c == v.witness["model"].c


def test_classify_case2_simple():
    for m in (ROT3, Matrix(F3, [[1, 0], [0, 2]])):
        for k in (0, 1, 2):
            L = make_d(m, F3)
            if k:
                L = direct_sum(L, abelian_algebra(k, F3))
            v = classify(L)
            assert v.case is Case.CASE2_D
            assert change_of_basis(L, v.witness["frame"]).c == v.witness["model"].c


def test_classify_case3_rotation_extension():
    L = heisenberg_rotation_extension(F3)
    v = classify(L)
    assert v.case is Case.CASE3_E
    N = v.witness["nilradical"]
    assert N.dim == 3
    assert N == span(F3, 4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert beta(L).beta == 1
    # the unique maximal abelian ideal is the center of the nilradical
    ideals = all_abelian_ideals(L, 1)
    assert ideals == [span(F3, 4, (0, 0, 1, 0))]
    T = subalgebra_table(L, N)
    assert center(T).dim == 1
    assert change_of_basis(L, v.witness["frame"]).c == v.witness["model"].c


def test_classify_case3_extracted_extension_data():
    L = heisenberg_rotation_extension(F3)
    v = classify(L)
    phi, theta = v.witness["phi"], v.witness["theta"]
    # right action induces the negative of the left action on N / C(N)
    star = v.witness["induced_action"]
    minus = star.scale(F3.neg(F3.one))
    theta_star = Matrix(
        F3, [[theta.data[0][0], theta.data[0][1]], [theta.data[1][0], theta.data[1][1]]]
    )
    assert theta_star == minus
    assert v.witness["v"] != (0, 0, 0)  # the extending generator has nonzero square


def test_classify_not_applicable():
    assert classify(heisenberg(F3)).case is Case.NOT_APPLICABLE
    assert classify(abelian_algebra(4, F3)).case is Case.NOT_APPLICABLE


def test_classify_rejects_char2():
    with pytest.raises(ValueError):
        classify(heisenberg(GF(2)))


def test_classify_oscillator_shares_the_rotation_c_table():
    # the oscillator *is* the rotation instance of the c family, so the
    # classifier must give both the same (Case1_c) verdict
    O = oscillator(F3)
    C = make_c(ROT3, F3)
    assert O.c == C.c
    vo, vc = classify(O), classify(C)
    assert vo.case is vc.case is Case.CASE1_C
    assert vo.chi == vc.chi


def test_classify_totality_on_fixture_sweep():
    for L in standard_fixtures(F3, max_dim=5):
        v = classify(L)  # must never raise ConsistencyError
        if v.case is Case.NOT_APPLICABLE:
            assert alpha(L).alpha != L.dim - 2
        else:
            assert alpha(L).alpha == L.dim - 2


def test_classify_basis_invariance(rng):
    fixtures = [
        make_c(ROT3, F3),
        make_d(ROT3, F3),
        heisenberg_rotation_extension(F3),
        make_a(Matrix.identity(F3, 2), ROT3, F3),
    ]
    for L in fixtures:
        base = classify(L)
        for _ in range(10):
            P = rand_invertible(F3, L.dim, rng)
            v = classify(change_of_basis(L, P))
            assert v.case is base.case
            assert v.chi == base.chi


# -- classify over the rationals ---------------------------------------------------


def test_classify_qq_requires_witness():
    with pytest.raises(ValueError):
        classify(make_c(ROTQ, QQ))


def test_classify_qq_case0_via_witness():
    L = make_a(Matrix.identity(QQ, 2), ROTQ, QQ)
    A = span(QQ, 4, (1, 0, 0, 0), (0, 1, 0, 0))
    v = classify(L, A=A)
    assert v.case is Case.ABELIAN_IDEAL_CODIM_LE2


def test_classify_qq_case0_nonideal_witness():
    L = nonideal_codim2_example(QQ)
    A = span(QQ, 4, (0, 1, 0, 0), (0, 0, 1, 0))
    v = classify(L, A=A)
    assert v.case is Case.ABELIAN_IDEAL_CODIM_LE2
    W = v.witness["abelian_ideal"]
    assert is_ideal(L, W) and is_abelian_subspace(L, W) and W.codim == 2


def test_classify_qq_case1():
    L = make_c(ROTQ, QQ)
    A = span(QQ, 4, (1, 0, 0, 0), (0, 1, 0, 0))
    v = classify(L, A=A)
    assert v.case is Case.CASE1_C
    assert (v.chi.c1, v.chi.c0) == (0, 1)


def test_classify_qq_case2():
    L = make_d(ROTQ, QQ)
    A = span(QQ, 3, (1, 0, 0))
    v = classify(L, A=A)
    assert v.case is Case.CASE2_D


def test_classify_qq_case3_without_nilradical_candidate():
    # the exact nilradical over QQ recognizes the extension case from the
    # abelian witness alone, and a supplied candidate must equal it
    L = heisenberg_rotation_extension(QQ)
    A = span(QQ, 4, (0, 1, 0, 0), (0, 0, 1, 0))
    N = span(QQ, 4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    v = classify(L, A=A)
    assert v.case is Case.CASE3_E
    assert v.witness["nilradical"] == N and v.diagnostics["dim_nilradical"] == 3
    assert change_of_basis(L, v.witness["frame"]).c == v.witness["model"].c
    assert classify(L, A=A, nilradical_candidate=N) == v


def test_case3_model_inherits_the_leibniz_check(monkeypatch, rng):
    # the Case3_e model is L in the frame basis and L passed the Leibniz
    # check, so classify runs the check's core on no table, the model
    # included, and the model still reads as Leibniz
    cached = algebra.leibniz_failure
    cell = next(c for c in cached.__closure__ if c.cell_contents is cached.__wrapped__)
    core = cell.cell_contents
    runs = []
    monkeypatch.setattr(cell, "cell_contents", lambda L: runs.append(L) or core(L))
    for F, A in ((F3, None), (F7, None), (QQ, span(QQ, 4, (0, 1, 0, 0), (0, 0, 1, 0)))):
        L = heisenberg_rotation_extension(F)
        if A is None:
            L = change_of_basis(L, rand_invertible(F, 4, rng))
        assert algebra.is_leibniz(L) and runs[-1] is L
        checked = len(runs)
        v = classify(L, A=A)
        assert v.case is Case.CASE3_E and len(runs) == checked, F
        assert algebra.is_leibniz(v.witness["model"]) and len(runs) == checked, F


def _diag_e(F):
    """e(diag(1, 2, 3), -diag(1, 2, 3), 0, 4) on (x, u, w, z): x acts on
    N / C(N) = span(u, w) by diag(1, 2), which is reducible."""
    d = Matrix(F, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    return make_e(d, -d, (0, 0, 0), 4, F)


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_case3_reducible_action_is_an_abelian_ideal_over_qq(seed):
    # no candidate from the witness span(u + w, z) is an ideal; C(N) plus
    # an eigenline of the action on span(u, w) is
    L = _diag_e(QQ)
    rows = [(0, 1, 1, 0), (0, 0, 0, 1)]
    if seed is not None:
        P = rational_change(4, random.Random(seed))
        L = change_of_basis(L, P)
        rows = carried(P, rows)
    v = classify(L, A=span(QQ, 4, *rows))
    assert v.case is Case.ABELIAN_IDEAL_CODIM_LE2
    W = v.witness["abelian_ideal"]
    assert W.codim == 2 and is_abelian_subspace(L, W) and is_ideal(L, W)
    assert classify(_diag_e(F7)).case is Case.ABELIAN_IDEAL_CODIM_LE2


def test_case3_where_the_trace_kernel_is_everything():
    N_rows = [tuple(int(i == j) for i in range(6)) for j in range(1, 6)]
    for F in (QQ, F3):
        L = rot_swap_extension(F)
        assert _trace_kernel(L) == L.full_space()
        A = span(F, 6, *(N_rows[i] for i in (0, 2, 3, 4))) if F == QQ else None
        v = classify(L, A=A)
        assert v.case is Case.CASE3_E
        assert (v.chi.c1, v.chi.c0) == (0, 1)
        assert v.witness["nilradical"] == span(F, 6, *N_rows)
        assert change_of_basis(L, v.witness["frame"]).c == v.witness["model"].c


def test_classify_qq_rejects_bad_nilradical_candidate():
    L = heisenberg_rotation_extension(QQ)
    A = span(QQ, 4, (0, 1, 0, 0), (0, 0, 1, 0))
    with pytest.raises(ValueError):
        classify(L, A=A, nilradical_candidate=L.full_space())


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_case1_reducible_chi_is_an_abelian_ideal_over_qq(seed):
    # c(diag(1, -1)) on (a, z, u, w): chi = t^2 - 1 splits, so the center
    # plus an eigenline of the action is an abelian ideal of codimension 2,
    # whichever codimension-2 abelian witness is supplied
    L = make_c(Matrix(QQ, [[1, 0], [0, -1]]), QQ)
    witnesses = [[(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 1, 0, 0), (0, 0, 1, 0)]]
    if seed is not None:
        P = rational_change(4, random.Random(seed))
        L = change_of_basis(L, P)
        witnesses = [carried(P, rows) for rows in witnesses]
    for rows in witnesses:
        v = classify(L, A=span(QQ, 4, *rows))
        assert v.case is Case.ABELIAN_IDEAL_CODIM_LE2
        W = v.witness["abelian_ideal"]
        assert W.codim == 2 and is_abelian_subspace(L, W) and is_ideal(L, W)


def _witness_path(L, A, N):
    """classify's path over the rationals, run over any field: the ideal
    candidates from the witness A, then the matchers with the nilradical N
    and, as `_case3_nilradical` gives it, N's frame when N has codimension
    1.  The case reached and which step reached it."""
    W = _codim2_abelian_ideal_qq(L, A)
    step = "candidates"
    if W is None:
        lie, rep, CL = is_lie(L), series(L), center(L)
        L2 = _derived_subalgebra(rep)
        frame_n = _heisenberg_frame(L, N) if N.dim == L.dim - 1 else None
        matchers = (
            (Case.CASE2_D, lambda: _match_case2(L, lie, rep, CL, L2)),
            (Case.CASE1_C, lambda: _match_case1(L, lie, rep, CL, L2)),
            (Case.CASE3_E, lambda: _match_case3(L, N, frame_n)),
        )
        for case, match in matchers:
            witness = match()
            if witness is None:
                continue
            if "abelian_ideal" not in witness:
                return case, "frame"
            W, step = witness["abelian_ideal"], "eigenline of " + case.value
            break
        else:
            return None, None
    assert W.codim == 2 and is_abelian_subspace(L, W) and is_ideal(L, W)
    return Case.ABELIAN_IDEAL_CODIM_LE2, step


def test_witness_path_agrees_with_the_scan():
    # over GF(p) the scan knows the verdict; the witness path, from every
    # drawn codim-2 abelian subalgebra, must reach the same case
    steps = Counter()

    @settings(max_examples=150)
    @given(family_algebras((F3, F5, F7)))
    def check(L):
        n = L.dim
        assume(alpha(L).alpha == n - 2)
        want = classify(L).case
        N = nilradical(L)
        witnesses = all_abelian_subalgebras(L, n - 2)
        for A in witnesses[:: max(1, len(witnesses) // 20)][:20]:
            got, step = _witness_path(L, A, N)
            assert got is want, (L.name, A)
            steps[step] += 1

    check()
    # the abelian ideals the candidates miss are found by both eigenline
    # branches
    assert steps["eigenline of Case1_c"] and steps["eigenline of Case3_e"]


@pytest.mark.parametrize("k, seed", [(0, 1001), (1, 1000)])
def test_classify_qq_blames_the_center_as_nilradical_candidate(k, seed):
    # the center is a nilpotent ideal but not the nilradical
    L, A, C = rotext_with_center_candidate(k, seed)
    assert not verify_nilradical_candidate(L, C)
    with pytest.raises(ValueError, match="nilradical candidate"):
        classify(L, A=A, nilradical_candidate=C)


def test_classify_checks_a_candidate_whatever_the_verdict():
    # none of these verdicts needs the nilradical: a(id,rot) and a(id,rot)
    # (+) F have an abelian ideal of codimension 2, which proves alpha = n-2
    # with no walk, as does a witness; heisenberg has alpha = n-1, from the
    # structure slices; d(rot) (+) d(rot) has alpha = 2 < n-2, from a walk
    a = make_a(Matrix.identity(F3, 2), ROT3, F3)
    ideal = Case.ABELIAN_IDEAL_CODIM_LE2
    for L, A, case in (
        (a, None, ideal),
        (direct_sum(a, abelian_algebra(1, F3)), None, ideal),
        (a, span(F3, 4, (0, 0, 1, 0), (0, 0, 0, 1)), ideal),
        (heisenberg(F3), None, Case.NOT_APPLICABLE),
        (direct_sum(make_d(ROT3, F3), make_d(ROT3, F3)), None, Case.NOT_APPLICABLE),
    ):
        verdict = classify(L, A=A)
        assert verdict.case is case
        N = nilradical(L)
        wrong = L.full_space() if N.dim == 0 else Subspace.zero(F3, L.dim)
        with pytest.raises(ValueError, match="not the nilradical"):
            classify(L, A=A, nilradical_candidate=wrong)
        assert classify(L, A=A, nilradical_candidate=N) == verdict


def test_classify_gf_rejects_wrong_nilradical_candidate():
    # over a prime field a supplied candidate must equal the scanned nilradical
    L = heisenberg_rotation_extension(F3)
    with pytest.raises(ValueError):
        classify(L, nilradical_candidate=Subspace.zero(F3, 4))
    N = span(F3, 4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert classify(L, nilradical_candidate=N).case is Case.CASE3_E


@pytest.mark.parametrize("k", [0, 1])
def test_case1_takes_precedence_over_case3(k):
    # c(rot) (+) F^k is also a one-dimensional extension of its nilradical,
    # acting irreducibly on it: the Case3_e matcher accepts it as well
    L = make_c(ROT3, F3)
    if k:
        L = direct_sum(L, abelian_algebra(k, F3))
    N = nilradical(L)
    case3 = _match_case3(L, N, _heisenberg_frame(L, N))
    assert case3 is not None
    assert classify(L).case is Case.CASE1_C


@pytest.mark.parametrize("name", sorted(one_budget_algebras()))
def test_classify_debits_one_budget(name):
    # alpha, the abelian-ideal scan and the nilradical share one budget
    L = one_budget_algebras()[name]
    verdict, total = scanned_by(lambda: classify(L))
    assert classify(L, budget=total).case is verdict.case
    with pytest.raises(BudgetExceededError):
        classify(L, budget=total - 1)


@pytest.mark.parametrize("name", sorted(one_budget_algebras()))
def test_classify_scans_only_the_codim2_ideal_stratum(name):
    # alpha = n-2 leaves no abelian subalgebra, so no abelian ideal, in
    # strata n and n-1; stratum n-2 has no abelian ideal here and is
    # debited in full; the nilradical scans nothing
    L = one_budget_algebras()[name]
    n, p = L.dim, L.field.p
    _, total = scanned_by(lambda: classify(L))
    _, in_alpha = scanned_by(lambda: alpha(L))
    assert total == in_alpha + gaussian_binomial(n, n - 2, p)


def _pinned_algebras():
    """GF(3) tables whose classify debits changed when abelian ideals began
    to prove alpha = n-2 before any walk, with what they debit now."""
    a = make_a(Matrix.identity(F3, 2), ROT3, F3)
    d = make_d(ROT3, F3)
    return {
        # strata n and n-1 (1 + 121) and the first abelian ideal's index + 1
        # (1210); 2305 while alpha's walk ran first
        "a(id,rot)+F": (direct_sum(a, abelian_algebra(1, F3)), 1332),
        # alpha = 2 < n-2: the walk, and now also the abelian-ideal stratum
        # n-2 searched before it, its Gaussian binomial 11011; 54005 before
        "d(rot)+d(rot)": (direct_sum(d, d), 65016),
    }


@pytest.mark.parametrize("name", sorted(_pinned_algebras()))
def test_classify_debits_pinned(name):
    L, total = _pinned_algebras()[name]
    verdict, debited = scanned_by(lambda: classify(L))
    assert debited == total
    assert classify(L, budget=total) == verdict
    with pytest.raises(BudgetExceededError):
        classify(L, budget=total - 1)


def _alpha_first(L, A):
    """`classify`'s `_alpha_and_ideal` in the order it once ran: alpha's
    search first, walk included, then, when alpha = n-2, the first abelian
    ideal of stratum n-2."""
    d = alpha(L).alpha
    return d, (_first_in_strata(L, (L.dim - 2,), ideal=True)[1] if d == L.dim - 2 else None)


@st.composite
def alpha_below_sums(draw):
    """Direct sums with alpha < n-2 under a seeded basis change: d(rot)
    (+) d(rot) (n = 6, alpha = 2) over GF(3) and GF(5), d(rot) (+) c(rot)
    and rotext (+) d(rot) (n = 7, alpha = 3) over GF(3)."""
    F = draw(st.sampled_from([F3, F5]))
    rot = rotation_2x2(F)
    d = make_d(rot, F)
    others = [d]
    if F is F3:
        others += [make_c(rot, F), heisenberg_rotation_extension(F)]
    L = direct_sum(d, draw(st.sampled_from(others)))
    return change_of_basis(L, rand_invertible(F, L.dim, random.Random(draw(st.integers(0, 2**32)))))


def test_classify_agrees_with_alpha_first_and_ideals_walk_nothing():
    # the verdict of the reordered search equals the one of alpha first;
    # an abelian ideal of codimension 2, or a witness, proves alpha = n-2,
    # so those answers call the scan kernel not once
    seen = Counter()

    @settings(max_examples=200)
    @given(
        st.one_of(
            family_algebras((F3, F5, F7)),
            identity_actions(),
            cycle_actions(),
            left_only_actions(),
            alpha_below_sums(),
        )
    )
    def check(L):
        n = L.dim
        with mock.patch.dict(classify.__globals__, {"_alpha_and_ideal": _alpha_first}):
            want = classify(L)
        found = alpha(L)
        # a codimension-2 subspace of alpha's witness, when it has one
        rows = found.alpha_witness.basis.data[: n - 2] if found.alpha >= n - 2 else None
        scans = []
        real = search.scan_subspaces
        with mock.patch.object(search, "scan_subspaces", lambda *a: scans.append(a) or real(*a)):
            got = classify(L)
            walks = len(scans)
            if rows is not None:
                with_witness = classify(L, A=Subspace.from_vectors(L.field, n, rows))
        assert repr(got) == repr(want)
        if got.case is Case.ABELIAN_IDEAL_CODIM_LE2:
            assert walks == 0
        if rows is not None:
            assert repr(with_witness) == repr(want)
            assert len(scans) == walks
        seen[got.case, walks > 0] += 1

    check()
    # ideal answers without a walk, frame answers and alpha < n-2 with one
    assert seen[Case.ABELIAN_IDEAL_CODIM_LE2, False]
    assert seen[Case.NOT_APPLICABLE, True] and seen[Case.NOT_APPLICABLE, False]
    assert sum(seen[case, True] for case in (Case.CASE1_C, Case.CASE2_D, Case.CASE3_E))


# -- solvability from a codimension-2 abelian ideal -----------------------------------


def test_solvability_examples():
    assert solvability_from_codim2_ideal(make_a(Matrix.identity(F3, 2), ROT3, F3))
    assert solvability_from_codim2_ideal(direct_sum(heisenberg(F3), abelian_algebra(1, F3)))
    with pytest.raises(ValueError):
        solvability_from_codim2_ideal(make_d(ROT3, F3))
    # over the rationals, a witness is mandatory
    L = make_a(Matrix.identity(QQ, 2), ROTQ, QQ)
    W = span(QQ, 4, (0, 0, 1, 0), (0, 0, 0, 1))
    assert solvability_from_codim2_ideal(L, witness=W)
    with pytest.raises(ValueError):
        solvability_from_codim2_ideal(L, witness=span(QQ, 4, (1, 0, 0, 0)))


def test_solvability_scan_debits_one_budget_across_strata():
    # d(rot) over GF(3) has no abelian ideal of codimension <= 2; proving it
    # scans the 1 + 13 + 13 subspaces of dimensions 3, 2 and 1
    L = make_d(ROT3, F3)
    with pytest.raises(ValueError, match="no abelian ideal"):
        solvability_from_codim2_ideal(L, budget=27)
    for budget in (26, 13):
        with pytest.raises(BudgetExceededError):
            solvability_from_codim2_ideal(L, budget=budget)


def test_solvability_sweep():
    count = 0
    for L in standard_fixtures(F3, max_dim=5):
        try:
            ok = solvability_from_codim2_ideal(L)
        except ValueError:
            continue
        assert ok
        rep = series(L)
        assert rep.solvable and rep.derived_length <= 3
        count += 1
    assert count >= 10


# -- verify_main_theorem ----------------------------------------------------------------


def test_verify_reports_ok_on_examples():
    for L in (
        oscillator(F3),
        make_b(Matrix.identity(F3, 2), ROT3, F3),
        make_d(ROT3, F3),
        heisenberg_rotation_extension(F3),
        make_c(ROT3, F3),
        make_a(Matrix.identity(F3, 2), ROT3, F3),
    ):
        rep = verify_main_theorem(L)
        assert rep.ok, [(c.name, c.status) for c in rep.claims if c.status == "fail"]


def test_verify_not_applicable_report():
    rep = verify_main_theorem(heisenberg(F3))
    assert rep.case is None and rep.ok
    assert rep.claims[0].status == "n/a"


def test_verify_disguised_case2_recovers_chi(rng):
    L = make_d(ROT3, F3)
    base = classify(L).chi
    for _ in range(5):
        P = rand_invertible(F3, 3, rng)
        M = change_of_basis(L, P)
        rep = verify_main_theorem(M)
        assert rep.ok and rep.case is Case.CASE2_D
        assert classify(M).chi == base


def test_theorem_holds_on_central_extensions():
    # one-dimensional central extensions by a Leibniz 2-cocycle reach
    # tables that no family constructor writes down; wherever classify
    # finds alpha = n-2, the verdict survives a second basis change and
    # every claim of its branch checks
    seen = Counter()

    @settings(max_examples=150)
    @given(central_extensions(), st.integers(0, 2**32 - 1))
    def check(L, seed):
        assert algebra.is_leibniz(L)
        got = classify(L)
        seen[got.case] += 1
        if got.case is Case.NOT_APPLICABLE:
            return
        M = change_of_basis(L, rand_invertible(L.field, L.dim, random.Random(seed)))
        assert classify(M).case is got.case
        rep = verify_main_theorem(L)
        assert rep.ok, [(c.name, c.status) for c in rep.claims if c.status == "fail"]

    check()
    # every verdict, NotApplicable included, occurs among the examples
    assert set(seen) == set(Case)


def test_theorem_holds_on_one_dimensional_extensions():
    # the paper's own construction, N (+) F t over a nilpotent Lie N, with
    # the same checks as central extensions get; over GF(p) an abelian
    # ideal of dimension n-2, where there is one, decides first
    seen = Counter()

    @settings(max_examples=100)
    @given(one_dimensional_extensions(), st.integers(0, 2**32 - 1))
    def check(L, seed):
        assert algebra.is_leibniz(L)
        got = classify(L)
        seen[got.case] += 1
        if got.case is Case.NOT_APPLICABLE:
            return
        M = change_of_basis(L, rand_invertible(L.field, L.dim, random.Random(seed)))
        assert classify(M).case is got.case
        assert verify_main_theorem(L).ok

    check()
    # [L, L] <= N, so L is solvable and has no simple quotient: no Case2_d
    assert Case.CASE2_D not in seen
    assert {Case.ABELIAN_IDEAL_CODIM_LE2, Case.CASE3_E, Case.NOT_APPLICABLE} <= set(seen)


@pytest.mark.parametrize("name", sorted(one_budget_algebras()))
def test_verify_main_theorem_debits_one_budget(name):
    # only the classify call scans, so it spends the request's whole budget
    L = one_budget_algebras()[name]
    report, total = scanned_by(lambda: verify_main_theorem(L))
    assert report.ok
    assert verify_main_theorem(L, budget=total) == report
    with pytest.raises(BudgetExceededError):
        verify_main_theorem(L, budget=total - 1)


def _n7_algebras():
    """GF(7) c(rot) (+) F^3 (Case1_c) and rotext (+) F^3 (Case3_e), n = 7:
    a collect-all abelian-ideal scan of their stratum 4 counts about 16.5
    billion subspaces."""
    rot = rotation_2x2(F7)
    return {
        "GF7 c(rot)+F^3": direct_sum(make_c(rot, F7), abelian_algebra(3, F7)),
        "GF7 rotext+F^3": direct_sum(heisenberg_rotation_extension(F7), abelian_algebra(3, F7)),
    }


@pytest.mark.parametrize("name", sorted(one_budget_algebras()) + sorted(_n7_algebras()))
def test_verify_main_theorem_scans_what_classify_scans(name):
    # beta, the maximal abelian ideal and Case2_d's simple quotient follow
    # from structure, so the verifier scans nothing beyond its classify call
    L = {**one_budget_algebras(), **_n7_algebras()}[name]
    report, total = scanned_by(lambda: verify_main_theorem(L, budget=10**15))
    verdict, in_classify = scanned_by(lambda: classify(L, budget=10**15))
    assert report.ok and report.case is verdict.case
    assert total == in_classify


def _center_within(L, N):
    """The center of the subalgebra N, as a subspace of L."""
    rows = center(subalgebra_table(L, N)).basis.data
    return Subspace.from_vectors(L.field, L.dim, [N.basis.apply_row(r) for r in rows])


def test_verifier_lemma_matches_the_scans():
    # the collect-all scans the verifier no longer runs, as the oracle: Z
    # (the center, or the nilradical's center for Case3_e) is the only
    # abelian ideal of dimension n-3, stratum n-2 holds none, and Case2_d's
    # quotient by the center has no ideal of dimension 2 or 1
    cases = Counter()

    @settings(max_examples=100)
    @given(family_algebras((F3, F5, F7)))
    def check(L):
        n, F = L.dim, L.field
        report = verify_main_theorem(L)
        assume(report.case in (Case.CASE1_C, Case.CASE2_D, Case.CASE3_E))
        assert report.ok
        Z = center(L) if report.case is not Case.CASE3_E else _center_within(L, nilradical(L))
        assert all_abelian_ideals(L, n - 3) == [Z]
        assert all_abelian_ideals(L, n - 2) == []
        if report.case is Case.CASE2_D:
            Q, _ = quotient(L, center(L))
            ideals = [V for d in (2, 1) for V in enumerate_subspaces(3, d, F) if is_ideal(Q, V)]
            assert Q.dim == 3 and ideals == []
        cases[report.case] += 1

    check()
    assert set(cases) == {Case.CASE1_C, Case.CASE2_D, Case.CASE3_E}


def test_series_is_computed_once_per_table(monkeypatch):
    # verify_main_theorem and its classify call share L's cached series
    L = one_budget_algebras()["d(rot)+F^2"]
    built = []
    real = invariants.SeriesReport
    monkeypatch.setattr(invariants, "SeriesReport", lambda *a: built.append(real(*a)) or built[-1])
    assert verify_main_theorem(L).ok
    assert len(built) == 1
    assert series(L) is series(L) is built[0]


def test_cached_values_equal_a_fresh_computation(rng):
    # what classify and verify_main_theorem leave in a table's cache, under
    # each cached function's name, is what that function computes on a
    # fresh copy of the table
    cached = [
        algebra.leibniz_failure,
        algebra.squares_ideal,
        is_lie,
        center,
        series,
        _trace_kernel,
        nilradical,
    ]
    for F in (F3, F5):
        for L in standard_fixtures(F):
            M = change_of_basis(L, rand_invertible(F, L.dim, rng))
            classify(M)
            verify_main_theorem(M)
            assert set(M._cache) <= {fn.__name__ for fn in cached}
            fresh = algebra.AlgebraTable(F, M.c)
            assert (M._D, M._Dc, M._products) == (fresh._D, fresh._Dc, fresh._products), L.name
            for fn in cached:
                assert fn(M) == fn(fresh), (L.name, fn.__name__)


def _computations(monkeypatch, L, request):
    """How often request() computes center(L) (as calls of center on L that
    find no cached value), is_lie(L) (as skew-symmetry checks of L), [L, L]
    (as product spaces of L's full space with itself, which
    `product_space` and the chains take through `algebra._product_within`)
    and the nilradical
    certificate of L (as calls of nilradical on L that find no cached
    value; a matched frame enters the nilradical without one), and how
    often it calls `_heisenberg_frame` and `subalgebra_table` on L.  Every
    binding of these functions in the package is wrapped."""
    counts = Counter()
    full = L.full_space()
    classify_module = sys.modules["leibniz_algebras.classify"]

    def computes(name):
        return lambda T: T is L and name not in T._cache

    counted = [
        (center, "center computations", computes("center")),
        (algebra._is_skew, "skew checks", lambda T: T is L),
        (algebra._product_within, "[L, L]", lambda T, U, V, bound: T is L and U == V == full),
        (nilradical, "nilradical certificates", computes("nilradical")),
        (classify_module._heisenberg_frame, "heisenberg frames", lambda T, W: T is L),
        (subalgebra_table, "subalgebra tables", lambda T, W: T is L),
    ]
    modules = [m for name, m in sys.modules.items() if name.startswith("leibniz_algebras")]
    with monkeypatch.context() as m:
        for fn, key, on_L in counted:

            def counting(*args, fn=fn, key=key, on_L=on_L):
                counts[key] += on_L(*args)
                return fn(*args)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        m.setattr(module, attr, counting)
        request()
    return counts


@pytest.mark.parametrize("name", sorted(one_budget_algebras()))
def test_verify_computes_nothing_classify_computed(monkeypatch, name):
    # verify_main_theorem and its classify call share L's cached center, Lie
    # flag and nilradical, and read [L, L] off L's cached series
    L = one_budget_algebras()[name]
    in_verify = _computations(monkeypatch, L, lambda: verify_main_theorem(L))
    M = one_budget_algebras()[name]
    assert _computations(monkeypatch, M, lambda: classify(M)) == in_verify
    assert in_verify["skew checks"] == in_verify["center computations"] == 1
    assert center(L) is center(L)


def _heisenberg_verdicts():
    """The standard fixtures over GF(3), GF(5) and GF(7) that classify as
    Case1_c or Case3_e, one-dimensional solvable extensions of heisenberg
    (+) F^k, as fresh tables with their verdicts.  Over GF(5) -1 is a
    square, so the fixtures' rotation is reducible and none of them is
    one; there c(m), c(m) (+) F and e(phi, -phi, e0, 4) take the rotation
    m = [[0, 1], [2, 0]], chi = t^2 - 2, instead."""
    m = Matrix(F5, [[0, 1], [2, 0]])
    phi = Matrix(F5, [[0, 2, 0], [1, 0, 0], [0, 0, 0]])
    gf5 = [
        make_c(m, F5),
        direct_sum(make_c(m, F5), abelian_algebra(1, F5)),
        make_e(phi, -phi, (0, 0, 1), 4, F5),
    ]
    out = []
    for F in (F3, F5, F7):
        for L in standard_fixtures(F) + (gf5 if F is F5 else []):
            verdict = classify(L)
            if verdict.case in (Case.CASE1_C, Case.CASE3_E):
                out.append((AlgebraTable(F, L.c, name=L.name), verdict))
    assert {L.field for L, _ in out} == {F3, F5, F7}
    assert {v.case for _, v in out} == {Case.CASE1_C, Case.CASE3_E}
    return out


def test_verify_repeats_no_heisenberg_search(monkeypatch):
    # the Heisenberg claims and Case3_e's Z are read off the verdict's
    # frame: the verifier runs no matcher helper and builds no subalgebra
    # table beyond its classify call
    for L, verdict in _heisenberg_verdicts():
        M = AlgebraTable(L.field, L.c, name=L.name)
        by_classify = _computations(monkeypatch, M, lambda: classify(M))
        assert by_classify["heisenberg frames"] == 1, L.name
        assert _computations(monkeypatch, L, lambda: verify_main_theorem(L)) == by_classify, L.name


def test_verify_fails_a_frame_with_two_rows_swapped(monkeypatch):
    # a frame whose rows 0 and 1 are swapped puts the generator among the
    # rows that span L2 (N): the Heisenberg claim fails on it, and for
    # Case3_e the claims of the lemma, whose Z = C(N) rests on that span
    classify_module = sys.modules["leibniz_algebras.classify"]
    claim = {
        Case.CASE1_C: "derived subalgebra is a heisenberg algebra",
        Case.CASE3_E: "nilradical is heisenberg (+) F^(n-4)",
    }
    for L, verdict in _heisenberg_verdicts():
        status = {c.name: c.status for c in verify_main_theorem(L).claims}
        assert status[claim[verdict.case]] == "pass", L.name
        rows = list(verdict.witness["frame"].data)
        rows[0], rows[1] = rows[1], rows[0]
        swapped = verdict._replace(witness={**verdict.witness, "frame": Matrix(L.field, rows)})
        with monkeypatch.context() as m:
            m.setattr(classify_module, "classify", lambda *a, **k: swapped)
            report = verify_main_theorem(L)
        status = {c.name: c.status for c in report.claims}
        assert status[claim[verdict.case]] == "fail" and not report.ok, L.name
        if verdict.case is Case.CASE3_E:
            assert status["beta = n-3"] == "fail", L.name


def test_verify_rotext_plus_f2_under_default_budgets():
    # an isomorphism search of the 5-dim nilradical against heisenberg (+)
    # F^2 exceeds its default node budget on the fourth of these basis
    # changes; the verifier decides that claim from the structure
    L = direct_sum(heisenberg_rotation_extension(F3), abelian_algebra(2, F3))
    rng = random.Random(7)
    for _ in range(20):
        report = verify_main_theorem(change_of_basis(L, rand_invertible(F3, 6, rng)))
        assert report.ok and report.case is Case.CASE3_E


def test_verify_rejects_rationals():
    with pytest.raises(ValueError):
        verify_main_theorem(oscillator(QQ))


def test_verify_rejects_characteristic_2():
    # classify refuses characteristic 2 whatever alpha is (heisenberg has
    # alpha = n-1)
    with pytest.raises(ValueError, match="characteristic"):
        verify_main_theorem(heisenberg(F2))


def test_dichotomy_over_gf5():
    # every fixture with alpha = n-2: either beta >= n-2 or a non-ideal case
    F5 = GF(5)
    for L in standard_fixtures(F5, max_dim=4):
        if alpha(L).alpha != L.dim - 2:
            continue
        v = classify(L)
        if v.case is Case.ABELIAN_IDEAL_CODIM_LE2:
            assert beta(L).beta >= L.dim - 2
        else:
            assert v.case in (Case.CASE1_C, Case.CASE2_D, Case.CASE3_E)


def test_classify_coerces_none_of_its_own_rows(monkeypatch):
    # every row that classify and verify_main_theorem test against a
    # subspace, or read coordinates of, is the package's own, already in
    # the field's canonical form: the coercing entry points contains_vector
    # and coordinates are never reached.  The inputs are the standard
    # fixtures over GF(3) and GF(5) and the fixtures/ documents (a QQ
    # document over both fields) under one basis change each, and QQ
    # rotext (+) Q^k with its witness and nilradical
    calls = Counter()
    coerce = Subspace._coerce

    def counting(self, v):
        calls[self.field] += 1
        return coerce(self, v)

    monkeypatch.setattr(Subspace, "_coerce", counting)
    docs = sorted((Path(__file__).resolve().parent.parent / "fixtures").glob("*.json"))
    docs = [parse_algebra(path.read_text(encoding="utf-8")) for path in docs]
    rng = random.Random(1)
    requests = 0
    for F in (F3, F5):
        sources = standard_fixtures(F)
        sources += [AlgebraTable(F, D.c, name=D.name) for D in docs if D.field in (F, QQ)]
        for L in sources:
            M = change_of_basis(L, rand_invertible(F, L.dim, rng))
            classify(M)
            verify_main_theorem(M)
            requests += 1
    for k in range(3):
        M, A, _ = rotext_with_center_candidate(k, 1000 + k)
        assert classify(M, A=A, nilradical_candidate=nilradical(M)).case is Case.CASE3_E
    assert requests == 62
    assert sum(calls.values()) == 0
    # the count sees the public entry points
    Subspace.full(F3, 2).contains_vector([1, 0])
    Subspace.full(QQ, 2).coordinates([1, 0])
    assert calls == {F3: 1, QQ: 1}
