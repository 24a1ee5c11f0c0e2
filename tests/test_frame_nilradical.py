"""The nilradical that a matched frame proves, and the contracted ideal test.

A Case1_c frame proves Nil(L) = [L, L] + C(L) and a Case2_d frame proves
Nil(L) = C(L), and `classify` enters it in the table's cache without the
certificate (`invariants.nilradical`); so does a Case3_e frame of the
trace kernel K, which proves Nil(L) = K.  Here both the reported
`dim_nilradical` and the cached nilradical are compared with the
certificate's nilradical of a fresh copy of the table, on c, d and rotext
(+) F^k over GF(3), GF(5) and QQ, in the canonical basis and under a basis
change.  `is_ideal`, one contraction of the table with each functional of
the subspace's annihilator, is compared with the ideal test it replaced,
which bracketed each basis row with each unit vector.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras import invariants
from leibniz_algebras.algebra import (
    AlgebraTable,
    _check_subspace,
    _scaled_bracket,
    center,
    change_of_basis,
    direct_sum,
    is_ideal,
    left_annihilator,
    mult_operator,
    product_space,
)
from leibniz_algebras.catalog import heisenberg_rotation_extension, standard_fixtures
from leibniz_algebras.classify import Case, classify, verify_main_theorem
from leibniz_algebras.families import abelian_algebra, make_c, make_d
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import _trace_kernel, nilradical
from leibniz_algebras.linalg import Matrix, Subspace, subspace_sum

from conftest import F2, F3, F5, MAX_DIM, carried, rand_invertible, rational_change

# m for c(m) and d(m): t^2 + 1 (irreducible over QQ and GF(3), split over
# GF(5)), t^2 - 1 (split everywhere) and t^2 - 2 (irreducible over QQ,
# GF(3) and GF(5))
ACTIONS = (((0, -1), (1, 0)), ((1, 0), (0, -1)), ((1, 1), (1, -1)))
# the base algebras, their dimension and the basis indices of a codim-2
# abelian subalgebra, not an ideal: span(a, b) of c (basis a, b, x, y),
# span(h) of d (basis h, x, y) and span(e2, e3) of rotext
BASES = {"c": (4, (0, 1)), "d": (3, (0,)), "rotext": (4, (1, 2))}


def _base(F, name, m):
    if name == "rotext":
        return heisenberg_rotation_extension(F)
    return (make_c if name == "c" else make_d)(Matrix(F, m), F)


@st.composite
def frame_family(draw):
    """(L, A): c(m), d(m) or rotext (+) F^k over GF(3), GF(5) or QQ, of
    dimension at most MAX_DIM[p], in its canonical basis or under a seeded
    basis change, and over QQ its codim-2 abelian witness (the base's
    witness plus F^k) carried through the change; A is None over GF(p)."""
    F = draw(st.sampled_from((F3, F5, QQ)))
    name = draw(st.sampled_from(sorted(BASES)))
    dim, witness = BASES[name]
    L = _base(F, name, draw(st.sampled_from(ACTIONS)))
    k = draw(st.integers(0, MAX_DIM[F.p] - dim))
    if k:
        L = direct_sum(L, abelian_algebra(k, F))
    n = L.dim
    rows = [tuple(int(i == j) for i in range(n)) for j in (*witness, *range(dim, n))]
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        P = rand_invertible(F, n, rng) if F.is_prime_field else rational_change(n, rng)
        L = change_of_basis(L, P)
        rows = carried(P, rows)
    return L, (Subspace.from_vectors(F, n, rows) if F is QQ else None)


def test_frame_nilradical_is_the_certificates():
    # every non-ideal case is reached, and QQ's reducible actions too
    seen = Counter()

    @settings(max_examples=120)
    @given(frame_family())
    def check(drawn):
        L, A = drawn
        want = nilradical(AlgebraTable(L.field, L.c))
        v = classify(L, A=A)
        seen[v.case, L.field is QQ] += 1
        if v.case is not Case.ABELIAN_IDEAL_CODIM_LE2 or L.field is QQ:
            assert v.diagnostics["dim_nilradical"] == want.dim
            assert "nilradical" in L._cache
        assert nilradical(L) == want

    check()
    for case in (Case.CASE1_C, Case.CASE2_D, Case.CASE3_E):
        assert seen[case, False] and seen[case, True], case
    assert seen[Case.ABELIAN_IDEAL_CODIM_LE2, True]


def test_reducible_case1_over_qq_reports_the_certificate():
    # c(diag(1, -1)) with the abelian, non-ideal witness span(x + y, b): the
    # Case1_c matcher returns the eigenline's abelian ideal, so no frame
    # proves the nilradical, and the certificate reports it
    L = make_c(Matrix(QQ, [[1, 0], [0, -1]]), QQ)
    A = Subspace.from_vectors(QQ, 4, [(0, 0, 1, 1), (0, 1, 0, 0)])
    want = nilradical(AlgebraTable(QQ, L.c))
    v = classify(L, A=A)
    assert v.case is Case.ABELIAN_IDEAL_CODIM_LE2 and "chi" not in v.diagnostics
    assert v.diagnostics["dim_nilradical"] == want.dim == 3
    assert list(v.diagnostics)[-2:] == ["dim_nilradical", "abelian_ideal_dim"]
    assert classify(L, A=A, nilradical_candidate=want) == v
    with pytest.raises(ValueError, match="^supplied nilradical candidate is not the nilradical$"):
        classify(L, A=A, nilradical_candidate=center(L))


def _calls(monkeypatch, L, request):
    """request()'s calls of is_ideal on L with the trace kernel of L, and of
    `_is_nilpotent_subalgebra`, through every binding in the package."""
    K = _trace_kernel(AlgebraTable(L.field, L.c))
    counts = Counter()
    wrapped = [
        (is_ideal, "is_ideal(L, K)", lambda T, U: T is L and U == K),
        (invariants._is_nilpotent_subalgebra, "nilpotent subalgebra", lambda T, U: True),
    ]
    modules = [m for name, m in sys.modules.items() if name.startswith("leibniz_algebras")]
    with monkeypatch.context() as m:
        for fn, key, counted in wrapped:

            def counting(T, U, fn=fn, key=key, counted=counted):
                if counted(T, U):
                    counts[key] += 1
                return fn(T, U)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        m.setattr(module, attr, counting)
        verdict = request()
    return verdict, counts


def test_frames_run_no_certificate(monkeypatch):
    rot = Matrix(F3, [[0, -1], [1, 0]])
    rng = random.Random(33)
    for L0, case in [
        (make_c(rot, F3), Case.CASE1_C),
        (direct_sum(make_c(rot, F3), abelian_algebra(1, F3)), Case.CASE1_C),
        (direct_sum(make_d(rot, F3), abelian_algebra(2, F3)), Case.CASE2_D),
    ]:
        for L in (L0, change_of_basis(L0, rand_invertible(F3, L0.dim, rng))):
            verdict, counts = _calls(monkeypatch, L, lambda: classify(L))
            assert verdict.case is case and not counts
            N = L._cache["nilradical"]
            # with the right candidate, the frame's nilradical decides it
            M = AlgebraTable(F3, L.c)
            verdict, counts = _calls(monkeypatch, M, lambda: classify(M, nilradical_candidate=N))
            assert verdict.case is case and not counts
    # the QQ rotation frame, with its witness and its nilradical as candidate
    L = make_c(Matrix(QQ, [[0, -1], [1, 0]]), QQ)
    A = Subspace.from_vectors(QQ, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    N = Subspace.from_vectors(QQ, 4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    verdict, counts = _calls(monkeypatch, L, lambda: classify(L, A=A, nilradical_candidate=N))
    assert verdict.case is Case.CASE1_C and not counts
    # Case3_e's frame of the trace kernel K proves K the nilradical: K is
    # an ideal by its lemma (`invariants._trace_kernel`), so it is never
    # tested for one, and no nilpotency chain runs
    L = heisenberg_rotation_extension(F3)
    verdict, counts = _calls(monkeypatch, L, lambda: classify(L))
    assert verdict.case is Case.CASE3_E
    assert counts["is_ideal(L, K)"] == 0 and counts["nilpotent subalgebra"] == 0
    # verify_main_theorem reads the nilradical that classify certified:
    # it makes no call of either beyond the ones classify makes
    L0 = direct_sum(heisenberg_rotation_extension(F3), abelian_algebra(1, F3))
    L = AlgebraTable(F3, L0.c)
    verdict, by_classify = _calls(monkeypatch, L, lambda: classify(L))
    assert verdict.case is Case.CASE3_E
    assert not by_classify
    L = AlgebraTable(F3, L0.c)
    report, counts = _calls(monkeypatch, L, lambda: verify_main_theorem(L))
    assert report.case is Case.CASE3_E and report.ok
    assert counts == by_classify


def reference_is_ideal(L, U):
    """The ideal test before the contraction: each bracket of a canonical
    row of U with a unit vector, on either side, reduced against U."""
    _check_subspace(L, U)
    n = L.dim
    es = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    for u in U._rows:
        for ej in es:
            if not U._contains(_scaled_bracket(L, u, ej)):
                return False
            if not U._contains(_scaled_bracket(L, ej, u)):
                return False
    return True


def _entry(F, rng):
    return F.of(rng.randrange(F.p)) if F.is_prime_field else Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _line(S, rng):
    """A random line of S, or 0."""
    F = S.field
    v = [sum(_entry(F, rng) * x for x in col) for col in zip(*S.basis.data)] if S.dim else []
    return Subspace.from_vectors(F, S.ambient_dim, [v] if v else [])


def _right_annihilator(L):
    """{x : [L, x] = 0}."""
    rows = [row for i in range(L.dim) for row in mult_operator(L, L.basis_vector(i)).data]
    return Subspace.from_vectors(L.field, L.dim, Matrix(L.field, rows).kernel_basis().data)


@settings(max_examples=60)
@given(st.sampled_from((F2, F3, F5, QQ)), st.integers(0, 2**32))
def test_is_ideal_matches_the_bracket_reference(F, seed):
    rng = random.Random(seed)
    L = rng.choice(standard_fixtures(F, max_dim=4))
    n = L.dim
    if rng.random() < 0.5:
        L = change_of_basis(L, rand_invertible(F, n, rng))
    full = L.full_space()
    hyperplane = Subspace.from_vectors(F, n, [[_entry(F, rng) for _ in range(n)]])._annihilator()
    spans = [
        Subspace.from_vectors(F, n, [[_entry(F, rng) for _ in range(n)] for _ in range(d)])
        for d in range(1, n)
    ]
    derived = product_space(L, full, full)
    candidates = [Subspace.zero(F, n), full, hyperplane, center(L), derived]
    candidates += [*spans, subspace_sum(center(L), spans[0])] if spans else []
    # lines that one side maps to 0: in a non-Lie table the other side
    # alone decides whether they are ideals
    candidates += [_line(left_annihilator(L), rng), _line(_right_annihilator(L), rng)]
    for U in candidates:
        assert is_ideal(L, U) is reference_is_ideal(L, U), (L.name, U)


def test_is_ideal_decides_one_sided_ideals():
    # in a(id, rot) the lines of the left annihilator, span(e3) and
    # span(e4), are closed under brackets with L on the left of u only, and
    # those of the right annihilator, span(e1) and span(e2), on the right
    # only: none is an ideal, and each side's test alone decides it
    for F in (F3, F5, QQ):
        L = next(T for T in standard_fixtures(F, max_dim=4) if T.name == "a(id,rot)")
        for S in (left_annihilator(L), _right_annihilator(L)):
            assert S.dim == 2
            for row in S.basis.data:
                U = Subspace.from_vectors(F, L.dim, [row])
                assert not is_ideal(L, U) and not reference_is_ideal(L, U)


def test_frame_nilradical_is_cached_under_a_wrapped_name(monkeypatch):
    # a tracer rebinds `nilradical` to a wrapper with another __name__; the
    # frame's nilradical still goes to the entry that nilradical reads
    calls = Counter()

    def wrapper(L):
        calls[L] += 1
        return nilradical(L)

    for module in [m for name, m in sys.modules.items() if name.startswith("leibniz_algebras")]:
        if vars(module).get("nilradical") is nilradical:
            monkeypatch.setattr(module, "nilradical", wrapper)
    L = direct_sum(make_c(Matrix(F3, [[0, -1], [1, 0]]), F3), abelian_algebra(1, F3))
    assert classify(L).case is Case.CASE1_C and not calls
    assert set(L._cache) >= {"nilradical"} and nilradical(L) is L._cache["nilradical"]
