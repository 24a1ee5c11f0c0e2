"""Work the Case path skips because its structure already proves it,
checked against brute force.

- Alpha's stratum dim C(L) + 1 is decided from its first candidate
  (`search._first_line_over_center`): wherever the cut answers, its
  stratum, witness and debit are the center-cut walk's and those of an
  `enumerate_subspaces` oracle, and at every budget it raises or answers
  as the walk does; where it declines, the first candidate is not abelian.
- The derived, lower central and subalgebra chains stop at their bound
  (`algebra._product_within`): they equal the chains of unbounded
  `product_space`.
- A Case3_e frame of the trace kernel K proves Nil(L) = K
  (`classify._case3_nilradical`): the nilradical it enters is the
  certificate's, and a K that is not heisenberg (+) F^k still takes the
  certificate, with one frame tried.
"""

import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras import invariants
from leibniz_algebras.algebra import (
    AlgebraTable,
    center,
    change_of_basis,
    direct_sum,
    generated_subalgebra,
    is_abelian_subspace,
    product_space,
)
from leibniz_algebras.catalog import heisenberg_rotation_extension, rotation_2x2, standard_fixtures
from leibniz_algebras.classify import Case, _case3_nilradical, classify
from leibniz_algebras.errors import BudgetExceededError
from leibniz_algebras.families import abelian_algebra, make_c, make_d, make_e
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import _is_nilpotent_subalgebra, _trace_kernel, nilradical, series
from leibniz_algebras.linalg import Matrix, Subspace, _chain, enumerate_subspaces
from leibniz_algebras.search import (
    MODE_ABELIAN,
    _first_in_strata,
    _first_line_over_center,
    _request,
    _scan_dim,
    alpha,
)

from conftest import (
    F3,
    F5,
    F7,
    carried,
    central_algebras,
    disguise,
    family_algebras,
    identity_action,
    linear_action,
    one_dimensional_extensions,
    rational_change,
)

WIDE = 10**9


def fresh(L):
    return AlgebraTable(L.field, L.c, name=L.name)


# -- alpha's stratum dim C + 1 from its first candidate ---------------------------


def first_containing(L, C, d):
    """(index, W): the first W of `enumerate_subspaces(n, d)` that contains
    C, and its position in the walk."""
    for index, W in enumerate(enumerate_subspaces(L.dim, d, L.field)):
        if W.contains(C):
            return index, W
    raise AssertionError("no subspace of dimension %d contains C" % d)


def _raised(call, budget):
    with pytest.raises(BudgetExceededError) as exc:
        with _request(budget):
            call()
    return str(exc.value)


def check_first_line(L):
    """The cut on L against the oracle, the walk and the budget; whether it
    answered, or None where C(L) is L."""
    L = fresh(L)
    C = center(L)
    n, d = L.dim, C.dim + 1
    if d > n:
        return None
    index, first = first_containing(L, C, d)
    hits = _first_line_over_center(L, C)
    if not hits:
        assert not is_abelian_subspace(L, first)
        return False
    assert hits == [first] and is_abelian_subspace(L, first)
    if d > n - 2:  # strata n - 1 and n have deciders of their own
        return True
    walk = lambda: _scan_dim(L, d, MODE_ABELIAN, 1, C._rows)  # noqa: E731
    with _request(WIDE):
        scanned, walked = walk()
    with _request(WIDE):
        assert _first_in_strata(L, (d,)) == (d, first, index + 1) == (d, walked[0], scanned)
    cut = lambda: _first_in_strata(L, (d,))  # noqa: E731
    assert _raised(cut, index) == _raised(walk, index)
    with _request(index + 1):
        assert cut() == (d, first, index + 1)
    # alpha with the cut answers as alpha with the walk
    with pytest.MonkeyPatch.context() as m:
        m.setattr("leibniz_algebras.search._first_line_over_center", lambda L, C: [])
        walked_alpha = alpha(fresh(L))
    assert alpha(fresh(L)) == walked_alpha
    return True


def test_first_line_over_center_is_the_walks_first_hit():
    seen = Counter()

    @settings(max_examples=150)
    @given(
        st.one_of(
            one_dimensional_extensions((F3, F5, F7)),
            central_algebras((F3, F5, F7)),
            family_algebras((F3, F5, F7)),
        )
    )
    def check(L):
        seen[check_first_line(L), L.field.p] += 1

    check()
    # the cut answers and declines in every field
    for p in (3, 5, 7):
        assert seen[True, p] and seen[False, p], seen


@pytest.mark.parametrize("base", ["c(rot)", "d(rot)", "rotext"])
def test_first_line_over_center_up_to_dimension_six(base):
    # X (+) F^k over GF(3) up to n = 6, canonical and under two basis changes
    rot = rotation_2x2(F3)
    X = {"c(rot)": make_c(rot, F3), "d(rot)": make_d(rot, F3), "rotext": heisenberg_rotation_extension(F3)}[base]
    rng = random.Random(6)
    answers = []
    for k in range(0, 7 - X.dim):
        L = direct_sum(X, abelian_algebra(k, F3)) if k else X
        for T in (L, disguise(L, rng), disguise(L, rng)):
            answers.append(check_first_line(T))
    # every C + span(v) of a Lie table is abelian; rotext's [x, x] is not 0
    if base != "rotext":
        assert all(answers), answers


# -- descending chains stop at their bound --------------------------------------


def _subalgebras(L, rng):
    """Subalgebras of L to run `_is_nilpotent_subalgebra` on: L, its
    center, [L, L], its nilradical and the subalgebras that one and two
    random vectors generate."""
    F, n = L.field, L.dim
    full = L.full_space()

    def entry():
        return F.of(rng.randrange(F.p)) if F.is_prime_field else F.of(rng.randint(-2, 2))

    out = [full, center(L), product_space(L, full, full), nilradical(fresh(L))]
    for count in (1, 2):
        S = Subspace.from_vectors(F, n, [[entry() for _ in range(n)] for _ in range(count)])
        out.append(generated_subalgebra(L, S))
    return out


@settings(max_examples=120)
@given(
    st.one_of(
        family_algebras((F3, F5, QQ)),
        central_algebras((F3, F5, QQ)),
        one_dimensional_extensions((F3, F5)),
    ),
    st.integers(0, 2**32),
)
def test_stopped_chains_equal_the_unbounded_chains(L, seed):
    full = L.full_space()
    rep = series(fresh(L))
    assert rep.derived_chain == tuple(_chain(full, lambda D: product_space(L, D, D)))
    assert rep.lower_central_chain == tuple(_chain(full, lambda C: product_space(L, full, C)))
    for U in _subalgebras(L, random.Random(seed)):
        unbounded = _chain(U, lambda C: product_space(L, U, C))[-1].is_zero()
        assert _is_nilpotent_subalgebra(L, U) is unbounded, U


# -- Case3_e's nilradical from its Heisenberg frame --------------------------------


def _certificates(L, request):
    """request()'s answer, and its calls of `_is_nilpotent_subalgebra`,
    the certificate's nilpotency chain."""
    calls = []

    def counting(T, U):
        calls.append(U)
        return _is_nilpotent_subalgebra(T, U)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(invariants, "_is_nilpotent_subalgebra", counting)
        answer = request()
    return answer, len(calls)


def check_case3_nilradical(L, A=None):
    """classify(L) on a fresh copy: a Case3_e verdict's nilradical is the
    frame's, entered with no certificate, and the certificate's on a
    fresh copy.  The verdict's case."""
    M = fresh(L)
    verdict, certificates = _certificates(M, lambda: classify(M, A=A))
    want = nilradical(fresh(L))
    assert nilradical(M) == want
    if verdict.case is Case.CASE3_E:
        assert certificates == 0
        assert verdict.witness["nilradical"] == want == _trace_kernel(M)
        assert verdict.diagnostics["dim_nilradical"] == want.dim
    return verdict.case


def test_case3_nilradical_from_the_frame_on_fixtures():
    m = Matrix(F5, [[0, 1], [2, 0]])
    phi = Matrix(F5, [[0, 2, 0], [1, 0, 0], [0, 0, 0]])
    tables = [(L, None) for F in (F3, F7) for L in standard_fixtures(F)]
    tables.append((make_e(phi, -phi, (0, 0, 1), 4, F5), None))
    tables.append((direct_sum(make_c(m, F5), abelian_algebra(1, F5)), None))
    # QQ rotext (+) Q^k with the witness span(e2, e3, e5..), canonical and
    # under a rational basis change
    for k in range(3):
        L = heisenberg_rotation_extension(QQ)
        L = direct_sum(L, abelian_algebra(k, QQ)) if k else L
        n = L.dim
        rows = [tuple(int(i == j) for i in range(n)) for j in [1, 2, *range(4, n)]]
        tables.append((L, Subspace.from_vectors(QQ, n, rows)))
        P = rational_change(n, random.Random(k))
        tables.append((change_of_basis(L, P), Subspace.from_vectors(QQ, n, carried(P, rows))))
    cases = Counter(check_case3_nilradical(L, A) for L, A in tables)
    # Case3_e: rotext and e(rot, -rot, e0, 4) over GF(3) and GF(7), e(phi,
    # -phi, e0, 4) over GF(5) and the six QQ tables; the other fixtures and
    # c(m) (+) F over GF(5) check the nilradical of the other verdicts
    assert cases[Case.CASE3_E] == 11, cases


def test_case3_nilradical_from_the_frame_on_generated_extensions():
    seen = Counter()

    @settings(max_examples=150)
    @given(one_dimensional_extensions((F3, F5, F7)))
    def check(L):
        seen[check_case3_nilradical(L)] += 1

    check()
    assert seen[Case.CASE3_E] >= 12, seen


def test_a_kernel_that_is_not_heisenberg_takes_the_certificate(monkeypatch):
    # x acting invertibly on an abelian F^3 (K = F^3, an abelian ideal of
    # codimension 1), and as the identity on F^3 over GF(5) (K = F^3) and
    # over GF(3) (K = L): no frame, and the certificate decides Nil(L).
    # One frame is tried: K's when K has codimension 1, and then not again
    # on N = K; else N's, of codimension 1 and not K
    tried = []
    classify_module = sys.modules["leibniz_algebras.classify"]
    heisenberg_frame = classify_module._heisenberg_frame
    monkeypatch.setattr(
        classify_module, "_heisenberg_frame", lambda T, W: tried.append(W) or heisenberg_frame(T, W)
    )
    for L in (
        linear_action(Matrix(F5, [[0, 1, 0], [0, 0, 1], [1, 1, 0]]), F5, "companion"),
        identity_action(3, F5),
        identity_action(3, F3),
        linear_action(Matrix(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]]), QQ, "diagonal"),
    ):
        M = fresh(L)
        tried.clear()
        (N, frame), certificates = _certificates(M, lambda: _case3_nilradical(M))
        assert frame is None and certificates >= 1, L.name
        assert N == nilradical(fresh(L)), L.name
        assert len(tried) == 1 and tried[0].dim == L.dim - 1, L.name
