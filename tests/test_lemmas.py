"""The conditions that `nilradical`, `_case3_nilradical`, the Case matchers
and the QQ ideal candidates no longer test, or test only as an early exit,
because a lemma proves them on every Leibniz table, checked to hold:

1. the trace kernel K is a two-sided ideal (`invariants._trace_kernel`);
2. dim K = n-1 rules out a nilpotent L (`classify._case3_nilradical`);
3. where `_case3_nilradical` hands a frame on, its N has codimension 1
   and L is solvable (`classify._match_case3`);
4. `derived_length` is set exactly when L is solvable (`_match_case1`,
   `solvability_from_codim2_ideal`, `verify_main_theorem`);
5. C(L) + [L, L] is an ideal (`classify._codim2_abelian_ideal_qq`);
6. every Case1_c and Case3_e verdict has derived length exactly 3, which
   `verify_main_theorem` claims ("3-step solvable") and `_match_case1`
   tests as an early exit.

The tables are the conftest generators over GF(3), GF(5), GF(7) and QQ,
every standard fixture, the GF(5) tables that reach Case1_c and Case3_e
(the GF(5) fixtures reach neither), QQ c(rot) and rotext (+) Q^k with a
codim-2 abelian witness, and the Case3_e table `rot_swap_extension`,
whose K is all of L, over GF(3) and QQ.
Each table over GF(p), and each QQ table with a witness, is classified,
and Case1_c and Case3_e must be reached in every field.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras.algebra import AlgebraTable, center, change_of_basis, direct_sum, is_ideal
from leibniz_algebras.catalog import heisenberg_rotation_extension, rotation_2x2, standard_fixtures
from leibniz_algebras.classify import Case, _case3_nilradical, _derived_subalgebra, classify
from leibniz_algebras.families import abelian_algebra, make_c, make_e
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import _trace_kernel, series
from leibniz_algebras.linalg import Matrix, Subspace, subspace_sum

from conftest import (
    F3,
    F5,
    F7,
    carried,
    central_algebras,
    central_extensions,
    cycle_actions,
    disguise,
    family_algebras,
    identity_actions,
    left_only_actions,
    one_dimensional_extensions,
    rational_change,
    rot_swap_extension,
)

FIELDS = (F3, F5, F7, QQ)
PRIME_FIELDS = (F3, F5, F7)


def check_lemmas(L, A=None):
    """Assert the six conditions on L (the sixth on a verdict); classify L
    over GF(p), or over QQ with the witness A, and return the verdict's
    case (None otherwise)."""
    n = L.dim
    K, rep = _trace_kernel(L), series(L)
    assert is_ideal(L, K), L.name
    assert K.dim != n - 1 or not rep.nilpotent, L.name
    assert (rep.derived_length is not None) is rep.solvable, L.name
    assert is_ideal(L, subspace_sum(center(L), _derived_subalgebra(rep))), L.name
    N, frame = _case3_nilradical(AlgebraTable(L.field, L.c))
    if frame is not None:
        assert N.dim == n - 1 and rep.solvable, L.name
    if L.field.is_prime_field or A is not None:
        case = classify(L, A=A).case
        # the frames imply it (`classify._match_case1`)
        assert case not in (Case.CASE1_C, Case.CASE3_E) or rep.derived_length == 3, L.name
        return case
    return None


def _witnessed_qq():
    """(L, A): QQ c(rot) and rotext (+) Q^k, k = 0..1, with the codim-2
    abelian witness span(e0, e1) (c) or span(e1, e2) (rotext) plus Q^k,
    canonical and under a rational change."""
    for base, witness in ((make_c(rotation_2x2(QQ), QQ), (0, 1)), (heisenberg_rotation_extension(QQ), (1, 2))):
        for k in range(2):
            L = direct_sum(base, abelian_algebra(k, QQ)) if k else base
            n = L.dim
            rows = [tuple(int(i == j) for i in range(n)) for j in (*witness, *range(4, n))]
            yield L, Subspace.from_vectors(QQ, n, rows)
            P = rational_change(n, random.Random(k))
            yield change_of_basis(L, P), Subspace.from_vectors(QQ, n, carried(P, rows))


def _fixed_tables():
    """(L, A) for the fixed tables; A is None but over QQ."""
    for F in FIELDS:
        yield from ((L, None) for L in standard_fixtures(F))
    m = Matrix(F5, [[0, 1], [2, 0]])
    phi = Matrix(F5, [[0, 2, 0], [1, 0, 0], [0, 0, 0]])
    yield make_c(m, F5), None
    yield direct_sum(make_c(m, F5), abelian_algebra(1, F5)), None
    yield make_e(phi, -phi, (0, 0, 1), 4, F5), None
    # K = L, and Nil(L) has codimension 1 and a frame
    L = rot_swap_extension(F3)
    yield L, None
    yield disguise(L, random.Random(6)), None
    # over QQ with the witness span(u, z, f1, f2)
    rows = [[int(i == j) for i in range(6)] for j in (1, 3, 4, 5)]
    yield rot_swap_extension(QQ), Subspace.from_vectors(QQ, 6, rows)
    yield from _witnessed_qq()


def test_the_conditions_the_lemmas_prove_hold():
    seen = Counter()

    @settings(max_examples=400)
    @given(
        st.one_of(
            family_algebras(FIELDS),
            central_algebras(FIELDS),
            identity_actions(FIELDS),
            cycle_actions(FIELDS),
            left_only_actions(FIELDS),
            central_extensions(PRIME_FIELDS),
            one_dimensional_extensions(PRIME_FIELDS),
        )
    )
    def check(L):
        seen[L.field, check_lemmas(L)] += 1

    check()
    for L, A in _fixed_tables():
        seen[L.field, check_lemmas(L, A)] += 1
    for F in FIELDS:
        assert seen[F, Case.CASE1_C] and seen[F, Case.CASE3_E], (F, seen)
