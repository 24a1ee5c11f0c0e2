"""The one ideal test, `linalg._is_ideal`, against its definition.

U is a two-sided ideal of L when bracket(L, u, e_j) and bracket(L, e_j, u)
lie in U for every canonical row u of U and every j; the one-side form,
sides (True,), asks [U, L] <= U alone, as `search._abelian_ideal_hits`
does.  Both forms are compared with that definition, read through the
public `bracket`, over GF(3), GF(5) and GF(7), and over QQ on the integer
view (`_products` with U's primitive integer rows).  So are the two
two-sided callers, `algebra.is_ideal` and the scan kernel's MODE_IDEAL, so
that a caller that drops a side fails here.

The subspaces are 0, L, random spans, the center, [L, L], the trace
kernel and lines of the left and right annihilators, which in a non-Lie
table are often closed on one side only; every field must show a subspace
closed on each side alone.  In x acting on F^2 by the swap from the left
only, span(x) is closed under [L, U] <= U alone and span(v_1) under
[U, L] <= U alone; in selftest's `left-only-action` table span(e_0) is
closed on the right only.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras._kernel import MODE_IDEAL, scan_subspaces
from leibniz_algebras.algebra import (
    AlgebraTable,
    bracket,
    center,
    is_ideal,
    left_annihilator,
    mult_operator,
    product_space,
)
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import _trace_kernel
from leibniz_algebras.linalg import Matrix, Subspace, _is_ideal, enumerate_subspaces
from leibniz_algebras.search import table_flat

from conftest import F3, F5, F7, central_algebras, family_algebras, left_only_action, left_only_actions

FIELDS = (F3, F5, F7, QQ)
TWO_SIDED, LEFT = (True, False), (True,)


def closed(L, U, sides):
    """Whether [u, e_j] (left in sides) and [e_j, u] (right) lie in U for
    every basis row u of U and every j, by `bracket`."""
    es = [L.basis_vector(j) for j in range(L.dim)]
    return all(
        U.contains_vector(bracket(L, u, e) if left else bracket(L, e, u))
        for u in U.basis.data
        for left in sides
        for e in es
    )


def routine(L, U, sides):
    return _is_ideal(L._products, U._rows, list(zip(U.pivots, U._rows)), L.field.p, sides)


def _right_annihilator(L):
    """{x : [L, x] = 0}."""
    rows = [row for i in range(L.dim) for row in mult_operator(L, L.basis_vector(i)).data]
    return Subspace.from_vectors(L.field, L.dim, Matrix(L.field, rows).kernel_basis().data)


def _entry(F, rng):
    return rng.randrange(F.p) if F.is_prime_field else rng.randint(-2, 2)


def _line(S, rng):
    """A random line of S, or 0."""
    F = S.field
    v = [sum(_entry(F, rng) * x for x in col) for col in zip(*S.basis.data)] if S.dim else []
    return Subspace.from_vectors(F, S.ambient_dim, [v] if any(v) else [])


def candidates(L, rng):
    F, n = L.field, L.dim
    full = L.full_space()
    spans = [
        Subspace.from_vectors(F, n, [[_entry(F, rng) for _ in range(n)] for _ in range(d)]) for d in range(1, n)
    ]
    out = [Subspace.zero(F, n), full, center(L), product_space(L, full, full), _trace_kernel(L), *spans]
    for S in (left_annihilator(L), _right_annihilator(L)):
        out += [_line(S, rng), _line(S, rng), S]
    return out


def check(L, U):
    """Assert both forms and `is_ideal` against the definition; return
    (closed on the left, closed on the right)."""
    left, right = closed(L, U, (True,)), closed(L, U, (False,))
    assert routine(L, U, LEFT) is left, (L.name, U)
    assert routine(L, U, TWO_SIDED) is (left and right), (L.name, U)
    assert is_ideal(L, U) is (left and right), (L.name, U)
    return left, right


def test_the_ideal_routine_matches_the_definition():
    seen = Counter()

    @settings(max_examples=300)
    @given(
        st.one_of(family_algebras(FIELDS), left_only_actions(FIELDS), central_algebras(FIELDS)),
        st.integers(0, 2**32),
    )
    def run(L, seed):
        for U in candidates(L, random.Random(seed)):
            seen[L.field, check(L, U)] += 1

    run()
    for F in FIELDS:
        # a subspace closed on each side alone, and an ideal
        assert seen[F, (True, False)] and seen[F, (False, True)] and seen[F, (True, True)], (F, seen)


def _swap_action(F):
    """x acting on span(v_1, v_2) by the swap, from the left only."""
    return left_only_action(Matrix(F, [[0, 1], [1, 0]]), F)


def test_one_sided_lines_of_a_left_only_action():
    for F in FIELDS:
        L = _swap_action(F)
        x, v1, v12 = ([int(i in s) for i in range(3)] for s in ({0}, {1}, {1, 2}))
        for row, sides in ((x, (False, True)), (v1, (True, False)), (v12, (True, True))):
            U = Subspace.from_vectors(F, 3, [row])
            assert check(L, U) == sides, (F, row)
    L = AlgebraTable.from_products(F3, 3, {(0, 1): (0, 1, 0), (0, 2): (0, 0, 1)}, "left-only-action")
    assert check(L, Subspace.from_vectors(F3, 3, [[1, 0, 0]])) == (False, True)


def test_the_scan_kernel_keeps_both_sides():
    # every stratum's MODE_IDEAL matches are the two-sided ideals of the
    # definition, on tables with subspaces closed on one side only
    for F in (F3, F5, F7):
        for L in (_swap_action(F), left_only_action(Matrix(F, [[0, 1], [0, 0]]), F)):
            n = L.dim
            for d in range(n + 1):
                want = [(U.pivots, U._rows) for U in enumerate_subspaces(n, d, F) if closed(L, U, TWO_SIDED)]
                _, truncated, got = scan_subspaces(table_flat(L), n, F.p, d, MODE_IDEAL, -1, -1)
                assert not truncated and got == want, (F, d)
