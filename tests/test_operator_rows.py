"""The abelian-ideal bounds computed from whole operator rows, against the
formulas they replaced, which are kept here as test-local references.

`linalg._dependencies` finds {x : sum_i x[i] v[i] = 0} from the rows v[i]
themselves, and `Subspace._kernel` is `_dependencies` of its conditions'
columns; the reference for both is `reference_kernel`, the reversed-column
elimination that `Subspace._kernel` ran before, kept here on the column
sweep `conftest.reference_echelon`.
`algebra.center` and `left_annihilator` are the dependencies among the
flattened operators L_e_i (+) R_e_i and L_e_i; the references are the
kernels of the 2n^2 and n^2 condition rows [x, e_j]_k and [e_j, x]_k.
`invariants._trace_rows` takes each trace Tr(L_e_i L_e_j) as one dot
product of dense flattened operators; the reference,
`conftest.reference_trace_rows`, builds each L_e_i from brackets and
multiplies the matrices out.  `series` reads [L, L] off the table's nonzero
products (`algebra._derived_space`) and starts both chains there; the
reference, `conftest.reference_series`, walks both from L by brackets
alone.  Tables are drawn
over GF(3), GF(5), GF(7) and QQ, under a random invertible basis change
over GF(p) and `rational_change` over QQ, left-only actions among them."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras import invariants
from leibniz_algebras.algebra import (
    AlgebraTable,
    _derived_space,
    _product_within,
    center,
    direct_sum,
    left_annihilator,
)
from leibniz_algebras.catalog import heisenberg_rotation_extension, rotation_2x2
from leibniz_algebras.families import abelian_algebra, heisenberg, make_c, make_d, oscillator
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import _trace_rows, series
from leibniz_algebras.linalg import Matrix, Subspace, _dependencies

from conftest import (
    F3,
    F5,
    F7,
    KERNEL_FIELDS,
    central_algebras,
    condition_sets,
    cycle_actions,
    disguise,
    family_algebras,
    identity_actions,
    left_only_action,
    left_only_actions,
    reference_echelon,
    reference_integer_view,
    reference_product_space,
    reference_series,
    reference_trace_rows,
)

FIELDS = (F3, F5, F7, QQ)

drawn_tables = st.one_of(
    family_algebras(FIELDS),
    identity_actions(FIELDS),
    cycle_actions(FIELDS),
    left_only_actions(FIELDS),
)


def fresh(L):
    """The same table with an empty per-table cache."""
    return AlgebraTable(L.field, L.c, name=L.name)


# -- references: the formulas the whole-row code replaced ----------------------


def reference_kernel(field, ambient_dim, conditions):
    """{x : sum_i c[i] x[i] = 0 for every condition row c}, the rows
    residues over GF(p) and ints over QQ, by the elimination that
    `Subspace._kernel` ran before it became `_dependencies`.

    One elimination, on the columns in reverse order: each reduced row's
    pivot a is then at its rightmost nonzero column pc, and the kernel
    vector v_f of a free column f (d at f, 0 at the other free columns,
    -row[f] d / a at the pivot pc of each row, d the lcm of those a with
    row[f] != 0) has its other nonzero entries at pivots pc > f.  So the
    v_f, by increasing f, divided by their content, are the kernel's
    canonical rows; over GF(p) every a and d is 1."""
    n, p = ambient_dim, field.p
    red, flipped = reference_echelon(field, [row[::-1] for row in conditions], n)
    heads = [(n - 1 - pc, row[pc]) for row, pc in zip(red, flipped)]
    bound = {pc for pc, _ in heads}
    free = [f for f in range(n) if f not in bound]
    rows = []
    for f in free:
        d = math.lcm(*(a for row, (_, a) in zip(red, heads) if row[n - 1 - f]))
        v = [0] * n
        v[f] = d
        for row, (pc, a) in zip(red, heads):
            v[pc] = -row[n - 1 - f] * (d // a)
        if p is not None:
            v = [x % p for x in v]
        elif d > 1:
            g = math.gcd(*v)
            v = [x // g for x in v]
        rows.append(v)
    return Subspace(field, n, rows, free)


def ref_center(L):
    n, c = L.dim, reference_integer_view(L)[1]
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([c[i][j][k] for i in range(n)])  # [x, e_j]_k
            rows.append([c[j][i][k] for i in range(n)])  # [e_j, x]_k
    return reference_kernel(L.field, n, rows)


def ref_left_annihilator(L):
    n, c = L.dim, reference_integer_view(L)[1]
    rows = [[c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    return reference_kernel(L.field, n, rows)


# -- the dependency helper -------------------------------------------------------


@st.composite
def row_sets(draw, shape):
    """(field, rows): n rows of m entries, residues over GF(p) and ints over
    QQ, n > m for "tall", n = m for "square" and n < m for "short".  The
    rows are combinations of r <= min(n, m) drawn rows, so dependencies
    show up whenever r < n."""
    F = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 6))
    n = {"tall": draw(st.integers(m + 1, m + 4)), "square": m, "short": draw(st.integers(0, m - 1))}[shape]
    entries = st.integers(0, F.p - 1) if F.is_prime_field else st.integers(-3, 3)
    r = draw(st.integers(0, min(n, m)))
    gens = [[draw(entries) for _ in range(m)] for _ in range(r)]
    coeffs = [[draw(entries) for _ in range(r)] for _ in range(n)]
    rows = [[sum(a * g[k] for a, g in zip(co, gens)) for k in range(m)] for co in coeffs]
    if F.is_prime_field:
        rows = [[x % F.p for x in row] for row in rows]
    return F, rows


@pytest.mark.parametrize("shape", ["tall", "square", "short"])
@settings(max_examples=60)
@given(data=st.data())
def test_dependencies_are_the_kernel_of_the_transpose(shape, data):
    F, rows = data.draw(row_sets(shape))
    n, m = len(rows), len(rows[0]) if rows else 0
    transposed = [[row[k] for row in rows] for k in range(m)]
    got, want = _dependencies(F, rows), reference_kernel(F, n, transposed)
    assert got == want and got.pivots == want.pivots


@pytest.mark.parametrize("shape", ["tall", "square", "short"])
@settings(max_examples=80)
@given(data=st.data())
def test_kernel_matches_the_reference_kernel(shape, data):
    F, n, rows = data.draw(condition_sets(shape))
    got, want = Subspace._kernel(F, n, rows), reference_kernel(F, n, rows)
    assert got == want and got.pivots == want.pivots


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=repr)
@pytest.mark.parametrize(
    "n, rows",
    [
        (0, []),  # ambient dimension 0, no conditions
        (0, [[], []]),  # ambient dimension 0, two empty conditions
        (3, []),  # no conditions: the kernel is F^3
        (3, [[0, 0, 0], [0, 0, 0]]),  # zero rows only
        (3, [[1, 1, 0], [1, 1, 0], [1, 1, 0]]),  # one row, repeated
        (2, [[1, 1], [0, 0], [1, 1], [0, 1]]),  # tall, of full rank
    ],
)
def test_kernel_edge_cases_match_the_reference_kernel(F, n, rows):
    got, want = Subspace._kernel(F, n, rows), reference_kernel(F, n, rows)
    assert got == want and got.pivots == want.pivots


# -- center, left annihilator, trace rows and series on drawn tables --------------


@settings(max_examples=120)
@given(drawn_tables)
def test_operator_rows_match_the_condition_rows(L):
    assert center(fresh(L)) == ref_center(L)
    assert left_annihilator(fresh(L)) == ref_left_annihilator(L)
    assert _trace_rows(fresh(L)) == reference_trace_rows(L)
    assert series(fresh(L)).lower_central_chain == reference_series(L)[1]


def special_tables():
    """Perfect, abelian, nilpotent and one-sided tables on each field: the
    lower central chain stops at L, ends at once, ends after a few steps,
    or stalls.  A perfect [L, L] that is not L stops both chains at once,
    also under a basis change."""
    rng = random.Random(1)
    for F in FIELDS:
        rot = rotation_2x2(F)
        yield "perfect", make_d(rot, F)
        yield "d(rot)+F", direct_sum(make_d(rot, F), abelian_algebra(1, F))
        yield "d(rot)+F^2 disguised", disguise(direct_sum(make_d(rot, F), abelian_algebra(2, F)), rng)
        if F is QQ:
            diag = make_d(Matrix(F, [[1, 0], [0, -1]]), F)
            yield "d(diag)+Q disguised", disguise(direct_sum(diag, abelian_algebra(1, F)), rng)
        yield "abelian-3", abelian_algebra(3, F)
        yield "abelian-0", abelian_algebra(0, F)
        yield "heisenberg", heisenberg(F)
        yield "heisenberg+F^2", direct_sum(heisenberg(F), abelian_algebra(2, F))
        yield "c(rot)", make_c(rot, F)
        yield "rotext", heisenberg_rotation_extension(F)
        yield "oscillator", oscillator(F)
        yield "left-only", left_only_action(Matrix(F, [[1, 2, 0], [0, 0, 1], [0, 0, 0]]), F)


@pytest.mark.parametrize(
    "name, L", list(special_tables()), ids=lambda v: v if isinstance(v, str) else repr(v.field)
)
def test_lower_central_chain_on_perfect_abelian_and_nilpotent_tables(name, L):
    rep = series(fresh(L))
    assert (rep.derived_chain, rep.lower_central_chain) == reference_series(L)
    full = L.full_space()
    assert _derived_space(fresh(L)) == reference_product_space(L, full, full)
    assert center(fresh(L)) == ref_center(L)
    assert left_annihilator(fresh(L)) == ref_left_annihilator(L)
    assert _trace_rows(fresh(L)) == reference_trace_rows(L)
    if name == "perfect":
        assert rep.derived_dims == rep.lower_central_dims == (3,)


def test_series_reads_L_L_off_the_table_once(monkeypatch):
    """[L, L] starts both chains: `series` reads it off the table once per
    table (`_derived_space`) and never brackets L with L: its steps run
    through `_product_within`, and none is [L, L].  On disguised d(rot)
    (+) F^k, whose [L, L] is perfect, it runs one step, [L2, L2] = L2,
    which stops at its bound L2, and no [L, L2]."""
    calls, read = [], []

    def counting(L, U, V, bound):
        calls.append(U.dim == V.dim == L.dim)
        return _product_within(L, U, V, bound)

    def reading(L):
        read.append(L)
        return _derived_space(L)

    monkeypatch.setattr(invariants, "_product_within", counting)
    monkeypatch.setattr(invariants, "_derived_space", reading)
    for F in FIELDS:
        for L in (heisenberg_rotation_extension(F), make_d(rotation_2x2(F), F), abelian_algebra(2, F)):
            calls.clear()
            read.clear()
            T = fresh(L)
            series(T)
            assert calls.count(True) == 0 and read == [T], (F, L)
        rng = random.Random(F.p or 0)
        for k in (1, 2, 3):
            L = disguise(direct_sum(make_d(rotation_2x2(F), F), abelian_algebra(k, F)), rng)
            calls.clear()
            rep = series(fresh(L))
            assert calls == [False], (F, k)
            assert rep.derived_dims == rep.lower_central_dims == (k + 3, 3)


@settings(max_examples=150)
@given(st.one_of(drawn_tables, central_algebras(FIELDS)))
def test_derived_space_and_series_match_the_bracket_reference(L):
    # [L, L] read off the table, and both chains started from it, are what
    # brackets of basis vectors alone give, on disguised tables and on
    # tables in their canonical basis, whose products are sparse
    full = L.full_space()
    assert _derived_space(fresh(L)) == reference_product_space(L, full, full)
    rep = series(fresh(L))
    assert (rep.derived_chain, rep.lower_central_chain) == reference_series(L)
