"""Every table carries its integer view from the start: one builder,
`AlgebraTable._build`, sets the table and its view (D, D*c, the nonzero
products) from the table's nonzero products.

Every such view must be what `conftest.reference_integer_view` computes from
the table's own entries with a full n^3 scan, and every table built from
products must equal the one the coercing constructor `AlgebraTable(...)`
builds from the same products written out as a full n*n*n tensor.  The
builders are `AlgebraTable(...)`, `from_products` and the families on it,
`parse_algebra`, `direct_sum`, `subalgebra_table`, `quotient`,
`change_of_basis` and `_e_table`; for `_e_table` the reference is the
construction it replaced, heisenberg (+) F^(n-4) written out as a table
and phi, theta applied to its basis vectors.  Fields: QQ, GF(3), GF(5) and
GF(7).  `rename` keeps the view and the cache, since neither reads the
name."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras.algebra import (
    AlgebraTable,
    _derived_space,
    center,
    change_of_basis,
    direct_sum,
    generated_subalgebra,
    is_ideal,
    quotient,
    subalgebra_table,
)
from leibniz_algebras.catalog import standard_fixtures
from leibniz_algebras.errors import DimensionMismatchError, FieldMismatchError
from leibniz_algebras.families import (
    _e_table,
    abelian_algebra,
    heisenberg,
    heisenberg_plus_abelian,
    oscillator,
    raw_pair_table,
)
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import nilradical, series
from leibniz_algebras.linalg import Matrix, Subspace
from leibniz_algebras.serialize import _format_scalar, parse_algebra

from conftest import F3, F5, F7, family_algebras, rand_invertible, reference_integer_view

FIELDS = (QQ, F3, F5, F7)


def assert_view(T):
    """T's integer view is the one its entries give."""
    assert (T._D, T._Dc, T._products) == reference_integer_view(T), T


def dense(F, dim, products):
    """The products written out as a full n*n*n tensor, 0 where none is given."""
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in products.items():
        c[i][j] = list(vec)
    return c


def raw_entries(F):
    """Entries as a caller writes them: ints (negative ones too), strings
    and Fractions, with denominators that reduce (2/4, -3/6) but that no
    p here divides; over QQ also strings of fractions."""
    ints = st.integers(-6, 6)
    fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 4, 8)))
    kinds = [ints, fractions, ints.map(str), st.sampled_from((Fraction(2, 4), Fraction(-3, 6), 0))]
    if not F.is_prime_field:
        kinds.append(st.sampled_from(("2/4", "-3/6", "5/10", "-7", "0")))
    return st.one_of(*kinds)


@st.composite
def raw_products(draw, fields=FIELDS, dims=(0, 4)):
    """(field, dim, products): a sparse product dict with raw entries, zero
    vectors given explicitly among them."""
    F = draw(st.sampled_from(fields))
    dim = draw(st.integers(*dims))
    entries = raw_entries(F)
    products = {}
    if dim:
        keys = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
        for ij in draw(st.lists(keys, max_size=dim * dim, unique=True)):
            if draw(st.integers(0, 3)) == 0:
                products[ij] = (0,) * dim
            else:
                products[ij] = tuple(draw(entries) for _ in range(dim))
    return F, dim, products


@settings(max_examples=150)
@given(raw_products())
def test_from_products_builds_the_table_with_its_view(drawn):
    F, dim, products = drawn
    T = AlgebraTable.from_products(F, dim, products, name="drawn")
    assert_view(T)
    assert T == AlgebraTable(F, dense(F, dim, products)) and T.name == "drawn"


@settings(max_examples=100)
@given(raw_products(dims=(0, 3)), raw_products(dims=(0, 3)), st.integers(0, 2))
def test_direct_sums_carry_their_view(left, right, k):
    F, d1, p1 = left
    L1 = AlgebraTable.from_products(F, d1, p1, name="left")
    L2 = AlgebraTable.from_products(F, right[1], right[2]) if right[0] == F else abelian_algebra(k, F)
    A = abelian_algebra(k, F)
    for S in (direct_sum(L1, L2), direct_sum(L1, A), direct_sum(A, L1), direct_sum(A, A)):
        assert_view(S)
    # a summand from the coercing constructor sums the same way
    fresh = AlgebraTable(F, L1.c)
    S = direct_sum(fresh, L2)
    assert_view(S)
    n1 = L1.dim
    want = [[[0] * S.dim for _ in range(S.dim)] for _ in range(S.dim)]
    for M, shift in ((L1, 0), (L2, n1)):
        for i, ci in enumerate(M.c):
            for j, cij in enumerate(ci):
                want[shift + i][shift + j][shift : shift + M.dim] = cij
    assert S == AlgebraTable(F, want)


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_family_and_catalog_tables_carry_their_view(F):
    rot = Matrix(F, [[0, -1], [1, 0]])
    tables = [
        abelian_algebra(0, F),
        abelian_algebra(1, F),
        abelian_algebra(3, F),
        heisenberg(F),
        oscillator(F),
        heisenberg_plus_abelian(2, F),
        raw_pair_table(rot, Matrix(F, [[Fraction(2, 4), 0], [0, -3]]), F),
        AlgebraTable.from_products(F, 1, {(0, 0): ("-3",)}),
        AlgebraTable.from_products(F, 1, {(0, 0): (0,)}),
        *standard_fixtures(F),
    ]
    for T in tables:
        assert_view(T)


@settings(max_examples=60)
@given(family_algebras(FIELDS), st.data())
def test_subalgebra_tables_carry_their_view(L, data):
    n = L.dim
    rows = [[data.draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(data.draw(st.integers(0, 2)))]
    spaces = [
        Subspace.zero(L.field, n),
        L.full_space(),
        center(L),
        nilradical(L),
        series(L).derived_chain[-1],
        generated_subalgebra(L, Subspace.from_vectors(L.field, n, rows)),
    ]
    for U in spaces:
        T = subalgebra_table(L, U)
        assert_view(T)
        assert T.dim == U.dim


@settings(max_examples=100)
@given(raw_products())
def test_the_coercing_constructor_builds_the_table_with_its_view(drawn):
    F, dim, products = drawn
    T = AlgebraTable(F, dense(F, dim, products), name="drawn")
    assert_view(T)
    assert T == AlgebraTable.from_products(F, dim, products) and T.name == "drawn"


@settings(max_examples=100)
@given(raw_products())
def test_parsed_tables_carry_their_view(drawn):
    # the document lists every drawn product, the zero vectors among them
    F, dim, products = drawn
    want = AlgebraTable.from_products(F, dim, products, name="drawn")
    field = {"kind": "rationals"} if F == QQ else {"kind": "gf", "p": F.p}
    table = [{"i": i, "j": j, "c": [_format_scalar(x, F) for x in want.c[i][j]]} for i, j in products]
    doc = {"format_version": 1, "field": field, "dim": dim, "table": table, "metadata": {"name": "drawn"}}
    T = parse_algebra(json.dumps(doc))
    assert_view(T)
    assert T == want and T.name == "drawn"


@settings(max_examples=60)
@given(family_algebras(FIELDS), st.integers(0, 2**32 - 1))
def test_basis_changes_carry_their_view(L, seed):
    P = rand_invertible(L.field, L.dim, random.Random(seed))
    T = change_of_basis(L, P)
    assert_view(T)
    assert T == AlgebraTable(L.field, T.c) and T.name == L.name


@settings(max_examples=60)
@given(family_algebras(FIELDS))
def test_quotients_carry_their_view(L):
    ideals = [
        Subspace.zero(L.field, L.dim),
        L.full_space(),
        center(L),
        nilradical(L),
        _derived_space(L),
        series(L).lower_central_chain[-1],
    ]
    for I in ideals:
        assert is_ideal(L, I)
        Q, _ = quotient(L, I)
        assert_view(Q)
        assert Q.dim == L.dim - I.dim


def test_from_products_keeps_its_errors():
    for F in FIELDS:
        for key in ((2, 0), (0, 2), (-1, 0)):
            with pytest.raises(DimensionMismatchError, match="product index out of range"):
                AlgebraTable.from_products(F, 2, {(0, 0): (1, 0), key: (1, 0)})
        for vec in ((1,), (1, 0, 0), ()):
            with pytest.raises(DimensionMismatchError, match=r"structure tensor is not n\*n\*n"):
                AlgebraTable.from_products(F, 2, {(0, 1): vec})
        # an index out of range is named before a vector of the wrong length
        with pytest.raises(DimensionMismatchError, match="product index out of range"):
            AlgebraTable.from_products(F, 2, {(0, 1): (1,), (5, 0): (1, 0)})


# -- family e ---------------------------------------------------------------------


def reference_e_table(phi, theta, v, n, F):
    """The family-e table as `_e_table` built it before: H =
    heisenberg_plus_abelian(n - 4) as a table, phi and theta applied to its
    basis vectors, H's products copied, all coerced by `AlgebraTable`."""
    H = heisenberg_plus_abelian(n - 4, F)
    h = H.dim
    prods = {(0, 0): (0,) + tuple(v)}
    for j in range(h):
        prods[(0, 1 + j)] = (0,) + tuple(phi.apply_col(H.basis_vector(j)))
        prods[(1 + j, 0)] = (0,) + tuple(theta.apply_col(H.basis_vector(j)))
    for i in range(h):
        for j in range(h):
            prods[(1 + i, 1 + j)] = (0,) + tuple(H.c[i][j])
    return AlgebraTable(F, dense(F, n, prods), name="e(phi,theta,v,%d)" % n)


@settings(max_examples=120)
@given(st.data())
def test_e_table_equals_the_heisenberg_table_construction(data):
    F = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(4, 7))
    h = n - 1
    entries = raw_entries(F)
    phi, theta = (Matrix(F, [[data.draw(entries) for _ in range(h)] for _ in range(h)]) for _ in "pt")
    v = [data.draw(entries) for _ in range(h)]
    got = _e_table(phi, theta, v, n, F)
    want = reference_e_table(phi, theta, v, n, F)
    assert got == want and got.name == want.name
    assert_view(got)


def test_e_table_keeps_its_shape_errors():
    F = QQ
    phi = Matrix(F, [[0] * 3 for _ in range(3)])
    with pytest.raises(DimensionMismatchError, match="family e needs dimension >= 4"):
        _e_table(phi, phi, (0, 0, 0), 3, F)
    wide = Matrix(F, [[0] * 4 for _ in range(3)])
    for a, b in ((wide, phi), (phi, wide), (Matrix(F, [[0] * 4 for _ in range(4)]), phi)):
        with pytest.raises(DimensionMismatchError, match="phi and theta must be 3x3"):
            _e_table(a, b, (0, 0, 0), 4, F)
    for v in ((0, 0), (0, 0, 0, 0)):
        with pytest.raises(DimensionMismatchError, match="v must have length 3"):
            _e_table(phi, phi, v, 4, F)
    # phi and theta are read as they stand, so they must be over the field
    other = Matrix(F3, [[0] * 3 for _ in range(3)])
    for a, b in ((other, phi), (phi, other)):
        with pytest.raises(FieldMismatchError):
            _e_table(a, b, (0, 0, 0), 4, F)


# -- rename -------------------------------------------------------------------------


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_rename_keeps_the_cache(F):
    for L in standard_fixtures(F):
        series(L)
        R = L.rename("renamed")
        assert R.name == "renamed" and R == L
        assert R._cache == L._cache and R._cache is not L._cache
        # what either table caches later stays its own
        nilradical(R)
        assert "nilradical" in R._cache and "nilradical" not in L._cache
        # the view is kept, and every entry is what the function computes on
        # a fresh copy
        assert_view(R)
        assert (R._D, R._Dc, R._products) == (L._D, L._Dc, L._products)
        fresh = AlgebraTable(F, R.c)
        assert series(R) == series(fresh)
        assert nilradical(R) == nilradical(fresh)
