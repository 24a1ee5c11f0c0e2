"""The one coordinates routine, `linalg._coords_in_rows`, against the
augmented-RREF bodies that `Matrix.solve_col`, `Matrix.inverse`,
`change_of_basis` and `quotient` had before they shared it.  The reference
bodies are kept here, verbatim but for `self`; results and exceptions
(type and message) must agree on square, non-square, rank-deficient,
inconsistent and empty inputs over QQ, GF(2), GF(3) and GF(5)."""

import hashlib
import random
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from leibniz_algebras.algebra import (
    AlgebraTable,
    _bracket,
    _inherit_leibniz,
    center,
    change_of_basis,
    is_ideal,
    product_space,
    quotient,
    squares_ideal,
)
from leibniz_algebras.catalog import standard_fixtures
from leibniz_algebras.errors import DimensionMismatchError
from leibniz_algebras.fields import GF, QQ, check_same_field
from leibniz_algebras.linalg import Matrix, Subspace, _coords_in_rows, rref_with_pivots
from leibniz_algebras.search import alpha, is_maximal_subalgebra, iso_search

from conftest import F2, F3, F5, rand_invertible

FIELDS = (QQ, F2, F3, F5)


# -- the bodies before the one routine ----------------------------------------


def ref_solve_col(M, target):
    F = M.field
    if len(target) != M.rows:
        raise DimensionMismatchError("rhs length mismatch")
    if M.rows == 0:
        return (F.zero,) * M.cols
    aug = Matrix._canonical(
        F, [row + (F.of(t),) for row, t in zip(M.data, target)], M.cols + 1
    )
    red, rank, pivots = rref_with_pivots(aug)
    n = M.cols
    for r in range(rank):
        if pivots[r] == n:
            return None  # pivot in the augmented column: inconsistent
    x = [F.zero] * n
    for r in range(rank):
        x[pivots[r]] = red.data[r][n]
    return tuple(x)


def ref_solve_row(M, target):
    return ref_solve_col(M.transpose(), target)


def ref_inverse(M):
    F = M.field
    n = M.rows
    if n != M.cols:
        raise DimensionMismatchError("inverse of non-square matrix")
    ident = Matrix.identity(F, n).data
    aug = Matrix._canonical(F, [row + e for row, e in zip(M.data, ident)], 2 * n)
    red, rank, pivots = rref_with_pivots(aug)
    if rank != n or any(pivots[r] != r for r in range(n)):
        raise DimensionMismatchError("singular matrix")
    return Matrix._canonical(F, [row[n:] for row in red.data[:n]], n)


def ref_change_of_basis(L, P):
    check_same_field(L.field, P.field)
    if P.rows != L.dim or P.cols != L.dim:
        raise DimensionMismatchError("basis matrix must be dim x dim")
    Pinv = ref_inverse(P)  # raises on singular P
    n = L.dim
    c = []
    for i in range(n):
        row = []
        for j in range(n):
            w = _bracket(L, P.data[i], P.data[j])
            row.append(Pinv.apply_row(w))
        c.append(row)
    return _inherit_leibniz(L, AlgebraTable(L.field, c, name=L.name))


def ref_quotient(L, I):
    if not is_ideal(L, I):
        raise ValueError("subspace is not a two-sided ideal")
    F = L.field
    n, d = L.dim, I.dim
    P = I.extend_to_full_basis()
    Pinv = ref_inverse(P)
    m = n - d
    proj = Matrix(F, [[Pinv.data[i][d + t] for t in range(m)] for i in range(n)])
    c = []
    for a in range(m):
        row = []
        fa = P.data[d + a]
        for b in range(m):
            fb = P.data[d + b]
            w = _bracket(L, fa, fb)
            coords = Pinv.apply_row(w)
            row.append(tuple(coords[d + t] for t in range(m)))
        c.append(row)
    name = ("%s/ideal" % L.name) if L.name else None
    return _inherit_leibniz(L, AlgebraTable(F, c, name=name)), proj


def outcome(fn, *args):
    """fn(*args) as ("ok", repr of the value), or the exception's type and
    message: reprs tell 0 from Fraction(0) and a Matrix's shape apart."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return type(exc).__name__, str(exc)
    if isinstance(value, Matrix):
        return "ok", repr(value), value.rows, value.cols
    if isinstance(value, tuple) and value and isinstance(value[0], AlgebraTable):
        table, proj = value
        return "ok", repr(table.c), table.name, repr(proj), proj.rows, proj.cols
    if isinstance(value, AlgebraTable):
        return "ok", repr(value.c), value.name
    return "ok", repr(value)


# -- matrices -----------------------------------------------------------------


def scalars(F):
    if F.p is None:
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, F.p - 1)


@st.composite
def systems(draw):
    """(matrix, target of solve_row, target of solve_col) over a drawn field:
    any shape up to 4 x 4, 0 x 0 included, often with repeated rows, and
    targets that are consistent (a combination of the rows or columns) or
    drawn freely, so often inconsistent."""
    F = draw(st.sampled_from(FIELDS))
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(scalars(F), min_size=c, max_size=c), min_size=r, max_size=r))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        rows.insert(draw(st.integers(0, len(rows))), rows[draw(st.integers(0, len(rows) - 1))])
    M = Matrix(F, rows) if rows else Matrix._canonical(F, [], c)
    if draw(st.booleans()):
        x = draw(st.lists(scalars(F), min_size=M.rows, max_size=M.rows))
        row_target = tuple(sum((F.mul(F.of(a), b) for a, b in zip(x, M.col(j))), F.zero) for j in range(M.cols))
        y = draw(st.lists(scalars(F), min_size=M.cols, max_size=M.cols))
        col_target = M.apply_col([F.of(a) for a in y])
    else:
        row_target = tuple(draw(st.lists(scalars(F), min_size=M.cols, max_size=M.cols)))
        col_target = tuple(draw(st.lists(scalars(F), min_size=M.rows, max_size=M.rows)))
    return M, row_target, col_target


@given(systems())
def test_solves_and_inverse_match_the_augmented_rref(case):
    M, row_target, col_target = case
    assert outcome(M.solve_col, col_target) == outcome(ref_solve_col, M, col_target)
    assert outcome(M.solve_row, row_target) == outcome(ref_solve_row, M, row_target)
    assert outcome(M.inverse) == outcome(ref_inverse, M)
    # the wrong length is refused as before
    assert outcome(M.solve_col, col_target + (0,)) == outcome(ref_solve_col, M, col_target + (0,))


@given(st.sampled_from(FIELDS), st.integers(0, 4), st.randoms(use_true_random=False))
def test_inverse_of_square_matrices(F, n, rnd):
    # square matrices, invertible more often than a free draw makes them
    for _ in range(4):
        M = Matrix(F, [[F.of(rnd.randrange(-2, 3)) for _ in range(n)] for _ in range(n)])
        assert outcome(M.inverse) == outcome(ref_inverse, M)
        if M.is_invertible():
            assert M @ M.inverse() == Matrix.identity(F, n)


def test_solve_row_is_zero_at_rows_spanned_by_the_rows_before():
    # rows 1 and 3 repeat rows 0 and 2 (up to a scalar); the solution uses
    # rows 0 and 2 only, whatever the field
    for F in FIELDS:
        M = Matrix(F, [[0, 1, 0], [0, 2, 0], [1, 0, 1], [2, 0, 2], [1, 1, 1]])
        assert M.solve_row([1, 1, 1]) == (F.one, F.zero, F.one, F.zero, F.zero)
        assert M.solve_row([1, 0, 0]) is None
        assert M.solve_row([1, 0, 0]) == ref_solve_row(M, [1, 0, 0])


def test_empty_shapes():
    for F in FIELDS:
        E = Matrix(F, [])
        assert E.inverse() == E == ref_inverse(E)
        assert E.solve_col(()) == () == E.solve_row(())
        # no rows: every x solves M x = 0
        M = Matrix._canonical(F, [], 3)
        assert M.solve_col(()) == (F.zero,) * 3 == ref_solve_col(M, ())
        # no columns: transposing keeps the shape, so x @ M = () has the
        # zero solution with one entry per row
        Z = Matrix(F, [[], []])
        assert (Z.rows, Z.cols) == (2, 0)
        assert (Z.transpose().rows, Z.transpose().cols) == (0, 2)
        assert Z.solve_row(()) == (F.zero, F.zero)
        assert Z.solve_col((0, 0)) == () == ref_solve_col(Z, (0, 0))
        assert Z.solve_col((0, 1)) is None is ref_solve_col(Z, (0, 1))


def test_coords_in_rows_scales_rational_rows():
    # the fraction-free rows [4 0 1 | 0 2] and [0 3 1 | 1 0] have pivots 4
    # and 3: x needs their lcm, 12
    F = QQ
    rows = [(Fraction(2), Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(3), Fraction(1))]
    rank, coords = _coords_in_rows(F, rows, 3)
    assert rank == 2
    v = (Fraction(1), Fraction(1, 7), Fraction(1, 4) + Fraction(1, 21))
    x = coords(v)
    assert x == (Fraction(1, 2), Fraction(1, 21))
    assert coords((Fraction(1), Fraction(0), Fraction(0))) is None


# -- basis changes and quotients ------------------------------------------------


ALGEBRAS = {F: standard_fixtures(F, max_dim=5) for F in FIELDS}


@given(st.sampled_from(FIELDS), st.data())
def test_change_of_basis_and_quotient_match_the_inverse(F, data):
    L = data.draw(st.sampled_from(ALGEBRAS[F]))
    n = L.dim
    shape = data.draw(st.sampled_from(((n, n), (n, n), (n, n), (n + 1, n), (n, max(n - 1, 0)))))
    rows = data.draw(st.lists(st.lists(scalars(F), min_size=shape[1], max_size=shape[1]),
                              min_size=shape[0], max_size=shape[0]))
    if rows and data.draw(st.booleans()):
        rows[-1] = rows[0]  # a repeated row: singular
    P = Matrix(F, rows) if rows else Matrix._canonical(F, [], shape[1])
    assert outcome(change_of_basis, L, P) == outcome(ref_change_of_basis, L, P)
    M = change_of_basis(L, P) if P.rows == P.cols == n and P.is_invertible() else L
    full = M.full_space()
    for I in (squares_ideal(M), center(M), product_space(M, full, full), full, Subspace.zero(F, n)):
        assert outcome(quotient, M, I) == outcome(ref_quotient, M, I)


# -- the golden sweep -----------------------------------------------------------

# sha256 of the lines below, recorded before the one coordinates routine.
# Over GF(5) the sweep stops at n = 3: at n = 4 and 5 its iso_search calls
# take 0.1-30 s each.
GOLDEN = "11b31ee85c9a149f0cca47a7b17b8f633ed65a919e24ea7356c1e75b4a23dcea"
GOLDEN_MAX_DIM = {3: 5, 5: 3}


def golden_lines():
    for p, max_dim in GOLDEN_MAX_DIM.items():
        F = GF(p)
        rng = random.Random(p)
        for L in standard_fixtures(F, max_dim=max_dim):
            for b in range(3):
                M = change_of_basis(L, rand_invertible(F, L.dim, rng))
                yield "%d %s %d %r %r %r" % (
                    p, L.name, b, M.c, iso_search(L, M),
                    is_maximal_subalgebra(M, alpha(M).alpha_witness),
                )


def test_iso_search_and_maximality_golden():
    h = hashlib.sha256()
    for line in golden_lines():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == GOLDEN
