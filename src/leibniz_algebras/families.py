"""Constructors for the parametric algebra families used by the classifier.

Basis orders are fixed so golden tables are reproducible:

  family a, b, c : (a, b, x, y)        indices (0, 1, 2, 3)
  family d       : (h, x, y)           indices (0, 1, 2)
  family e       : (x, H-basis)        index 0 is the extending generator
  heisenberg     : (e1, e1hat, e0)     [e1, e1hat] = e0, e0 central
  oscillator     : (em1, e0, e1, e1hat)

A 2x2 parameter matrix lam encodes one-sided actions on span(x, y) through

  [g, x] = lam11*x + lam12*y,   [g, y] = lam21*x + lam22*y.

Beyond the shapes of its parameters, make_a checks that lam and mu
commute, make_d that m is traceless, and make_e the Leibniz rule on the
assembled table alone: at the triples (x, a, b) and (x, x, b), a, b in H,
it holds exactly when phi is a left derivation of H and v lies in C(H)
(see `make_e`).  make_b and make_c check nothing; their tables are Leibniz
exactly when lam and mu commute (b) or lam is traceless (c).  The skew
tables (b, c, d, heisenberg, oscillator) state each [e_i, e_j], i < j, once.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import AlgebraTable, _is_frame, direct_sum, leibniz_failure
from .errors import ConsistencyError, DimensionMismatchError, FamilyParameterError
from .fields import FieldSpec, check_same_field
from .linalg import Matrix, Subspace


def _skew_table(field: FieldSpec, dim: int, upper: dict, name: str) -> AlgebraTable:
    """The table with [e_i, e_j] = upper[(i, j)] and [e_j, e_i] its
    negative for each (i, j) in upper, i < j, and every other product 0.
    A vector shorter than `dim` is padded with zeros: the table of X (+)
    F^k, X the table of the vectors as given.  Each given entry is coerced
    once and negated in the field, and the products build the table
    (`AlgebraTable._from_products`)."""
    products = {}
    for (i, j), vec in upper.items():
        vec = products[i, j] = tuple(map(field.of, vec)) + (field.zero,) * (dim - len(vec))
        products[j, i] = tuple(map(field.neg, vec))
    return AlgebraTable._from_products(field, dim, products, name=name)


def _with_abelian(name: str, k: int) -> str:
    """The name `direct_sum` gives X (+) abelian(k), X named `name`; X's
    own when k = 0."""
    return "%s (+) abelian(%d)" % (name, k) if k else name


def _check_2x2(m: Matrix, label: str) -> None:
    if m.rows != 2 or m.cols != 2:
        raise DimensionMismatchError("%s must be 2x2" % label)


def _commutator_2x2(lam: Matrix, mu: Matrix) -> Matrix:
    return (lam @ mu) - (mu @ lam)


def _pair_products(lam: Matrix, mu: Matrix) -> dict:
    """[a, x], [a, y], [b, x] and [b, y] of families a and b."""
    _check_2x2(lam, "lam")
    _check_2x2(mu, "mu")
    l, m = lam.data, mu.data
    return {
        (0, 2): (0, 0, l[0][0], l[0][1]),
        (0, 3): (0, 0, l[1][0], l[1][1]),
        (1, 2): (0, 0, m[0][0], m[0][1]),
        (1, 3): (0, 0, m[1][0], m[1][1]),
    }


def raw_pair_table(lam: Matrix, mu: Matrix, field: FieldSpec) -> AlgebraTable:
    """The 4-dim table of family a without any validity check.

    Exists for negative testing: the table is a Leibniz algebra exactly when
    lam and mu commute.
    """
    return AlgebraTable.from_products(field, 4, _pair_products(lam, mu), name="a(lam,mu)")


def _flatten_2x2(m: Matrix) -> tuple:
    return m.data[0] + m.data[1]


def span_equivalent_iso(
    lam: Matrix, mu: Matrix, lam2: Matrix, mu2: Matrix
) -> Matrix | None:
    """Explicit isomorphism between the two family-a tables when the parameter
    pairs span the same matrix subspace; None when the spans differ.

    Returns a 4x4 basis map P with change_of_basis(table(lam2, mu2), P) equal
    to table(lam, mu).  The map fixes x and y and mixes the two generators by
    an invertible 2x2 coefficient matrix.
    """
    check_same_field(lam.field, mu.field)
    check_same_field(lam.field, lam2.field)
    check_same_field(lam.field, mu2.field)
    F = lam.field
    span1 = Subspace.from_vectors(F, 4, [_flatten_2x2(lam), _flatten_2x2(mu)])
    span2 = Subspace.from_vectors(F, 4, [_flatten_2x2(lam2), _flatten_2x2(mu2)])
    if span1 != span2:
        return None
    s = span1.dim
    if s == 0:
        C = Matrix.identity(F, 2)
    elif s == 2:
        B = Matrix(F, [_flatten_2x2(lam2), _flatten_2x2(mu2)])
        r1 = B.solve_row(_flatten_2x2(lam))
        r2 = B.solve_row(_flatten_2x2(mu))
        C = Matrix(F, [r1, r2])
    else:
        pc = span1.pivots[0]
        u = (_flatten_2x2(lam)[pc], _flatten_2x2(mu)[pc])
        w = (_flatten_2x2(lam2)[pc], _flatten_2x2(mu2)[pc])
        C = _map_column(F, w, u)
    rows = [
        [C.data[0][0], C.data[0][1], F.zero, F.zero],
        [C.data[1][0], C.data[1][1], F.zero, F.zero],
        [F.zero, F.zero, F.one, F.zero],
        [F.zero, F.zero, F.zero, F.one],
    ]
    P = Matrix(F, rows)
    T1 = raw_pair_table(lam, mu, F)
    T2 = raw_pair_table(lam2, mu2, F)
    if not _is_frame(T2, P, T1):
        raise ConsistencyError("span-equivalence map failed verification")
    return P


def _complete_column(F: FieldSpec, v: tuple) -> Matrix:
    """Invertible 2x2 whose first column is the nonzero vector v."""
    a, b = v
    if a != F.zero:
        return Matrix(F, [[a, F.zero], [b, F.one]])
    return Matrix(F, [[a, F.one], [b, F.zero]])


def _map_column(F: FieldSpec, w: tuple, u: tuple) -> Matrix:
    """Invertible 2x2 C with C @ w = u for nonzero columns w, u."""
    U = _complete_column(F, u)
    W = _complete_column(F, w)
    return U @ W.inverse()


def make_a(lam: Matrix, mu: Matrix, field: FieldSpec) -> AlgebraTable:
    """Family a: two generators acting one-sidedly on span(x, y).

    Requires lam and mu to commute; otherwise the table is not Leibniz and
    construction fails with the commutator as diagnostic.
    """
    comm = _commutator_2x2(lam, mu)
    if not comm.is_zero():
        raise FamilyParameterError(
            "parameters do not commute; commutator = %r" % (comm,)
        )
    return raw_pair_table(lam, mu, field)


def make_b(lam: Matrix, mu: Matrix, field: FieldSpec) -> AlgebraTable:
    """Family b: the skew-symmetrized version of family a.

    Always constructs; the table is Leibniz (equivalently Lie) exactly when
    lam and mu commute.
    """
    return _skew_table(field, 4, _pair_products(lam, mu), "b(lam,mu)")


def _c_table(lam: Matrix, dim: int, field: FieldSpec) -> AlgebraTable:
    """c(lam) (+) F^(dim - 4) (`make_c`), with lam's shape checked, written
    down at dimension `dim` under the name `direct_sum` would give it."""
    _check_2x2(lam, "lam")
    l = lam.data
    upper = {
        (0, 2): (0, 0, l[0][0], l[0][1]),
        (0, 3): (0, 0, l[1][0], l[1][1]),
        (2, 3): (0, 1, 0, 0),
    }
    return _skew_table(field, dim, upper, _with_abelian("c(lam)", dim - 4))


def _d_table(m: Matrix, dim: int, field: FieldSpec) -> AlgebraTable:
    """d(m) (+) F^(dim - 3) (`make_d`), with m's shape and trace checked,
    written down at dimension `dim` under the name `direct_sum` would give
    it."""
    _check_2x2(m, "m")
    if field.of(m.trace()) != field.zero:
        raise FamilyParameterError("parameter matrix must be traceless")
    mm = m.data
    upper = {
        (0, 1): (0, mm[0][0], mm[0][1]),
        (0, 2): (0, mm[1][0], mm[1][1]),
        (1, 2): (1, 0, 0),
    }
    return _skew_table(field, dim, upper, _with_abelian("d(m)", dim - 3))


def make_c(lam: Matrix, field: FieldSpec) -> AlgebraTable:
    """Family c: skew action of a on span(x, y) plus [x, y] = -[y, x] = b.

    The table is Leibniz (equivalently Lie) exactly when lam is traceless;
    construction itself never rejects.
    """
    return _c_table(lam, 4, field)


def make_d(m: Matrix, field: FieldSpec) -> AlgebraTable:
    """Family d: 3-dim skew table [h,x], [h,y] given by a traceless m, [x,y] = h."""
    return _d_table(m, 3, field)


def heisenberg(field: FieldSpec) -> AlgebraTable:
    """3-dim algebra on (e1, e1hat, e0) with [e1, e1hat] = -[e1hat, e1] = e0."""
    return _skew_table(field, 3, {(0, 1): (0, 0, 1)}, "heisenberg")


def oscillator(field: FieldSpec) -> AlgebraTable:
    """4-dim algebra on (em1, e0, e1, e1hat):

    [em1, e1] = -[e1, em1] = e1hat,  [em1, e1hat] = -[e1hat, em1] = -e1,
    [e1, e1hat] = -[e1hat, e1] = e0.
    """
    upper = {(0, 2): (0, 0, 0, 1), (0, 3): (0, 0, -1, 0), (2, 3): (0, 1, 0, 0)}
    return _skew_table(field, 4, upper, "oscillator")


def abelian_algebra(k: int, field: FieldSpec) -> AlgebraTable:
    """k-dimensional algebra with all products zero."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    return AlgebraTable.from_products(field, k, {}, name="abelian(%d)" % k)


def heisenberg_plus_abelian(k: int, field: FieldSpec) -> AlgebraTable:
    """The nilpotent algebra heisenberg (+) F^k, the base of family e."""
    H = heisenberg(field)
    if k == 0:
        return H
    return direct_sum(H, abelian_algebra(k, field))


def _e_table(phi: Matrix, theta: Matrix, v: Sequence, n: int, field: FieldSpec) -> AlgebraTable:
    """The table of family e (see `make_e`), with the shapes of its
    parameters checked and not the Leibniz rule.  Its products are written
    down directly: the columns of phi and theta, v, and the one bracket
    pair [u, w] = -[w, u] = z of H = heisenberg (+) F^(n-4) on its basis
    (u, w, z, f..), that is indices 1, 2, 3 here.  phi and theta are read
    as they stand, so they must be over `field`; v is coerced."""
    if n < 4:
        raise DimensionMismatchError("family e needs dimension >= 4")
    F = field
    h = n - 1
    if phi.rows != h or phi.cols != h or theta.rows != h or theta.cols != h:
        raise DimensionMismatchError("phi and theta must be %dx%d" % (h, h))
    vv = tuple(F.of(x) for x in v)
    if len(vv) != h:
        raise DimensionMismatchError("v must have length %d" % h)
    check_same_field(F, phi.field)
    check_same_field(F, theta.field)

    zero = (F.zero,)
    prods = {(0, 0): zero + vv}
    for j, (img, img_t) in enumerate(zip(zip(*phi.data), zip(*theta.data))):
        prods[(0, 1 + j)] = zero + img
        prods[(1 + j, 0)] = zero + img_t
    prods[(1, 2)] = zero * 3 + (F.one,) + zero * (n - 4)
    prods[(2, 1)] = zero * 3 + (F.neg(F.one),) + zero * (n - 4)
    return AlgebraTable._from_products(F, n, prods, name="e(phi,theta,v,%d)" % n)


def make_e(phi: Matrix, theta: Matrix, v: Sequence, n: int, field: FieldSpec) -> AlgebraTable:
    """Family e: one-dimensional extension of H = heisenberg (+) F^(n-4).

    Basis (x, H-basis) with products

      [x, x] = v,  [x, b] = phi(b),  [a, x] = theta(a),  [a, b] = [a, b]_H

    for a, b in H.  phi and theta are (n-1)x(n-1) column-operator matrices
    over the H coordinates, over `field` (another field raises
    FieldMismatchError), and v is a length-(n-1) vector.  Beyond these
    shapes, the one condition is the Leibniz rule on the assembled table;
    parameter triples whose table breaks it raise FamilyParameterError
    naming the first failing basis triple, since no closed-form
    compatibility condition is available.

    Lemma.  The Leibniz rule requires phi to be a left derivation of H and
    v to lie in the center C(H).  At the triple (x, a, b), a, b in H, the
    left Leibniz rule [x, [a, b]] = [[x, a], b] + [a, [x, b]] reads
    phi([a, b]) = [phi(a), b] + [a, phi(b)].  At (x, x, b) it reads
    [x, phi(b)] = [v, b] + [x, phi(b)], that is [v, b] = 0 for every b in
    H; H is Lie, so its left annihilator is C(H).  So `leibniz_failure`
    rejects every (phi, v) that a derivation test or a center test would,
    and no test runs before it.
    """
    table = _e_table(phi, theta, v, n, field)
    bad = leibniz_failure(table)
    if bad is not None:
        raise FamilyParameterError(
            "parameter triple yields a non-Leibniz table (first failing triple %r)"
            % (bad,)
        )
    return table
