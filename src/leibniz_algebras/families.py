"""Constructors for the parametric algebra families used by the classifier.

Basis orders are fixed so golden tables are reproducible:

  family a, b, c : (a, b, x, y)        indices (0, 1, 2, 3)
  family d       : (h, x, y)           indices (0, 1, 2)
  family e       : (x, H-basis)        index 0 is the extending generator
  heisenberg     : (e1, e1hat, e0)     [e1, e1hat] = e0, e0 central
  oscillator     : (em1, e0, e1, e1hat)

A 2x2 parameter matrix lam encodes one-sided actions on span(x, y) through

  [g, x] = lam11*x + lam12*y,   [g, y] = lam21*x + lam22*y.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import (
    AlgebraTable,
    _bracket,
    center,
    direct_sum,
    leibniz_failure,
)
from .errors import DimensionMismatchError, FamilyParameterError
from .fields import FieldSpec
from .linalg import Matrix


def _check_2x2(m: Matrix, label: str) -> None:
    if m.rows != 2 or m.cols != 2:
        raise DimensionMismatchError("%s must be 2x2" % label)


def _commutator_2x2(lam: Matrix, mu: Matrix) -> Matrix:
    return (lam @ mu) - (mu @ lam)


def raw_pair_table(lam: Matrix, mu: Matrix, field: FieldSpec) -> AlgebraTable:
    """The 4-dim table of family a without any validity check.

    Exists for negative testing: the table is a Leibniz algebra exactly when
    lam and mu commute.
    """
    _check_2x2(lam, "lam")
    _check_2x2(mu, "mu")
    l, m = lam.data, mu.data
    return AlgebraTable.from_products(
        field,
        4,
        {
            (0, 2): (0, 0, l[0][0], l[0][1]),
            (0, 3): (0, 0, l[1][0], l[1][1]),
            (1, 2): (0, 0, m[0][0], m[0][1]),
            (1, 3): (0, 0, m[1][0], m[1][1]),
        },
        name="a(lam,mu)",
    )


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
    _check_2x2(lam, "lam")
    _check_2x2(mu, "mu")
    F = field
    l, m = lam.data, mu.data

    def neg(vec):
        return tuple(F.neg(F.of(x)) for x in vec)

    la_x = (0, 0, l[0][0], l[0][1])
    la_y = (0, 0, l[1][0], l[1][1])
    mu_x = (0, 0, m[0][0], m[0][1])
    mu_y = (0, 0, m[1][0], m[1][1])
    prods = {
        (0, 2): la_x,
        (0, 3): la_y,
        (1, 2): mu_x,
        (1, 3): mu_y,
    }
    prods[(2, 0)] = neg(tuple(F.of(x) for x in la_x))
    prods[(3, 0)] = neg(tuple(F.of(x) for x in la_y))
    prods[(2, 1)] = neg(tuple(F.of(x) for x in mu_x))
    prods[(3, 1)] = neg(tuple(F.of(x) for x in mu_y))
    return AlgebraTable.from_products(field, 4, prods, name="b(lam,mu)")


def make_c(lam: Matrix, field: FieldSpec) -> AlgebraTable:
    """Family c: skew action of a on span(x, y) plus [x, y] = -[y, x] = b.

    The table is Leibniz (equivalently Lie) exactly when lam is traceless;
    construction itself never rejects.
    """
    _check_2x2(lam, "lam")
    F = field
    l = lam.data
    la_x = (0, 0, l[0][0], l[0][1])
    la_y = (0, 0, l[1][0], l[1][1])
    neg = lambda vec: tuple(F.neg(F.of(x)) for x in vec)
    prods = {
        (0, 2): la_x,
        (0, 3): la_y,
        (2, 0): neg(la_x),
        (3, 0): neg(la_y),
        (2, 3): (0, 1, 0, 0),
        (3, 2): (0, F.neg(F.one), 0, 0),
    }
    return AlgebraTable.from_products(field, 4, prods, name="c(lam)")


def make_d(m: Matrix, field: FieldSpec) -> AlgebraTable:
    """Family d: 3-dim skew table [h,x], [h,y] given by a traceless m, [x,y] = h."""
    _check_2x2(m, "m")
    F = field
    if F.of(m.trace()) != F.zero:
        raise FamilyParameterError("parameter matrix must be traceless")
    mm = m.data
    h_x = (0, mm[0][0], mm[0][1])
    h_y = (0, mm[1][0], mm[1][1])
    neg = lambda vec: tuple(F.neg(F.of(x)) for x in vec)
    prods = {
        (0, 1): h_x,
        (0, 2): h_y,
        (1, 0): neg(h_x),
        (2, 0): neg(h_y),
        (1, 2): (1, 0, 0),
        (2, 1): (F.neg(F.one), 0, 0),
    }
    return AlgebraTable.from_products(field, 3, prods, name="d(m)")


def heisenberg(field: FieldSpec) -> AlgebraTable:
    """3-dim algebra on (e1, e1hat, e0) with [e1, e1hat] = -[e1hat, e1] = e0."""
    F = field
    return AlgebraTable.from_products(
        field,
        3,
        {(0, 1): (0, 0, 1), (1, 0): (0, 0, F.neg(F.one))},
        name="heisenberg",
    )


def oscillator(field: FieldSpec) -> AlgebraTable:
    """4-dim algebra on (em1, e0, e1, e1hat):

    [em1, e1] = -[e1, em1] = e1hat,  [em1, e1hat] = -[e1hat, em1] = -e1,
    [e1, e1hat] = -[e1hat, e1] = e0.
    """
    F = field
    neg1 = F.neg(F.one)
    return AlgebraTable.from_products(
        field,
        4,
        {
            (0, 2): (0, 0, 0, 1),
            (2, 0): (0, 0, 0, neg1),
            (0, 3): (0, 0, neg1, 0),
            (3, 0): (0, 0, 1, 0),
            (2, 3): (0, 1, 0, 0),
            (3, 2): (0, neg1, 0, 0),
        },
        name="oscillator",
    )


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


def is_left_derivation(H: AlgebraTable, phi: Matrix) -> bool:
    """Whether phi (column-operator matrix) satisfies
    phi([a, b]) = [phi(a), b] + [a, phi(b)] on all basis pairs."""
    F = H.field
    n = H.dim
    if phi.rows != n or phi.cols != n:
        raise DimensionMismatchError("derivation matrix must be dim x dim")
    images = [phi.col(i) for i in range(n)]  # phi(e_i)
    for i in range(n):
        ei = H.basis_vector(i)
        for j in range(n):
            ej = H.basis_vector(j)
            lhs = phi.apply_col(H.c[i][j])
            r1 = _bracket(H, images[i], ej)
            r2 = _bracket(H, ei, images[j])
            if any(a != F.add(b, c) for a, b, c in zip(lhs, r1, r2)):
                return False
    return True


def make_e(phi: Matrix, theta: Matrix, v: Sequence, n: int, field: FieldSpec) -> AlgebraTable:
    """Family e: one-dimensional extension of H = heisenberg (+) F^(n-4).

    Basis (x, H-basis) with products

      [x, x] = v,  [x, b] = phi(b),  [a, x] = theta(a),  [a, b] = [a, b]_H

    for a, b in H.  phi and theta are (n-1)x(n-1) column-operator matrices
    over the H coordinates and v is a length-(n-1) vector in the center of H.
    phi must be a left derivation of H.  The assembled table must satisfy the
    Leibniz rule; parameter triples whose table does not are rejected, since
    no closed-form compatibility condition is available.
    """
    if n < 4:
        raise DimensionMismatchError("family e needs dimension >= 4")
    F = field
    H = heisenberg_plus_abelian(n - 4, field)
    h = H.dim
    if phi.rows != h or phi.cols != h or theta.rows != h or theta.cols != h:
        raise DimensionMismatchError("phi and theta must be %dx%d" % (h, h))
    vv = tuple(F.of(x) for x in v)
    if len(vv) != h:
        raise DimensionMismatchError("v must have length %d" % h)
    if not center(H).contains_vector(vv):
        raise FamilyParameterError("v must lie in the center of the base algebra")
    if not is_left_derivation(H, phi):
        raise FamilyParameterError("phi is not a left derivation of the base algebra")

    prods = {}
    prods[(0, 0)] = (F.zero,) + vv
    for j in range(h):
        img = phi.apply_col(H.basis_vector(j))
        prods[(0, 1 + j)] = (F.zero,) + tuple(img)
        img_t = theta.apply_col(H.basis_vector(j))
        prods[(1 + j, 0)] = (F.zero,) + tuple(img_t)
    for i in range(h):
        for j in range(h):
            prods[(1 + i, 1 + j)] = (F.zero,) + tuple(H.c[i][j])
    table = AlgebraTable.from_products(field, n, prods, name="e(phi,theta,v,%d)" % n)
    bad = leibniz_failure(table)
    if bad is not None:
        raise FamilyParameterError(
            "parameter triple yields a non-Leibniz table (first failing triple %r)"
            % (bad,)
        )
    return table
