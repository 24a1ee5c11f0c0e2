from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras.algebra import (
    AlgebraTable,
    bracket,
    center,
    change_of_basis,
    is_leibniz,
    is_lie,
    leibniz_failure,
    product_space,
    squares_ideal,
    subalgebra_table,
)
from leibniz_algebras.catalog import heisenberg_rotation_extension
from leibniz_algebras.errors import DimensionMismatchError, FamilyParameterError
from leibniz_algebras.families import (
    abelian_algebra,
    heisenberg,
    heisenberg_plus_abelian,
    make_a,
    make_b,
    make_c,
    make_d,
    make_e,
    oscillator,
    raw_pair_table,
)
from leibniz_algebras.fields import GF, QQ
from leibniz_algebras.invariants import nilradical, series
from leibniz_algebras.linalg import Matrix, Subspace
from leibniz_algebras.search import iso_search

from conftest import F3, F5, rand_matrix

IDENT = Matrix.identity(QQ, 2)
ROT = Matrix(QQ, [[0, 1], [-1, 0]])


def test_make_a_quoted_products():
    A = make_a(IDENT, ROT, QQ)
    a, b, x, y = (A.basis_vector(i) for i in range(4))
    assert bracket(A, a, x) == x
    assert bracket(A, a, y) == y
    assert bracket(A, b, x) == y
    assert bracket(A, b, y) == tuple(QQ.neg(t) for t in x)
    assert bracket(A, x, a) == A.zero_vector()  # one-sided action
    assert is_leibniz(A) and not is_lie(A)
    assert series(A).derived_length == 2


def test_make_a_rejects_noncommuting():
    lam = Matrix(QQ, [[0, 1], [0, 0]])
    mu = Matrix(QQ, [[0, 0], [1, 0]])
    with pytest.raises(FamilyParameterError) as err:
        make_a(lam, mu, QQ)
    assert "commut" in str(err.value)
    # the raw table exists for negative testing and is not Leibniz
    assert not is_leibniz(raw_pair_table(lam, mu, QQ))


def test_make_a_zero_is_abelian():
    Z = Matrix.zeros(QQ, 2, 2)
    A = make_a(Z, Z, QQ)
    assert center(A).dim == 4


def test_pair_biconditional_randomized(rng):
    mismatches = 0
    for _ in range(200):
        lam = rand_matrix(F5, 2, 2, rng)
        mu = rand_matrix(F5, 2, 2, rng)
        commute = (lam @ mu) == (mu @ lam)
        if is_leibniz(raw_pair_table(lam, mu, F5)) != commute:
            mismatches += 1
    for _ in range(50):
        lam = rand_matrix(QQ, 2, 2, rng)
        mu = rand_matrix(QQ, 2, 2, rng)
        commute = (lam @ mu) == (mu @ lam)
        if is_leibniz(raw_pair_table(lam, mu, QQ)) != commute:
            mismatches += 1
    assert mismatches == 0


def test_make_b_skew_and_lie_iff_commuting(rng):
    B = make_b(IDENT, ROT, QQ)
    assert is_leibniz(B) and is_lie(B)
    a, x = B.basis_vector(0), B.basis_vector(2)
    assert bracket(B, x, a) == tuple(QQ.neg(t) for t in bracket(B, a, x))
    lam = Matrix(QQ, [[0, 1], [0, 0]])
    mu = Matrix(QQ, [[0, 0], [1, 0]])
    Bad = make_b(lam, mu, QQ)
    assert not is_lie(Bad) and not is_leibniz(Bad)
    for _ in range(60):
        lam = rand_matrix(F3, 2, 2, rng)
        mu = rand_matrix(F3, 2, 2, rng)
        T = make_b(lam, mu, F3)
        commute = (lam @ mu) == (mu @ lam)
        assert is_lie(T) == commute
        assert is_leibniz(T) == commute


def test_make_c_trace_biconditional(rng):
    for F in (F3, F5, QQ):
        for _ in range(40):
            lam = rand_matrix(F, 2, 2, rng)
            T = make_c(lam, F)
            traceless = F.of(lam.trace()) == F.zero
            assert is_leibniz(T) == traceless
            assert is_lie(T) == traceless
    zero = make_c(Matrix.zeros(QQ, 2, 2), QQ)
    assert series(zero).nilpotent


def test_make_c_rotation_structure():
    C = make_c(Matrix(F3, [[0, 1], [2, 0]]), F3)
    rep = series(C)
    assert rep.derived_length == 3 and rep.solvable and not rep.nilpotent
    L2 = product_space(C, C.full_space(), C.full_space())
    assert L2.dim == 3
    assert iso_search(subalgebra_table(C, L2), heisenberg(F3)).isomorphic


def test_make_d_examples():
    D = make_d(Matrix(F3, [[0, 1], [2, 0]]), F3)
    assert is_lie(D) and not series(D).solvable
    assert nilradical(D).dim == 0
    Dr = make_d(Matrix(F3, [[0, 1], [1, 0]]), F3)
    assert not series(Dr).solvable
    Dz = make_d(Matrix.zeros(F3, 2, 2), F3)
    # with a vanishing action, (x, y, h) is a heisenberg basis
    perm = Matrix(F3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert change_of_basis(Dz, perm).c == heisenberg(F3).c
    with pytest.raises(FamilyParameterError):
        make_d(Matrix(F3, [[1, 1], [0, 1]]), F3)


def test_heisenberg_and_oscillator_flags():
    H = heisenberg(QQ)
    assert is_lie(H) and series(H).nilpotent and center(H).dim == 1
    O = oscillator(QQ)
    rep = series(O)
    assert is_lie(O) and rep.solvable and not rep.nilpotent and rep.derived_length == 3
    assert abelian_algebra(0, QQ).dim == 0
    with pytest.raises(ValueError):
        abelian_algebra(-1, QQ)


def test_oscillator_quoted_products():
    O = oscillator(QQ)
    em1, e0, e1, eh = (O.basis_vector(i) for i in range(4))
    neg = lambda v: tuple(QQ.neg(t) for t in v)
    assert bracket(O, em1, e1) == eh and bracket(O, e1, em1) == neg(eh)
    assert bracket(O, em1, eh) == neg(e1) and bracket(O, eh, em1) == e1
    assert bracket(O, e1, eh) == e0 and bracket(O, eh, e1) == neg(e0)


def test_oscillator_nilradical_is_heisenberg_part():
    for p in (3, 5):
        F = GF(p)
        N = nilradical(oscillator(F))
        assert N == Subspace.from_vectors(F, 4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


def test_make_e_rotation_example_matches_quoted_table():
    phi = Matrix(QQ, [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    E = make_e(phi, -phi, (0, 0, 1), 4, QQ)
    # same algebra in the basis order (e1, e2, e3, e4) with the generator last
    P = Matrix(QQ, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    assert change_of_basis(E, P).c == heisenberg_rotation_extension(QQ).c
    assert not is_lie(E)
    assert squares_ideal(E).dim == 1


def test_make_e_oscillator_is_the_lie_member():
    phi = Matrix(F3, [[0, 2, 0], [1, 0, 0], [0, 0, 0]])
    E = make_e(phi, -phi, (0, 0, 0), 4, F3)
    assert is_lie(E)
    assert iso_search(E, oscillator(F3)).isomorphic


def test_make_e_trivial_extension():
    zero3 = Matrix.zeros(QQ, 3, 3)
    E = make_e(zero3, zero3, (0, 0, 0), 4, QQ)
    assert series(E).nilpotent
    assert center(E).contains_vector(E.basis_vector(0))


def _is_left_derivation(H, phi):
    """Whether phi([a, b]) = [phi(a), b] + [a, phi(b)] on all basis pairs."""
    F, n = H.field, H.dim
    images = [phi.col(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = phi.apply_col(H.c[i][j])
            r1 = bracket(H, images[i], H.basis_vector(j))
            r2 = bracket(H, H.basis_vector(i), images[j])
            if any(a != F.add(b, c) for a, b, c in zip(lhs, r1, r2)):
                return False
    return True


def _reference_make_e(phi, theta, v, n, F):
    """The family-e table on (x, H-basis), built entry by entry, or None
    where one of three checks fails: phi a left derivation of H, v in
    C(H), the table Leibniz."""
    H = heisenberg_plus_abelian(n - 4, F)
    h = H.dim
    if not _is_left_derivation(H, phi) or not center(H).contains_vector(v):
        return None
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    c[0][0][1:] = v
    for j in range(h):
        c[0][1 + j][1:] = phi.col(j)
        c[1 + j][0][1:] = theta.col(j)
        for i in range(h):
            c[1 + i][1 + j][1:] = H.c[i][j]
    table = AlgebraTable(F, c, name="e(phi,theta,v,%d)" % n)
    return table if leibniz_failure(table) is None else None


def _sparse(draw, F, count, max_size):
    """A list of `count` scalars over F, at most `max_size` of them nonzero."""
    if F.is_prime_field:
        values = st.integers(1, F.p - 1)
    else:
        values = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
    out = [0] * count
    for k, x in draw(st.lists(st.tuples(st.integers(0, count - 1), values), max_size=max_size)):
        out[k] = x
    return out


def _rows(flat, h):
    return [flat[r * h : (r + 1) * h] for r in range(h)]


@pytest.mark.parametrize("F,n", [(F3, 4), (F3, 5), (F5, 4), (F5, 5), (QQ, 4)])
@settings(max_examples=150)
@given(data=st.data())
def test_make_e_accepts_exactly_the_derivation_center_leibniz_triples(F, n, data):
    # the Leibniz check alone decides what a derivation test, a center
    # test and the Leibniz check decide together (the lemma of make_e)
    h = n - 1
    phi = Matrix(F, _rows(_sparse(data.draw, F, h * h, 4), h))
    if data.draw(st.booleans()):
        theta = -phi
    else:
        theta = Matrix(F, _rows(_sparse(data.draw, F, h * h, 4), h))
    v = tuple(F.of(x) for x in _sparse(data.draw, F, h, 2))
    want = _reference_make_e(phi, theta, v, n, F)
    try:
        got = make_e(phi, theta, v, n, F)
    except FamilyParameterError:
        got = None
    assert got == want
    if got is not None:
        assert (got.name, got.c) == (want.name, want.c)


def test_make_e_validation():
    phi = Matrix(QQ, [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(FamilyParameterError):
        make_e(phi, -phi, (1, 0, 0), 4, QQ)  # v outside the center of H
    not_deriv = Matrix(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert not _is_left_derivation(heisenberg_plus_abelian(0, QQ), not_deriv)
    with pytest.raises(FamilyParameterError):
        make_e(not_deriv, -not_deriv, (0, 0, 0), 4, QQ)
    with pytest.raises(DimensionMismatchError):
        make_e(phi, -phi, (0, 0, 0), 3, QQ)
    # a linear map that is no left derivation can still be a valid theta only
    # if the assembled table stays Leibniz; a bad theta is rejected a posteriori
    bad_theta = Matrix(QQ, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    with pytest.raises(FamilyParameterError):
        make_e(phi, bad_theta, (0, 0, 1), 4, QQ)


def test_make_e_five_dimensional():
    F = F3
    phi = Matrix(
        F,
        [
            [0, 2, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ],
    )
    E = make_e(phi, -phi, (0, 0, 1, 0), 5, F)
    assert E.dim == 5 and is_leibniz(E) and not is_lie(E)
    rep = series(E)
    assert rep.solvable and rep.derived_length == 3


def test_make_b_irreducible_dimension_claims():
    from leibniz_algebras.algebra import direct_sum
    from leibniz_algebras.search import beta

    for k in (0, 1):
        L = make_b(Matrix.identity(F3, 2), Matrix(F3, [[0, 1], [2, 0]]), F3)
        if k:
            L = direct_sum(L, abelian_algebra(k, F3))
        n = L.dim
        assert beta(L).beta == n - 2
        assert center(L).dim == n - 4


def test_make_d_beta_counts_only_the_abelian_summand():
    from leibniz_algebras.algebra import direct_sum
    from leibniz_algebras.search import beta

    core = make_d(Matrix(F3, [[0, 1], [2, 0]]), F3)
    assert beta(core).beta == 0
    for k in (1, 2):
        L = direct_sum(core, abelian_algebra(k, F3))
        assert beta(L).beta == k
