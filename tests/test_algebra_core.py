import itertools

import pytest

from leibniz_algebras import algebra
from leibniz_algebras.algebra import (
    AlgebraTable,
    bracket,
    center,
    centralizer,
    change_of_basis,
    direct_sum,
    generated_subalgebra,
    is_abelian_subspace,
    is_ideal,
    is_leibniz,
    is_lie,
    is_subalgebra,
    left_annihilator,
    leibniz_failure,
    mult_operator,
    normalizer,
    product_space,
    quotient,
    squares_ideal,
    subalgebra_table,
)
from leibniz_algebras.catalog import (
    heisenberg_rotation_extension,
    nonideal_codim2_example,
    standard_fixtures,
)
from leibniz_algebras.errors import NotLeibnizError
from leibniz_algebras.families import (
    abelian_algebra,
    heisenberg,
    make_a,
    make_c,
    oscillator,
    raw_pair_table,
)
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import nilradical, series
from leibniz_algebras.linalg import Matrix, Subspace, enumerate_subspaces

from conftest import F3, rand_invertible

IDENT = Matrix.identity(QQ, 2)
ROT = Matrix(QQ, [[0, 1], [-1, 0]])


def span(F, n, *vecs):
    return Subspace.from_vectors(F, n, vecs)


def test_bracket_examples():
    H = heisenberg(QQ)
    assert bracket(H, H.basis_vector(0), H.basis_vector(1)) == H.basis_vector(2)
    assert bracket(H, H.zero_vector(), H.basis_vector(1)) == H.zero_vector()
    E = heisenberg_rotation_extension(QQ)
    assert bracket(E, E.basis_vector(3), E.basis_vector(3)) == E.basis_vector(2)


def test_bracket_bilinear(rng):
    L = heisenberg_rotation_extension(F3)
    for _ in range(50):
        u = tuple(rng.randrange(3) for _ in range(4))
        v = tuple(rng.randrange(3) for _ in range(4))
        w = tuple(rng.randrange(3) for _ in range(4))
        s = F3.of(rng.randrange(3))
        left = bracket(L, tuple(F3.add(a, F3.mul(s, b)) for a, b in zip(u, v)), w)
        right = tuple(
            F3.add(x, F3.mul(s, y))
            for x, y in zip(bracket(L, u, w), bracket(L, v, w))
        )
        assert left == right


def test_leibniz_biconditional_for_pair_tables():
    good = raw_pair_table(IDENT, ROT, QQ)
    assert is_leibniz(good)
    bad = raw_pair_table(
        Matrix(QQ, [[0, 1], [0, 0]]), Matrix(QQ, [[0, 0], [1, 0]]), QQ
    )
    assert leibniz_failure(bad) is not None
    assert is_leibniz(abelian_algebra(4, QQ))


def test_is_lie_and_squares():
    assert is_lie(heisenberg(QQ))
    assert is_lie(oscillator(QQ))
    E = nonideal_codim2_example(QQ)
    assert not is_lie(E)
    assert squares_ideal(E) == span(QQ, 4, (0, 0, 1, 0))
    R = heisenberg_rotation_extension(QQ)
    assert squares_ideal(R) == span(QQ, 4, (0, 0, 1, 0))
    assert squares_ideal(oscillator(QQ)).is_zero()


def test_squares_span_left_annihilates():
    for F in (QQ, F3):
        for L in standard_fixtures(F):
            IL = squares_ideal(L)
            assert product_space(L, IL, L.full_space()).is_zero()
            assert is_ideal(L, IL)


def test_center_examples():
    assert center(abelian_algebra(3, QQ)).dim == 3
    assert center(heisenberg(QQ)) == span(QQ, 3, (0, 0, 1))
    A = make_a(IDENT, ROT, QQ)
    assert center(A).dim == 0
    A2 = direct_sum(A, abelian_algebra(2, QQ))
    assert center(A2) == span(QQ, 6, (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))


def test_left_annihilator_examples():
    assert left_annihilator(abelian_algebra(2, QQ)).dim == 2
    A = make_a(IDENT, ROT, QQ)
    assert left_annihilator(A) == span(QQ, 4, (0, 0, 1, 0), (0, 0, 0, 1))
    H = heisenberg(QQ)
    assert left_annihilator(H) == center(H)
    for F in (QQ, F3):
        for L in standard_fixtures(F):
            assert left_annihilator(L).contains(center(L))


def test_centralizer_and_normalizer():
    L = nonideal_codim2_example(QQ)
    A = span(QQ, 4, (0, 1, 0, 0), (0, 0, 1, 0))
    assert centralizer(L, Subspace.zero(QQ, 4)).dim == 4
    N = normalizer(L, A)
    assert N == span(QQ, 4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert centralizer(L, A).contains(center(L))
    # the normalizer of an ideal is everything
    I = squares_ideal(L)
    assert normalizer(L, I).dim == 4
    with pytest.raises(ValueError):
        normalizer(L, span(QQ, 4, (1, 0, 0, 0), (0, 1, 0, 0)))


def test_centralizer_and_normalizer_match_brute_force():
    # every x in GF(3)^n, against the lines, the hyperplanes and the center,
    # squares ideal and derived algebra of each fixture; the normalizer only
    # where the subspace is a subalgebra
    for L in standard_fixtures(F3, max_dim=4):
        n = L.dim
        xs = list(itertools.product(range(3), repeat=n))
        products = {(x, y): bracket(L, x, y) for x in xs for y in xs}
        zero = L.zero_vector()
        full = L.full_space()
        candidates = [
            Subspace.zero(F3, n), full, center(L), squares_ideal(L), product_space(L, full, full),
            *enumerate_subspaces(n, 1, F3), *enumerate_subspaces(n, n - 1, F3),
        ]
        for A in candidates:
            rows = A.basis.data
            C = {x for x in xs if all(products[x, a] == zero == products[a, x] for a in rows)}
            assert C == set(elements(centralizer(L, A)))
            members = set(elements(A))
            if all(products[a, b] in members for a in rows for b in rows):
                N = {x for x in xs if all({products[x, a], products[a, x]} <= members for a in rows)}
                assert N == set(elements(normalizer(L, A)))


def elements(U):
    """Every vector of a subspace of GF(3)^n."""
    for coefs in itertools.product(range(3), repeat=U.dim):
        yield tuple(
            sum(c * row[j] for c, row in zip(coefs, U.basis.data)) % 3
            for j in range(U.ambient_dim)
        )


def test_centralizer_inside_normalizer_for_abelian():
    for F in (QQ, F3):
        for L in standard_fixtures(F):
            IL = squares_ideal(L)
            if IL.is_zero() or not is_abelian_subspace(L, IL):
                continue
            assert normalizer(L, IL).contains(centralizer(L, IL))


def test_product_space_examples():
    H = heisenberg(QQ)
    full = H.full_space()
    assert product_space(H, full, Subspace.zero(QQ, 3)).is_zero()
    assert product_space(H, full, full) == span(QQ, 3, (0, 0, 1))
    C = make_c(ROT, QQ)
    assert product_space(C, C.full_space(), C.full_space()) == span(
        QQ, 4, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    )


def test_subalgebra_ideal_abelian_predicates():
    L = nonideal_codim2_example(QQ)
    full = L.full_space()
    assert is_subalgebra(L, full) and is_ideal(L, full)
    A = span(QQ, 4, (0, 1, 0, 0), (0, 0, 1, 0))
    assert is_abelian_subspace(L, A) and is_subalgebra(L, A)
    assert not is_ideal(L, A)
    Aid = make_a(IDENT, ROT, QQ)
    B = span(QQ, 4, (1, 0, 0, 0), (0, 1, 0, 0))
    assert is_abelian_subspace(Aid, B) and is_subalgebra(Aid, B)


def test_generated_subalgebra():
    C = make_c(ROT, QQ)
    S = span(QQ, 4, (0, 0, 1, 0), (0, 0, 0, 1))  # x, y
    G = generated_subalgebra(C, S)
    assert G == span(QQ, 4, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert generated_subalgebra(C, G) == G
    L = nonideal_codim2_example(QQ)
    S2 = span(QQ, 4, (0, 1, 0, 0), (0, 0, 0, 1))  # e2, x
    assert generated_subalgebra(L, S2) == S2


def test_quotient_examples():
    H = heisenberg(QQ)
    Q, proj = quotient(H, center(H))
    assert Q.dim == 2 and is_leibniz(Q)
    assert product_space(Q, Q.full_space(), Q.full_space()).is_zero()
    assert proj.rows == 3 and proj.cols == 2
    full_Q, _ = quotient(H, H.full_space())
    assert full_Q.dim == 0
    with pytest.raises(ValueError):
        quotient(
            nonideal_codim2_example(QQ),
            span(QQ, 4, (0, 1, 0, 0), (0, 0, 1, 0)),
        )


def test_quotient_of_direct_sum_recovers_summand():
    D = make_c(ROT, QQ)
    L = direct_sum(D, abelian_algebra(2, QQ))
    I = span(QQ, 6, (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    Q, _ = quotient(L, I)
    assert Q.c == D.c


def test_direct_sum_properties():
    H = heisenberg(QQ)
    assert direct_sum(H, abelian_algebra(0, QQ)).c == H.c
    two = direct_sum(abelian_algebra(1, QQ), abelian_algebra(1, QQ))
    assert two.dim == 2 and center(two).dim == 2
    C6 = direct_sum(make_c(ROT, QQ), abelian_algebra(2, QQ))
    assert center(C6).dim == 3
    for F in (QQ, F3):
        A, B = heisenberg(F), oscillator(F)
        S = direct_sum(A, B)
        assert is_leibniz(S)
        assert is_lie(S) == (is_lie(A) and is_lie(B))


def test_change_of_basis_laws(rng):
    L = heisenberg_rotation_extension(F3)
    I4 = Matrix.identity(F3, 4)
    assert change_of_basis(L, I4).c == L.c
    for _ in range(20):
        P = rand_invertible(F3, 4, rng)
        Q = rand_invertible(F3, 4, rng)
        assert change_of_basis(change_of_basis(L, P), Q).c == change_of_basis(L, Q @ P).c
        # rows of P^{-1} express the original basis in the new one
        assert change_of_basis(change_of_basis(L, P), P.inverse()).c == L.c
    with pytest.raises(Exception):
        change_of_basis(L, Matrix.zeros(F3, 4, 4))


def test_change_of_basis_permutation_on_heisenberg():
    H = heisenberg(QQ)
    P = Matrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])  # swap the two generators
    M = change_of_basis(H, P)
    assert bracket(M, M.basis_vector(0), M.basis_vector(1)) == tuple(
        QQ.neg(x) for x in M.basis_vector(2)
    )


def test_change_of_basis_preserves_invariants(rng):
    for L in standard_fixtures(F3):
        if L.dim == 0:
            continue
        rep = series(L)
        for _ in range(5):
            P = rand_invertible(F3, L.dim, rng)
            M = change_of_basis(L, P)
            assert is_leibniz(M)
            assert is_lie(M) == is_lie(L)
            assert center(M).dim == center(L).dim
            assert squares_ideal(M).dim == squares_ideal(L).dim
            mrep = series(M)
            assert mrep.derived_dims == rep.derived_dims
            assert mrep.derived_length == rep.derived_length


def test_mult_operator():
    O = oscillator(QQ)
    zero_op = mult_operator(O, O.zero_vector(), "left")
    assert zero_op.is_zero()
    em1 = O.basis_vector(0)
    op = mult_operator(O, em1, "left")
    # restricted to span(e1, e1hat): e1 -> e1hat, e1hat -> -e1
    assert op.apply_col(O.basis_vector(2)) == O.basis_vector(3)
    assert op.apply_col(O.basis_vector(3)) == tuple(QQ.neg(x) for x in O.basis_vector(2))
    rop = mult_operator(O, em1, "right")
    assert rop.apply_col(O.basis_vector(2)) == tuple(QQ.neg(x) for x in O.basis_vector(3))
    A = make_a(IDENT, ROT, QQ)
    opa = mult_operator(A, A.basis_vector(0), "left")
    assert opa.apply_col(A.basis_vector(2)) == A.basis_vector(2)
    assert opa.apply_col(A.basis_vector(3)) == A.basis_vector(3)


def test_mult_operator_rejects_a_bad_side_before_any_bracket(monkeypatch):
    O = oscillator(QQ)
    calls = []
    real = algebra._row_action
    monkeypatch.setattr(algebra, "_row_action", lambda *args: calls.append(args) or real(*args))
    with pytest.raises(ValueError, match="side must be"):
        mult_operator(O, O.basis_vector(0), "middle")
    assert calls == []
    mult_operator(O, O.basis_vector(0), "right")
    assert len(calls) == 1


def test_left_multiplications_commute_on_abelian_subalgebras():
    for F in (QQ, F3):
        for L in standard_fixtures(F):
            IL = squares_ideal(L)
            candidates = [IL, center(L)]
            for A in candidates:
                if not is_abelian_subspace(L, A) or not is_subalgebra(L, A):
                    continue
                ops = [mult_operator(L, a, "left") for a in A.basis.data]
                for X in ops:
                    for Y in ops:
                        assert X @ Y == Y @ X


def test_subalgebra_table_roundtrip():
    O = oscillator(QQ)
    N = Subspace.from_vectors(QQ, 4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    T = subalgebra_table(O, N)
    assert T.dim == 3 and is_leibniz(T) and is_lie(T)
    assert product_space(T, T.full_space(), T.full_space()).dim == 1


def test_derived_tables_inherit_only_a_passed_leibniz_check(rng):
    def fresh_verdict(T):
        return leibniz_failure(AlgebraTable(T.field, T.c))

    for F in (QQ, F3):
        for L in standard_fixtures(F):
            assert leibniz_failure(L) is None
            D = product_space(L, L.full_space(), L.full_space())
            derived = [
                subalgebra_table(L, D),
                quotient(L, center(L))[0],
                change_of_basis(L, rand_invertible(F, L.dim, rng)),
            ]
            for T in derived:
                assert T._cache["leibniz_failure"] is None
                assert fresh_verdict(T) is None
            unchecked = AlgebraTable(F, L.c)
            assert "leibniz_failure" not in subalgebra_table(unchecked, D)._cache
    bad = raw_pair_table(Matrix(QQ, [[0, 1], [0, 0]]), Matrix(QQ, [[0, 0], [1, 0]]), QQ)
    triple = leibniz_failure(bad)
    assert triple is not None
    # a failed check is cached, and what raises on it caches nothing: every
    # call raises again
    for _ in range(2):
        for fn in (series, squares_ideal, nilradical):
            with pytest.raises(NotLeibnizError):
                fn(bad)
        assert is_lie(bad) is False
        assert leibniz_failure(bad) == triple
    assert set(bad._cache) <= {"leibniz_failure", "is_lie"}
    moved = change_of_basis(bad, rand_invertible(QQ, bad.dim, rng))
    assert "leibniz_failure" not in moved._cache
    assert fresh_verdict(moved) is not None


def test_require_leibniz_raises_with_triple():
    bad = raw_pair_table(
        Matrix(QQ, [[0, 1], [0, 0]]), Matrix(QQ, [[0, 0], [1, 0]]), QQ
    )
    with pytest.raises(NotLeibnizError) as exc_info:
        squares_ideal(bad)
    assert exc_info.value.triple is not None


def test_lie_iff_skew_table_on_fixtures():
    def skew(L):
        F = L.field
        return all(
            all(a == F.neg(b) for a, b in zip(L.c[i][j], L.c[j][i]))
            for i in range(L.dim)
            for j in range(i, L.dim)
        )

    for F in (QQ, F3):
        for L in standard_fixtures(F):
            assert is_lie(L) == skew(L), L.name
