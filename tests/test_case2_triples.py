"""Differential test of Case2_d's triple selection against the all-pairs loop.

`_match_case2` checks each candidate plane span(u, w) of the simple part
once; over GF(p) it stops at the first plane whose key is (0, 1), over the
rationals at the first plane that gives a triple.  `all_pairs_case2` below
is the oracle.  Over GF(p) it checks every plane, and the strictly least
key wins.  Over the rationals it builds each of the six candidate planes
ker f, in `_match_case2`'s order, as the span of those of the 15 vectors
e_i, e_i + e_j and e_i - e_j that f vanishes on, and the first plane that
gives a triple wins.  Both must report the same chi, m and frame on
d(m) (+) F^k for random traceless invertible m over GF(3), GF(5) and GF(7)
under random basis changes, and on d(m) (+) Q^k under rational basis
changes, for m = rot and for the split m = diag(1, -1): small shears and
dense integer matrices.  Every Case2_d verdict over GF(p) reports t^2 + 1.

Over the rationals the lemma of `_simple_3dim_subspaces` is checked against
the Killing form computed here: a candidate plane ker f gives a triple iff
Q*(f) != 0, Q* the dual of the Killing form, and one of the six does.  The
work is pinned too: at most six planes are checked, and one on d(rot) (+)
Q^k, whose Killing form is definite.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras.algebra import (
    _is_frame,
    bracket,
    center,
    change_of_basis,
    direct_sum,
    is_lie,
    mult_operator,
    subalgebra_table,
)
from leibniz_algebras.catalog import rotation_2x2
from leibniz_algebras.classify import (
    Case,
    _derived_subalgebra,
    _match_case2,
    canonical_quadratic,
    classify,
)
from leibniz_algebras.families import abelian_algebra, make_d
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import series
from leibniz_algebras.linalg import (
    Matrix,
    QuadraticPoly,
    Subspace,
    char_poly_2x2,
    enumerate_subspaces,
)

from conftest import F3, F5, F7, MAX_DIM, carried, rand_invertible, rational_change


# e_3*, e_2*, e_1*, e_2* + e_3*, e_1* + e_3*, e_1* + e_2*
QQ_FUNCTIONALS = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def qq_candidate_planes():
    """(f, ker f) for the six functionals, in order; each kernel is the span
    of the vectors e_i, e_i + e_j, e_i - e_j (i != j) that f vanishes on."""
    vs = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    combos = list(vs)
    for i in range(3):
        for j in range(3):
            if i != j:
                combos.append(tuple(a + b for a, b in zip(vs[i], vs[j])))
                combos.append(tuple(a - b for a, b in zip(vs[i], vs[j])))
    for f in QQ_FUNCTIONALS:
        V = Subspace.from_vectors(QQ, 3, [v for v in combos if not sum(a * b for a, b in zip(f, v))])
        assert V.dim == 2
        yield f, V


def all_pairs_planes(T):
    F = T.field
    if F.is_prime_field:
        yield from enumerate_subspaces(3, 2, F)
        return
    for _, V in qq_candidate_planes():
        yield V


def triple(T, V):
    """(h, u, w, m) of the plane V of T, u and w its RREF basis rows and
    h = [u, w], when h is outside V and [h, u], [h, w] inside; else None."""
    u_t, w_t = V.basis.data
    h_t = bracket(T, u_t, w_t)
    if V.contains_vector(h_t):
        return None
    hu = V.coordinates(bracket(T, h_t, u_t))
    hw = V.coordinates(bracket(T, h_t, w_t))
    if hu is None or hw is None:
        return None
    return h_t, u_t, w_t, Matrix(T.field, [hu, hw])


def all_pairs_case2(L):
    """(chi, m, frame): over GF(p) from the strictly least key over every
    candidate, over the rationals from the first candidate with a triple."""
    F = L.field
    L2 = _derived_subalgebra(series(L))
    CL = center(L)
    T = subalgebra_table(L, L2)
    best = None
    for V in all_pairs_planes(T):
        found = triple(T, V)
        if found is None:
            continue
        h_t, u_t, w_t, m = found
        chi = canonical_quadratic(F, char_poly_2x2(m))
        key = (chi.c1, chi.c0)
        if best is None or key < best[0]:
            best = (key, chi, m, h_t, u_t, w_t)
        if not F.is_prime_field:
            break
    _, chi, m, h_t, u_t, w_t = best
    rows = [L2.basis.apply_row(t) for t in (h_t, u_t, w_t)] + list(CL.basis.data)
    return chi, m, Matrix(F, rows)


def matched(L):
    rep = series(L)
    witness = _match_case2(L, is_lie(L), rep, center(L), _derived_subalgebra(rep))
    return witness["chi"], witness["m"], witness["frame"]


def dense_integer_change(n, rng):
    while True:
        P = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if P.is_invertible():
            return P


def random_traceless_invertible(F, rng):
    while True:
        a, b, c = (rng.randrange(F.p) for _ in range(3))
        m = Matrix(F, [[a, b], [c, -a]])
        if m.det2() != F.zero:
            return m


@pytest.mark.parametrize("F", [F3, F5, F7], ids=repr)
def test_case2_matches_the_all_pairs_loop_over_gf(F):
    rng = random.Random(12 + F.p)
    for _ in range(8):
        L = make_d(random_traceless_invertible(F, rng), F)
        k = rng.randrange(MAX_DIM[F.p] - 2)
        if k:
            L = direct_sum(L, abelian_algebra(k, F))
        M = change_of_basis(L, rand_invertible(F, L.dim, rng))
        want = all_pairs_case2(M)
        assert matched(M) == want
        v = classify(M)
        assert v.case is Case.CASE2_D
        assert (v.chi, v.witness["m"], v.witness["frame"]) == want
        assert v.chi == QuadraticPoly(F.zero, F.one)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("m", [rotation_2x2(QQ), Matrix(QQ, [[1, 0], [0, -1]])], ids=["rot", "split"])
def test_case2_matches_the_all_pairs_loop_over_qq(m, k):
    rng = random.Random(40 + k)
    L = make_d(m, QQ)
    if k:
        L = direct_sum(L, abelian_algebra(k, QQ))
    n = L.dim
    # span(h) and the center: abelian, of codimension 2
    witness_rows = [tuple(int(i == j) for i in range(n)) for j in [0] + list(range(3, n))]
    for change in (rational_change, dense_integer_change) * 3:
        P = change(n, rng)
        M = change_of_basis(L, P)
        want = all_pairs_case2(M)
        assert matched(M) == want
        v = classify(M, A=Subspace.from_vectors(QQ, n, carried(P, witness_rows)))
        assert v.case is Case.CASE2_D
        assert (v.chi, v.witness["m"], v.witness["frame"]) == want


def killing_dual(T):
    """f -> Q*(f) = f K^-1 f^T, K the Killing form tr(ad x ad y) of T."""
    ads = [mult_operator(T, T.basis_vector(i), "left") for i in range(T.dim)]
    K = Matrix(QQ, [[(a @ b).trace() for b in ads] for a in ads])
    Kinv = K.inverse()
    return lambda f: sum(x * y for x, y in zip(Kinv.apply_row(f), f))


def case2_request(m, k, P):
    """d(m) (+) Q^k in the basis P, and its codim-2 abelian witness
    span(h) + center carried through the change."""
    L = make_d(m, QQ)
    if k:
        L = direct_sum(L, abelian_algebra(k, QQ))
    n = L.dim
    witness_rows = [tuple(int(i == j) for i in range(n)) for j in [0] + list(range(3, n))]
    M = change_of_basis(L, P)
    return M, Subspace.from_vectors(QQ, n, carried(P, witness_rows))


def small_traceless_invertible():
    entries = st.integers(-3, 3)
    return st.tuples(entries, entries, entries).filter(lambda t: t[0] ** 2 + t[1] * t[2]).map(
        lambda t: Matrix(QQ, [[t[0], t[1]], [t[2], -t[0]]])
    )


@settings(max_examples=40, deadline=None)
@given(
    m=st.one_of(
        st.just(rotation_2x2(QQ)), st.just(Matrix(QQ, [[1, 0], [0, -1]])), small_traceless_invertible()
    ),
    k=st.integers(0, 2),
    change=st.sampled_from([rational_change, dense_integer_change]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_candidate_plane_gives_a_triple_iff_the_dual_killing_form_is_nonzero(m, k, change, seed):
    P = change(3 + k, random.Random(seed))
    M, A = case2_request(m, k, P)
    T = subalgebra_table(M, _derived_subalgebra(series(M)))
    dual = killing_dual(T)
    gives = [triple(T, V) is not None for _, V in qq_candidate_planes()]
    assert gives == [dual(f) != 0 for f in QQ_FUNCTIONALS]
    assert any(gives)
    v = classify(M, A=A)
    assert v.case is Case.CASE2_D
    assert _is_frame(M, v.witness["frame"], v.witness["model"])
    assert all(type(x) is Fraction for row in v.witness["frame"].data for x in row)


def test_case2_checks_at_most_six_planes_over_qq(monkeypatch):
    # the package exports the function `classify` under the module's name
    classify_module = sys.modules["leibniz_algebras.classify"]
    checked = []
    planes = classify_module._simple_3dim_subspaces

    def counting(T):
        for V in planes(T):
            checked[-1] += 1
            yield V

    monkeypatch.setattr(classify_module, "_simple_3dim_subspaces", counting)

    def planes_checked(M, A):
        checked.append(0)
        assert classify(M, A=A).case is Case.CASE2_D
        return checked[-1]

    rng = random.Random(7)
    split, rot = Matrix(QQ, [[1, 0], [0, -1]]), rotation_2x2(QQ)
    for k in (0, 1, 2):
        for _ in range(5):
            # d(rot) is so(3): its Killing form, and so Q*, is definite, so
            # the first plane gives a triple whatever the basis
            assert planes_checked(*case2_request(rot, k, rational_change(3 + k, rng))) == 1
            for m in (rot, split):
                for change in (rational_change, dense_integer_change):
                    assert 1 <= planes_checked(*case2_request(m, k, change(3 + k, rng))) <= 6
