"""Differential test of Case2_d's triple selection against the all-pairs loop.

`_match_case2` checks each candidate plane span(u, w) of the simple part
once and, over GF(p), stops at the first plane whose key is (0, 1).
`all_pairs_case2` below is the loop it replaced, kept as the oracle: over
the rationals it walks every pair of the 15 heuristic vectors, checking a
plane again each time a pair spans it, and over GF(p) it checks every plane;
the strictly least key wins.  Both must report the same chi, m and frame on
d(m) (+) F^k for random traceless invertible m over GF(3), GF(5) and GF(7)
under random basis changes, and on d(m) (+) Q^k under rational basis
changes, for m = rot and for the split m = diag(1, -1), whose keys can lie
below t^2 + 1: small shears, on which d(rot)'s least key is t^2 + 1, and
dense integer matrices, on which it is often another (t^2 + 2, t^2 + 6, ..),
so that ties and their order matter.  Every Case2_d verdict over GF(p)
reports t^2 + 1.
"""

import itertools
import random

import pytest

from leibniz_algebras.algebra import (
    bracket,
    center,
    change_of_basis,
    direct_sum,
    is_lie,
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


def all_pairs_planes(T):
    F = T.field
    if F.is_prime_field:
        yield from enumerate_subspaces(3, 2, F)
        return
    vs = [T.basis_vector(i) for i in range(3)]
    combos = list(vs)
    for i in range(3):
        for j in range(3):
            if i != j:
                combos.append(tuple(F.add(a, b) for a, b in zip(vs[i], vs[j])))
                combos.append(tuple(F.sub(a, b) for a, b in zip(vs[i], vs[j])))
    for p1, p2 in itertools.combinations(combos, 2):
        V = Subspace.from_vectors(F, 3, [p1, p2])
        if V.dim == 2:
            yield V


def all_pairs_case2(L):
    """(chi, m, frame) from the strictly least key over every candidate."""
    F = L.field
    L2 = _derived_subalgebra(series(L))
    CL = center(L)
    T = subalgebra_table(L, L2)
    best = None
    for V in all_pairs_planes(T):
        u_t, w_t = V.basis.data
        h_t = bracket(T, u_t, w_t)
        if V.contains_vector(h_t):
            continue
        hu = V.coordinates(bracket(T, h_t, u_t))
        hw = V.coordinates(bracket(T, h_t, w_t))
        if hu is None or hw is None:
            continue
        m = Matrix(F, [hu, hw])
        chi = canonical_quadratic(F, char_poly_2x2(m))
        key = (chi.c1, chi.c0)
        if best is None or key < best[0]:
            best = (key, chi, m, h_t, u_t, w_t)
    _, chi, m, h_t, u_t, w_t = best
    rows = [L2.basis.apply_row(t) for t in (h_t, u_t, w_t)] + list(CL.basis.data)
    return chi, m, Matrix(F, rows)


def matched(L):
    rep = series(L)
    witness = _match_case2(L, is_lie(L), rep, center(L), _derived_subalgebra(rep), None)
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
