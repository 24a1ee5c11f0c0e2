"""Differential test of the structural Heisenberg test against brute force.

`_heisenberg_frame(T, T.full_space())` decides whether T is heisenberg (+)
F^(m-3) from invariants: Lie, nilpotent, a derived algebra of dimension 1
inside a center of dimension m-2.  `iso_search` against the model table is
the reference.  Algebras, over GF(3) and GF(5) with m >= 3, each under a
seeded basis change: heisenberg (+) F^k, abelian(m), the 5-dim Heisenberg
algebra, the 4-dim filiform algebra, a non-Lie nilpotent Leibniz algebra
that meets every other condition, and the nilradicals and derived algebras
of the standard fixtures.

Left out where the reference is too slow for a test: heisenberg (+) F^k
of dimension 5 over GF(3) and 4 over GF(5), on which `iso_search` needs
more than 300,000 nodes for about half of the basis changes, and with them
the 4-dim fixture subalgebras over GF(5).

The frame itself is written down in closed form; on the same algebras it
is compared with the frame of a search over pairs of basis vectors.
"""

import functools
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras.algebra import (
    AlgebraTable,
    bracket,
    center,
    change_of_basis,
    direct_sum,
    product_space,
    subalgebra_table,
)
from leibniz_algebras.catalog import standard_fixtures
from leibniz_algebras.classify import _heisenberg_frame
from leibniz_algebras.families import abelian_algebra, heisenberg_plus_abelian
from leibniz_algebras.invariants import nilradical
from leibniz_algebras.linalg import Matrix, Subspace
from leibniz_algebras.search import iso_search

from conftest import F3, F5, rand_invertible


def skew(F, m, products):
    """Lie table from {(i, j): k} meaning [e_i, e_j] = -[e_j, e_i] = e_k."""
    table = {}
    for (i, j), k in products.items():
        table[(i, j)] = tuple(int(t == k) for t in range(m))
        table[(j, i)] = tuple(F.neg(F.one) if t == k else 0 for t in range(m))
    return AlgebraTable.from_products(F, m, table)


def nonlie(F):
    """[e0, e1] = -[e1, e0] = [e0, e0] = e2: nilpotent, derived algebra
    span(e2) inside the center span(e2), but not Lie."""
    neg1 = F.neg(F.one)
    return AlgebraTable.from_products(
        F, 3, {(0, 1): (0, 0, 1), (1, 0): (0, 0, neg1), (0, 0): (0, 0, 1)}
    )


@functools.cache
def algebras():
    out = {}
    for F, max_positive in ((F3, 4), (F5, 3)):
        for k in range(max_positive - 2):
            out["h+F^%d/%d" % (k, F.p)] = heisenberg_plus_abelian(k, F)
        for m in (3, 4, 5):
            out["abelian(%d)/%d" % (m, F.p)] = abelian_algebra(m, F)
        out["h5/%d" % F.p] = skew(F, 5, {(0, 1): 4, (2, 3): 4})
        out["filiform4/%d" % F.p] = skew(F, 4, {(0, 1): 2, (0, 2): 3})
        out["nonlie/%d" % F.p] = nonlie(F)
        out["nonlie+F/%d" % F.p] = direct_sum(nonlie(F), abelian_algebra(1, F))
        for L in standard_fixtures(F, max_dim=5):
            full = L.full_space()
            for kind, W in (("nil", nilradical(L)), ("der", product_space(L, full, full))):
                if 3 <= W.dim <= max_positive:
                    out["%s(%s)/%d" % (kind, L.name, F.p)] = subalgebra_table(L, W)
    return out


def test_heisenberg_frame_matches_iso_search():
    reached = set()

    @settings(max_examples=150)
    @given(name=st.sampled_from(sorted(algebras())), seed=st.integers(0, 2**32 - 1))
    def check(name, seed):
        T = algebras()[name]
        F, m = T.field, T.dim
        M = change_of_basis(T, rand_invertible(F, m, random.Random(seed)))
        structural = _heisenberg_frame(M, M.full_space()) is not None
        assert structural == iso_search(M, heisenberg_plus_abelian(m - 3, F)).isomorphic
        reached.add(structural)

    check()
    assert reached == {True, False}


def searched_frame(T):
    """The first frame of a search over pairs (r, s) of basis vectors with
    [e_r, e_s] = c*z, c != 0: rows e_r, e_s / c, z and the rows of the
    center that extend z, kept if they are a basis carrying T onto the
    model table."""
    F, m = T.field, T.dim
    full = T.full_space()
    Z = product_space(T, full, full)
    fs = Z._extension(center(T).basis.data)
    model = heisenberg_plus_abelian(m - 3, F)
    for r, s in itertools.permutations(range(m), 2):
        coords = Z.coordinates(bracket(T, T.basis_vector(r), T.basis_vector(s)))
        if coords is None or coords[0] == F.zero:
            continue
        w = tuple(F.mul(F.inv(coords[0]), x) for x in T.basis_vector(s))
        rows = [T.basis_vector(r), w, Z.basis.data[0], *fs]
        if Subspace.from_vectors(F, m, rows).dim == m:
            if change_of_basis(T, Matrix(F, rows)) == model:
                return rows
    return None


def test_heisenberg_frame_is_the_searched_frame():
    positives = 0
    for name, T in sorted(algebras().items()):
        F, m = T.field, T.dim
        for seed in range(8):
            M = change_of_basis(T, rand_invertible(F, m, random.Random(seed)))
            frame = _heisenberg_frame(M, M.full_space())
            if frame is not None:
                assert frame == searched_frame(M), (name, seed)
                positives += 1
    assert positives
