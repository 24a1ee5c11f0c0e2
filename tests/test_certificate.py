"""Differential tests of the nilradical check and of `ideal_closure`.

`verify_nilradical_candidate` is exact: it accepts a candidate iff it is the
nilradical.  Here it is compared with the nilradical each disguised table
carries, and shown to reject the wrong candidates that a partial
maximality rule accepts (a nilpotent ideal holding every nilpotent ideal
that one basis vector generates).  `ideal_closure` brackets each vector once
and is compared with the all-pairs fixed point W -> W + [W, L] + [L, W].
Algebras are families c, d, rotext, oscillator and family a with commuting
parameters, (+) F^k with n <= 5, over GF(3), GF(5) and QQ, under a seeded
basis change.

The exact nilradical over QQ is compared with the candidates these tables
carry, with the nilradical candidates of the benchmark's qq-certified
families, and with the GF(101) nilradical of the same tables.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras.algebra import (
    AlgebraTable,
    center,
    change_of_basis,
    direct_sum,
    is_ideal,
    product_space,
)
from leibniz_algebras.catalog import heisenberg_rotation_extension, rotation_2x2
from leibniz_algebras.families import abelian_algebra, make_a, make_c, make_d, oscillator
from leibniz_algebras.fields import GF, QQ
from leibniz_algebras.invariants import ideal_closure, nilradical, verify_nilradical_candidate
from leibniz_algebras.linalg import Matrix, Subspace, subspace_sum

from conftest import F3, F5, carried, rand_invertible, rational_change

FIELDS = (F3, F5, QQ)
CANDIDATES = ("nilradical", "center", "derived", "zero", "full", "line", "nilradical+line")


BASES = ("c(rot)", "d(rot)", "rotext", "oscillator", "a(id,rot)", "a(id,diag)", "a(id,nilp)", "a(nilp,0)")


def base(F, name):
    rot = rotation_2x2(F)
    ident = Matrix.identity(F, 2)
    zero = Matrix(F, [[0, 0], [0, 0]])
    nilp = Matrix(F, [[0, 1], [0, 0]])
    diag = Matrix(F, [[1, 0], [0, -1]])
    return {
        "c(rot)": make_c(rot, F),
        "d(rot)": make_d(rot, F),
        "rotext": heisenberg_rotation_extension(F),
        "oscillator": oscillator(F),
        "a(id,rot)": make_a(ident, rot, F),
        "a(id,diag)": make_a(ident, diag, F),
        "a(id,nilp)": make_a(ident, nilp, F),
        "a(nilp,0)": make_a(nilp, zero, F),
    }[name]


def with_center(L, k):
    return direct_sum(L, abelian_algebra(k, L.field)) if k else L


def disguised(F, name, k, seed):
    """(L, the nilradical of L, rng): L is base (+) F^k after a seeded basis
    change.  The nilradical is scanned over GF(p).  Over QQ it is the GF(5)
    scan of the undisguised algebra, a coordinate subspace that is also the
    rational nilradical of these families, carried through the change."""
    rng = random.Random(seed)
    L = with_center(base(F, name), k)
    n = L.dim
    if F.is_prime_field:
        M = change_of_basis(L, rand_invertible(F, n, rng))
        return M, nilradical(M), rng
    P = rational_change(n, rng)
    rows = nilradical(with_center(base(F5, name), k)).basis.data
    # the new coordinates of the old basis vector e_i are row i of P^-1
    Pinv = P.inverse()
    N = Subspace.from_vectors(QQ, n, [Pinv.apply_row(r) for r in rows])
    return change_of_basis(L, P), N, rng


def random_vector(F, n, rng):
    while True:
        v = [rng.randint(-2, 2) for _ in range(n)]
        if any(map(F.of, v)):
            return v


def candidate(L, N, kind, rng):
    F, n = L.field, L.dim
    full = L.full_space()
    if kind == "nilradical":
        return N
    if kind == "center":
        return center(L)
    if kind == "derived":
        return product_space(L, full, full)
    if kind == "zero":
        return Subspace.zero(F, n)
    if kind == "full":
        return full
    line = Subspace.from_vectors(F, n, [random_vector(F, n, rng)])
    if kind == "line":
        return line
    return subspace_sum(N, line)


def ref_ideal_closure(L, S):
    full = L.full_space()
    W = S
    while True:
        W2 = subspace_sum(W, subspace_sum(product_space(L, W, full), product_space(L, full, W)))
        if W2 == W:
            return W
        W = W2


def ref_nilpotent(L, U):
    C = U
    while not C.is_zero():
        nxt = product_space(L, U, C)
        if nxt == C:
            return False
        C = nxt
    return True


def ref_certificate(L, N):
    """The partial maximality rule, by its definition: N is a nilpotent
    ideal and holds every nilpotent ideal that a single basis vector
    generates.  The nilradical passes it, and so can a smaller nilpotent
    ideal."""
    if not is_ideal(L, N) or not ref_nilpotent(L, N):
        return False
    for i in range(L.dim):
        J = ref_ideal_closure(L, Subspace.from_vectors(L.field, L.dim, [L.basis_vector(i)]))
        if ref_nilpotent(L, J) and not N.contains(J):
            return False
    return True


def test_reference_nilradicals_are_nilpotent_ideals():
    for F in FIELDS:
        for name in BASES:
            for k in range(6 - base(F, name).dim):
                L, N, _ = disguised(F, name, k, seed=k)
                assert is_ideal(L, N) and ref_nilpotent(L, N)
                assert verify_nilradical_candidate(L, N)


def test_certificate_matches_definition():
    verdicts, partial_accepts = set(), []

    @settings(max_examples=200)
    @given(
        F=st.sampled_from(FIELDS),
        name=st.sampled_from(BASES),
        k=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(CANDIDATES),
    )
    def check(F, name, k, seed, kind):
        k = min(k, 5 - base(F, name).dim)
        L, N, rng = disguised(F, name, k, seed)
        U = candidate(L, N, kind, rng)
        verdict = verify_nilradical_candidate(L, U)
        assert verdict is (U == N)
        verdicts.add(verdict)
        if U != N and ref_certificate(L, U):
            partial_accepts.append((F, name, k, kind))

    check()
    assert verdicts == {True, False}
    # the partial rule accepts some wrong candidates; the check above
    # rejected every one of them
    assert partial_accepts


@settings(max_examples=150)
@given(
    F=st.sampled_from(FIELDS),
    name=st.sampled_from(BASES),
    k=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(0, 2),
)
def test_ideal_closure_matches_fixed_point(F, name, k, seed, dim):
    k = min(k, 5 - base(F, name).dim)
    L, _, rng = disguised(F, name, k, seed)
    S = Subspace.from_vectors(F, L.dim, [random_vector(F, L.dim, rng) for _ in range(dim)])
    assert ideal_closure(L, S) == ref_ideal_closure(L, S)


@pytest.mark.parametrize("name", BASES)
def test_qq_nilradical_equals_the_gf101_nilradical(name):
    # the tables have integer entries, or denominators 2 and 3 after the
    # basis change, so they reduce mod 101; for p > n the envelope's trace
    # kernel is the nilradical over GF(p) as over QQ
    F101 = GF(101)
    for k in range(6 - base(QQ, name).dim):
        L, N, _ = disguised(QQ, name, k, seed=k)
        assert nilradical(L) == N
        for M in (with_center(base(QQ, name), k), L):
            reduced = Subspace.from_vectors(F101, M.dim, nilradical(M).basis.data)
            assert reduced == nilradical(AlgebraTable(F101, M.c), budget=0)


# base, k values and the nilradical's basis indices in the base algebra, as
# in the benchmark's qq-certified workload
QQ_CERTIFIED = (
    ("rotext", range(0, 4), (0, 1, 2)),
    ("c(rot)", range(0, 4), (1, 2, 3)),
    ("d(rot)", range(1, 5), ()),
)


@pytest.mark.parametrize("name, ks, nil", QQ_CERTIFIED, ids=[f[0] for f in QQ_CERTIFIED])
def test_qq_nilradical_equals_the_carried_candidates(name, ks, nil):
    for k in ks:
        L = with_center(base(QQ, name), k)
        n = L.dim
        rows = [tuple(int(i == j) for i in range(n)) for j in [*nil, *range(n - k, n)]]
        for seed in range(3):
            P = rational_change(n, random.Random(seed))
            N = Subspace.from_vectors(QQ, n, carried(P, rows))
            assert nilradical(change_of_basis(L, P)) == N
