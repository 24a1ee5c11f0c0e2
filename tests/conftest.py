import random
from fractions import Fraction

import pytest
from hypothesis import settings

from leibniz_algebras import search
from leibniz_algebras.algebra import center, change_of_basis, direct_sum
from leibniz_algebras.catalog import heisenberg_rotation_extension, rotation_2x2
from leibniz_algebras.families import abelian_algebra, make_c, make_d
from leibniz_algebras.fields import GF, QQ
from leibniz_algebras.linalg import Matrix, Subspace

# generated tests replay the same examples on every run and take as long as
# they need: no example database, no per-example deadline
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


@pytest.fixture
def rng():
    return random.Random(20240911)


def rand_scalar(F, rng):
    if F.is_prime_field:
        return F.of(rng.randrange(F.p))
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def rand_matrix(F, rows, cols, rng):
    return Matrix(F, [[rand_scalar(F, rng) for _ in range(cols)] for _ in range(rows)])


def rand_invertible(F, n, rng):
    while True:
        M = rand_matrix(F, n, n, rng)
        if M.is_invertible():
            return M


QQ_SCALARS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3))


def rational_change(n, rng):
    """A permutation with small scalings, then n shears: the coefficients of
    the disguised table stay small."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = Fraction(rng.choice(QQ_SCALARS))
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(QQ_SCALARS)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return Matrix(QQ, rows)


def carried(P, rows):
    """The coordinates, after change_of_basis(L, P), of vectors given in the
    old basis: the old e_i is row i of P^-1."""
    Pinv = P.inverse()
    return [Pinv.apply_row(r) for r in rows]


def rotext_with_center_candidate(k, seed):
    """QQ rotext (+) Q^k after `rational_change` from random.Random(seed),
    its codim-2 abelian witness span(e2, e3, e5..) carried through the
    change, and its center.  For (k, seed) = (0, 1001) and (1, 1000) the
    partial nilradical certificate accepts that center, which is not the
    nilradical."""
    L = heisenberg_rotation_extension(QQ)
    if k:
        L = direct_sum(L, abelian_algebra(k, QQ))
    n = L.dim
    P = rational_change(n, random.Random(seed))
    rows = [tuple(int(i == j) for i in range(n)) for j in [1, 2] + list(range(4, n))]
    M = change_of_basis(L, P)
    return M, Subspace.from_vectors(QQ, n, carried(P, rows)), center(M)


def scanned_by(monkeypatch, fn):
    """fn()'s result and the number of subspaces it examined, counted at the
    scan kernel."""
    total = 0
    real = search.scan_subspaces

    def counting(*args):
        nonlocal total
        out = real(*args)
        total += out[0]
        return out

    with monkeypatch.context() as m:
        m.setattr(search, "scan_subspaces", counting)
        result = fn()
    return result, total


def one_budget_algebras():
    """GF(3) algebras with alpha = n-2 for whole-request budget tests:
    c(rot) (+) F (Case1_c), rotext (+) F and d(rot) (+) F^2 (Case2_d)."""
    rot = rotation_2x2(F3)
    return {
        "c(rot)+F": direct_sum(make_c(rot, F3), abelian_algebra(1, F3)),
        "rotext+F": direct_sum(heisenberg_rotation_extension(F3), abelian_algebra(1, F3)),
        "d(rot)+F^2": direct_sum(make_d(rot, F3), abelian_algebra(2, F3)),
    }
