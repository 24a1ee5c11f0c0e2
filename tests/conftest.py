import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from leibniz_algebras import search
from leibniz_algebras.algebra import AlgebraTable, center, change_of_basis, direct_sum
from leibniz_algebras.catalog import heisenberg_rotation_extension, rotation_2x2
from leibniz_algebras.families import abelian_algebra, make_a, make_c, make_d, make_e, oscillator
from leibniz_algebras.fields import GF, QQ
from leibniz_algebras.linalg import Matrix, Subspace

# generated tests replay the same examples on every run and take as long as
# they need: no example database, no per-example deadline
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
F7 = GF(7)
# the largest dimension a generated algebra reaches over GF(p); references
# that walk every subspace of a stratum stay fast up to there (at n = 5
# over GF(5) a middle stratum has 20,306 subspaces)
MAX_DIM = {3: 5, 5: 4, 7: 4}


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
    change, and its center.  For (k, seed) = (0, 1001) and (1, 1000) that
    center is a nilpotent ideal holding every nilpotent ideal that one basis
    vector generates, yet it is not the nilradical: a partial maximality
    rule (`test_certificate.ref_certificate`) accepts it."""
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


def identity_action(m, F):
    """x acting as the identity on F^m, basis (x, v_1, .., v_m): [x, v] =
    -[v, x] = v.  Its nilradical is F^m.  When p divides m every trace-form
    functional vanishes, so the trace kernel is the whole algebra, which is
    not nilpotent."""
    e = [tuple(int(i == j) for i in range(m + 1)) for j in range(m + 1)]
    products = {}
    for j in range(1, m + 1):
        products[(0, j)] = e[j]
        products[(j, 0)] = tuple(-x for x in e[j])
    return AlgebraTable.from_products(F, m + 1, products, name="identity-action-%d" % m)


def cycle_action(F):
    """x acting on span(v1, v2, v3) by the 3-cycle, basis (x, v1, v2, v3):
    [x, v_i] = -[v_i, x] = v_(i+1).  Its nilradical is span(v1, v2, v3).
    Tr(L_x) = Tr(L_x^2) = 0, so the trace kernel of degree <= 1 is the whole
    algebra; L_x^3 is the identity on span(v1, v2, v3), of trace 3."""
    e = [tuple(int(i == j) for i in range(4)) for j in range(4)]
    products = {}
    for i in (1, 2, 3):
        products[(0, i)] = e[i % 3 + 1]
        products[(i, 0)] = tuple(-x for x in e[i % 3 + 1])
    return AlgebraTable.from_products(F, 4, products, name="cycle-action")


def _disguised_sum(draw, L):
    """L (+) F^k, of dimension at most MAX_DIM[p], under a seeded basis change."""
    F = L.field
    k = draw(st.integers(0, MAX_DIM[F.p] - L.dim))
    if k:
        L = direct_sum(L, abelian_algebra(k, F))
    return change_of_basis(L, rand_invertible(F, L.dim, random.Random(draw(st.integers(0, 2**32)))))


@st.composite
def family_algebras(draw, fields=(F3, F5)):
    """A family algebra (+) F^k over one of `fields`, of dimension at most
    MAX_DIM[p], under a seeded basis change.

    Family a (one-sided action, so [u, v] = 0 does not give [v, u] = 0),
    rotext and family e with [x, x] != 0 are the non-Lie ones."""
    F = draw(st.sampled_from(fields))
    base = draw(st.sampled_from(["a", "c", "d", "e", "rotext", "oscillator"]))
    entries = st.integers(0, F.p - 1)
    if base == "e":
        # x acts on heisenberg (u, w, z) by a derivation phi (column j the
        # image of the j-th basis vector), theta = -phi, and [x, x] = v in
        # the center, nonzero only when tr phi = 0, as [v, x] = 0 needs
        a, b, c, d, e, f = (draw(entries) for _ in range(6))
        tr = (a + d) % F.p
        phi = Matrix(F, [[a, b, 0], [c, d, 0], [e, f, tr]])
        v = (0, 0, 0 if tr else draw(entries))
        L = make_e(phi, -phi, v, 4, F)
    elif base == "a":
        lam = Matrix(F, [[draw(entries) for _ in range(2)] for _ in range(2)])
        # mu = x*1 + y*lam commutes with lam
        x, y = draw(entries), draw(entries)
        mu = Matrix(F, [[x * (i == j) + y * lam.data[i][j] for j in range(2)] for i in range(2)])
        L = make_a(lam, mu, F)
    elif base in ("c", "d"):
        a, b, c = (draw(entries) for _ in range(3))
        traceless = Matrix(F, [[a, b], [c, -a]])
        L = (make_c if base == "c" else make_d)(traceless, F)
    else:
        L = heisenberg_rotation_extension(F) if base == "rotext" else oscillator(F)
    return _disguised_sum(draw, L)


@st.composite
def identity_actions(draw, fields=(F3, F5, F7)):
    """`identity_action(m)` (+) F^k over one of `fields`, of dimension at
    most MAX_DIM[p], under a seeded basis change.  m = p, where it fits,
    is drawn at least half the time: its trace kernel is everything."""
    F = draw(st.sampled_from(fields))
    top = MAX_DIM[F.p] - 1
    m = F.p if F.p <= top and draw(st.booleans()) else draw(st.integers(1, top))
    return _disguised_sum(draw, identity_action(m, F))


@st.composite
def cycle_actions(draw, fields=(F3, F5, F7)):
    """`cycle_action` (+) F^k over one of `fields`, of dimension at most
    MAX_DIM[p], under a seeded basis change."""
    return _disguised_sum(draw, cycle_action(draw(st.sampled_from(fields))))
