import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from leibniz_algebras import search
from leibniz_algebras.algebra import (
    AlgebraTable,
    _bracket,
    _derived_space,
    center,
    change_of_basis,
    direct_sum,
    is_leibniz,
    is_lie,
    subalgebra_table,
)
from leibniz_algebras.catalog import heisenberg_rotation_extension, rotation_2x2
from leibniz_algebras.classify import _least_index_outside
from leibniz_algebras.families import (
    abelian_algebra,
    heisenberg,
    make_a,
    make_c,
    make_d,
    make_e,
    oscillator,
)
from leibniz_algebras.fields import GF, QQ
from leibniz_algebras.linalg import Matrix, Subspace, _chain

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
# over GF(5) a middle stratum has 20,306 subspaces).  Key None is QQ, whose
# subspaces no reference walks.
MAX_DIM = {3: 5, 5: 4, 7: 4, None: 5}


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


def gf3_document(table) -> str:
    """A dimension-2 GF(3) document with the given table entries."""
    return json.dumps({"format_version": 1, "field": {"kind": "gf", "p": 3}, "dim": 2, "table": table})


# GF(3) documents that `parse_algebra` rejects, one per rule of a table
# entry, each with its exact message: (id, document, message)
MALFORMED_GF_DOCUMENTS = [
    (name, gf3_document(table), message)
    for name, table, message in [
        ("bool coefficient", [{"i": 0, "j": 1, "c": [True, 0]}], "GF(3) coefficients must be integers, got True"),
        ("bool after an int", [{"i": 0, "j": 1, "c": [1, False]}], "GF(3) coefficients must be integers, got False"),
        ("residue p", [{"i": 0, "j": 1, "c": [0, 3]}], "residue 3 out of range [0, 3)"),
        ("negative residue", [{"i": 0, "j": 1, "c": [-1, 0]}], "residue -1 out of range [0, 3)"),
        ("string coefficient", [{"i": 0, "j": 1, "c": ["1", 0]}], "GF(3) coefficients must be integers, got '1'"),
        ("float coefficient", [{"i": 0, "j": 1, "c": [1.0, 0]}], "GF(3) coefficients must be integers, got 1.0"),
        ("short row", [{"i": 0, "j": 1, "c": [1]}], "coefficient vector for (0, 1) must have length 2"),
        ("non-list row", [{"i": 0, "j": 1, "c": 1}], "coefficient vector for (0, 1) must have length 2"),
        ("missing row", [{"i": 0, "j": 1}], "coefficient vector for (0, 1) must have length 2"),
        ("bool index", [{"i": True, "j": 1, "c": [1, 0]}], "index True out of range for dim 2"),
        ("out-of-range index", [{"i": 0, "j": 2, "c": [1, 0]}], "index 2 out of range for dim 2"),
        ("negative index", [{"i": -1, "j": 0, "c": [1, 0]}], "index -1 out of range for dim 2"),
        (
            "duplicate entry",
            [{"i": 0, "j": 1, "c": [1, 0]}, {"i": 0, "j": 1, "c": [0, 1]}],
            "duplicate table entry for (0, 1)",
        ),
        (
            "bad entry after a good one",
            [{"i": 0, "j": 1, "c": [1, 0]}, {"i": 1, "j": 0, "c": [2, 3]}],
            "residue 3 out of range [0, 3)",
        ),
        ("entry not an object", [[0, 1, [1, 0]]], "table entries must be objects"),
        ("unknown entry key", [{"i": 0, "j": 1, "c": [1, 0], "k": 0}], "unknown table entry fields: k"),
    ]
]


def scanned_by(fn):
    """fn()'s result and the number of subspaces its request ledger
    debited: fn runs inside an outer request, whose ledger its calls share
    (each call's own budget is then ignored)."""
    budget = 10**18
    with search._request(budget):
        result = fn()
        return result, budget - search._budget_left.get()


def one_budget_algebras():
    """GF(3) algebras with alpha = n-2 for whole-request budget tests:
    c(rot) (+) F (Case1_c), rotext (+) F and d(rot) (+) F^2 (Case2_d)."""
    rot = rotation_2x2(F3)
    return {
        "c(rot)+F": direct_sum(make_c(rot, F3), abelian_algebra(1, F3)),
        "rotext+F": direct_sum(heisenberg_rotation_extension(F3), abelian_algebra(1, F3)),
        "d(rot)+F^2": direct_sum(make_d(rot, F3), abelian_algebra(2, F3)),
    }


def odd_heisenberg(F, k):
    """h_(2k+1): [x_i, y_i] = z = -[y_i, x_i] for i = 1..k, on the basis
    x_1, y_1, .., x_k, y_k, z."""
    n = 2 * k + 1
    z = tuple(int(t == n - 1) for t in range(n))
    minus_z = tuple(-x % F.p for x in z)
    products = {}
    for i in range(k):
        products[2 * i, 2 * i + 1] = z
        products[2 * i + 1, 2 * i] = minus_z
    return AlgebraTable.from_products(F, n, products)


def heisenberg_sums(F):
    """h7 and h5 (+) h3 over F, canonical, by name.  Their abelian
    subalgebras reach n-3 only, and the strata above hold millions of
    subspaces over GF(5) and GF(7)."""
    return {"h7": odd_heisenberg(F, 3), "h5+h3": direct_sum(odd_heisenberg(F, 2), heisenberg(F))}


def rot_swap_extension(F):
    """e(phi, -phi, 0, 6) on (x, u, w, z, f1, f2), phi the rotation on
    (u, w), 0 on z and the swap on (f1, f2): Tr(phi) = Tr(phi^2) = 0, so
    every trace of the first trace form vanishes over QQ and GF(3) and its
    kernel is L.  Its nilradical is span(u, w, z, f1, f2), heisenberg (+)
    F^2, and it is Case3_e where the rotation is irreducible."""
    phi = Matrix(
        F,
        [
            [0, 1, 0, 0, 0],
            [-1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0],
        ],
    )
    return make_e(phi, -phi, (0,) * 5, 6, F)


def linear_action(M, F, name):
    """x acting on F^m by the m x m matrix M, basis (x, v_1, .., v_m):
    [x, v] = -[v, x] = Mv.  When M is invertible the nilradical is F^m."""
    m = M.rows
    products = {}
    for j in range(1, m + 1):
        image = (0,) + M.col(j - 1)
        products[(0, j)] = image
        products[(j, 0)] = tuple(-x for x in image)
    return AlgebraTable.from_products(F, m + 1, products, name=name)


def identity_action(m, F):
    """x acting as the identity on F^m.  Its nilradical is F^m.  When p
    divides m every trace-form functional vanishes, so the trace kernel is
    the whole algebra, which is not nilpotent."""
    return linear_action(Matrix.identity(F, m), F, "identity-action-%d" % m)


def cycle_action(F):
    """x acting on span(v1, v2, v3) by the 3-cycle v_i -> v_(i+1).  Its
    nilradical is span(v1, v2, v3).  Tr(L_x) = Tr(L_x^2) = 0, so the trace
    kernel of degree <= 1 is the whole algebra; L_x^3 is the identity on
    span(v1, v2, v3), of trace 3."""
    cycle = Matrix(F, [[int(i == (j + 1) % 3) for j in range(3)] for i in range(3)])
    return linear_action(cycle, F, "cycle-action")


def left_only_action(A, F):
    """x acting on F^m by the m x m matrix A from the left only, basis (x,
    v_1, .., v_m): [x, v] = Av and every other bracket 0.  It is Leibniz for
    every A and not Lie for A != 0.  span(v_1, .., v_m) is an abelian
    hyperplane ker f, and f shows up on one side of the structure slices
    only: each slice is f a^T."""
    m = A.rows
    products = {(0, j): (0,) + A.col(j - 1) for j in range(1, m + 1)}
    return AlgebraTable.from_products(F, m + 1, products, name="left-only-action")


def _entries(F):
    """Strategy for the entries of a drawn parameter: every element of
    GF(p), small integers over QQ."""
    return st.integers(0, F.p - 1) if F.is_prime_field else st.integers(-2, 2)


def _disguised_sum(draw, L, disguised=True):
    """L (+) F^k, of dimension at most MAX_DIM[p], under a seeded basis
    change: a random invertible matrix over GF(p), `rational_change` over
    QQ; in its canonical basis when not `disguised`."""
    F = L.field
    k = draw(st.integers(0, MAX_DIM[F.p] - L.dim))
    if k:
        L = direct_sum(L, abelian_algebra(k, F))
    if not disguised:
        return L
    return disguise(L, random.Random(draw(st.integers(0, 2**32))))


def disguise(L, rng):
    """L under a basis change from rng: a random invertible matrix over
    GF(p), `rational_change` over QQ."""
    P = rand_invertible(L.field, L.dim, rng) if L.field.is_prime_field else rational_change(L.dim, rng)
    return change_of_basis(L, P)


@st.composite
def family_algebras(draw, fields=(F3, F5)):
    """A family algebra (+) F^k over one of `fields`, of dimension at most
    MAX_DIM[p], under a seeded basis change.

    Family a (one-sided action, so [u, v] = 0 does not give [v, u] = 0),
    rotext and family e with [x, x] != 0 are the non-Lie ones."""
    F = draw(st.sampled_from(fields))
    return _disguised_sum(draw, _family_table(draw, F))


def _family_table(draw, F):
    """A family table over F, in its canonical basis (`family_algebras`)."""
    base = draw(st.sampled_from(["a", "c", "d", "e", "rotext", "oscillator"]))
    entries = _entries(F)
    if base == "e":
        # x acts on heisenberg (u, w, z) by a derivation phi (column j the
        # image of the j-th basis vector), theta = -phi, and [x, x] = v in
        # the center, nonzero only when tr phi = 0, as [v, x] = 0 needs
        a, b, c, d, e, f = (draw(entries) for _ in range(6))
        tr = F.of(a + d)
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
    return L


@st.composite
def identity_actions(draw, fields=(F3, F5, F7)):
    """`identity_action(m)` (+) F^k over one of `fields`, of dimension at
    most MAX_DIM[p], under a seeded basis change.  m = p, where it fits,
    is drawn at least half the time: its trace kernel is everything."""
    F = draw(st.sampled_from(fields))
    top = MAX_DIM[F.p] - 1
    p_fits = F.is_prime_field and F.p <= top
    m = F.p if p_fits and draw(st.booleans()) else draw(st.integers(1, top))
    return _disguised_sum(draw, identity_action(m, F))


@st.composite
def cycle_actions(draw, fields=(F3, F5, F7)):
    """`cycle_action` (+) F^k over one of `fields`, of dimension at most
    MAX_DIM[p], under a seeded basis change."""
    return _disguised_sum(draw, cycle_action(draw(st.sampled_from(fields))))


@st.composite
def left_only_actions(draw, fields=(F3, F5, F7)):
    """`left_only_action` of a drawn matrix (+) F^k over one of `fields`, of
    dimension at most MAX_DIM[p], under a seeded basis change."""
    F = draw(st.sampled_from(fields))
    m = draw(st.integers(1, MAX_DIM[F.p] - 1))
    entries = _entries(F)
    A = Matrix(F, [[draw(entries) for _ in range(m)] for _ in range(m)])
    return _disguised_sum(draw, left_only_action(A, F))


@st.composite
def central_algebras(draw, fields=(F3, F5, F7)):
    """An algebra over one of `fields` that often has a nonzero center, of
    dimension at most MAX_DIM[p], canonical or under a seeded basis change:
    a family table, the direct sum of two `left_only_action`s, or
    heisenberg (+) a one-dimensional `left_only_action` where it fits, each
    (+) F^k.  The center of heisenberg and of c(rot) lies in [L, L]."""
    F = draw(st.sampled_from(fields))
    top = MAX_DIM[F.p]
    kinds = ["family", "left-only pair"] + (["heisenberg"] if top >= 5 else [])
    kind = draw(st.sampled_from(kinds))
    entries = _entries(F)

    def left_only(m):
        return left_only_action(Matrix(F, [[draw(entries) for _ in range(m)] for _ in range(m)]), F)

    if kind == "family":
        L = _family_table(draw, F)
    elif kind == "left-only pair":
        m = draw(st.integers(1, top - 3))
        L = direct_sum(left_only(m), left_only(draw(st.integers(1, top - 2 - m))))
    else:
        L = direct_sum(heisenberg(F), left_only(1))
    return _disguised_sum(draw, L, disguised=draw(st.booleans()))


def cocycle_space(L, alternating=False):
    """The Leibniz 2-cocycles of L with values in F, theta(a, [b, c]) =
    theta([a, b], c) + theta(b, [a, c]) on basis triples (Loday and
    Pirashvili, 1993): a subspace of F^(n^2), theta(e_i, e_j) at i*n + j.
    Exactly for these theta is the central extension, [x, y] + theta(x, y) z
    with z central, Leibniz.  With `alternating`, only those with
    theta(a, b) = -theta(b, a), so theta(a, a) = 0 over odd p: over a Lie
    L their extensions are Lie."""
    n, p = L.dim, L.field.p
    conditions = []
    for a, b, c in itertools.product(range(n), repeat=3):
        row = [0] * (n * n)
        for k, x in L._products[b][c]:
            row[a * n + k] += x
        for k, x in L._products[a][b]:
            row[k * n + c] -= x
        for k, x in L._products[a][c]:
            row[b * n + k] -= x
        conditions.append([x % p for x in row])
    if alternating:
        for a, b in itertools.combinations_with_replacement(range(n), 2):
            row = [0] * (n * n)
            row[a * n + b] += 1
            row[b * n + a] += 1
            conditions.append(row)
    return Subspace._kernel(L.field, n * n, conditions)


def _central_extension(draw, L, alternating=False):
    """L (+)_theta F z for a theta drawn from `cocycle_space(L,
    alternating)`: z is the last basis vector, central, and [x, y] gains
    theta(x, y) z."""
    F, n, p = L.field, L.dim, L.field.p
    Z = cocycle_space(L, alternating)._rows
    coefs = [draw(st.integers(0, p - 1)) for _ in Z]
    theta = [sum(x * row[t] for x, row in zip(coefs, Z)) % p for t in range(n * n)]
    products = {(i, j): L.c[i][j] + (theta[i * n + j],) for i in range(n) for j in range(n)}
    return AlgebraTable.from_products(F, n + 1, products, name="central extension")


@st.composite
def central_extensions(draw, fields=(F3, F5)):
    """L (+)_theta F z over one of `fields`, under a seeded basis change: a
    base L from `family_algebras` or `central_algebras`, of dimension at
    most MAX_DIM[p], and a Leibniz 2-cocycle theta drawn from
    `cocycle_space(L)`; z is central, and [x, y] gains theta(x, y) z."""
    E = _central_extension(draw, draw(st.one_of(family_algebras(fields), central_algebras(fields))))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return change_of_basis(E, rand_invertible(E.field, E.dim, rng))


def derivation_space(L):
    """The derivations D of L, D[a, b] = [Da, b] + [a, Db] on basis pairs:
    a subspace of F^(n^2), the e_t coordinate of D e_j at j*n + t."""
    n, p = L.dim, L.field.p
    products = L._products
    conditions = []
    for a, b in itertools.product(range(n), repeat=2):
        # rows[t]: the e_t coordinate of D[a, b] - [Da, b] - [a, Db]
        rows = [[0] * (n * n) for _ in range(n)]
        for k, x in products[a][b]:
            for t in range(n):
                rows[t][k * n + t] += x
        for i in range(n):
            for t, x in products[i][b]:
                rows[t][a * n + i] -= x
            for t, x in products[a][i]:
                rows[t][b * n + i] -= x
        conditions += [[x % p for x in row] for row in rows]
    return Subspace._kernel(L.field, n * n, conditions)


def _nilpotent_lie(draw, F, top):
    """A nilpotent Lie table over F of dimension at most top >= 3: F^2,
    F^3, heisenberg (+) F^k, the family tables c(nilp), c(0) and
    e(0,0,0,4) where they fit, or a central extension of one of these by
    an alternating 2-cocycle, which is again nilpotent and Lie."""
    zero3 = Matrix.zeros(F, 3, 3)
    tables = [abelian_algebra(2, F), abelian_algebra(3, F), heisenberg(F)]
    if top >= 4:
        tables += [
            direct_sum(heisenberg(F), abelian_algebra(1, F)),
            make_c(Matrix(F, [[0, 1], [0, 0]]), F),
            make_c(Matrix.zeros(F, 2, 2), F),
            make_e(zero3, zero3, (0, 0, 0), 4, F),
        ]
    N = draw(st.sampled_from(tables))
    if N.dim < top and draw(st.booleans()):
        N = _central_extension(draw, N, alternating=True)
    return N


# K and s are redrawn at most this often before a one-dimensional extension
# falls back to K = 0, s = 0
EXTENSION_TRIES = 10


@st.composite
def one_dimensional_extensions(draw, fields=(F3, F5)):
    """N (+) F t over one of `fields`, of dimension at most MAX_DIM[p],
    under a seeded basis change: the paper's one-dimensional extension of a
    nilpotent Lie table N (`_nilpotent_lie`), [t, a] = D a, [a, t] = -D a +
    K a and [t, t] = s, with D a derivation drawn from `derivation_space(N)`.

    K = 0, s = 0 gives the semidirect product by D, which is Lie.  The
    Leibniz rule on (a, t, c) gives [K a, c] = 0, and on (t, t, c) gives
    [s, c] = 0, so K maps N into its center, and s lies there.  K and s are
    drawn so, each 0 half the time, from a seeded random.Random until the
    table is Leibniz, at most EXTENSION_TRIES times, and are 0 after that:
    no draw is rejected."""
    F = draw(st.sampled_from(fields))
    p = F.p
    N = _nilpotent_lie(draw, F, MAX_DIM[p] - 1)
    n = N.dim
    rows = derivation_space(N)._rows
    coefs = [draw(st.integers(0, p - 1)) for _ in rows]
    d = [sum(x * row[t] for x, row in zip(coefs, rows)) % p for t in range(n * n)]
    rng = random.Random(draw(st.integers(0, 2**32)))
    Z = center(N)._rows

    def central():
        return [sum(rng.randrange(p) * z[t] for z in Z) % p for t in range(n)]

    zero = [0] * n

    for attempt in range(EXTENSION_TRIES + 1):
        if attempt < EXTENSION_TRIES:
            # K alone, s alone or both
            kind = rng.randrange(3)
            K = [central() for _ in range(n)] if kind != 1 else [zero] * n
            s = central() if kind != 0 else zero
        else:
            K, s = [zero] * n, zero
        products = {(i, j): N.c[i][j] + (0,) for i in range(n) for j in range(n)}
        for j in range(n):
            Dj = d[j * n:(j + 1) * n]
            products[n, j] = (*Dj, 0)
            products[j, n] = (*(k - x for x, k in zip(Dj, K[j])), 0)
        products[n, n] = (*s, 0)
        L = AlgebraTable.from_products(F, n + 1, products, name="one-dimensional extension")
        if is_leibniz(L):
            break
    return change_of_basis(L, rand_invertible(F, n + 1, rng))


# -- references: eliminations that linalg's one step replaced ---------------------


def reference_echelon(F, rows, ncols):
    """(rows, pivots) of `linalg._echelon` by the Gauss-Jordan column sweep
    it ran before it became a forward pass and a back-substitution of one
    step: column by column, a pivot row is swapped up and clears that
    column in every other row, fraction-free over QQ with each new row
    divided by its content; the rows are then divided by their content and
    pivot sign over QQ.  Residues over GF(p), ints over QQ."""
    p = F.p
    if p is None:
        rows = [row for row in rows if any(row)]
    else:
        rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top = rows[r]
        a = top[c]
        if p is not None and a != 1:
            inv = pow(a, -1, p)
            top = rows[r] = [x * inv % p for x in top]
        for i in range(len(rows)):
            row = rows[i]
            f = row[c]
            if i == r or not f:
                continue
            if p is not None:
                rows[i] = [(x - f * y) % p if y else x for x, y in zip(row, top)]
                continue
            row = [a * x - f * y for x, y in zip(row, top)]
            g = math.gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    rows = rows[:r]
    if p is None:
        for i, (row, pc) in enumerate(zip(rows, pivots)):
            g = math.gcd(*row) if row[pc] > 0 else -math.gcd(*row)
            if g != 1:
                rows[i] = [x // g for x in row]
    return rows, pivots


KERNEL_FIELDS = (QQ, F2, F3, F5)


@st.composite
def condition_sets(draw, shape):
    """(field, n, conditions): k condition rows on F^n, residues over GF(p)
    and ints over QQ, k > n for "tall", k = n for "square" and k < n for
    "short"; n = 0 and k = 0 occur.  Each row is a combination of r drawn
    rows, a zero row or a repeat of an earlier row."""
    F = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1 if shape == "short" else 0, 6))
    lo, hi = {"tall": (n + 1, n + 4), "square": (n, n), "short": (0, n - 1)}[shape]
    k = draw(st.integers(lo, hi))
    entries = st.integers(0, F.p - 1) if F.is_prime_field else st.integers(-3, 3)
    r = draw(st.integers(0, min(n, k)))
    gens = [[draw(entries) for _ in range(n)] for _ in range(r)]
    rows = []
    for _ in range(k):
        kind = draw(st.sampled_from(("combination", "zero", "repeat") if rows else ("combination", "zero")))
        if kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append([0] * n)
        else:
            coeffs = [draw(entries) for _ in gens]
            rows.append([sum(a * g[j] for a, g in zip(coeffs, gens)) for j in range(n)])
    if F.is_prime_field:
        rows = [[x % F.p for x in row] for row in rows]
    return F, n, rows


# -- references: [L, L] and the series by brackets alone -------------------------


def reference_bracket(L, u, v):
    """[u, v] for rows of L's field, summed entry by entry over the
    table L.c with the field's own arithmetic; no integer view is read."""
    F = L.field
    out = [F.zero] * L.dim
    for x, ci in zip(u, L.c):
        for y, cij in zip(v, ci):
            if x and y:
                xy = F.mul(x, y)
                out = [F.add(o, F.mul(xy, c)) for o, c in zip(out, cij)]
    return out


def reference_product_space(L, U, V):
    """The span of the [u, v], u and v basis rows of U and V
    (`reference_bracket`)."""
    return Subspace.from_vectors(
        L.field, L.dim, [reference_bracket(L, u, v) for u in U.basis.data for v in V.basis.data]
    )


def reference_series(L):
    """(derived chain, lower central chain) of L, both walked from L by
    brackets alone, as `series` walked them before it read [L, L] off the
    table: D(k+1) = [Dk, Dk] and C(k+1) = [L, Ck]."""
    full = L.full_space()
    derived = _chain(full, lambda D: reference_product_space(L, D, D))
    lower = _chain(full, lambda C: reference_product_space(L, full, C))
    return tuple(derived), tuple(lower)


# -- references: the trace-form functionals --------------------------------------


def reference_trace_rows(L):
    """x -> Tr(L_x) and x -> Tr(L_x L_e_j), the n + 1 rows of
    `invariants._trace_rows`, from the operators L_e_i built by brackets
    alone (column k of L_e_i is `reference_bracket`(e_i, e_k)) and
    multiplied out entry by entry.  They are scaled as on the integer view,
    row 0 by D and the others by D^2, D the lcm of the table's denominators
    (1 over GF(p)), and reduced to residues over GF(p)."""
    F, n = L.field, L.dim
    basis = [L.basis_vector(i) for i in range(n)]
    # cols[i][k][t] = L_e_i[t][k]
    cols = [[reference_bracket(L, e, f) for f in basis] for e in basis]
    D = 1 if F.is_prime_field else math.lcm(*(x.denominator for ci in L.c for cij in ci for x in cij))

    def trace(i, j):
        return sum(cols[i][k][t] * cols[j][t][k] for t in range(n) for k in range(n))

    rows = [[D * sum(cols[i][t][t] for t in range(n)) for i in range(n)]]
    rows += [[D * D * trace(i, j) for i in range(n)] for j in range(n)]
    return [[x % F.p for x in row] for row in rows] if F.is_prime_field else rows


def reference_integer_view(L):
    """(D, c, products) from the table's own entries, with a full n^3 scan:
    the integer view every table must carry.  Over QQ, c is the integer
    table D*L.c, D the lcm of the denominators of the structure constants;
    over GF(p) it is (1, L.c, ...).  products lists [e_i, e_j] of c, for
    every (i, j), as its nonzero (k, c) pairs."""
    if L.field.p is not None:
        D, c = 1, L.c
    else:
        D = math.lcm(*(x.denominator for ci in L.c for cij in ci for x in cij))
        c = tuple(
            tuple(tuple(x.numerator * (D // x.denominator) for x in cij) for cij in ci)
            for ci in L.c
        )
    products = tuple(tuple(tuple((k, x) for k, x in enumerate(cij) if x) for cij in ci) for ci in c)
    return D, c, products


def reference_two_sided_trace_rows(L):
    """x -> Tr(M_x W), M in {L, R}, W in {1, L_e_j, R_e_j}: 2(2n + 1) rows
    on the integer view, each Tr(A B) summed over the nonzero positions
    shared by A and B's transpose.  Their common kernel holds every
    nilpotent ideal, as that of the left rows alone does, and lies in it."""
    p, c, n = L.field.p, reference_integer_view(L)[1], L.dim
    cols = [[c[i][k] for k in range(n)] for i in range(n)]
    cols += [[c[k][i] for k in range(n)] for i in range(n)]
    flat = [{t: x for t, x in enumerate(sum(zip(*cs), ())) if x} for cs in cols]
    flat_t = [{t: x for t, x in enumerate(sum(cs, ())) if x} for cs in cols]
    T = [[0] * (2 * n) for _ in range(2 * n)]
    for a, A in enumerate(flat):
        for b in range(a, 2 * n):
            B = flat_t[b]
            T[a][b] = T[b][a] = sum(A[t] * B[t] for t in A.keys() & B.keys())
    diagonal = range(0, n * n, n + 1)
    funcs = [[sum(A.get(t, 0) for t in diagonal) for A in flat[m : m + n]] for m in (0, n)]
    funcs += [[T[m + i][b] for i in range(n)] for m in (0, n) for b in range(2 * n)]
    return funcs if p is None else [[x % p for x in f] for f in funcs]


# -- references: the Heisenberg frame from a subalgebra table -----------------------


def reference_heisenberg_frame(L, W):
    """`classify._heisenberg_frame` as it was written on a Fraction table of
    W: the subalgebra table of W on its RREF rows, its Lie test, derived
    space and center, the frame written in W's coordinates and mapped back
    through W's RREF basis."""
    m = W.dim
    if m < 3:
        return None
    T = subalgebra_table(L, W)
    if not is_lie(T):
        return None
    T2 = _derived_space(T)
    CT = center(T)
    if T2.dim != 1 or CT.dim != m - 2 or not CT.contains(T2):
        return None
    F = L.field
    u_t = T.basis_vector(_least_index_outside(T, CT))
    w_t = next(e for e in map(T.basis_vector, range(m)) if any(_bracket(T, u_t, e)))
    c = _bracket(T, u_t, w_t)[T2.pivots[0]]
    rows_t = [u_t, tuple(F.mul(F.inv(c), x) for x in w_t), T2.basis.data[0]]
    rows_t += T2._extension(CT.basis.data)
    return [W.basis.apply_row(row) for row in rows_t]


def reference_frame_branch(L, W):
    """The test of `reference_heisenberg_frame` that decides W: the first
    that fails, or "frame"."""
    m = W.dim
    if m < 3:
        return "dim W < 3"
    T = subalgebra_table(L, W)
    if not is_lie(T):
        return "W not Lie"
    T2, CT = _derived_space(T), center(T)
    if T2.dim != 1:
        return "dim [W, W] != 1"
    if CT.dim != m - 2:
        return "dim C(W) != m - 2"
    if not CT.contains(T2):
        return "[W, W] not in C(W)"
    return "frame"
