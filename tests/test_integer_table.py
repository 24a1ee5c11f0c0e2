"""Differential tests of the QQ integer table against Fraction references.

Over QQ the package reads its structure constants only through the integer
table D*c (`AlgebraTable._Dc`), eliminates fraction-free
(`linalg._echelon`), keeps each subspace as its primitive integer rows and
brackets in ints.  Here each of those is compared with a test-local
reference that does what the package did with `Fraction`s before: the
bracket as a Fraction sum, Gauss-Jordan elimination with Fraction pivots,
subspaces as Fraction RREF bases, the center, squares and trace-functional
rows read off the Fraction table, and the envelope radical of the
nilradical from Fraction matrices.  Inputs are the QQ fixtures under `rational_change`,
under dense basis changes (entries -3..3 over denominators 1..3), and one
table whose denominators have a large lcm.  Every scalar the package returns
(in a Subspace, a Matrix, a bracket or a verdict's witness) must be a
Fraction: no int may leak out of the scale-free paths.
"""

import math
import random
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras.algebra import (
    AlgebraTable,
    _bracket,
    _scaled_bracket,
    center,
    centralizer,
    change_of_basis,
    direct_sum,
    is_abelian_subspace,
    is_ideal,
    is_subalgebra,
    left_annihilator,
    mult_operator,
    normalizer,
    product_space,
    squares_ideal,
    subalgebra_table,
)
from leibniz_algebras.catalog import heisenberg_rotation_extension, rotation_2x2, standard_fixtures
from leibniz_algebras.classify import classify
from leibniz_algebras.families import abelian_algebra, make_c, make_d
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import (
    _envelope_radical,
    _trace_kernel,
    fitting_decomposition,
    nilradical,
    series,
    verify_nilradical_candidate,
)
from leibniz_algebras.linalg import (
    Matrix,
    QuadraticPoly,
    Subspace,
    _integer_row,
    _integer_rows,
    rref_with_pivots,
    subspace_intersect,
    subspace_sum,
)

from conftest import carried, cycle_action, identity_action, left_only_action, rational_change

QQ_FIXTURES = [L for L in standard_fixtures(QQ) if L.dim > 1]
PRIMES = (7, 11, 13, 17, 19)


def dense_change(n, rng):
    """A dense invertible matrix, entries a/b with a in -3..3, b in 1..3."""
    while True:
        P = Matrix(QQ, [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(n)])
        if P.is_invertible():
            return P


def large_lcm_table():
    """The largest QQ fixture with its basis vectors divided by distinct
    primes, then a dense change: the denominators' lcm is large."""
    L = max(QQ_FIXTURES, key=lambda T: (T.dim, sum(map(any, (v for r in T.c for v in r)))))
    n = L.dim
    scale = Matrix(QQ, [[Fraction(int(i == j), PRIMES[i]) for j in range(n)] for i in range(n)])
    return change_of_basis(L, dense_change(n, random.Random(3)) @ scale)


LARGE = large_lcm_table()


@st.composite
def qq_tables(draw):
    """A QQ fixture under `rational_change` or a dense change, or the
    large-lcm table."""
    kind = draw(st.sampled_from(["rational", "dense", "large"]))
    if kind == "large":
        return LARGE
    L = draw(st.sampled_from(QQ_FIXTURES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    P = rational_change(L.dim, rng) if kind == "rational" else dense_change(L.dim, rng)
    return change_of_basis(L, P)


def qq_rows(n, size):
    fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    entries = st.one_of(st.just(Fraction(0)), fractions)
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=size)


# -- Fraction references -----------------------------------------------------


def ref_bracket(L, u, v):
    """[u, v] as the Fraction sum over the nonzero structure constants."""
    out = [Fraction(0)] * L.dim
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            if x and y:
                for k, c in enumerate(L.c[i][j]):
                    out[k] += x * y * c
    return tuple(out)


def ref_rref(rows, ncols):
    """Gauss-Jordan with Fraction pivots: (rows, rank, pivots), the zero
    rows last."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        top = rows[r] = [x * inv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, top)]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, rows)), r, pivots


def ref_span(rows, n):
    red, rank, _ = ref_rref(rows, n)
    return red[:rank]


def ref_kernel(rows, n):
    """RREF basis of {x : row . x = 0 for every row}."""
    red, rank, pivots = ref_rref(rows, n)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(int(c == f)) for c in range(n)]
        for row, pc in zip(red[:rank], pivots):
            v[pc] = -row[f]
        basis.append(v)
    return ref_span(basis, n)


def ref_center(L):
    n, c = L.dim, L.c
    rows = [[c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    rows += [[c[j][i][k] for i in range(n)] for j in range(n) for k in range(n)]
    return ref_kernel(rows, n)


def ref_left_annihilator(L):
    n, c = L.dim, L.c
    return ref_kernel([[c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)], n)


def ref_squares(L):
    n, c = L.dim, L.c
    gens = [c[i][i] for i in range(n)]
    gens += [[a + b for a, b in zip(c[i][j], c[j][i])] for i in range(n) for j in range(i + 1, n)]
    return ref_span(gens, n)


def ref_trace_rows(L):
    """x -> Tr(L_x W), W in {1, L_e_j}, as Fraction matrices:
    L_e_i[t][k] = c[i][k][t]."""
    n, c = L.dim, L.c
    left = [[[c[i][k][t] for k in range(n)] for t in range(n)] for i in range(n)]
    ident = [[Fraction(int(t == k)) for k in range(n)] for t in range(n)]

    def trace_of_product(A, B):
        return sum((A[t][k] * B[k][t] for t in range(n) for k in range(n)), Fraction(0))

    rows = [[trace_of_product(M, W) for M in left] for W in [ident] + left]
    return ref_span(rows, n)


def ref_contains(U, w):
    return len(ref_span(list(U.basis.data) + [w], U.ambient_dim)) == U.dim


def assert_fractions(values):
    for x in values:
        assert type(x) is Fraction, x


def assert_subspace(U, rows):
    assert U.basis.data == tuple(rows)
    for row in U.basis.data:
        assert_fractions(row)


def fraction_scalars(obj):
    """Every scalar of a returned value: Subspaces, Matrices, tables, rows,
    quadratics and the dicts and tuples holding them."""
    if isinstance(obj, Subspace):
        obj = obj.basis
    if isinstance(obj, Matrix):
        return [x for row in obj.data for x in row]
    if isinstance(obj, AlgebraTable):
        return [x for ci in obj.c for cij in ci for x in cij]
    if isinstance(obj, QuadraticPoly):
        return [obj.c1, obj.c0]
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in fraction_scalars(v)]
    if isinstance(obj, (tuple, list)):
        return [x for v in obj for x in fraction_scalars(v)]
    return [obj]


# -- tests ---------------------------------------------------------------------


def test_the_large_table_has_a_large_denominator_lcm():
    D = LARGE._D
    assert D == math.lcm(*(x.denominator for ci in LARGE.c for cij in ci for x in cij))
    assert D > 10**6
    assert all(type(x) is int for ci in LARGE._Dc for cij in ci for x in cij)


@settings(max_examples=80)
@given(data=st.data(), L=qq_tables())
def test_brackets_match_the_fraction_sum(data, L):
    n = L.dim
    D = L._D
    rows = data.draw(qq_rows(n, 3)) + [L.basis_vector(i) for i in range(n)]
    for u in rows:
        for v in rows[:4]:
            want = ref_bracket(L, u, v)
            got = _bracket(L, u, v)
            assert got == want
            assert_fractions(got)
            # the scale-free bracket of the integer rows is D du dv [u, v]
            (du, iu), (dv, iv) = _integer_row(u), _integer_row(v)
            scaled = _scaled_bracket(L, iu, iv)
            assert all(type(x) is int for x in scaled)
            assert scaled == tuple(x * D * du * dv for x in want)
    # the operators of the drawn rows: column j is [u, e_j] or [e_j, u]
    es = [L.basis_vector(j) for j in range(n)]
    for u in rows[:3]:
        for side in ("left", "right"):
            op = mult_operator(L, u, side)
            cols = [ref_bracket(L, u, e) if side == "left" else ref_bracket(L, e, u) for e in es]
            assert op.data == tuple(zip(*cols))
            assert_fractions(x for row in op.data for x in row)


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(1, 6), factor=st.integers(1, 30))
def test_rref_of_integer_rows_equals_rref_of_fraction_rows(data, n, factor):
    rows = data.draw(qq_rows(n, 7))
    if data.draw(st.booleans()):
        # a dependent row, so that the rank falls short
        rows.append([a - 2 * b for a, b in zip(rows[0], rows[-1])])
    want = ref_rref(rows, n)
    got = rref_with_pivots(Matrix._canonical(QQ, rows, n))
    # each row scaled to integers and by a signed factor: the same RREF
    sign = data.draw(st.sampled_from([1, -1]))
    ints = [[sign * factor * x for x in _integer_row(r)[1]] for r in rows]
    from_ints = rref_with_pivots(Matrix._canonical(QQ, ints, n))
    for red, rank, pivots in (got, from_ints):
        assert (red.data, rank, pivots) == want
        assert red.rows == len(rows) and red.cols == n
        assert_fractions(fraction_scalars(red))
    U = Subspace._span(QQ, n, ints)
    assert_subspace(U, want[0][: want[1]])


@settings(max_examples=80)
@given(L=qq_tables())
def test_spans_and_kernels_read_off_the_integer_table(L):
    n = L.dim
    assert_subspace(center(L), ref_center(L))
    assert_subspace(left_annihilator(L), ref_left_annihilator(L))
    assert_subspace(squares_ideal(L), ref_squares(L))
    # the annihilator of the trace kernel is the span of the trace rows
    funcs = _trace_kernel(L).complement_functionals()
    assert funcs.data == ref_trace_rows(L)
    assert_fractions(fraction_scalars(funcs))
    assert_subspace(_trace_kernel(L), ref_kernel(ref_trace_rows(L), n))


@settings(max_examples=80)
@given(data=st.data(), L=qq_tables())
def test_scale_free_tests_match_the_references(data, L):
    n = L.dim
    U = Subspace.from_vectors(QQ, n, data.draw(qq_rows(n, n - 1)))
    V = Subspace.from_vectors(QQ, n, data.draw(qq_rows(n, 2)))
    # also the structure's own subspaces, which pass the tests more often
    for W in (U, V, center(L), squares_ideal(L), _trace_kernel(L), *series(L).derived_chain[1:2]):
        gens = [ref_bracket(L, u, v) for u in W.basis.data for v in V.basis.data]
        assert_subspace(product_space(L, W, V), ref_span(gens, n))
        brackets = [ref_bracket(L, u, v) for u in W.basis.data for v in W.basis.data]
        assert is_subalgebra(L, W) == all(ref_contains(W, w) for w in brackets)
        assert is_abelian_subspace(L, W) == (not any(map(any, brackets)))
        es = [L.basis_vector(j) for j in range(n)]
        sides = [ref_bracket(L, u, e) for u in W.basis.data for e in es]
        sides += [ref_bracket(L, e, u) for u in W.basis.data for e in es]
        assert is_ideal(L, W) == all(ref_contains(W, w) for w in sides)


# base algebra, k, witness and nilradical basis indices of the base
FAMILIES = (
    ("rotext", range(0, 2), (1, 2), (0, 1, 2)),
    ("c(rot)", range(0, 2), (0, 1), (1, 2, 3)),
    ("d(rot)", range(1, 3), (0,), ()),
)


def family(base, k):
    rot = rotation_2x2(QQ)
    L = {"c(rot)": make_c(rot, QQ), "d(rot)": make_d(rot, QQ),
         "rotext": heisenberg_rotation_extension(QQ)}[base]
    return direct_sum(L, abelian_algebra(k, QQ)) if k else L


@settings(max_examples=40)
@given(data=st.data(), seed=st.integers(0, 2**32), dense=st.booleans())
def test_verdicts_hold_fractions_only(data, seed, dense):
    base, ks, witness, nil = data.draw(st.sampled_from(FAMILIES))
    k = data.draw(st.sampled_from(list(ks)))
    L = family(base, k)
    n = L.dim
    rng = random.Random(seed)
    P = dense_change(n, rng) if dense else rational_change(n, rng)
    M = change_of_basis(L, P)
    central = tuple(range(n - k, n))
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    A = Subspace.from_vectors(QQ, n, carried(P, [unit[i] for i in witness + central]))
    N = Subspace.from_vectors(QQ, n, carried(P, [unit[i] for i in nil + central]))
    verdict = classify(M, A=A, nilradical_candidate=N)
    assert verify_nilradical_candidate(M, N)
    assert verdict.case == classify(L, A=Subspace.from_vectors(
        QQ, n, [unit[i] for i in witness + central])).case
    assert_fractions(fraction_scalars(verdict.witness))
    assert_fractions(fraction_scalars([center(M), squares_ideal(M), nilradical(M)]))
    assert_fractions(fraction_scalars(list(series(M).derived_chain + series(M).lower_central_chain)))


# -- subspaces as primitive integer rows ----------------------------------------


def mixed_rows(n, size):
    """Rows of ints and Fractions, zero rows among them."""
    entry = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
    row = st.one_of(st.lists(entry, min_size=n, max_size=n), st.just([0] * n))
    return st.lists(row, max_size=size)


def assert_canonical(U, ref_rows):
    """U is the span of the Fraction RREF rows ref_rows: equal to, and
    hashing as, the subspace built from those rows scaled to be primitive,
    with the same pivots; its integer rows are those rows, each with a
    positive pivot; and its basis is ref_rows."""
    n = U.ambient_dim
    pivots = tuple(next(c for c, x in enumerate(r) if x) for r in ref_rows)
    primitive = [[int(x * math.lcm(*(y.denominator for y in r))) for x in r] for r in ref_rows]
    ref = Subspace(QQ, n, primitive, pivots)
    assert U == ref and hash(U) == hash(ref) and U.pivots == pivots
    for row, ref_row, pc in zip(U._rows, ref_rows, pivots, strict=True):
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1 and row[pc] > 0
        d = math.lcm(*(x.denominator for x in ref_row))
        assert list(row) == [x * d for x in ref_row]
    assert_subspace(U, ref_rows)
    # reading the basis changes neither
    assert U == ref and hash(U) == hash(ref)


@settings(max_examples=150)
@given(data=st.data(), n=st.integers(1, 6))
def test_subspaces_match_the_fraction_oracle(data, n):
    rows = data.draw(mixed_rows(n, 6))
    if rows:  # repeated rows
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=2))
    other = data.draw(mixed_rows(n, 4))
    # the private routines take rows of ints over QQ
    ints = _integer_rows(QQ, rows)
    U, V = Subspace._span(QQ, n, ints), Subspace.from_vectors(QQ, n, other)
    ref_u, ref_v = ref_span(rows, n), ref_span(other, n)
    assert_canonical(U, ref_u)
    assert_canonical(V, ref_v)
    assert_canonical(Subspace._kernel(QQ, n, ints), ref_kernel(rows, n))
    if rows:
        assert Matrix(QQ, rows).kernel_basis().data == ref_kernel(rows, n)
    assert_canonical(subspace_sum(U, V), ref_span(ref_u + ref_v, n))
    # U and V meet in the common kernel of the functionals vanishing on them
    assert_canonical(subspace_intersect(U, V), ref_kernel(ref_kernel(ref_u, n) + ref_kernel(ref_v, n), n))
    assert U.contains(V) == (len(ref_span(ref_u + ref_v, n)) == len(ref_u))
    assert (U == V) == (ref_u == ref_v)


@settings(max_examples=60)
@given(L=qq_tables())
def test_subalgebra_tables_match_the_fraction_oracle(L):
    assert_canonical(center(L), ref_center(L))
    rep = series(L)
    for W in (center(L), squares_ideal(L), nilradical(L), *rep.derived_chain, *rep.lower_central_chain):
        rows = W.basis.data
        want = tuple(tuple(tuple(ref_bracket(L, a, b)[pc] for pc in W.pivots) for b in rows) for a in rows)
        T = subalgebra_table(L, W)
        assert T.c == want
        assert_fractions(fraction_scalars(T))


# the constructors of Fraction: __new__ and, from Python 3.12, the one its
# arithmetic calls
FRACTION_BUILDERS = {
    getattr(Fraction, name).__code__ for name in ("__new__", "_from_coprime_ints") if hasattr(Fraction, name)
}


def fractions_built(fn):
    """How many Fractions fn() constructs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code in FRACTION_BUILDERS

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def test_the_structure_of_a_qq_table_builds_no_fraction():
    # with the integer view built, the series, the center, the trace kernel
    # and the nilradical (which is that kernel on these tables) run in
    # ints, and so do the Fitting split, the normalizer and the centralizer
    # of an abelian line: span(e_i) with [e_i, e_i] = 0, or a line of the
    # squares ideal, which lies in the left annihilator; Fractions are built
    # when a basis is read
    assert fractions_built(lambda: Fraction(1, 2) + 1) == 2
    rng = random.Random(11)
    for L in QQ_FIXTURES:
        M = change_of_basis(L, rational_change(L.dim, rng))
        assert _trace_kernel(M) == nilradical(M)
        units = [tuple(int(i == j) for j in range(M.dim)) for i in range(M.dim)]
        lines = [Subspace._span(QQ, M.dim, [e]) for e in units + list(squares_ideal(M)._rows)]
        A = next(U for U in lines if is_abelian_subspace(M, U))
        structure = {
            "series": series,
            "center": center,
            "_trace_kernel": _trace_kernel,
            "nilradical": nilradical,
            "fitting_decomposition": lambda T: fitting_decomposition(T, A),
            "normalizer": lambda T: normalizer(T, A),
            "centralizer": lambda T: centralizer(T, A),
        }
        for name, fn in structure.items():
            fresh = AlgebraTable(QQ, M.c)
            assert fractions_built(lambda: fn(fresh)) == 0, (L.name, name)
        N = nilradical(fresh)
        if N.dim:  # its basis is built from the integer rows when first read
            assert fractions_built(lambda: N.basis) > 0


def ref_envelope_radical(L):
    """{x : L_x in Rad(E)} over QQ with Fraction matrices: a basis of E
    closed from the identity by right products with the L_e_j, in the
    order the package closes it, then the common kernel of the functionals
    x -> Tr(L_x W), W in that basis."""
    n = L.dim
    gens = [Matrix(QQ, [[L.c[j][k][t] for k in range(n)] for t in range(n)]) for j in range(n)]
    words, echelon, frontier = [], [], [Matrix.identity(QQ, n)]
    while frontier:
        W = frontier.pop()
        w = [x for row in W.data for x in row]
        for pc, b in echelon:
            w = [x - w[pc] * y for x, y in zip(w, b)]
        pc = next((c for c, x in enumerate(w) if x), None)
        if pc is not None:
            echelon.append((pc, [x / w[pc] for x in w]))
            words.append(W)
            frontier.extend(W @ G for G in gens)
    return ref_kernel([[(A @ W).trace() for A in gens] for W in words], n)


def test_envelope_radical_matches_the_fraction_computation():
    # 29 tables under 5 rational changes each: the QQ fixtures, and three
    # actions whose trace kernels are not all nilradicals over GF(p)
    bases = QQ_FIXTURES + [
        identity_action(3, QQ),
        cycle_action(QQ),
        left_only_action(Matrix(QQ, [[1, 2], [0, -1]]), QQ),
    ]
    rng = random.Random(5)
    tables = [change_of_basis(L, rational_change(L.dim, rng)) for L in bases for _ in range(5)]
    assert len(tables) == 145
    for M in tables:
        assert_subspace(_envelope_radical(M), ref_envelope_radical(M))
        assert _envelope_radical(M) == nilradical(M)
