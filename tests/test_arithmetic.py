"""Differential tests of the exact-arithmetic layer against naive references.

`bracket` and `Subspace.from_vectors` work on cached sparse products and
inline field arithmetic, `leibniz_failure` on packed integer words; here
each is compared with a test-local reference that coerces every scalar
itself, computes with `Fraction`s and reduces mod p at the end; the row
contraction `_row_action` is compared with the pair brackets, and the
Leibniz check's memory is pinned with `tracemalloc`.  The frame
check `_is_frame`, which never inverts its matrix, is compared with
`change_of_basis`.  Inputs mix canonical scalars with non-canonical ones
(ints outside [0, p), ints over QQ, strings, fractions over GF(p)), and
tables are drawn both at random (mostly not Leibniz) and
from the standard fixtures under basis changes (all Leibniz).
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras import algebra
from leibniz_algebras.algebra import (
    AlgebraTable,
    _is_frame,
    _scaled_bracket,
    bracket,
    center,
    change_of_basis,
    direct_sum,
    leibniz_failure,
)
from leibniz_algebras.catalog import heisenberg_rotation_extension, rotation_2x2, standard_fixtures
from leibniz_algebras.errors import DimensionMismatchError
from leibniz_algebras.families import abelian_algebra, make_c, make_d
from leibniz_algebras.fields import GF, QQ
from leibniz_algebras.linalg import Matrix, Subspace, _row_action

from conftest import F3, F5, F7, disguise, rand_invertible, rational_change

FIELDS = (F3, F5, QQ)


def ref_coerce(F, x):
    value = Fraction(x)
    if F.p is None:
        return value
    return value.numerator * pow(value.denominator, -1, F.p) % F.p


def canonical(F, x):
    return Fraction(x) if F.p is None else int(x) % F.p


def ref_bracket(F, c, u, v):
    """[u, v] as the trilinear sum over all (i, j, k), reduced at the end."""
    n = len(c)
    u = [ref_coerce(F, x) for x in u]
    v = [ref_coerce(F, x) for x in v]
    return tuple(
        canonical(F, sum(u[i] * v[j] * c[i][j][k] for i in range(n) for j in range(n)))
        for k in range(n)
    )


def ref_leibniz_failure(F, c):
    """The first basis triple (i, j, k), in (i, j, k) order, at which
    [e_i, [e_j, e_k]] = [[e_i, e_j], e_k] + [e_j, [e_i, e_k]] fails: the
    plain n^3 triple loop, each coordinate of the defect summed over the
    coerced constants and reduced at the end."""
    n = len(c)
    c = [[[ref_coerce(F, x) for x in v] for v in row] for row in c]
    for i, j, k in itertools.product(range(n), repeat=3):
        for t in range(n):
            defect = sum(
                c[j][k][m] * c[i][m][t] - c[i][j][m] * c[m][k][t] - c[i][k][m] * c[j][m][t]
                for m in range(n)
            )
            if canonical(F, defect):
                return (i, j, k)
    return None


def ref_span(F, vectors):
    """RREF rows and pivots, built by inserting one vector at a time."""
    p = F.p
    red = (lambda x: x) if p is None else (lambda x: x % p)
    basis, pivots = [], []
    for v in vectors:
        row = [ref_coerce(F, x) for x in v]
        for b, pc in zip(basis, pivots):
            f = row[pc]
            row = [red(x - f * y) for x, y in zip(row, b)]
        lead = next((col for col, x in enumerate(row) if x), None)
        if lead is None:
            continue
        s = 1 / row[lead] if p is None else pow(row[lead], -1, p)
        row = [red(x * s) for x in row]
        basis = [[red(x - b[lead] * y) for x, y in zip(b, row)] for b in basis]
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return tuple(tuple(basis[i]) for i in order), [pivots[i] for i in order]


def raw_scalars(F):
    """Scalars as a caller may pass them, canonical or not; zero is common."""
    if F.p is None:
        fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
        return st.one_of(st.just(Fraction(0)), fractions, st.integers(-6, 6), fractions.map(str))
    p = F.p
    ints = st.integers(-2 * p, 3 * p)
    fractions = st.builds(Fraction, ints, st.integers(1, 6).filter(lambda d: d % p))
    return st.one_of(st.just(0), st.integers(0, p - 1), ints, ints.map(str), fractions)


def assert_canonical(F, values):
    for x in values:
        if F.p is None:
            assert type(x) is Fraction
        else:
            assert type(x) is int and 0 <= x < F.p


@st.composite
def tables(draw):
    """(field, raw structure tensor): random, or a fixture under a basis change."""
    F = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        entry = raw_scalars(F)
        c = draw(st.lists(st.lists(st.lists(entry, min_size=n, max_size=n),
                                   min_size=n, max_size=n), min_size=n, max_size=n))
        return F, c
    L = draw(st.sampled_from(standard_fixtures(F, max_dim=4)))
    P = rand_invertible(F, L.dim, random.Random(draw(st.integers(0, 2**32))))
    return F, [[list(v) for v in row] for row in change_of_basis(L, P).c]


@settings(max_examples=150)
@given(data=st.data(), drawn=tables())
def test_bracket_matches_trilinear_sum(data, drawn):
    F, raw = drawn
    L = AlgebraTable(F, raw)
    c = [[[ref_coerce(F, x) for x in v] for v in row] for row in raw]
    assert L.c == tuple(tuple(tuple(v) for v in row) for row in c)
    vectors = st.lists(raw_scalars(F), min_size=L.dim, max_size=L.dim)
    for _ in range(3):
        u, v = data.draw(vectors), data.draw(vectors)
        got = bracket(L, u, v)
        assert got == ref_bracket(F, c, u, v)
        assert_canonical(F, got)


@settings(max_examples=150)
@given(drawn=tables())
def test_leibniz_failure_is_the_first_failing_triple(drawn):
    F, raw = drawn
    L = AlgebraTable(F, raw)
    c = [[[ref_coerce(F, x) for x in v] for v in row] for row in raw]
    assert leibniz_failure(L) == ref_leibniz_failure(F, c)


def test_leibniz_failure_over_QQ_is_the_first_failing_triple():
    # over QQ the check runs on the integer table D*c: QQ fixtures under a
    # rational basis change, one structure constant moved by a fraction, so
    # that the first failing triple can be any triple
    later = set()

    @settings(max_examples=100)
    @given(
        L=st.sampled_from([L for L in standard_fixtures(QQ) if L.dim > 1]),
        seed=st.integers(0, 2**32),
        at=st.tuples(*[st.integers(0, 4)] * 3),
        delta=st.builds(Fraction, st.integers(1, 6), st.integers(1, 6)),
    )
    def check(L, seed, at, delta):
        n = L.dim
        M = change_of_basis(L, rational_change(n, random.Random(seed)))
        c = [[list(v) for v in row] for row in M.c]
        i, j, k = (x % n for x in at)
        c[i][j][k] += delta
        got = leibniz_failure(AlgebraTable(QQ, c))
        assert got == ref_leibniz_failure(QQ, c)
        later.add(got not in (None, (0, 0, 0)))

    check()
    assert True in later


GF_CHECKED = (F3, F5, F7, GF(10007))


def leibniz_bases(F):
    """The standard fixtures and c(rot), d(rot), rotext over F."""
    rot = rotation_2x2(F)
    return standard_fixtures(F) + [make_c(rot, F), make_d(rot, F), heisenberg_rotation_extension(F)]


def test_leibniz_failure_over_GF_p_is_the_first_failing_triple():
    # the GF(p) twin of the QQ test above: a base (+) F^k, n <= 7, canonical
    # or under a basis change, one structure constant moved by a nonzero
    # residue; canonical tables keep zero slices, so the first failure can
    # lie in the last one
    bases = {F: leibniz_bases(F) for F in GF_CHECKED}
    seen = set()

    @settings(max_examples=150)
    @given(data=st.data(), F=st.sampled_from(GF_CHECKED), disguise=st.booleans())
    def check(data, F, disguise):
        L = data.draw(st.sampled_from(bases[F]))
        k = data.draw(st.integers(0, 7 - L.dim))
        if k:
            L = direct_sum(L, abelian_algebra(k, F))
        n = L.dim
        if disguise:
            L = change_of_basis(L, rand_invertible(F, n, random.Random(data.draw(st.integers(0, 2**32)))))
        c = [[list(v) for v in row] for row in L.c]
        i, j, t = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        c[i][j][t] = F.add(c[i][j][t], data.draw(st.integers(1, F.p - 1)))
        got = leibniz_failure(AlgebraTable(F, c))
        assert got == ref_leibniz_failure(F, c)
        if got is not None:
            seen.add("i > 0" if got[0] else "i = 0")
            if got[0] == n - 1:
                seen.add("i = n - 1")

    check()
    assert seen == {"i = 0", "i > 0", "i = n - 1"}


def test_leibniz_check_holds_one_row_of_packed_words():
    """On a dense random GF(3) table at n = 24, each packed word is n^3 W
    bits, W = 19: 32.8 KB, and all n^2 words Z_bt would take 18.9 MB.  The
    check holds O(n) of them at once, so its traced peak stays below 8 n
    words (6.3 MB), and its first failing triple is the reference's."""
    n, F, p = 24, F3, 3
    rng = random.Random(n)
    c = [[[rng.randrange(p) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    L = AlgebraTable(F, c)
    W = 2 * (n * (p - 1) ** 2 * (2 * p - 1)).bit_length() + 1
    word = n**3 * W // 8
    tracemalloc.start()
    try:
        got = leibniz_failure(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * word, peak
    assert got == ref_leibniz_failure(F, c)


@settings(max_examples=150)
@given(
    data=st.data(),
    F=st.sampled_from((F3, F5, F7, QQ)),
    n=st.integers(0, 6),
    density=st.sampled_from((0.0, 0.25, 1.0)),
    seed=st.integers(0, 2**32),
)
def test_row_action_matches_the_pair_brackets(data, F, n, density, seed):
    """`_row_action` on the integer view, both sides, against n pair
    brackets `_scaled_bracket(L, u, e_j)` and `_scaled_bracket(L, e_j, u)`:
    each product of the table is nonzero with probability `density` (none,
    sparse or dense), and the rows are the zero row and up to three drawn
    ones, residues over GF(p) and ints over QQ."""
    p = F.p
    rng = random.Random(seed)

    def entry():
        return rng.randrange(p) if p else Fraction(rng.randint(-4, 4), rng.randint(1, 4))

    c = [[[entry() if rng.random() < density else 0 for _ in range(n)] for _ in range(n)] for _ in range(n)]
    L = AlgebraTable(F, c)
    values = st.integers(0, p - 1) if p else st.integers(-4, 4)
    rows = [[0] * n] + data.draw(st.lists(st.lists(values, min_size=n, max_size=n), max_size=3))
    es = [[int(i == j) for i in range(n)] for j in range(n)]
    for u in rows:
        assert _row_action(L._products, u, p) == [list(_scaled_bracket(L, u, e)) for e in es]
        assert _row_action(L._products, u, p, left=False) == [list(_scaled_bracket(L, e, u)) for e in es]


@pytest.mark.parametrize("F", GF_CHECKED + (QQ,))
def test_leibniz_failure_on_tables_of_dimension_0_and_1(F):
    assert leibniz_failure(AlgebraTable(F, [])) is None
    for a in (0, 1, 2, F.p - 1 if F.p else Fraction(-7, 3)):
        # [e, [e, e]] = a^2 e against [[e, e], e] + [e, [e, e]] = 2 a^2 e
        assert leibniz_failure(AlgebraTable(F, [[[a]]])) == (None if a == 0 else (0, 0, 0))


def saturated(n, sign):
    """An n*n*n table whose constant at (a, b, t) is sign(a, b, t)."""
    return [[[sign(a, b, t) for t in range(n)] for b in range(n)] for a in range(n)]


def signs_at_the_bound(n):
    """Signs +-1, n >= 4, whose defect at (i, j, k, t) = (0, 1, 2, 3) is
    3 n: for every m, c_12m c_0m3 = 1 and c_01m c_m23 = c_02m c_1m3 = -1."""
    s = {}
    for m in range(n):
        s[0, 1, m] = -1 if m == 1 else 1
        s[m, 2, 3] = -s[0, 1, m]
    for m in range(n):
        s.setdefault((0, 2, m), -1 if m in (2, 3) else 1)
        s[1, m, 3] = -s[0, 2, m]
    for m in range(n):
        s.setdefault((0, m, 3), 1)
        s[1, 2, m] = s[0, m, 3]
    return lambda a, b, t: s.get((a, b, t), 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_leibniz_failure_on_saturated_tables(n):
    """Every constant at its largest magnitude, so that the packed fields
    reach their width bounds.  Over GF(p) every constant is p - 1: each
    field of the packed defect is n (p-1)^2 (2p-1), its bound, and the table
    is Leibniz exactly when p divides n.  Over QQ the constants are
    +-(2^40 + 1), and from n = 4 on one sign pattern puts a defect at
    3 n c^2, its bound."""
    for F in (GF(2),) + GF_CHECKED:
        tables = [saturated(n, lambda a, b, t: F.p - 1)]
        tables.append(saturated(n, lambda a, b, t: 0 if (a, b, t) == (n - 1, n - 1, n - 1) else F.p - 1))
        for c in tables:
            got = leibniz_failure(AlgebraTable(F, c))
            assert got == ref_leibniz_failure(F, c)
        assert (leibniz_failure(AlgebraTable(F, tables[0])) is None) == (n % F.p == 0)
    top = 2**40 + 1
    patterns = [
        lambda a, b, t: 1,
        lambda a, b, t: -1,
        lambda a, b, t: 1 if (a + b + t) % 2 else -1,
        lambda a, b, t: 1 if t == a else -1,
    ]
    if n >= 4:
        patterns.append(signs_at_the_bound(n))
        c = saturated(n, patterns[-1])
        assert sum(
            c[1][2][m] * c[0][m][3] - c[0][1][m] * c[m][2][3] - c[0][2][m] * c[1][m][3]
            for m in range(n)
        ) == 3 * n
    for sign in patterns:
        c = saturated(n, lambda a, b, t: top * sign(a, b, t))
        assert leibniz_failure(AlgebraTable(QQ, c)) == ref_leibniz_failure(QQ, c)


def test_leibniz_failure_when_the_first_defect_fills_its_field():
    """Over QQ a packed field is W bits, W the bit length of 3 n max|c|^2,
    and the first failing field is the one holding the lowest set bit.
    Here n = 4 and every constant is 0 or +-2^20, so W = 44.  The first
    failing triple is (0, 1, 2), and its one nonzero coordinate, t = 3, is
    8 * 2^40 = 2^(W-1): in a field one bit narrower its lowest set bit
    would fall into the field of (0, 1, 3)."""
    signs = {
        (0, 1, 0): -1, (0, 1, 1): -1, (0, 1, 2): 1, (0, 1, 3): -1, (0, 2, 3): 1, (0, 3, 3): 1,
        (1, 1, 3): 1, (1, 2, 0): -1, (1, 2, 1): -1, (1, 2, 2): 1, (1, 2, 3): 1, (1, 3, 3): -1,
        (2, 2, 3): -1, (3, 2, 3): 1,
    }
    top = 2**20
    c = saturated(4, lambda a, b, t: top * signs.get((a, b, t), 0))
    defect = [
        sum(c[1][2][m] * c[0][m][t] - c[0][1][m] * c[m][2][t] - c[0][2][m] * c[1][m][t] for m in range(4))
        for t in range(4)
    ]
    assert defect == [0, 0, 0, 2**43]
    assert leibniz_failure(AlgebraTable(QQ, c)) == ref_leibniz_failure(QQ, c) == (0, 1, 2)


@settings(max_examples=150)
@given(data=st.data(), F=st.sampled_from(FIELDS), n=st.integers(1, 5))
def test_from_vectors_matches_incremental_elimination(data, F, n):
    vectors = data.draw(st.lists(st.lists(raw_scalars(F), min_size=n, max_size=n), max_size=6))
    U = Subspace.from_vectors(F, n, vectors)
    basis, pivots = ref_span(F, vectors)
    assert U.basis.data == basis and list(U.pivots) == pivots
    assert U.basis.cols == n and U.dim == len(basis)
    for row in U.basis.data:
        assert_canonical(F, row)


@settings(max_examples=150)
@given(data=st.data(), drawn=tables())
def test_is_frame_agrees_with_change_of_basis(data, drawn):
    """On a random P (often singular over GF(3)) or a random invertible one,
    against the transported table, the same table with one entry changed,
    and L's own table."""
    F, raw = drawn
    L = AlgebraTable(F, raw)
    n = L.dim
    if data.draw(st.booleans()):
        P = rand_invertible(F, n, random.Random(data.draw(st.integers(0, 2**32))))
    else:
        row = st.lists(raw_scalars(F), min_size=n, max_size=n)
        P = Matrix(F, data.draw(st.lists(row, min_size=n, max_size=n)))
    try:
        moved = change_of_basis(L, P)
    except DimensionMismatchError as exc:
        with pytest.raises(DimensionMismatchError) as caught:
            _is_frame(L, P, L)
        assert str(caught.value) == str(exc)
        return
    assert _is_frame(L, P, moved)
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    c = [[list(v) for v in row] for row in moved.c]
    c[i][j][k] = F.add(c[i][j][k], F.of(data.draw(st.integers(1, 5 if F.p is None else F.p - 1))))
    changed = AlgebraTable(F, c)
    assert not _is_frame(L, P, changed)
    assert _is_frame(L, P, L) == (moved.c == L.c)


@pytest.mark.parametrize("F", (F3, F5, F7, QQ), ids=repr)
def test_is_frame_brackets_only_the_rows_outside_the_center(F, monkeypatch):
    """X (+) F^k, X = d(rot), c(rot) or rotext and k = 1..3, under a basis
    change; P is three rows outside C(L), then C(L)'s basis rows.  Against
    change_of_basis(L, P), `_is_frame` holds and brackets the 9 pairs of
    the rows outside C(L) alone; a model with any one entry changed at a
    pair that has a row of C(L) is rejected."""
    scaled, calls = algebra._scaled_bracket, []

    def counting(L, u, v):
        calls.append((u, v))
        return scaled(L, u, v)

    monkeypatch.setattr(algebra, "_scaled_bracket", counting)
    rng = random.Random(F.p or 0)
    rot = rotation_2x2(F)
    for X in (make_d(rot, F), make_c(rot, F), heisenberg_rotation_extension(F)):
        for k in (1, 2, 3):
            L = disguise(direct_sum(X, abelian_algebra(k, F)), rng)
            n = L.dim
            C = center(L)
            outside = C._extension(Matrix.identity(F, n).data)
            assert len(outside) == 3, (X, k)
            P = Matrix(F, outside + list(C.basis.data))
            model = change_of_basis(L, P)
            calls.clear()
            assert _is_frame(L, P, model)
            assert len(calls) == 9, (X, k)
            for i, j in itertools.product(range(n), repeat=2):
                if i < 3 and j < 3:
                    continue
                for t in range(n):
                    vec = list(model.c[i][j])
                    vec[t] = F.add(vec[t], F.one)
                    changed = [[list(v) for v in row] for row in model.c]
                    changed[i][j] = vec
                    assert not _is_frame(L, P, AlgebraTable(F, changed)), (X, k, i, j, t)
