import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras.errors import ConsistencyError, DimensionMismatchError, FieldMismatchError
from leibniz_algebras.fields import GF, QQ
from leibniz_algebras.linalg import (
    Matrix,
    QuadraticPoly,
    Subspace,
    _chain,
    _echelon,
    _integer_rows,
    char_poly_2x2,
    enumerate_subspaces,
    gaussian_binomial,
    is_irreducible_quadratic,
    rref,
    subspace_intersect,
    subspace_sum,
)

from conftest import F2, F3, F5, F7, condition_sets, rand_matrix, reference_echelon

SRC = Path(__file__).resolve().parent.parent / "src"


# -- rref -------------------------------------------------------------------


def test_rref_identity_and_zero():
    I2 = Matrix.identity(QQ, 2)
    R, rank = rref(I2)
    assert R == I2 and rank == 2
    Z = Matrix.zeros(QQ, 3, 3)
    R, rank = rref(Z)
    assert R == Z and rank == 0


def test_rref_gf3_hand_elimination():
    # row2 - 2*row1 = (0, 1 - 4) = (0, 0) mod 3
    M = Matrix(F3, [[1, 2], [2, 1]])
    R, rank = rref(M)
    assert rank == 1
    assert R.data == ((1, 2), (0, 0))


def test_rref_idempotent_and_shuffle_stable(rng):
    for F in (QQ, F2, F3):
        for _ in range(60):
            M = rand_matrix(F, rng.randint(1, 5), rng.randint(1, 5), rng)
            R, rank = rref(M)
            assert rref(R) == (R, rank)
            rows = list(M.data)
            rng.shuffle(rows)
            R2, rank2 = rref(Matrix(F, rows))
            assert rank2 == rank and R2 == R


def test_solve_and_inverse(rng):
    for F in (QQ, F3):
        for _ in range(40):
            n = rng.randint(1, 4)
            from conftest import rand_invertible

            A = rand_invertible(F, n, rng)
            x = tuple(rand_matrix(F, 1, n, rng).data[0])
            b = A.apply_col(x)
            assert A.apply_row(x) == A.transpose().apply_col(x)
            got = A.solve_col(b)
            assert got == x
            assert A @ A.inverse() == Matrix.identity(F, n)


def test_zeros_keeps_its_width_with_no_rows():
    for F in (QQ, F3):
        Z = Matrix.zeros(F, 0, 3)
        assert (Z.rows, Z.cols) == (0, 3)
        assert Z.transpose() == Matrix.zeros(F, 3, 0)
        assert Z.apply_row(()) == (F.zero,) * 3
        assert Matrix.zeros(F, 2, 3).cols == 3


NEGATIVE_POWER = """
from leibniz_algebras.fields import GF
from leibniz_algebras.linalg import Matrix
try:
    Matrix.identity(GF(3), 2).power(-1)
except ValueError as e:
    print("ValueError:", e)
"""


def test_a_negative_power_raises():
    # in a child process with a time limit, so that a power loop that never
    # ends fails this test rather than stalling the suite
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", NEGATIVE_POWER], capture_output=True, text=True, timeout=20, env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("ValueError: negative matrix power -1")


# -- the one elimination step --------------------------------------------------


@pytest.mark.parametrize("shape", ["tall", "square", "short"])
@settings(max_examples=100)
@given(data=st.data())
def test_echelon_matches_the_column_sweep(shape, data):
    # over QQ, GF(2), GF(3) and GF(5); zero rows, repeated rows, no rows
    # and rows of no entries among the inputs
    F, n, rows = data.draw(condition_sets(shape))
    got, want = _echelon(F, rows, n), reference_echelon(F, rows, n)
    assert [list(r) for r in got[0]] == [list(r) for r in want[0]]
    assert got[1] == want[1]


def reference_intersect(U, V):
    """`subspace_intersect` by its two eliminations before it read the
    intersection off its block: the [0 | x] rows of the Zassenhaus
    elimination of [U U; V 0], eliminated again."""
    F, n = U.field, U.ambient_dim
    block = [r + r for r in U._rows] + [r + (0,) * n for r in V._rows]
    rows, _ = reference_echelon(F, block, 2 * n)
    return Subspace(F, n, *reference_echelon(F, [row[n:] for row in rows if not any(row[:n])], n))


@settings(max_examples=150)
@given(data=st.data(), shape=st.sampled_from(["tall", "square", "short"]))
def test_intersection_matches_the_two_elimination_intersection(data, shape):
    # U and V are spanned by two parts of one drawn set of rows, which are
    # combinations of common generators: their intersections are often
    # neither 0 nor one of them
    F, n, rows = data.draw(condition_sets(shape))
    cut = data.draw(st.integers(0, len(rows)))
    U, V = Subspace._span(F, n, rows[:cut]), Subspace._span(F, n, rows[cut:])
    for got, want in ((subspace_intersect(U, V), reference_intersect(U, V)),
                      (subspace_intersect(V, U), reference_intersect(V, U))):
        assert got == want and got.pivots == want.pivots


# -- subspaces ----------------------------------------------------------------


def test_subspace_canonical_equality():
    U1 = Subspace.from_vectors(QQ, 3, [[1, 1, 0], [0, 1, 1]])
    U2 = Subspace.from_vectors(QQ, 3, [[1, 0, -1], [2, 3, 1]])
    assert U1 == U2
    assert hash(U1) == hash(U2)


def test_sum_intersect_examples():
    U = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
    V = Subspace.from_vectors(QQ, 3, [[0, 1, 0]])
    assert subspace_sum(U, V).dim == 2
    assert subspace_sum(U, U) == U
    assert subspace_sum(U, Subspace.zero(QQ, 3)) == U
    assert subspace_intersect(U, U) == U
    assert subspace_intersect(U, V).is_zero()
    xy = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    yz = Subspace.from_vectors(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    assert subspace_intersect(xy, yz) == Subspace.from_vectors(QQ, 3, [[0, 1, 0]])


def test_ambient_mismatch_rejected():
    U = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
    V = Subspace.from_vectors(QQ, 2, [[1, 0]])
    with pytest.raises(DimensionMismatchError):
        subspace_sum(U, V)


def test_contains_rejects_another_field_or_ambient_dimension():
    # rows of another field, or of another length, are never compared
    with pytest.raises(FieldMismatchError):
        Subspace.full(F3, 2).contains(Subspace.full(QQ, 2))
    with pytest.raises(FieldMismatchError):
        Subspace.full(F3, 2).contains(Subspace.zero(GF(5), 2))
    with pytest.raises(DimensionMismatchError, match="ambient dimensions differ"):
        Subspace.full(QQ, 3).contains(Subspace.zero(QQ, 2))


def test_grassmann_identity_random(rng):
    for F in (F2, F3):
        for _ in range(150):
            n = rng.randint(1, 6)
            U = Subspace.from_vectors(
                F, n,
                [[rng.randrange(F.p) for _ in range(n)] for _ in range(rng.randint(0, n))],
            )
            V = Subspace.from_vectors(
                F, n,
                [[rng.randrange(F.p) for _ in range(n)] for _ in range(rng.randint(0, n))],
            )
            assert U.dim + V.dim == subspace_sum(U, V).dim + subspace_intersect(U, V).dim


def test_membership_and_functionals(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        U = Subspace.from_vectors(
            F3, n,
            [[rng.randrange(3) for _ in range(n)] for _ in range(rng.randint(0, n))],
        )
        funcs = U.complement_functionals()
        for v in itertools.product(range(3), repeat=n):
            inside = U.contains_vector(v)
            killed = all(x == 0 for x in funcs.apply_col(v)) if funcs.rows else True
            assert inside == killed


def test_kernel_basis_is_the_rref_of_the_kernel(rng):
    # the one-elimination basis equals the RREF of the kernel, found as the
    # span of the vectors solving each free column; over GF(3) the kernel
    # is also every v with M v = 0
    for F in (F3, GF(5), QQ):
        for _ in range(300):
            rows, n = rng.randint(1, 5), rng.randint(1, 5)
            M = rand_matrix(F, rows, n, rng)
            if rng.random() < 0.5:  # sparse, as the structure-constant conditions are
                M = Matrix(F, [[x if rng.random() < 0.3 else 0 for x in r] for r in M.data])
            ker = M.kernel_basis()
            span = Subspace.from_vectors(F, n, ker.data)
            assert ker.data == span.basis.data and ker.cols == n
            assert all(x == 0 for v in ker.data for x in M.apply_col(v))
            assert span.dim == n - M.rank()
            if F is F3:
                want = [v for v in itertools.product(range(3), repeat=n) if not any(M.apply_col(v))]
                assert len(want) == 3 ** span.dim


def test_extend_to_full_basis():
    U = Subspace.from_vectors(QQ, 4, [[0, 1, 0, 0], [0, 0, 0, 1]])
    P = U.extend_to_full_basis()
    assert P.rows == 4 and P.is_invertible()
    assert P.data[0] == U.basis.data[0] and P.data[1] == U.basis.data[1]
    # greedy completion takes e0 then e2, in index order
    assert P.data[2] == (1, 0, 0, 0) and P.data[3] == (0, 0, 1, 0)


# -- quadratics -----------------------------------------------------------------


def test_char_poly_examples():
    q = char_poly_2x2(Matrix(QQ, [[0, 1], [-1, 0]]))
    assert (q.c1, q.c0) == (0, 1)
    q = char_poly_2x2(Matrix.identity(QQ, 2))
    assert (q.c1, q.c0) == (-2, 1)
    q = char_poly_2x2(Matrix(F3, [[0, 1], [2, 0]]))
    assert (q.c1, q.c0) == (0, 1)  # det = -2 = 1 mod 3
    with pytest.raises(DimensionMismatchError):
        char_poly_2x2(Matrix.identity(QQ, 3))


def test_irreducibility_examples():
    assert is_irreducible_quadratic(QuadraticPoly(0, 1), F3)  # t^2 + 1
    assert not is_irreducible_quadratic(QuadraticPoly(QQ.of(0), QQ.of(-1)), QQ)
    assert is_irreducible_quadratic(QuadraticPoly(QQ.of(0), QQ.of(-2)), QQ)
    assert is_irreducible_quadratic(QuadraticPoly(QQ.of(0), QQ.of(2)), QQ)
    assert not is_irreducible_quadratic(
        QuadraticPoly(QQ.of(0), QQ.of("-4/9")), QQ
    )  # (t-2/3)(t+2/3)


def test_irreducibility_matches_exhaustive_factorization():
    for p in (2, 3, 5):
        F = GF(p)
        for c1 in range(p):
            for c0 in range(p):
                q = QuadraticPoly(c1, c0)
                has_factorization = any(
                    (r + s) % p == (-c1) % p and (r * s) % p == c0
                    for r in range(p)
                    for s in range(p)
                )
                assert is_irreducible_quadratic(q, F) == (not has_factorization)


# -- enumeration -------------------------------------------------------------------


def test_enumerate_counts_match_gaussian_binomial():
    for p in (2, 3):
        F = GF(p)
        for n in range(6):
            for d in range(n + 1):
                count = sum(1 for _ in enumerate_subspaces(n, d, F))
                assert count == gaussian_binomial(n, d, p)


def test_enumerate_examples():
    lines = list(enumerate_subspaces(2, 1, F2))
    assert len(lines) == 3
    assert gaussian_binomial(4, 2, 3) == 130
    assert len(list(enumerate_subspaces(4, 2, F3))) == 130
    zero_only = list(enumerate_subspaces(5, 0, F3))
    assert zero_only == [Subspace.zero(F3, 5)]


def test_enumerate_unique_and_canonical():
    seen = set()
    for U in enumerate_subspaces(4, 2, F3):
        assert U not in seen
        seen.add(U)
        R, rank = rref(U.basis)
        assert R == U.basis and rank == 2


def test_enumerate_rejects_rationals():
    with pytest.raises(ValueError):
        list(enumerate_subspaces(3, 1, QQ))


# -- one representation on both fields -----------------------------------------


def field_rows(F, n, size):
    """Rows in F's canonical form or, over QQ, of ints and Fractions; zero
    rows among them."""
    if F.p is None:
        entry = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
    else:
        entry = st.integers(0, F.p - 1)
    row = st.one_of(st.lists(entry, min_size=n, max_size=n), st.just([0] * n))
    return st.lists(row, max_size=size)


def ref_rank(F, rows, n):
    """Rank by Gauss-Jordan elimination with Fraction pivots over QQ, with
    residues mod p over GF(p)."""
    p = F.p
    rows = [[Fraction(x) if p is None else x % p for x in r] for r in rows]
    rank = 0
    for c in range(n):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        top = rows[rank]
        inv = 1 / top[c] if p is None else pow(top[c], -1, p)
        for i, row in enumerate(rows):
            if i != rank and row[c]:
                f = row[c] * inv
                rows[i] = [x - f * y if p is None else (x - f * y) % p for x, y in zip(row, top)]
        rank += 1
    return rank


@settings(max_examples=200)
@given(data=st.data(), F=st.sampled_from([F3, F5, F7, QQ]), n=st.integers(1, 5))
def test_canonical_rows_are_the_one_representation(data, F, n):
    rows = data.draw(field_rows(F, n, 5))
    if rows:  # repeated rows
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=2))
    # the private routines take rows of ints over QQ
    U = Subspace(F, n, *_echelon(F, _integer_rows(F, rows), n))
    V = Subspace.from_vectors(F, n, rows)
    assert U == V and hash(U) == hash(V)
    d = ref_rank(F, rows, n)
    assert U.dim == d
    # vectors of the span, and others
    coefs = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
    combo = [sum(a * r[j] for a, r in zip(coefs, rows)) for j in range(n)]
    combo = [F.of(x) for x in combo]
    for w in [combo, *rows, *data.draw(field_rows(F, n, 4))]:
        inside = ref_rank(F, rows + [w], n) == d
        iw = _integer_rows(F, [w])[0]
        assert (not any(U._reduce(iw))) == inside == U._contains(iw) == U.contains_vector(w), w
    # the annihilator: it vanishes on U and has dimension n - d
    funcs = U.complement_functionals()
    assert funcs.field == F and funcs.rows == n - d and funcs.cols == n
    assert ref_rank(F, funcs.data, n) == n - d
    for f in funcs.data:
        assert all(F.of(sum(a * b for a, b in zip(f, u))) == F.zero for u in U.basis.data)


@pytest.mark.parametrize("F", [F2, F3], ids=["GF2", "GF3"])
def test_enumerated_subspaces_keep_their_rows(F):
    # the walk reuses its row lists; each subspace it yields keeps a copy
    n = 4
    for d in range(n + 1):
        one_at_a_time = [Subspace.from_vectors(F, n, U._rows) for U in enumerate_subspaces(n, d, F)]
        assert list(enumerate_subspaces(n, d, F)) == one_at_a_time
        assert len(set(one_at_a_time)) == gaussian_binomial(n, d, F.p)


def test_a_subspace_builds_its_basis_on_first_read(monkeypatch):
    built = []
    canonical = Matrix._canonical.__func__

    def counting(cls, *args):
        built.append(args)
        return canonical(cls, *args)

    monkeypatch.setattr(Matrix, "_canonical", classmethod(counting))
    rows = [[1, 2, 3, 4], [2, 4, 1, 3], [0, 1, 0, 1]]
    for F in (F5, QQ):
        spaces = [Subspace._span(F, 4, rows), Subspace._kernel(F, 4, rows)]
        if F.p is not None:
            spaces += enumerate_subspaces(4, 2, F)
        assert built == []
        for U in spaces:
            basis = U.basis
            assert U.basis is basis and len(built) == 1
            assert basis.rows == U.dim and basis.cols == 4
            assert Subspace.from_vectors(F, 4, basis.data) == U
            built.clear()


def test_a_chain_whose_terms_never_repeat_raises():
    # a step that returns the same span with its rows doubled never yields
    # two equal terms; `_chain` stops after ambient_dim + 1 terms, and the
    # count of calls keeps a loop that never ends from stalling this test
    calls = []

    def doubled(U):
        calls.append(U)
        if len(calls) > 50:
            raise AssertionError("_chain did not stop")
        return Subspace(U.field, U.ambient_dim, [[2 * x for x in row] for row in U._rows], U.pivots)

    start = Subspace.from_vectors(QQ, 3, [[1, 2, 0]])
    with pytest.raises(ConsistencyError, match=r"F\^3 grew past 4 terms"):
        _chain(start, doubled)
    assert len(calls) == start.ambient_dim + 1
