"""Contract tests for the scan kernel: counts, canonical order, budget and
collect semantics, and every predicate mode against brute force."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras._kernel import MODE_ABELIAN, MODE_IDEAL, backend, scan_subspaces
from leibniz_algebras._scan_py import _canonical_index, canonical_subspaces
from leibniz_algebras.algebra import (
    AlgebraTable,
    center,
    change_of_basis,
    direct_sum,
    is_abelian_subspace,
    is_ideal,
    mult_operator,
    quotient,
    subalgebra_table,
)
from leibniz_algebras.catalog import standard_fixtures
from leibniz_algebras.classify import classify, verify_main_theorem
from leibniz_algebras.families import abelian_algebra, oscillator
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import _trace_kernel, nilradical
from leibniz_algebras.linalg import Matrix, Subspace, enumerate_subspaces, gaussian_binomial
from leibniz_algebras.search import all_abelian_ideals, all_abelian_subalgebras, alpha, table_flat
from leibniz_algebras.serialize import parse_algebra, serialize_algebra

from conftest import F2, F3, F5, F7, central_algebras, family_algebras, left_only_actions, rand_invertible


@pytest.fixture(params=[backend()])
def scan(request):
    """The scan entry point; test ids carry the backend name it reports."""
    return scan_subspaces


def test_backend_reports_a_known_name():
    assert backend() == "python"


@pytest.mark.parametrize("F", [F3, F5, F7], ids=["GF3", "GF5", "GF7"])
def test_the_kernel_reads_the_integer_view_as_it_stands(F):
    # whichever builder made the table, the kernel is handed the nonzero
    # products the table was built with: nothing is expanded, copied or
    # cached for it
    rng = random.Random(F.p)
    for L in standard_fixtures(F, max_dim=4):
        tables = [
            AlgebraTable(F, L.c),
            parse_algebra(serialize_algebra(L)),
            change_of_basis(L, rand_invertible(F, L.dim, rng)),
            quotient(L, center(L))[0],
            subalgebra_table(L, nilradical(L)),
            direct_sum(L, abelian_algebra(1, F)),
        ]
        for T in tables:
            assert table_flat(T) is T._products, L.name
            classify(T)
            verify_main_theorem(T)
            assert "table_flat" not in T._cache, L.name
    with pytest.raises(ValueError, match=r"^subspace scan requires a prime field \("):
        table_flat(oscillator(QQ))


def test_scan_counts_match_gaussian_binomials(scan):
    table = table_flat(abelian_algebra(4, F3))
    for d in range(5):
        scanned, truncated, matches = scan(table, 4, 3, d, MODE_ABELIAN, -1, -1)
        assert not truncated
        assert scanned == gaussian_binomial(4, d, 3)
        assert len(matches) == scanned  # everything is abelian in the zero algebra


def test_strata_outside_0_to_n_are_empty(scan):
    # no subspace has a negative dimension or one above n: every entry point
    # answers with nothing, as it does above n, instead of raising
    L = standard_fixtures(F3)[0]
    n, table = L.dim, table_flat(L)
    for d in (-2, -1, n + 1):
        assert list(canonical_subspaces(n, 3, d)) == []
        assert list(enumerate_subspaces(n, d, F3)) == []
        for mode in (MODE_ABELIAN, MODE_ABELIAN | MODE_IDEAL):
            assert scan(table, n, 3, d, mode, -1, -1) == (0, False, [])
        assert all_abelian_ideals(L, d) == []
        assert all_abelian_subalgebras(L, d, budget=0) == []


def test_scan_enumeration_order_matches_python_enumeration(scan):
    table = table_flat(abelian_algebra(4, F3))
    _, _, matches = scan(table, 4, 3, 2, MODE_ABELIAN, -1, -1)
    listed = [(U.pivots, U._rows) for U in enumerate_subspaces(4, 2, F3)]
    assert matches == listed


def _canonical_key(match, n):
    """(pivots, free entries row-major) of a match (pivots, rows), asserting
    that the rows are an RREF basis with those pivots: leading ones, zero
    columns above and below each pivot."""
    piv, rows = match
    d = len(rows)
    assert piv == tuple(next(c for c, x in enumerate(row) if x) for row in rows)
    assert list(piv) == sorted(set(piv))
    for r, row in enumerate(rows):
        assert row[piv[r]] == 1
        assert all(rows[s][piv[r]] == 0 for s in range(d) if s != r)
    free = tuple(
        rows[r][c] for r in range(d) for c in range(piv[r] + 1, n) if c not in piv
    )
    return piv, free


@pytest.mark.parametrize("F", [F3, F5], ids=["GF3", "GF5"])
def test_scan_matches_brute_force(scan, F):
    p = F.p
    max_dim = 5 if p == 3 else 4
    for L in standard_fixtures(F, max_dim=max_dim):
        n = L.dim
        table = table_flat(L)
        for d in range(n + 1):
            scanned, truncated, every = scan(table, n, p, d, 0, -1, -1)
            assert not truncated and scanned == len(every)
            assert len(every) == len(set(every)) == gaussian_binomial(n, d, p)
            assert every == sorted(every, key=lambda m: _canonical_key(m, n))

            abelian, ideal = set(), set()
            for m in every:
                U = Subspace.from_vectors(F, n, m[1])
                if is_abelian_subspace(L, U):
                    abelian.add(m)
                if is_ideal(L, U):
                    ideal.add(m)
            for mode, want in (
                (MODE_ABELIAN, abelian),
                (MODE_IDEAL, ideal),
                (MODE_ABELIAN | MODE_IDEAL, abelian & ideal),
            ):
                got = scan(table, n, p, d, mode, -1, -1)
                assert got == (scanned, False, [m for m in every if m in want]), (L.name, d, mode)


def test_budget_and_collect_semantics(scan):
    table = table_flat(oscillator(F3))
    scanned, truncated, matches = scan(table, 4, 3, 2, MODE_ABELIAN, 10, -1)
    assert truncated and scanned == 10
    scanned, truncated, matches = scan(table, 4, 3, 2, MODE_ABELIAN, -1, 1)
    assert not truncated and len(matches) == 1
    # the first match is the canonical witness: the first of the full list
    assert matches[0] == scan(table, 4, 3, 2, MODE_ABELIAN, -1, -1)[2][0]


def test_scan_ideal_mode_finds_known_ideals(scan):
    table = table_flat(oscillator(F3))
    _, _, matches = scan(table, 4, 3, 3, MODE_IDEAL, -1, -1)
    heisenberg_part = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert ((1, 2, 3), heisenberg_part) in matches


def _reference_walk(L, d):
    """((pivots, rows), abelian?, ideal?) for every d-dimensional subspace in
    canonical order, from the unpruned walk and the algebra-level predicates."""
    return [
        ((U.pivots, U._rows), is_abelian_subspace(L, U), is_ideal(L, U))
        for U in enumerate_subspaces(L.dim, d, L.field)
    ]


def _reference_scan(walk, mode, limit, collect):
    """The kernel contract, one subspace at a time."""
    scanned, matches = 0, []
    for match, abelian, ideal in walk:
        if 0 <= limit <= scanned:
            return scanned, True, matches
        scanned += 1
        if (mode & MODE_ABELIAN and not abelian) or (mode & MODE_IDEAL and not ideal):
            continue
        matches.append(match)
        if 0 <= collect <= len(matches):
            return scanned, False, matches
    return scanned, False, matches


@st.composite
def _scan_cases(draw, every_stratum=False):
    """A `family_algebras` draw over GF(3) or GF(5), with a stratum, a limit
    and a collect cap.  The stratum is one of 2..n-1, or any of 0..n with
    `every_stratum`."""
    L = draw(family_algebras())
    n = L.dim
    # strata with at least two rows, so that rows are checked against fixed
    # ones, and at least one row less than n; test_scan_matches_brute_force
    # covers every stratum of the fixtures
    d = draw(st.integers(0, n) if every_stratum else st.integers(2, n - 1))
    limit = draw(st.integers(0, gaussian_binomial(n, d, L.field.p) + 1))
    collect = draw(st.sampled_from([-1, 0, 1, 2, 3]))
    return L, d, limit, collect


@settings(max_examples=100)
@given(_scan_cases())
def test_pruned_scan_matches_reference_on_generated_algebras(case):
    L, d, limit, collect = case
    n, p = L.dim, L.field.p
    table = table_flat(L)
    walk = _reference_walk(L, d)
    for mode in (0, MODE_ABELIAN, MODE_IDEAL, MODE_ABELIAN | MODE_IDEAL):
        for lim, col in ((-1, -1), (limit, -1), (-1, collect), (limit, collect)):
            got = scan_subspaces(table, n, p, d, mode, lim, col)
            assert got == _reference_scan(walk, mode, lim, col), (mode, lim, col)


def _definition_functionals(L):
    """x -> Tr(M_x W) for M in {L, R} and W in {1, L_e_j, R_e_j}, from the
    multiplication operators."""
    n = L.dim
    basis = [L.basis_vector(i) for i in range(n)]
    ops = {side: [mult_operator(L, e, side) for e in basis] for side in ("left", "right")}
    Ws = [Matrix.identity(L.field, n)] + ops["left"] + ops["right"]
    return [[(M @ W).trace() for M in ops[side]] for side in ("left", "right") for W in Ws]


@pytest.mark.parametrize("F", [F3, F5], ids=["GF3", "GF5"])
def test_every_abelian_ideal_lies_in_the_trace_kernel(F):
    p = F.p
    proper = 0
    for L in standard_fixtures(F, max_dim=5 if p == 3 else 4):
        n = L.dim
        funcs = _trace_kernel(L).complement_functionals().data
        assert Subspace.from_vectors(F, n, funcs) == Subspace.from_vectors(
            F, n, _definition_functionals(L)
        ), L.name
        proper += bool(funcs)
        for d in range(1, n + 1):
            for U in enumerate_subspaces(n, d, F):
                if is_abelian_subspace(L, U) and is_ideal(L, U):
                    for u in U.basis.data:
                        assert all(sum(a * b for a, b in zip(f, u)) % p == 0 for f in funcs), (
                            L.name,
                            U,
                        )
    assert proper  # the cut is not vacuous on every fixture


@settings(max_examples=100)
@given(_scan_cases(every_stratum=True))
def test_trace_cut_leaves_abelian_ideal_scans_unchanged(case):
    L, d, limit, collect = case
    n, p = L.dim, L.field.p
    table = table_flat(L)
    funcs = _trace_kernel(L).complement_functionals().data
    mode = MODE_ABELIAN | MODE_IDEAL
    for lim, col in ((-1, -1), (limit, -1), (-1, collect), (limit, collect)):
        got = scan_subspaces(table, n, p, d, mode, lim, col, funcs)
        assert got == scan_subspaces(table, n, p, d, mode, lim, col), (lim, col)


@st.composite
def _alpha_cases(draw):
    """A table with, often, a nonzero center, and its alpha, with a limit
    and a collect cap for a scan of stratum alpha."""
    L = draw(st.one_of(central_algebras(), left_only_actions(), family_algebras()))
    d = alpha(L).alpha
    limit = draw(st.integers(0, gaussian_binomial(L.dim, d, L.field.p) + 1))
    collect = draw(st.sampled_from([-1, 0, 1, 2, 3]))
    return L, d, limit, collect


@settings(max_examples=100)
@given(_alpha_cases())
def test_center_cut_leaves_the_alpha_stratum_unchanged(case):
    # every abelian subalgebra of dimension alpha contains C(L), as A + C
    # is abelian: C's rows cut nothing that a scan of stratum alpha returns,
    # alone or, on abelian-ideal scans, with the trace cut
    L, d, limit, collect = case
    n, p = L.dim, L.field.p
    table, C = table_flat(L), center(L)._rows
    funcs = _trace_kernel(L).complement_functionals().data
    for mode, fs in ((MODE_ABELIAN, ()), (MODE_ABELIAN | MODE_IDEAL, funcs)):
        for lim, col in ((-1, -1), (limit, -1), (-1, collect), (limit, collect)):
            got = scan_subspaces(table, n, p, d, mode, lim, col, fs, C)
            assert got == scan_subspaces(table, n, p, d, mode, lim, col), (mode, lim, col)


@pytest.mark.parametrize("F", [F2, F3], ids=["GF2", "GF3"])
def test_center_rows_cut_to_the_subspaces_that_contain_them(F):
    # in the zero algebra every subspace is central and abelian, so a scan
    # given the rows of C keeps exactly the subspaces that contain C, at
    # the indices of the uncut walk: the pivot-set drop, the forced entries
    # and the computed rows, checked without the lemma that makes the cut
    # exact at alpha
    p = F.p
    for n in range(1, 6 if p == 2 else 5):
        table = table_flat(abelian_algebra(n, F))
        for c_dim in range(1, n + 1):
            for C in enumerate_subspaces(n, c_dim, F):
                for d in range(n + 1):
                    want = [
                        (piv, tuple(map(tuple, rows)))
                        for _, piv, rows in canonical_subspaces(n, p, d)
                        if Subspace(F, n, rows, piv).contains(C)
                    ]
                    got = scan_subspaces(table, n, p, d, MODE_ABELIAN, -1, -1, (), C._rows)
                    assert got == (gaussian_binomial(n, d, p), False, want), (n, C, d)


@pytest.mark.parametrize("p", [2, 3])
def test_canonical_index_is_the_walks_index(p):
    for n in range(6):
        for d in range(n + 1):
            for index, piv, rows in canonical_subspaces(n, p, d):
                assert _canonical_index(n, p, piv, rows) == index, (n, d, piv, rows)
