"""Contract tests for the scan kernel: counts, canonical order, budget and
collect semantics, and every predicate mode against brute force."""

import pytest

from leibniz_algebras._kernel import MODE_ABELIAN, MODE_IDEAL, backend, scan_subspaces
from leibniz_algebras.algebra import is_abelian_subspace, is_ideal
from leibniz_algebras.catalog import standard_fixtures
from leibniz_algebras.linalg import Subspace, enumerate_subspaces, gaussian_binomial
from leibniz_algebras.search import table_flat

from conftest import F3, F5


@pytest.fixture(params=[backend()])
def scan(request):
    """The scan entry point; test ids carry the backend name it reports."""
    return scan_subspaces


def test_backend_reports_a_known_name():
    assert backend() == "python"


def test_scan_counts_match_gaussian_binomials(scan):
    from leibniz_algebras.families import abelian_algebra

    flat = table_flat(abelian_algebra(4, F3))
    for d in range(5):
        scanned, truncated, matches = scan(flat, 4, 3, d, MODE_ABELIAN, -1, -1)
        assert not truncated
        assert scanned == gaussian_binomial(4, d, 3)
        assert len(matches) == scanned  # everything is abelian in the zero algebra


def test_scan_enumeration_order_matches_python_enumeration(scan):
    from leibniz_algebras.families import abelian_algebra

    flat = table_flat(abelian_algebra(4, F3))
    _, _, matches = scan(flat, 4, 3, 2, MODE_ABELIAN, -1, -1)
    listed = [
        tuple(x for row in U.basis.data for x in row)
        for U in enumerate_subspaces(4, 2, F3)
    ]
    assert matches == listed


def _canonical_key(flat, n, d):
    """(pivots, free entries row-major) of a flattened RREF basis, asserting
    that it is one: leading ones, zero columns above and below each pivot."""
    rows = [flat[r * n : (r + 1) * n] for r in range(d)]
    piv = tuple(next(c for c, x in enumerate(row) if x) for row in rows)
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
        flat = table_flat(L)
        for d in range(n + 1):
            scanned, truncated, every = scan(flat, n, p, d, 0, -1, -1)
            assert not truncated and scanned == len(every)
            assert len(every) == len(set(every)) == gaussian_binomial(n, d, p)
            assert every == sorted(every, key=lambda m: _canonical_key(m, n, d))

            abelian, ideal = set(), set()
            for m in every:
                U = Subspace.from_vectors(F, n, [m[r * n : (r + 1) * n] for r in range(d)])
                if is_abelian_subspace(L, U):
                    abelian.add(m)
                if is_ideal(L, U):
                    ideal.add(m)
            for mode, want in (
                (MODE_ABELIAN, abelian),
                (MODE_IDEAL, ideal),
                (MODE_ABELIAN | MODE_IDEAL, abelian & ideal),
            ):
                got = scan(flat, n, p, d, mode, -1, -1)
                assert got == (scanned, False, [m for m in every if m in want]), (L.name, d, mode)


def test_budget_and_collect_semantics(scan):
    from leibniz_algebras.families import oscillator

    flat = table_flat(oscillator(F3))
    scanned, truncated, matches = scan(flat, 4, 3, 2, MODE_ABELIAN, 10, -1)
    assert truncated and scanned == 10
    scanned, truncated, matches = scan(flat, 4, 3, 2, MODE_ABELIAN, -1, 1)
    assert not truncated and len(matches) == 1
    # the first match is the canonical witness: the first of the full list
    assert matches[0] == scan(flat, 4, 3, 2, MODE_ABELIAN, -1, -1)[2][0]


def test_scan_ideal_mode_finds_known_ideals(scan):
    from leibniz_algebras.families import oscillator

    flat = table_flat(oscillator(F3))
    _, _, matches = scan(flat, 4, 3, 3, MODE_IDEAL, -1, -1)
    assert (0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1) in matches  # the heisenberg part
