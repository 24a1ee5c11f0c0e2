import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from leibniz_algebras import _scan_py, search
from leibniz_algebras._kernel import MODE_ABELIAN, MODE_IDEAL
from leibniz_algebras.algebra import (
    AlgebraTable,
    center,
    change_of_basis,
    direct_sum,
    is_abelian_subspace,
    is_ideal,
    is_leibniz,
    is_subalgebra,
    product_space,
)
from leibniz_algebras.catalog import (
    heisenberg_rotation_extension,
    nonideal_codim2_example,
    rotation_2x2,
    standard_fixtures,
)
from leibniz_algebras.classify import classify, solvability_from_codim2_ideal, verify_main_theorem
from leibniz_algebras.errors import BudgetExceededError, FieldMismatchError
from leibniz_algebras.families import (
    abelian_algebra,
    heisenberg,
    make_a,
    make_c,
    make_d,
    oscillator,
    raw_pair_table,
    span_equivalent_iso,
)
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import _trace_kernel
from leibniz_algebras.linalg import (
    Matrix,
    Subspace,
    _clear,
    canonical_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
    subspace_intersect,
    subspace_sum,
)
from leibniz_algebras.search import (
    DEFAULT_SCAN_BUDGET,
    IsoResult,
    RANK_BOUND_GATE,
    _abelian_hyperplanes,
    _first_in_strata,
    _max_form_rank,
    _request,
    _scan_dim,
    all_abelian_ideals,
    all_abelian_subalgebras,
    alpha,
    alpha_beta,
    beta,
    invariant_profile,
    is_maximal_subalgebra,
    iso_search,
    table_flat,
)

from conftest import (
    F2,
    F3,
    F5,
    F7,
    central_algebras,
    cycle_actions,
    family_algebras,
    heisenberg_sums,
    identity_actions,
    left_only_actions,
    one_budget_algebras,
    rand_invertible,
    rand_matrix,
    scanned_by,
)

ROT3 = Matrix(F3, [[0, 1], [2, 0]])


def span(F, n, *vecs):
    return Subspace.from_vectors(F, n, vecs)


# -- alpha / beta ---------------------------------------------------------------


def test_alpha_abelian():
    res = alpha(abelian_algebra(3, F3))
    assert res.alpha == 3 and res.exhaustive
    assert res.alpha_witness.dim == 3


def test_alpha_beta_oscillator():
    O = oscillator(F3)
    res = alpha_beta(O)
    assert res.alpha == 2 and res.beta == 1
    assert is_abelian_subspace(O, res.alpha_witness)
    assert is_subalgebra(O, res.alpha_witness)
    assert is_ideal(O, res.beta_witness)
    assert res.beta_witness == span(F3, 4, (0, 1, 0, 0))


def test_alpha_heisenberg():
    assert alpha(heisenberg(F3)).alpha == 2


def test_beta_pair_action_with_summands():
    for k in (0, 1):
        L = make_a(Matrix.identity(F3, 2), ROT3, F3)
        if k:
            L = direct_sum(L, abelian_algebra(k, F3))
        res = beta(L)
        assert res.beta == L.dim - 2


def test_beta_rotation_extension():
    assert beta(heisenberg_rotation_extension(F3)).beta == 1


def test_beta_le_alpha_on_fixtures():
    for L in standard_fixtures(F3, max_dim=4):
        res = alpha_beta(L)
        assert res.beta <= res.alpha


def test_alpha_rejects_rationals():
    # so does every public entry point of `search`, naming itself
    L = oscillator(QQ)
    calls = {
        "alpha": alpha,
        "beta": beta,
        "alpha_beta": alpha_beta,
        "all_abelian_ideals": lambda L: all_abelian_ideals(L, 1),
        "all_abelian_subalgebras": lambda L: all_abelian_subalgebras(L, 1),
        "is_maximal_subalgebra": lambda L: is_maximal_subalgebra(L, L.full_space()),
        "iso_search": lambda L: iso_search(L, L),
        "subspace scan": table_flat,
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=r"^%s requires a prime field \(" % name):
            call(L)


def test_budget_exceeded_is_explicit():
    L = direct_sum(oscillator(F3), abelian_algebra(1, F3))
    with pytest.raises(BudgetExceededError):
        alpha(L, budget=5)


def test_negative_budget_is_rejected():
    # a negative limit would mean "no cap" to the kernel; it is rejected
    # also where no scan runs
    with pytest.raises(ValueError, match="budget"):
        alpha(oscillator(F3), budget=-1)
    with pytest.raises(ValueError, match="budget"):
        all_abelian_ideals(oscillator(F3), 1, budget=-1)
    L = make_a(Matrix.identity(QQ, 2), Matrix(QQ, [[0, 1], [-1, 0]]), QQ)
    W = span(QQ, 4, (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(ValueError, match="budget"):
        classify(L, A=W, budget=-1)
    with pytest.raises(ValueError, match="budget"):
        solvability_from_codim2_ideal(L, witness=W, budget=-7)


# each entry point that scans, called as fn(L, budget=...); alpha_beta's
# test ids are the bare algebra names
_REQUESTS = {
    "alpha_beta": alpha_beta,
    "beta": beta,
    "all_abelian_ideals(n-3)": lambda L, **kw: all_abelian_ideals(L, L.dim - 3, **kw),
    "all_abelian_subalgebras(n-2)": lambda L, **kw: all_abelian_subalgebras(L, L.dim - 2, **kw),
}


@pytest.mark.parametrize(
    "entry, name",
    [
        pytest.param(entry, name, id=name if entry == "alpha_beta" else "%s-%s" % (name, entry))
        for entry in _REQUESTS
        for name in sorted(one_budget_algebras())
    ],
)
def test_alpha_beta_debits_one_budget(entry, name):
    # the budget S a call debits is enough, and S - 1 is not: nested calls
    # and every stratum draw on the one request's budget
    L, request = one_budget_algebras()[name], _REQUESTS[entry]
    res, total = scanned_by(lambda: request(L))
    assert getattr(res, "scanned", total) == total
    assert request(L, budget=total) == res
    with pytest.raises(BudgetExceededError):
        request(L, budget=total - 1)


GENERATED = st.one_of(
    family_algebras((F3, F5, F7)), identity_actions(), cycle_actions(), left_only_actions()
)


def _walked_first_hit(L, dims, mode=MODE_ABELIAN | MODE_IDEAL):
    """The stratum-by-stratum walk, uncut by the center, that the deciders
    of `_first_in_strata` replace, kept as the brute-force oracle: (d,
    witness, scanned) of the first stratum of `dims` holding a subspace of
    `mode`."""
    total = 0
    for d in dims:
        scanned, subs = _scan_dim(L, d, mode, 1)
        total += scanned
        if subs:
            return d, subs[0], total
    return None, None, total


def _in_request(fn, L, dims, budget):
    with _request(budget):
        return fn(L, dims)


def _ideal_strata(L, dims):
    """The strata driver over abelian-ideal strata."""
    return _first_in_strata(L, dims, ideal=True)


def test_first_abelian_ideal_matches_the_stratum_walk():
    # the top-down search of beta and solvability_from_codim2_ideal, and
    # classify's stratum n-2 where alpha = n-2: the same stratum, witness
    # and count as the walk, and both are refused, with the same message,
    # one subspace short and at half the count.
    # Over GF(3), GF(5) and GF(7); some stratum's hits lie in more than one
    # pivot set, so the search stops before the end of a stratum's walk
    seen, fields = set(), set()

    @settings(max_examples=150)
    @given(GENERATED)
    def check(L):
        n = L.dim
        fields.add(L.field.p)
        searches = [range(n, -1, -1), range(n, max(n - 3, -1), -1)]
        if alpha(L).alpha == n - 2:
            searches.append((n - 2,))
        for dims in searches:
            want = _in_request(_walked_first_hit, L, dims, 10**12)
            assert _in_request(_ideal_strata, L, dims, 10**12) == want
            for budget in (want[2] - 1, want[2] // 2):
                refusals = []
                for fn in (_walked_first_hit, _ideal_strata):
                    with pytest.raises(BudgetExceededError) as refused:
                        _in_request(fn, L, dims, budget)
                    refusals.append(str(refused.value))
                assert refusals[0] == refusals[1]
            seen.add(want[0] is None)
        d = _in_request(_ideal_strata, L, range(n, -1, -1), 10**12)[0]
        if len({I.pivots for I in all_abelian_ideals(L, d)}) > 1:
            seen.add("hits in several pivot sets")

    check()
    assert seen == {True, False, "hits in several pivot sets"}
    assert fields == {3, 5, 7}


# the walk's refusal on h7 and h5 (+) h3 under the default budget; the
# debits before it depend on n and p alone
HEISENBERG_REFUSALS = pytest.mark.parametrize(
    "name, F, refusal",
    [
        ("h7", F5, "at dimension 5 after 4980468 subspaces"),
        ("h5+h3", F5, "at dimension 6 after 4902343 subspaces"),
        ("h7", F7, "at dimension 5 after 4862742 subspaces"),
        ("h5+h3", F7, "at dimension 6 after 4039199 subspaces"),
    ],
    ids=["h7-GF5", "h5+h3-GF5", "h7-GF7", "h5+h3-GF7"],
)


def _counted_candidates(limit):
    """A stand-in for `search.canonical_subspaces` that fails once more than
    `limit` candidates are walked."""
    real, walked = search.canonical_subspaces, []

    def counted(*args):
        for item in real(*args):
            walked.append(1)
            if len(walked) > limit:
                raise AssertionError("more than %d candidates walked" % limit)
            yield item

    return counted


@HEISENBERG_REFUSALS
def test_abelian_ideal_stratum_stops_at_the_budget(name, F, refusal):
    # on canonical h7 and h5 (+) h3 the candidates of stratum n-2 that come
    # before the budget runs out lie in no abelian ideal, and there are
    # millions of them: the search stops at the first pivot set that
    # counts past the budget and raises the walk's message, having walked
    # one candidate, not the half a million it took before.  The rank
    # bound would skip the stratum first, so it is switched off here
    L = heisenberg_sums(F)[name]
    with mock.patch.object(search, "canonical_subspaces", _counted_candidates(1000)), mock.patch.object(
        search, "_max_form_rank", lambda L: 0
    ):
        for call in (classify, verify_main_theorem):
            with pytest.raises(BudgetExceededError) as refused:
                call(L)
            assert str(refused.value) == "scan budget exhausted " + refusal


@HEISENBERG_REFUSALS
def test_rank_bound_refuses_disguised_heisenberg_sums_at_once(name, F, refusal):
    # under a basis change the first pivot sets of stratum n-2 hold
    # millions of candidates, and the budget stop above does not fire
    # early.  The form z*([x, y]) has rank 6 on both, so the rank bound
    # shows every stratum above n-3 empty: classify, verify_main_theorem,
    # beta and alpha debit those strata without searching them and raise
    # the walk's message, with no stratum of more subspaces than the
    # budget walked and at most a thousand candidates tested
    L = heisenberg_sums(F)[name]
    # on canonical h5 (+) h3 no unit functional reaches rank 6 (z1* gives
    # 4 and z2* gives 2), and the fixed combinations do
    assert _max_form_rank(L) == 6
    L = change_of_basis(L, rand_invertible(F, L.dim, random.Random(1)))
    assert _max_form_rank(L) == 6
    real_scan = search.scan_subspaces

    def walk(table, n, p, d, *rest):
        if gaussian_binomial(n, d, p) > DEFAULT_SCAN_BUDGET:
            raise AssertionError("walked stratum %d" % d)
        return real_scan(table, n, p, d, *rest)

    with mock.patch.object(search, "canonical_subspaces", _counted_candidates(1000)), mock.patch.object(
        search, "scan_subspaces", walk
    ):
        for call in (classify, verify_main_theorem, beta, alpha):
            with pytest.raises(BudgetExceededError) as refused:
                call(L)
            assert str(refused.value) == "scan budget exhausted " + refusal


def _reference_form_rank(L, lam):
    """The rank of (lam([e_i, e_j]))_ij, from the structure constants."""
    n, c = L.dim, L.c
    return Matrix(L.field, [[sum(x * y for x, y in zip(lam, c[i][j])) for j in range(n)] for i in range(n)]).rank()


def test_rank_bound_holds_against_brute_force():
    # the lemma of `_max_form_rank`: no abelian subspace has dimension above
    # n - ceil(r/2), r the rank of lam([x, y]), for any functional lam.  By
    # `enumerate_subspaces` over GF(3) and GF(5), n <= 5, for every lam
    # where p^n <= 243 and for 50 drawn otherwise.  `_max_form_rank` obeys
    # the bound, and does not exceed the largest rank where every lam is
    # tried.  Some forms have odd rank, and on some tables the bound is
    # reached
    seen = set()
    fields = (F3, F5)

    @settings(max_examples=60)
    @given(
        st.one_of(
            family_algebras(fields), identity_actions(fields), left_only_actions(fields), central_algebras(fields)
        ),
        st.randoms(use_true_random=False),
    )
    def check(L, rnd):
        F, n, p = L.field, L.dim, L.field.p
        largest = next(
            d for d in range(n, -1, -1) if any(is_abelian_subspace(L, U) for U in enumerate_subspaces(n, d, F))
        )
        every = p**n <= 243
        if every:
            lams = list(itertools.product(range(p), repeat=n))
        else:
            lams = [[rnd.randrange(p) for _ in range(n)] for _ in range(50)]
        ranks = []
        for lam in lams:
            r = _reference_form_rank(L, lam)
            assert largest <= n - (r + 1) // 2, (L.c, lam, r)
            ranks.append(r)
            if r % 2:
                seen.add("odd rank")
        r = _max_form_rank(L)
        assert largest <= n - (r + 1) // 2
        if every:
            assert r <= max(ranks)
        if largest == n - (max(ranks) + 1) // 2 and max(ranks) > 1:
            seen.add("bound reached")

    check()
    assert seen == {"odd rank", "bound reached"}


def _searched_strata(fn):
    """fn()'s result, what its request debited, and the strata its searches
    looked at, in order: ("walk", d) for `_scan_dim`, ("ideal", d) for
    `_abelian_ideal_hits`."""
    strata = []
    real_scan, real_hits = search._scan_dim, search._abelian_ideal_hits

    def scan(L, d, *rest):
        strata.append(("walk", d))
        return real_scan(L, d, *rest)

    def hits(L, d):
        strata.append(("ideal", d))
        return real_hits(L, d)

    with mock.patch.object(search, "_scan_dim", scan), mock.patch.object(search, "_abelian_ideal_hits", hits):
        result, debited = scanned_by(fn)
    return result, debited, strata


def _bounded_tables():
    """(table, n - ceil(r/2)) over GF(3), r = `_max_form_rank`: rotext (+)
    d(rot), r = 5 (alpha 3), disguised h7 and h5 (+) h3, r = 6 (alpha at
    the bound), and d(rot) (+) d(rot), r = 4 (no stratum above n-2 cut)."""
    rot = rotation_2x2(F3)
    d = make_d(rot, F3)
    tables = {"rotext+d(rot)": (direct_sum(heisenberg_rotation_extension(F3), d), 4)}
    for name, L in heisenberg_sums(F3).items():
        tables[name] = (change_of_basis(L, rand_invertible(F3, L.dim, random.Random(1))), L.dim - 3)
    tables["d(rot)+d(rot)"] = (direct_sum(d, d), 4)
    return tables


@pytest.mark.parametrize("name", sorted(_bounded_tables()))
def test_rank_bound_skips_exactly_the_strata_above_it(name):
    # alpha and classify answer and debit as with the bound switched off
    # (r = 0), and search the same strata but those above n - ceil(r/2)
    # with more than RANK_BOUND_GATE candidates: the Gaussian binomial of
    # L/C for a walk, of K/C for an abelian-ideal stratum
    L, bound = _bounded_tables()[name]
    assert L.dim - (_max_form_rank(L) + 1) // 2 == bound
    c = center(L).dim
    top = {"walk": L.dim, "ideal": _trace_kernel(L).dim}
    skipped = set()
    for call in (alpha, classify):
        got = _searched_strata(lambda: call(L))
        with mock.patch.object(search, "_max_form_rank", lambda L: 0):
            want = _searched_strata(lambda: call(L))
        assert got[:2] == want[:2]
        kept = [(kind, d) for kind, d in want[2] if d <= bound or gaussian_binomial(top[kind] - c, d - c, 3) <= RANK_BOUND_GATE]
        assert got[2] == kept
        skipped.update(set(want[2]) - set(kept))
    assert bool(skipped) == (name != "d(rot)+d(rot)")


def test_rank_bound_is_not_read_on_small_strata():
    # no stratum of the oscillator over GF(3) has more than
    # RANK_BOUND_GATE candidates.  a(id,rot) (+) F over GF(5) has 806 in
    # alpha's stratum 3, but with n = 5 and dim C = 1, r <= 4 and the bound
    # is at least 3.  So the searches of neither compute r
    O = oscillator(F3)
    assert gaussian_binomial(4, 2, 3) <= RANK_BOUND_GATE
    A = next(L for L in standard_fixtures(F5) if L.name == "a(id,rot)+F")
    assert (A.dim, center(A).dim, gaussian_binomial(4, 2, 5)) == (5, 1, 806)
    for L in (O, A):
        alpha_beta(L), classify(L)
        assert "_max_form_rank" not in L._cache


@st.composite
def center_and_kernel(draw):
    """Random subspaces C <= K of F^n, n <= 4, over GF(3), GF(5) or GF(7)."""
    F = draw(st.sampled_from((F3, F5, F7)))
    n, p = draw(st.integers(1, 4)), F.p
    entry = st.integers(0, p - 1)
    K = Subspace._span(F, n, draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n)))
    coefs = draw(st.lists(st.lists(entry, min_size=K.dim, max_size=K.dim), max_size=K.dim))
    C = Subspace._span(F, n, [[sum(a * r[k] for a, r in zip(x, K._rows)) % p for k in range(n)] for x in coefs])
    return C, K


@settings(max_examples=150)
@given(center_and_kernel())
def test_candidates_pivots_follow_the_walk_of_x(CK):
    # the lemma of `_abelian_ideal_hits`: B, the rows of K at the pivots
    # C lacks, is the RREF complement of C in K reduced modulo C; for every
    # RREF X the span of C + X B has pivots C.pivots u Bpiv[X.pivots], C's
    # pivot rows and then X B's clear a vector to 0 exactly when the span
    # holds it, and the spans' pivot sets follow the canonical walk of X
    C, K = CK
    F, n, p = K.field, K.ambient_dim, K.field.p
    Bpiv = tuple(kp for kp in K.pivots if kp not in C.pivots)
    B = tuple(row for kp, row in zip(K.pivots, K._rows) if kp not in C.pivots)
    assert Subspace._span(F, n, [C._reduce(row) for row in K._rows]) == Subspace(F, n, B, Bpiv)
    probes = list(itertools.product(range(p), repeat=n)) if p ** n <= 81 else K._rows
    for t in range(len(B) + 1):
        last = None
        for _, xp, X in canonical_subspaces(len(B), p, t):
            W = [[sum(x * b[k] for x, b in zip(row, B)) % p for k in range(n)] for row in X]
            I = Subspace._span(F, n, C._rows + tuple(W))
            assert I.pivots == tuple(sorted(C.pivots + tuple(Bpiv[s] for s in xp)))
            pivots = list(zip(C.pivots, C._rows)) + list(zip([Bpiv[s] for s in xp], W))
            for v in probes:
                assert (not any(_clear(p, v, pivots))) == I._contains(v)
            key = (xp, I.pivots)
            if last is not None:
                # a new pivot set of X is a later pivot set of the span
                assert (key[0] == last[0]) == (key[1] == last[1])
                assert key[1] >= last[1]
            last = key


def _slice_spaces(L, k):
    """The row space and the column space of the slice (c_ijk)_ij."""
    n, c = L.dim, L.c
    rows = [[c[i][j][k] for j in range(n)] for i in range(n)]
    return Subspace.from_vectors(L.field, n, rows), Subspace.from_vectors(
        L.field, n, [list(col) for col in zip(*rows)]
    )


def test_alpha_matches_the_stratum_walk():
    # alpha decides strata n and n-1 from one structure slice: the same
    # dimension, witness and count as the walk, refused one subspace
    # short with the same message; the slice's candidates find every
    # abelian hyperplane, and (the lemma, by brute force) each abelian
    # hyperplane's functional lies in the row or the column space of every
    # nonzero slice
    seen = set()

    @settings(max_examples=150)
    @given(GENERATED)
    def check(L):
        n, dims = L.dim, range(L.dim, -1, -1)
        with _request(10**12):
            want = _walked_first_hit(L, dims, MODE_ABELIAN)
        res = alpha(L)
        assert (res.alpha, res.alpha_witness, res.scanned) == want
        with pytest.raises(BudgetExceededError) as walked, _request(want[2] - 1):
            _walked_first_hit(L, dims, MODE_ABELIAN)
        with pytest.raises(BudgetExceededError) as searched:
            alpha(L, budget=want[2] - 1)
        assert str(searched.value) == str(walked.value)
        seen.add(n - max(want[0], n - 2))
        if want[0] == n:
            return
        hyperplanes = all_abelian_subalgebras(L, n - 1)
        got = sorted(_abelian_hyperplanes(L), key=lambda H: (H.pivots, H.basis.data))
        assert got == hyperplanes
        # the slice `_abelian_hyperplanes` reads: its column space is
        # spanned only when it differs from its row space
        first = next(k for ci in L._products for cij in ci for k, _ in cij)
        rows, cols = _slice_spaces(L, first)
        if rows.dim <= 2:
            seen.add("column space spanned" if rows != cols else "column space skipped")
        for H in hyperplanes:
            f = H.complement_functionals().data[0]
            for k in range(n):
                rows, cols = _slice_spaces(L, k)
                assert rows.is_zero() or rows.contains_vector(f) or cols.contains_vector(f)

    check()
    assert seen == {0, 1, 2, "column space spanned", "column space skipped"}


def _cut_and_uncut(L):
    """(the center-cut walk, the uncut walk) of strata n-2 .. 0, each as
    a thunk run in a request of its own or in the caller's."""
    dims = range(L.dim - 2, -1, -1)
    return (lambda: _first_in_strata(L, dims)), (lambda: _walked_first_hit(L, dims, MODE_ABELIAN))


def test_center_cut_walk_matches_the_uncut_walk():
    # alpha's walk, cut to the subspaces that contain C(L) once strata n
    # and n-1 are empty: the same stratum, witness and count as the uncut
    # walk, the same debit, and the same refusal one subspace short
    seen = set()

    @settings(max_examples=100)
    @given(central_algebras())
    def check(L):
        C = center(L)
        with _request(10**12):
            empty_top = _first_in_strata(L, (L.dim, L.dim - 1))[1] is None
        assume(empty_top and not C.is_zero())
        cut, uncut = _cut_and_uncut(L)
        want, debited = scanned_by(uncut)
        assert scanned_by(cut) == (want, debited)
        assert debited == want[2]
        refusals = []
        for walk in (uncut, cut):
            with pytest.raises(BudgetExceededError) as refused, _request(want[2] - 1):
                walk()
            refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]
        full = L.full_space()
        seen.add(subspace_intersect(C, product_space(L, full, full)).is_zero())

    check()
    assert seen == {True, False}  # C meets [L, L] on some tables, not on others


def test_center_cut_prunes_within_the_same_budget():
    # d(rot) (+) heisenberg over GF(3): alpha = 3 = n-3, C = span(z) inside
    # [L, L].  The cut walk solves fewer rows than the uncut one, and
    # alpha still runs within S and is refused at S-1
    L = direct_sum(make_d(ROT3, F3), heisenberg(F3))
    assert center(L) == span(F3, 6, (0, 0, 0, 0, 0, 1))
    solves = []
    real = _scan_py._lex_solutions
    with mock.patch.object(_scan_py, "_lex_solutions", lambda *a: solves.append(1) or real(*a)):
        counts = []
        for walk in _cut_and_uncut(L):
            solves.clear()
            with _request(10**12):
                walk()
            counts.append(len(solves))
    assert counts[0] < counts[1] / 2
    res, S = scanned_by(lambda: alpha(L))
    assert (res.alpha, S) == (3, res.scanned)
    assert alpha(L, budget=S) == res
    with pytest.raises(BudgetExceededError, match="at dimension 3 after"):
        alpha(L, budget=S - 1)


def test_collect_all_walks_are_not_cut_by_the_center():
    # below alpha, abelian subalgebras need not contain C: c(rot) (+) F
    # over GF(3) has alpha 3 and C = span(e1, e4), and every abelian
    # subalgebra of dimension 1 and 2 is listed, those that miss C too
    L = direct_sum(make_c(ROT3, F3), abelian_algebra(1, F3))
    C = center(L)
    assert C.dim == 2 and alpha(L).alpha == 3
    for d in (1, 2):
        subs = all_abelian_subalgebras(L, d)
        assert subs == [U for U in enumerate_subspaces(5, d, F3) if is_abelian_subspace(L, U)]
        assert any(not U.contains(C) for U in subs)


def _left_only_action():
    """x1, x2 acting on span(v1, v2, v3) from the left only: [x1, v1] = 2 v3,
    [x2, v1] = 2 v2 + 2 v3, [x2, v2] = v3, over GF(3)."""
    return AlgebraTable.from_products(
        F3, 5, {(0, 2): (0, 0, 0, 0, 2), (1, 2): (0, 0, 0, 2, 2), (1, 3): (0, 0, 0, 0, 1)}
    )


def test_first_abelian_ideal_tests_the_side_that_suffices():
    # span(x1, x2, v3) comes first in canonical order and is abelian with
    # [L, I] <= I, but [x2, v1] is outside it; the first abelian ideal of
    # dimension 3 is span(x1, v2, v3)
    L = _left_only_action()
    assert is_leibniz(L)
    one_sided = span(F3, 5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1))
    assert is_abelian_subspace(L, one_sided) and not is_ideal(L, one_sided)
    res = beta(L)
    assert res.beta == 3
    assert res.beta_witness == span(F3, 5, (1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    dims = range(5, -1, -1)
    assert _in_request(_ideal_strata, L, dims, 10**6) == _in_request(
        _walked_first_hit, L, dims, 10**6
    )


def test_abelian_subspace_holding_its_brackets_with_L_generates_an_abelian_ideal():
    # the lemma that lets `_abelian_ideal_hits` test only [I, L] <= I: the
    # ideal an abelian I with [I, L] <= I generates is abelian, by brute
    # force over every subspace of the GF(3) fixtures and the left-only
    # action, some of whose such I are not ideals
    not_ideals = 0
    for L in [*standard_fixtures(F3, max_dim=4), _left_only_action()]:
        full = L.full_space()
        for d in range(1, L.dim + 1):
            for U in enumerate_subspaces(L.dim, d, F3):
                if not (is_abelian_subspace(L, U) and U.contains(product_space(L, U, full))):
                    continue
                J = U
                while not J.contains(product_space(L, full, J)):
                    J = subspace_sum(J, product_space(L, full, J))
                assert is_abelian_subspace(L, J) and is_ideal(L, J), (L.name, U)
                not_ideals += J != U
    assert not_ideals


def test_witness_canonical_under_scan_order():
    # the reported dimension is canonical; the witness is the first hit in
    # the fixed enumeration order, hence reproducible
    O = oscillator(F3)
    r1, r2 = alpha(O), alpha(O)
    assert r1.alpha_witness == r2.alpha_witness


# -- all abelian ideals ------------------------------------------------------------


def test_all_abelian_ideals_examples():
    A2 = abelian_algebra(2, F3)
    assert len(all_abelian_ideals(A2, 1)) == 4  # p + 1 lines
    O = oscillator(F3)
    assert all_abelian_ideals(O, 1) == [span(F3, 4, (0, 1, 0, 0))]
    D = make_d(ROT3, F3)
    assert all_abelian_ideals(D, 1) == []


def test_all_abelian_subalgebras_count_consistency():
    O = oscillator(F3)
    subs = all_abelian_subalgebras(O, 2)
    assert all(is_abelian_subspace(O, U) for U in subs)
    assert alpha(O).alpha_witness in subs


# -- maximality -----------------------------------------------------------------


def test_is_maximal_subalgebra_examples():
    Aid = make_a(Matrix.identity(F3, 2), ROT3, F3)
    A = span(F3, 4, (1, 0, 0, 0), (0, 1, 0, 0))
    assert is_maximal_subalgebra(Aid, A)
    L = nonideal_codim2_example(F3)
    A2 = span(F3, 4, (0, 1, 0, 0), (0, 0, 1, 0))
    assert not is_maximal_subalgebra(L, A2)  # A + F e1 is a proper subalgebra
    assert is_maximal_subalgebra(L, L.full_space())  # degenerate, vacuous
    with pytest.raises(ValueError):
        is_maximal_subalgebra(L, span(F3, 4, (1, 0, 0, 0), (0, 1, 0, 0)))


def test_oscillator_has_both_maximal_and_nonmaximal_witnesses():
    O = oscillator(F3)
    inside_heisenberg = span(F3, 4, (0, 1, 0, 0), (0, 0, 1, 0))
    assert is_abelian_subspace(O, inside_heisenberg)
    assert not is_maximal_subalgebra(O, inside_heisenberg)
    diagonal = span(F3, 4, (1, 0, 0, 0), (0, 1, 0, 0))
    assert is_abelian_subspace(O, diagonal)
    assert is_maximal_subalgebra(O, diagonal)


# -- isomorphism search ------------------------------------------------------------


def test_iso_identity_map():
    O = oscillator(F3)
    res = iso_search(O, O)
    assert res.isomorphic and res.map == Matrix.identity(F3, 4)


def test_iso_negative_profile_prune():
    res = iso_search(heisenberg(F3), abelian_algebra(3, F3))
    assert not res.isomorphic and res.map is None


def test_iso_positive_verifies(rng):
    for L in (heisenberg(F3), oscillator(F3), heisenberg_rotation_extension(F3)):
        for _ in range(4):
            P = rand_invertible(F3, L.dim, rng)
            M = change_of_basis(L, P)
            res = iso_search(L, M)
            assert res.isomorphic
            assert change_of_basis(M, res.map).c == L.c


def test_iso_span_equal_pair_tables():
    lam, mu = Matrix.identity(F3, 2), ROT3
    lam2 = Matrix(F3, [[1, 1], [2, 1]])
    mu2 = Matrix(F3, [[1, 2], [1, 1]])
    res = iso_search(make_a(lam, mu, F3), make_a(lam2, mu2, F3))
    assert res.isomorphic


def test_iso_mismatched_dims_not_isomorphic():
    # tables of different dimensions are a negative answer, over either
    # field, with no search; two fields are still a FieldMismatchError
    for F in (F3, QQ):
        assert iso_search(heisenberg(F), abelian_algebra(4, F)) == IsoResult(False, None)
    with pytest.raises(FieldMismatchError):
        iso_search(heisenberg(F3), abelian_algebra(4, QQ))


def test_iso_budget(rng):
    O = oscillator(F3)
    M = change_of_basis(O, rand_invertible(F3, 4, rng))
    if M.c == O.c:  # astronomically unlikely, but keep the test honest
        M = change_of_basis(O, Matrix(F3, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    with pytest.raises(BudgetExceededError):
        iso_search(O, M, node_budget=1)


def test_iso_search_rejects_a_negative_budget(rng):
    # as every scanning entry point does, before any node is counted and
    # also where the tables are equal and no search runs
    O = oscillator(F3)
    M = change_of_basis(O, rand_invertible(F3, 4, rng))
    for other in (M, O):
        with pytest.raises(ValueError, match=r"^scan budget must be >= 0, got -1$"):
            iso_search(O, other, node_budget=-1)
    assert iso_search(O, O, node_budget=0).isomorphic


def test_invariant_profile_separates():
    assert invariant_profile(heisenberg(F3)) != invariant_profile(abelian_algebra(3, F3))
    assert invariant_profile(oscillator(F3)) == invariant_profile(oscillator(F3))


# -- span-equivalence isomorphisms ----------------------------------------------------


def test_span_equivalent_iso_identity_and_swap():
    lam, mu = Matrix.identity(F3, 2), ROT3
    P = span_equivalent_iso(lam, mu, lam, mu)
    assert P is not None
    P2 = span_equivalent_iso(lam, mu, mu, lam)
    assert P2 is not None
    T1 = raw_pair_table(lam, mu, F3)
    T2 = raw_pair_table(mu, lam, F3)
    assert change_of_basis(T2, P2).c == T1.c


def test_span_equivalent_iso_differing_spans():
    lam, mu = Matrix.identity(F3, 2), ROT3
    zero = Matrix.zeros(F3, 2, 2)
    assert span_equivalent_iso(lam, mu, lam, zero) is None
    assert span_equivalent_iso(lam, zero, lam, mu) is None


def test_span_equivalent_iso_randomized(rng):
    count = 0
    while count < 100:
        lam = rand_matrix(F3, 2, 2, rng)
        mu = rand_matrix(F3, 2, 2, rng)
        C = rand_invertible(F3, 2, rng)
        lam2 = lam.scale(C.data[0][0]) + mu.scale(C.data[0][1])
        mu2 = lam.scale(C.data[1][0]) + mu.scale(C.data[1][1])
        P = span_equivalent_iso(lam, mu, lam2, mu2)
        assert P is not None
        T1 = raw_pair_table(lam, mu, F3)
        T2 = raw_pair_table(lam2, mu2, F3)
        assert change_of_basis(T2, P).c == T1.c
        count += 1


def test_alpha_n_minus_1_implies_beta_n_minus_1():
    # codimension-one companion result the classification builds on
    for F in (F3, F2):
        for L in standard_fixtures(F, max_dim=4):
            if L.dim == 0 or F.characteristic == 2:
                continue
            res = alpha(L)
            if res.alpha == L.dim - 1:
                assert beta(L).beta == L.dim - 1, L.name
