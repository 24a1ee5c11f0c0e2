import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras.algebra import (
    AlgebraTable,
    bracket,
    center,
    change_of_basis,
    direct_sum,
    generated_subalgebra,
    is_abelian_subspace,
    is_ideal,
    is_subalgebra,
    mult_operator,
    product_space,
    squares_ideal,
    subalgebra_table,
)
from leibniz_algebras.catalog import (
    heisenberg_rotation_extension,
    rotation_2x2,
    standard_fixtures,
)
from leibniz_algebras.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotLeibnizError,
)
from leibniz_algebras.families import (
    abelian_algebra,
    heisenberg,
    make_a,
    make_c,
    make_d,
    make_e,
    oscillator,
)
from leibniz_algebras import invariants
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import (
    _envelope_radical,
    _is_nilpotent_subalgebra,
    _trace_kernel,
    check_annihilator_bound,
    fitting_decomposition,
    nilradical,
    series,
    verify_nilradical_candidate,
)
from leibniz_algebras.linalg import (
    Matrix,
    Subspace,
    _dot_rows,
    subspace_intersect,
    subspace_sum,
)
from leibniz_algebras._kernel import MODE_IDEAL
from leibniz_algebras.search import (
    DEFAULT_SCAN_BUDGET,
    _request,
    _scan_dim,
    all_abelian_ideals,
    all_abelian_subalgebras,
    alpha,
    is_maximal_subalgebra,
)

from conftest import (
    F2,
    F3,
    F5,
    F7,
    MAX_DIM,
    carried,
    cycle_action,
    cycle_actions,
    family_algebras,
    identity_action,
    identity_actions,
    left_only_action,
    left_only_actions,
    linear_action,
    one_budget_algebras,
    rand_invertible,
    reference_two_sided_trace_rows,
    scanned_by,
)

ROT3 = Matrix(F3, [[0, 1], [2, 0]])


def span(F, n, *vecs):
    return Subspace.from_vectors(F, n, vecs)


# -- series ------------------------------------------------------------------


def test_series_abelian():
    rep = series(abelian_algebra(3, QQ))
    assert rep.solvable and rep.nilpotent and rep.derived_length == 1
    assert rep.derived_dims == (3, 0)


def test_series_zero_dim():
    rep = series(abelian_algebra(0, QQ))
    assert rep.derived_length == 0 and rep.solvable and rep.nilpotent


def test_series_c_family():
    rep = series(make_c(ROT3, F3))
    assert rep.solvable and not rep.nilpotent
    assert rep.derived_length == 3
    assert rep.derived_dims == (4, 3, 1, 0)


def test_series_d_family_not_solvable():
    rep = series(make_d(ROT3, F3))
    assert not rep.solvable and not rep.nilpotent
    assert rep.derived_chain[-1].dim == 3


def test_series_chains_decrease_and_stabilize():
    for F in (QQ, F3):
        for L in standard_fixtures(F):
            rep = series(L)
            for a, b in zip(rep.derived_chain, rep.derived_chain[1:]):
                assert a.contains(b) and b.dim <= a.dim
            for a, b in zip(rep.lower_central_chain, rep.lower_central_chain[1:]):
                assert a.contains(b)
            assert len(rep.derived_chain) <= L.dim + 2
            if rep.nilpotent:
                assert rep.solvable


def test_engel_consistency():
    for L in standard_fixtures(F3):
        rep = series(L)
        ops = [mult_operator(L, L.basis_vector(i), "left") for i in range(L.dim)]
        all_left_nilpotent = all(M.power(M.rows).is_zero() for M in ops)
        assert rep.nilpotent == (
            all_left_nilpotent and rep.lower_central_chain[-1].is_zero()
        )


# -- fitting -------------------------------------------------------------------


def test_fitting_trivial_family():
    L = heisenberg(QQ)
    split = fitting_decomposition(L, Subspace.zero(QQ, 3))
    assert split.L0.dim == 3 and split.L1.dim == 0


def test_fitting_pair_action():
    L = make_a(Matrix.identity(F3, 2), ROT3, F3)
    A = span(F3, 4, (1, 0, 0, 0), (0, 1, 0, 0))
    split = fitting_decomposition(L, A)
    assert split.L0 == A
    assert split.L1 == span(F3, 4, (0, 0, 1, 0), (0, 0, 0, 1))


def test_fitting_oscillator_nilpotent_action():
    O = oscillator(F3)
    A = span(F3, 4, (0, 1, 0, 0), (0, 0, 1, 0))  # e0, e1
    split = fitting_decomposition(O, A)
    assert split.L0.dim == 4 and split.L1.dim == 0


def test_fitting_rejects_nonabelian():
    O = oscillator(QQ)
    bad = Subspace.from_vectors(QQ, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(ValueError):
        fitting_decomposition(O, bad)


def test_fitting_properties_on_scanned_subalgebras():
    for L in standard_fixtures(F3, max_dim=5):
        n = L.dim
        for d in range(max(0, n - 2), n + 1):
            for A in all_abelian_subalgebras(L, d):
                split = fitting_decomposition(L, A)
                assert split.L0.dim + split.L1.dim == n
                assert subspace_intersect(split.L0, split.L1).is_zero()
                assert product_space(L, A, split.L1) == split.L1
                funcs_ok = True
                for a in A.basis.data:
                    op = mult_operator(L, a, "left")
                    # restriction to L0 is nilpotent: iterate images
                    W = split.L0
                    for _ in range(n + 1):
                        W = Subspace.from_vectors(
                            L.field, n, [op.apply_col(v) for v in W.basis.data]
                        )
                    funcs_ok = funcs_ok and W.is_zero()
                assert funcs_ok


# -- nilradical -----------------------------------------------------------------


def test_nilradical_of_nilpotent_is_everything():
    H = heisenberg(F3)
    assert nilradical(H).dim == 3
    A = abelian_algebra(4, F3)
    assert nilradical(A).dim == 4


def test_nilradical_oscillator():
    O = oscillator(F3)
    N = nilradical(O)
    assert N == span(F3, 4, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    T = subalgebra_table(O, N)
    assert series(T).nilpotent


def test_nilradical_simple_is_zero():
    assert nilradical(make_d(ROT3, F3)).dim == 0


def _nilpotent_ideals(L):
    """Every nonzero nilpotent ideal, by scanning every stratum."""
    with _request(DEFAULT_SCAN_BUDGET):
        ideals = [U for d in range(1, L.dim + 1) for U in _scan_dim(L, d, MODE_IDEAL, -1)[1]]
    return [U for U in ideals if series(subalgebra_table(L, U)).nilpotent]


def _brute_force_nilradical(L, ideals=None):
    """Sum of every nilpotent ideal of every dimension (`ideals`, found by
    scanning when not given), checked to be a nilpotent ideal itself: the
    exhaustive definition of the nilradical."""
    total = Subspace.zero(L.field, L.dim)
    for U in _nilpotent_ideals(L) if ideals is None else ideals:
        total = subspace_sum(total, U)
    assert is_ideal(L, total)
    assert total.is_zero() or series(subalgebra_table(L, total)).nilpotent
    return total


def _nilradical_inputs():
    rng = random.Random(20240912)
    out = []
    for F, max_dim in ((F3, 6), (F5, 5)):
        out.extend(standard_fixtures(F, max_dim=5))
        rot = rotation_2x2(F)
        for base in (make_c(rot, F), make_d(rot, F), heisenberg_rotation_extension(F)):
            for k in range(max_dim - base.dim + 1):
                L = direct_sum(base, abelian_algebra(k, F)) if k else base
                out.append(change_of_basis(L, rand_invertible(F, L.dim, rng)))
    return out


def test_nilradical_is_nilpotent_ideal_containing_all_nilpotent_ideals():
    for L in _nilradical_inputs():
        assert nilradical(L) == _brute_force_nilradical(L), L.name


@pytest.mark.parametrize("name", sorted(one_budget_algebras()))
def test_trace_kernel_certifies_without_a_scan(name):
    L = one_budget_algebras()[name]
    N, scanned = scanned_by(lambda: nilradical(L))
    assert scanned == 0 and N == _trace_kernel(L) == _brute_force_nilradical(L)


def test_nilradical_matches_brute_force_on_generated_algebras(monkeypatch):
    # both ways to the nilradical occur among the draws, neither scans: the
    # trace kernel, and the envelope's radical, past round I_0 for x acting
    # as the identity on F^3 over GF(3), whose traces all vanish; on each
    # path the nilradical check accepts exactly the brute-force nilradical
    paths, past_round_0 = set(), False

    @settings(max_examples=100)
    @given(st.one_of(family_algebras((F3, F5, F7)), identity_actions(), cycle_actions()))
    def check(L):
        nonlocal past_round_0
        ideals = _nilpotent_ideals(L)
        K, J = _trace_kernel(L), _round_0_kernel(monkeypatch, L)
        assert all(K.contains(U) and J.contains(U) for U in ideals)
        N, scanned = scanned_by(lambda: nilradical(L))
        brute = _brute_force_nilradical(L, ideals)
        assert scanned == 0 and N == brute
        paths.add("trace kernel" if N == K else "radical")
        past_round_0 |= N != J
        full = L.full_space()
        for U in (N, center(L), product_space(L, full, full), full, Subspace.zero(L.field, L.dim)):
            assert verify_nilradical_candidate(L, U) is (U == brute)

    check()
    assert paths == {"trace kernel", "radical"} and past_round_0


def _round_0_kernel(monkeypatch, L):
    """{x : L_x in I_0}, the kernel of x -> Tr(L_x W) for W in the envelope:
    `_envelope_radical` with every later round's form g_i set to 0."""
    with monkeypatch.context() as m:
        m.setattr(invariants, "_lifted_trace_digit", lambda A, p, i: 0)
        return _envelope_radical(L)


@pytest.mark.parametrize(
    "L",
    [identity_action(m, F3) for m in (3, 6, 9)]
    + [linear_action(Matrix(F3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]), F3, "jordan-action-3")],
    ids=lambda L: L.name,
)
def test_radical_rounds_find_the_nilradical_without_a_scan(monkeypatch, L):
    # every trace of L_x W vanishes mod 3, so the trace kernel is L and so
    # is the round-0 kernel; round 1 removes x, leaving F^m, except for
    # m = 9, where Tr(L_x^3) = 9 makes g_1 vanish too and round 2 does
    n = L.dim
    assert _trace_kernel(L) == L.full_space() == _round_0_kernel(monkeypatch, L)
    P = rand_invertible(F3, n, random.Random(n))
    V = [L.basis_vector(i) for i in range(1, n)]
    for M, vectors in ((L, V), (change_of_basis(L, P), carried(P, V))):
        N, scanned = scanned_by(lambda: nilradical(M))
        assert scanned == 0 and N == Subspace.from_vectors(F3, n, vectors)
        assert verify_nilradical_candidate(M, N) and not verify_nilradical_candidate(M, M.full_space())


def test_nilradical_over_rationals():
    H = heisenberg(QQ)
    assert nilradical(H) == H.full_space()
    O = oscillator(QQ)
    assert nilradical(O) == span(QQ, 4, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert nilradical(make_d(Matrix(QQ, [[0, 1], [-1, 0]]), QQ)).is_zero()


@pytest.mark.parametrize("F", [QQ, F5], ids=repr)
def test_nilradical_where_the_trace_kernel_is_everything(F):
    # over QQ and over GF(5), p > n, the envelope's radical takes one round
    L = cycle_action(F)
    assert _trace_kernel(L) == L.full_space()
    assert nilradical(L) == span(F, 4, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


# -- the trace kernel, from the left operators alone ----------------------------


def _check_trace_kernel_holds_the_ideals(L):
    """K = `_trace_kernel(L)`, cut from the n + 1 left-operator trace rows,
    holds the brute-force nilradical and every abelian ideal of every
    dimension.  The ideals come from uncut ideal walks; `all_abelian_ideals`,
    whose walk K cuts, finds the same abelian ideals."""
    K = _trace_kernel(L)
    with _request(DEFAULT_SCAN_BUDGET):
        ideals = {d: _scan_dim(L, d, MODE_IDEAL, -1)[1] for d in range(1, L.dim + 1)}
    nilpotent = [U for Us in ideals.values() for U in Us if series(subalgebra_table(L, U)).nilpotent]
    assert K.contains(_brute_force_nilradical(L, nilpotent)), L.name
    for d, Us in ideals.items():
        abelian = [U for U in Us if is_abelian_subspace(L, U)]
        assert all_abelian_ideals(L, d) == abelian, (L.name, d)
        assert all(K.contains(U) for U in abelian), (L.name, d)


@pytest.mark.parametrize("F", [F3, F5, F7], ids=repr)
def test_left_trace_kernel_holds_every_nilpotent_and_abelian_ideal(F):
    for L in standard_fixtures(F, max_dim=MAX_DIM[F.p]):
        _check_trace_kernel_holds_the_ideals(L)


@settings(max_examples=60)
@given(st.one_of(family_algebras((F3, F5, F7)), left_only_actions()))
def test_left_trace_kernel_holds_every_ideal_on_generated_algebras(L):
    _check_trace_kernel_holds_the_ideals(L)


def _trace_sweep():
    """(table, whether `nilradical` needs the envelope's radical) over
    GF(3), GF(5) and GF(7): the standard fixtures, rotext, the oscillator,
    seeded draws of families a, c, d and e and of left-only actions on
    F^2, and x acting from the left as the identity on F^3; each (+) F
    where it fits, in its canonical basis and under a seeded basis change.
    Of these only the identity action over GF(3) has every trace 0, so K =
    L there and K is not nilpotent."""
    rng = random.Random(37)
    for F in (F3, F5, F7):
        p = F.p

        def matrix(rows, cols):
            return Matrix(F, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])

        tables = [*standard_fixtures(F, max_dim=MAX_DIM[p]), heisenberg_rotation_extension(F), oscillator(F)]
        for _ in range(12):
            (a, b), (c, _) = matrix(2, 2).data
            traceless = Matrix(F, [[a, b], [c, -a]])
            lam, x, y = matrix(2, 2), rng.randrange(p), rng.randrange(p)
            mu = Matrix(F, [[x * (i == j) + y * lam.data[i][j] for j in range(2)] for i in range(2)])
            (a, b), (c, d), (e, f) = matrix(3, 2).data
            phi = Matrix(F, [[a, b, 0], [c, d, 0], [e, f, a + d]])
            v = (0, 0, 0 if F.of(a + d) else rng.randrange(p))
            tables += [make_c(traceless, F), make_d(traceless, F), make_a(lam, mu, F)]
            tables += [make_e(phi, -phi, v, 4, F), left_only_action(matrix(2, 2), F)]
        identity = left_only_action(Matrix.identity(F, 3), F)
        for L in [*tables, identity]:
            envelope = p == 3 and L is identity
            if L.dim < MAX_DIM[p]:
                L = direct_sum(L, abelian_algebra(1, F))
            yield L, envelope
            yield change_of_basis(L, rand_invertible(F, L.dim, rng)), envelope


def test_left_trace_kernel_is_the_two_sided_one_and_certifies(monkeypatch):
    # guards cost, not correctness: the right multiplications would cut no
    # further on these tables, and K is the nilradical on all of them but
    # the identity action over GF(3), where `nilradical` goes on to the
    # envelope's radical
    calls = []

    def counting(L):
        calls.append(L)
        return envelope_radical(L)

    envelope_radical = invariants._envelope_radical
    monkeypatch.setattr(invariants, "_envelope_radical", counting)
    tables = envelopes = 0
    for L, envelope in _trace_sweep():
        two_sided = Subspace._kernel(L.field, L.dim, reference_two_sided_trace_rows(L))
        assert _trace_kernel(L) == two_sided, L.name
        calls.clear()
        N = nilradical(L)
        assert calls == ([L] if envelope else []), L.name
        assert N == (_envelope_radical(L) if envelope else _trace_kernel(L)), L.name
        tables += 1
        envelopes += envelope
    assert envelopes == 2 and tables > 400


def test_trace_rows_take_one_product_per_pair_of_left_operators(monkeypatch):
    # n(n+1)/2 traces Tr(L_e_i L_e_j), i <= j, each one dot product
    calls = []

    def counting(u, v):
        calls.append(len(u))
        return _dot_rows(u, v)

    monkeypatch.setattr(invariants, "_dot_rows", counting)
    for F in (F3, F7, QQ):
        rot = Matrix(F, [[0, 1], [-1, 0]])
        for L in (
            abelian_algebra(1, F),
            heisenberg(F),
            oscillator(F),
            direct_sum(make_d(rot, F), abelian_algebra(2, F)),
            direct_sum(make_c(rot, F), abelian_algebra(2, F)),
        ):
            n = L.dim
            calls.clear()
            _trace_kernel(L)
            assert calls == [n * n] * (n * (n + 1) // 2), (F, L.name)


def test_verify_nilradical_candidate_over_rationals():
    O = oscillator(QQ)
    good = Subspace.from_vectors(QQ, 4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert verify_nilradical_candidate(O, good)
    assert not verify_nilradical_candidate(O, O.full_space())  # not nilpotent
    assert not verify_nilradical_candidate(O, Subspace.zero(QQ, 4))  # not maximal
    D = make_d(Matrix(QQ, [[0, 1], [-1, 0]]), QQ)
    assert verify_nilradical_candidate(D, Subspace.zero(QQ, 3))


def test_verify_nilradical_candidate_checks_its_inputs():
    O = oscillator(QQ)
    with pytest.raises(FieldMismatchError):
        verify_nilradical_candidate(O, Subspace.zero(F3, 4))
    with pytest.raises(DimensionMismatchError):
        verify_nilradical_candidate(O, Subspace.zero(QQ, 3))
    # [e0, e0] = e1, [e0, e1] = e0 breaks the Leibniz rule at (0, 1, 0);
    # the table is checked before the candidate
    bad = AlgebraTable.from_products(QQ, 2, {(0, 0): (0, 1), (0, 1): (1, 0)})
    for N in (Subspace.zero(QQ, 2), Subspace.zero(F3, 3)):
        with pytest.raises(NotLeibnizError):
            verify_nilradical_candidate(bad, N)


def test_verify_nilradical_candidate_rejects_nonmaximal_nilpotent_ideals():
    # rotext (+) Q has the 4-dim nilradical span(e1, e2, e3, e5)
    L = direct_sum(heisenberg_rotation_extension(QQ), abelian_algebra(1, QQ))
    Z = center(L)
    assert Z.dim == 2 and not verify_nilradical_candidate(L, Z)
    full = L.full_space()
    L2 = product_space(L, full, full)
    assert L2.dim == 3 and not verify_nilradical_candidate(L, L2)
    N = span(QQ, 5, (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1))
    assert verify_nilradical_candidate(L, N)


def test_verify_nilradical_candidate_agrees_with_scan():
    for F in (F3, F5):
        for L in standard_fixtures(F, max_dim=4):
            N = nilradical(L)
            assert verify_nilradical_candidate(L, N)


# -- annihilator bound -------------------------------------------------------------


def test_annihilator_bound_pair_action():
    L = make_a(Matrix.identity(F3, 2), ROT3, F3)
    A = span(F3, 4, (1, 0, 0, 0), (0, 1, 0, 0))
    holds, lhs, rhs = check_annihilator_bound(L, A)
    assert holds and lhs == 2 and rhs == 0


def test_annihilator_bound_with_abelian_summand():
    L = direct_sum(make_a(Matrix.identity(F3, 2), ROT3, F3), abelian_algebra(2, F3))
    A = span(F3, 6, (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    holds, lhs, rhs = check_annihilator_bound(L, A)
    assert holds and lhs == 4 and rhs == 2


def test_annihilator_bound_rejects_degenerate():
    L = heisenberg(F3)
    with pytest.raises(ValueError):
        check_annihilator_bound(L, Subspace.zero(F3, 3))
    with pytest.raises(ValueError):
        check_annihilator_bound(L, L.full_space())  # not abelian


def test_annihilator_bound_sweep():
    # The bound's proof runs through the Fitting-decomposition lemma, which
    # needs codimension > 1, so the sweep quantifies over codim >= 2 pairs.
    checked = 0
    for F in (F2, F3):
        for L in standard_fixtures(F, max_dim=5):
            if L.dim == 0:
                continue
            a = alpha(L).alpha
            if L.dim - a < 2:
                continue
            for A in all_abelian_subalgebras(L, a):
                if not is_maximal_subalgebra(L, A):
                    continue
                holds, lhs, rhs = check_annihilator_bound(L, A)
                assert holds, (L.name, lhs, rhs)
                checked += 1
    assert checked >= 10


def test_annihilator_bound_sharp_at_codimension_one():
    # At codimension 1 the inequality can genuinely fail; this pins the
    # boundary of the bound's domain.
    L = make_c(Matrix(F3, [[0, 1], [0, 0]]), F3)
    A = span(F3, 4, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))  # a, b, y
    assert is_abelian_subspace(L, A) and is_subalgebra(L, A)
    assert alpha(L).alpha == 3 and is_maximal_subalgebra(L, A)
    holds, lhs, rhs = check_annihilator_bound(L, A)
    assert not holds and lhs == 1 and rhs == 2


# -- subspace iterations against loops written out one by one ------------------
#
# Each reference below iterates with its own loop and stop test, and tests
# membership by subtracting basis-row multiples in field arithmetic; the
# package runs all of them through `linalg._chain`, `Subspace._extension`
# and the fraction-free `Subspace._contains`.


def _ref_series(L):
    full = L.full_space()
    derived = [full]
    while True:
        nxt = product_space(L, derived[-1], derived[-1])
        if nxt == derived[-1]:
            break
        derived.append(nxt)
        if nxt.is_zero():
            break
    lower = [full]
    while True:
        nxt = product_space(L, full, lower[-1])
        if nxt == lower[-1]:
            break
        lower.append(nxt)
        if nxt.is_zero():
            break
    solvable = derived[-1].is_zero()
    length = next(i for i, s in enumerate(derived) if s.is_zero()) if solvable else None
    return tuple(derived), tuple(lower), solvable, lower[-1].is_zero(), length


def _ref_is_nilpotent_subalgebra(L, U):
    C = U
    while not C.is_zero():
        nxt = product_space(L, U, C)
        if nxt == C:
            return False
        C = nxt
    return True


def _ref_generated_subalgebra(L, S):
    W = S
    while True:
        W2 = subspace_sum(W, product_space(L, W, W))
        if W2 == W:
            return W
        W = W2


def _ref_fitting(L, A):
    F, n = L.field, L.dim
    L1 = L.full_space()
    while True:
        nxt = product_space(L, A, L1)
        if nxt == L1:
            break
        L1 = nxt
    ops = [mult_operator(L, a, "left") for a in A.basis.data]
    L0 = Subspace.zero(F, n)
    while True:
        # v in the next term iff f([a, v]) = 0 for every functional f that
        # vanishes on L0 and every basis row a of A
        funcs = L0.complement_functionals().data
        rows = [(Matrix(F, [f]) @ op).data[0] for op in ops for f in funcs]
        if rows:
            nxt = Subspace.from_vectors(F, n, Matrix(F, rows).kernel_basis().data)
        else:
            nxt = Subspace.full(F, n)
        if nxt == L0:
            break
        L0 = nxt
    return L0, L1


def _ref_extend_to_full_basis(U):
    F, n = U.field, U.ambient_dim
    rows = [list(r) for r in U.basis.data]
    for j in range(n):
        e = [F.one if i == j else F.zero for i in range(n)]
        if Subspace.from_vectors(F, n, rows + [e]).dim > len(rows):
            rows.append(e)
    return Matrix(F, rows)


def _ref_membership(U, v):
    """(contains_vector, coordinates) of v, by the residual of v after each
    basis row clears its pivot column."""
    F = U.field
    w = [F.of(x) for x in v]
    residual = w
    for pc, row in zip(U.pivots, U.basis.data):
        c = residual[pc]
        residual = [F.sub(x, F.mul(c, y)) for x, y in zip(residual, row)]
    inside = not any(residual)
    return inside, (tuple(w[pc] for pc in U.pivots) if inside else None)


FIELDS_F3_F5_QQ = (F3, F5, QQ)


@settings(max_examples=100)
@given(
    st.one_of(
        family_algebras(FIELDS_F3_F5_QQ),
        identity_actions(FIELDS_F3_F5_QQ),
        cycle_actions(FIELDS_F3_F5_QQ),
        left_only_actions(FIELDS_F3_F5_QQ),
    )
)
def test_subspace_iterations_match_reference_loops(L):
    F, n = L.field, L.dim
    rep = series(L)
    assert (
        rep.derived_chain,
        rep.lower_central_chain,
        rep.solvable,
        rep.nilpotent,
        rep.derived_length,
    ) == _ref_series(L)
    C, S, Z = center(L), squares_ideal(L), Subspace.zero(F, n)
    subspaces = [C, S, Z, L.full_space(), *rep.derived_chain, *rep.lower_central_chain]
    lines = [span(F, n, L.basis_vector(i)) for i in range(n)]
    subspaces += lines
    es = [L.basis_vector(i) for i in range(n)]
    vectors = es + [bracket(L, x, y) for x in es for y in es]
    for U in subspaces:
        assert generated_subalgebra(L, U) == _ref_generated_subalgebra(L, U)
        assert U.extend_to_full_basis() == _ref_extend_to_full_basis(U)
        if is_subalgebra(L, U):
            assert _is_nilpotent_subalgebra(L, U) == _ref_is_nilpotent_subalgebra(L, U)
        # coordinates (1, 2, ..) of a combination of the basis rows
        inside = [
            sum(F.mul(F.of(r + 1), row[k]) for r, row in enumerate(U.basis.data)) for k in range(n)
        ]
        for v in vectors + [inside]:
            assert (U.contains_vector(v), U.coordinates(v)) == _ref_membership(U, v)
    # C and S act by 0 from the left; an abelian line of a basis vector
    # acts by its left multiplication
    for A in (C, S, Z, *lines):
        if is_abelian_subspace(L, A):
            split = fitting_decomposition(L, A)
            assert (split.L0, split.L1) == _ref_fitting(L, A)
