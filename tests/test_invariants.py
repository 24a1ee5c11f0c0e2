import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_algebras.algebra import (
    AlgebraTable,
    center,
    change_of_basis,
    direct_sum,
    is_abelian_subspace,
    is_ideal,
    is_subalgebra,
    mult_operator,
    product_space,
    quotient,
    subalgebra_table,
)
from leibniz_algebras.catalog import (
    heisenberg_rotation_extension,
    rotation_2x2,
    standard_fixtures,
)
from leibniz_algebras.errors import (
    BudgetExceededError,
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
    oscillator,
)
from leibniz_algebras.fields import QQ
from leibniz_algebras.invariants import (
    _envelope_kernel,
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
    gaussian_binomial,
    subspace_intersect,
    subspace_sum,
)
from leibniz_algebras._kernel import MODE_IDEAL
from leibniz_algebras.search import (
    DEFAULT_SCAN_BUDGET,
    _request,
    _scan_dim,
    all_abelian_subalgebras,
    alpha,
    is_maximal_subalgebra,
)

from conftest import (
    F2,
    F3,
    F5,
    F7,
    cycle_action,
    cycle_actions,
    family_algebras,
    identity_action,
    identity_actions,
    one_budget_algebras,
    rand_invertible,
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
        ops = [mult_operator(L, L.basis_vector(i), "left").matrix for i in range(L.dim)]
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
                    op = mult_operator(L, a, "left").matrix
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


def _center_dims(L):
    """Dimensions of the centers met while dividing L by its center until the
    center is zero or everything."""
    dims = []
    while True:
        Z = center(L)
        dims.append(Z.dim)
        if Z.is_zero() or Z.dim == L.dim:
            return dims
        L, _ = quotient(L, Z)


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
    inputs = _nilradical_inputs()
    # the inputs cover every path: centerless at once, centerless after a
    # center quotient, and nilpotent after a center quotient
    chains = [_center_dims(L) for L in inputs]
    assert any(len(c) >= 2 and c[-1] == L.dim - sum(c[:-1]) for c, L in zip(chains, inputs))
    assert any(c == [0] and L.dim > 0 for c, L in zip(chains, inputs))
    assert any(len(c) >= 2 and c[-1] == 0 for c in chains)
    for L in inputs:
        assert nilradical(L) == _brute_force_nilradical(L), L.name


def test_nilradical_budget_is_enforced():
    # the trace kernel certifies d(rot)'s zero nilradical without a scan
    assert nilradical(make_d(ROT3, F3), budget=0).is_zero()
    # x acting as the identity on F^3 over GF(3): the trace kernel is L,
    # which is not nilpotent, so the center-free L is scanned top-down
    L = identity_action(3, F3)
    assert center(L).is_zero() and _trace_kernel(L) == L.full_space()
    # the nilradical F^3 is in stratum 3, which is scanned in full
    strata = sum(gaussian_binomial(4, d, 3) for d in (4, 3))
    assert nilradical(L, budget=strata) == span(F3, 4, *(L.basis_vector(i) for i in (1, 2, 3)))
    for budget in (1, strata - 1):
        with pytest.raises(BudgetExceededError):
            nilradical(L, budget=budget)


@pytest.mark.parametrize("name", sorted(one_budget_algebras()))
def test_trace_kernel_certifies_without_a_scan(monkeypatch, name):
    L = one_budget_algebras()[name]
    N, scanned = scanned_by(monkeypatch, lambda: nilradical(L))
    assert scanned == 0 and N == _trace_kernel(L)
    assert nilradical(L, budget=0) == N == _brute_force_nilradical(L)


def test_nilradical_matches_brute_force_on_generated_algebras():
    # every way to the nilradical occurs among the draws: the trace kernel,
    # the envelope's kernel (the 3-cycle over GF(5) and GF(7)) and the
    # center-quotient scan (x acting as the identity on F^3 over GF(3),
    # whose trace kernels are everything); on each path the nilradical
    # check accepts exactly the brute-force nilradical
    paths = set()

    @settings(max_examples=100)
    @given(st.one_of(family_algebras((F3, F5, F7)), identity_actions(), cycle_actions()))
    def check(L):
        ideals = _nilpotent_ideals(L)
        K, J = _trace_kernel(L), _envelope_kernel(L)
        assert all(K.contains(U) and J.contains(U) for U in ideals)
        N = nilradical(L)
        brute = _brute_force_nilradical(L, ideals)
        assert N == brute
        paths.add("trace kernel" if N == K else "envelope" if N == J else "scanned")
        full = L.full_space()
        for U in (N, center(L), product_space(L, full, full), full, Subspace.zero(L.field, L.dim)):
            assert verify_nilradical_candidate(L, U) is (U == brute)

    check()
    assert paths == {"trace kernel", "envelope", "scanned"}


def test_nilradical_over_rationals():
    H = heisenberg(QQ)
    assert nilradical(H) == H.full_space()
    O = oscillator(QQ)
    assert nilradical(O) == span(QQ, 4, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert nilradical(make_d(Matrix(QQ, [[0, 1], [-1, 0]]), QQ)).is_zero()


@pytest.mark.parametrize("F", [QQ, F5], ids=repr)
def test_nilradical_where_the_trace_kernel_is_everything(F):
    # the envelope's kernel certifies, with no scan
    L = cycle_action(F)
    assert _trace_kernel(L) == L.full_space()
    assert nilradical(L, budget=0) == span(F, 4, (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


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
