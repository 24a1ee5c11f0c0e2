"""Series, solvability and nilpotency, Fitting decomposition, nilradical,
and the annihilator-dimension bound.

Convention: the derived series is D0 = L, D(k+1) = [Dk, Dk]; the lower
central series is left-normed, C1 = L, C(k+1) = [L, Ck].  An algebra is
solvable when the derived series reaches zero and nilpotent when the lower
central series does.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernel import MODE_IDEAL
from .algebra import (
    AlgebraTable,
    _bracket,
    _check_subspace,
    _stacked_action_kernel,
    center,
    is_abelian_subspace,
    is_ideal,
    is_subalgebra,
    left_annihilator,
    mult_operator,
    product_space,
    quotient,
    require_leibniz,
)
from .errors import ConsistencyError
from .linalg import Matrix, Subspace, subspace_intersect, subspace_sum
from .search import DEFAULT_SCAN_BUDGET, _request, _scan_dim, _trace_functionals


@dataclass(frozen=True)
class SeriesReport:
    """Derived and lower-central chains, computed to stabilization."""

    derived_chain: tuple
    lower_central_chain: tuple
    solvable: bool
    nilpotent: bool
    derived_length: int | None

    @property
    def derived_dims(self) -> tuple:
        return tuple(s.dim for s in self.derived_chain)

    @property
    def lower_central_dims(self) -> tuple:
        return tuple(s.dim for s in self.lower_central_chain)


@dataclass(frozen=True)
class FittingSplit:
    """Splitting of the algebra under the left actions of an abelian subalgebra."""

    L0: Subspace
    L1: Subspace


def series(L: AlgebraTable) -> SeriesReport:
    """Derived and lower central series of L; cached on L."""
    require_leibniz(L)
    rep = L._cache.get("series")
    if rep is not None:
        return rep
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
    nilpotent = lower[-1].is_zero()
    length = None
    if solvable:
        length = next(i for i, s in enumerate(derived) if s.is_zero())
    rep = SeriesReport(tuple(derived), tuple(lower), solvable, nilpotent, length)
    L._cache["series"] = rep
    return rep


def is_nilpotent_matrix(M: Matrix) -> bool:
    return M.power(M.rows).is_zero()


def fitting_decomposition(L: AlgebraTable, A: Subspace) -> FittingSplit:
    """Split L = L0 (+) L1 under the commuting family of left actions of A.

    L1 is the stable image of U -> [A, U] starting from L; L0 is the stable
    preimage chain K(i+1) = {v : [a, v] in Ki for all a}, starting from 0.
    Directness and [A, L1] = L1 are verified and cannot fail on a valid
    Leibniz table with abelian A.
    """
    require_leibniz(L)
    if not is_abelian_subspace(L, A):
        raise ValueError("fitting decomposition needs an abelian subalgebra")
    F = L.field
    n = L.dim

    L1 = L.full_space()
    while True:
        nxt = product_space(L, A, L1)
        if nxt == L1:
            break
        L1 = nxt

    ops = [mult_operator(L, a, "left").matrix for a in A.basis.data]
    L0 = Subspace.zero(F, n)
    while True:
        # v in next iff every [a, v] lies in the current L0.
        funcs = L0.complement_functionals()
        rows = []
        for op in ops:
            for f in funcs.data:
                # condition row: f @ (op @ v) = (f @ op) @ v
                rows.append((Matrix._canonical(F, [f], n) @ op).data[0])
        if not rows:
            nxt = Subspace.full(F, n)
        else:
            ker = Matrix._canonical(F, rows, n).kernel_basis()
            nxt = Subspace._span(F, n, ker.data)
        if nxt == L0:
            break
        L0 = nxt

    if subspace_sum(L0, L1).dim != n or not subspace_intersect(L0, L1).is_zero():
        raise ConsistencyError("fitting split is not direct")
    if product_space(L, A, L1) != L1:
        raise ConsistencyError("[A, L1] != L1 after stabilization")
    return FittingSplit(L0, L1)


def ideal_closure(L: AlgebraTable, S: Subspace) -> Subspace:
    """Least two-sided ideal containing S."""
    _check_subspace(L, S)
    return _close_ideal(L, S, S.basis.data)


def _close_ideal(L: AlgebraTable, W: Subspace, frontier) -> Subspace:
    """Least two-sided ideal containing W, where W is the span of an ideal
    and the vectors of `frontier`.

    Each vector is bracketed once, when it enters the frontier, with every
    basis vector on both sides; a bracket outside the current span joins
    both the span and the frontier.  Every vector spanning the result has
    then been bracketed into it, so the result is an ideal.
    """
    F, n = L.field, L.dim
    basis = [L.basis_vector(j) for j in range(n)]
    frontier = list(frontier)
    while frontier and W.dim < n:
        v = frontier.pop()
        for e in basis:
            for w in (_bracket(L, v, e), _bracket(L, e, v)):
                r = W._reduce(w)
                if any(r):
                    W = Subspace._span(F, n, [*W.basis.data, r])
                    frontier.append(r)
    return W


def _is_nilpotent_subalgebra(L: AlgebraTable, U: Subspace) -> bool:
    """Lower central series of the subalgebra U, computed in the ambient
    coordinates of L: C1 = U, C(k+1) = [U, Ck] decreases to zero or stalls."""
    C = U
    while not C.is_zero():
        nxt = product_space(L, U, C)
        if nxt == C:
            return False
        C = nxt
    return True


def nilradical(L: AlgebraTable, budget: int = DEFAULT_SCAN_BUDGET) -> Subspace:
    """Largest nilpotent ideal N (prime fields only), as an RREF subspace.

    First the trace form.  Let K be the common kernel of the functionals
    x -> Tr(M_x W), M in {L, R}, W in {1, L_e_j, R_e_j}, that the
    abelian-ideal scans already use (`search._trace_functionals`).  Every
    nilpotent ideal lies in K, in every characteristic (see `search`), so
    N <= K; when K is itself an ideal and nilpotent, K <= N, and K is the
    nilradical with no scan.  K can be larger than N: over GF(3), x acting
    as the identity on F^3 has every trace 0, so K = L, which is not
    nilpotent.

    Otherwise two standard facts (Ayupov-Omirov-Rakhimov, *Leibniz Algebras:
    Structure and Classification*, 2019) make the scan cheap:

    * a sum of nilpotent ideals is nilpotent, so N is the unique nilpotent
      ideal of maximal dimension;
    * the center Z is a nilpotent ideal, so Z <= N, and an ideal J >= Z is
      nilpotent iff J/Z is: if C^m(J) <= Z then C^(m+1)(J) = [J, Z] = 0.

    Hence N is the preimage of the nilradical of L/Z.  The quotient by the
    center is repeated until the center is everything (the algebra is
    nilpotent) or zero; a centerless algebra's ideal strata are then scanned
    top-down, and the first stratum holding a nilpotent ideal holds N, which
    must be the only nilpotent ideal there.  The call is one request:
    `budget` bounds the subspaces scanned over all strata, and exceeding it
    raises BudgetExceededError.  Either way the result is checked to be a
    nilpotent ideal of L before it is returned.
    """
    require_leibniz(L)
    if not L.field.is_prime_field:
        raise ValueError(
            "exact nilradical search needs a prime field; "
            "use verify_nilradical_candidate over the rationals"
        )
    with _request(budget):
        K = _trace_kernel(L)
        if is_ideal(L, K) and _is_nilpotent_subalgebra(L, K):
            return K
        return _scanned_nilradical(L)


def _trace_kernel(L: AlgebraTable) -> Subspace:
    """The common kernel of `search._trace_functionals`; it holds every
    nilpotent ideal."""
    return _stacked_action_kernel(L, _trace_functionals(L))


def _scanned_nilradical(L: AlgebraTable) -> Subspace:
    """The nilradical by center quotients and a top-down ideal scan of the
    centerless quotient; scans debit the open request."""
    F = L.field
    # M is the current quotient; the rows of `lift` are its basis vectors in
    # the coordinates of L, and `kernel` spans the preimage of zero in L.
    M = L
    lift = Matrix.identity(F, L.dim)
    kernel: list = []
    while True:
        Z = center(M)
        if Z.dim == M.dim:
            top = Z
            break
        if Z.is_zero():
            top = _centerless_nilradical(M)
            break
        kernel.extend(lift.apply_row(z) for z in Z.basis.data)
        P = Z.extend_to_full_basis()
        M, _ = quotient(M, Z)
        lift = Matrix(F, P.data[Z.dim :]) @ lift
    N = Subspace._span(F, L.dim, kernel + [lift.apply_row(v) for v in top.basis.data])
    if not is_ideal(L, N) or not _is_nilpotent_subalgebra(L, N):
        raise ConsistencyError("nilradical candidate failed to be a nilpotent ideal")
    return N


def _centerless_nilradical(L: AlgebraTable) -> Subspace:
    """The nilpotent ideal of largest dimension, scanning strata top-down."""
    for d in range(L.dim, -1, -1):
        _, ideals = _scan_dim(L, d, MODE_IDEAL, -1)
        nilpotent = [U for U in ideals if _is_nilpotent_subalgebra(L, U)]
        if len(nilpotent) > 1:
            raise ConsistencyError(
                "two nilpotent ideals of maximal dimension %d; their sum "
                "would be a larger nilpotent ideal" % d
            )
        if nilpotent:
            return nilpotent[0]
    raise ConsistencyError("no nilpotent ideal found, not even zero")


def verify_nilradical_candidate(L: AlgebraTable, N: Subspace) -> bool:
    """Certificate check usable over any field.

    True iff N is a two-sided ideal, nilpotent as a subalgebra, and every
    nilpotent ideal J_i generated by a single basis vector e_i already lies
    inside N.  This is a partial maximality certificate: a nilpotent ideal
    that no single basis vector generates is not examined, and full
    maximality needs the prime-field scan.

    Once N is known to be a nilpotent ideal, the test runs modulo N.  For
    e_i in N, J_i lies in N because N is an ideal.  For e_i outside N, J_i
    does not lie in N, and J_i is nilpotent iff K_i = N + J_i is: a sum of
    nilpotent ideals is nilpotent, and an ideal inside a nilpotent one is
    nilpotent.  K_i is the least ideal containing N + span(e_i), so only
    e_i and what it generates are bracketed, and each distinct K_i is
    tested once.
    """
    require_leibniz(L)
    if not is_ideal(L, N):
        return False
    if not _is_nilpotent_subalgebra(L, N):
        return False
    tested = set()
    for i in range(L.dim):
        e = L.basis_vector(i)
        if N._contains(e):
            continue
        K = _close_ideal(L, Subspace._span(L.field, L.dim, [*N.basis.data, e]), [e])
        if K not in tested:
            if _is_nilpotent_subalgebra(L, K):
                return False
            tested.add(K)
    return True


def check_annihilator_bound(L: AlgebraTable, A: Subspace) -> tuple[bool, int, int]:
    """Compare dim Ann_l(L) against n - m - (floor(m^2/4) + 1) with m = codim A.

    The caller must supply an abelian subalgebra that is a maximal subalgebra
    of maximal dimension among abelian subalgebras; those hypotheses are
    checked by the search module, not here.  The inequality is guaranteed
    only for codimension m >= 2 (its derivation splits off a complement on
    which the subalgebra acts, which needs m > 1); at m = 1 it can fail.
    Returns (holds, lhs, rhs).
    """
    if not (is_abelian_subspace(L, A) and is_subalgebra(L, A)):
        raise ValueError("bound applies to abelian subalgebras only")
    if L.dim > 0 and A.dim == 0:
        raise ValueError("zero subalgebra is never of maximal abelian dimension")
    n = L.dim
    m = n - A.dim
    lhs = left_annihilator(L).dim
    rhs = n - m - (m * m // 4 + 1)
    return lhs >= rhs, lhs, rhs
