"""Series, solvability and nilpotency, Fitting decomposition, nilradical,
and the annihilator-dimension bound.

Convention: the derived series is D0 = L, D(k+1) = [Dk, Dk]; the lower
central series is left-normed, C1 = L, C(k+1) = [L, Ck].  An algebra is
solvable when the derived series reaches zero and nilpotent when the lower
central series does.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    AlgebraTable,
    _action_preimage,
    _actions,
    _check_subspace,
    _derived_space,
    _per_table,
    _product_within,
    is_abelian_subspace,
    is_ideal,
    left_annihilator,
    product_space,
    require_leibniz,
)
from .errors import ConsistencyError
from .linalg import Subspace, _chain, _clear, _dot_rows, _lead, _matmul, subspace_intersect, subspace_sum


class SeriesReport(NamedTuple):
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


class FittingSplit(NamedTuple):
    """Splitting of the algebra under the left actions of an abelian subalgebra."""

    L0: Subspace
    L1: Subspace


@_per_table
def series(L: AlgebraTable) -> SeriesReport:
    """Derived and lower central series of L.  Both start with D1 = C2 =
    [L, L], which is read off the table (`algebra._derived_space`), and go
    on from there by brackets; a perfect L's chains both stop at L.  Both
    only shrink, D(k+1) = [Dk, Dk] <= Dk and C(k+1) = [L, Ck] <= Ck, so
    each step is bounded by the term it steps from
    (`algebra._product_within`): a step whose brackets span dim Dk (dim
    Ck) has found the chain stalled and takes no more.

    When L2 = [L, L] is perfect, [L2, L2] = L2, the derived chain stops at
    L2, and so does the lower central one, with no bracket taken:
    L2 = [L2, L2] <= [L, L2] <= [L, L] = L2.  (L2 = 0 is such a case.)"""
    require_leibniz(L)
    full = L.full_space()
    L2 = _derived_space(L)
    if L2 == full:
        derived = lower = [full]
    else:
        derived = [full, *_chain(L2, lambda D: _product_within(L, D, D, D))]
        if len(derived) == 2:
            lower = derived
        else:
            lower = [full, *_chain(L2, lambda C: _product_within(L, full, C, C))]
    solvable = derived[-1].is_zero()
    nilpotent = lower[-1].is_zero()
    length = len(derived) - 1 if solvable else None
    return SeriesReport(tuple(derived), tuple(lower), solvable, nilpotent, length)


def fitting_decomposition(L: AlgebraTable, A: Subspace) -> FittingSplit:
    """Split L = L0 (+) L1 under the commuting family of left actions of A.

    L1 is the stable image of U -> [A, U] starting from L; L0 is the stable
    preimage chain K(i+1) = {v : [a, v] in Ki for all a}, starting from 0,
    whose step is the preimage of Ki under the left actions L_a of the
    canonical rows a of A, on the integer view (`algebra._action_preimage`).
    Directness and [A, L1] = L1 are verified and cannot fail on a valid
    Leibniz table with abelian A.
    """
    require_leibniz(L)
    if not is_abelian_subspace(L, A):
        raise ValueError("fitting decomposition needs an abelian subalgebra")
    F, n = L.field, L.dim
    L1 = _chain(L.full_space(), lambda U: product_space(L, A, U))[-1]
    ops = _actions(L, A._rows, ("left",))
    L0 = _chain(Subspace.zero(F, n), lambda K: _action_preimage(ops, K))[-1]

    if subspace_sum(L0, L1).dim != n or not subspace_intersect(L0, L1).is_zero():
        raise ConsistencyError("fitting split is not direct")
    if product_space(L, A, L1) != L1:
        raise ConsistencyError("[A, L1] != L1 after stabilization")
    return FittingSplit(L0, L1)


def _is_nilpotent_subalgebra(L: AlgebraTable, U: Subspace) -> bool:
    """Lower central series of the subalgebra U, computed in the ambient
    coordinates of L: C1 = U, C(k+1) = [U, Ck] decreases to zero or stalls.
    As U is a subalgebra, [U, Ck] <= Ck, and each step stops at that bound
    (`algebra._product_within`)."""
    return _chain(U, lambda C: _product_within(L, U, C, C))[-1].is_zero()


def _trace_rows(L: AlgebraTable) -> list:
    """The functionals x -> Tr(L_x) and x -> Tr(L_x L_e_j), n + 1 rows of
    ints (residues over GF(p)); row j + 1 has Tr(L_e_i L_e_j) at e_i.

    Every nilpotent ideal N, abelian ones included, lies in their common
    kernel, in every characteristic: the ideals N_1 = N, N_(k+1) = [N, N_k]
    + [N_k, N] reach 0, L_e_j maps each N_k into itself, and for x in N,
    L_x maps L into N_1 and N_k into N_(k+1), so L_x and L_x L_e_j are
    nilpotent.  The lemma needs no right multiplication, and the rows of
    Tr(R_x W) have cut no further on any table tried.

    Tr(AB) = Tr(BA), so each Tr(L_e_i L_e_j) is computed once: n(n+1)/2
    of them.  They are read off the integer view (`_Dc`): over
    QQ its table is D*c, which scales each functional by D or D^2 and
    leaves their span and kernel as they are."""
    p, c, n = L.field.p, L._Dc, L.dim
    # L_e_i flattened row-major (its column k is [e_i, e_k] = c[i][k]),
    # and its transpose
    flat = [sum(zip(*ci), ()) for ci in c]
    flat_t = [sum(ci, ()) for ci in c]
    # T[a][b] = Tr(L_e_a L_e_b), the sum of A[j][k] * B[k][j]
    T = [[0] * n for _ in range(n)]
    for a, A in enumerate(flat):
        for b in range(a, n):
            T[a][b] = T[b][a] = _dot_rows(A, flat_t[b])
    funcs = [[sum(A[:: n + 1]) for A in flat], *T]
    return funcs if p is None else [[x % p for x in f] for f in funcs]


@_per_table
def _trace_kernel(L: AlgebraTable) -> Subspace:
    """K, the common kernel of `_trace_rows`; it holds every nilpotent
    ideal.  Lemma: K is a two-sided ideal of every Leibniz table.  It is the
    intersection of ker T, T(x) = Tr L_x, and rad B, B(x, y) = Tr(L_x L_y).
    L_[a,b] = [L_a, L_b] (Loday, 1993) is traceless, so ker T holds [L, L]
    and is an ideal.  By the cyclicity of the trace, B([a, x], y) =
    B(x, [y, a]) and B([x, a], y) = B(x, [a, y]), so rad B is one too."""
    return Subspace._kernel(L.field, L.dim, _trace_rows(L))


@_per_table
def nilradical(L: AlgebraTable) -> Subspace:
    """Largest nilpotent ideal N, as an RREF subspace, over QQ and GF(p).

    First the trace form.  Let K be the common kernel of the functionals
    x -> Tr(L_x) and x -> Tr(L_x L_e_j), left operators only, that the
    abelian-ideal searches of `search` also use (`_trace_kernel`, cached
    on L).  Every nilpotent ideal lies in K, in every characteristic (see
    `_trace_rows`), so N <= K.  K is always an ideal (`_trace_kernel`), so
    when it is nilpotent, K <= N, and K is the nilradical.

    Otherwise N = {x : L_x in Rad(E)}, E the unital associative algebra
    generated by the L_e_j (`_envelope_radical`), in every characteristic.
    As x -> L_x is a Lie homomorphism (Loday, 1993), L_e L_x = L_x L_e +
    L_[e,x]; so for a nilpotent ideal I the two-sided ideal of E that L_I
    generates is L_I E, whose k-th power lies in (L_I)^k E, which is 0 for
    large k; hence L_I <= Rad(E).  Conversely {x : L_x in Rad(E)} is an
    ideal of L, and a nilpotent one, since a long enough product of its
    L_x is 0.

    Rad(E) is found by the radical algorithm of Ronyai (*J. Symbolic
    Comput.* 9, 1990) in the form of Cohen, Ivanyos and Wales (*J. Pure
    Appl. Algebra* 117/118, 1997).  Over GF(p), with l = floor(log_p n),
    I_-1 = E, I_i = {a in I_(i-1) : g_i(ab) = 0 for all b in E}, and
    Rad(E) = I_l, where g_i(a) = Tr(a~^(p^i)) / p^i mod p for the integer
    lift a~ of a (entries in [0, p)); g_i is linear on I_(i-1).  Over QQ
    and over GF(p) with p > n there is one round, I_0, the radical of E's
    trace form (de Graaf, *Lie Algebras: Theory and Algorithms*, 2000).
    Over GF(3), x acting as the identity on F^3 has every trace 0, so
    K = I_0 = L; round i = 1 removes x.

    No scan runs.  K is returned once shown nilpotent, the pullback of
    Rad(E) once shown a nilpotent ideal, and either is cached on L.

    The cache entry is filled a third way, without this certificate: a
    frame that `classify` matched proves Nil(L) and enters it
    (`_proved_nilradical`).  A Case1_c frame proves it to be [L, L] + C(L),
    heisenberg (+) F^(n-4) of codimension 1 in a non-nilpotent L
    (`classify._match_case1`); a Case2_d frame, C(L), L / C(L) being
    simple (`classify._match_case2`); and a Case3_e frame of K, K itself,
    when K has codimension 1 and its table is heisenberg (+) F^(n-4), so
    nilpotent (`classify._case3_nilradical`).
    """
    require_leibniz(L)
    K = _trace_kernel(L)
    if _is_nilpotent_subalgebra(L, K):
        return K
    N = _envelope_radical(L)
    if is_ideal(L, N) and _is_nilpotent_subalgebra(L, N):
        return N
    raise ConsistencyError("the pullback of the envelope's radical is not a nilpotent ideal")


def _proved_nilradical(L: AlgebraTable, N: Subspace) -> Subspace:
    """Enter N, proved to be Nil(L) without the certificate, as L's cached
    nilradical, as `algebra._inherit_leibniz` enters a passed Leibniz
    check; a nilradical already cached is kept, and the cached one
    returned.  The key is `nilradical`'s own, written out: a wrapper bound
    to that name, such as a tracer's, does not move it."""
    return L._cache.setdefault("nilradical", N)


def _envelope_radical(L: AlgebraTable) -> Subspace:
    """{x : L_x in Rad(E)}, E the unital associative algebra generated by
    the L_e_j; it is the nilradical (see `nilradical`).

    A basis of E (at most n^2 matrices) is closed from the identity: each
    matrix that enlarges the span is multiplied on the right by every
    generator, so the span ends up closed under those products.  Round i
    keeps, of the x that round i-1 kept, those with g_i(L_x W) = 0 for W in
    that basis: X_i = {x : L_x in I_i}.  L_x W lies in I_(i-1), where g_i
    is linear, so each round is one kernel solve on X_(i-1)'s basis.

    Everything runs in ints, on the integer view (`_actions`).  Over
    QQ its generators are D L_e_j, so each word is a nonzero multiple of
    the product it stands for and each row of traces a nonzero multiple of
    its row: neither E's span nor the kernel changes, and one round (X_-1
    the unit rows) ends at the kernel."""
    F, n, p = L.field, L.dim, L.field.p
    X = [[int(j == k) for k in range(n)] for j in range(n)]  # rows: a basis of X_(i-1)
    gens = _actions(L, X, ("left",))  # the L_e_j
    E, words, frontier = [], [], [X]  # E: the pivot rows of the words' span
    while frontier:
        W = frontier.pop()
        lead = _lead(p, _clear(p, [x for row in W for x in row], E), n * n)
        if lead is not None:
            E.append(lead)
            words.append(W)
            frontier.extend(_matmul(W, G, p) for G in gens)
    last = 0  # l = floor(log_p n); one round over QQ
    while p and p ** (last + 1) <= n:
        last += 1
    for i in range(last + 1):
        ops = _actions(L, X, ("left",))
        if i == 0:  # Tr(A W), the sum of the A[j][k] W[k][j]
            rows = [[sum(map(_dot_rows, A, zip(*W))) for A in ops] for W in words]
            rows = rows if p is None else [[x % p for x in row] for row in rows]
        else:
            rows = [[_lifted_trace_digit(_matmul(A, W, p), p, i) for A in ops] for W in words]
        K = Subspace._kernel(F, len(X), rows)._rows
        X = _matmul(K, X, p)
    return Subspace._span(F, n, X)


def _lifted_trace_digit(A: list, p: int, i: int) -> int:
    """g_i(A) = Tr(A~^(p^i)) / p^i mod p, A~ the integer lift of A over
    GF(p), the rows A of ints in [0, p); the power is taken mod p^(i+1).
    On the round's domain p^i divides that trace (the traces of A~^(p^k)
    agree mod p^k, and the previous round's g vanished)."""
    q, n = p ** (i + 1), len(A)
    acc, base, e = [[int(j == k) for k in range(n)] for j in range(n)], A, p**i
    while e:
        if e & 1:
            acc = _matmul(acc, base, q)
        base, e = _matmul(base, base, q), e >> 1
    t = sum(acc[j][j] for j in range(n)) % q
    if t % p**i:
        raise ConsistencyError("Tr(A^(p^%d)) is not divisible by p^%d on I_%d" % (i, i, i - 1))
    return t // p**i


def verify_nilradical_candidate(L: AlgebraTable, N: Subspace) -> bool:
    """True iff N is the nilradical of L, over QQ and GF(p).

    The check is exact: N is compared with `nilradical(L)`, which runs no
    scan and is cached on L, so after `classify` of the same table it costs
    a comparison.  A table that breaks the Leibniz rule raises NotLeibnizError;
    then an N over another field raises FieldMismatchError, and one of
    another ambient dimension DimensionMismatchError.
    """
    require_leibniz(L)
    _check_subspace(L, N)
    return N == nilradical(L)


def check_annihilator_bound(L: AlgebraTable, A: Subspace) -> tuple[bool, int, int]:
    """Compare dim Ann_l(L) against n - m - (floor(m^2/4) + 1) with m = codim A.

    The caller must supply an abelian subalgebra that is a maximal subalgebra
    of maximal dimension among abelian subalgebras; those hypotheses are
    checked by the search module, not here.  The inequality is guaranteed
    only for codimension m >= 2 (its derivation splits off a complement on
    which the subalgebra acts, which needs m > 1); at m = 1 it can fail.
    Returns (holds, lhs, rhs).
    """
    if not is_abelian_subspace(L, A):
        raise ValueError("bound applies to abelian subalgebras only")
    if L.dim > 0 and A.dim == 0:
        raise ValueError("zero subalgebra is never of maximal abelian dimension")
    n = L.dim
    m = n - A.dim
    lhs = left_annihilator(L).dim
    rhs = n - m - (m * m // 4 + 1)
    return lhs >= rhs, lhs, rhs
