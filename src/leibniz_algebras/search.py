"""Exhaustive oracles over prime fields: maximal abelian subalgebra/ideal
dimensions (with witnesses), subalgebra maximality, and brute-force
isomorphism search.

Every search follows the canonical order of subspaces (pivot-column sets
lexicographically, then free entries), so reported dimensions and
witnesses are deterministic; witnesses are the first (lexicographically
least) hits at the maximal dimension.  Budgets count subspaces in that
order, those no search looks at included, so a stratum without a hit costs
its Gaussian binomial and one with a hit its first hit's index + 1.

`all_abelian_ideals` and `all_abelian_subalgebras` walk their strata
through the one kernel in `_scan_py`, and `alpha` walks its strata <= n-2
there.  Every nilpotent ideal N lies in the common kernel K of the trace
form's functionals x -> Tr(L_x W), W in {1, L_e_j}, from the left
multiplications alone (`invariants._trace_kernel`, computed once per
table), in every characteristic: with N_1 = N and
N_(k+1) = [N, N_k] + [N_k, N], ideals of L that reach 0, each W maps N_k
into itself and, for x in N, L_x maps L into N_1 and N_k into N_(k+1), so
L_x W is nilpotent and its trace is 0.  An abelian ideal has N_2 = 0, so
the annihilator of K, the span of those functionals, cuts every row prefix
outside K from an abelian-ideal walk;
counts, matches and witnesses are the same as without the cut.
`invariants.nilradical` returns K itself when K is a nilpotent ideal.

The top-down abelian-ideal searches (`beta`, `classify`'s stratum n-2,
`solvability_from_codim2_ideal`) walk nothing.  While no stratum above d
holds an abelian ideal, every abelian ideal of dimension d contains the
center C(L), as I + C(L) is an abelian ideal, so it lies between C(L) and
K; `_first_abelian_ideal` tests only those candidates.  `alpha` walks no
stratum above n-2 (`_top_strata`).  Stratum n holds an abelian subalgebra
iff every structure constant is 0.  An abelian hyperplane ker f makes
every slice C_k = (c_ijk)_ij of the structure tensor f a^T + b f^T, in
every characteristic, so f lies in the row or the column space of any
nonzero slice, and those at most 2(p+1) lines are stratum n-1's only
candidates (`_abelian_hyperplanes`).  A stratum that is not walked is
debited what its walk would count (`_debit_first`).  `classify` walks
less still: once strata n and n-1 are empty, an abelian ideal of
dimension n-2, or a supplied codimension-2 abelian witness, proves alpha =
n-2, and only without either are the strata <= n-2 walked
(`_walk_strata`).  Those walks are cut by the center: C(L) brackets to 0
with everything, so A + C(L) is abelian for every abelian A, and while no
stratum above d holds an abelian subalgebra every abelian subalgebra of
dimension d contains C(L).  The walk of stratum d passes C(L)'s rows to
the kernel, which skips the subspaces that miss it; the collect-all
scans pass nothing, as below alpha an abelian subalgebra may miss C(L).

One budget bounds a whole request.  Every public entry point that scans,
here and in `classify`, opens a request ledger with its `budget`; every
search takes its limit from the open ledger and debits what it counted,
so the strata of a top-down search, and the searches of nested calls, all
draw on the one budget.  An exhausted budget raises
`BudgetExceededError` rather than passing as a negative answer, and a
negative budget is a ValueError when the request opens.
"""

from __future__ import annotations

import contextvars
import itertools
from contextlib import contextmanager
from typing import NamedTuple

from ._kernel import MODE_ABELIAN, MODE_IDEAL, scan_subspaces
from ._scan_py import _canonical_index, canonical_subspaces, gaussian_binomial
from .algebra import (
    AlgebraTable,
    _bracket,
    _is_frame,
    bracket,
    center,
    generated_subalgebra,
    is_lie,
    is_subalgebra,
    left_annihilator,
    squares_ideal,
)
from .errors import BudgetExceededError, ConsistencyError
from .fields import check_same_field
from .invariants import _trace_kernel, series
from .linalg import Matrix, Subspace, _clear, _lead, _matmul, enumerate_subspaces

DEFAULT_SCAN_BUDGET = 5_000_000


class SearchResult(NamedTuple):
    """Outcome of an exhaustive abelian subalgebra/ideal scan."""

    alpha: int | None = None
    beta: int | None = None
    alpha_witness: Subspace | None = None
    beta_witness: Subspace | None = None
    exhaustive: bool = False
    scanned: int = 0


class IsoResult(NamedTuple):
    isomorphic: bool
    map: Matrix | None = None


def _require_prime_field(L: AlgebraTable, what: str) -> None:
    if not L.field.is_prime_field:
        raise ValueError("%s requires a prime field (enumeration impossible over QQ)" % what)


def table_flat(L: AlgebraTable) -> tuple:
    """The scan kernel's table: the integer view's nonzero products
    (`AlgebraTable._products`), which over GF(p) are the structure
    constants mod p.  Nothing is computed or cached.  The name is kept
    from when the kernel took the flattened n^3 tensor, because
    `perfbench/kernel_check.py` imports it."""
    _require_prime_field(L, "subspace scan")
    return L._products


# what is left of the open request's budget; unset outside a request
_budget_left = contextvars.ContextVar("_budget_left")


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError("scan budget must be >= 0, got %d" % budget)


@contextmanager
def _request(budget: int):
    """The ledger of one request: scans inside the block, by callees too,
    debit `budget`.  A block opened inside an open one shares the open
    ledger and ignores its own `budget`, so a nested call (`alpha` inside
    `alpha_beta`) scans within what is left of the outer request's budget,
    as if it had been passed that remainder.  A negative `budget` is a
    ValueError in every block."""
    _check_budget(budget)
    if _budget_left.get(None) is not None:
        yield
        return
    token = _budget_left.set(budget)
    try:
        yield
    finally:
        _budget_left.reset(token)


def _debit(d: int, scanned: int, truncated: bool) -> None:
    """Debit `scanned` subspaces of stratum d from the open request; a
    truncated stratum has spent what was left and raises."""
    _budget_left.set(_budget_left.get() - scanned)
    if truncated:
        raise BudgetExceededError(
            "scan budget exhausted at dimension %d after %d subspaces" % (d, scanned)
        )


def _scan_dim(L: AlgebraTable, d: int, mode: int, collect: int, contains=()):
    """Scan stratum d through the kernel, limited by the open request and
    debited to it: (scanned, matches as Subspaces).  Abelian-ideal scans
    are cut by the trace kernel; `contains`, the rows of a central
    subspace that every match contains as the caller vouches, cuts the
    walk further."""
    abelian_ideal = MODE_ABELIAN | MODE_IDEAL
    cut = mode & abelian_ideal == abelian_ideal
    funcs = _trace_kernel(L)._annihilator()._rows if cut else ()
    # positional: wrappers of the kernel forward *args only
    scanned, truncated, matches = scan_subspaces(
        table_flat(L), L.dim, L.field.p, d, mode, _budget_left.get(), collect, funcs, contains
    )
    _debit(d, scanned, truncated)
    return scanned, [Subspace(L.field, L.dim, rows, piv) for piv, rows in matches]


def _debit_first(L: AlgebraTable, d: int, hits):
    """Debit what a walk of stratum d would count, given the stratum's hits
    (all of them, or any subset holding the first): the canonically first
    hit, the least by (pivots, RREF rows), and the count, its canonical
    index + 1 (`_scan_py._canonical_index`), or the stratum's Gaussian
    binomial when there is none.  A budget the walk would run out raises
    the walk's `BudgetExceededError`."""
    n, p = L.dim, L.field.p
    first = min(hits, key=lambda I: (I.pivots, I._rows), default=None)
    if first is None:
        scanned = gaussian_binomial(n, d, p)
    else:
        scanned = _canonical_index(n, p, first.pivots, first._rows) + 1
    # a walk the budget cuts short has counted what was left
    left = _budget_left.get()
    _debit(d, min(scanned, left), scanned > left)
    return first, scanned


def _abelian_hyperplanes(L: AlgebraTable) -> list[Subspace]:
    """Every abelian hyperplane of a non-abelian L, from one nonzero slice
    C_k = (c_ijk)_ij of the structure tensor.

    Lemma (every characteristic).  Let H = ker f be an abelian hyperplane
    and f(t) = 1.  Writing x = h + f(x) t, the form x^T C_k y vanishes on
    H x H, so C_k = f a^T + b f^T for some a, b: rank C_k <= 2, and f lies
    in the row space or the column space of C_k.  If a is independent of
    f, some y has a.y = 1 and f.y = 0, and C_k y = f; otherwise C_k is
    (mu f + b) f^T, and a nonzero C_k has f in its row space.  So a slice
    of rank > 2 leaves no candidate, and otherwise the at most 2(p+1)
    lines of its row and column spaces are the only ones; each is tested
    by the brackets [h_i, h_j] of its hyperplane's basis."""
    F, n, p, c = L.field, L.dim, L.field.p, L.c
    k = next(k for ci in L._products for cij in ci for k, _ in cij)
    rows = Subspace._span(F, n, [[c[i][j][k] for j in range(n)] for i in range(n)])
    if rows.dim > 2:
        return []
    cols = Subspace._span(F, n, [[c[i][j][k] for i in range(n)] for j in range(n)])
    # each candidate f scaled to f[m] = 1 at its last nonzero entry m
    candidates = {}
    for V in (rows, cols):
        u, *rest = V._rows
        lines = [u]
        for v in rest:  # V is a plane: its other lines are the span(v + t u)
            lines += [[(x + t * y) % p for x, y in zip(v, u)] for t in range(p)]
        for f in lines:
            m = max(i for i, x in enumerate(f) if x)
            inv = pow(f[m], -1, p)
            candidates[tuple(x * inv % p for x in f)] = m
    out = []
    for f, m in candidates.items():
        # ker f has the RREF basis h_i = e_i - f[i] e_m, i != m
        others = [i for i in range(n) if i != m]
        cm, cmm = c[m], c[m][m]
        if any(
            (a - f[j] * b - f[i] * d + f[i] * f[j] * e) % p
            for i in others
            for j in others
            for a, b, d, e in zip(c[i][j], c[i][m], cm[j], cmm)
        ):
            continue
        basis = [[(-f[i] if t == m else int(t == i)) % p for t in range(n)] for i in others]
        out.append(Subspace(F, n, basis, others))
    return out


def _top_strata(L: AlgebraTable):
    """Strata n and n-1 of alpha's downward search, decided without a walk:
    (d, witness, scanned) for the first with an abelian subalgebra, the
    witness its canonically first hit, or (None, None, scanned).  Stratum n
    holds a hit iff every structure constant is 0, and stratum n-1's hits
    are `_abelian_hyperplanes`; each is debited what its walk would count."""
    n = L.dim
    if not any(cij for ci in L._products for cij in ci):
        return (n, *_debit_first(L, n, [L.full_space()]))
    total = _debit_first(L, n, [])[1]
    first, scanned = _debit_first(L, n - 1, _abelian_hyperplanes(L))
    return (None if first is None else n - 1), first, total + scanned


def _walk_strata(L: AlgebraTable):
    """Walk strata n-2, n-3, .., 0 for an abelian subalgebra: (d, witness,
    scanned) for the first stratum with one, the witness its canonically
    first hit, or (None, None, scanned).  Strata n and n-1 hold none.

    Lemma (every characteristic).  The center C = C(L) brackets to 0 with
    everything, so A + C is abelian for every abelian A.  While no stratum
    above d holds an abelian subalgebra, every abelian subalgebra of
    dimension d therefore contains C, and the walk of stratum d is cut to
    the subspaces that contain C (`_scan_py`): the same first hit and the
    same count as the uncut walk, at every budget."""
    total = 0
    C = center(L)._rows
    for d in range(L.dim - 2, -1, -1):
        scanned, subs = _scan_dim(L, d, MODE_ABELIAN, 1, C)
        total += scanned
        if subs:
            return d, subs[0], total
    return None, None, total


def _first_abelian_ideal(L: AlgebraTable, dims):
    """The first abelian ideal in the strata `dims`, consecutive and
    descending, with no abelian ideal in a stratum above dims[0]: (d,
    witness, scanned) as a stratum-by-stratum scan of `dims` would return
    it, witness the canonically first hit of the first stratum holding one,
    or (None, None, scanned); the same count is debited, and raises at the
    same budgets, though no stratum is walked.

    Lemma (every characteristic).  Every abelian ideal I lies in K =
    `_trace_kernel(L)`: for x in I, L_x W, W in {1, L_e_j}, maps L into I
    and I to 0, so its square is 0 and its trace 0.
    The center C = C(L) is an abelian ideal and central, so I + C is one.
    So if no stratum above d holds an abelian ideal, every abelian ideal of
    dimension d contains C: the hits of stratum d are the abelian ideals
    among the d-dimensional I with C <= I <= K.  Each is C + span(w_1, ..,
    w_t), the w's spanning a subspace of a complement of C in K, and is
    abelian iff [w_a, w_b] = 0, as C brackets to 0 with everything.

    Of the ideal test only [I, L] <= I is needed, [w_a, e_j] in I: an
    abelian I with [I, L] <= I generates an abelian ideal, which in such a
    stratum can only be I.  By the Leibniz rule, for w, w' in I and x, y
    in L, [w', [x, w]] = [[w', x], w] = 0, [[x, w], w'] = -[w, [x, w']] = 0,
    and [[x, w], y] = [x, [w, y]] - [w, [x, y]] lies in J = I + [L, I], so
    [[x, w], [y, w']] = [[[x, w], y], w'] lies in [J, I] = 0: J is abelian
    with [J, L] <= J, and adding [L, J] until it stops growing ends at an
    abelian ideal.

    The first hit in canonical order is the least by (pivots, RREF rows),
    and a scan of stratum d counts its canonical index + 1
    (`_scan_py._canonical_index`), or the stratum's Gaussian binomial when
    it holds none."""
    F, n, p = L.field, L.dim, L.field.p
    C, K = center(L), _trace_kernel(L)
    # a basis of a complement of C in K, reduced modulo C
    B = Subspace._span(F, n, [C._reduce(row) for row in K._rows])._rows
    es = [L.basis_vector(j) for j in range(n)]
    zero = L.zero_vector()
    total = 0
    for d in dims:
        hits = []
        for _, _, X in canonical_subspaces(len(B), p, d - C.dim):
            ws = [
                tuple(sum(x * b[k] for x, b in zip(coefs, B)) % p for k in range(n))
                for coefs in X
            ]
            if any(_bracket(L, u, v) != zero for u in ws for v in ws):
                continue
            I = Subspace._span(F, n, C._rows + tuple(ws))
            if all(I._contains(_bracket(L, w, e)) for w in ws for e in es):
                hits.append(I)
        first, scanned = _debit_first(L, d, hits)
        total += scanned
        if first is not None:
            return d, first, total
    return None, None, total


def alpha(L: AlgebraTable, budget: int = DEFAULT_SCAN_BUDGET) -> SearchResult:
    """Largest dimension of an abelian subalgebra, searched downward, the
    witness the canonically first hit: strata n and n-1 are decided from
    one structure slice (`_top_strata`), only the strata <= n-2 are walked
    (`_walk_strata`), and `scanned` counts what a walk of every stratum
    would."""
    _require_prime_field(L, "alpha")
    with _request(budget):
        d, W, total = _top_strata(L)
        if W is None:
            d, W, walked = _walk_strata(L)
            total += walked
    if W is None:
        raise ConsistencyError("no abelian subalgebra found, not even zero")
    return SearchResult(alpha=d, alpha_witness=W, exhaustive=True, scanned=total)


def beta(L: AlgebraTable, budget: int = DEFAULT_SCAN_BUDGET) -> SearchResult:
    """Largest dimension of an abelian two-sided ideal, searched downward
    by `_first_abelian_ideal`: no stratum is walked, and `scanned` counts
    what a walk of the strata would."""
    _require_prime_field(L, "beta")
    with _request(budget):
        d, W, total = _first_abelian_ideal(L, range(L.dim, -1, -1))
    if W is None:
        raise ConsistencyError("no abelian ideal found, not even zero")
    return SearchResult(beta=d, beta_witness=W, exhaustive=True, scanned=total)


def alpha_beta(L: AlgebraTable, budget: int = DEFAULT_SCAN_BUDGET) -> SearchResult:
    """alpha, then beta, in one request."""
    _require_prime_field(L, "alpha_beta")
    with _request(budget):
        a, b = alpha(L), beta(L)
    return SearchResult(
        alpha=a.alpha,
        beta=b.beta,
        alpha_witness=a.alpha_witness,
        beta_witness=b.beta_witness,
        exhaustive=True,
        scanned=a.scanned + b.scanned,
    )


def all_abelian_ideals(L: AlgebraTable, dim: int, budget: int = DEFAULT_SCAN_BUDGET) -> list[Subspace]:
    """Every abelian two-sided ideal of the given dimension, canonical order."""
    _require_prime_field(L, "all_abelian_ideals")
    with _request(budget):
        _, subs = _scan_dim(L, dim, MODE_ABELIAN | MODE_IDEAL, -1)
    return subs


def all_abelian_subalgebras(L: AlgebraTable, dim: int, budget: int = DEFAULT_SCAN_BUDGET) -> list[Subspace]:
    """Every abelian subalgebra of the given dimension, canonical order."""
    _require_prime_field(L, "all_abelian_subalgebras")
    with _request(budget):
        _, subs = _scan_dim(L, dim, MODE_ABELIAN, -1)
    return subs


def is_maximal_subalgebra(L: AlgebraTable, A: Subspace) -> bool:
    """True iff every one-dimensional extension of A generates the whole algebra.

    A must be a subalgebra; A = L is vacuously maximal here and flagged by
    callers as degenerate.
    """
    _require_prime_field(L, "is_maximal_subalgebra")
    if not is_subalgebra(L, A):
        raise ValueError("maximality test needs a subalgebra")
    F = L.field
    n = L.dim
    if A.dim == n:
        return True
    comp = A._extension([[int(i == j) for j in range(n)] for i in range(n)])
    full = L.full_space()
    for line in enumerate_subspaces(n - A.dim, 1, F):
        v = _matmul(line._rows, comp, F.p)[0]
        if generated_subalgebra(L, Subspace._span(F, n, [*A._rows, v])) != full:
            return False
    return True


def invariant_profile(L: AlgebraTable) -> tuple:
    """Cheap isomorphism invariants used for pruning and for large-instance
    verification."""
    rep = series(L)
    return (
        L.dim,
        is_lie(L),
        rep.derived_dims,
        rep.lower_central_dims,
        rep.solvable,
        rep.nilpotent,
        center(L).dim,
        squares_ideal(L).dim,
        left_annihilator(L).dim,
    )


def _characteristic_subspaces(L: AlgebraTable) -> list[Subspace]:
    rep = series(L)
    out = [center(L), squares_ideal(L), left_annihilator(L)]
    out.extend(rep.derived_chain)
    out.extend(rep.lower_central_chain)
    return out


def _supports(L: AlgebraTable) -> dict:
    """{(i, j): {i, j} and the k with c_ijk != 0}, read off the integer
    view: the basis vectors whose images decide [e_i, e_j]."""
    products = L._products
    return {
        (i, j): frozenset({i, j, *(k for k, _ in pij)})
        for i, pi in enumerate(products)
        for j, pij in enumerate(pi)
    }


def _choose_order(L: AlgebraTable, supp: dict) -> list[int]:
    """Assignment order for backtracking: greedily pick indices that make the
    most bracket constraints (`_supports`) checkable as early as possible."""
    n = L.dim
    chosen: set = set()
    order: list[int] = []
    ready: set = set()
    while len(order) < n:
        best, best_gain = None, (-1, 0)
        for x in range(n):
            if x in chosen:
                continue
            newset = chosen | {x}
            gain = sum(
                1
                for pair, s in supp.items()
                if pair not in ready and s <= newset
            )
            key = (gain, -x)
            if key > best_gain:
                best_gain, best = key, x
        chosen.add(best)
        order.append(best)
        for pair, s in supp.items():
            if s <= chosen:
                ready.add(pair)
    return order


def iso_search(
    L1: AlgebraTable, L2: AlgebraTable, node_budget: int = DEFAULT_SCAN_BUDGET
) -> IsoResult:
    """Backtracking isomorphism search with invariant-profile pruning.

    Positive results carry an explicit basis map (rows are the images of the
    first algebra's basis vectors) verified bit-exactly: change_of_basis(L2,
    map) equals L1, checked without inverting the map.
    Negative results are exhaustive within the pruned tree; tables of
    different dimensions are not isomorphic, and no search runs.  Exceeding
    the node budget raises, which is distinct from a negative answer; a
    negative node budget is a ValueError, as a negative scan budget is.
    """
    _check_budget(node_budget)
    check_same_field(L1.field, L2.field)
    if L1.dim != L2.dim:
        return IsoResult(False, None)
    _require_prime_field(L1, "iso_search")
    n = L1.dim
    F = L1.field
    p = F.p
    if L1.c == L2.c:
        return IsoResult(True, Matrix.identity(F, n))
    if invariant_profile(L1) != invariant_profile(L2):
        return IsoResult(False, None)

    subs1 = _characteristic_subspaces(L1)
    subs2 = _characteristic_subspaces(L2)
    sig1 = [
        tuple(S._contains(L1.basis_vector(i)) for S in subs1) for i in range(n)
    ]

    supp = _supports(L1)
    order = _choose_order(L1, supp)
    pos_of = {idx: t for t, idx in enumerate(order)}
    # pairs grouped by the step at which all needed images exist
    pairs_at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for pair, needed in supp.items():
        pairs_at[max(pos_of[m] for m in needed)].append(pair)

    all_vectors = [v for v in itertools.product(range(p), repeat=n)]
    nonzero_vectors = [v for v in all_vectors if any(v)]
    candidates_by_index = {}
    for i in range(n):
        cands = []
        for v in nonzero_vectors:
            if tuple(S._contains(v) for S in subs2) == sig1[i]:
                cands.append(v)
        candidates_by_index[i] = cands

    images: dict[int, tuple] = {}
    # the pivot rows of the span of the images chosen so far, one per step
    span: list = []
    products1 = L1._products
    nodes = 0

    def backtrack(step: int) -> bool:
        nonlocal nodes
        if step == n:
            return True
        idx = order[step]
        for v in candidates_by_index[idx]:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceededError(
                    "isomorphism search exceeded %d nodes; result indeterminate"
                    % node_budget
                )
            residual = _clear(p, v, span)
            if not any(residual):
                continue  # dependent on previous images
            images[idx] = v
            good = True
            for (i, j) in pairs_at[step]:
                lhs = bracket(L2, images[i], images[j])
                rhs = [0] * n
                for m, cm in products1[i][j]:
                    rhs = [(x + cm * y) % p for x, y in zip(rhs, images[m])]
                if list(lhs) != rhs:
                    good = False
                    break
            if good:
                span.append(_lead(p, residual, n))
                if backtrack(step + 1):
                    return True
                span.pop()
            del images[idx]
        return False

    if backtrack(0):
        P = Matrix(F, [images[i] for i in range(n)])
        if not _is_frame(L2, P, L1):
            raise ConsistencyError("isomorphism candidate failed verification")
        return IsoResult(True, P)
    return IsoResult(False, None)
