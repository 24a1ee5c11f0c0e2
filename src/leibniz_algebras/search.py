"""Exhaustive oracles over prime fields: maximal abelian subalgebra/ideal
dimensions (with witnesses), subalgebra maximality, and brute-force
isomorphism search.

Every subspace scan runs through the one kernel in `_scan_py` and follows
its canonical order (pivot-column sets lexicographically, then free
entries), so reported dimensions and witnesses are deterministic; witnesses
are the first (lexicographically least) hits at the maximal dimension.
Budgets count subspaces in that order, those the kernel's cuts skip
included, so a full stratum costs its Gaussian binomial.

Abelian-ideal scans hand the kernel the trace form's functionals
x -> Tr(M_x W), M in {L, R}, W in {1, L_e_j, R_e_j}, computed once per
table.  Every nilpotent ideal N lies in their common kernel K, in every
characteristic: with N_1 = N and N_(k+1) = [N, N_k] + [N_k, N], ideals of L
that reach 0, each W maps N_k into itself and, for x in N, M_x maps L into
N_1 and N_k into N_(k+1), so M_x W is nilpotent and its trace is 0.  An
abelian ideal has N_2 = 0, so the kernel cuts every row prefix outside K
from an abelian-ideal scan; counts, matches and witnesses are the same as
without the cut.  `invariants.nilradical` returns K itself when K is a
nilpotent ideal.

One budget bounds a whole request.  Every public entry point that scans,
here and in `invariants` and `classify`, opens a request ledger with its
`budget`; every scan takes its limit from the open ledger and debits what
it counted, so the strata of a top-down search, and the scans of nested
calls, all draw on the one budget.  An exhausted budget raises
`BudgetExceededError` rather than passing as a negative answer, and a
negative budget is a ValueError when the request opens.
"""

from __future__ import annotations

import contextvars
import itertools
from contextlib import contextmanager
from dataclasses import dataclass

from ._kernel import MODE_ABELIAN, MODE_IDEAL, scan_subspaces
from .algebra import (
    AlgebraTable,
    _is_frame,
    _products,
    bracket,
    center,
    generated_subalgebra,
    is_lie,
    is_subalgebra,
    left_annihilator,
    squares_ideal,
)
from .errors import BudgetExceededError, ConsistencyError
from .fields import FieldSpec, check_same_field
from .linalg import Matrix, Subspace, enumerate_subspaces, subspace_sum

DEFAULT_SCAN_BUDGET = 5_000_000


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive abelian subalgebra/ideal scan."""

    alpha: int | None = None
    beta: int | None = None
    alpha_witness: Subspace | None = None
    beta_witness: Subspace | None = None
    exhaustive: bool = False
    scanned: int = 0


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    map: Matrix | None = None


def _require_prime_field(L: AlgebraTable, what: str) -> None:
    if not L.field.is_prime_field:
        raise ValueError("%s requires a prime field (enumeration impossible over QQ)" % what)


def table_flat(L: AlgebraTable) -> tuple:
    """Structure tensor flattened to ints mod p, for the scan kernel."""
    _require_prime_field(L, "subspace scan")
    n = L.dim
    return tuple(L.c[i][j][k] for i in range(n) for j in range(n) for k in range(n))


def _trace_functionals(L: AlgebraTable) -> tuple:
    """Rows, in RREF, of the functionals x -> Tr(M_x W) for M in {L, R} and
    W in {1, L_e_j, R_e_j}, as field elements; cached on L.

    Every nilpotent ideal N, abelian ones included, lies in their common
    kernel: the ideals N_1 = N, N_(k+1) = [N, N_k] + [N_k, N] reach 0, W
    maps each N_k into itself, and for x in N, M_x maps L into N_1 and N_k
    into N_(k+1), so M_x W is nilpotent."""
    rows = L._cache.get("trace_functionals")
    if rows is None:
        n, P = L.dim, _products(L)
        # nonzero entries (j, k, x) of L_e_i and R_e_i, whose k-th columns
        # are [e_i, e_k] and [e_k, e_i]
        left = [[(j, k, x) for k in range(n) for j, x in P[i][k]] for i in range(n)]
        right = [[(j, k, x) for k in range(n) for j, x in P[k][i]] for i in range(n)]

        def dense(entries):
            A = [[0] * n for _ in range(n)]
            for j, k, x in entries:
                A[j][k] = x
            return A

        Ws = [dense((j, j, 1) for j in range(n))] + [dense(M) for M in left + right]
        # Tr(M W) = sum of M[j][k] * W[k][j]
        funcs = [
            [sum(x * W[k][j] for j, k, x in M) for M in Ms] for Ms in (left, right) for W in Ws
        ]
        rows = tuple(map(tuple, Subspace.from_vectors(L.field, n, funcs).basis.data))
        L._cache["trace_functionals"] = rows
    return rows


def _subspace_from_flat(F: FieldSpec, n: int, d: int, flat) -> Subspace:
    rows = [list(flat[r * n : (r + 1) * n]) for r in range(d)]
    pivots = []
    for row in rows:
        pivots.append(next(i for i, x in enumerate(row) if x))
    return Subspace(F, n, Matrix._canonical(F, rows, n), pivots)


# what is left of the open request's budget; unset outside a request
_budget_left = contextvars.ContextVar("_budget_left")


@contextmanager
def _request(budget: int):
    """The ledger of one request: scans inside the block, by callees too,
    debit `budget`.  A block opened inside an open one shares the open
    ledger and ignores its own `budget`, so a nested call (`alpha` inside
    `alpha_beta`, `classify` inside `verify_main_theorem`) scans within
    what is left of the outer request's budget, as if it had been passed
    that remainder.  A negative `budget` is a ValueError in every block."""
    if budget < 0:
        raise ValueError("scan budget must be >= 0, got %d" % budget)
    if _budget_left.get(None) is not None:
        yield
        return
    token = _budget_left.set(budget)
    try:
        yield
    finally:
        _budget_left.reset(token)


def _scan_dim(L: AlgebraTable, d: int, mode: int, collect: int):
    flat = table_flat(L)
    abelian_ideal = MODE_ABELIAN | MODE_IDEAL
    funcs = _trace_functionals(L) if mode & abelian_ideal == abelian_ideal else ()
    left = _budget_left.get()
    # positional: wrappers of the kernel forward *args only
    scanned, truncated, matches = scan_subspaces(
        flat, L.dim, L.field.p, d, mode, left, collect, funcs
    )
    _budget_left.set(left - scanned)
    if truncated:
        raise BudgetExceededError(
            "scan budget exhausted at dimension %d after %d subspaces" % (d, scanned)
        )
    subs = [_subspace_from_flat(L.field, L.dim, d, m) for m in matches]
    return scanned, subs


def _first_hit(L: AlgebraTable, dims, mode: int):
    """Scan the strata `dims` in order for a subspace passing `mode`.

    Returns (d, witness, scanned) for the first stratum with a match, the
    witness being its canonically first hit, or (None, None, scanned) when
    no stratum has one.
    """
    total = 0
    for d in dims:
        scanned, subs = _scan_dim(L, d, mode, 1)
        total += scanned
        if subs:
            return d, subs[0], total
    return None, None, total


def alpha(L: AlgebraTable, budget: int = DEFAULT_SCAN_BUDGET) -> SearchResult:
    """Largest dimension of an abelian subalgebra, scanning downward."""
    _require_prime_field(L, "alpha")
    with _request(budget):
        d, W, total = _first_hit(L, range(L.dim, -1, -1), MODE_ABELIAN)
    if W is None:
        raise ConsistencyError("no abelian subalgebra found, not even zero")
    return SearchResult(alpha=d, alpha_witness=W, exhaustive=True, scanned=total)


def beta(L: AlgebraTable, budget: int = DEFAULT_SCAN_BUDGET) -> SearchResult:
    """Largest dimension of an abelian two-sided ideal, scanning downward."""
    _require_prime_field(L, "beta")
    with _request(budget):
        d, W, total = _first_hit(L, range(L.dim, -1, -1), MODE_ABELIAN | MODE_IDEAL)
    if W is None:
        raise ConsistencyError("no abelian ideal found, not even zero")
    return SearchResult(beta=d, beta_witness=W, exhaustive=True, scanned=total)


def alpha_beta(L: AlgebraTable, budget: int = DEFAULT_SCAN_BUDGET) -> SearchResult:
    """alpha, then beta, in one request."""
    _require_prime_field(L, "alpha")
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
    ext = A.extend_to_full_basis()
    comp = ext.data[A.dim :]
    full = L.full_space()
    for line in enumerate_subspaces(n - A.dim, 1, F):
        coords = line.basis.data[0]
        v = [F.zero] * n
        for c, row in zip(coords, comp):
            if c != F.zero:
                v = [F.add(x, F.mul(c, y)) for x, y in zip(v, row)]
        cand = subspace_sum(A, Subspace.from_vectors(F, n, [v]))
        if generated_subalgebra(L, cand) != full:
            return False
    return True


def invariant_profile(L: AlgebraTable) -> tuple:
    """Cheap isomorphism invariants used for pruning and for large-instance
    verification."""
    from .invariants import series  # local import to avoid a cycle

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
    from .invariants import series

    rep = series(L)
    out = [center(L), squares_ideal(L), left_annihilator(L)]
    out.extend(rep.derived_chain)
    out.extend(rep.lower_central_chain)
    return out


def _choose_order(L: AlgebraTable) -> list[int]:
    """Assignment order for backtracking: greedily pick indices that make the
    most bracket constraints checkable as early as possible."""
    n = L.dim
    F = L.field
    supp = {}
    for i in range(n):
        for j in range(n):
            supp[(i, j)] = frozenset(
                {i, j} | {m for m in range(n) if L.c[i][j][m] != F.zero}
            )
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
    Negative results are exhaustive within the pruned tree.  Exceeding the
    node budget raises, which is distinct from a negative answer.
    """
    check_same_field(L1.field, L2.field)
    if L1.dim != L2.dim:
        raise ValueError("isomorphism search needs equal dimensions")
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
        tuple(S.contains_vector(L1.basis_vector(i)) for S in subs1) for i in range(n)
    ]

    order = _choose_order(L1)
    pos_of = {idx: t for t, idx in enumerate(order)}
    # pairs grouped by the step at which all needed images exist
    pairs_at: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            needed = {i, j} | {m for m in range(n) if L1.c[i][j][m] != F.zero}
            step = max(pos_of[m] for m in needed)
            pairs_at[step].append((i, j))

    all_vectors = [v for v in itertools.product(range(p), repeat=n)]
    nonzero_vectors = [v for v in all_vectors if any(v)]
    candidates_by_index = {}
    for i in range(n):
        cands = []
        for v in nonzero_vectors:
            if tuple(S.contains_vector(v) for S in subs2) == sig1[i]:
                cands.append(v)
        candidates_by_index[i] = cands

    images: dict[int, tuple] = {}
    elim: list[tuple[int, list]] = []  # (pivot column, reduced row)
    nodes = 0

    def reduce_vec(v):
        w = list(v)
        for pc, row in elim:
            c = w[pc]
            if c:
                w = [(x - c * y) % p for x, y in zip(w, row)]
        return w

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
            w = reduce_vec(v)
            pc = next((c for c, x in enumerate(w) if x), None)
            if pc is None:
                continue  # dependent on previous images
            images[idx] = v
            good = True
            for (i, j) in pairs_at[step]:
                lhs = bracket(L2, images[i], images[j])
                rhs = [0] * n
                for m in range(n):
                    cm = L1.c[i][j][m]
                    if cm:
                        im = images[m]
                        rhs = [(x + cm * y) % p for x, y in zip(rhs, im)]
                if list(lhs) != rhs:
                    good = False
                    break
            if good:
                inv = pow(w[pc], -1, p)
                row = [(x * inv) % p for x in w]
                elim.append((pc, row))
                if backtrack(step + 1):
                    return True
                elim.pop()
            del images[idx]
        return False

    if backtrack(0):
        P = Matrix(F, [images[i] for i in range(n)])
        if not _is_frame(L2, P, L1):
            raise ConsistencyError("isomorphism candidate failed verification")
        return IsoResult(True, P)
    return IsoResult(False, None)


def _flatten_2x2(m: Matrix) -> tuple:
    return m.data[0] + m.data[1]


def span_equivalent_iso(
    lam: Matrix, mu: Matrix, lam2: Matrix, mu2: Matrix
) -> Matrix | None:
    """Explicit isomorphism between the two family-a tables when the parameter
    pairs span the same matrix subspace; None when the spans differ.

    Returns a 4x4 basis map P with change_of_basis(table(lam2, mu2), P) equal
    to table(lam, mu).  The map fixes x and y and mixes the two generators by
    an invertible 2x2 coefficient matrix.
    """
    check_same_field(lam.field, mu.field)
    check_same_field(lam.field, lam2.field)
    check_same_field(lam.field, mu2.field)
    F = lam.field
    span1 = Subspace.from_vectors(F, 4, [_flatten_2x2(lam), _flatten_2x2(mu)])
    span2 = Subspace.from_vectors(F, 4, [_flatten_2x2(lam2), _flatten_2x2(mu2)])
    if span1 != span2:
        return None
    s = span1.dim
    if s == 0:
        C = Matrix.identity(F, 2)
    elif s == 2:
        B = Matrix(F, [_flatten_2x2(lam2), _flatten_2x2(mu2)])
        r1 = B.solve_row(_flatten_2x2(lam))
        r2 = B.solve_row(_flatten_2x2(mu))
        C = Matrix(F, [r1, r2])
    else:
        g = span1.basis.data[0]
        pc = span1.pivots[0]
        u = (_flatten_2x2(lam)[pc], _flatten_2x2(mu)[pc])
        w = (_flatten_2x2(lam2)[pc], _flatten_2x2(mu2)[pc])
        C = _map_column(F, w, u)
    rows = [
        [C.data[0][0], C.data[0][1], F.zero, F.zero],
        [C.data[1][0], C.data[1][1], F.zero, F.zero],
        [F.zero, F.zero, F.one, F.zero],
        [F.zero, F.zero, F.zero, F.one],
    ]
    P = Matrix(F, rows)
    from .families import raw_pair_table

    T1 = raw_pair_table(lam, mu, F)
    T2 = raw_pair_table(lam2, mu2, F)
    if not _is_frame(T2, P, T1):
        raise ConsistencyError("span-equivalence map failed verification")
    return P


def _complete_column(F: FieldSpec, v: tuple) -> Matrix:
    """Invertible 2x2 whose first column is the nonzero vector v."""
    a, b = v
    if a != F.zero:
        return Matrix(F, [[a, F.zero], [b, F.one]])
    return Matrix(F, [[a, F.one], [b, F.zero]])


def _map_column(F: FieldSpec, w: tuple, u: tuple) -> Matrix:
    """Invertible 2x2 C with C @ w = u for nonzero columns w, u."""
    U = _complete_column(F, u)
    W = _complete_column(F, w)
    return U @ W.inverse()
