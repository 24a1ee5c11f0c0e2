"""Exhaustive oracles over prime fields: maximal abelian subalgebra/ideal
dimensions (with witnesses), subalgebra maximality, and brute-force
isomorphism search.

Every search follows the canonical order of subspaces (pivot-column sets
lexicographically, then free entries), so reported dimensions and
witnesses are deterministic; witnesses are the first (lexicographically
least) hits at the maximal dimension.  Budgets count subspaces in that
order, those no search looks at included, so a stratum without a hit costs
its Gaussian binomial and one with a hit its first hit's index + 1.

The top-down searches (`alpha`, `beta`, `classify`'s strata and
`solvability_from_codim2_ideal`) run through one driver,
`_first_in_strata`, which decides each stratum by one of five deciders
and debits it once, what a walk of it would count (`_debit_first`):
- alpha's strata n and n-1 in closed form, from the structure constants
  and one structure slice (`_abelian_hyperplanes`);
- a stratum above the rank bound n - ceil(r/2) (`_max_form_rank`) holds
  no hit and is not searched;
- an abelian-ideal stratum by its candidates between the center C(L) and
  the trace kernel K below (`_abelian_ideal_hits`), with no walk;
- alpha's stratum dim C(L) + 1 by its first candidate, C(L) + span(v),
  when [v, v] = 0 (`_first_line_over_center`), with no walk;
- alpha's other strata <= n-2 by the kernel's walk (`_scan_dim`), cut to
  the subspaces that contain C(L).
The collect-all walks are not cut by the center: below alpha an abelian
subalgebra may miss C(L).  The deciders' subspace tests are `algebra`'s
pair brackets and the one ideal test, `linalg._is_ideal`.

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
`invariants.nilradical` returns K itself when K is nilpotent.

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
from .algebra import (
    AlgebraTable,
    _is_frame,
    _per_table,
    _scaled_bracket,
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
from .linalg import (
    Matrix,
    Subspace,
    _canonical_index,
    _clear,
    _dot_rows,
    _is_ideal,
    _lead,
    _matmul,
    canonical_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
)

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
    index + 1 (`linalg._canonical_index`), or the stratum's Gaussian
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
    by the brackets [h_i, h_j] of its hyperplane's basis.

    The two spaces have the same dimension, the rank of C_k, so when every
    column of C_k lies in the row space the two are equal, and the column
    space is spanned only when a column leaves the row space (never for a
    skew slice, as every slice of a Lie table is).  A line g is tested as
    it is listed, unnormalized (`_kernel_is_abelian`); only a hit is
    scaled to its functional f = g / g[m], which dedupes the hits on a
    line of both spaces."""
    F, n, p, c = L.field, L.dim, L.field.p, L.c
    k = next(k for ci in L._products for cij in ci for k, _ in cij)
    slice_rows = [[c[i][j][k] for j in range(n)] for i in range(n)]
    rows = Subspace._span(F, n, slice_rows)
    if rows.dim > 2:
        return []
    planes = [rows]
    columns = list(zip(*slice_rows))
    if not all(rows._contains(col) for col in columns):
        planes.append(Subspace._span(F, n, columns))
    out, found = [], set()
    for V in planes:
        u, *rest = V._rows
        lines = [u]
        for v in rest:  # V is a plane: its other lines are the span(v + t u)
            lines += [[(x + t * y) % p for x, y in zip(v, u)] for t in range(p)]
        for g in lines:
            m = max(i for i, x in enumerate(g) if x)
            if not _kernel_is_abelian(c, p, g, m):
                continue
            inv = pow(g[m], -1, p)
            f = tuple(x * inv % p for x in g)
            if f in found:  # a line of both planes
                continue
            found.add(f)
            # ker f has the RREF basis h_i = e_i - f[i] e_m, i != m
            others = [i for i in range(n) if i != m]
            basis = [[(-f[i] if t == m else int(t == i)) % p for t in range(n)] for i in others]
            out.append(Subspace(F, n, basis, others))
    return out


def _kernel_is_abelian(c, p: int, g, m: int) -> bool:
    """Whether ker f, f = g / g[m] and m the last nonzero entry of g, is
    abelian, for a GF(p) table c: [h_i, h_j] = 0 for its RREF basis
    h_i = e_i - f[i] e_m, i != m, each bracket times g[m]^2, so that g
    needs no normalization:
    g_m^2 c_ij - g_m g_j c_im - g_m g_i c_mj + g_i g_j c_mm = 0."""
    gm = g[m]
    gm2 = gm * gm
    others = [i for i in range(len(g)) if i != m]
    cm, cmm = c[m], c[m][m]
    for i in others:
        gi, ci = g[i], c[i]
        cim, gmi = ci[m], gm * gi
        for j in others:
            gmj, gij = gm * g[j], gi * g[j]
            for a, b, d, e in zip(ci[j], cim, cm[j], cmm):
                if (a * gm2 - b * gmj - d * gmi + e * gij) % p:
                    return False
    return True


# a stratum with more candidates than this reads the rank bound first
RANK_BOUND_GATE = 200


@_per_table
def _max_form_rank(L: AlgebraTable) -> int:
    """r, the largest rank of the form lam([x, y]), whose matrix is
    sum_k lam_k C_k, C_k = (c_ijk)_ij, over the n unit functionals lam and
    the fixed combinations lam_k = (k + 1)^e mod p, e = 0..3.

    Lemma (every field).  Let A be an abelian subspace of dimension d and
    B(x, y) = lam([x, y]) of rank r.  B vanishes on A x A, so x -> B(x, .)
    maps A into the annihilator of A, of dimension n - d, with its kernel
    on A in the left radical of B, of dimension n - r.  So d - (n - r) <=
    n - d, d <= n - r/2, and no stratum above n - ceil(r/2) holds an
    abelian subalgebra or ideal.  Every lam gives a sound bound, so the
    choice of lam changes the time taken, never an answer."""
    n, p = L.dim, L.field.p
    lams = [[int(k == t) for k in range(n)] for t in range(n)]
    lams += [[pow(k + 1, e, p) for k in range(n)] for e in range(4)]
    forms = [[[sum(lam[k] * c for k, c in pij) % p for pij in row] for row in L._products] for lam in lams]
    return max(Subspace._span(L.field, n, B).dim for B in forms)


def _first_in_strata(L: AlgebraTable, dims, ideal: bool = False):
    """The first stratum of `dims`, consecutive and descending, that holds
    an abelian subalgebra, or an abelian ideal when `ideal`, given that no
    stratum above dims[0] holds one: (d, witness, scanned), the witness the
    canonically first hit of stratum d, or (None, None, scanned).
    `scanned` is what a walk of each stratum searched would count; each
    stratum is debited it once, and a budget the walk would run out raises
    the walk's message, though only alpha's strata <= n-2 are walked.

    One decider per stratum:
    - alpha's stratum n holds a hit iff every structure constant is 0;
    - alpha's stratum n-1: its hits are `_abelian_hyperplanes`;
    - a stratum above n - ceil(r/2), r = `_max_form_rank(L)`, holds no hit
      and is not searched.  C lies in the radical of every form, so
      r <= n - dim C, and no stratum with 2d <= n + dim C is above the
      bound; r is read only above that, where the stratum has more than
      RANK_BOUND_GATE candidates, so small tables never compute it;
    - every other abelian-ideal stratum: the candidates between C(L) and
      the trace kernel (`_abelian_ideal_hits`);
    - alpha's stratum dim C + 1: its first candidate, when it is abelian
      (`_first_line_over_center`), and otherwise the walk;
    - every other stratum of alpha: the kernel's walk (`_scan_dim`), cut
      by the center.

    Lemma (every characteristic).  The center C = C(L) is an ideal and
    brackets to 0 with everything, so A + C is abelian for every abelian A,
    and an abelian ideal for every abelian ideal A.  While no stratum above
    d holds a hit, every hit of stratum d therefore contains C.  So the
    walk of stratum d is cut to the subspaces that contain C, with the same
    first hit and the same count as the uncut walk at every budget, and
    the candidates of a stratum number the Gaussian binomial of L/C, or of
    K/C for ideals, K the trace kernel.

    So the hits of stratum dim C + 1 are the C + span(v) with [v, v] = 0,
    and when the canonically first of its candidates is one, it is the
    first hit.  Every decider but the walk finds all of a stratum's hits,
    or a subset holding the first, and `_debit_first` debits what the walk
    would count."""
    n, p = L.dim, L.field.p
    total = 0
    for d in dims:
        if not ideal and d == n:
            hits = [] if any(cij for ci in L._products for cij in ci) else [L.full_space()]
        elif not ideal and d == n - 1:
            hits = _abelian_hyperplanes(L)
        else:
            C = center(L)
            top = _trace_kernel(L).dim if ideal else n
            if (
                2 * d > n + C.dim
                and gaussian_binomial(top - C.dim, d - C.dim, p) > RANK_BOUND_GATE
                and d > n - (_max_form_rank(L) + 1) // 2
            ):
                hits = []
            elif ideal:
                hits = _abelian_ideal_hits(L, d)
            else:
                hits = _first_line_over_center(L, C) if d == C.dim + 1 else []
                if not hits:
                    scanned, hits = _scan_dim(L, d, MODE_ABELIAN, 1, C._rows)
                    total += scanned
                    if hits:
                        return d, hits[0], total
                    continue
        first, scanned = _debit_first(L, d, hits)
        total += scanned
        if first is not None:
            return d, first, total
    return None, None, total


def _first_line_over_center(L: AlgebraTable, C: Subspace) -> list[Subspace]:
    """[W], W the canonically first subspace C + span(v) of dimension
    dim C + 1, C = C(L) of dimension below n, if W is abelian, else [].

    As C is central, C + span(v) is abelian iff [v, v] = 0.  Lemma (the
    first candidate).  Let q be the least column outside C's pivots; then
    0..q-1 are pivots of C.  The least pivot set of a subspace W > C of
    dimension dim C + 1 is C's pivots and q: it adds one column to C's, and
    the least column gives the lexicographically least set.  W's RREF rows
    are then v = e_q + sum a_t e_t, over the columns t > q outside C's
    pivots, and for each row c of C, c - c[q] v; only the rows of pivot
    below q can have c[q] != 0, and they come before v.  The walk orders
    W's free entries row-major, values 0 first, so the first W is the one
    whose first row that depends on a, if any, is 0 at its free columns:
    a_t = c[t] / c[q] for the first row c of C with c[q] != 0, and a = 0,
    v = e_q, when there is none."""
    F, n, p = L.field, L.dim, L.field.p
    q = next(t for t in range(n) if t not in C.pivots)
    v = [0] * n
    v[q] = 1
    lead = next((c for c in C._rows if c[q]), None)
    if lead is not None:
        inv = pow(lead[q], -1, p)
        for t in range(q + 1, n):
            if t not in C.pivots:
                v[t] = lead[t] * inv % p
    if any(_scaled_bracket(L, v, v)):
        return []
    return [Subspace._span(F, n, [*C._rows, v])]


def _abelian_ideal_hits(L: AlgebraTable, d: int) -> list[Subspace]:
    """The hits of abelian-ideal stratum d, with no abelian ideal above d:
    those of the first pivot set that holds one, which hold the
    canonically first hit (`_debit_first` needs no more).

    Lemma (every characteristic).  Every abelian ideal I lies in K =
    `_trace_kernel(L)`: for x in I, L_x W, W in {1, L_e_j}, maps L into I
    and I to 0, so its square is 0 and its trace 0.  I contains the center
    C = C(L) (`_first_in_strata`), so the hits are the abelian ideals among
    the d-dimensional I with C <= I <= K.  Each is C + span(w_1, .., w_t),
    the w's spanning a subspace of a complement of C in K, and is abelian
    iff [w_a, w_b] = 0, as C brackets to 0 with everything.

    Of the ideal test only [I, L] <= I is needed, [w_a, e_j] in I: an
    abelian I with [I, L] <= I generates an abelian ideal, which in such a
    stratum can only be I.  By the Leibniz rule, for w, w' in I and x, y
    in L, [w', [x, w]] = [[w', x], w] = 0, [[x, w], w'] = -[w, [x, w']] = 0,
    and [[x, w], y] = [x, [w, y]] - [w, [x, y]] lies in J = I + [L, I], so
    [[x, w], [y, w']] = [[[x, w], y], w'] lies in [J, I] = 0: J is abelian
    with [J, L] <= J, and adding [L, J] until it stops growing ends at an
    abelian ideal.

    Lemma (the candidates' pivots).  C <= K, so every pivot of C is one of
    K: a vector of K leads at the pivot of the first RREF row of K in its
    combination.  Let B be the RREF rows of K whose pivots Bpiv are not
    C's.  Each is 0 at K's other pivots, so at C's; a nonzero combination
    of them leads at one of Bpiv, which no vector of C does, so they are
    independent modulo C, and as many as dim K - dim C: B spans a
    complement of C in K, in RREF and 0 at C's pivots.  For an RREF X in
    F^t with pivots xp, W = X B is in RREF with pivots Bpiv[xp] and 0 at
    C's pivots: row r of W is B[xp[r]] plus multiples of rows of B whose
    pivots lie to the right, and its entry at Bpiv[s] is X[r][s].  So a
    residual cleared by C's pivot rows and then by W's (`linalg._clear`) is
    0 exactly on C + W, whose pivots are C's pivots and Bpiv[xp].  Bpiv is
    increasing and misses C's pivots, so two candidates' pivot sets
    compare as their X's do: the least element of a symmetric difference
    maps to the least element.  The canonical walk of X therefore meets
    the candidates' pivot sets in canonical order, and the first pivot set
    of X that holds a hit holds the first hit.

    So no candidate is spanned.  The pairs of rows of W are bracketed
    (`algebra._scaled_bracket`) to test abelian, as `is_abelian_subspace`
    does, and the [w, e_j] of each row w are cleared against that pivot
    list to test [I, L] <= I (`linalg._is_ideal`, on the left alone).
    Only hits are spanned, and the walk of X stops after the first pivot
    set that holds one.

    By the same lemma every candidate from a pivot set P of the span on
    counts at least P's offset, the index of P's first subspace: once the
    walk of X enters, with no hit yet, a P whose offset reaches the budget
    left (read only where the stratum outgrows it), it stops, and
    `_debit_first` raises the walk's message."""
    F, n, p = L.field, L.dim, L.field.p
    C, K = center(L), _trace_kernel(L)
    # B: K's rows at the pivots C lacks (see the lemma)
    Bpiv = [kp for kp in K.pivots if kp not in C.pivots]
    Bcols = list(zip(*[row for kp, row in zip(K.pivots, K._rows) if kp not in C.pivots]))
    C_pivots = list(zip(C.pivots, C._rows))
    left = _budget_left.get()
    bounded = gaussian_binomial(n, d, p) > left
    hits, seen_xp = [], None
    for _, xp, X in canonical_subspaces(len(Bpiv), p, d - C.dim):
        if xp != seen_xp:
            if hits:
                break  # the first pivot set holding a hit holds the first hit
            if bounded:
                P = sorted(C.pivots + tuple(Bpiv[s] for s in xp))
                if _canonical_index(n, p, P, [[0] * n] * d) >= left:
                    break  # no candidate from here on is within the budget
            seen_xp = xp
        ws = [[_dot_rows(x, col) % p for col in Bcols] for x in X]
        if any(any(_scaled_bracket(L, u, v)) for u in ws for v in ws):
            continue
        pivots = C_pivots + list(zip([Bpiv[s] for s in xp], ws))
        if _is_ideal(L._products, ws, pivots, p, (True,)):
            hits.append(Subspace._span(F, n, C._rows + tuple(ws)))
    return hits


def alpha(L: AlgebraTable, budget: int = DEFAULT_SCAN_BUDGET) -> SearchResult:
    """Largest dimension of an abelian subalgebra, searched downward by
    `_first_in_strata`, the witness the canonically first hit; `scanned`
    counts what a walk of every stratum would."""
    _require_prime_field(L, "alpha")
    with _request(budget):
        d, W, total = _first_in_strata(L, range(L.dim, -1, -1))
    if W is None:
        raise ConsistencyError("no abelian subalgebra found, not even zero")
    return SearchResult(alpha=d, alpha_witness=W, exhaustive=True, scanned=total)


def beta(L: AlgebraTable, budget: int = DEFAULT_SCAN_BUDGET) -> SearchResult:
    """Largest dimension of an abelian two-sided ideal, searched downward
    by `_first_in_strata`: no stratum is walked, and `scanned` counts what
    a walk of the strata would."""
    _require_prime_field(L, "beta")
    with _request(budget):
        d, W, total = _first_in_strata(L, range(L.dim, -1, -1), ideal=True)
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

    # the nonzero vectors of L2 by signature, each signature computed once
    by_signature: dict[tuple, list] = {}
    for v in itertools.product(range(p), repeat=n):
        if any(v):
            by_signature.setdefault(tuple(S._contains(v) for S in subs2), []).append(v)
    candidates_by_index = [by_signature.get(s, []) for s in sig1]

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
