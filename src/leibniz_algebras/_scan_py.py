"""Subspace scan over GF(p): the hot search loop, in pure Python.

`canonical_subspaces` walks every d-dimensional subspace of GF(p)^n in
canonical order: pivot-column sets lexicographically, then free entries
row-major with the last position fastest.  It fixes the rows of the RREF
basis one at a time, row 0 first, and an optional row test, chosen per
pivot set, may cut the whole pivot set or the whole subtree below a row.  It is the one enumerator of the package;
`linalg.enumerate_subspaces` wraps its rows in `Subspace` objects, and
`scan_subspaces` tests predicates against a structure-constant table on the
subspaces it yields.

Contract:

    scan_subspaces(table, n, p, d, mode, limit, collect, functionals=(), contains=())
        -> (scanned, truncated, matches)

where `table` is the flattened n*n*n tensor (index ((i*n)+j)*n + k) with
entries reduced mod p, `mode` is a bitmask of MODE_* flags, `limit` caps the
number of subspaces examined (-1 for no cap) and `collect` caps the number of
matches gathered (-1 for all).  `functionals` are rows of linear functionals
on GF(p)^n that vanish on every match, and `contains` the RREF rows of a
central subspace C (one that brackets to 0 with everything) that every
match contains, both as the caller vouches; the MODE_ABELIAN walk cuts by
them.  Matches are flattened d*n row-major RREF basis matrices.
`truncated` is True only when the limit stopped the scan before
exhaustion with the collection still open.

Under MODE_ABELIAN the walk cuts by row prefix: with rows 0..r-1 fixed it
visits only the values of row r whose brackets with itself and, both ways,
with every fixed row vanish.  The brackets with fixed rows are linear in row
r's free entries, so they are solved rather than tried.  Row r must also
lie in the common kernel K of `functionals`, a linear condition solved with
them.  A value left out cuts every subspace below it, none of which is a
match.  MODE_IDEAL is tested on each subspace the walk reaches.

For abelian-ideal scans `search` passes the trace form's functionals
x -> Tr(L_x W), for W in {1, L_e_j}.  If I is an abelian ideal and x is in
I, then W(I) <= I, and L_x maps L into I and I to 0, so L_x W is nilpotent
and its trace is 0 in every characteristic.  Every abelian ideal therefore
lies in K, and the cut skips only subtrees that hold none.

For alpha's walk `search` passes the rows of the center C = C(L).  C
brackets to 0 with everything, so A + C is abelian for every abelian A:
while no stratum above d holds an abelian subalgebra, every abelian
subalgebra of dimension d contains C.  A subspace A with RREF rows a_t at
pivots P contains C iff every c in C is sum_t c[P_t] a_t.  So C's pivots
lie in P (the first nonzero entry of that sum is at some P_t), and the
walk drops every other pivot set whole.  On the rest C's rows, restricted
to P's columns, are independent; they are recombined so that each has its
last nonzero entry there at a distinct row r, with c[P_r] = 1 and 0 at
the other such rows.  Such a row a_r = c - sum_{t<r} c[P_t] a_t is then
computed from the rows above it, and nothing is tested on it: c is
central and the rows above bracket to 0 among themselves, so [a_r, a_r]
and a_r's brackets with them vanish.  (Nor is a_r tested against K: a
subspace outside K is no abelian ideal, and the ideal test rejects it.)
Every other equation c[q] = sum_{t: P_t<q} c[P_t] a_t[q] at a column q
outside P fixes the entry a_s[q] of its last row s with c[P_s] != 0, and
row s passes it to its linear solve; one with no such row drops the pivot
set when c[q] != 0.

`scanned` still counts every subspace of the canonical order up to the
point where the scan stopped, cut ones included.  The cuts skip only
subtrees that hold no match, so `scanned`, `truncated` and `matches` are
exactly what a subspace-by-subspace scan would return, with or without
`functionals` and `contains`, whenever what the caller vouches for holds.
"""

from __future__ import annotations

import functools
import itertools

MODE_ABELIAN = 1
MODE_IDEAL = 4


def gaussian_binomial(n: int, d: int, p: int) -> int:
    """Number of d-dimensional subspaces of GF(p)^n."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= p ** (n - i) - 1
        den *= p ** (d - i) - 1
    return num // den


def _pivot_set_size(n: int, p: int, piv) -> int:
    """Number of subspaces of GF(p)^n with pivot columns `piv`: p^f, f
    its number of free entries, d(n-d) - sum_r (piv[r] - r)."""
    d = len(piv)
    return p ** (d * (n - d) - sum(c - r for r, c in enumerate(piv)))


def canonical_subspaces(n: int, p: int, d: int, row_values_for=None):
    """Yield (index, pivots, rows) for the d-dimensional subspaces of GF(p)^n.

    `index` is the subspace's position in the canonical order, `pivots` the
    tuple of its pivot columns and `rows` its d x n RREF basis (lists of ints
    mod p), which the walk reuses: copy it to keep it.  Rows are fixed in
    order, row 0 first.  `row_values_for(piv)`, when given, is called on
    each pivot set before any of its rows and returns None, which cuts the
    pivot set whole, or the set's `row_values`: with rows 0..r-1 fixed,
    `row_values(rows, r, pc, cols)` yields the values of row r's free
    entries (at columns `cols`; its pivot is at column `pc`) to walk on, a
    subsequence of `itertools.product(range(p), repeat=len(cols))`.  A
    value it leaves out cuts every subspace that shares rows 0..r, and the
    indices skip them.  Outside 0 <= d <= n there is no subspace, and
    nothing is yielded.
    """
    if not 0 <= d <= n:
        return
    offset = 0
    for piv in itertools.combinations(range(n), d):
        row_values = None
        if row_values_for is not None:
            row_values = row_values_for(piv)
            if row_values is None:
                offset += _pivot_set_size(n, p, piv)
                continue
        pivset = set(piv)
        free = [[c for c in range(piv[r] + 1, n) if c not in pivset] for r in range(d)]
        # below[r]: subspaces sharing rows 0..r
        below = [1] * d
        for r in range(d - 2, -1, -1):
            below[r] = below[r + 1] * p ** len(free[r + 1])
        rows = [[0] * n for _ in range(d)]
        for r in range(d):
            rows[r][piv[r]] = 1
        if d == 0:
            yield offset, piv, rows
            offset += 1
            continue

        def values(r):
            if row_values is None:
                return itertools.product(range(p), repeat=len(free[r]))
            return row_values(rows, r, piv[r], free[r])

        # start[r]: index of the first subspace sharing rows 0..r-1
        start = [offset] * d
        walks = [values(0)] + [None] * (d - 1)
        r = 0
        while r >= 0:
            vals = next(walks[r], None)
            if vals is None:
                r -= 1
                continue
            row = rows[r]
            rank = 0
            for c, v in zip(free[r], vals):
                row[c] = v
                rank = rank * p + v
            index = start[r] + rank * below[r]
            if r == d - 1:
                yield index, piv, rows
            else:
                r += 1
                start[r] = index
                walks[r] = values(r)
        offset += below[0] * p ** len(free[0])


def _canonical_index(n: int, p: int, pivots, rows) -> int:
    """The index `canonical_subspaces(n, p, len(pivots))` yields with the
    subspace whose RREF basis is `rows`, with pivot columns `pivots`.

    Each pivot set before `pivots` holds `_pivot_set_size` subspaces;
    within the pivot set the free entries, read row-major, are the index's
    base-p digits."""
    d, pivots = len(pivots), tuple(pivots)
    offset = 0
    for piv in itertools.combinations(range(n), d):
        if piv == pivots:
            break
        offset += _pivot_set_size(n, p, piv)
    rank = 0
    for r, row in enumerate(rows):
        for c in range(pivots[r] + 1, n):
            if c not in pivots:
                rank = rank * p + row[c]
    return offset + rank


def _lex_solutions(columns, target, p):
    """Every x in GF(p)^f with sum_j x[j] * columns[j] == target (mod p), in
    lexicographic order.

    Elimination runs from the last unknown leftwards, so each pivot unknown
    is fixed by unknowns to its left; running the other unknowns through
    `itertools.product` then gives the solutions in lexicographic order.
    """
    f = len(columns)
    eqs = []
    for k, t in enumerate(target):
        eq = [col[k] % p for col in columns]
        if any(eq):
            eqs.append(eq + [t % p])
        elif t % p:
            return
    pivots = []
    for c in range(f - 1, -1, -1):
        src = next((eq for eq in eqs if eq[c]), None)
        if src is None:
            continue
        eqs.remove(src)
        inv = pow(src[c], -1, p)
        src = [x * inv % p for x in src]
        eqs = [[(x - eq[c] * y) % p for x, y in zip(eq, src)] if eq[c] else eq for eq in eqs]
        pivots.append((c, [(j, src[j]) for j in range(c) if src[j]], src[f]))
    if any(eq[f] for eq in eqs):
        return  # every coefficient left is zero
    pivots.reverse()
    params = [c for c in range(f) if all(c != pc for pc, _, _ in pivots)]
    x = [0] * f
    for vals in itertools.product(range(p), repeat=len(params)):
        for c, v in zip(params, vals):
            x[c] = v
        for pc, terms, rhs in pivots:
            x[pc] = (rhs - sum(a * x[j] for j, a in terms)) % p
        yield tuple(x)


def _sparse_table(table, n):
    """Per-(i, j) list of (k, coeff) with coeff != 0."""
    sp = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            base = (i * n + j) * n
            sp[i][j] = [(k, table[base + k]) for k in range(n) if table[base + k]]
    return sp


def _containment(contains, piv, n, p):
    """What "C <= A" asks of the rows a_t of a subspace A with pivots
    `piv`, C spanned by the RREF rows `contains` (see the module
    docstring): None when no such A contains C, else (fixed, forced).
    fixed[r] is (c, terms) for each row r that C computes, a_r = c -
    sum_(t, b) b a_t over terms; forced[s] lists (q, a, c_q, terms), the
    equation a * a_s[q] = c_q - sum_(t, b) b a_t[q] on row s."""
    d = len(piv)
    if any(next(q for q, x in enumerate(c) if x) not in piv for c in contains):
        return None
    # recombine C's rows from the last pivot column of A leftwards: each
    # ends at a distinct row r, with 1 there and 0 at the others' rows
    left, last = [list(c) for c in contains], {}
    for t in range(d - 1, -1, -1):
        pt = piv[t]
        c = next((c for c in left if c[pt]), None)
        if c is None:
            continue
        left.remove(c)
        inv = pow(c[pt], -1, p)
        c = [x * inv % p for x in c]
        for group in (left, last.values()):
            for other in group:
                if other[pt]:
                    other[:] = [(x - other[pt] * y) % p for x, y in zip(other, c)]
        last[t] = c
    fixed, forced = {}, [[] for _ in range(d)]
    pivset = set(piv)
    for r, c in last.items():
        fixed[r] = c, [(t, c[piv[t]]) for t in range(r) if c[piv[t]]]
        for q in range(piv[r]):
            if q in pivset:
                continue
            terms = [(t, c[piv[t]]) for t in range(r) if piv[t] < q and c[piv[t]]]
            if terms:
                s, a = terms.pop()
                forced[s].append((q, a, c[q], terms))
            elif c[q]:
                return None
    return fixed, forced


def scan_subspaces(table, n: int, p: int, d: int, mode: int, limit: int, collect: int,
                   functionals=(), contains=()):
    sp = _sparse_table(table, n)
    # phi[i]: the functionals' values at e_i
    phi = [[f[i] for f in functionals] for i in range(n)]
    matches = []

    want_abelian = bool(mode & MODE_ABELIAN)
    want_ideal = bool(mode & MODE_IDEAL)

    def bracket_zero(u):
        """[u, u] == 0."""
        nz = [(i, ui) for i, ui in enumerate(u) if ui]
        sq = [0] * n
        for i, ui in nz:
            spi = sp[i]
            for j, uj in nz:
                cf = ui * uj
                for k, cc in spi[j]:
                    sq[k] += cf * cc
        return not any(x % p for x in sq)

    def abelian_values_for(piv):
        """The `row_values` of pivot set piv, or None when no subspace with
        pivots piv contains C."""
        cut = _containment(contains, piv, n, p)
        if cut is None:
            return None
        return functools.partial(abelian_values, *cut)

    def abelian_values(fixed, forced, rows, r, pc, cols):
        """Values of row r, with pivot pc and free entries at cols, for
        which it lies in K and brackets to zero with itself and, both ways,
        with rows 0..r-1, and C <= A stays possible; `fixed` and `forced`
        are the pivot set's `_containment`."""
        if r in fixed:
            # a_r = c - sum_t b a_t with c central: its brackets with
            # itself and with rows 0..r-1 are theirs among themselves, 0
            c, terms = fixed[r]
            yield tuple((c[q] - sum(b * rows[t][q] for t, b in terms)) % p for q in cols)
            return
        # the functionals and [u, v_s], [v_s, u] for s < r are linear in u:
        # g[i] holds their values for u = e_i
        g = [list(phi_i) for phi_i in phi]
        for v in rows[:r]:
            nz = [(j, vj) for j, vj in enumerate(v) if vj]
            for i in range(n):
                left = [0] * n
                right = [0] * n
                for j, vj in nz:
                    for k, cc in sp[i][j]:
                        left[k] += vj * cc
                    for k, cc in sp[j][i]:
                        right[k] += vj * cc
                g[i] += left + right
        target = [-x for x in g[pc]]
        # C's equations on row r: a * u[q] = c_q - sum_t b a_t[q]
        for q, a, cq, terms in forced[r]:
            for i in cols:
                g[i].append(a if i == q else 0)
            target.append(cq - sum(b * rows[t][q] for t, b in terms))
        u = [0] * n
        u[pc] = 1
        for vals in _lex_solutions([g[c] for c in cols], target, p):
            for c, x in zip(cols, vals):
                u[c] = x
            if bracket_zero(u):
                yield vals

    def in_span(w, rows, piv):
        w = list(w)
        for r, pc in enumerate(piv):
            c = w[pc]
            if c:
                br = rows[r]
                w = [(x - c * y) % p for x, y in zip(w, br)]
        return not any(w)

    def is_ideal(rows, piv):
        for u in rows:
            for j in range(n):
                w1 = [0] * n
                w2 = [0] * n
                for i in range(n):
                    ui = u[i]
                    if not ui:
                        continue
                    for k, cc in sp[i][j]:
                        w1[k] = (w1[k] + ui * cc) % p
                    for k, cc in sp[j][i]:
                        w2[k] = (w2[k] + ui * cc) % p
                if not in_span(w1, rows, piv) or not in_span(w2, rows, piv):
                    return False
        return True

    walk = canonical_subspaces(n, p, d, abelian_values_for if want_abelian else None)
    for index, piv, rows in walk:
        if 0 <= limit <= index:
            return limit, True, matches
        if want_ideal and not is_ideal(rows, piv):
            continue
        matches.append(tuple(x for row in rows for x in row))
        if 0 <= collect <= len(matches):
            return index + 1, False, matches

    total = gaussian_binomial(n, d, p)
    if 0 <= limit < total:
        return limit, True, matches
    return total, False, matches
