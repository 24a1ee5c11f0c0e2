"""Subspace scan over GF(p): the hot search loop, in pure Python.

`scan_subspaces` tests predicates against a structure-constant table on
the subspaces of `linalg.canonical_subspaces`, the package's one walk in
canonical order, which fixes the RREF rows one at a time, row 0 first,
and lets a row test, chosen per pivot set, cut the whole pivot set or the
whole subtree below a row.  This module holds that row test, the cuts
below, and takes each of its linear-algebra steps from `linalg`: the
brackets [u, e_j] and [e_j, u] of a row u are `_row_action`, its square
[u, u] is `_pair_bracket`, the row solves are `_dependencies`, the
recombination of the center's rows is `_echelon` and the ideal test's
membership is `_clear`.

Contract:

    scan_subspaces(table, n, p, d, mode, limit, collect, functionals=(), contains=())
        -> (scanned, truncated, matches)

where `table[i][j]` lists the nonzero coordinates of [e_i, e_j] as (k, c)
pairs, c reduced mod p (the integer view `AlgebraTable._products` over
GF(p)), `mode` is a bitmask of MODE_* flags, `limit` caps the number of
subspaces examined (-1 for no cap) and `collect` caps the number of matches
gathered (-1 for all).  `functionals` are rows of linear functionals
on GF(p)^n that vanish on every match, and `contains` the RREF rows of a
central subspace C (one that brackets to 0 with everything) that every
match contains, both as the caller vouches; the MODE_ABELIAN walk cuts by
them.  Each match is (pivots, rows), the tuple of its pivot columns and
its d RREF basis rows, as `canonical_subspaces` yields them but copied to
tuples.
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

from .fields import GF
from .linalg import (_clear, _dependencies, _echelon, _pair_bracket, _row_action, canonical_subspaces,
                     gaussian_binomial)

MODE_ABELIAN = 1
MODE_IDEAL = 4


def _lex_solutions(columns, target, F):
    """Every x in GF(p)^f with sum_j x[j] * columns[j] == target (mod p), in
    lexicographic order.

    The solutions are read off the dependencies among [target, *columns]
    (`linalg._dependencies`), their kernel's canonical rows: each is 0
    before its pivot and at the other pivots.  The one with pivot 0, where
    it has 1, is (1, -x0) for a solution x0, and there is no solution when
    0 is no pivot.  Each other row (0, k_i), pivot i, is a solution k_i of
    the homogeneous system, and x = x0 + sum_i l_i k_i has l_i at i and,
    before the first i where two l differ, equal entries.  So l in
    `itertools.product` order, as `added` lists them, gives every solution
    once, in lexicographic order.  With no equation every x is one, and
    `itertools.product` lists them with no elimination."""
    p = F.p
    if not target:
        yield from itertools.product(range(p), repeat=len(columns))
        return
    deps = _dependencies(F, [[t % p for t in target], *([x % p for x in col] for col in columns)])
    if deps.pivots[:1] != (0,):
        return
    minus_x0, *homogeneous = [row[1:] for row in deps._rows]

    def added(x, ks):
        """x + sum_i l_i ks[i], l in product order; ks is not empty."""
        for l in range(p):
            y = [(a + l * b) % p for a, b in zip(x, ks[0])]
            yield from added(y, ks[1:]) if len(ks) > 1 else (tuple(y),)

    x0 = [-x % p for x in minus_x0]
    yield from added(x0, homogeneous) if homogeneous else (tuple(x0),)


def _containment(contains, piv, F):
    """What "C <= A" asks of the rows a_t of a subspace A with pivots
    `piv`, C spanned by the RREF rows `contains` (see the module
    docstring): None when no such A contains C, else (fixed, forced).
    fixed[r] is (c, terms) for each row r that C computes, a_r = c -
    sum_(t, b) b a_t over terms; forced[s] lists (q, a, c_q, terms), the
    equation a * a_s[q] = c_q - sum_(t, b) b a_t[q] on row s.

    C's rows are recombined by one `linalg._echelon` of their entries at
    A's pivot columns, last first, each row carrying itself in its tail: C
    is independent on those columns, and RREF there is unique."""
    d = len(piv)
    if any(next(q for q, x in enumerate(c) if x) not in piv for c in contains):
        return None
    rows, pivots = _echelon(F, [[*(c[q] for q in reversed(piv)), *c] for c in contains], d)
    last = {d - 1 - s: row[d:] for row, s in zip(rows, pivots)}
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
    F = GF(p)
    # phi[i]: the functionals' values at e_i
    phi = [[f[i] for f in functionals] for i in range(n)]
    matches = []

    def abelian_values_for(piv):
        """The `row_values` of pivot set piv, or None when no subspace with
        pivots piv contains C."""
        cut = _containment(contains, piv, F)
        return None if cut is None else functools.partial(abelian_values, *cut)

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
            for gi, iv, vi in zip(g, _row_action(table, v, p, False), _row_action(table, v, p)):
                gi += iv + vi
        target = [-x for x in g[pc]]
        # C's equations on row r: a * u[q] = c_q - sum_t b a_t[q]
        for q, a, cq, terms in forced[r]:
            for i in cols:
                g[i].append(a if i == q else 0)
            target.append(cq - sum(b * rows[t][q] for t, b in terms))
        u = [0] * n
        u[pc] = 1
        for vals in _lex_solutions([g[c] for c in cols], target, F):
            for c, x in zip(cols, vals):
                u[c] = x
            if not any(_pair_bracket(table, u, u, p)):
                yield vals

    def is_ideal(rows, piv):
        span = list(zip(piv, rows))
        return not any(any(_clear(p, w, span))
                       for u in rows for left in (True, False) for w in _row_action(table, u, p, left))

    walk = canonical_subspaces(n, p, d, abelian_values_for if mode & MODE_ABELIAN else None)
    for index, piv, rows in walk:
        if 0 <= limit <= index:
            return limit, True, matches
        if mode & MODE_IDEAL and not is_ideal(rows, piv):
            continue
        matches.append((piv, tuple(map(tuple, rows))))
        if 0 <= collect <= len(matches):
            return index + 1, False, matches

    total = gaussian_binomial(n, d, p)
    if 0 <= limit < total:
        return limit, True, matches
    return total, False, matches
