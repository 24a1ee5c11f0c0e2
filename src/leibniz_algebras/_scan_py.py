"""Subspace scan over GF(p): the hot search loop, in pure Python.

`canonical_subspaces` walks every d-dimensional subspace of GF(p)^n in
canonical order: pivot-column sets lexicographically, then free entries
row-major with the last position fastest.  It is the one enumerator of the
package; `linalg.enumerate_subspaces` wraps its rows in `Subspace` objects,
and `scan_subspaces` tests predicates against a structure-constant table on
each subspace it yields.

Contract:

    scan_subspaces(table, n, p, d, mode, limit, collect)
        -> (scanned, truncated, matches)

where `table` is the flattened n*n*n tensor (index ((i*n)+j)*n + k) with
entries reduced mod p, `mode` is a bitmask of MODE_* flags, `limit` caps the
number of subspaces examined (-1 for no cap) and `collect` caps the number of
matches gathered (-1 for all).  Matches are flattened d*n row-major RREF
basis matrices.  `truncated` is True only when the limit stopped the scan
before exhaustion with the collection still open.
"""

from __future__ import annotations

import itertools

MODE_ABELIAN = 1
MODE_IDEAL = 4


def canonical_subspaces(n: int, p: int, d: int):
    """Yield (pivots, rows) for every d-dimensional subspace of GF(p)^n.

    `rows` is a fresh d x n RREF basis (lists of ints mod p) and `pivots`
    the tuple of its pivot columns, in canonical order.
    """
    for piv in itertools.combinations(range(n), d):
        pivset = set(piv)
        free_pos = [
            (r, c) for r in range(d) for c in range(piv[r] + 1, n) if c not in pivset
        ]
        for vals in itertools.product(range(p), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(d)]
            for r in range(d):
                rows[r][piv[r]] = 1
            for (r, c), v in zip(free_pos, vals):
                rows[r][c] = v
            yield piv, rows


def _sparse_table(table, n):
    """Per-(i, j) list of (k, coeff) with coeff != 0."""
    sp = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            base = (i * n + j) * n
            sp[i][j] = [(k, table[base + k]) for k in range(n) if table[base + k]]
    return sp


def scan_subspaces(table, n: int, p: int, d: int, mode: int, limit: int, collect: int):
    sp = _sparse_table(table, n)
    scanned = 0
    truncated = False
    matches = []

    want_abelian = bool(mode & MODE_ABELIAN)
    want_ideal = bool(mode & MODE_IDEAL)

    def brack(u, v):
        out = [0] * n
        for i in range(n):
            ui = u[i]
            if not ui:
                continue
            spi = sp[i]
            for j in range(n):
                vj = v[j]
                if not vj:
                    continue
                cf = ui * vj
                for k, cc in spi[j]:
                    out[k] = (out[k] + cf * cc) % p
        return out

    def in_span(w, rows, piv):
        w = list(w)
        for r, pc in enumerate(piv):
            c = w[pc]
            if c:
                br = rows[r]
                w = [(x - c * y) % p for x, y in zip(w, br)]
        return not any(w)

    for piv, rows in canonical_subspaces(n, p, d):
        if limit >= 0 and scanned >= limit:
            truncated = True
            return scanned, truncated, matches
        scanned += 1

        ok = True
        if want_abelian:
            for r in range(d):
                for s in range(d):
                    if any(brack(rows[r], rows[s])):
                        ok = False
                        break
                if not ok:
                    break
        if ok and want_ideal:
            for r in range(d):
                u = rows[r]
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
                        ok = False
                        break
                if not ok:
                    break

        if ok:
            matches.append(tuple(x for row in rows for x in row))
            if collect >= 0 and len(matches) >= collect:
                return scanned, truncated, matches

    return scanned, truncated, matches
