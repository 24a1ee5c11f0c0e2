"""A fixed piece of pure-Python work that times the host, not the package.

The host this benchmark was written on shares its cores: its speed for
pure-Python code moves by 10-50%, in bursts from a fraction of a second to
minutes long, the same for this routine as for the package.  `run.py`
times this routine between the requests of a pass, every INTERVAL seconds,
and reports the pass's request times as multiples of its mean, so a slow
stretch of the host moves both alike and the quotient stays put.  The
routine does what the package's hot paths do (Gaussian elimination mod p on
lists of ints, Fraction arithmetic, dict updates keyed by tuples) and
imports nothing from the package, so no change to the package can move it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

INTERVAL = 0.1  # seconds between samples; one sample takes about 5 ms on a 2.1 GHz Xeon


def work():
    p, n = 5, 14
    rank = 0
    for seed in range(26):
        rows = [[(i * 7 + j * 3 + i * j * seed + seed) % p for j in range(n)] for i in range(n)]
        r = 0
        for c in range(n):
            pivot = next((i for i in range(r, n) if rows[i][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = pow(rows[r][c], p - 2, p)
            rows[r] = [x * inv % p for x in rows[r]]
            for i in range(n):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
            r += 1
        rank += r
    m = [[Fraction(i * 3 + j + 1, j + 2) for j in range(6)] for i in range(6)]
    for c in range(6):
        for i in range(c + 1, 6):
            f = m[i][c] / m[c][c] if m[c][c] else Fraction(0)
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    counts = {}
    for i in range(13000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return rank, m[5][5], len(counts)


def sample():
    """Seconds one run of `work` takes now."""
    t0 = perf_counter()
    work()
    return perf_counter() - t0
