"""Quadratic residues over GF(p) by Euler's criterion and Tonelli-Shanks:
the same answers as the brute-force loops over all p elements they
replace, kept here as references, and fast at a 61-bit prime."""

import time

import pytest

from leibniz_algebras.classify import _quadratic_root, canonical_quadratic
from leibniz_algebras.fields import GF, _least_nonresidue, _sqrt_mod, is_prime
from leibniz_algebras.linalg import QuadraticPoly, is_irreducible_quadratic

PRIMES = [p for p in range(60) if is_prime(p)]
MERSENNE_61 = 2**61 - 1


def ref_is_square(F, a):
    return any((s * s) % F.p == a % F.p for s in range(F.p))


def ref_is_irreducible(q, F):
    return all(q.evaluate(F, t) != F.zero for t in F.elements())


def ref_canonical(F, q):
    """`canonical_quadratic` over GF(p), the least s^2 c0 tried for every s
    at c1 = 0."""
    if q.c1 != 0:
        s = F.inv(q.c1)
        return QuadraticPoly(F.one, F.mul(F.mul(s, s), q.c0))
    return QuadraticPoly(F.zero, min(F.mul(F.of(s * s), q.c0) for s in range(1, F.p)))


def ref_root(F, q):
    return next(t for t in F.elements() if q.evaluate(F, t) == F.zero)


@pytest.mark.parametrize("p", PRIMES)
def test_quadratic_helpers_agree_with_brute_force(p):
    F = GF(p)
    for a in range(p):
        assert F.is_square(a) == ref_is_square(F, a), a
        if p > 2 and F.is_square(a):
            assert _sqrt_mod(a, p) ** 2 % p == a
    for c1 in range(p):
        for c0 in range(p):
            q = QuadraticPoly(c1, c0)
            irreducible = ref_is_irreducible(q, F)
            assert is_irreducible_quadratic(q, F) == irreducible, (c1, c0)
            if not irreducible:
                assert _quadratic_root(F, q) == ref_root(F, q), (c1, c0)
            assert canonical_quadratic(F, q) == ref_canonical(F, q), (c1, c0)


def test_quadratic_helpers_are_fast_at_a_61_bit_prime():
    # each brute-force reference would loop 2^61 times here
    p = MERSENNE_61
    F = GF(p)
    z = _least_nonresidue(p)
    r1, r2 = 123456789, 987654321
    split = QuadraticPoly(F.neg(r1 + r2), r1 * r2 % p)  # (t - r1)(t - r2)
    calls = [
        (lambda: F.is_square(3), False),
        (lambda: F.is_square(z * z % p), True),
        (lambda: is_irreducible_quadratic(QuadraticPoly(0, F.neg(z)), F), True),  # t^2 - z
        (lambda: is_irreducible_quadratic(split, F), False),
        (lambda: canonical_quadratic(F, QuadraticPoly(0, 5 * z * z % p)).c0, 1 if F.is_square(5) else z),
        (lambda: _quadratic_root(F, split), r1),
    ]
    for call, want in calls:
        start = time.perf_counter()
        assert call() == want
        assert time.perf_counter() - start < 0.1
