import math
import time
from fractions import Fraction

import pytest

from leibniz_algebras.errors import FieldMismatchError
from leibniz_algebras.fields import GF, QQ, FieldSpec, check_same_field, is_prime

from conftest import F2, F3, F5, rand_scalar


def test_prime_validation():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(4) and not is_prime(91)
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)


def test_is_prime_agrees_with_trial_division():
    primes = []
    for n in range(200_000):
        want = n >= 2
        for q in primes:
            if q * q > n:
                break
            if n % q == 0:
                want = False
                break
        if want:
            primes.append(n)
        assert is_prime(n) == want, n


def strong_probable_prime(n, a):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**s, n) == n - 1 for s in range(1, r))


# OEIS A014233: a(k) is the least odd composite that is a strong probable
# prime to each of the first k prime bases, with its factors
STRONG_PSEUDOPRIMES = [
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)),
    (3317044064679887385961981, (1287836182261, 2575672364521)),
]
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_is_prime_on_the_strong_pseudoprimes():
    for k, (n, factors) in enumerate(STRONG_PSEUDOPRIMES, 1):
        assert math.prod(factors) == n
        assert all(strong_probable_prime(n, a) for a in PRIME_BASES[:k])
        if k < 13:
            assert is_prime(n) is False
    # the last one passes every base: there the test stops being exact
    bound = STRONG_PSEUDOPRIMES[-1][0]
    for n in (bound, bound + 2, 2**89 - 1, 2**127 - 1):
        with pytest.raises(ValueError, match="not decided"):
            is_prime(n)
    with pytest.raises(ValueError):
        FieldSpec.prime(2**89 - 1)


def test_large_prime_moduli_are_decided_at_once():
    # 2^67 - 1 = 193707721 * 761838257287
    for n, want in ((2**31 - 1, True), (2**61 - 1, True), (2**67 - 1, False), (10**12 + 39, True),
                    (10**14 + 31, True)):
        t0 = time.perf_counter()
        assert is_prime(n) is want
        assert time.perf_counter() - t0 < 0.01
    assert GF(2**61 - 1).p == 2**61 - 1


def test_characteristics():
    assert QQ.characteristic == 0
    assert GF(7).characteristic == 7
    assert not QQ.is_prime_field and GF(7).is_prime_field


def test_coercion_and_reduction():
    assert F3.of(-1) == 2
    assert F3.of(7) == 1
    assert F3.of(Fraction(1, 2)) == 2  # 1/2 = 2 mod 3
    assert QQ.of("3/6") == Fraction(1, 2)
    assert F5.of("7") == 2
    with pytest.raises(ZeroDivisionError):
        F3.of(Fraction(1, 3))
    x = QQ.of(Fraction(-2, 6))
    assert x == Fraction(-1, 3) and type(x) is Fraction
    assert type(QQ.of(5)) is Fraction and QQ.of(5) == 5
    for F in (QQ, F3):
        with pytest.raises(TypeError):
            F.of(True)
    assert type(QQ.zero) is Fraction and type(QQ.one) is Fraction
    assert type(F5.zero) is int and type(F5.one) is int
    assert (QQ.zero, QQ.one, F5.zero, F5.one) == (0, 1, 0, 1)


def test_fractions_always_normalized():
    x = QQ.add(Fraction(1, 6), Fraction(1, 3))
    assert x.numerator == 1 and x.denominator == 2
    y = QQ.of(Fraction(2, -4))
    assert y.denominator > 0 and y == Fraction(-1, 2)


def test_extended_euclid_inverse():
    for p in (2, 3, 5, 7, 11, 97):
        F = GF(p)
        for a in range(1, p):
            assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


def test_inverse_edge_cases():
    # the inverse is pow(a, -1, p) after a zero test: -1, p + 1 and
    # residues near 2^61 - 1 invert, p and 0 raise, as 0 does over QQ
    for p in (2, 3, 5, 2**61 - 1):
        F = GF(p)
        units = [-1, p + 1, p - 1, 2 * p - 1] + ([2, 3, 2**60, 2**61 - 2, 12345678901] if p > 5 else [])
        for a in units:
            assert F.mul(a, F.inv(a)) == 1 and 0 <= F.inv(a) < p
        for a in (0, p, -p, 2 * p):
            with pytest.raises(ZeroDivisionError):
                F.inv(a)
        assert F.mul(F.of(Fraction(1, p + 1)), p + 1) == 1
        with pytest.raises(ZeroDivisionError):
            F.of(Fraction(1, p))
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)


def test_field_axioms_randomized(rng):
    for F in (QQ, F2, F3, F5):
        for _ in range(1000):
            a, b, c = (rand_scalar(F, rng) for _ in range(3))
            assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == F.zero
            if a != F.zero:
                assert F.mul(a, F.inv(a)) == F.one


def test_elements_enumeration():
    assert list(F3.elements()) == [0, 1, 2]
    with pytest.raises(ValueError):
        QQ.elements()


def test_mismatch_guard():
    with pytest.raises(FieldMismatchError):
        check_same_field(F3, F5)
    check_same_field(F3, GF(3))
