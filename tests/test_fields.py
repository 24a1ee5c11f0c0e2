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
