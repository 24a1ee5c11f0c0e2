"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Scalars are plain Python values: `fractions.Fraction` over the rationals
(always normalized: lowest terms, positive denominator) and `int` residues
in [0, p) over GF(p).  A `FieldSpec` carries the operations; values from
different field specs must never be mixed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

from .errors import FieldMismatchError

Scalar = Union[Fraction, int]

RATIONALS = "rationals"
PRIME = "gf"

_QQ_ZERO = Fraction(0)
_QQ_ONE = Fraction(1)


# The strong probable-prime test to all of these bases is passed by no odd
# composite below _PRIME_BOUND, the least one that passes it (OEIS A014233).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n < _PRIME_BOUND: trial division by the bases,
    then the Miller-Rabin test to each base.  Raises ValueError for
    n >= _PRIME_BOUND, where the test would be a guess."""
    if n >= _PRIME_BOUND:
        raise ValueError(
            "primality of %d is not decided: the test is exact below %d" % (n, _PRIME_BOUND)
        )
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    r = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> r
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _least_nonresidue(p: int) -> int:
    """The least quadratic non-residue mod an odd prime p, by Euler's
    criterion: z^((p-1)/2) is -1 exactly for the non-residues."""
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return z


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a residue a mod an odd prime p, by Tonelli-Shanks:
    with p - 1 = q 2^s, q odd, r = a^((q+1)/2) has r^2 = a t, t = a^q of
    order dividing 2^s, and each step multiplies r by a power b of
    z^q, z a non-residue, halving the order of t until t = 1."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    c, t, r = pow(_least_nonresidue(p), q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        # t has order 2^i, i < s
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


class _FieldSpecRecord(NamedTuple):
    kind: str
    p: int | None = None


class FieldSpec(_FieldSpecRecord):
    """An exact base field: the rationals, or GF(p) for a prime p.  An
    immutable (kind, p) tuple, checked when it is made."""

    __slots__ = ()

    def __new__(cls, kind: str, p: int | None = None):
        if kind == RATIONALS:
            if p is not None:
                raise ValueError("rationals take no modulus")
        elif kind == PRIME:
            if p is None or not is_prime(p):
                raise ValueError("composite or missing modulus: %r" % (p,))
        else:
            raise ValueError("unknown field kind %r" % (kind,))
        return super().__new__(cls, kind, p)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(RATIONALS)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(PRIME, p)

    # -- basic queries -----------------------------------------------------

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == RATIONALS else self.p  # type: ignore[return-value]

    @property
    def is_prime_field(self) -> bool:
        return self.kind == PRIME

    def __repr__(self):
        return "QQ" if self.kind == RATIONALS else "GF(%d)" % self.p

    # -- element construction ---------------------------------------------

    def of(self, x) -> Scalar:
        """Coerce an int, Fraction, or scalar string into this field.

        A value already in canonical form (a Fraction over QQ, an int in
        [0, p) over GF(p)) is returned unchanged.
        """
        p = self.p
        if p is None:
            if type(x) is Fraction:
                return x
            if isinstance(x, bool):
                raise TypeError("bool is not a scalar")
            if isinstance(x, (int, Fraction, str)):
                return Fraction(x)
            raise TypeError("cannot coerce %r into QQ" % (x,))
        if isinstance(x, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(x, int):
            return x % p
        if isinstance(x, str):
            return int(x, 10) % p
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % p)
            return x.numerator * pow(x.denominator, -1, p) % p
        raise TypeError("cannot coerce %r into GF(%d)" % (x, p))

    __call__ = of

    @property
    def zero(self) -> Scalar:
        return _QQ_ZERO if self.p is None else 0

    @property
    def one(self) -> Scalar:
        return _QQ_ONE if self.p is None else 1

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.kind == RATIONALS else (a + b) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.kind == RATIONALS else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.kind == RATIONALS else (a * b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.kind == RATIONALS else (-a) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if self.kind == RATIONALS:
            if a == 0:
                raise ZeroDivisionError("inverse of zero in QQ")
            return Fraction(1) / a
        p = self.p
        if a % p == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % p)
        return pow(a, -1, p)

    def is_square(self, a: Scalar) -> bool:
        """Exact squareness test.  Over GF(p) by Euler's criterion: a
        nonzero a is a square iff a^((p-1)/2) = 1, which also holds over
        GF(2), where every element is a square."""
        if self.kind == PRIME:
            p = self.p
            return a % p == 0 or pow(a, (p - 1) // 2, p) == 1
        if a < 0:
            return False
        num, den = a.numerator, a.denominator
        return math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den

    # -- enumeration (prime fields only) ------------------------------------

    def elements(self) -> Iterator[Scalar]:
        if self.kind != PRIME:
            raise ValueError("cannot enumerate the rationals")
        return iter(range(self.p))

    # -- formatting ----------------------------------------------------------

    def format(self, a: Scalar) -> str:
        if self.kind == PRIME:
            return str(a)
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)


QQ = FieldSpec.rationals()


def GF(p: int) -> FieldSpec:
    return FieldSpec.prime(p)


def check_same_field(f1: FieldSpec, f2: FieldSpec) -> None:
    if f1 != f2:
        raise FieldMismatchError("field mismatch: %r vs %r" % (f1, f2))
