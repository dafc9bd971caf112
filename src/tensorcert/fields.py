"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Scalars are plain Python values: `fractions.Fraction` (always in lowest terms,
positive denominator) for the rationals, `int` residues in ``[0, p)`` for a
prime field.  A field descriptor object carries the arithmetic so that the
linear-algebra and polynomial kernels stay allocation-light and never mix
elements of different fields by accident.

No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

#: 30-bit prime of the field spec ``fp`` without a prime (a document's
#: ``field: fp``), and of ``linalg._LIFT_FIELD``: kernels are lifted from
#: it, and Theorem 3.7's checks over QQ run mod it first.
DEFAULT_PRIME = 1073741789

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: psi_13, the least strong pseudoprime to every base in ``_MR_BASES``
#: (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for every n < ``_MR_LIMIT``;
    raises ValueError from there on, where a composite could pass."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large for a deterministic primality test "
                         f"(limit {_MR_LIMIT})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of exact rationals.  Elements are `Fraction`."""

    modulus = None
    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def div(self, a, b):
        return a / b

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def mul_int(self, a, n: int):
        return a * n

    def is_zero(self, a) -> bool:
        return not a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field with a prime number of elements.  Elements are residues."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.modulus = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def __call__(self, value) -> int:
        p = self.modulus
        if isinstance(value, int):
            return value % p
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {p}")
            return value.numerator * pow(den, -1, p) % p
        if isinstance(value, str):
            return self(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def div(self, a, b):
        return a * self.inv(b) % self.modulus

    def inv(self, a):
        if a % self.modulus == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.modulus)

    def mul_int(self, a, n: int):
        return a * n % self.modulus

    def is_zero(self, a) -> bool:
        return a % self.modulus == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("Fp", self.modulus))

    def __repr__(self):
        return self.name


#: shared descriptor for the rationals
QQ = RationalField()


def numerators(values):
    """Integers N_i and the lcm D of the denominators, with values[i] = N_i / D.

    The one conversion of rationals to integers; an int is its own numerator.
    With D = 1 the numerators are returned as they are, not multiplied by 1.
    """
    den = lcm(*(x.denominator for x in values))
    if den == 1:
        return [x.numerator for x in values], den
    return [x.numerator * (den // x.denominator) for x in values], den


def primitive(ints):
    """The integers divided by their gcd; unchanged when that is 0 or 1."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def field_from_spec(spec: str):
    """Build a field from a command-line style spec: ``qq`` or ``fp[:P]``."""
    text = spec.strip().lower()
    if text in ("qq", "q", "rational", "rationals"):
        return QQ
    if text in ("fp", "fp:"):
        return PrimeField(DEFAULT_PRIME)
    if text.startswith("fp:") and text[3:].strip().isdecimal():
        return PrimeField(int(text[3:]))
    raise ValueError(f"unknown field spec {spec!r}; expected 'qq' or 'fp:P'")
