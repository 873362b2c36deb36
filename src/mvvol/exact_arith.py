r"""Exact arithmetic on rational multiples of even powers of pi.

Every quantity produced by the volume pipeline lives in the graded ring
Q[pi^2, pi^-2]: a finite sum sum_e q_e * pi^e with q_e rational and every
exponent e an even integer (negative exponents allowed).  PiValue stores the
nonzero coefficients exactly and renders either as canonical text or as a
fixed-precision decimal using an embedded 100-digit value of pi.

Also provides the Bernoulli numbers (B_1 = -1/2 convention), the even zeta
values as exact pi-monomials, and the alternating variant

    frak_z(k) = (2 - 2^(2-k)) * zeta(k)   for even k >= 2,

extended by frak_z(0) = 1 and frak_z(k) = 0 for k odd or negative.  The
k = 0 value encodes the zeta(0) = -1/2 convention: (2 - 2^2) * (-1/2) = 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import Union

__all__ = [
    "PI_DIGITS",
    "PiValue",
    "bernoulli",
    "zeta_even",
    "frak_z",
]

# pi to 100 decimal digits; decimal rendering is capped at this precision.
PI_DIGITS = (
    "3."
    "1415926535897932384626433832795028841971693993751"
    "058209749445923078164062862089986280348253421170679"
)

RationalLike = Union[int, Fraction]


def _as_fraction(q: RationalLike) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise TypeError(f"expected an exact rational, got {type(q).__name__}")


class PiValue:
    """A finite exact sum of terms q * pi^e with even integer exponents e.

    Immutable and hashable; the term list is kept sorted by exponent with all
    zero coefficients dropped, so equal values have equal representations.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[int, RationalLike], Iterable[tuple[int, RationalLike]]] = ()):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        acc: dict[int, Fraction] = {}
        for e, q in items:
            if not isinstance(e, int) or e % 2 != 0:
                raise ValueError(f"pi-exponent must be an even integer, got {e!r}")
            q = _as_fraction(q)
            if q:
                acc[e] = acc.get(e, Fraction(0)) + q
        self._terms = tuple(sorted((e, q) for e, q in acc.items() if q))

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "PiValue":
        return cls()

    @classmethod
    def from_rational(cls, q: RationalLike, exponent: int = 0) -> "PiValue":
        return cls([(exponent, q)])

    @classmethod
    def from_graded(cls, q: RationalLike, exponent: int) -> "PiValue":
        """q * pi^exponent where a grading fixes the exponent: zero when q
        is zero, whose exponent may then be odd (its terms all vanished).

        Builds its one term directly: the same value as
        PiValue([(exponent, q)]), and the same errors for a nonzero int or
        Fraction q; a float q raises TypeError whatever its exponent.
        """
        q = _as_fraction(q)
        if not q:
            return cls()
        if not isinstance(exponent, int) or exponent % 2 != 0:
            raise ValueError(f"pi-exponent must be an even integer, got {exponent!r}")
        value = cls.__new__(cls)
        value._terms = ((exponent, q),)
        return value

    # -- structure --------------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def monomial(self) -> tuple[Fraction, int]:
        """Return (coefficient, exponent); raises unless exactly one term."""
        if len(self._terms) != 1:
            raise ValueError(f"not a monomial: {self}")
        e, q = self._terms[0]
        return q, e

    def coefficient(self, exponent: int) -> Fraction:
        for e, q in self._terms:
            if e == exponent:
                return q
        return Fraction(0)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "PiValue") -> "PiValue":
        if not isinstance(other, PiValue):
            return NotImplemented
        acc = dict(self._terms)
        for e, q in other._terms:
            acc[e] = acc.get(e, Fraction(0)) + q
        return PiValue(acc)

    def __sub__(self, other: "PiValue") -> "PiValue":
        if not isinstance(other, PiValue):
            return NotImplemented
        acc = dict(self._terms)
        for e, q in other._terms:
            acc[e] = acc.get(e, Fraction(0)) - q
        return PiValue(acc)

    def __neg__(self) -> "PiValue":
        return PiValue([(e, -q) for e, q in self._terms])

    def __mul__(self, other: Union["PiValue", RationalLike]) -> "PiValue":
        if isinstance(other, PiValue):
            acc: dict[int, Fraction] = {}
            for e1, q1 in self._terms:
                for e2, q2 in other._terms:
                    e = e1 + e2
                    acc[e] = acc.get(e, Fraction(0)) + q1 * q2
            return PiValue(acc)
        if isinstance(other, (int, Fraction)):
            return PiValue([(e, q * other) for e, q in self._terms])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: Union["PiValue", RationalLike]) -> "PiValue":
        if isinstance(other, PiValue):
            q, e = other.monomial()  # only monomial divisors make sense here
            return PiValue([(e1 - e, q1 / q) for e1, q1 in self._terms])
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of PiValue by zero")
            return PiValue([(e, q / other) for e, q in self._terms])
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PiValue):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._terms)

    # -- rendering --------------------------------------------------------

    @staticmethod
    def _term_str(q: Fraction, e: int) -> str:
        if e == 0:
            return str(q)
        return f"{q} * pi^{e}"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        e0, q0 = self._terms[0]
        parts = [self._term_str(q0, e0)]
        for e, q in self._terms[1:]:
            sign = " + " if q > 0 else " - "
            parts.append(sign + self._term_str(abs(q), e))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"PiValue({self})"

    def to_decimal(self, digits: int = 50) -> Decimal:
        """Evaluate to a Decimal with `digits` significant digits (<= 100)."""
        if not 1 <= digits <= 100:
            raise ValueError("digits must be between 1 and 100")
        with localcontext() as ctx:
            ctx.prec = digits + 15
            pi = Decimal(PI_DIGITS)
            total = Decimal(0)
            for e, q in self._terms:
                total += Decimal(q.numerator) / Decimal(q.denominator) * pi**e
            ctx.prec = digits
            return +total

    def to_float(self) -> float:
        return sum(float(q) * math.pi**e for e, q in self._terms)


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the B_1 = -1/2 convention.

    Computed from sum_{k=0}^{n} C(n+1, k) B_k = 0.  Concurrent calls may
    duplicate work but always return equal values.
    """
    if n < 0:
        raise ValueError("Bernoulli numbers need n >= 0")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def zeta_even(k: int) -> PiValue:
    """zeta(k) for even k >= 2, as an exact rational multiple of pi^k.

    zeta(k) = (-1)^(k/2+1) * B_k * 2^(k-1) / k! * pi^k, so zeta(2) = pi^2/6,
    zeta(4) = pi^4/90, zeta(6) = pi^6/945.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("zeta_even needs an even argument k >= 2")
    q = (-1) ** (k // 2 + 1) * bernoulli(k) * 2 ** (k - 1) / math.factorial(k)
    return PiValue.from_rational(q, k)


@lru_cache(maxsize=None)
def frak_z(k: int) -> PiValue:
    """Alternating even zeta value (2 - 2^(2-k)) * zeta(k), as a PiValue.

    Zero for k odd or negative, one for k = 0.  frak_z(2) = pi^2/6 and
    frak_z(4) = 7/360 * pi^4.  Numerically frak_z(k) -> 2 as k grows.
    """
    if k < 0 or k % 2 != 0:
        return PiValue.zero()
    if k == 0:
        return PiValue.from_rational(1)
    return zeta_even(k) * (2 - Fraction(2) ** (2 - k))
