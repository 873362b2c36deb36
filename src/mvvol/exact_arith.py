r"""Exact arithmetic on rational multiples of even powers of pi.

Every quantity produced by the volume pipeline is a single monomial
q * pi^e with q rational and e an even integer (negative exponents
allowed): the grading fixes e for each bracket, c_value, volume and
Siegel-Veech ratio (after Eskin-Okounkov, a volume is a rational multiple
of pi^(2g)).  PiValue stores q exactly with its exponent and renders
either as canonical text of any length or as a fixed-precision decimal
using an embedded 130-digit value of pi.  A sum of two nonzero values with different
exponents is refused: the grading never asks for one.

Also provides the Bernoulli numbers (B_1 = -1/2 convention) through the
slopes

    frak_slope(k) = (-1)^(k/2+1) * (2^k - 2) * B_k = k! * z(k)   for even k >= 0,

with z(k) the coefficient of pi^k in the alternating zeta value

    frak_z(k) = (2 - 2^(2-k)) * zeta(k)   for even k >= 2,

extended by frak_z(0) = 1 and frak_z(k) = 0 for k odd or negative.  The
k = 0 value encodes the zeta(0) = -1/2 convention: (2 - 2^2) * (-1/2) = 1.
The slopes c_0 .. c_N are the fourth column of the scale table of
odd_scales, read off the integer tangent numbers T_h by

    c_2h = (4^h - 2) * 2h * T_h / (4^h * (4^h - 1)),   c_0 = 1,

with T_1 .. T_(N/2) from the in-place integer recurrence of Brent and
Harvey ("Fast computation of Bernoulli, tangent and secant numbers",
2011): O(N^2) products of a big and a small int, and no gcd until each
slope is reduced once.  bernoulli, zeta_even and frak_z derive their
values from the column and keep none of their own.
"""

from __future__ import annotations

import math
from decimal import Decimal, Overflow, Underflow, localcontext
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Union

__all__ = [
    "PI_DIGITS",
    "PiValue",
    "int_str",
    "bernoulli",
    "frak_slope",
    "zeta_even",
    "frak_z",
    "clear_cache",
]

# pi to 130 significant digits: decimal rendering is capped at 100, and the
# 30 more keep the error of pi^e, about e * 10^-130, below the last digit
PI_DIGITS = (
    "3."
    "1415926535897932384626433832795028841971693993751"
    "058209749445923078164062862089986280348253421170679"
    "82148086513282306647093844609"
)
_PI = Decimal(PI_DIGITS)  # exact in any context

RationalLike = Union[int, Fraction]


def int_str(n: int) -> str:
    """str(n) at any size.  str() refuses an int of more digits than
    sys.get_int_max_str_digits() (4300 by default); Decimal converts it
    exactly and is not subject to that limit."""
    return str(Decimal(n))


class PiValue:
    """An exact monomial q * pi^e: q a Fraction, e an even int.

    Immutable and hashable.  Zero is stored with e = 0, so equal values
    have equal representations.
    """

    __slots__ = ("q", "e")

    def __init__(self, q: RationalLike, exponent: int = 0):
        """q * pi^exponent.  q must be an int or a Fraction, not a bool
        (TypeError otherwise, checked first); a nonzero q needs an even int
        exponent, not a bool (ValueError otherwise), while a zero q gives
        zero whatever the exponent, as a grading may assign an odd one to a
        vanishing sum."""
        if isinstance(q, int) and not isinstance(q, bool):
            q = Fraction(q)
        elif not isinstance(q, Fraction):
            raise TypeError(f"expected an exact rational, got {type(q).__name__}")
        if not q:
            exponent = 0
        elif type(exponent) is not int or exponent % 2 != 0:
            raise ValueError(f"pi-exponent must be an even integer, got {exponent!r}")
        self.q = q
        self.e = exponent

    @classmethod
    def zero(cls) -> "PiValue":
        return cls(0)

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.q

    def monomial(self) -> tuple[Fraction, int]:
        """Return (coefficient, exponent); raises for zero, which has no
        pi-exponent."""
        if not self.q:
            raise ValueError(f"not a monomial: {self}")
        return self.q, self.e

    def coefficient(self, exponent: int) -> Fraction:
        return self.q if exponent == self.e else Fraction(0)

    # -- ring operations --------------------------------------------------

    def _exponent_with(self, other: "PiValue") -> int:
        """Common exponent of a sum; a zero summand takes the other's."""
        if not other.q or self.e == other.e:
            return self.e
        if not self.q:
            return other.e
        raise ValueError(f"cannot add pi-monomials of different exponents: {self}, {other}")

    def __add__(self, other: "PiValue") -> "PiValue":
        if not isinstance(other, PiValue):
            return NotImplemented
        return PiValue(self.q + other.q, self._exponent_with(other))

    def __sub__(self, other: "PiValue") -> "PiValue":
        if not isinstance(other, PiValue):
            return NotImplemented
        return PiValue(self.q - other.q, self._exponent_with(other))

    def __neg__(self) -> "PiValue":
        return PiValue(-self.q, self.e)

    def __mul__(self, other: Union["PiValue", RationalLike]) -> "PiValue":
        if isinstance(other, PiValue):
            return PiValue(self.q * other.q, self.e + other.e)
        if isinstance(other, (int, Fraction)):
            return PiValue(self.q * other, self.e)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: Union["PiValue", RationalLike]) -> "PiValue":
        if isinstance(other, PiValue):
            return PiValue(self.q / other.q, self.e - other.e)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of PiValue by zero")
            return PiValue(self.q / other, self.e)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.q)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PiValue):
            return self.q == other.q and self.e == other.e
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.e))

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        text = int_str(self.q.numerator)
        if self.q.denominator != 1:
            text += "/" + int_str(self.q.denominator)
        return f"{text} * pi^{self.e}" if self.e else text  # zero included

    def __repr__(self) -> str:
        return f"PiValue({self})"

    def to_decimal(self, digits: int = 50) -> Decimal:
        """Evaluate to a Decimal with `digits` significant digits, an int in
        1..100 (ValueError otherwise, a bool included); ValueError when the
        value or pi^e leaves Decimal's exponent range."""
        if type(digits) is not int or not 1 <= digits <= 100:
            raise ValueError(f"digits must be an int between 1 and 100: {digits!r}")
        with localcontext() as ctx:
            ctx.prec = digits + 15
            ctx.traps[Underflow] = True
            try:
                q = Decimal(self.q.numerator) / Decimal(self.q.denominator)
                total = q * _PI ** self.e
                ctx.prec = digits
                return +total
            except (Overflow, Underflow):
                raise ValueError(f"a value at pi^{self.e} is out of decimal range") from None

    def to_float(self) -> float:
        """The value as a float, through a 17-digit Decimal: math.pi**e
        overflows a float from e = 621 on, where the value may be small."""
        return float(self.to_decimal(17))


def _tangent_numbers(n: int) -> tuple[int, ...]:
    """T_0 = 0 and the tangent numbers T_1 .. T_n (1, 2, 16, 272, ...), by
    the Brent-Harvey recurrence: T_k = (k - 1)! to start, then for each k
    the sweep T_j <- (j - k) T_(j-1) + (j - k + 2) T_j over j >= k."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t)


# D_n / D_(n-1), D_n, n! D_n and frak_slope(n) for n = 0 .. len - 1, D_n =
# prod p^floor(n/(p-1)) over the odd primes p; empty until a scale is asked for
_SCALES: tuple[tuple, ...] = ((), (), (), ())
# t -> Q_t, the row D_t / (D_j D_(t-j)) for j = 0 .. t; filled on first use
_QUOTIENTS: dict[int, tuple[int, ...]] = {}


def exact_quotient(n: int, d: int, what: str) -> int:
    """n / d for an integer quotient; a remainder raises ArithmeticError(what)."""
    q, r = divmod(n, d)
    if r:
        raise ArithmeticError(what)
    return q


def _odd_prime_steps(top: int) -> list[int]:
    """D_n / D_(n-1) for n = 0 .. top (1 at n = 0): the product of the odd
    primes p with (p - 1) | n."""
    step = [1] * (top + 1)
    composite = bytearray(top + 2)
    for p in range(3, top + 2, 2):
        if not composite[p]:
            composite[p * p::2 * p] = b"\1" * len(range(p * p, top + 2, 2 * p))
            for n in range(p - 1, top + 1, p - 1):
                step[n] *= p
    return step


def odd_scales(n: int) -> tuple[tuple, ...]:
    """The columns (D_k / D_(k-1), D_k, k! D_k, frak_slope(k)), k = 0 .. m
    for some m >= n, that scale every integer series of the package and
    give its slopes; D_k clears the denominator of frak_slope(k) (von
    Staudt-Clausen).  The slopes come from one sweep of tangent numbers
    (module docstring), and are 0 at odd k.  Grown by doubling; each larger
    table is built locally and published by one assignment, so concurrent
    callers may build it twice but always read equal columns."""
    global _SCALES
    table = _SCALES
    if n >= len(table[0]):
        step = _odd_prime_steps(max(n, 2 * len(table[0])))
        d = tuple(accumulate(step, mul))
        factorials = accumulate(range(1, len(d)), mul, initial=1)
        half = (len(d) - 1) // 2
        t, slopes = _tangent_numbers(half), [Fraction(1)] + [Fraction(0)] * (len(d) - 1)
        for h in range(1, half + 1):
            q = 4**h
            slopes[2 * h] = Fraction((q - 2) * 2 * h * t[h], q * (q - 1))
        table = _SCALES = (tuple(step), d, tuple(map(mul, factorials, d)), tuple(slopes))
    return table


def odd_quotients(t: int) -> tuple[int, ...]:
    """Q_t, the integers D_t / (D_j D_(t-j)) for j = 0 .. t, so that C(t, j)
    Q_t[j] = t! D_t / (j! D_j (t-j)! D_(t-j)), stepped up from Q_t[0] = 1 on
    the small steps D_n / D_(n-1); a remainder raises ArithmeticError.  Built
    on first use, by the lattice series only, and published by one assignment."""
    row = _QUOTIENTS.get(t)
    if row is None:
        step, half = odd_scales(t)[0], [1]
        for j in range(t // 2):
            half.append(exact_quotient(half[j] * step[t - j], step[j + 1], "Q_t is not an integer"))
        row = _QUOTIENTS[t] = (*half, *half[::-1][1 - t % 2:])
    return row


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with the B_1 = -1/2 convention, for an int n >= 0.

    B_n vanishes for odd n > 1, and an even n reads the slope column:
    B_n = (-1)^(n/2+1) * frak_slope(n) / (2^n - 2).
    """
    if type(n) is not int or n < 0:
        raise ValueError(f"Bernoulli numbers need an int n >= 0: {n!r}")
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    return frak_slope(n) / ((-1) ** (n // 2 + 1) * (2**n - 2))


def frak_slope(k: int) -> Fraction:
    """k! times the rational coefficient of frak_z(k): (-1)^(k/2+1) *
    (2^k - 2) * B_k for even k >= 0, so 1, 1/3, 7/15, 31/21 at k = 0, 2,
    4, 6, and zero for k odd or negative; read from odd_scales."""
    if type(k) is not int:
        raise ValueError(f"expected an int argument, got {k!r}")
    if k < 0 or k % 2:
        return Fraction(0)
    return odd_scales(k)[3][k]


def zeta_even(k: int) -> PiValue:
    """zeta(k) for even k >= 2, as an exact rational multiple of pi^k.

    zeta(k) = frak_slope(k) / (k! * (2 - 2^(2-k))) * pi^k, so zeta(2) =
    pi^2/6, zeta(4) = pi^4/90, zeta(6) = pi^6/945.
    """
    if type(k) is not int or k < 2 or k % 2 != 0:
        raise ValueError(f"zeta_even needs an even int k >= 2: {k!r}")
    return PiValue(frak_slope(k) * 2 ** (k - 1) / (math.factorial(k) * (2**k - 2)), k)


def frak_z(k: int) -> PiValue:
    """Alternating even zeta value (2 - 2^(2-k)) * zeta(k), as a PiValue.

    Zero for k odd or negative, one for k = 0.  frak_z(2) = pi^2/6 and
    frak_z(4) = 7/360 * pi^4.  Numerically frak_z(k) -> 2 as k grows.
    """
    q = frak_slope(k)  # zero exactly where frak_z is
    return PiValue(q / math.factorial(k), k) if q else PiValue.zero()


def clear_cache() -> None:
    """Drop the scale and quotient tables."""
    global _SCALES
    _SCALES = ((), (), (), ())
    _QUOTIENTS.clear()
