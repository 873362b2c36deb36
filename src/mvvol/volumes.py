r"""Masur-Veech volumes of strata of abelian differentials.

A stratum is the multiset of zero degrees (m_1, ..., m_n), nonnegative with
even sum; degree-0 entries are marked points and drop out of every volume.
The normalized volume of the unit-area hypersurface is

    volume(H(m)) = 2 * c_value(m_1 + 1, ..., m_n + 1),

    c_value(a) = 1 / (|a|! * prod a_i) * multi_bracket expansion of the
                 degree-a_i generators capital_f(a_1), ..., capital_f(a_n),

expanded multilinearly over the power-sum supports with identical partition
tuples grouped before Wick evaluation.  The result is always a single
positive rational multiple of pi^(2g) with g = (sum m_i + 2) / 2.

A single degree k (the minimal stratum H(k - 1), and the torus at k = 1)
needs no Wick call.  Each support lam of capital_f(k) is one argument, whose
only complement puts every slot in its own block, so its Wick value is
prod_i b(lam_i) with b(v) = bracket.coefficient((v,)).  The support weight
(-k)^(len(lam) - 1) / prod_i M_i(lam)! is exponential, so by the
exponential formula the support sum is

    [x^(k+1)] exp(-k B(x)) / (-k),    B(x) = sum_{v=1..k} b(v) x^(v+1),

a power series taken in O(k^2) Fraction operations.  Write
L_k(n) = [x^n] exp(-k B(x)).

Two degrees (k1, k2) need no Wick call either.  A complement of the pair
(lam, mu) has exactly one core block, joining one part u of lam and one
part v of mu (some block must join the two arguments, and two such
blocks would close a cycle in the block-incidence tree), and every other
slot is a block of its own.  So
the Wick value of (lam, mu) is the sum over the marked pair (u, v) of
b(u, v) times the b of every other part, with
b(u, v) = bracket.coefficient((max(u, v), min(u, v))).  Marking one part
of each support in the exponential formula turns exp(-k B) into
(-k F) exp(-k B), F being the series of the marked part; the (-k) cancels
the support weight's 1/(-k), and the support sum is

    sum_{u=1..k1} sum_{v=1..k2} b(u, v) L_{k1}(k1 - u) L_{k2}(k2 - v),

again O(k1^2 + k2^2 + k1 k2) Fraction operations.  Three or more degrees
go through wick.multi_bracket.

The genus-1 edge cases H() and H(0, ..., 0) are normalized through
c_value((1,)) = pi^2/6, giving the torus volume pi^2/3.

principal_volume(g) evaluates the stratum with 2g - 2 simple zeros by an
independent closed form: with n = 2g - 2,

    c = n! * sum over even partitions mu of n + 2 of
        (-1)^(len(mu)-1) / ((2n - len(mu) + 2)! * prod_i M_i(mu)!)
        * prod_i (2 mu_i - 3)!! * frak_z(mu_i),

and the volume is 2c.  Agreement with the general pipeline is a strong
cross-check of the whole correlator stack (it is exercised in the tests).

prediction(s) is the large-genus approximation 4 / prod (m_i + 1); each
VolumeResult carries the signed relative deviation of the exact volume from
it, evaluated to 15 significant digits.

Computation cost grows quickly with sum (m_i + 1); volume() refuses strata
above a configurable bound (default 14) with a dedicated error so callers
can distinguish bad input from an oversized request.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Iterable, Union

from . import bracket, exact_arith, f_expansion, wick
from .combinatorics import Partition, partitions_of_size
from .exact_arith import PiValue, frak_z
from .f_expansion import capital_f

__all__ = [
    "InvalidStratumError",
    "InfeasibleSizeError",
    "Stratum",
    "VolumeResult",
    "c_value",
    "volume",
    "principal_volume",
    "prediction",
    "clear_caches",
]

DEFAULT_MAX_WEIGHT = 14


class InvalidStratumError(ValueError):
    """Degrees are not a valid stratum (negative entries or odd sum)."""


class InfeasibleSizeError(RuntimeError):
    """Requested stratum exceeds the configured feasibility bound."""

    def __init__(self, weight: int, limit: int):
        super().__init__(
            f"sum of (m_i + 1) is {weight}, above the feasibility bound {limit}; "
            f"raise the bound explicitly to force the computation"
        )
        self.weight = weight
        self.limit = limit


class Stratum:
    """Multiset of zero degrees, canonically sorted in decreasing order."""

    __slots__ = ("degrees",)

    def __init__(self, degrees: Iterable[int]):
        degs = []
        for d in degrees:
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise InvalidStratumError(f"zero degrees must be nonnegative integers: {d!r}")
            degs.append(d)
        if sum(degs) % 2 != 0:
            raise InvalidStratumError(f"degree sum must be even: {sorted(degs, reverse=True)}")
        self.degrees = tuple(sorted(degs, reverse=True))

    @property
    def stripped(self) -> tuple[int, ...]:
        """Positive degrees only; marked points do not affect the volume."""
        return tuple(d for d in self.degrees if d > 0)

    @property
    def genus(self) -> int:
        return (sum(self.degrees) + 2) // 2

    @property
    def zero_count(self) -> int:
        return len(self.stripped)

    @property
    def dim_complex(self) -> int:
        return 2 * self.genus + self.zero_count - 1

    @property
    def key(self) -> str:
        return ",".join([str(d) for d in self.degrees if d > 0])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Stratum):
            return self.degrees == other.degrees
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.degrees)

    def __repr__(self) -> str:
        return f"H({','.join(str(d) for d in self.degrees)})"


StratumLike = Union[Stratum, Iterable[int]]


def _as_stratum(s: StratumLike) -> Stratum:
    return s if isinstance(s, Stratum) else Stratum(s)


@dataclass(frozen=True)
class VolumeResult:
    """Exact volume of a stratum plus its large-genus comparison data.

    terms_evaluated is the number of Wick summands that multi_bracket
    evaluated for this call: the complements of the argument tuples this
    call asked for first (wick.term_count).  It is 0 for a cached stratum
    and for strata with one or two zeros, which are summed in closed form
    and ask multi_bracket for nothing.
    """

    stratum: Stratum
    value: PiValue
    prediction: Fraction
    relative_error: Decimal
    terms_evaluated: int
    elapsed: float

    @property
    def pi_exponent(self) -> int:
        return self.value.monomial()[1]


_C_CACHE: dict[tuple[int, ...], PiValue] = {}
_VOLUME_CACHE: dict[tuple[int, ...], PiValue] = {}


def _grouped_supports(key: tuple[int, ...]) -> dict[tuple[Partition, ...], Fraction]:
    """Sorted partition tuple -> its coefficient in prod_i capital_f(key_i).

    A run of r equal degrees k picks a multiset of r supports of
    capital_f(k), weighted by the multinomial r! / prod(repeats!), instead
    of r ordered choices; for H(2^n) that is n + 1 picks instead of 2^n.
    No two choices of one pick per run give the same tuple: the picks of a
    run are distinct multisets, and supports of distinct degrees have
    distinct weights k + 1.
    """
    runs = []
    for k, r in Counter(key).items():
        support = sorted(capital_f(k).items())
        picks = []
        for idx in combinations_with_replacement(range(len(support)), r):
            coeff = support[idx[0]][1]
            for i in idx[1:]:
                coeff *= support[i][1]
            ways = math.factorial(r) // math.prod(math.factorial(idx.count(i)) for i in set(idx))
            if ways > 1:
                coeff *= ways
            picks.append(([support[i][0] for i in idx], coeff))
        runs.append(picks)
    grouped: dict[tuple[Partition, ...], Fraction] = {}
    for choice in product(*runs):
        coeff = choice[0][1]
        for _, q in choice[1:]:
            coeff *= q
        grouped[tuple(sorted(lam for lams, _ in choice for lam in lams))] = coeff
    return grouped


def _exp_series(k: int, top: int) -> list[Fraction]:
    """Coefficients L_k(0), ..., L_k(top) of exp(-k B(x)) (module docstring).

    E = exp(-k B) follows from E' = -k B' E: E_0 = 1 and
    n E_n = -k * sum_j j B_j E_(n-j).
    """
    # (j, j * B_j) for the nonzero B_j with j <= top; b(v) vanishes for
    # even v by grading
    slopes = [(v + 1, (v + 1) * b) for v in range(1, top)
              if (b := bracket.coefficient((v,)))]
    e = [Fraction(1)] + [Fraction(0)] * top
    for n in range(1, top + 1):
        acc = Fraction(0)
        for j, jb in slopes:
            if j > n:
                break
            if e[n - j]:
                acc += jb * e[n - j]
        e[n] = acc * Fraction(-k, n)
    return e


def _single_degree_sum(k: int) -> Fraction:
    """Coefficient of pi^(k+1) in sum over supports lam of capital_f(k) of
    its weight times multi_bracket((lam,)), as [x^(k+1)] exp(-k B(x)) / (-k)."""
    return _exp_series(k, k + 1)[k + 1] / -k


def _two_degree_sum(k1: int, k2: int) -> Fraction:
    """Coefficient of pi^(k1+k2) in sum over supports (lam, mu) of
    capital_f(k1) capital_f(k2) of their weights times
    multi_bracket((lam, mu)), as
    sum_{u,v} b(u, v) L_{k1}(k1 - u) L_{k2}(k2 - v) (module docstring)."""
    l1 = _exp_series(k1, k1 - 1)
    l2 = l1 if k2 == k1 else _exp_series(k2, k2 - 1)
    total = Fraction(0)
    for u in range(1, k1 + 1):
        a = l1[k1 - u]
        if not a:
            continue
        for v in range(1, k2 + 1):
            c = l2[k2 - v]
            if c:
                total += bracket.coefficient((u, v) if u >= v else (v, u)) * a * c
    return total


def c_value(m: Iterable[int]) -> PiValue:
    """Normalized correlator of the incremented degree multiset.

    m must be a nonempty multiset of positive integers.  Memoized.  One
    or two degrees are summed by the exponential formula without any Wick
    call (module docstring): one degree is [x^(k+1)] exp(-k B) / (-k); for
    two, each complement has one core block, and marking its slot in each
    support turns exp(-k B) into (-k F) exp(-k B), so the sum is
    sum_{u,v} b(u, v) L_{k1}(k1 - u) L_{k2}(k2 - v).  Otherwise the
    multilinear expansion picks supports per run of equal degrees and
    groups equal partition tuples so each distinct Wick evaluation runs
    once, and sums their rational coefficients before attaching pi once.
    """
    key = tuple(sorted((int(v) for v in m), reverse=True))
    if not key:
        raise ValueError("c_value of an empty multiset")
    if key[-1] <= 0:
        raise ValueError(f"entries must be positive: {key}")
    cached = _C_CACHE.get(key)
    if cached is not None:
        return cached

    # every Wick value here is a monomial in pi^(|a| - n + 2), by grading
    exponent = sum(key) - len(key) + 2
    if len(key) == 1:
        total = _single_degree_sum(key[0])
    elif len(key) == 2:
        total = _two_degree_sum(*key)
    else:
        total = Fraction(0)
        for tup, coeff in _grouped_supports(key).items():
            if coeff:
                total += wick.multi_bracket(tup).coefficient(exponent) * coeff

    denom = math.factorial(sum(key))
    for v in key:
        denom *= v
    value = PiValue.from_graded(total / denom, exponent)
    _C_CACHE[key] = value
    return value


def prediction(s: StratumLike) -> Fraction:
    """Large-genus volume approximation 4 / prod (m_i + 1)."""
    st = _as_stratum(s)
    denom = 1
    for d in st.stripped:
        denom *= d + 1
    return Fraction(4, denom)


def _relative_error(value: PiValue, predicted: Fraction, digits: int = 15) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits + 15
        exact = value.to_decimal(digits + 10)
        pred = Decimal(predicted.numerator) / Decimal(predicted.denominator)
        eps = exact / pred - 1
        ctx.prec = digits
        return +eps


def volume(s: StratumLike, max_weight: int = DEFAULT_MAX_WEIGHT) -> VolumeResult:
    """Exact normalized volume of the stratum with the given zero degrees.

    Raises InvalidStratumError for bad degrees and InfeasibleSizeError when
    sum (m_i + 1) over positive degrees exceeds max_weight.
    """
    st = _as_stratum(s)
    stripped = st.stripped
    start = time.perf_counter()
    before = wick.term_count()

    cached = _VOLUME_CACHE.get(stripped)
    if cached is not None:
        value = cached
    else:
        if stripped:
            weight = sum(d + 1 for d in stripped)
            if weight > max_weight:
                raise InfeasibleSizeError(weight, max_weight)
            value = 2 * c_value([d + 1 for d in stripped])
        else:
            value = 2 * c_value((1,))  # torus convention: H() and H(0,...)
        q, e = value.monomial()
        if q <= 0 or e != 2 * st.genus:
            raise AssertionError(f"volume of {st} violates the pi^(2g) form: {value}")
        _VOLUME_CACHE[stripped] = value

    pred = prediction(st)
    return VolumeResult(
        stratum=st,
        value=value,
        prediction=pred,
        relative_error=_relative_error(value, pred),
        terms_evaluated=wick.term_count() - before,
        elapsed=time.perf_counter() - start,
    )


def _odd_double_factorial(k: int) -> int:
    """(k)!! for odd k >= -1; (-1)!! = 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def principal_volume(g: int) -> PiValue:
    """Volume of the stratum with 2g - 2 simple zeros, by the closed form."""
    if g < 2:
        raise ValueError("principal_volume needs genus g >= 2")
    n = 2 * g - 2
    total = PiValue.zero()
    for lam in partitions_of_size((n + 2) // 2):
        mu = Partition(tuple(2 * p for p in lam))
        ell = len(mu)
        denom = math.factorial(2 * n - ell + 2)
        for mult in mu.multiplicities().values():
            denom *= math.factorial(mult)
        coeff = Fraction((-1) ** (ell - 1), denom)
        term = PiValue.from_rational(coeff)
        for p in mu:
            term = term * (frak_z(p) * _odd_double_factorial(2 * p - 3))
        total += term
    return total * (2 * math.factorial(n))


def clear_caches() -> None:
    """Drop every memo table in the pipeline: volumes, c_value, Wick sums,
    brackets, capital_f expansions, and the Bernoulli and zeta values."""
    _C_CACHE.clear()
    _VOLUME_CACHE.clear()
    wick.clear_cache()
    bracket.clear_cache()
    for memo in (f_expansion._capital_f_items, exact_arith.bernoulli,
                 exact_arith.zeta_even, exact_arith.frak_z):
        memo.cache_clear()


def volume_cache() -> dict[tuple[int, ...], PiValue]:
    """Live handle on the stratum -> volume memo (used by the CLI cache)."""
    return _VOLUME_CACHE
