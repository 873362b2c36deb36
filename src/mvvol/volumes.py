r"""Masur-Veech volumes of strata of abelian differentials.

A stratum is the multiset of zero degrees (m_1, ..., m_n), nonnegative with
even sum; degree-0 entries are marked points and drop out of every volume.
The normalized volume of the unit-area hypersurface is

    volume(H(m)) = 2 * c_value(m_1 + 1, ..., m_n + 1),

a single positive rational multiple of pi^(2g) with g = (sum m_i + 2) / 2.
By definition c_value(a) * |a|! * prod a_i is the Wick sum over the
power-sum supports of capital_f(a_1), ..., capital_f(a_n), and c_value
sums it as one series.  wick and f_expansion keep that definition as the
tests' reference; this module does not import them.  The complements the
Wick sum runs over are enumerated only in tests/oracles.py, next to the
Fraction forms of the bracket series and of the hypertree loop below.

Write b(.) = bracket.coefficient.  The block-incidence graph of every Wick
complement is a tree (wick docstring): blocks of one part give factors
b(v), and the blocks joining parts of several zeros form a hypertree on
the zeros.  Support weights (-k)^(len - 1) / prod M_i! are exponential, so
the parts standing alone sum to exp(-k B(y)), B(y) = sum_v b(v) y^(v+1),
and each part in a joining block adds a factor -k.  Root the hypertree at
a zero of the largest degree k_0; let k_0 > k_1 > ... be the distinct
degrees, M their multiplicities, e_0 the unit vector of k_0, and x_d one
variable per distinct degree.  Then

    c_value(a) * |a|! * prod a_i
        = M!/M_0 [x^(M - e_0)] [y^(k_0+1)] exp(-k_0 E) / (-k_0),
    E(x, y) = sum_w y^(w+1) sum_q b((w,) + q) prod_u S_u^(q_u) / q_u!,
    S_u = sum_d x_d [y^(k_d - u)] exp(-k_d E),

with q over the multisets of parts, the empty one included: a part w of a
zero shares its block with the parts q that its children hand up.

One and two zeros are the first layer.  At x^0, E is B, and
L_k(n) = [y^n] exp(-k B(y)) takes O(k^2) integer operations on the
scaled coefficients A_n = n! D_n L_k(n), where D_n, a product of odd
primes, clears the Bernoulli denominators (_exp_ints).  Its slopes
c_j = j b(j - 1) are Bernoulli numbers, read from the memoized
exact_arith.frak_slope.  A single zero, the minimal stratum H(k - 1) and
the torus at k = 1, gives
[y^(k+1)] exp(-k B) / (-k) = -A_(k+1) / (k (k+1)! D_(k+1)).

Two zeros k1 >= k2 share one block and give
sum_{u,v >= 1} b(u, v) L_{k1}(k1 - u) L_{k2}(k2 - v), which needs no
bracket: a tree on two blocks has one edge, so b(u, v) = c_(u+v) - c_u c_v
(bracket docstring), and the recurrence of L_k at n = k,
sum_u c_u L_k(k - u) = -L_k(k), folds the product part into
L_{k1}(k1) L_{k2}(k2).  What is left is sum_s c_s Z_s over the
convolution Z of X_u = k1! D_k1 L_{k1}(k1 - u) = A_(k1-u) k1! D_k1 /
((k1 - u)! D_(k1-u)) with the matching Y of k2, all integers
(_two_zero_sum); the slopes share one denominator and one Fraction is
built at the end.  The hypertree loop sums three or more zeros.  In a
principal stratum L_2(1) = 0 makes every zero a leaf handing up u = 2,
and the sum is the one bracket b(2, ..., 2), which c_value reads.

The hypertree loop runs on integers.  With w(a) = sum_d a_d k_d and a!
the product of the factorials of a count vector a, a coefficient X at a
of weight t is held as X~ = a! t! D_t X; t is n + w(a) for [y^n]
exp(-k_d E), w(a) - u for S_u, w(a) - |q| for P_q and w(a) + j for E at
y^j, so exp(-k_d E) at a = 0 holds the A_n.  In |q| P_q and |a| exp(-k E)
each product of X~ at b and at a - b, t1 + t2 = t, takes one factor

    K = a!/(b! (a - b)!) * C(t, t1) * Q_t[t1],  Q_t[t1] = D_t / (D_t1 D_t2),

an integer by exact_arith.odd_quotients.  E reads a bracket b(m) of sum s
as the integer (s + 1)! D_(s+1) b(m) (bracket docstring) times K at
b = 0 and t1 = w(a) - |q|.  Every X~ is an integer: it sums, over the
ways to split the zeros of a into blocks and t among them, products of
A_n and scaled brackets times a!/(prod b_i! prod r!), r the multiplicities
of equal blocks, t!/prod t_i! and D_t/prod D_(t_i).  So the divisions by
|q| and |a| are exact (and checked), and one Fraction is built at the
end.  tests/oracles.py keeps the loop on Fractions as the oracle.

The genus-1 edge cases H() and H(0, ..., 0) are normalized through
c_value((1,)) = pi^2/6, giving the torus volume pi^2/3.

principal_volume(g) evaluates the stratum with 2g - 2 simple zeros by an
independent closed form: with n = 2g - 2,

    c = n! * sum over even partitions mu of n + 2 of
        (-1)^(len(mu)-1) / ((2n - len(mu) + 2)! * prod_i M_i(mu)!)
        * prod_i (2 mu_i - 3)!! * frak_z(mu_i),

and the volume is 2c, summed on the rationals frak_slope(mu_i) / mu_i! with
pi^(2g) attached once.  Agreement with the general pipeline is a strong
cross-check of the whole correlator stack (it is exercised in the tests).

prediction(s) is the large-genus approximation 4 / prod (m_i + 1).  A
VolumeResult computes the prediction and the signed relative deviation of
the exact volume from it, evaluated to 15 significant digits, on first read
and then keeps them; its elapsed times the value only.

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
from functools import cached_property
from itertools import groupby, product
from typing import Callable, Iterable, Optional, Union

from . import bracket, exact_arith
from .combinatorics import canonical, partitions_of_size
from .exact_arith import PiValue, exact_quotient, frak_slope, odd_quotients

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
    """Exact volume of a stratum plus its large-genus comparison data, which
    is computed on first read and then kept."""

    stratum: Stratum
    value: PiValue
    elapsed: float

    @cached_property
    def prediction(self) -> Fraction:
        return prediction(self.stratum)

    @cached_property
    def relative_error(self) -> Decimal:
        return _relative_error(self.value, self.prediction)

    @property
    def pi_exponent(self) -> Optional[int]:
        """Exponent of pi in the value; None for an exact zero, which has none."""
        return self.value.e if self.value else None


_VOLUME_CACHE: dict[tuple[int, ...], PiValue] = {}
# stripped stratum -> builder of its volume, from preload until first read
_LOADED: dict[tuple[int, ...], Callable[[], PiValue]] = {}


def _exp_ints(k: int, top: int) -> list[int]:
    """The integers A_n = n! D_n L_k(n) for n = 0 .. top, with D_n of
    exact_arith.odd_scales.

    E = exp(-k B) follows from E' = -k B' E: E_0 = 1 and
    n E_n = -k * sum_j c_j E_(n-j) with c_j = j b(j - 1) = frak_slope(j),
    zero for odd j.  On A_n = n! D_n E_n,

        A_n = -k * sum_j (c_j D_n/D_(n-j)) * (n-1)!/(n-j)! * A_(n-j).

    The odd squarefree denominator of c_j divides D_n/D_(n-j) (von
    Staudt-Clausen), so every term is an integer; a remainder raises
    ArithmeticError.
    """
    # c_j vanishes for odd j, so every n with E_n != 0 is even.  The
    # largest B_j first, so a cold call builds one tangent table.
    exact_arith.bernoulli(top - top % 2)
    slopes = [(j, c.numerator, c.denominator) for j in range(2, top + 1, 2)
              for c in (frak_slope(j),)]
    step = exact_arith.odd_scales(top)[0]
    a = [1] + [0] * top
    for n in range(2, top + 1, 2):
        # w = D_n/D_(n-j) * (n-1)!/(n-j)!, stepped up from j = 1
        w, i, acc = step[n], 1, 0
        for j, num, den in slopes:
            if j > n:
                break
            while i < j:
                w *= (n - i) * step[n - i]
                i += 1
            acc += num * exact_quotient(w, den, "c_j D_n/D_(n-j) is not an integer") * a[n - j]
        a[n] = -k * acc
    return a


def _two_zero_sum(k1: int, k2: int) -> Fraction:
    """_hypertree_sum((k1, k2)) for k1 >= k2 >= 1, on the integers (module
    docstring).

    With X_u = k1! D_k1 L_k1(k1 - u), Y_v = k2! D_k2 L_k2(k2 - v) and
    Z_s = sum_(u+v=s) X_u Y_v over u, v >= 1, the sum is

        (sum_s c_s Z_s - X_0 Y_0) / (k1! D_k1 k2! D_k2).

    The slopes c_s are summed over the common denominator Q, the lcm of
    the steps D_n/D_(n-1) up to k1 + k2; a slope whose denominator does not
    divide Q raises ArithmeticError.  Both series read the scales of
    exact_arith.odd_scales, and one series serves both zeros when k1 == k2.
    """
    if (k1 + k2) % 2:
        return Fraction(0)  # odd grading
    top = k1 + k2
    exact_arith.bernoulli(top)  # the largest B_s first: one tangent table
    step, _, f = exact_arith.odd_scales(top)
    # X_u = A_(k-u) * F_k/F_(k-u), F_n = n! D_n a running product
    sides = {k: [a * (f[k] // f[k - u]) for u, a in enumerate(_exp_ints(k, k)[::-1])]
             for k in {k1, k2}}
    x, y = sides[k1], sides[k2]
    common = math.lcm(*step[2:top + 1:2])
    total = -common * x[0] * y[0]
    # c_s vanishes for odd s, and X_u for odd k1 - u
    for s in range(2, top + 1, 2):
        c = frak_slope(s)
        q = exact_quotient(common, c.denominator, "the denominator of a c_s does not divide Q")
        lo = max(1, s - k2)
        z = sum(x[u] * y[s - u] for u in range(lo + (k1 - lo) % 2, min(k1, s - 1) + 1, 2))
        total += c.numerator * q * z
    return Fraction(total, common * f[k1] * f[k2])


def _hypertree_sum(key: tuple[int, ...]) -> Fraction:
    """c_value(key) * |key|! * prod key for the sorted degrees key, summed
    over the vectors below M - e_0 on the integers X~ (module docstring).
    They are numbered in mixed radix, last degree fastest, so a - b sits at
    i - g when a sits at i and b at g.  A vector a gets S_u, then P_q, then
    |a| E where it is read (y^2 .. y^(k_0 - 1), and y^(k_0 + 1) on the last
    vector: exp(-k E) has no y^1 term), then exp(-k E) for the degrees with
    a zero left to place above a, by |q| P_q = sum_u S_u P_(q-e_u) and
    |a| exp(-k E) = -k sum_(0 < b <= a) |b| E_b exp(-k E)_(a-b).
    """
    degrees, target = zip(*((k, len(list(run))) for k, run in groupby(key)))
    target = [target[0] - 1, *target[1:]]
    k0, top_t = degrees[0], sum(key) + 1
    scales = exact_arith.odd_scales(top_t)[2]  # t! D_t
    if not any(target):
        return Fraction(-_exp_ints(k0, k0 + 1)[k0 + 1], k0 * scales[k0 + 1])
    strides = [math.prod(t + 1 for t in target[d + 1:]) for d in range(len(target))]
    top = math.prod(t + 1 for t in target) - 1
    exps: list = [[_exp_ints(k, k - 1) for k in degrees]]  # exp(-k_d E), by d
    hands: list = [None]            # S at each vector: part u -> coefficient
    powers: list = [[((), 0, 1)]]   # P at each vector: (sorted q, |q|, coefficient)
    slopes: list = [None]           # |a| E at each vector: (j, coefficient)
    sums = [0]                      # w(a) at each vector
    vectors = product(*(range(t + 1) for t in target))
    next(vectors)
    for i, a in enumerate(vectors, 1):
        size, w = sum(a), sum(x * k for x, k in zip(a, degrees))
        sums.append(w)
        below = [(0, 1)]            # (position of b, a!/(b! (a-b)!))
        for x, st in zip(a, strides):
            if x:
                below = [(g + t * st, m * math.comb(x, t)) for g, m in below for t in range(x + 1)]
        # S_u = sum_d a_d [y^(k_d - u)] exp(-k_d E) at a - e_d
        hand: dict[int, int] = {}
        for d, x in enumerate(a):
            if x:
                k, g = degrees[d], exps[i - strides[d]][d]
                for u in range(1, k + 1):
                    if g[k - u]:
                        hand[u] = hand.get(u, 0) + x * g[k - u]
        hands.append(hand)
        # |q| P_q = sum_u sum_b S_u(b) P_(q - e_u)(a - b); at b = a it is S_u
        acc = {(u,): s for u, s in hand.items()}
        for g, m in below[1:-1]:
            for u, s in hands[g].items():
                ms, t1 = m * s, sums[g] - u
                for q, wq, p in powers[i - g]:
                    q, t = tuple(sorted((u, *q), reverse=True)), w - wq - u
                    acc[q] = acc.get(q, 0) + math.comb(t, t1) * odd_quotients(t)[t1] * ms * p
        power = [(q, sum(q), exact_quotient(p, len(q), "P_q is not an integer"))
                 for q, p in acc.items() if p]
        powers.append(power)
        # E_j = sum_q b((j - 1,) + q) P_q vanishes unless j = w - |a| mod 2 (grading)
        odd = (w - size) % 2
        slope = []
        for j in [*range(2 + odd, k0, 2), *([k0 + 1] if i == top else [])]:
            e, q_t = 0, odd_quotients(w + j)
            for q, wq, p in power:
                if b := bracket.coefficient(tuple(sorted((j - 1, *q), reverse=True))):
                    bt = exact_quotient(scales[j + wq] * b.numerator, b.denominator,
                                        "a scaled bracket is not an integer")
                    e += math.comb(w + j, w - wq) * q_t[w - wq] * bt * p
            if e:
                slope.append((j, e * size))
        slopes.append(slope)
        row = []
        for d, k in enumerate(degrees):
            f = None
            if d == 0 or a[d] < target[d]:
                # y^0 .. y^(k-1), and only y^(k+1) at the root's last vector
                f = [0] * (k + 2)
                for g, m in below[1:]:
                    h, wb = exps[i - g][d], sums[g]
                    for j, e in slopes[g]:
                        me = m * e
                        for n in [k + 1] if i == top else range(j, k):
                            if h[n - j]:
                                f[n] += (math.comb(w + n, wb + j) * odd_quotients(w + n)[wb + j]
                                         * me * h[n - j])
                if i < top:
                    f = [v and exact_quotient(-k * v, size, "exp(-k E) is not an integer")
                         for v in f]
            row.append(f)
        exps.append(row)
    # -k_0/|a| of the last row cancels; M!/M_0 is the (M - e_0)! of its scale
    return Fraction(exps[top][0][k0 + 1], size * scales[top_t])


def c_value(m: Iterable[int]) -> PiValue:
    """Normalized correlator of the incremented degree multiset.

    m is a nonempty multiset of positive ints in any order, checked by
    combinatorics.canonical: a float, bool or str part raises ValueError
    rather than being truncated.  Not memoized itself: volume() keeps each
    stratum's value.  One zero reads the integer exp(-k B) series at
    y^(k+1), two zeros are one integer convolution of two such series
    (_two_zero_sum), a principal stratum (every entry 2) is the one
    bracket b(2, ..., 2), and the rest run the hypertree loop, whose
    brackets are memoized in bracket (module docstring); pi is attached
    once.
    """
    key = canonical(m)
    denom = math.factorial(sum(key)) * math.prod(key)
    if len(key) == 2:
        total = _two_zero_sum(*key)
    elif key[0] == key[-1] == 2:
        total = bracket.coefficient(key)
    else:
        total = _hypertree_sum(key)
    # the sum is a monomial in pi^(|a| - n + 2), by grading
    return PiValue(total / denom, sum(key) - len(key) + 2)


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


def _volume_value(st: Stratum, max_weight: int) -> PiValue:
    """The memoized volume of st, the value volume() reports.

    A stratum the memo lacks is built from its loaded builder (preload), if
    it has one, and computed otherwise, subject to max_weight.
    """
    key = st.stripped
    value = _VOLUME_CACHE.get(key)
    if value is not None:
        return value
    build = _LOADED.get(key)
    if build is not None:
        # published before the builder is dropped, so a thread that finds
        # no builder finds the value on its second read below
        value = _VOLUME_CACHE.setdefault(key, build())
        _LOADED.pop(key, None)
        return value
    value = _VOLUME_CACHE.get(key)
    if value is not None:
        return value
    if key:
        weight = sum(d + 1 for d in key)
        if weight > max_weight:
            raise InfeasibleSizeError(weight, max_weight)
        value = 2 * c_value([d + 1 for d in key])
    else:
        value = 2 * c_value((1,))  # torus convention: H() and H(0,...)
    q, e = value.monomial()
    if q <= 0 or e != 2 * st.genus:
        raise AssertionError(f"volume of {st} violates the pi^(2g) form: {value}")
    _VOLUME_CACHE[key] = value
    return value


def volume(s: StratumLike, max_weight: int = DEFAULT_MAX_WEIGHT) -> VolumeResult:
    """Exact normalized volume of the stratum with the given zero degrees.

    Raises InvalidStratumError for bad degrees and InfeasibleSizeError when
    sum (m_i + 1) over positive degrees exceeds max_weight.
    """
    st = _as_stratum(s)
    start = time.perf_counter()
    value = _volume_value(st, max_weight)
    return VolumeResult(st, value, time.perf_counter() - start)


def principal_volume(g: int) -> PiValue:
    """Volume of the stratum with 2g - 2 simple zeros, by the closed form."""
    if g < 2:
        raise ValueError("principal_volume needs genus g >= 2")
    n = 2 * g - 2
    total = Fraction(0)
    for lam in partitions_of_size((n + 2) // 2):
        ell = len(lam)  # mu = 2 lam has lam's length and multiplicities
        denom = math.factorial(2 * n - ell + 2) * math.prod(
            map(math.factorial, Counter(lam).values()))
        term = Fraction((-1) ** (ell - 1), denom)
        for p in (2 * h for h in lam):  # (2p - 3)!! / p! = C(2p - 2, p - 1) / (p 2^(p-1))
            term *= frak_slope(p) * Fraction(math.comb(2 * p - 2, p - 1), p * 2 ** (p - 1))
        total += term
    return PiValue(total * (2 * math.factorial(n)), 2 * g)


def clear_caches() -> None:
    """Drop every memo table of the volume path: volumes here, with the
    builders preload left unread, the brackets, and the tangent numbers
    with the Bernoulli numbers, slopes and scales.  The reference layer
    (wick, f_expansion) and the sums in tests/oracles.py keep tables of
    their own, which oracles.clear() empties."""
    _VOLUME_CACHE.clear()
    _LOADED.clear()
    bracket.clear_cache()
    exact_arith.clear_cache()


def volume_cache() -> dict[tuple[int, ...], PiValue]:
    """Live handle on the stratum -> volume memo: the volumes computed or
    read so far, without the preloaded ones not yet read."""
    return _VOLUME_CACHE


def preload(builders: dict[tuple[int, ...], Callable[[], PiValue]]) -> None:
    """Serve the volume of each stripped stratum in builders from its
    builder, called on the stratum's first read and then dropped.  A value
    the memo already holds for such a stratum is dropped, so the builder's
    wins (used by the CLI cache)."""
    _LOADED.update(builders)
    for key in builders:
        _VOLUME_CACHE.pop(key, None)


def held_volumes() -> dict[tuple[int, ...], PiValue]:
    """Every volume the memo holds or has a builder for, the unread builders
    called but not published (used by the CLI cache)."""
    held = {key: build() for key, build in _LOADED.copy().items()}
    held.update(_VOLUME_CACHE)
    return held
