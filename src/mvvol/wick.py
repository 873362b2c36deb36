r"""Wick-type expansion of a multi-argument correlator.

multi_bracket([lam_1, ..., lam_n]) couples n partitions through all ways of
regrouping their parts.  Lay the parts out on L = sum len(lam_j) labeled
slots, the j-th partition occupying the consecutive block of len(lam_j)
slots; these interval blocks form the grouping rho.  Then

    multi_bracket(args) = sum over alpha complementary to rho of
                          prod over blocks B of alpha of
                          single_bracket(values of the slots in B),

where slot L_{j-1} + i carries the part lam_j[i].  Each surviving summand
is homogeneous of pi-exponent S + L - 2n + 2 with S the total size of the
arguments, so the result is again a monomial (or zero).

Since that exponent is fixed, each summand is a product of bare Fractions
(bracket.coefficient of every block) and the running sum is a Fraction; pi
is attached once per memo miss.  The complement sum streams lazily; a block
with a zero coefficient aborts its summand early.  Values are memoized on
the sorted argument tuple (the correlator is symmetric in its arguments).

term_count() is the number of complement summands the calling thread (more
precisely, the calling context) has evaluated since it last cleared the
cache; it counts summands whose arguments are odd-graded too.
"""

from __future__ import annotations

from contextvars import ContextVar
from fractions import Fraction
from typing import Iterable, Sequence

from .bracket import coefficient
from .combinatorics import Partition, SetPartition, complementary_partitions
from .exact_arith import PiValue

__all__ = ["LabeledSlotMap", "multi_bracket", "clear_cache", "term_count"]

_CACHE: dict[tuple[Partition, ...], PiValue] = {}
_TERMS_SEEN: ContextVar[int] = ContextVar("mvvol_wick_terms_seen", default=0)


class LabeledSlotMap:
    """Slot layout of a tuple of partitions: values and interval grouping."""

    __slots__ = ("args", "slot_values", "rho")

    def __init__(self, args: Sequence[Partition]):
        self.args = tuple(args)
        values: list[int] = []
        blocks: list[tuple[int, ...]] = []
        pos = 1
        for lam in self.args:
            if len(lam) == 0:
                raise ValueError("empty partition argument")
            values.extend(lam)
            blocks.append(tuple(range(pos, pos + len(lam))))
            pos += len(lam)
        self.slot_values = tuple(values)
        self.rho = SetPartition(blocks)

    def values_in(self, block: Iterable[int]) -> tuple[int, ...]:
        """Multiset of part values carried by the given slot labels."""
        return tuple(self.slot_values[u - 1] for u in block)


def multi_bracket(args: Iterable[Iterable[int]]) -> PiValue:
    """Exact correlator of several partitions; symmetric and memoized."""
    key = tuple(sorted(Partition(a) for a in args))
    if not key:
        raise ValueError("multi_bracket needs at least one argument")
    cached = _CACHE.get(key)
    if cached is not None:
        return cached

    slot_map = LabeledSlotMap(key)
    slots = slot_map.slot_values
    values = (0,) + slots  # slot labels are 1-based
    total = Fraction(0)
    terms = 0
    for alpha in complementary_partitions(slot_map.rho):
        terms += 1
        prod = Fraction(1)
        for block in alpha:
            q = coefficient(tuple(sorted([values[u] for u in block], reverse=True)))
            if not q:
                break
            prod *= q
        else:
            total += prod
    _TERMS_SEEN.set(_TERMS_SEEN.get() + terms)

    exponent = sum(slots) + len(slots) - 2 * len(key) + 2
    value = PiValue.from_graded(total, exponent)
    _CACHE[key] = value
    return value


def term_count() -> int:
    """Complement summands evaluated so far in this context (diagnostic only)."""
    return _TERMS_SEEN.get()


def clear_cache() -> None:
    _CACHE.clear()
    _TERMS_SEEN.set(0)
