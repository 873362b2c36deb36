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

The complement sum streams lazily; a block evaluating to zero aborts its
summand early.  Values are memoized on the sorted argument tuple (the
correlator is symmetric in its arguments).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .bracket import single_bracket
from .combinatorics import Partition, SetPartition, complementary_partitions
from .exact_arith import PiValue

__all__ = ["LabeledSlotMap", "multi_bracket", "clear_cache", "term_count"]

_CACHE: dict[tuple[Partition, ...], PiValue] = {}
_TERMS_SEEN = 0


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


def _term(slot_map: LabeledSlotMap, alpha: SetPartition) -> PiValue:
    prod = PiValue.from_rational(1)
    for block in alpha:
        factor = single_bracket(slot_map.values_in(block))
        if factor.is_zero():
            return PiValue.zero()
        prod = prod * factor
    return prod


def multi_bracket(args: Iterable[Iterable[int]]) -> PiValue:
    """Exact correlator of several partitions; symmetric and memoized."""
    global _TERMS_SEEN
    key = tuple(sorted(Partition(a) for a in args))
    if not key:
        raise ValueError("multi_bracket needs at least one argument")
    cached = _CACHE.get(key)
    if cached is not None:
        return cached

    slot_map = LabeledSlotMap(key)
    total = PiValue.zero()
    for alpha in complementary_partitions(slot_map.rho):
        total += _term(slot_map, alpha)
        _TERMS_SEEN += 1
    _CACHE[key] = total
    return total


def term_count() -> int:
    """Total complement summands evaluated so far (diagnostic only)."""
    return _TERMS_SEEN


def clear_cache() -> None:
    global _TERMS_SEEN
    _CACHE.clear()
    _TERMS_SEEN = 0
