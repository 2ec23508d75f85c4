"""Unordered multiindices of independent-variable indices.

A multiindex is a finite multiset of indices 0..n-1 (0-based internally;
display and JSON use 1-based positions or names).  It is the tuple of its
entries in ascending order, so two multiindices are equal iff they are equal
as multisets, and hashing, equality and order are the tuple's own.  A
multiindex also equals the plain tuple of its entries; varjet never mixes
the two.  A negative entry, count of indices or length is a VarjetError.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Tuple


class VarjetError(Exception):
    """Base class for all domain errors (symcore re-exports it; it lives
    here so that a multiindex can raise one)."""


class MultiIndex(tuple):
    """Sorted tuple of independent-variable indices; order of entries irrelevant."""

    __slots__ = ()

    def __new__(cls, entries: Iterable[int] = ()) -> "MultiIndex":
        entries = sorted(entries)
        if entries and entries[0] < 0:
            raise VarjetError("multiindex entries must be nonnegative indices")
        return tuple.__new__(cls, entries)

    def __repr__(self) -> str:
        return f"MultiIndex(entries={tuple(self)!r})"

    def with_index(self, i: int) -> "MultiIndex":
        """The multiindex Ii (append one copy of i)."""
        return MultiIndex((*self, i))

    def removals(self) -> List[Tuple["MultiIndex", int, int]]:
        """All distinct (J, i) with Ji = I, each with multiplicity I[i].

        The multiplicities sum to |I|.  Empty input yields an empty list.
        """
        out = []
        for i in sorted(set(self)):
            rest = list(self)
            rest.remove(i)
            out.append((MultiIndex(rest), i, self.count(i)))
        return out


EMPTY = MultiIndex()


def multiindices(n: int, length: int) -> List[MultiIndex]:
    """All multiindices of exactly the given length over n indices, in canonical order."""
    if n < 0 or length < 0:
        raise VarjetError(f"multiindices need n >= 0 and a length >= 0, got {n} and {length}")
    return [MultiIndex(c) for c in itertools.combinations_with_replacement(range(n), length)]


def multiindices_up_to(n: int, max_length: int) -> List[MultiIndex]:
    """All multiindices of length <= max_length (none if it is negative),
    ordered by (length, entries)."""
    if n < 0:
        raise VarjetError(f"multiindices need n >= 0, got {n}")
    return [I for k in range(max_length + 1) for I in multiindices(n, k)]
