"""Unordered multiindices of independent-variable indices.

A multiindex is a finite multiset of indices 0..n-1 (0-based internally;
display and JSON use 1-based positions or names).  Entries are kept sorted,
so two multiindices are equal iff they are equal as multisets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Tuple


@dataclass(frozen=True, order=True)
class MultiIndex:
    """Sorted tuple of independent-variable indices; order of entries irrelevant."""

    entries: Tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))
        if any(i < 0 for i in self.entries):
            raise ValueError("multiindex entries must be nonnegative indices")

    @classmethod
    def of(cls, *indices: int) -> "MultiIndex":
        return cls(tuple(indices))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def count(self, i: int) -> int:
        """Multiplicity I[i]: the number of times index i appears."""
        return self.entries.count(i)

    def with_index(self, i: int) -> "MultiIndex":
        """The multiindex Ii (append one copy of i)."""
        return MultiIndex(self.entries + (i,))

    def removals(self) -> List[Tuple["MultiIndex", int, int]]:
        """All distinct (J, i) with Ji = I, each with multiplicity I[i].

        The multiplicities sum to |I|.  Empty input yields an empty list.
        """
        out = []
        for i in sorted(set(self.entries)):
            rest = list(self.entries)
            rest.remove(i)
            out.append((MultiIndex(tuple(rest)), i, self.count(i)))
        return out

    def sort_key(self) -> Tuple[int, Tuple[int, ...]]:
        return (len(self.entries), self.entries)


EMPTY = MultiIndex()


def multiindices(n: int, length: int) -> List[MultiIndex]:
    """All multiindices of exactly the given length over n indices, in canonical order."""
    return [MultiIndex(c) for c in itertools.combinations_with_replacement(range(n), length)]


def multiindices_up_to(n: int, max_length: int) -> List[MultiIndex]:
    """All multiindices of length <= max_length, ordered by (length, entries)."""
    out: List[MultiIndex] = []
    for k in range(max_length + 1):
        out.extend(multiindices(n, k))
    return out

