"""Per-vertex ranked out-edge set (Definition 4.2).

The *rank* of a directed edge ``(u -> v)`` is the 1-indexed position of
``v`` in the ordered set of ``u``'s out-neighbours; the *truncated rank* is
``min(H + 1, rank)``.  The order itself is immaterial ("the order of
storing edges is not important" — Section 4.1); we order by neighbour key,
which is stable and deterministic.

The paper stores the set in a [PP01] BST so that rank and select are
O(log n).  Here the keys live in one sorted ``list`` slab: rank is a
binary search, select an index, insert/delete a ``memmove`` inside one
contiguous buffer.  The deletion game's "incoming edge of rank i" lookups
and the implicit-coloring forests ``F_{i,j}`` (Corollary 1.5) see the same
answers either way; the [PP01] cost is charged analytically by the caller
(``core/balanced.py``), so no cost-model call lives here.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator


class OutSet:
    """Ordered out-neighbour set of one vertex, on a contiguous slab."""

    __slots__ = ("_keys",)

    def __init__(self) -> None:
        self._keys: list[Any] = []

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, w: Any) -> bool:
        keys = self._keys
        i = bisect_left(keys, w)
        return i < len(keys) and keys[i] == w

    def add(self, w: Any) -> None:
        keys = self._keys
        i = bisect_left(keys, w)
        if i < len(keys) and keys[i] == w:
            raise AssertionError(f"out-edge to {w} already present")
        keys.insert(i, w)

    def remove(self, w: Any) -> None:
        keys = self._keys
        i = bisect_left(keys, w)
        if i >= len(keys) or keys[i] != w:
            raise AssertionError(f"out-edge to {w} absent")
        del keys[i]

    def rank(self, w: Any) -> int:
        """1-indexed rank of the edge to ``w`` (must be present)."""
        keys = self._keys
        i = bisect_left(keys, w)
        if i >= len(keys) or keys[i] != w:
            raise AssertionError(f"out-edge to {w} absent")
        return i + 1

    def select(self, rank: int) -> Any:
        """Neighbour at 1-indexed ``rank`` (:class:`IndexError` outside 1..len)."""
        if not (1 <= rank <= len(self._keys)):
            raise IndexError(f"select({rank}) on set of size {len(self._keys)}")
        return self._keys[rank - 1]

    def first(self, k: int) -> list[Any]:
        """The first ``min(k, len)`` neighbours in rank order."""
        return self._keys[:k]

    def window(self, lo: int, hi: int) -> list[Any]:
        """Neighbours at 1-indexed positions ``lo..hi`` inclusive (clamped)."""
        return self._keys[max(0, lo - 1): hi]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._keys)

    def check(self) -> None:
        keys = self._keys
        for i in range(1, len(keys)):
            if not keys[i - 1] < keys[i]:
                raise AssertionError("out-set keys out of order")
