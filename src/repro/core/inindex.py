"""Per-vertex incoming-edge index (Section 4.1).

For each vertex ``v``, each truncated rank ``i in 1..H+1`` and each label
``c in 0..3``, the paper keeps a BST of the incoming edges ``(w -> v)``
with that truncated rank and label, ordered by ``min(H, d+(w))``.  The
only query ever issued is "give me an incoming edge with truncated rank
``i``, label ``c``, whose tail sits at truncated level exactly ``L``" —
a lookup of the *minimum-level* element after checking its key.

Here one dict is keyed by ``(tr, lev)`` alone, each value a sorted
``list`` slab of tail keys ``(w, copy)``.  The label is *not* part of the
key: an arc's label is a function of its tail — the tail's deletion-game
label at rank ``<= H``, and 0 beyond it — so the query reads it at lookup
time instead.  ``any_at(tr, lev, skip)`` returns the minimum filed tail
whose vertex is not in ``skip``; the token-pushing game passes the map of
labelled vertices, which picks exactly the head of the paper's
``(tr, 0, lev)`` BST.  A label change therefore moves nothing here.
Levels are bounded by ``H`` after truncation, so buckets are exact, not
approximations.

``any_at`` answers with the *minimum* eligible tail.  The games only need
*some* tail, but the choice must be a pure function of the bucket's
contents, so that every replay of a stream — after a checkpoint restore,
a rollback, or in another process — takes the same game trajectory and
reports the same work/depth/counters.

Cost parity: every mutation here is one dict hit plus one slab
insert/delete, charged by the enclosing structure at the [PP01] rate the
paper charges (``O(log n)`` per edge touched; Lemmas 4.3/4.4), including
the label re-filings the paper performs and this layout skips.  No
cost-model calls live here.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Container, Iterator, Optional


class InIndex:
    """Incoming-edge index of one vertex, one sorted slab per (tr, lev)."""

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        # (tr, lev) -> sorted tail keys (w, copy)
        self._buckets: dict[tuple[int, int], list[Any]] = {}

    def add(self, tail: Any, tr: int, lev: int) -> None:
        bucket = self._buckets.get((tr, lev))
        if bucket is None:
            self._buckets[(tr, lev)] = [tail]
            return
        i = bisect_left(bucket, tail)
        if i < len(bucket) and bucket[i] == tail:
            raise AssertionError(f"in-edge from {tail} already filed at {(tr, lev)}")
        bucket.insert(i, tail)

    def remove(self, tail: Any, tr: int, lev: int) -> None:
        bucket = self._buckets.get((tr, lev))
        if bucket is not None:
            i = bisect_left(bucket, tail)
            if i < len(bucket) and bucket[i] == tail:
                del bucket[i]
                if not bucket:
                    del self._buckets[(tr, lev)]
                return
        raise AssertionError(f"in-edge from {tail} not filed at {(tr, lev)}")

    def move(self, tail: Any, old: tuple[int, int], new: tuple[int, int]) -> None:
        """Re-file one in-edge under a new (tr, lev).

        remove+add inlined: this is the single hottest call in a rung
        batch (every rank and level shift funnels through it).
        """
        if old == new:
            return
        buckets = self._buckets
        bucket = buckets.get(old)
        if bucket is not None:
            i = bisect_left(bucket, tail)
            if i < len(bucket) and bucket[i] == tail:
                del bucket[i]
                if not bucket:
                    del buckets[old]
            else:
                bucket = None
        if bucket is None:
            raise AssertionError(f"in-edge from {tail} not filed at {old}")
        target = buckets.get(new)
        if target is None:
            buckets[new] = [tail]
            return
        j = bisect_left(target, tail)
        if j < len(target) and target[j] == tail:
            raise AssertionError(f"in-edge from {tail} already filed at {new}")
        target.insert(j, tail)

    def any_at(self, tr: int, lev: int, skip: Container = ()) -> Optional[Any]:
        """The minimum tail ``(w, copy)`` filed at (tr, lev) with ``w`` not
        in ``skip``, else None."""
        bucket = self._buckets.get((tr, lev))
        if not bucket:
            return None
        if not skip:
            return bucket[0]
        for tail in bucket:
            if tail[0] not in skip:
                return tail
        return None

    def entries(self) -> Iterator[tuple[Any, int, int]]:
        """Yield (tail, tr, lev) of every filed in-edge (for checks)."""
        for (tr, lev), bucket in self._buckets.items():
            for tail in bucket:
                yield tail, tr, lev

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())
