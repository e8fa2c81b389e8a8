"""Ladder sharding: the rung sweep and query caching.

The unconditional ladders (Theorems 1.1/1.2) sweep ``O(log n / eps)``
*independent* fixed-H rungs per batch.  This module is the shared layer
both ladder classes mix in:

* **The rung sweep** — every rung runs every batch as one branch of a
  single :meth:`~repro.instrument.work_depth.CostModel.parallel` region
  (inside a ``pram.map`` span), so the batch's work is the sum over rungs
  and its depth the max: the PRAM parallel-for the paper analyses.
  Execution is sequential; wall-clock parallelism is projected from
  work/depth (DESIGN.md §2 item 1, E9).  Because every rung runs every
  batch, each batch's cost is bounded on its own: the paper's guarantee
  is worst-case, not amortized, and a rung that deferred batches would
  pay for them all inside a later one.

* **Query caching** — per-vertex coreness estimates, the ladder max, and
  the density first-"low" index memoise between batches; a batch
  invalidates exactly the vertices it could have changed (its endpoints
  plus every vertex a rung's reversal/insertion/deletion journals
  touched).
"""

from __future__ import annotations

from typing import Optional

from ..instrument import trace as _trace


class RungLadder:
    """Mixin for the ladder classes: the rung sweep and query caches."""

    def _init_ladder(self) -> None:
        # query memo caches (see _invalidate_queries)
        self._est_cache: dict[int, float] = {}
        self._max_est: Optional[float] = None
        self._fl_cache: Optional[int] = None

    def _ladder_dispatch(self, method: str, edges: list[tuple[int, int]]) -> None:
        """Run one batch through every rung as one parallel region."""
        with _trace.span("pram.map", detail={"items": len(self.rungs)}, backend="serial"):
            with self.cm.parallel() as region:
                for H, rung in zip(self.heights, self.rungs):
                    with region.branch():
                        with _trace.span("ladder.rung", H=H):
                            getattr(rung, method)(edges)
        self._invalidate_queries(edges)

    def _reset_query_caches(self) -> None:
        self._est_cache.clear()
        self._max_est = None
        self._fl_cache = None

    def _invalidate_queries(self, edges: list[tuple[int, int]]) -> None:
        """Drop exactly the memoised answers this batch could have changed.

        An estimate can only move when some rung's out-degree at the
        vertex moved, and every out-degree move is either an endpoint of
        the batch or an endpoint of an arc in a rung's
        insertion/deletion/reversal journals.
        """
        self._max_est = None
        self._fl_cache = None
        if not self._est_cache:  # only the coreness ladder fills it
            return
        dirty: set[int] = set()
        for u, v in edges:
            dirty.add(u)
            dirty.add(v)
        for rung in self.rungs:
            dirty.update(rung.journal_vertices())
        for v in dirty:
            self._est_cache.pop(v, None)


__all__ = ["RungLadder"]
