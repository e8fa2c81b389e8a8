"""Unconditional density / arboricity / low out-degree (Theorem 1.2).

Runs the fixed-height density guard of Theorem 5.2 for every rung of the
geometric ladder.  The first rung whose verdict is "low" pins the density:

    rho_ALG = H_k  in  [(1 - eps) rho(G), (1 + eps) rho(G)]

and exports that rung's orientation, in which every out-degree is at most
``(2 + eps) rho(G)``.  The arboricity estimate is ``lambda_ALG = 2 rho_ALG``
(Nash-Williams sandwiches ``rho <= lambda <= 2 rho``).

Every rung runs every batch as one parallel region; the first-"low"
query binary-searches the verdict-monotone ladder and memoises its
index (see :mod:`repro.core.ladder` and docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..config import DEFAULT_CONSTANTS, Constants, check_eps, ladder_heights
from ..errors import InvariantViolation
from ..instrument.work_depth import CostModel
from .density_fixed import FixedHDensityGuard
from .ladder import RungLadder


class DensityEstimator(RungLadder):
    """Batch-dynamic ``(1 + eps)`` density estimate + low out-degree orientation."""

    def __init__(
        self,
        n: int,
        eps: float = DEFAULT_CONSTANTS.ladder_base_eps,
        cm: Optional[CostModel] = None,
        constants: Constants = DEFAULT_CONSTANTS,
        seed: int = 0,
        h_max: Optional[int] = None,
    ) -> None:
        self.n = n
        self.eps = check_eps(eps)
        self.cm = cm if cm is not None else CostModel()
        self.constants = constants
        self.seed = seed
        self.h_max = h_max
        self.heights: list[int] = ladder_heights(n, eps, h_max)
        self.rungs: list[FixedHDensityGuard] = [
            FixedHDensityGuard(
                H, eps, n, cm=self.cm, constants=constants, seed=seed + 97 * i,
            )
            for i, H in enumerate(self.heights)
        ]
        self._init_ladder()

    # -- updates ------------------------------------------------------------------

    def insert_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        self._ladder_dispatch("insert_batch", list(edges))

    def delete_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        self._ladder_dispatch("delete_batch", list(edges))

    def update_batch(self, insertions=(), deletions=()) -> None:
        """One mixed batch: deletions first, then insertions."""
        deletions, insertions = list(deletions), list(insertions)
        if deletions:
            self.delete_batch(deletions)
        if insertions:
            self.insert_batch(insertions)

    # -- queries --------------------------------------------------------------------

    def _rung_low(self, i: int) -> bool:
        """Rung ``i``'s verdict."""
        self.cm.tick()  # one verdict probe (queries are charged per probe)
        return self.rungs[i].guarantees_low()

    def _first_low(self) -> int:
        """Index of the first "low" rung (verdict-monotone binary search).

        The verdict is monotone up the ladder — a rung certifying
        ``rho <= (1+eps) H`` implies every taller hint certifies too —
        so the first-"low" scan is a predicate flip found with O(log
        #rungs) verdict probes.
        """
        if self._fl_cache is None:
            hi = len(self.rungs) - 1
            if not self._rung_low(hi):
                raise InvariantViolation(
                    "no ladder rung certifies a density upper bound — the top "
                    "rung should always be 'low' since H_top >= n >= rho(G)"
                )
            lo = 0
            while lo < hi:
                mid = (lo + hi) // 2
                if self._rung_low(mid):
                    hi = mid
                else:
                    lo = mid + 1
            self._fl_cache = lo
        return self._fl_cache

    def density_estimate(self) -> float:
        """``rho_ALG`` (the first 'low' rung's height)."""
        return float(self.heights[self._first_low()])

    def arboricity_estimate(self) -> float:
        """``lambda_ALG = 2 rho_ALG``."""
        return 2.0 * self.density_estimate()

    def orientation_out(self, v: int) -> list[int]:
        """Out-neighbours of ``v`` in the exported low out-degree orientation."""
        return self.rungs[self._first_low()].out_neighbors(v)

    def orientation_of(self, u: int, v: int) -> tuple[int, int]:
        return self.rungs[self._first_low()].orientation_of(u, v)

    def max_outdegree(self) -> int:
        return self.rungs[self._first_low()].max_out_export()

    def check_invariants(self) -> None:
        for rung in self.rungs:
            rung.check_invariants()
