"""Fixed-height density guard (Theorem 5.2).

Given a height hint ``H`` and accuracy ``eps``, after every batch the guard
answers one of:

* ``"low"`` — a certificate that ``rho(G) <= (1 + eps) H``, together with an
  orientation in which every out-degree is at most ``(2 + eps) H``;
* ``"high"`` — a certificate that ``rho(G) > (1 - eps) H``.

Two regimes around ``B = c log n / eps^2``:

* ``H >= B / eps`` — **bucket partition**: ``T = H / B`` independent
  ``BALANCED(B)`` structures; every edge lands in a uniformly random bucket
  (deterministic per-edge hash so deletions find their bucket).  If every
  bucket's max out-degree stays below ``B``, the union of the bucket
  orientations has out-degree < ``B T <= (1+eps) H`` — the "low" case;
  otherwise some bucket witnesses a dense sampled subgraph and Lemma 3.2 +
  Lemma A.4 certify "high".
* ``H < B / eps`` — **duplication**: ``BALANCED(H, K)`` with
  ``K ~ B / (eps H)``; max multigraph out-degree below ``H K`` certifies
  ``rho <= H`` and the majority orientation has out-degree <= 2H; otherwise
  "high" (Lemma 3.2 on the trimmed balanced sub-orientation).
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Literal, Optional

from ..config import DEFAULT_CONSTANTS, Constants, check_eps, check_height
from ..errors import BatchError
from ..graphs.graph import norm_edge
from ..instrument import trace as _trace
from ..instrument.work_depth import CostModel
from .balanced import BalancedOrientation
from .duplicated import DuplicatedBalanced

Verdict = Literal["low", "high"]


class FixedHDensityGuard:
    """Theorem 5.2's data structure for one height hint ``H``."""

    def __init__(
        self,
        H: int,
        eps: float,
        n: int,
        cm: Optional[CostModel] = None,
        constants: Constants = DEFAULT_CONSTANTS,
        seed: int = 0,
    ) -> None:
        self.H = check_height(H)
        self.eps = check_eps(eps)
        self.n = n
        self.constants = constants
        self.seed = seed
        self.B = constants.B(n, eps)
        self.cm = cm if cm is not None else CostModel()
        self.changed_edges: set[tuple[int, int]] = set()

        if self.H >= self.B / eps:
            self.regime = "buckets"
            self.T = max(1, math.ceil(self.H / self.B))
            self.H_adj = self.B * self.T
            self._buckets: dict[int, BalancedOrientation] = {}  # lazy (Lemma 4.5)
            self.dup: Optional[DuplicatedBalanced] = None
        else:
            self.regime = "duplication"
            self.T = 1
            unit = max(1, math.ceil(self.B / (eps * self.H)))
            K = min(max(1, unit), constants.duplication_cap)
            if K % 2 == 0:
                # Lemma 6.1: odd K makes the majority unambiguous
                K = K + 1 if K + 1 <= constants.duplication_cap else K - 1
            self.K = K
            self.dup = DuplicatedBalanced(
                self.H * self.K, self.K, cm=self.cm, constants=constants, n_hint=n,
            )
            self._buckets = {}

    # -- bucket helpers -----------------------------------------------------------

    def _bucket_of(self, u: int, v: int) -> int:
        a, b = norm_edge(u, v)
        digest = hashlib.blake2b(
            f"{self.seed}:{a}:{b}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") % self.T

    def _bucket(self, i: int) -> BalancedOrientation:
        bucket = self._buckets.get(i)
        if bucket is None:
            bucket = BalancedOrientation(
                self.B, cm=self.cm, constants=self.constants, n_hint=self.n,
            )
            self._buckets[i] = bucket
        return bucket

    # -- updates -------------------------------------------------------------------

    def insert_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        edges = [norm_edge(u, v) for u, v in edges]
        self.changed_edges = set(edges)
        if self.regime == "duplication":
            self.dup.insert_batch(edges)
            self._absorb_journal(self.dup.inner)
            return
        self._bucket_sweep("insert_batch", edges)

    def delete_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        edges = [norm_edge(u, v) for u, v in edges]
        self.changed_edges = set(edges)
        if self.regime == "duplication":
            self.dup.delete_batch(edges)
            self._absorb_journal(self.dup.inner)
            return
        self._bucket_sweep("delete_batch", edges)

    def _bucket_sweep(self, method: str, edges: list[tuple[int, int]]) -> None:
        """Run each bucket's share as one branch of a parallel region.

        The buckets are the ``T`` independent BALANCED(B) structures of
        the partition regime — the same shape as the ladder's rung sweep.
        Journal absorption is charged inside each bucket's branch.
        """
        groups: dict[int, list[tuple[int, int]]] = {}
        for e in edges:
            groups.setdefault(self._bucket_of(*e), []).append(e)
        units = [(self._bucket(i), groups[i]) for i in sorted(groups)]
        with _trace.span("pram.map", detail={"items": len(units)}, backend="serial"):
            with self.cm.parallel() as region:
                for bucket, share in units:
                    with region.branch():
                        getattr(bucket, method)(share)
                        self._absorb_journal(bucket)

    def _absorb_journal(self, inner: BalancedOrientation) -> None:
        """Record undirected edges whose orientation may have changed —
        the raw material of Lemma 6.1's D_ins/D_del tables."""
        self.cm.charge(work=len(inner.last_reversed) + 1, depth=1)
        for tail, head, _copy in inner.last_reversed:
            self.changed_edges.add(norm_edge(tail, head))

    # -- verdict (the Theorem 5.2 interface) ------------------------------------------

    def verdict(self) -> Verdict:
        if self.regime == "duplication":
            limit = self.H * self.K
            return "low" if self.dup.inner.max_outdegree() < limit else "high"
        return (
            "low"
            if all(b.max_outdegree() < self.B for b in self._buckets.values())
            else "high"
        )

    def guarantees_low(self) -> bool:
        return self.verdict() == "low"

    # -- exported orientation (valid when verdict() == "low") ---------------------------

    def out_neighbors(self, v: int) -> list[int]:
        if self.regime == "duplication":
            return self.dup.majority_out_neighbors(v)
        out: list[int] = []
        for bucket in self._buckets.values():
            out.extend(bucket.out_neighbors(v))
        return out

    def orientation_of(self, u: int, v: int) -> tuple[int, int]:
        if self.regime == "duplication":
            return self.dup.majority_orientation(u, v)
        # .get, not _bucket(): a query must never materialise a bucket —
        # reads leave the structure unchanged, so state captured after a
        # query (checkpoints, snapshots) equals state captured without one.
        bucket = self._buckets.get(self._bucket_of(u, v))
        if bucket is None:
            raise BatchError(f"edge ({u}, {v}, copy=0) not present")
        return bucket.orientation_of(u, v)

    def max_out_export(self) -> int:
        """Max out-degree of the exported orientation."""
        vertices: set[int] = set()
        if self.regime == "duplication":
            vertices.update(self.dup.inner.level)
        else:
            for bucket in self._buckets.values():
                vertices.update(bucket.level)
        return max((len(self.out_neighbors(v)) for v in vertices), default=0)

    def out_degree_bound(self) -> float:
        """The bound the "low" certificate promises for the export."""
        if self.regime == "duplication":
            return 2.0 * self.H
        return float(self.H_adj)

    def check_invariants(self) -> None:
        if self.regime == "duplication":
            self.dup.check_invariants()
        else:
            for bucket in self._buckets.values():
                bucket.check_invariants()
