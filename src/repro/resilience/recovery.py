"""Tiered recovery manager — rollback, checkpoint replay, full rebuild.

The :class:`RecoveryManager` wraps one dynamic structure
(``BalancedOrientation``, ``CorenessDecomposition`` or
``DensityEstimator``) and applies every batch through an escalation
ladder, cheapest remedy first:

* **tier 1 — rollback.**  The batch runs inside
  :func:`~repro.resilience.guard.guarded`, so any exception (an injected
  fault, a :class:`~repro.errors.ConvergenceError`, a half-applied token
  game) rolls the structure back to its pre-batch state; the batch is
  retried once on the restored state.
* **tier 2 — checkpoint + WAL replay.**  If the rolled-back state itself
  is unhealthy, or the retry fails again, the manager restores the last
  in-memory checkpoint and replays the committed history suffix — the
  restart story (restore + replay) run in-process.
* **tier 3 — full rebuild.**  As a last resort the structure is rebuilt
  from the ground-truth :class:`~repro.graphs.graph.DynamicGraph`
  (``core/bulk.py`` for a single orientation; fresh construction plus
  chunked re-insertion for the ladders).

If every tier fails, :class:`~repro.errors.RecoveryError` propagates.
Each batch's outcome ("ok", "rollback", "checkpoint", "rebuild") is
recorded in a :class:`~repro.instrument.metrics.RecoveryStats` scoreboard
and counted on the cost model, and silent corruption (a fault that
*mutated* rather than raised) is caught by a post-commit health audit
that triggers the same tier-2/tier-3 repair.

Restarts across processes are the service's job:
:class:`~repro.service.state.TenantShard` restores a full-ladder
checkpoint (``resilience/checkpoint.py``) and replays its write-ahead
log's suffix through one manager per ladder.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.balanced import BalancedOrientation
from ..verify.audits import AuditReport, audit_orientation
from ..errors import BatchError, RecoveryError
from ..graphs.graph import DynamicGraph, normalize_batch
from ..graphs.streams import BatchOp
from ..instrument import trace as _trace
from ..instrument.metrics import RecoveryStats
from .guard import capture, guarded, rollback


class RecoveryManager:
    """Apply batches with the rollback → checkpoint → rebuild ladder."""

    def __init__(
        self,
        structure: Any,
        *,
        checkpoint_every: int = 16,
        audit_every: int = 1,
        max_recovery_rounds: int = 3,
        max_rebuild_attempts: int = 3,
        rebuild_chunk: int = 128,
        graph: Optional[DynamicGraph] = None,
        history: Optional[list[BatchOp]] = None,
        bounded_history: bool = False,
    ) -> None:
        self.structure = structure
        self.cm = structure.cm
        self.graph = graph if graph is not None else DynamicGraph(0)
        self.history: list[BatchOp] = list(history or [])
        #: total batches ever committed; ``>= len(self.history)`` once a
        #: bounded-history manager has trimmed (positions stay absolute).
        self.applied = len(self.history)
        self.bounded_history = bounded_history
        self.checkpoint_every = max(1, checkpoint_every)
        self.audit_every = audit_every
        self.max_recovery_rounds = max(1, max_recovery_rounds)
        self.max_rebuild_attempts = max(1, max_rebuild_attempts)
        self.rebuild_chunk = max(1, rebuild_chunk)
        self.stats = RecoveryStats()
        self._ckpt = capture(structure)
        self._ckpt_pos = self.applied
        if not self.healthy():
            raise BatchError(
                "RecoveryManager: structure and ground-truth graph disagree "
                "at construction"
            )

    # -- the public entry point ------------------------------------------------

    def apply(self, op: BatchOp) -> str:
        """Apply one batch, recovering from failures; returns the outcome tier.

        Invalid batches (duplicate edges, inserting a live edge, deleting
        an absent one) raise :class:`~repro.errors.BatchError` without
        touching the structure — that is caller error, not a fault.
        """
        self._validate(op)
        with _trace.span("recovery.apply", detail={"kind": op.kind, "edges": op.size}):
            outcome = "ok"
            exc = self._try(op)
            if exc is not None:
                _trace.event(
                    "recovery.escalate",
                    tier="rollback",
                    batch=self.applied,
                    error=type(exc).__name__,
                )
                outcome = self._recover_and_retry(op, exc)
            self._commit(op)
            if self.audit_every and self.applied % self.audit_every == 0:
                if not self.healthy():
                    _trace.event(
                        "recovery.escalate",
                        tier="post-commit-audit",
                        batch=self.applied,
                    )
                    outcome = self._repair_in_place()
        self.stats.record(outcome)
        _trace.event("recovery.outcome", outcome=outcome, batch=self.applied)
        if outcome != "ok":
            self.cm.count(f"recovery_{outcome}")
        if self.applied - self._ckpt_pos >= self.checkpoint_every:
            self._ckpt = capture(self.structure)
            self._ckpt_pos = self.applied
            if self.bounded_history:
                # Tier 2 only ever replays the post-checkpoint suffix, so
                # everything up to the checkpoint can be forgotten — this is
                # what keeps out-of-core replays (E23) and service tenants
                # at window-sized memory.  Only callers that read the full
                # ``history`` afterwards (the chaos harness) keep it whole.
                self.history.clear()
        return outcome

    # -- health ------------------------------------------------------------------

    def healthy(self) -> bool:
        """Structure invariants hold (and, for an orientation, its edge set
        matches the ground truth)."""
        try:
            self.structure.check_invariants()
        except Exception:
            return False
        if isinstance(self.structure, BalancedOrientation):
            ours = {(a, b) for (a, b, _copy) in self.structure.tail_of}
            if ours != self.graph.edges:
                return False
        return True

    def audit(self) -> AuditReport:
        """A full audit of the managed structure against the ground truth."""
        if isinstance(self.structure, BalancedOrientation):
            return audit_orientation(self.structure, self.graph)
        report = AuditReport(f"{type(self.structure).__name__} invariants")
        try:
            self.structure.check_invariants()
        except Exception as exc:
            report.add(str(exc))
        return report

    # -- internals ----------------------------------------------------------------

    def _validate(self, op: BatchOp) -> None:
        batch = normalize_batch(op.edges)
        for e in batch:
            if op.kind == "insert" and e in self.graph.edges:
                raise BatchError(f"inserting live edge {e}")
            if op.kind == "delete" and e not in self.graph.edges:
                raise BatchError(f"deleting absent edge {e}")

    def _apply_raw(self, op: BatchOp) -> None:
        if op.kind == "insert":
            self.structure.insert_batch(op.edges)
        else:
            self.structure.delete_batch(op.edges)

    def _try(self, op: BatchOp) -> Optional[BaseException]:
        """One guarded attempt; returns the exception instead of raising."""
        try:
            with guarded(self.structure):
                self._apply_raw(op)
        except RecoveryError:
            raise
        except BaseException as exc:
            return exc
        return None

    def _commit(self, op: BatchOp) -> None:
        if op.kind == "insert":
            self.graph.insert_batch(op.edges)
        else:
            self.graph.delete_batch(op.edges)
        self.history.append(op)
        self.applied += 1

    def _recover_and_retry(self, op: BatchOp, first_exc: BaseException) -> str:
        """Escalate until the batch applies; returns the deepest tier used.

        A burst of transient faults can outlast one pass (the tier-1 retry
        faults again, the tier-2 replay faults, ...), so the whole ladder
        runs up to ``max_recovery_rounds`` times — each round either
        consumes faults or lands the batch.
        """
        deepest = "rollback"
        last: Optional[BaseException] = first_exc
        for _round in range(self.max_recovery_rounds):
            # Tier 1: guarded() already rolled back; retry on that state.
            if self.healthy() and self._try(op) is None:
                return deepest
            # Tier 2: restore the last checkpoint and replay the suffix.
            deepest = "rebuild" if deepest == "rebuild" else "checkpoint"
            _trace.event(
                "recovery.escalate", tier="checkpoint", batch=self.applied
            )
            if self._tier2_restore() and self._try(op) is None:
                return deepest
            # Tier 3: rebuild from the ground truth.
            deepest = "rebuild"
            _trace.event("recovery.escalate", tier="rebuild", batch=self.applied)
            try:
                self._tier3_rebuild()
            except RecoveryError as exc:
                last = exc
                continue
            if self._try(op) is None:
                return deepest
        raise RecoveryError(
            f"batch of {len(op.edges)} {op.kind}s failed after "
            f"{self.max_recovery_rounds} recovery rounds "
            f"(first failure: {first_exc!r}, last: {last!r})"
        )

    def _repair_in_place(self) -> str:
        """Post-commit corruption: history already includes the bad batch."""
        if self._tier2_restore():
            return "checkpoint"
        self._tier3_rebuild()
        if self.healthy():
            return "rebuild"
        raise RecoveryError(
            "structure still unhealthy after a full rebuild from the "
            "ground-truth graph"
        )

    def _tier2_restore(self) -> bool:
        """Checkpoint + WAL-suffix replay; False means escalate."""
        self.cm.count("recovery_tier2_replays")
        try:
            rollback(self.structure, self._ckpt)
            # ``_ckpt_pos`` is absolute; the list may start later if a
            # bounded-history manager trimmed the prefix.
            start = self._ckpt_pos - (self.applied - len(self.history))
            for past in self.history[max(0, start) :]:
                self._apply_raw(past)
        except BaseException:
            return False
        return self.healthy()

    def _tier3_rebuild(self) -> None:
        """Rebuild from the ground-truth graph (raises RecoveryError if
        every attempt fails — e.g. faults keep firing mid-rebuild)."""
        prev_touched = set(getattr(self.structure, "_touched", ()))
        last: Optional[BaseException] = None
        for _attempt in range(self.max_rebuild_attempts):
            self.cm.count("recovery_rebuild_attempts")
            try:
                fresh = self._build_from_graph()
                rollback(self.structure, capture(fresh))
                if hasattr(self.structure, "_touched"):
                    self.structure._touched |= prev_touched
                if self.healthy():
                    return
            except BaseException as exc:
                last = exc
        raise RecoveryError(
            f"all {self.max_rebuild_attempts} rebuild attempts failed "
            f"(last error: {last!r})"
        )

    def _build_from_graph(self) -> Any:
        st = self.structure
        edges = sorted(self.graph.edges)
        if isinstance(st, BalancedOrientation):
            from ..core.bulk import from_graph

            return from_graph(edges, st.H, cm=self.cm, constants=st.constants)
        fresh = type(st)(
            st.n,
            eps=st.eps,
            cm=self.cm,
            constants=st.constants,
            seed=st.seed,
            h_max=st.h_max,
        )
        for i in range(0, len(edges), self.rebuild_chunk):
            fresh.insert_batch(edges[i : i + self.rebuild_chunk])
        return fresh
