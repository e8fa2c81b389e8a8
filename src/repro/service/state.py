"""Per-tenant state of the coreness service: ladders, WAL, snapshots.

One :class:`TenantShard` owns everything a tenant graph needs:

* the batch-dynamic ladders (a :class:`~repro.core.coreness.CorenessDecomposition`
  and/or :class:`~repro.core.density.DensityEstimator`, per the tenant's
  ``mode``), each wrapped in a
  :class:`~repro.resilience.recovery.RecoveryManager` so an injected or
  organic fault mid-batch escalates through rollback → checkpoint replay
  → rebuild instead of corrupting the tenant;
* a write-ahead :class:`~repro.graphs.tracefile.TraceWriter` log —
  :meth:`accept` appends (and flushes) the batch *before* anything
  applies, which is the durability point an ingest ack refers to;
* the published :class:`Snapshot` — an immutable view of every answer
  the query surface serves, rebuilt after each batch commit and flipped
  by a single reference assignment.  Readers never touch the live
  structures, so queries are consistent (one committed epoch) and never
  block on an in-flight batch — the asynchronous-reads contract of
  Liu–Shun–Zablotchi (arXiv 2401.08015) realised at batch granularity;
* periodic full checkpoints (``checkpoint.json``, atomic rename) so a
  restart replays only the WAL suffix.

Restart story (:meth:`TenantShard.open`): read ``meta.json`` for the
construction parameters, load the WAL through the torn-tail-tolerant
:func:`~repro.graphs.tracefile.recover_trace`, restore the newest usable
checkpoint, and replay the suffix through the recovery managers.  The
ladders are deterministic functions of (parameters, batch sequence), so
a recovered tenant answers bit-identically to one that never died.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Optional

from ..config import Constants
from ..core.coreness import CorenessDecomposition
from ..core.density import DensityEstimator
from ..errors import BatchError, InvariantViolation, ParameterError
from ..graphs.graph import DynamicGraph, normalize_batch
from ..graphs.streams import BatchOp
from ..graphs.tracefile import TraceWriter, recover_trace
from ..instrument import wallclock as _wallclock
from ..instrument.work_depth import CostModel
from ..resilience import checkpoint as ckpt
from ..resilience.recovery import RecoveryManager

#: tenant modes — which ladder(s) a tenant maintains and may query.
TENANT_MODES = ("coreness", "density", "both")

META_NAME = "meta.json"
WAL_NAME = "wal.trace"
CHECKPOINT_NAME = "checkpoint.json"


@dataclass(frozen=True)
class TenantConfig:
    """Construction parameters of one tenant's ladder(s) (persisted)."""

    n: int = 256
    eps: float = 0.35
    seed: int = 0
    mode: str = "both"
    constants: Constants = field(default_factory=Constants)

    def __post_init__(self) -> None:
        if self.mode not in TENANT_MODES:
            raise ParameterError(
                f"tenant mode must be one of {TENANT_MODES}, got {self.mode!r}"
            )
        if self.n < 2:
            raise ParameterError(f"tenant n must be >= 2, got {self.n}")

    def to_json(self) -> dict[str, Any]:
        """JSON-able form (the ``meta.json`` payload)."""
        return {
            "n": self.n,
            "eps": self.eps,
            "seed": self.seed,
            "mode": self.mode,
            "constants": asdict(self.constants),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "TenantConfig":
        """Rebuild from :meth:`to_json` output (BatchError on garbage)."""
        try:
            return cls(
                n=int(payload["n"]),
                eps=float(payload["eps"]),
                seed=int(payload["seed"]),
                mode=str(payload["mode"]),
                constants=Constants(**dict(payload["constants"])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BatchError(f"malformed tenant meta.json: {exc}") from exc


@dataclass(frozen=True)
class Snapshot:
    """The immutable published view one committed epoch's queries see.

    ``epoch`` counts committed batches.  Fields for ladders the tenant's
    mode does not maintain are ``None``.  Instances are never mutated —
    a commit builds a fresh one and flips the tenant's reference.
    """

    epoch: int
    live_edges: int
    coreness: Optional[Mapping[int, float]]
    max_coreness: Optional[float]
    density: Optional[float]
    arboricity: Optional[float]
    max_outdegree: Optional[int]
    out_neighbors: Optional[Mapping[int, tuple[int, ...]]]


class TenantShard:
    """One tenant graph: ladders + WAL + published snapshot.

    Thread discipline (enforced by the server, relied on here):
    :meth:`accept` calls are serialised per tenant and never overlap
    :meth:`close`; :meth:`apply` calls are serialised per tenant on the
    owning shard's writer; :attr:`snapshot` is read from anywhere (it is
    a single reference to an immutable object).
    """

    def __init__(
        self,
        name: str,
        directory: str | pathlib.Path,
        config: TenantConfig,
        *,
        checkpoint_every: int = 32,
        sync: bool = False,
        registry: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.directory = pathlib.Path(directory)
        self.config = config
        self.checkpoint_every = max(1, checkpoint_every)
        self.sync = sync
        self.registry = registry
        self.cm = CostModel()
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write_meta()
        wal_ops = self._load_wal()
        self.accepted = len(wal_ops)  # batches durably in the WAL
        self.applied = 0  # batches committed into the ladders
        self.managers: dict[str, RecoveryManager] = {}
        self._recover(wal_ops)
        # mirror used to validate *accepted* (possibly not yet applied)
        # batches; replays the full WAL so accept-order validation holds.
        self.accepted_graph = DynamicGraph(0)
        for op in wal_ops:
            self._mirror(self.accepted_graph, op)
        self.snapshot = self._build_snapshot()
        self._writer = TraceWriter(
            self.directory / WAL_NAME, append=True, sync=sync
        )
        self._closed = False

    # -- construction helpers -------------------------------------------------

    def _write_meta(self) -> None:
        path = self.directory / META_NAME
        if path.exists():
            on_disk = TenantConfig.from_json(json.loads(path.read_text()))
            if on_disk != self.config:
                raise BatchError(
                    f"tenant {self.name!r}: on-disk parameters differ from "
                    "the requested ones — a tenant's ladder parameters are "
                    "immutable once created"
                )
            return
        _atomic_write(
            path, json.dumps(self.config.to_json(), sort_keys=True), self.sync
        )

    def _load_wal(self) -> list[BatchOp]:
        """Tolerant WAL read; physically drops a torn tail before resume."""
        path = self.directory / WAL_NAME
        ops, good = recover_trace(path)
        if path.exists() and good < path.stat().st_size:
            # ``good`` already excludes any footer only for torn files;
            # sealed files return their full size, so a trim here is
            # always the torn-tail case.
            with open(path, "rb+") as fh:
                fh.truncate(good)
        return ops

    def _ladder_kinds(self) -> tuple[str, ...]:
        mode = self.config.mode
        return ("coreness", "density") if mode == "both" else (mode,)

    def _fresh_structure(self, kind: str) -> Any:
        cls = CorenessDecomposition if kind == "coreness" else DensityEstimator
        return cls(
            self.config.n,
            eps=self.config.eps,
            cm=self.cm,
            constants=self.config.constants,
            seed=self.config.seed,
        )

    def _recover(self, wal_ops: list[BatchOp]) -> None:
        """Checkpoint restore + WAL-suffix replay (or full replay)."""
        payload = self._read_checkpoint()
        position = 0
        structures: dict[str, Any] = {}
        if payload is not None and payload["position"] <= len(wal_ops):
            try:
                for kind in self._ladder_kinds():
                    structures[kind] = ckpt.restore_checkpoint(
                        payload["structures"][kind], cm=self.cm
                    )
                position = payload["position"]
            except (BatchError, ParameterError, InvariantViolation):
                # parses but does not restore: as survivable as a torn
                # write, since the WAL still holds every batch.
                structures = {}
        if not structures:
            for kind in self._ladder_kinds():
                structures[kind] = self._fresh_structure(kind)
        prefix, suffix = wal_ops[:position], wal_ops[position:]
        for kind, structure in structures.items():
            graph = DynamicGraph(0)
            for op in prefix:
                self._mirror(graph, op)
            self.managers[kind] = RecoveryManager(
                structure,
                graph=graph,
                history=list(prefix),
                bounded_history=True,
            )
        self.applied = position
        for op in suffix:
            self._apply_managers(op)
            self.applied += 1

    def _read_checkpoint(self) -> Optional[dict[str, Any]]:
        path = self.directory / CHECKPOINT_NAME
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            position = int(payload["position"])
            structures = payload["structures"]
            if position < 0 or not isinstance(structures, dict):
                raise ValueError("negative position or bad structures")
            for kind in self._ladder_kinds():
                if kind not in structures:
                    raise ValueError(f"missing {kind} payload")
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            # a torn checkpoint write is survivable: fall back to a full
            # WAL replay rather than refusing to start the tenant.
            return None
        return {"position": position, "structures": structures}

    # -- the ingest path ------------------------------------------------------

    @staticmethod
    def _mirror(graph: DynamicGraph, op: BatchOp) -> None:
        if op.kind == "insert":
            graph.insert_batch(op.edges)
        else:
            graph.delete_batch(op.edges)

    def validate(self, op: BatchOp) -> BatchOp:
        """Check a batch against the accepted state; returns it canonical.

        Raises :class:`~repro.errors.BatchError` on duplicate edges,
        inserting a live edge, deleting an absent one, or endpoints
        outside the tenant's declared ``[0, n)`` universe.
        """
        # normalize_batch canonicalises and rejects self-loops/duplicates
        batch = normalize_batch(op.edges)
        for u, v in batch:
            if u < 0 or v >= self.config.n:
                raise BatchError(
                    f"edge ({u}, {v}) outside the tenant's declared "
                    f"universe [0, {self.config.n})"
                )
            live = (u, v) in self.accepted_graph.edges
            if op.kind == "insert" and live:
                raise BatchError(f"inserting live edge ({u}, {v})")
            if op.kind == "delete" and not live:
                raise BatchError(f"deleting absent edge ({u}, {v})")
        return BatchOp(op.kind, tuple(batch))

    def accept(self, op: BatchOp) -> int:
        """Validate + WAL-append one batch; returns its 1-based position.

        The returned position is the durability ack: the batch line is
        flushed (and fsynced when the shard was opened ``sync=True``)
        before this method returns, so a crash after the ack always
        replays the batch on restart.
        """
        if self._closed:
            raise BatchError(f"tenant {self.name!r} is closed")
        op = self.validate(op)
        self._writer.append(op)
        self._mirror(self.accepted_graph, op)
        self.accepted += 1
        if self.registry is not None:
            self.registry.counter(
                "repro_service_batches_ingested_total", tenant=self.name
            ).inc(1)
            self.registry.counter(
                "repro_service_edge_updates_total", tenant=self.name
            ).inc(op.size)
        return self.accepted

    # -- the apply path (shard writer thread) ---------------------------------

    def _apply_managers(self, op: BatchOp) -> None:
        for manager in self.managers.values():
            manager.apply(op)

    def apply(self, op: BatchOp) -> int:
        """Commit one accepted batch into the ladders; returns the epoch.

        Runs on the owning shard's writer (never concurrently with
        itself).  The published snapshot flips only after every ladder
        committed, so readers see epoch N answers or epoch N+1 answers,
        never a mixture.
        """
        t0 = _wallclock.monotonic()
        self._apply_managers(op)
        self.applied += 1
        self.snapshot = self._build_snapshot()
        if self.applied % self.checkpoint_every == 0:
            self.write_checkpoint()
        if self.registry is not None:
            self.registry.counter(
                "repro_service_batches_applied_total", tenant=self.name
            ).inc(1)
            self.registry.gauge(
                "repro_service_epoch", tenant=self.name
            ).set(self.applied)
            self.registry.histogram(
                "repro_service_apply_seconds", tenant=self.name
            ).observe(max(0.0, _wallclock.monotonic() - t0))
        return self.applied

    def _build_snapshot(self) -> Snapshot:
        cor = self.managers.get("coreness")
        den = self.managers.get("density")
        coreness = max_core = None
        density = arboricity = max_out = out_nb = None
        if cor is not None:
            st = cor.structure
            coreness = dict(st.estimates())
            max_core = st.max_estimate()
        if den is not None:
            st = den.structure
            density = st.density_estimate()
            arboricity = st.arboricity_estimate()
            max_out = st.max_outdegree()
            out_nb = {
                v: tuple(sorted(st.orientation_out(v)))
                for v in sorted(den.graph.adj)
                if den.graph.adj[v]
            }
        graph = (cor or den).graph
        return Snapshot(
            epoch=self.applied,
            live_edges=len(graph.edges),
            coreness=coreness,
            max_coreness=max_core,
            density=density,
            arboricity=arboricity,
            max_outdegree=max_out,
            out_neighbors=out_nb,
        )

    # -- durability -----------------------------------------------------------

    def write_checkpoint(self) -> None:
        """Atomically persist a full-ladder checkpoint at the current epoch."""
        payload = {
            "position": self.applied,
            "structures": {
                kind: ckpt.checkpoint(manager.structure)
                for kind, manager in self.managers.items()
            },
        }
        _atomic_write(
            self.directory / CHECKPOINT_NAME, json.dumps(payload), self.sync
        )

    def close(self, seal: bool = True) -> None:
        """Checkpoint and seal the WAL (graceful shutdown); idempotent.

        ``seal=False`` releases the WAL handle without footer or
        checkpoint — the shutdown of a quarantined tenant whose ladders
        diverged from the WAL: the next start replays from the last good
        checkpoint instead of trusting the divergence.
        """
        if self._closed:
            return
        self._closed = True
        if seal:
            self.write_checkpoint()
            self._writer.close()
        else:
            self._writer.abort()

    @property
    def pending(self) -> int:
        """Accepted-but-not-yet-committed batches (ingest queue depth)."""
        return self.accepted - self.applied


def _atomic_write(path: pathlib.Path, text: str, sync: bool = False) -> None:
    """Write-then-rename so readers never observe a torn file.

    ``sync=True`` also makes the rename durable: the temp file is fsynced
    before ``os.replace`` and the parent directory after it, so a power
    loss leaves the old file or the complete new one, never an empty one.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    if not sync:
        tmp.write_text(text)
        os.replace(tmp, path)
        return
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def discover_tenants(data_dir: str | pathlib.Path) -> list[str]:
    """Tenant names with a ``meta.json`` under ``data_dir`` (sorted)."""
    root = pathlib.Path(data_dir)
    if not root.exists():
        return []
    return sorted(
        p.name for p in root.iterdir() if (p / META_NAME).is_file()
    )


__all__ = [
    "CHECKPOINT_NAME",
    "META_NAME",
    "Snapshot",
    "TENANT_MODES",
    "TenantConfig",
    "TenantShard",
    "WAL_NAME",
    "discover_tenants",
]
