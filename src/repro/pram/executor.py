"""Execution backends for *independent* structure sweeps.

The unconditional ladders of Theorems 1.1/1.2 run ``O(log n / eps)``
completely independent fixed-H structures in parallel.  That is the one
place where coarse-grained real parallelism survives Python's GIL (each
structure is its own process; no shared state).  ``repro_why`` for this
paper flags the GIL as the reproduction gate — fine-grained PRAM steps are
*simulated* (see :mod:`repro.instrument.work_depth`), while this module
offers honest process-level parallelism for the ladder sweep when more
than one core exists.

Two surfaces:

* :meth:`SerialExecutor.map` / :meth:`ProcessExecutor.map` — the original
  stateless fan-out over picklable items (kept for ad-hoc sweeps).
* :meth:`SerialExecutor.run_structures` / :meth:`ProcessExecutor.
  run_structures` — the ladder protocol.  The coordinator hands over a
  list of :class:`RungTask` (structure + method + args); the serial
  backend runs them as branches of one :meth:`CostModel.parallel` region
  (bit-for-bit the historical inline loop), while the process backend
  ships each structure to a worker, runs it there against a **fresh**
  cost model and (if the coordinator is armed) a fresh tracer, and ships
  a :class:`WorkerDelta` back.  The coordinator replays each delta inside
  a parallel branch — ``charge(work, depth)`` + counter increments + span
  tree graft + event re-emission — so armed telemetry and the cost model
  are bit-identical to the serial backend (``repro profile --check``
  enforces this end to end; docs/PERFORMANCE.md spells out the contract).

Structures cross the process boundary via pickle with the cost model
*factored out*: every :class:`CostModel` reference is replaced by a
persistent id at dump time and re-bound at load time (worker: a fresh
model; coordinator, on the way back: the shared model).  No frame stacks
or counters ever travel, and the round trip re-binds arbitrarily nested
``cm`` references (rungs, buckets, duplicated inners) without any
attribute walking.
"""

from __future__ import annotations

import io
import os
import pickle
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, TypeVar

from ..errors import FaultInjected
from ..instrument import telemetry as _telemetry
from ..instrument import trace as _trace
from ..instrument import wallclock as _wallclock
from ..instrument.telemetry import SpanNode, Tracer, merge_span_children
from ..instrument.wallclock import ExecutorStats, RoundWall, TaskWall
from ..instrument.work_depth import CostModel
from ..resilience import faults as _faults

T = TypeVar("T")
U = TypeVar("U")

# -- the delta protocol -------------------------------------------------------

#: persistent-id tag under which every CostModel reference is factored out
#: of a structure pickle (see module docstring).
_CM_PID = "repro.cm"


@dataclass
class RungTask:
    """One independent unit of a ladder sweep.

    ``structure`` must be picklable once its cost model is factored out
    (all core structures are).  ``span``/``attrs`` describe the telemetry
    span the coordinator opens around the unit (``ladder.rung`` with its
    height, for ladders; ``None`` for the density guard's bucket sweep,
    which historically ran un-spanned).  ``finish`` runs coordinator-side
    *inside* the accounting branch after the structure's method (the
    density guard absorbs reversal journals there); ``install`` runs
    outside the branch and receives the post-run structure so the caller
    can splice the worker's copy back in (process backend only — the
    serial backend mutates in place and passes the original).
    """

    structure: Any
    method: str
    args: tuple = ()
    span: Optional[str] = None
    attrs: dict = field(default_factory=dict)
    finish: Optional[Callable[[Any], None]] = None
    install: Optional[Callable[[Any], None]] = None


@dataclass
class WorkerDelta:
    """Everything a worker's run must contribute back to the coordinator.

    ``work``/``depth`` are the worker cost model's totals for the unit
    (replayed as one ``charge`` inside the coordinator's branch: works
    sum, depths max — exactly what the inline branch produced).
    ``counters`` are summed into the coordinator model.  ``tree`` is the
    worker tracer's root (its children graft under the coordinator's
    enclosing span) and ``events`` are the worker's sink events, re-emitted
    with the coordinator's path prefix and sequence numbers.

    The ``*_s`` fields are the worker's wall-clock observables (seconds
    on the system-wide monotonic clock): submit→pickup queue latency,
    the structure method itself, and the worker-side pickle round trip.
    They feed the overhead ledger only — never the cost model.
    """

    work: int
    depth: int
    counters: dict[str, int] = field(default_factory=dict)
    tree: Optional[SpanNode] = None
    events: list[dict] = field(default_factory=list)
    frame_mismatches: int = 0
    queue_s: float = 0.0
    compute_s: float = 0.0
    pickle_s: float = 0.0


class _StatePickler(pickle.Pickler):
    """Pickler that factors every CostModel out as a persistent id."""

    def persistent_id(self, obj: Any) -> Optional[str]:
        if isinstance(obj, CostModel):
            return _CM_PID
        return None


class _StateUnpickler(pickle.Unpickler):
    """Unpickler re-binding the factored-out cost model references."""

    def __init__(self, file: io.BytesIO, cm: CostModel) -> None:
        super().__init__(file)
        self._cm = cm

    def persistent_load(self, pid: str) -> Any:
        if pid == _CM_PID:
            return self._cm
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def dump_structure(structure: Any) -> bytes:
    """Serialise a structure with its cost model factored out."""
    buf = io.BytesIO()
    _StatePickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(structure)
    return buf.getvalue()


def load_structure(blob: bytes, cm: CostModel) -> Any:
    """Deserialise a structure, binding every ``cm`` reference to ``cm``."""
    return _StateUnpickler(io.BytesIO(blob), cm).load()


def run_task_worker(
    payload: tuple[bytes, str, tuple, bool, float]
) -> tuple[bytes, WorkerDelta]:
    """Run one :class:`RungTask` in this process against fresh accounting.

    The module-level entry point a :class:`ProcessPoolExecutor` can pickle.
    ``payload`` is ``(blob, method, args, armed, t_submit)``; the structure
    is rebuilt around a fresh :class:`CostModel`, the method runs (under a
    fresh non-strict tracer when the coordinator was armed), and the
    mutated structure plus its :class:`WorkerDelta` travel back.
    ``t_submit`` is the coordinator's monotonic submit stamp — on Linux
    ``CLOCK_MONOTONIC`` is system-wide, so ``pickup - t_submit`` is the
    queue latency the overhead ledger attributes per task.
    """
    blob, method, args, armed, t_submit = payload
    t_pickup = _wallclock.monotonic()
    cm = CostModel()
    structure = load_structure(blob, cm)
    t_loaded = _wallclock.monotonic()
    events: list[dict] = []
    tree: Optional[SpanNode] = None
    mismatches = 0
    if armed:
        tracer = Tracer(cm, strict=False, sinks=[events.append])
        with _trace.tracing(tracer):
            getattr(structure, method)(*args)
        tree = tracer.root
        mismatches = tracer.frame_mismatches
    else:
        getattr(structure, method)(*args)
    t_computed = _wallclock.monotonic()
    out = dump_structure(structure)
    t_dumped = _wallclock.monotonic()
    delta = WorkerDelta(
        work=cm.work,
        depth=cm.depth,
        counters=dict(cm.counters),
        tree=tree,
        events=events,
        frame_mismatches=mismatches,
        queue_s=max(0.0, t_pickup - t_submit),
        compute_s=max(0.0, t_computed - t_loaded),
        pickle_s=max(0.0, (t_loaded - t_pickup) + (t_dumped - t_computed)),
    )
    return out, delta


def merge_delta(cm: CostModel, delta: WorkerDelta) -> None:
    """Replay a worker's delta into the coordinator's innermost frame.

    Must be called inside the parallel branch standing in for the worker
    (and inside the task's span, if any): the single ``charge`` then sums
    into the region's work and maxes into its depth exactly as the inline
    execution would have, the counters sum globally, and the armed tracer
    (if any) absorbs the worker's span tree and events at the current
    stack position.
    """
    cm.charge(work=delta.work, depth=delta.depth)
    for name in sorted(delta.counters):
        cm.count(name, delta.counters[name])
    tracer = _trace.ACTIVE
    if tracer is None:
        return
    if delta.tree is not None:
        merge_span_children(tracer._stack[-1], delta.tree)
        tracer.frame_mismatches += delta.frame_mismatches
    if delta.events:
        prefix = [node.label for node in tracer._stack[1:]]
        for ev in delta.events:
            merged = dict(ev)
            merged["path"] = prefix + list(ev.get("path", []))
            tracer._emit(merged)


def _task_label(task: RungTask) -> str:
    """The task's telemetry identity for the overhead ledger."""
    if task.span is None:
        return "(unspanned)"
    if not task.attrs:
        return task.span
    inner = ", ".join(f"{k}={v}" for k, v in sorted(task.attrs.items()))
    return f"{task.span}[{inner}]"


def _run_task_inline(task: RungTask) -> None:
    """Execute one task in the coordinator process (the serial branch body)."""
    if task.span is not None:
        with _trace.span(task.span, **task.attrs):
            getattr(task.structure, task.method)(*task.args)
            if task.finish is not None:
                task.finish(task.structure)
    else:
        getattr(task.structure, task.method)(*task.args)
        if task.finish is not None:
            task.finish(task.structure)


# -- backends -----------------------------------------------------------------


class SerialExecutor:
    """Run the sweep in-process, sequentially.

    ``stats`` is the wall-clock overhead ledger (``repro profile
    --overhead``); for the serial backend every second is compute, so the
    ledger mostly certifies that the executor machinery itself is cheap.
    """

    def __init__(self) -> None:
        self.stats = ExecutorStats("serial")

    def map(self, fn: Callable[[T], U], items: Sequence[T]) -> list[U]:
        with _trace.span("pram.map", detail={"items": len(items)}, backend="serial"):
            return [fn(item) for item in items]

    def run_structures(self, cm: CostModel, tasks: Sequence[RungTask]) -> None:
        """Run every task as one branch of a single parallel region.

        Semantically identical (work, depth, counters, span tree) to the
        historical inline ladder loop — this *is* that loop, routed.
        Wall-clock reads never touch ``cm``, so the accounting stays
        bit-identical to the uninstrumented loop.
        """
        tasks = list(tasks)
        t_round = _wallclock.monotonic()
        walls: list[TaskWall] = []
        with _trace.span("pram.map", detail={"items": len(tasks)}, backend="serial"):
            with cm.parallel() as region:
                for task in tasks:
                    t0 = _wallclock.monotonic()
                    with region.branch():
                        _run_task_inline(task)
                    walls.append(
                        TaskWall(
                            label=_task_label(task),
                            compute_s=max(0.0, _wallclock.monotonic() - t0),
                        )
                    )
                    if task.install is not None:
                        task.install(task.structure)
        self.stats.record_round(
            RoundWall(
                backend="serial",
                workers=1,
                wall_s=max(0.0, _wallclock.monotonic() - t_round),
                tasks=walls,
            ),
            registry=_telemetry.REGISTRY,
        )

    def close(self) -> None:
        """No pooled resources to release (symmetry with ProcessExecutor)."""


def _arm_worker_faults(injector: Optional[_faults.FaultInjector]) -> None:
    """Pool initializer: arm the coordinator's fault plan in this worker."""
    _faults.ACTIVE = injector


def _pool_task_worker(
    payload: tuple[bytes, str, tuple, bool, float]
) -> tuple[bytes, WorkerDelta]:
    """Pool-side entry point: the ``pram.worker`` fault site, then the task.

    A fault injected here models a worker process dying as it picks up a
    task: the worker exits, the pool breaks, and the coordinator's
    retry/degrade path takes over.  The in-process degrade path calls
    :func:`run_task_worker` directly, so the site never fires there.
    """
    if _faults.ACTIVE is not None:
        try:
            _faults.ACTIVE.fire("pram.worker")
        except FaultInjected:
            os._exit(70)
    return run_task_worker(payload)


class ProcessExecutor:
    """Run the sweep in a process pool (coarse-grained real parallelism).

    ``fn`` and every item must be picklable.  Worker count defaults to the
    machine's CPU count; on a 1-core reproduction box the benefit only
    materialises as a Brent projection (DESIGN.md §2 item 1) — E22 reports
    both the wall clock and the projection.

    ``run_structures`` ships each task's structure to a worker and merges
    the returned :class:`WorkerDelta` in a coordinator-side parallel
    branch, so the cost model and armed telemetry are bit-identical to
    :class:`SerialExecutor` (the delta-merge contract; see
    docs/PERFORMANCE.md).  The pool is created lazily and reused across
    batches; call :meth:`close` (or use the instance as a context manager)
    to release it.

    Fault tolerance: a worker that dies (``BrokenProcessPool``), hangs
    past ``task_timeout`` seconds, or trips an OS-level error does not
    sink the sweep.  The suspect pool is discarded (hung workers
    included), the failed tasks are retried on a fresh pool up to
    ``task_retries`` rounds, and stragglers finally *degrade* to
    in-process execution of the exact same worker payload — the
    copy/round-trip semantics are preserved, so the merged cost model and
    telemetry stay bit-identical to the healthy path (``repro profile
    --check --workers N`` holds either way).  Degradations and retries
    are published to the process-wide metrics registry
    (``repro_executor_retries_total`` / ``repro_executor_degraded_total``),
    never to the replay cost model — fault handling must not perturb the
    answer-bearing accounting.  Task-level exceptions (a bug in a
    structure method) are not retried; they propagate on first failure.
    """

    #: infrastructure failures worth a pool rebuild + retry; anything else
    #: raised out of a worker is a task bug and propagates immediately.
    RETRYABLE: tuple[type[BaseException], ...] = (
        BrokenExecutor,
        FuturesTimeout,
        OSError,
        CancelledError,
    )

    def __init__(
        self,
        max_workers: int | None = None,
        task_timeout: float | None = None,
        task_retries: int = 2,
    ) -> None:
        self.max_workers = max_workers or os.cpu_count() or 1
        self.task_timeout = task_timeout
        self.task_retries = max(0, task_retries)
        self._pool: Optional[ProcessPoolExecutor] = None
        self.stats = ExecutorStats("process")

    # pool handles cannot travel; a pickled executor rebuilds lazily.
    def __reduce__(self):
        return (
            ProcessExecutor,
            (self.max_workers, self.task_timeout, self.task_retries),
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # workers run under the coordinator's armed fault plan (if any),
            # whatever the start method
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_arm_worker_faults,
                initargs=(_faults.ACTIVE,),
            )
        return self._pool

    def close(self) -> None:
        """Shut the lazy worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _discard_pool(self) -> None:
        """Drop a suspect pool without waiting on its (possibly hung) workers."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _run_payloads(
        self, payloads: Sequence[tuple[bytes, str, tuple, bool]]
    ) -> list[tuple[bytes, WorkerDelta]]:
        """Fan payloads out to workers; survive dead or hung workers.

        Each retry round resubmits only the still-failing payloads on a
        fresh pool; after ``task_retries`` rounds the stragglers run
        in-process via the same :func:`run_task_worker` entry point, so a
        degraded sweep still returns worker-identical results.

        The submit stamp (the 5th payload element) is taken per attempt,
        at submit time — a retried task's queue latency measures its own
        round, not the time spent waiting behind a dead pool.
        """
        results: list[Optional[tuple[bytes, WorkerDelta]]] = [None] * len(payloads)
        pending = list(range(len(payloads)))
        for round_no in range(self.task_retries + 1):
            pool = self._ensure_pool()
            futures = {}
            for i in pending:
                try:
                    futures[i] = pool.submit(
                        _pool_task_worker, payloads[i] + (_wallclock.monotonic(),)
                    )
                except BrokenExecutor:
                    break  # a worker died while we were still submitting
            failed: list[int] = []
            for i, future in futures.items():
                try:
                    results[i] = future.result(timeout=self.task_timeout)
                except self.RETRYABLE:
                    failed.append(i)
            failed += pending[len(futures):]  # never submitted: fail this round too
            if not failed:
                return results  # type: ignore[return-value]
            # a worker died or hung: the whole pool is suspect — discard it
            # (without waiting) and retry the failures on a fresh one.
            self._discard_pool()
            pending = failed
            _telemetry.REGISTRY.counter("repro_executor_retries_total").inc(
                len(failed)
            )
        _telemetry.REGISTRY.counter("repro_executor_degraded_total").inc(len(pending))
        for i in pending:
            results[i] = run_task_worker(payloads[i] + (_wallclock.monotonic(),))
        return results  # type: ignore[return-value]

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def map(self, fn: Callable[[T], U], items: Sequence[T]) -> list[U]:
        with _trace.span("pram.map", detail={"items": len(items)}, backend="process"):
            if self.max_workers <= 1 or len(items) <= 1:
                return [fn(item) for item in items]
            return list(self._ensure_pool().map(fn, items))

    def run_structures(self, cm: CostModel, tasks: Sequence[RungTask]) -> None:
        """Fan the tasks out to workers; merge the deltas deterministically.

        Workers mutate *copies*; nothing is spliced back until every task
        has returned, so an exception mid-sweep leaves the coordinator's
        structures untouched (stronger than the inline loop, which a
        guarded() envelope already protects).  Merge order is task order —
        the same order the serial backend executes in — so counters, span
        aggregation and event sequence numbers line up exactly.
        """
        tasks = list(tasks)
        armed = _trace.ACTIVE is not None
        t_round = _wallclock.monotonic()
        serialize_per_task: list[float] = []
        payload_bytes: list[int] = []
        with _trace.span("pram.map", detail={"items": len(tasks)}, backend="process"):
            payloads = []
            for t in tasks:
                t0 = _wallclock.monotonic()
                blob = dump_structure(t.structure)
                serialize_per_task.append(max(0.0, _wallclock.monotonic() - t0))
                payload_bytes.append(len(blob))
                payloads.append((blob, t.method, t.args, armed))
            t_submitted = _wallclock.monotonic()
            if self.max_workers <= 1 or len(tasks) <= 1:
                # in-process fallback: keep the copy/round-trip semantics of
                # the pool path so behaviour does not depend on sizing.
                results = [
                    run_task_worker(p + (_wallclock.monotonic(),)) for p in payloads
                ]
            else:
                results = self._run_payloads(payloads)
            t_returned = _wallclock.monotonic()
            deserialize_per_task: list[float] = []
            result_bytes: list[int] = []
            with cm.parallel() as region:
                for task, (blob, delta) in zip(tasks, results):
                    t0 = _wallclock.monotonic()
                    replacement = load_structure(blob, cm)
                    deserialize_per_task.append(
                        max(0.0, _wallclock.monotonic() - t0)
                    )
                    result_bytes.append(len(blob))
                    with region.branch():
                        if task.span is not None:
                            with _trace.span(task.span, **task.attrs):
                                merge_delta(cm, delta)
                                if task.finish is not None:
                                    task.finish(replacement)
                        else:
                            merge_delta(cm, delta)
                            if task.finish is not None:
                                task.finish(replacement)
                    if task.install is not None:
                        task.install(replacement)
            t_merged = _wallclock.monotonic()
        deserialize_s = sum(deserialize_per_task)
        walls = [
            TaskWall(
                label=_task_label(task),
                payload_bytes=payload_bytes[i],
                result_bytes=result_bytes[i],
                serialize_s=serialize_per_task[i],
                deserialize_s=deserialize_per_task[i],
                queue_s=results[i][1].queue_s,
                compute_s=results[i][1].compute_s,
                worker_pickle_s=results[i][1].pickle_s,
            )
            for i, task in enumerate(tasks)
        ]
        self.stats.record_round(
            RoundWall(
                backend="process",
                workers=self.max_workers,
                wall_s=max(0.0, t_merged - t_round),
                serialize_s=sum(serialize_per_task),
                wait_s=max(0.0, t_returned - t_submitted),
                deserialize_s=deserialize_s,
                merge_s=max(0.0, (t_merged - t_returned) - deserialize_s),
                tasks=walls,
            ),
            registry=_telemetry.REGISTRY,
        )
