"""Timing and counting shims around the program's public entry points.

The traced run wraps calls *into* each layer from the benchmark's own
files; nothing inside the program changes.  A :class:`Recorder` keeps
every span in memory — name, start, end, parent and thread id — and
per-thread call counters; :func:`algorithm_metrics` and
:func:`service_metrics` turn them into the per-layer metrics after the
run.

Recording is thread-safe: each thread has its own span stack and its own
counter dict (registered once under a lock), and ``list.append`` of a
finished span is atomic.  Only synchronous functions are wrapped, so a
span never straddles an ``await`` and a thread's stack stays well nested.
"""

from __future__ import annotations

import functools
import itertools
import threading
from typing import Any, Callable, Optional

from common import now, percentile

#: methods counted on the in-index and out-set classes (counts only: a
#: timer per call would cost more than the call).
INDEX_METHODS = ("add", "remove", "move", "any_at", "any_truncated")
OUTSET_METHODS = ("add", "remove", "rank", "select", "first", "window")
COST_METHODS = ("tick", "charge", "count")


class Recorder:
    """In-memory span and counter store shared by every shim."""

    def __init__(self) -> None:
        #: finished spans: (id, parent id or 0, name, thread id, start, end)
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        #: service timeline marks: (kind, key, time)
        self.marks: list[tuple[str, int, float]] = []
        #: checkpoint file sizes observed after each write
        self.sizes: list[int] = []
        self.backlog_max = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counts: list[dict[str, int]] = []

    # -- per-thread state ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> dict[str, int]:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def counts(self) -> dict[str, int]:
        """Counter totals over every thread that recorded."""
        total: dict[str, int] = {}
        with self._lock:
            for counts in self._thread_counts:
                for key, value in counts.items():
                    total[key] = total.get(key, 0) + value
        return total

    # -- wrappers -------------------------------------------------------------

    def span(self, name: "str | Callable[..., str]", fn: Callable) -> Callable:
        """Wrap ``fn`` so every call records one span.

        ``name`` may be a function of the call's arguments (e.g. a rung's
        regime decides between ``rung.duplication`` and ``rung.sampling``).
        """
        spans, ids = self.spans, self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(*args) if callable(name) else name
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans.append(
                    (sid, parent, label, threading.get_ident(), start, end)
                )

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    def counter(self, key: str, fn: Callable, group: str) -> Callable:
        """Wrap ``fn`` to count its outermost calls within ``group``.

        A method that calls a sibling of the same class (a treap ``move``
        is ``remove`` + ``add``) counts once, as the operation the caller
        asked for — so the counts do not depend on the storage backend.
        """
        local = self._local
        counts_of = self._counts
        flag = "in_" + group

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if getattr(local, flag, False):
                return fn(*args, **kwargs)
            counts = counts_of()
            counts[key] = counts.get(key, 0) + 1
            setattr(local, flag, True)
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(local, flag, False)

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    def tally(self, key: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count every call (no nesting rule)."""
        counts_of = self._counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts = counts_of()
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    def mark(self, kind: str, key: int) -> None:
        self.marks.append((kind, key, now()))


def wrap(owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` (a class or module attribute) by ``make(it)``.

    Shims stay for the life of the process: every traced run is a process
    of its own.
    """
    setattr(owner, attr, make(owner.__dict__[attr]))


def storage_classes() -> tuple[type, type]:
    """The in-index and out-set classes the default structures use.

    Resolved from a live :class:`BalancedOrientation` built with its
    defaults (never from a backend name), so the shims follow whatever
    storage the program's constructors pick.
    """
    from repro.core.balanced import BalancedOrientation

    probe = BalancedOrientation(1, n_hint=4)
    probe.insert_batch([(0, 1)])
    index = next(iter(probe.inx.values()))
    outset = next(iter(probe.out.values()))
    return type(index), type(outset)


def _rung_name(rung: Any, *_: Any) -> str:
    """Duplication-regime rungs vs rungs that run BALANCED(B) on a subgraph
    (coreness sampling, density bucket partition)."""
    return "rung.duplication" if rung.regime == "duplication" else "rung.sampling"


def install_algorithm(rec: Recorder) -> None:
    """Shim the ladders, rungs, balanced orientation, games and storage."""
    from repro.core import balanced, bundles, tokens
    from repro.core.coreness import CorenessDecomposition
    from repro.core.coreness_fixed import FixedHCorenessEstimator
    from repro.core.density import DensityEstimator
    from repro.core.density_fixed import FixedHDensityGuard
    from repro.instrument.work_depth import CostModel

    # resolve storage before any shim exists, so the probe records nothing
    index_cls, outset_cls = storage_classes()
    for method in ("insert_batch", "delete_batch"):
        wrap(CorenessDecomposition, method, lambda f: rec.span("ladder.coreness", f))
        wrap(DensityEstimator, method, lambda f: rec.span("ladder.density", f))
        wrap(FixedHCorenessEstimator, method, lambda f: rec.span(_rung_name, f))
        wrap(FixedHDensityGuard, method, lambda f: rec.span(_rung_name, f))
    for method in ("estimates", "max_estimate"):
        wrap(CorenessDecomposition, method, lambda f: rec.span("ladder.query", f))
    for method in (
        "density_estimate",
        "arboricity_estimate",
        "orientation_out",
        "orientation_of",
        "max_outdegree",
    ):
        wrap(DensityEstimator, method, lambda f: rec.span("ladder.query", f))

    bal = balanced.BalancedOrientation
    for method in ("insert_batch", "insert_multi_batch"):
        wrap(bal, method, lambda f: rec.span("balanced.insert", f))
    for method in ("delete_batch", "delete_multi_batch"):
        wrap(bal, method, lambda f: rec.span("balanced.delete", f))

    # balanced.py imports these at call time, so module attributes take effect
    wrap(tokens, "run_drop_game", lambda f: rec.span("tokens.drop", f))
    wrap(tokens, "run_push_game", lambda f: rec.span("tokens.push", f))
    wrap(bundles, "extract_token_bundle", lambda f: rec.span("bundles.extract", f))
    wrap(
        bundles, "partition_deletion_tokens", lambda f: rec.span("bundles.partition", f)
    )

    for method in INDEX_METHODS:
        if method in index_cls.__dict__:
            key = f"inindex.{method}"
            wrap(index_cls, method, lambda f, k=key: rec.counter(k, f, "storage"))
    for method in OUTSET_METHODS:
        if method in outset_cls.__dict__:
            key = f"outset.{method}"
            wrap(outset_cls, method, lambda f, k=key: rec.counter(k, f, "storage"))
    for method in COST_METHODS:
        wrap(CostModel, method, lambda f: rec.tally("cost.calls", f))


def install_service(rec: Recorder) -> None:
    """Shim the service stages, the WAL writer and the recovery layer."""
    from repro.graphs.tracefile import TraceWriter
    from repro.resilience import guard, recovery
    from repro.service import state
    from repro.service.server import CorenessService

    shard = state.TenantShard
    wrap(shard, "__init__", lambda f: rec.span("service.recover", f))
    wrap(shard, "validate", lambda f: rec.span("service.validate", f))
    wrap(
        shard, "write_checkpoint", lambda f: _checkpoint_shim(rec, f, state.CHECKPOINT_NAME)
    )
    wrap(shard, "accept", lambda f: _accept_shim(rec, f))
    wrap(shard, "apply", lambda f: _apply_shim(rec, f))
    if "_build_snapshot" in shard.__dict__:
        # the snapshot rebuild of a commit; without this hook publish is
        # measured as apply's self time (see service_metrics)
        wrap(shard, "_build_snapshot", lambda f: rec.span("service.publish", f))
    wrap(CorenessService, "_op_query", lambda f: rec.span("service.query", f))
    wrap(TraceWriter, "append", lambda f: rec.span("tracefile.append", f))
    wrap(recovery.RecoveryManager, "apply", lambda f: rec.span("resilience.apply", f))
    captured = rec.span("resilience.capture", guard.capture)
    # recovery.py binds ``capture`` by name; guard.guarded looks it up in guard
    guard.capture = captured
    recovery.capture = captured


def _accept_shim(rec: Recorder, fn: Callable) -> Callable:
    timed = rec.span("service.accept", fn)

    @functools.wraps(fn)
    def accept(shard: Any, op: Any) -> int:
        position = timed(shard, op)
        rec.mark("accepted", position)
        # the server serialises accepts per tenant, and the benchmark runs one
        pending = shard.pending
        if pending > rec.backlog_max:
            rec.backlog_max = pending
        return position

    return accept


def _apply_shim(rec: Recorder, fn: Callable) -> Callable:
    timed = rec.span("service.apply", fn)

    @functools.wraps(fn)
    def apply(shard: Any, op: Any) -> int:
        rec.mark("apply_start", shard.applied + 1)
        return timed(shard, op)

    return apply


def _checkpoint_shim(rec: Recorder, fn: Callable, filename: str) -> Callable:
    timed = rec.span("service.checkpoint", fn)

    @functools.wraps(fn)
    def write_checkpoint(shard: Any) -> None:
        timed(shard)
        rec.sizes.append((shard.directory / filename).stat().st_size)

    return write_checkpoint


# -- aggregation ----------------------------------------------------------------


def self_times(spans: list[tuple[int, int, str, int, float, float]]) -> dict[int, float]:
    """Each span's duration minus the union of the intervals its children
    cover (children clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, _tid, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: dict[int, float] = {}
    for sid, _parent, _name, _tid, start, end in spans:
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sid] = (end - start) - covered
    return out


def layer_totals(
    spans: list[tuple[int, int, str, int, float, float]],
) -> tuple[dict[str, float], dict[str, float], dict[str, int], float]:
    """Per-name inclusive time, self time and call count, plus root time.

    Inclusive time counts a span only when no ancestor has the same name,
    so recursive calls (``arboricity_estimate`` -> ``density_estimate``)
    are not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    inclusive: dict[str, float] = {}
    self_sum: dict[str, float] = {}
    calls: dict[str, int] = {}
    roots = 0.0
    for sid, parent, name, _tid, start, end in spans:
        calls[name] = calls.get(name, 0) + 1
        self_sum[name] = self_sum.get(name, 0.0) + selfs[sid]
        if not parent:
            roots += end - start
        ancestor = parent
        nested = False
        while ancestor:
            up = by_id.get(ancestor)
            if up is None:
                break
            if up[2] == name:
                nested = True
                break
            ancestor = up[1]
        if not nested:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    return inclusive, self_sum, calls, roots


def algorithm_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of the algorithm stack (ladders down to storage).

    ``substrate.moves_per_update`` is left to the caller, which knows how
    many edge updates the run applied.
    """
    inclusive, self_sum, calls, _roots = layer_totals(rec.spans)
    counts = rec.counts()

    def inc(name: str) -> float:
        return inclusive.get(name, 0.0)

    return {
        "tokens.push_s": inc("tokens.push"),
        "tokens.push_calls": calls.get("tokens.push", 0),
        "tokens.drop_s": inc("tokens.drop"),
        "tokens.drop_calls": calls.get("tokens.drop", 0),
        "bundles.extract_s": inc("bundles.extract") + inc("bundles.partition"),
        "bundles.rounds": calls.get("bundles.extract", 0),
        "substrate.inindex_moves": counts.get("inindex.move", 0),
        "substrate.inindex_adds": counts.get("inindex.add", 0),
        "substrate.inindex_removes": counts.get("inindex.remove", 0),
        "substrate.any_at_calls": counts.get("inindex.any_at", 0)
        + counts.get("inindex.any_truncated", 0),
        "substrate.outset_ops": sum(
            v for k, v in counts.items() if k.startswith("outset.")
        ),
        "balanced.insert_s": inc("balanced.insert"),
        "balanced.delete_s": inc("balanced.delete"),
        "balanced.self_s": self_sum.get("balanced.insert", 0.0)
        + self_sum.get("balanced.delete", 0.0),
        "rung.duplication_s": inc("rung.duplication"),
        "rung.sampling_s": inc("rung.sampling"),
        "rung.calls": calls.get("rung.duplication", 0) + calls.get("rung.sampling", 0),
        "ladder.coreness_s": inc("ladder.coreness"),
        "ladder.density_s": inc("ladder.density"),
        "ladder.dispatch_self_s": self_sum.get("ladder.coreness", 0.0)
        + self_sum.get("ladder.density", 0.0),
        "ladder.query_s": inc("ladder.query"),
        "cost.charge_calls": counts.get("cost.calls", 0),
    }


def service_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of the service stages (server side).

    ``service.apply_busy_frac`` is left to the caller, which knows the
    ingest window.
    """
    inclusive, self_sum, calls, _roots = layer_totals(rec.spans)
    accepted: dict[int, float] = {}
    started: dict[int, float] = {}
    for kind, key, t in rec.marks:
        (accepted if kind == "accepted" else started)[key] = t
    waits = [started[k] - accepted[k] for k in accepted if k in started]

    queries = calls.get("service.query", 0)
    return {
        "tracefile.wal_append_s": inclusive.get("tracefile.append", 0.0),
        "service.validate_s": inclusive.get("service.validate", 0.0),
        "service.accept_s": inclusive.get("service.accept", 0.0),
        "service.queue_wait_p50_s": percentile(waits, 50) if waits else 0.0,
        "service.queue_wait_p90_s": percentile(waits, 90) if waits else 0.0,
        "service.backlog_max": rec.backlog_max,
        "service.apply_s": inclusive.get("service.apply", 0.0),
        "service.recover_s": inclusive.get("service.recover", 0.0),
        "service.publish_s": (
            inclusive["service.publish"]
            if "service.publish" in calls
            else self_sum.get("service.apply", 0.0)
        ),
        "service.checkpoint_s": inclusive.get("service.checkpoint", 0.0),
        "service.checkpoint_bytes": sum(rec.sizes),
        "resilience.capture_s": inclusive.get("resilience.capture", 0.0),
        "resilience.apply_self_s": self_sum.get("resilience.apply", 0.0),
        "service.query_server_s": (
            inclusive.get("service.query", 0.0) / queries if queries else 0.0
        ),
    }


def attributed(
    spans: list[tuple[int, int, str, int, float, float]],
    root: Optional[str] = None,
    catch_all: Optional[str] = None,
) -> float:
    """Seconds the named layers account for: the sum of the self times of
    ``spans`` (only those under roots named ``root``, when given).

    A span named ``catch_all`` contributes nothing of its own: its self
    time is whatever no layer beneath it covers, so it counts as
    unattributed.  The caller compares the result with a wall it measured
    outside the shims.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    root_of: dict[int, str] = {}

    def root_name(sid: int) -> str:
        path = []
        while sid not in root_of:
            parent = by_id[sid][1]
            if not parent or parent not in by_id:
                root_of[sid] = by_id[sid][2]
                break
            path.append(sid)
            sid = parent
        for p in path:
            root_of[p] = root_of[sid]
        return root_of[sid]

    total = 0.0
    for sid, _parent, name, _tid, _start, _end in spans:
        if name == catch_all or (root is not None and root_name(sid) != root):
            continue
        total += selfs[sid]
    return total
