"""Tests for the serial / process execution backends.

The load-bearing guarantee is the delta-merge contract
(docs/PERFORMANCE.md): running a ladder sweep through
``ProcessExecutor.run_structures`` must leave the coordinator's cost
model, counters, and armed phase tree bit-identical to
``SerialExecutor`` — workers account against a fresh model and the
coordinator replays the delta as one charge per branch.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Constants
from repro.core.coreness import CorenessDecomposition
from repro.core.density import DensityEstimator
from repro.instrument import trace as _trace
from repro.instrument.telemetry import SpanNode, Tracer, merge_span_children
from repro.instrument.work_depth import CostModel
from repro.pram import ProcessExecutor, SerialExecutor, WorkerDelta
from repro.pram.executor import dump_structure, load_structure, merge_delta

SMALL = Constants(sample_c=0.5, min_B=4, duplication_cap=8)


def _square(x):
    return x * x


class TestSerial:
    def test_maps_in_order(self):
        assert SerialExecutor().map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_empty(self):
        assert SerialExecutor().map(_square, []) == []


class TestProcess:
    def test_single_worker_falls_back_to_serial(self):
        ex = ProcessExecutor(max_workers=1)
        assert ex.map(_square, [2, 3]) == [4, 9]

    def test_single_item_avoids_pool(self):
        ex = ProcessExecutor(max_workers=4)
        assert ex.map(_square, [5]) == [25]

    def test_pool_path(self):
        # Runs the real pool on a picklable function (cheap items).
        with ProcessExecutor(max_workers=2) as ex:
            assert ex.map(_square, [1, 2, 3, 4]) == [1, 4, 9, 16]

    def test_default_worker_count_positive(self):
        assert ProcessExecutor().max_workers >= 1

    def test_pickle_drops_pool_handle(self):
        import pickle

        ex = ProcessExecutor(max_workers=3)
        ex._ensure_pool()
        try:
            clone = pickle.loads(pickle.dumps(ex))
            assert clone.max_workers == 3
            assert clone._pool is None
        finally:
            ex.close()


# -- structure pickling (cost-model factoring) --------------------------------


class TestStructurePickle:
    def test_round_trip_rebinds_cost_model(self):
        cm = CostModel()
        st_ = CorenessDecomposition(24, eps=0.35, cm=cm, constants=SMALL)
        st_.insert_batch([(0, 1), (1, 2), (2, 3)])
        blob = dump_structure(st_.rungs[0])
        other = CostModel()
        loaded = load_structure(blob, other)
        assert loaded.cm is other
        inner = loaded.dup.inner if loaded.dup is not None else loaded.bal
        assert inner.cm is other
        # and the logical state survived
        assert loaded.estimate(1) == st_.rungs[0].estimate(1)

    def test_round_trip_is_replay_identical(self):
        """A round-tripped replica takes the same trajectory as the original.

        This is the determinism property the process backend rests on: all
        internal choice points (out-set order, in-index picks) are pure
        functions of the logical state, never of container history.
        """
        def build():
            cm = CostModel()
            return cm, DensityEstimator(20, eps=0.35, cm=cm, constants=SMALL)

        cm_a, a = build()
        cm_b, b = build()
        edges = [(i, (i + 1) % 12) for i in range(12)] + [(0, i) for i in range(2, 9)]
        a.insert_batch(edges)
        b.insert_batch(edges)
        b = load_structure(dump_structure(b), cm_b)  # round-trip mid-stream
        more = [(1, i) for i in range(3, 10)]
        a.insert_batch(more)
        b.insert_batch(more)
        a.delete_batch(edges[:6])
        b.delete_batch(edges[:6])
        assert (cm_a.work, cm_a.depth, dict(cm_a.counters)) == (
            cm_b.work,
            cm_b.depth,
            dict(cm_b.counters),
        )
        assert a.density_estimate() == b.density_estimate()


# -- delta merging ------------------------------------------------------------


class TestDeltaMerge:
    def test_merge_span_children_sums_same_keyed_nodes(self):
        dst = SpanNode("ladder.rung", (("H", 2),))
        existing = dst.child("balanced.insert", ())
        existing.count, existing.work, existing.depth = 1, 10, 4

        src = SpanNode("run")
        child = src.child("balanced.insert", ())
        child.count, child.work, child.depth = 2, 7, 3
        grand = child.child("game.drop", ())
        grand.count, grand.work = 1, 5

        merge_span_children(dst, src)
        merged = dst.child("balanced.insert", ())
        assert (merged.count, merged.work, merged.depth) == (3, 17, 7)
        assert dst.child("balanced.insert", ()).child("game.drop", ()).work == 5
        # src's own root totals are NOT merged (coordinator charges those)
        assert dst.work == 0

    def test_merge_delta_without_tracer(self):
        cm = CostModel()
        delta = WorkerDelta(work=11, depth=5, counters={"b": 2, "a": 3})
        with cm.parallel() as region:
            with region.branch():
                merge_delta(cm, delta)
        assert cm.work == 11
        assert cm.depth == 5
        assert cm.counters["a"] == 3 and cm.counters["b"] == 2

    def test_merge_delta_reemits_events_with_coordinator_path(self):
        cm = CostModel()
        events: list[dict] = []
        tracer = Tracer(cm, sinks=[events.append])
        delta = WorkerDelta(
            work=1,
            depth=1,
            tree=SpanNode("run"),
            events=[{"type": "event", "name": "x", "path": ["balanced.insert"]}],
        )
        with _trace.tracing(tracer):
            with _trace.span("batch"):
                with cm.parallel() as region:
                    with region.branch():
                        merge_delta(cm, delta)
        reemitted = [ev for ev in events if ev.get("name") == "x"]
        assert len(reemitted) == 1
        assert reemitted[0]["path"] == ["batch", "balanced.insert"]


# -- serial vs process equivalence on the real ladders ------------------------


def _mixed_batches(n: int, steps: int, seed: int) -> list[tuple[str, list]]:
    """A deterministic mixed insert/delete schedule on ``n`` vertices."""
    rng = random.Random(seed)
    live: set[tuple[int, int]] = set()
    batches: list[tuple[str, list]] = []
    for step in range(steps):
        if live and rng.random() < 0.4:
            k = rng.randint(1, min(6, len(live)))
            dele = rng.sample(sorted(live), k)
            live.difference_update(dele)
            batches.append(("delete_batch", dele))
        else:
            fresh = []
            for _ in range(rng.randint(1, 8)):
                u, v = rng.sample(range(n), 2)
                e = (min(u, v), max(u, v))
                if e not in live and e not in fresh:
                    fresh.append(e)
            if fresh:
                live.update(fresh)
                batches.append(("insert_batch", fresh))
    return batches


def _drive(executor, batches, n=18, rung_skip=False, armed=False):
    """Replay ``batches`` through both ladders; return the full observable."""
    cm = CostModel()
    core = CorenessDecomposition(
        n, eps=0.35, cm=cm, constants=SMALL, executor=executor, rung_skip=rung_skip
    )
    dens = DensityEstimator(
        n, eps=0.35, cm=cm, constants=SMALL, executor=executor, rung_skip=rung_skip
    )
    tracer = Tracer(cm) if armed else None

    def replay():
        for method, edges in batches:
            for st_ in (core, dens):
                getattr(st_, method)(edges)

    if tracer is not None:
        with _trace.tracing(tracer):
            with _trace.span("batch"):
                replay()
    else:
        replay()
    tree = None
    if tracer is not None:
        # The pram.map span advertises its backend as an attribute; that is
        # the ONE intended difference between the two trees, so normalise it.
        def norm(label: str) -> str:
            return label.replace("backend=process", "backend=*").replace(
                "backend=serial", "backend=*"
            )

        tree = [
            (tuple(norm(p) for p in path), node.count, node.work, node.depth)
            for path, node in tracer.root.walk()
        ]
        assert tracer.frame_mismatches == 0
    return {
        "view": (cm.work, cm.depth, dict(cm.counters)),
        "estimates": core.estimates(),
        "max": core.max_estimate(),
        "density": dens.density_estimate(),
        "maxout": dens.max_outdegree(),
        "tree": tree,
    }


class TestSerialProcessEquivalence:
    def test_disarmed_fallback(self):
        batches = _mixed_batches(18, 12, seed=5)
        serial = _drive(SerialExecutor(), batches)
        proc = _drive(ProcessExecutor(max_workers=1), batches)
        assert serial == proc

    def test_armed_fallback_trees_match(self):
        batches = _mixed_batches(18, 10, seed=7)
        serial = _drive(SerialExecutor(), batches, armed=True)
        proc = _drive(ProcessExecutor(max_workers=1), batches, armed=True)
        assert serial == proc
        assert serial["tree"] is not None

    def test_real_pool_armed(self):
        batches = _mixed_batches(14, 5, seed=11)
        serial = _drive(SerialExecutor(), batches, armed=True)
        with ProcessExecutor(max_workers=2) as ex:
            proc = _drive(ex, batches, armed=True)
        assert serial == proc

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_equivalence_property(self, seed):
        """Property: same results, work/depth totals, and counters, for any
        mixed schedule (in-process round-trip fallback keeps it fast)."""
        batches = _mixed_batches(16, 8, seed=seed)
        serial = _drive(SerialExecutor(), batches)
        proc = _drive(ProcessExecutor(max_workers=1), batches)
        assert serial == proc


class TestFaultTolerance:
    """Dead/hung workers degrade gracefully — and never change answers."""

    def test_forced_timeout_degrades_to_inline_with_identical_answers(self):
        from repro.instrument.telemetry import REGISTRY

        batches = _mixed_batches(14, 5, seed=3)
        serial = _drive(SerialExecutor(), batches)
        REGISTRY.clear()
        # an unmeetable per-task timeout makes every pooled round "hang":
        # bounded retries, then in-process execution of the same payloads
        with ProcessExecutor(max_workers=2, task_timeout=1e-9, task_retries=1) as ex:
            degraded = _drive(ex, batches)
        assert degraded == serial
        assert REGISTRY.counter("repro_executor_degraded_total").value > 0
        assert REGISTRY.counter("repro_executor_retries_total").value > 0

    def test_healthy_pool_publishes_no_fault_metrics(self):
        from repro.instrument.telemetry import REGISTRY

        batches = _mixed_batches(14, 4, seed=9)
        REGISTRY.clear()
        with ProcessExecutor(max_workers=2) as ex:
            _drive(ex, batches)
        assert REGISTRY.counter("repro_executor_degraded_total").value == 0
        assert REGISTRY.counter("repro_executor_retries_total").value == 0

    def test_task_bug_propagates_without_retry(self):
        from repro.instrument.telemetry import REGISTRY
        from repro.pram.executor import RungTask

        REGISTRY.clear()
        cm = CostModel()
        task = RungTask(structure=CorenessDecomposition(
            8, eps=0.35, cm=cm, constants=SMALL), method="no_such_method")
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(AttributeError):
                ex.run_structures(cm, [task, task])
        assert REGISTRY.counter("repro_executor_retries_total").value == 0

    def test_retries_are_bounded(self):
        from repro.instrument.telemetry import REGISTRY
        from repro.resilience.faults import FaultInjector, FaultSpec, injecting

        REGISTRY.clear()
        batches = _mixed_batches(12, 2, seed=1)
        # every fresh pool worker inherits the armed plan and dies on its
        # first task, so no pooled attempt can succeed; the coordinator
        # itself never traverses the site, so the inline degrade runs clean
        crash = FaultInjector([FaultSpec("pram.worker", hit=1, action="raise")])
        with injecting(crash):
            with ProcessExecutor(max_workers=2, task_retries=3) as ex:
                _drive(ex, batches)
        assert crash.pending  # the coordinator's copy never fired
        retries = REGISTRY.counter("repro_executor_retries_total").value
        degraded = REGISTRY.counter("repro_executor_degraded_total").value
        assert degraded > 0
        # every degraded task fails in exactly (task_retries + 1) pooled
        # rounds before running inline
        assert retries == (3 + 1) * degraded

    def test_timeout_survives_pickle_roundtrip(self):
        import pickle

        ex = ProcessExecutor(max_workers=3, task_timeout=7.5, task_retries=4)
        clone = pickle.loads(pickle.dumps(ex))
        assert (clone.max_workers, clone.task_timeout, clone.task_retries) == (
            3, 7.5, 4,
        )
