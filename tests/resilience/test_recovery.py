"""Tiered recovery: rollback, checkpoint replay, rebuild."""

import pytest

from repro.core.balanced import BalancedOrientation
from repro.core.coreness import CorenessDecomposition
from repro.errors import BatchError, RecoveryError
from repro.graphs.streams import BatchOp, churn
from repro.resilience.faults import FaultInjector, FaultSpec, injecting
from repro.resilience.recovery import RecoveryManager

OPS = churn(20, 24, 5, seed=13)


def _manager(structure="balanced", **kwargs):
    if structure == "balanced":
        st = BalancedOrientation(4)
    else:
        st = CorenessDecomposition(20, eps=0.35, seed=2)
    kwargs.setdefault("checkpoint_every", 5)
    return RecoveryManager(st, **kwargs)


class TestCleanPath:
    def test_all_ok_without_faults(self):
        mgr = _manager()
        assert [mgr.apply(op) for op in OPS] == ["ok"] * len(OPS)
        assert mgr.audit().ok
        assert mgr.stats.counts == {"ok": len(OPS)}
        assert mgr.stats.recoveries == 0

    def test_invalid_batch_raises_without_touching_state(self):
        mgr = _manager()
        mgr.apply(BatchOp("insert", ((0, 1), (1, 2))))
        before = set(mgr.graph.edges)
        with pytest.raises(BatchError):
            mgr.apply(BatchOp("insert", ((0, 1),)))  # already live
        with pytest.raises(BatchError):
            mgr.apply(BatchOp("delete", ((5, 6),)))  # absent
        assert mgr.graph.edges == before
        assert mgr.audit().ok


class TestTiers:
    def test_raise_fault_resolved_by_rollback(self):
        mgr = _manager()
        inj = FaultInjector([FaultSpec("tokens.drop.phase", hit=2)])
        with injecting(inj):
            outcomes = [mgr.apply(op) for op in OPS]
        assert outcomes.count("rollback") == 1
        assert inj.fired
        assert mgr.audit().ok

    def test_corruption_resolved_by_checkpoint_replay(self):
        mgr = _manager()
        inj = FaultInjector(
            [FaultSpec("tokens.drop.settle", hit=3, action="corrupt")], seed=5
        )
        with injecting(inj):
            outcomes = [mgr.apply(op) for op in OPS]
        assert inj.fired
        assert set(outcomes) <= {"ok", "checkpoint", "rebuild"}
        assert outcomes.count("ok") < len(OPS)
        assert mgr.audit().ok
        assert mgr.cm.counters.get("recovery_tier2_replays", 0) >= 1

    def test_fault_burst_escalates_to_rebuild(self):
        mgr = _manager()
        specs = [
            FaultSpec("tokens.drop.phase", hit=h) for h in range(3, 9)
        ]
        with injecting(FaultInjector(specs)):
            outcomes = [mgr.apply(op) for op in OPS]
        assert "rebuild" in outcomes
        assert mgr.audit().ok
        assert mgr.cm.counters.get("recovery_rebuild_attempts", 0) >= 1

    def test_ladder_recovers_too(self):
        mgr = _manager("coreness")
        specs = [FaultSpec("tokens.drop.phase", hit=h) for h in range(4, 10)]
        with injecting(FaultInjector(specs)):
            outcomes = [mgr.apply(op) for op in OPS]
        assert set(outcomes) > {"ok"}
        assert mgr.audit().ok
        mgr.structure.check_invariants()

    def test_unbounded_burst_raises_recovery_error(self):
        mgr = _manager(max_recovery_rounds=2, max_rebuild_attempts=1)
        # every traversal of the site faults: recovery can never finish
        specs = [FaultSpec("tokens.drop.phase", hit=h) for h in range(1, 400)]
        with injecting(FaultInjector(specs)):
            with pytest.raises(RecoveryError):
                for op in OPS:
                    mgr.apply(op)


class TestBoundedHistory:
    """``bounded_history=True`` trims the committed prefix at checkpoints."""

    def test_history_stays_window_sized(self):
        mgr = _manager(bounded_history=True, checkpoint_every=5)
        for op in OPS:
            mgr.apply(op)
            assert len(mgr.history) < 2 * 5
        assert mgr.applied == len(OPS)
        assert len(mgr.history) < len(OPS)
        assert mgr.audit().ok

    def test_answers_match_unbounded(self):
        bounded = _manager(bounded_history=True)
        full = _manager()
        for op in OPS:
            bounded.apply(op)
            full.apply(op)
        assert bounded.graph.edges == full.graph.edges
        b, f = bounded.structure, full.structure
        assert set(b.tail_of) == set(f.tail_of)

    def test_recovery_tiers_still_work_after_trim(self):
        mgr = _manager(bounded_history=True, checkpoint_every=3)
        inj = FaultInjector(
            [
                FaultSpec("tokens.drop.phase", hit=2),
                FaultSpec("tokens.drop.settle", hit=2, action="corrupt"),
            ],
            seed=7,
        )
        with injecting(inj):
            outcomes = [mgr.apply(op) for op in OPS]
        assert len(inj.fired) == 2
        assert set(outcomes) > {"ok"}
        assert mgr.audit().ok
