"""Telemetry must not perturb the cost model — armed == disarmed, bitwise.

The acceptance property of the whole subsystem: replaying the same
update stream with a tracer armed produces *exactly* the same work,
depth, and counter values as a disarmed replay, while the phase tree
accounts for every unit of that work (per-phase self work sums to the
cost model's total).  Exercised end to end through the real structures,
including a fault-injected recovery path.
"""

from repro.core.balanced import BalancedOrientation
from repro.core.coreness import CorenessDecomposition
from repro.graphs import generators as gen, streams
from repro.instrument import trace
from repro.instrument.telemetry import Tracer
from repro.instrument.work_depth import CostModel
from repro.resilience.faults import FaultInjector, FaultSpec, injecting
from repro.resilience.recovery import RecoveryManager


def replay_ops(structure, ops):
    for op in ops:
        if op.kind == "insert":
            structure.insert_batch(op.edges)
        else:
            structure.delete_batch(op.edges)


def cost_view(cm):
    return (cm.work, cm.depth, dict(cm.counters))


class TestBitIdentity:
    def run_coreness(self, armed):
        cm = CostModel()
        cd = CorenessDecomposition(32, eps=0.5, cm=cm, seed=4)
        ops = streams.churn(32, steps=10, batch_size=8, seed=11)
        if armed:
            tracer = Tracer(cm)
            with trace.tracing(tracer):
                replay_ops(cd, ops)
            return cm, tracer
        replay_ops(cd, ops)
        return cm, None

    def test_coreness_ladder_armed_equals_disarmed(self):
        cm_armed, tracer = self.run_coreness(armed=True)
        cm_bare, _ = self.run_coreness(armed=False)
        assert cost_view(cm_armed) == cost_view(cm_bare)
        assert tracer.frame_mismatches == 0

    def test_phase_tree_sums_to_total(self):
        cm, tracer = self.run_coreness(armed=True)
        assert tracer.root.work == cm.work
        assert tracer.root.total_self_work() == tracer.root.work

    def test_balanced_armed_equals_disarmed(self):
        def run(armed):
            _, edges = gen.erdos_renyi(40, 160, seed=9)
            cm = CostModel()
            st = BalancedOrientation(H=4, cm=cm)
            ops = list(streams.insert_then_delete(edges, 24, seed=9))
            if armed:
                with trace.tracing(Tracer(cm)):
                    replay_ops(st, ops)
            else:
                replay_ops(st, ops)
            return cm

        assert cost_view(run(True)) == cost_view(run(False))


class TestRecoveryUnderTracing:
    OPS = streams.churn(20, steps=12, batch_size=5, seed=13)

    def run_recovery(self, armed):
        cm = CostModel()
        st = BalancedOrientation(4, cm=cm)
        mgr = RecoveryManager(st, checkpoint_every=5)
        inj = FaultInjector([FaultSpec("tokens.drop.phase", hit=2)])
        events = []
        outcomes = []
        work_at_arm = cm.work  # manager construction charges pre-arming work
        if armed:
            tracer = Tracer(cm, sinks=[events.append])
            with trace.tracing(tracer):
                with injecting(inj):
                    outcomes = [mgr.apply(op) for op in self.OPS]
        else:
            tracer = None
            with injecting(inj):
                outcomes = [mgr.apply(op) for op in self.OPS]
        return cm, mgr, tracer, events, outcomes, work_at_arm

    def test_guarded_rollback_mid_phase_keeps_tracer_consistent(self):
        cm, mgr, tracer, events, outcomes, work_at_arm = self.run_recovery(armed=True)
        assert "rollback" in outcomes
        assert tracer.open_spans == 0
        # the root holds exactly the since-arming delta (audit() would
        # charge further, so compare before calling it)
        assert tracer.root.work == cm.work - work_at_arm
        assert tracer.root.total_self_work() == tracer.root.work
        assert mgr.audit().ok
        names = {e["name"] for e in events}
        assert "recovery.escalate" in names
        assert "recovery.outcome" in names
        escalations = [e for e in events if e["name"] == "recovery.escalate"]
        assert any(e["tier"] == "rollback" for e in escalations)

    def test_recovery_outcomes_unchanged_by_tracing(self):
        armed_outcomes = self.run_recovery(armed=True)[4]
        bare_outcomes = self.run_recovery(armed=False)[4]
        assert armed_outcomes == bare_outcomes

    def test_recovery_cost_unchanged_by_tracing(self):
        cm_armed = self.run_recovery(armed=True)[0]
        cm_bare = self.run_recovery(armed=False)[0]
        assert cost_view(cm_armed) == cost_view(cm_bare)
