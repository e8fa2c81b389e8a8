"""Batch guard: capture/rollback give strong exception safety."""

import pytest

from repro.core.balanced import BalancedOrientation
from repro.core.coreness import CorenessDecomposition
from repro.core.density import DensityEstimator
from repro.errors import FaultInjected, ParameterError
from repro.resilience.faults import FaultInjector, FaultSpec, injecting
from repro.resilience.guard import capture, guarded, rollback

EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3), (3, 4), (2, 4)]


def _populated(cls):
    if cls is BalancedOrientation:
        st = BalancedOrientation(3)
    else:
        st = cls(12, eps=0.35, seed=2)
    st.insert_batch(EDGES[:5])
    st.delete_batch(EDGES[1:3])
    return st


@pytest.mark.parametrize(
    "cls", [BalancedOrientation, CorenessDecomposition, DensityEstimator]
)
class TestRollback:
    def test_rollback_restores_logical_state(self, cls):
        st = _populated(cls)
        snap = capture(st)
        st.insert_batch(EDGES[5:])
        rollback(st, snap)
        assert capture(st) == snap
        st.check_invariants()

    def test_guarded_rolls_back_and_reraises(self, cls):
        st = _populated(cls)
        snap = capture(st)
        inj = FaultInjector([FaultSpec("tokens.drop.phase", hit=1)])
        with injecting(inj):
            with pytest.raises(FaultInjected):
                with guarded(st):
                    st.insert_batch(EDGES[5:])
        assert capture(st) == snap
        st.check_invariants()
        assert st.cm.counters.get("guard_rollbacks") == 1

    def test_updates_continue_after_rollback(self, cls):
        st = _populated(cls)
        snap = capture(st)
        try:
            with guarded(st):
                st.insert_batch(EDGES[5:])
                raise RuntimeError("mid-batch crash")
        except RuntimeError:
            pass
        assert capture(st) == snap
        st.insert_batch(EDGES[5:])  # the retry
        st.check_invariants()
        clean = _populated(cls)
        clean.insert_batch(EDGES[5:])
        assert capture(st) == capture(clean)


def test_capture_rejects_unknown_objects():
    with pytest.raises(ParameterError, match="cannot capture"):
        capture(object())


def test_guarded_passes_through_on_success():
    st = BalancedOrientation(3)
    with guarded(st):
        st.insert_batch(EDGES[:4])
    st.check_invariants()
    assert "guard_rollbacks" not in st.cm.counters
