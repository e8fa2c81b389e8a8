"""Tests for the differential replay harness (repro verify diff)."""

import pytest

from repro.config import Constants
from repro.errors import ParameterError
from repro.graphs import streams
from repro.verify.differential import (
    RunnerConfig,
    configs_by_name,
    default_configs,
    minimize_diff,
    run_diff,
)

SMALL = Constants(sample_c=0.5, min_B=4, duplication_cap=8)


class TestRunnerConfig:
    def test_dict_round_trip(self):
        for cfg in default_configs():
            assert RunnerConfig.from_dict(cfg.to_dict()) == cfg
        # a config as artifacts recorded it while the process and
        # shared-memory backends existed: the retired keys are ignored
        recorded = {
            "name": "shm-2", "workers": 2, "rung_skip": False,
            "telemetry": False, "recovery": False, "faults": [],
            "cost_class": "exact", "shared_state": True,
        }
        assert RunnerConfig.from_dict(recorded) == RunnerConfig("shm-2")
        # ... and while rung-skip filtering existed
        recorded = {
            "name": "rung-skip", "rung_skip": True, "telemetry": False,
            "recovery": False, "faults": [], "cost_class": None,
        }
        assert RunnerConfig.from_dict(recorded) == RunnerConfig(
            "rung-skip", cost_class=None
        )

    def test_round_trip_preserves_none_cost_class(self):
        cfg = RunnerConfig("x", faults=(("tokens.drop.phase", 2, "raise"),),
                           cost_class=None)
        back = RunnerConfig.from_dict(cfg.to_dict())
        assert back.cost_class is None
        assert back.faults == cfg.faults

    def test_configs_by_name_selects_in_order(self):
        panel = configs_by_name(["chaos-recovered", "serial"])
        assert [c.name for c in panel] == ["chaos-recovered", "serial"]

    def test_configs_by_name_rejects_unknown(self):
        with pytest.raises(ParameterError):
            configs_by_name(["serial", "warp-drive"])


class TestRunDiff:
    def test_green_across_serial_telemetry(self):
        ops = streams.churn(16, steps=12, batch_size=4, seed=2)
        panel = configs_by_name(["serial", "telemetry"])
        report = run_diff(ops, configs=panel, eps=0.4, constants=SMALL,
                          seed=2, n=16, deep_every=6)
        assert report.ok, report.render()
        assert report.batches == len(ops)
        # telemetry shares the exact cost class: bit-identical totals
        assert report.cost_totals["telemetry"] == report.cost_totals["serial"]

    def test_chaos_recovered_matches_baseline_answers(self):
        ops = streams.churn(14, steps=10, batch_size=4, seed=6)
        panel = configs_by_name(["serial", "chaos-recovered"])
        report = run_diff(ops, configs=panel, eps=0.4, constants=SMALL,
                          seed=6, n=14)
        assert report.ok, report.render()

    def test_unrecovered_fault_is_a_divergence(self):
        ops = streams.churn(16, steps=10, batch_size=4, seed=3)
        panel = [
            RunnerConfig("serial"),
            RunnerConfig("injected",
                         faults=(("tokens.drop.phase", 2, "raise"),),
                         cost_class=None),
        ]
        report = run_diff(ops, configs=panel, eps=0.4, constants=SMALL,
                          seed=3, n=16)
        assert not report.ok
        assert report.implicated == {"injected"}
        assert any(d.observable == "exception" for d in report.divergences)
        # one report per dead config, not one per remaining batch
        assert len([d for d in report.divergences if d.config == "injected"]) == 1

    def test_empty_panel_rejected(self):
        with pytest.raises(ParameterError):
            run_diff([], configs=[])


class TestMinimizeDiff:
    def test_injected_fault_shrinks_to_tiny_repro(self):
        ops = streams.churn(16, steps=20, batch_size=5, seed=3)
        panel = [
            RunnerConfig("serial"),
            RunnerConfig("injected",
                         faults=(("tokens.drop.phase", 2, "raise"),),
                         cost_class=None),
        ]
        report = run_diff(ops, configs=panel, eps=0.4, constants=SMALL,
                          seed=3, n=16)
        assert not report.ok
        minimal, probe = minimize_diff(ops, report, configs=panel, eps=0.4,
                                       constants=SMALL, seed=3, n=16)
        # the ISSUE acceptance bound: the fault needs at most two batches
        assert 1 <= len(minimal) <= 2
        assert [c.name for c in probe] == ["serial", "injected"]
        # the shrunk stream still fails under the probe panel at the same n
        replay = run_diff(minimal, configs=probe, eps=0.4, constants=SMALL,
                          seed=3, n=16)
        assert not replay.ok
