"""Tests for repro artifacts: write/read validation and replay round trips."""

import json

import pytest

from repro.config import Constants
from repro.errors import ParameterError
from repro.graphs import streams
from repro.resilience.chaos import minimize_trial, run_trial
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.verify.artifact import read_artifact, replay_artifact, write_artifact
from repro.verify.differential import RunnerConfig, minimize_diff, run_diff

SMALL = Constants(sample_c=0.5, min_B=4, duplication_cap=8)

DIFF_PANEL = [
    RunnerConfig("serial"),
    RunnerConfig("injected",
                 faults=(("tokens.drop.phase", 2, "raise"),),
                 cost_class=None),
]


class TestFormat:
    def test_read_rejects_non_artifact(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ParameterError):
            read_artifact(p)

    def test_read_rejects_future_version(self, tmp_path):
        p = tmp_path / "future.json"
        p.write_text(json.dumps(
            {"format": "repro-verify-repro", "version": 99, "kind": "diff"}
        ))
        with pytest.raises(ParameterError):
            read_artifact(p)

    def test_diff_artifact_requires_configs(self, tmp_path):
        with pytest.raises(ParameterError):
            write_artifact(tmp_path / "a.json", kind="diff",
                           ops=[], params={})

    def test_chaos_artifact_requires_structure(self, tmp_path):
        with pytest.raises(ParameterError):
            write_artifact(tmp_path / "a.json", kind="chaos",
                           ops=[], params={})

    def test_stream_round_trip(self, tmp_path):
        ops = streams.churn(10, steps=5, batch_size=3, seed=1)
        p = write_artifact(tmp_path / "rt.json", kind="chaos", ops=ops,
                           params={"n": 10}, structure="balanced",
                           faults=(("tokens.drop.phase", 1, "raise"),))
        payload = read_artifact(p)
        assert payload["stream"] == ops
        assert payload["faults"] == [["tokens.drop.phase", 1, "raise"]]


class TestDiffReplay:
    def test_minimized_diff_artifact_reproduces(self, tmp_path):
        ops = streams.churn(16, steps=15, batch_size=5, seed=3)
        report = run_diff(ops, configs=DIFF_PANEL, eps=0.4, constants=SMALL,
                          seed=3, n=16)
        assert not report.ok
        minimal, probe = minimize_diff(ops, report, configs=DIFF_PANEL,
                                       eps=0.4, constants=SMALL, seed=3, n=16)
        p = write_artifact(
            tmp_path / "diff.json", kind="diff", ops=minimal,
            params={"n": 16, "eps": 0.4, "seed": 3, "deep_every": 0},
            configs=probe, constants=SMALL,
            expected={"divergences": [d.render() for d in report.divergences]},
        )
        reproduced, text = replay_artifact(p)
        assert reproduced, text
        assert "RED" in text

    def test_green_panel_artifact_does_not_reproduce(self, tmp_path):
        ops = streams.churn(12, steps=6, batch_size=4, seed=5)
        p = write_artifact(
            tmp_path / "green.json", kind="diff", ops=ops,
            params={"n": 12, "eps": 0.4, "seed": 5},
            configs=[RunnerConfig("serial"), RunnerConfig("telemetry",
                                                          telemetry=True)],
            constants=SMALL,
        )
        reproduced, text = replay_artifact(p)
        assert not reproduced
        assert "GREEN" in text


class TestChaosReplay:
    # with per-batch audits disabled, a silent corruption survives to the
    # final audit — the scenario the chaos minimizer exists for
    PARAMS = dict(n=16, H=4, eps=0.35, audit_every=0, seed=3)
    SPECS = (("tokens.push.settle", 1, "corrupt"),)

    def _ops(self):
        return streams.churn(16, 12, 4, seed=3)

    def test_minimize_trial_and_replay_round_trip(self, tmp_path):
        ops = self._ops()
        injector = FaultInjector(
            [FaultSpec(site=s, hit=h, action=a) for s, h, a in self.SPECS],
            seed=9,
        )
        findings, _manager = run_trial("balanced", ops, injector,
                                       constants=SMALL, **self.PARAMS)
        assert findings, "corruption with audits off must reach the final audit"
        minimal = minimize_trial("balanced", ops, self.SPECS, injector_seed=9,
                                 constants=SMALL, **self.PARAMS)
        assert 1 <= len(minimal) <= 2
        p = write_artifact(
            tmp_path / "chaos.json", kind="chaos", ops=minimal,
            params={"injector_seed": 9, "checkpoint_every": 5,
                    "deep_audit": True, **self.PARAMS},
            structure="balanced", faults=self.SPECS, constants=SMALL,
            expected={"findings": ">= 1"},
        )
        reproduced, text = replay_artifact(p)
        assert reproduced, text
        assert "RED (reproduced)" in text

    def test_chaos_soak_minimize_writes_artifacts(self, tmp_path):
        # drive the soak's own minimize/artifact path with a deterministic
        # failing trial: restrict the site pool so corruption can fire
        from repro.resilience.chaos import chaos_soak

        report = chaos_soak(
            "balanced", trials=3, seed=3, n=16, batches=10, batch_size=4,
            faults_per_trial=2, audit_every=0, constants=SMALL,
            sites=("tokens.push.settle", "tokens.drop.settle"),
            minimize=True, artifact_dir=tmp_path,
        )
        if report.findings:
            assert report.repros, report.render()
            for path in report.repros:
                reproduced, text = replay_artifact(path)
                assert reproduced, text
        else:  # every corruption was masked on these seeds; soak stayed green
            assert not report.repros
