"""Tests of the benchmark itself (run: ``python -m pytest perfbench/tests``).

They drive the tiny scale of every workload, so they take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.use_source()

import bands  # noqa: E402
import serve  # noqa: E402
import shims  # noqa: E402
from outcome import Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_PREFIXES = ("cost.work", "cost.depth", "cost.reversals", "cost.charge_calls", "substrate.")
EXACT_NAMES = ("tokens.push_calls", "tokens.drop_calls", "bundles.rounds", "rung.calls")


def _run(workload: str, trace: int, seed: int = 3, seconds: float = 2.0, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable,
            str(Path(cwd) / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
            "--scale",
            "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_prints_every_metric_with_unit_and_samples(workload):
    proc = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        pattern = rf"^\s+{re.escape(m['name'])}\s+\S+\s+(\S+)\s+\(n=(\d+)\)$"
        line = re.search(pattern, proc.stdout, re.M)
        assert line is not None, proc.stdout
        assert line.group(1) == m["unit"] and int(line.group(2)) >= 1
    record = next(x for x in proc.stdout.splitlines() if x.startswith("record "))
    env = json.loads(record[len("record "):])["env"]
    assert env["nproc"] >= 1 and env["python"] and env["calibration_kiter_per_s"] > 0


@pytest.mark.parametrize("workload", ["replay-churn", "serve-mixed"])
def test_exact_counts_repeat_across_runs(workload):
    first, second = _run(workload, trace=1), _run(workload, trace=1)
    assert first.returncode == 0, first.stderr[-2000:]
    assert second.returncode == 0, second.stderr[-2000:]
    a, b = _result(first)["metrics"], _result(second)["metrics"]
    assert sorted(a) == sorted(m["name"] for m in SPEC["per_layer"])
    exact = [k for k in a if k.startswith(EXACT_PREFIXES) or k in EXACT_NAMES]
    assert "cost.work" in exact and "substrate.inindex_moves" in exact
    assert a["cost.work"]["value"] > 0 and a["substrate.inindex_moves"]["value"] > 0
    for key in exact:
        assert a[key]["value"] == b[key]["value"], key


def test_injected_wrong_oracle_answer_counts_as_failed(monkeypatch, tmp_path):
    real = serve.oracle_answers

    def wrong(*args, **kwargs):
        answers, graph = real(*args, **kwargs)
        for epoch in answers[1:]:
            epoch["density"] += 1.0  # the server is right; the oracle now is not
        return answers, graph

    monkeypatch.setattr(serve, "oracle_answers", wrong)
    res = serve.run("serve-mixed", 3, 1.0, False, "tiny", tmp_path)
    assert res.failed > 0 and not res.correct
    assert any("density answer differs" in f for f in res.failures)


def test_band_gate_rejects_an_estimate_outside_the_band():
    from repro.graphs import DynamicGraph, generators

    n, edges = generators.clique(6)
    graph = DynamicGraph(n, edges)  # core 5 everywhere, density 2.5
    good = {"coreness": {str(v): 5.0 for v in range(n)}, "density": 3.0}
    res = Outcome("t")
    bands.check(res, good, graph, n, 0.35)
    assert res.correct, res.failures
    bad = {"coreness": dict(good["coreness"], **{"0": 20.0}), "density": 1.0}
    res = Outcome("t")
    bands.check(res, bad, graph, n, 0.35)
    assert res.failed == 2


def test_self_times_subtract_the_children():
    spans = [
        (1, 0, "root", 1, 0.0, 10.0),
        (2, 1, "a", 1, 1.0, 4.0),
        (3, 2, "b", 1, 2.0, 3.0),
        (4, 1, "a", 1, 5.0, 6.0),
    ]
    selfs = shims.self_times(spans)
    assert selfs == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    inclusive, self_sum, calls, roots = shims.layer_totals(spans)
    assert inclusive["a"] == 4.0 and self_sum["a"] == 3.0 and calls["a"] == 2
    assert roots == 10.0


def test_recorder_is_thread_safe_under_contention():
    rec = shims.Recorder()

    def leaf() -> None:
        pass

    inner = rec.span("inner", leaf)
    outer = rec.span("outer", lambda: inner())
    counted = rec.tally("calls", leaf)
    threads, per_thread = 8, 2000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=lambda: [(outer(), counted()) for _ in range(per_thread)])
            for _ in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old)
    assert rec.counts()["calls"] == threads * per_thread
    assert len(rec.spans) == 2 * threads * per_thread
    by_id = {s[0]: s for s in rec.spans}
    for sid, parent, name, tid, _start, _end in rec.spans:
        if name == "inner":
            assert by_id[parent][2] == "outer" and by_id[parent][3] == tid
        else:
            assert parent == 0
    roots = sum(end - start for _s, parent, _n, _t, start, end in rec.spans if not parent)
    assert abs(shims.attributed(rec.spans) - roots) <= 1e-9 * max(1.0, roots)


def test_attribution_gate_fails_when_the_layers_miss_part_of_the_wall():
    spans = [
        (1, 0, "service.apply", 1, 0.0, 10.0),
        (2, 1, "ladder.coreness", 1, 1.0, 7.0),
        (3, 1, "service.publish", 1, 7.0, 9.5),
        (4, 0, "service.query", 2, 0.0, 3.0),
    ]
    # apply's own 1.5 s is nobody's layer; the query is another lane
    assert shims.attributed(spans, root="service.apply", catch_all="service.apply") == 8.5
    res = Outcome("t")
    res.attribution_check(8.5, 10.0)
    assert not res.correct and res.layers["trace.unattributed_frac"] == 0.15
    res = Outcome("t")
    res.attribution_check(9.9, 10.0)
    assert res.correct


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("replay-grow", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_predictions_cover_every_per_layer_metric():
    table = json.loads((BENCH / "predictions.json").read_text())["predictions"]
    named = {m for row in table for m in row["layer"]}
    assert named == {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for row in table:
        for target in row["moves"]:
            assert target in e2e or target in named, target
        assert set(row["heavy_on"] + row["bypassed_by"]) <= set(WORKLOADS)
