"""The replay workloads (``replay-grow``, ``replay-churn``), parent side.

A run writes the workload's traces, then replays each in a fresh worker
process (:mod:`replay_worker`), cycle after cycle while another cycle
still fits in ``--seconds``.  A trace's first replay must sit inside the Thm 1.1 /
Thm 1.2 bands of the exact oracles; every later replay of it must repeat
the first's answers, work, depth and counters exactly.  The traced
variant replays the first trace three times — plain, on a
``NullCostModel``, and shimmed — and checks them against each other.

Times are calibrated: each batch and each read round is bracketed by a
~2 ms run of the fixed calibration loop in the same thread, and its wall
is scaled to ``REFERENCE_KITER_PER_S``; set-up is scaled by probes the
worker runs when it starts and when it is ready.  On a shared 2-vCPU
virtual machine a vCPU's speed changes by up to 2x within seconds; raw
walls there spread 15-30% between identical runs, calibrated ones a few
percent.  Raw throughput is kept in the run record.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import bands
import inputs
from common import (
    BENCH_DIR,
    REFERENCE_KITER_PER_S,
    child_env,
    median,
    now,
    percentile,
    read_json,
    read_line,
)
from outcome import Outcome

#: at least this many set-up samples per run (extra set-up-only spawns).
SETUP_SAMPLES = 9
#: seconds a worker may take to get ready, and then to finish its replay.
ROUND_TIMEOUT = 60.0


@dataclass(frozen=True)
class Trace:
    """One trace file, its final graph, and the reader mix's vertices."""

    path: Path
    graph: object
    mix: tuple[str, ...]  # the worker's --subset/--oriented flags


def _spawn(trace: Trace, out: Path, *flags: str) -> tuple[float, dict | None, str]:
    """Run one worker; returns (calibrated set-up seconds, result or None, stderr).

    Set-up runs from the spawn to the worker's ``READY`` line, which
    carries the calibration cost the worker measured when it started and
    when it got ready.
    """
    cmd = [
        sys.executable,
        str(BENCH_DIR / "replay_worker.py"),
        "--trace",
        str(trace.path),
        "--out",
        str(out),
        *trace.mix,
        *flags,
    ]
    err_path = out.with_suffix(".err")
    with open(err_path, "w") as err:
        t0 = now()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), text=True
        )
        try:
            line = read_line(proc, ROUND_TIMEOUT)
            setup = now() - t0
            code = proc.wait(timeout=ROUND_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    message = err_path.read_text()[-2000:]
    fields = line.split()
    if fields[:1] != ["READY"] or len(fields) != 3 or code != 0:
        return setup, None, message or f"worker exited with {code}"
    setup *= 2.0 / REFERENCE_KITER_PER_S / (float(fields[1]) + float(fields[2]))
    if "--setup-only" in flags:
        return setup, {}, message
    return setup, read_json(out), message


def _final_graph(ops: list):
    from repro.graphs import DynamicGraph, streams

    graph = DynamicGraph(0)
    streams.replay(ops, graph)
    return graph


def _csv(vertices: list[int]) -> str:
    return ",".join(str(v) for v in vertices)


def _busy(result: dict) -> float:
    """Calibrated seconds spent in batches and reads (no calibration probes)."""
    return sum(result["batch_cal"]) + sum(result["query_cal"])


def _same_run(a: dict, b: dict) -> bool:
    return all(a[k] == b[k] for k in ("answers", "work", "depth", "counters"))


def run(workload: str, seed: int, seconds: float, traced: bool, scale: str, work: Path) -> Outcome:
    from repro.graphs.tracefile import write_trace

    traces = []
    for j, ops in enumerate(inputs.replay_traces(workload, seed, scale)):
        path = work / f"trace{j}.txt"
        write_trace(ops, path)
        subset, oriented = inputs.query_vertices(ops, seed, scale)
        mix = ("--subset", _csv(subset), "--oriented", _csv(oriented))
        traces.append(Trace(path, _final_graph(ops), mix))
    res = Outcome(workload)
    if traced:
        _traced(res, traces[0], work)
    else:
        _measured(res, traces, work, seconds)
    return res


def _check_round(res: Outcome, result: dict | None, err: str, graph, first: dict | None) -> bool:
    """Count one round's operations and failures; True when usable.

    The first replay of a trace is checked against the exact oracles;
    every later replay of it must repeat the first exactly.
    """
    if result is None:
        res.attempt(1)
        res.fail(f"replay worker failed: {err.strip()[-400:]}")
        return False
    res.attempt(result["batches"] + len(result["query_walls"]))
    if first is None:
        bands.check(res, result["answers"], graph, result["n"], result["eps"])
    else:
        res.attempt(1)
        if not _same_run(first, result):
            res.fail("a replay disagreed with the first replay of its trace")
    return True


def _measured(res: Outcome, traces: list, work: Path, seconds: float) -> None:
    """Replay every trace once per cycle, for as many cycles as fit."""
    setups: list[float] = []
    rates: list[float] = []
    batch_ms: list[float] = []
    query_ms: list[float] = []
    raw_rates: list[float] = []
    firsts: list = [None] * len(traces)
    start = now()
    cycles = 0
    # another cycle only if it should end within ``seconds`` (the first
    # always runs), so a run lasts about ``seconds`` at any program speed
    while cycles == 0 or (now() - start) * (cycles + 1) / cycles <= seconds:
        cycles += 1
        for j, trace in enumerate(traces):
            setup, result, err = _spawn(trace, work / f"replay{j}.json")
            if not _check_round(res, result, err, trace.graph, firsts[j]):
                return
            firsts[j] = firsts[j] or result
            setups.append(setup)
            rates.append(result["updates"] / sum(result["batch_cal"]))
            raw_rates.append(result["updates"] / sum(result["batch_walls"]))
            batch_ms += [1e3 * w for w in result["batch_cal"]]
            query_ms += [1e3 * w for w in result["query_cal"]]
    while len(setups) < SETUP_SAMPLES:
        setup, result, err = _spawn(traces[0], work / "setup.json", "--setup-only")
        if result is None:
            res.attempt(1)
            res.fail(f"set-up probe failed: {err.strip()[-400:]}")
            return
        setups.append(setup)
    res.note("cycles", cycles)
    res.note("raw_updates_per_s", median(raw_rates))
    res.layers["reads.query_p50_ms"] = percentile(query_ms, 50)
    res.layers["reads.query_p99_ms"] = percentile(query_ms, 99)
    res.metric("updates_per_s", median(rates), "1/s", len(rates))
    res.metric("batch_p50_ms", percentile(batch_ms, 50), "ms", len(batch_ms))
    res.metric("batch_p90_ms", percentile(batch_ms, 90), "ms", len(batch_ms))
    res.metric("setup_s", median(setups), "s", len(setups))


def _traced(res: Outcome, trace: Trace, work: Path) -> None:
    _s, plain, err = _spawn(trace, work / "plain.json")
    if not _check_round(res, plain, err, trace.graph, None):
        return
    _s, null, err = _spawn(trace, work / "null.json", "--cost", "null")
    if null is None:
        res.attempt(1)
        res.fail(f"NullCostModel replay failed: {err.strip()[-400:]}")
        return
    _s, traced, err = _spawn(trace, work / "traced.json", "--traced")
    if not _check_round(res, traced, err, trace.graph, plain):
        return
    res.attempt(1)
    if null["answers"] != plain["answers"]:
        res.fail("the NullCostModel replay changed the answers")
    layers = dict(traced["layers"])
    updates = plain["updates"]
    layers.update(
        {
            "cost.work": plain["work"],
            "cost.depth": plain["depth"],
            "cost.work_per_update": plain["work"] / updates,
            "cost.reversals": plain["counters"].get("reversals", 0),
            "cost.overhead_s": _busy(plain) - _busy(null),
            "trace.overhead_frac": _busy(traced) / _busy(plain) - 1.0,
            "reads.query_p50_ms": percentile([1e3 * q for q in plain["query_cal"]], 50),
            "reads.query_p99_ms": percentile([1e3 * q for q in plain["query_cal"]], 99),
        }
    )
    res.layers.update(layers)
    res.attribution_check(traced["attributed"], traced["traced_wall"])
