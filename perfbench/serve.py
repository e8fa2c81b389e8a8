"""The ``serve-mixed`` workload: ``repro serve`` in its own process.

This process is the load generator.  It starts the server with its CLI
defaults (a data dir and port 0), creates one tenant, and opens two
connections, so a 2-vCPU machine runs it with no more connections than
``nproc``:

* a **writer**, open loop: churn batch ``i`` is due at ``t0 + i / rate``
  and is sent then (or as soon as the previous ack returns, if that is
  later — lateness is reported).  Ack and visibility latencies are timed
  from the *due* time, so a stall is charged to every batch behind it.
* a **reader**, closed loop over a fixed mix: ``stats``, coreness of a
  vertex subset, full coreness, density, orientation of a few vertices,
  pausing ``think_ms`` between a response and its next query (with no
  pause the event loop starved the apply thread of the GIL, and every
  latency spread 25-55% between runs).  Every answer must equal a serial
  replay of the same batches at the epoch the answer reports, and epochs
  must never move backwards.

A batch is *visible* when the reader first receives an answer whose
epoch covers its position.  After the stream, the server is stopped with
SIGTERM (graceful drain), relaunched on the same data dir, and timed
until ``stats`` reports the final epoch; its answers must equal the
pre-restart ones.  Set-up (fresh process to tenant created) is sampled
on extra throwaway servers too.

Batch visibility, apply and set-up times are calibrated like the replay
workloads': each interval is scaled by the ~2 ms calibration loop
(:mod:`common`) run near it, to ``REFERENCE_KITER_PER_S``.  Here the
probes run in the server process, but only while it is idle:
``serve_boot.py`` probes once at process start and once per SIGUSR1, and
the reader sends SIGUSR1 only when every batch sent is visible, the next
is not due for ``PROBE_GAP`` seconds, and it is itself about to pause —
plus once after each tenant is created.  On a box with two or more vCPUs
the server is pinned to one of its own and the load generator to the
others, so the probes time the vCPU the server's work runs on.  A probe
that ran beside the server's own work (on the apply thread after each
commit, or in another process) would slow down with the very apply and
query load the workload measures and cancel part of it.  On a 2-vCPU KVM
guest the box's speed moved by up to 1.8x for minutes at a time: raw
batch and apply times then spread 10-38% between seeds, calibrated ones
3-16%.  Query and ack latencies stay raw: a loopback round trip is
syscalls, thread hand-offs and waking an idle vCPU, which did not follow
the probe (raw query p50 moved 4% between two sets of seeds where the
calibrated one moved 41%).  Raw, they still spread up to 26%, so they
are per-layer metrics, not gated ones.  ``updates_per_s`` is the apply lane's throughput: edge updates per
calibrated second of ``TenantShard.apply``, timed by ``serve_boot.py``.
Raw values stay in the run record.
"""

from __future__ import annotations

import asyncio
import bisect
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

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

TENANT = "bench"
READY_RE = re.compile(r"listening on ([^\s:]+):(\d+)")
#: set-up samples per run: the measured server plus throwaway ones.
SETUP_SAMPLES = 9
#: seconds a server may take to print its ready line / to drain and exit.
START_TIMEOUT = 30.0
STOP_TIMEOUT = 30.0
#: the whole stream must be visible this long after its last due time.
SETTLE_TIMEOUT = 30.0
#: the reader asks for a probe only when the next batch is due this much later.
PROBE_GAP = 0.02
#: an interval is scaled by the median of the probes this close to it.
PROBE_MARGIN = 3.0
#: seconds left for a requested probe to finish before the next request.
PROBE_SETTLE = 0.02


def _split_cpus() -> tuple[Optional[int], Optional[set[int]]]:
    """(the server's vCPU, the load generator's vCPUs), or (None, None) on
    a one-vCPU box.

    The server is pinned to a vCPU of its own, so its idle-time probes
    time the vCPU its apply and query work run on, and the load generator
    never competes with it for that vCPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[-1], set(cpus[:-1])


class Server:
    """One ``repro serve --data-dir D --port 0`` child, started through
    ``serve_boot.py`` in ``mode`` and pinned to ``cpu`` (if not None); it
    writes its results to ``out`` on exit."""

    def __init__(
        self, data_dir: Path, log: Path, mode: str, out: Path, cpu: Optional[int]
    ) -> None:
        self.data_dir = data_dir
        self.log = log
        self.mode = mode
        self.out = out
        self.cpu = cpu
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        cmd = [
            sys.executable,
            str(BENCH_DIR / "serve_boot.py"),
            "--mode",
            self.mode,
            "--out",
            str(self.out),
            *([] if self.cpu is None else ["--cpu", str(self.cpu)]),
            "--",
            "serve",
            "--data-dir",
            str(self.data_dir),
            "--port",
            "0",
        ]
        with open(self.log, "a") as err:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), text=True
            )
        line = read_line(self.proc, START_TIMEOUT)
        match = READY_RE.search(line)
        if match is None:
            self.kill()
            raise RuntimeError(f"server did not start: {self._log_tail()}")
        self.port = int(match.group(2))

    def probe(self) -> None:
        """Ask the server for one calibration probe (see ``serve_boot.py``);
        only while it has nothing else to do."""
        assert self.proc is not None
        os.kill(self.proc.pid, signal.SIGUSR1)

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        assert self.proc is not None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT)
        finally:
            self.kill()
        return code

    def kill(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def _log_tail(self) -> str:
        try:
            return self.log.read_text()[-1500:]
        except OSError:
            return "(no log)"


# -- the serial oracle ------------------------------------------------------------


def oracle_answers(ops: list, n: int, seed: int, subset: list[int], oriented: list[int]):
    """Per-epoch answers of a serial replay with the tenant's parameters,
    and the final graph."""
    from repro.core import CorenessDecomposition, DensityEstimator
    from repro.graphs import DynamicGraph
    from repro.service.state import TenantConfig

    cfg = TenantConfig(n=n, seed=seed)
    kw = dict(eps=cfg.eps, constants=cfg.constants, seed=cfg.seed)
    core = CorenessDecomposition(n, **kw)
    dens = DensityEstimator(n, **kw)
    graph = DynamicGraph(0)
    out = []
    for epoch in range(len(ops) + 1):
        if epoch:
            op = ops[epoch - 1]
            for st in (core, dens, graph):
                (st.insert_batch if op.kind == "insert" else st.delete_batch)(op.edges)
        coreness = core.estimates()
        out.append(
            {
                "live_edges": len(graph.edges),
                "coreness": {str(v): c for v, c in coreness.items()},
                "subset": {str(v): coreness.get(v, 0.0) for v in subset},
                "max_coreness": core.max_estimate(),
                "density": dens.density_estimate(),
                "arboricity": dens.arboricity_estimate(),
                "max_outdegree": dens.max_outdegree(),
                "orientation": {
                    str(v): sorted(dens.orientation_out(v)) if graph.adj.get(v) else []
                    for v in oriented
                },
            }
        )
    return out, graph


def _mismatch(what: str, resp: dict, want: dict) -> Optional[str]:
    """Why ``resp`` differs from the oracle's answers at its epoch, or None."""
    if resp.get("live_edges") != want["live_edges"]:
        return f"live_edges {resp.get('live_edges')} != {want['live_edges']}"
    if what == "stats":
        ok = resp.get("accepted", -1) >= resp["epoch"]
    elif what == "coreness_subset":
        ok = resp.get("coreness") == want["subset"]
    elif what == "coreness":
        ok = resp.get("coreness") == want["coreness"] and resp.get(
            "max_coreness"
        ) == want["max_coreness"]
    elif what == "density":
        ok = (resp.get("density"), resp.get("arboricity"), resp.get("max_outdegree")) == (
            want["density"],
            want["arboricity"],
            want["max_outdegree"],
        )
    else:
        ok = resp.get("out_neighbors") == want["orientation"]
    return None if ok else f"{what} answer differs from the serial replay"


# -- the load -----------------------------------------------------------------------


Interval = tuple[float, float]  # (start, end) on the shared monotonic clock


@dataclass
class Load:
    """What one pass of the load generator timed, as raw intervals."""

    setup: Interval = (0.0, 0.0)
    restart: Interval = (0.0, 0.0)
    acks: list[Interval] = field(default_factory=list)  # due -> ack
    visible: list[Interval] = field(default_factory=list)  # due -> visible
    queries: list[Interval] = field(default_factory=list)
    #: the server's TenantShard.apply calls, read from its bootstrap
    applies: list[Interval] = field(default_factory=list)
    #: (time, cost) calibration probes both of the pass's servers took
    probes: list[tuple[float, float]] = field(default_factory=list)
    late_max_ms: float = 0.0
    window_s: float = 0.0
    reader_s: float = 0.0
    final: dict = field(default_factory=dict)
    wal_bytes: int = 0


class Speed:
    """Turns walls into calibrated seconds with the probes of a run."""

    def __init__(self, probes: list) -> None:
        pairs = sorted(tuple(p) for p in probes)
        self.times = [t for t, _c in pairs]
        self.costs = [c for _t, c in pairs]

    def seconds(self, intervals: list[Interval]) -> list[float]:
        """Each interval's wall at the reference speed: scaled by the median
        probe cost within ``PROBE_MARGIN`` of it (else by the nearest)."""
        out = []
        for a, b in intervals:
            lo = bisect.bisect_left(self.times, a - PROBE_MARGIN)
            hi = bisect.bisect_right(self.times, b + PROBE_MARGIN)
            if lo == hi:
                lo = min(lo, len(self.times) - 1)
                hi = lo + 1
            out.append((b - a) / (REFERENCE_KITER_PER_S * median(self.costs[lo:hi])))
        return out

    def ms(self, intervals: list[Interval]) -> list[float]:
        return [1e3 * x for x in self.seconds(intervals)]


def _ms(intervals: list[Interval]) -> list[float]:
    return [1e3 * (b - a) for a, b in intervals]


def _seconds(intervals: list[Interval]) -> float:
    return sum(b - a for a, b in intervals)


def _requests(subset: list[int], oriented: list[int]) -> list[tuple[str, dict]]:
    base = {"op": "query", "tenant": TENANT}
    return [
        ("stats", dict(base, what="stats")),
        ("coreness_subset", dict(base, what="coreness", vertices=subset)),
        ("coreness", dict(base, what="coreness")),
        ("density", dict(base, what="density")),
        ("orientation", dict(base, what="orientation", vertices=oriented)),
    ]


async def _drive(res: Outcome, server: Server, load: Load, ops, oracle, requests, spec) -> None:
    """Writer (open loop) + reader (closed loop) until every batch is visible."""
    from repro.service import ServiceClient

    writer = await ServiceClient.open("127.0.0.1", server.port)
    reader = await ServiceClient.open("127.0.0.1", server.port)
    total = len(ops)
    think = spec.think_ms / 1e3
    t0 = now() + 0.2
    due = [t0 + i / spec.rate for i in range(total)]
    visible = 0  # batches 1..visible are visible; epochs never skip back
    sent = 0
    done = asyncio.Event()

    async def write() -> None:
        nonlocal sent
        for i, op in enumerate(ops):
            delay = due[i] - now()
            if delay > 0:
                await asyncio.sleep(delay)
            load.late_max_ms = max(load.late_max_ms, 1e3 * (now() - due[i]))
            res.attempt(1)
            sent += 1
            try:
                resp = await writer.request(
                    {
                        "op": "ingest",
                        "tenant": TENANT,
                        "kind": op.kind,
                        "edges": [list(e) for e in op.edges],
                    }
                )
            except Exception as exc:  # every refused or failed ingest counts
                res.fail(f"ingest {i + 1} failed: {exc}")
                continue
            load.acks.append((due[i], now()))
            if resp.get("position") != i + 1:
                res.fail(f"ingest {i + 1} acked at position {resp.get('position')}")

    async def read() -> None:
        nonlocal visible
        last = -1
        start = now()
        k = 0
        while not done.is_set():
            if now() > due[-1] + SETTLE_TIMEOUT:
                res.fail(f"only {visible} of {total} batches visible in time")
                break
            what, req = requests[k % len(requests)]
            k += 1
            res.attempt(1)
            q0 = now()
            try:
                resp = await reader.request(req)
            except Exception as exc:
                res.fail(f"{what} query failed: {exc}")
                continue
            t = now()
            load.queries.append((q0, t))
            epoch = resp["epoch"]
            if epoch < last:
                res.fail(f"epoch moved backwards on the reader: {last} -> {epoch}")
            last = max(last, epoch)
            if epoch > total:
                res.fail(f"epoch {epoch} beyond the {total} batches sent")
                continue
            why = _mismatch(what, resp, oracle[epoch])
            if why is not None:
                res.fail(f"epoch {epoch}: {why}")
            advanced = visible < epoch
            while visible < epoch:
                load.visible.append((due[visible], t))
                visible += 1
            if visible >= total:
                load.window_s = t - t0
                done.set()
            elif think:
                if advanced and visible == sent and due[visible] - now() > PROBE_GAP:
                    server.probe()  # runs while this reader pauses
                await asyncio.sleep(think)
        load.reader_s = now() - start

    try:
        await asyncio.gather(write(), read())
    finally:
        await writer.close()
        await reader.close()


async def _answers(port: int, requests) -> dict:
    from repro.service import ServiceClient

    client = await ServiceClient.open("127.0.0.1", port)
    try:
        out = {}
        for what, req in requests:
            resp = await client.request(req)
            resp.pop("id", None)
            if what == "stats":
                resp.pop("pending", None)
            out[what] = resp
        return out
    finally:
        await client.close()


async def _await_epoch(port: int, epoch: int, deadline: float) -> bool:
    from repro.service import ServiceClient

    client = await ServiceClient.open("127.0.0.1", port)
    try:
        while now() < deadline:
            resp = await client.request({"op": "query", "tenant": TENANT, "what": "stats"})
            if resp["epoch"] >= epoch:
                return True
            await asyncio.sleep(0.005)
        return False
    finally:
        await client.close()


def _start_and_create(server: Server, n: int, seed: int) -> Interval:
    """Launch ``server`` and create the tenant; returns the set-up interval."""
    from repro.service import ServiceClient

    async def create() -> None:
        client = await ServiceClient.open("127.0.0.1", server.port)
        try:
            await client.request({"op": "create", "tenant": TENANT, "n": n, "seed": seed})
        finally:
            await client.close()

    t0 = now()
    server.start()
    asyncio.run(create())
    t1 = now()
    server.probe()
    time.sleep(PROBE_SETTLE)
    return t0, t1


@dataclass
class Stream:
    """One seed's inputs: batches, their per-epoch oracle, the reader's mix."""

    spec: inputs.ServeSpec
    seed: int
    ops: list
    oracle: list
    requests: list
    cpu: Optional[int]  # the server's vCPU


def _pass(res: Outcome, work: Path, mode: str, stream: Stream) -> tuple[Load, list]:
    """One full serve scenario; returns (load, the two servers' boot results)."""
    spec, ops, requests = stream.spec, stream.ops, stream.requests
    data = work / f"data-{mode}"
    log = work / f"server-{mode}.log"
    results = (work / f"boot-{mode}-1.json", work / f"boot-{mode}-2.json")
    server = Server(data, log, mode, results[0], stream.cpu)
    load = Load()
    try:
        load.setup = _start_and_create(server, spec.n, stream.seed)
        asyncio.run(_drive(res, server, load, ops, stream.oracle, requests, spec))
        res.attempt(1)
        before = asyncio.run(_answers(server.port, requests))
        load.final = before
        load.wal_bytes = (data / TENANT / "wal.trace").stat().st_size
        t0 = now()
        if server.stop() != 0:
            res.fail(f"server exited non-zero on SIGTERM: {server._log_tail()}")
        again = Server(data, log, mode, results[1], stream.cpu)
        try:
            again.start()
            ok = asyncio.run(_await_epoch(again.port, len(ops), now() + STOP_TIMEOUT))
            load.restart = (t0, now())
            if not ok:
                res.fail("the relaunched server never reached the final epoch")
            after = asyncio.run(_answers(again.port, requests))
            if after != before:
                res.fail("answers after the restart differ from those before it")
        finally:
            again.stop()
    finally:
        server.kill()
    boots = [read_json(p) if p.exists() else None for p in results]
    if boots[0] is None:
        res.fail("the server wrote no boot results")
    else:
        load.applies = [tuple(w) for _e, w in sorted(boots[0]["applies"].items(), key=_epoch)]
        load.probes = [p for boot in boots if boot is not None for p in boot["probes"]]
        if len(load.applies) != len(ops):
            res.fail(f"the server applied {len(load.applies)} of {len(ops)} batches")
    return load, boots


def _epoch(item: tuple[str, object]) -> int:
    return int(item[0])


def _setup_probes(res: Outcome, work: Path, stream: Stream, load: Load, count: int) -> list[Interval]:
    """``count`` more set-ups, each on a throwaway server; their calibration
    probes join ``load``'s."""
    samples = []
    for i in range(count):
        out = work / f"setup-{i}.json"
        server = Server(work / f"setup-{i}", work / "setup.log", "bare", out, stream.cpu)
        try:
            samples.append(_start_and_create(server, stream.spec.n, stream.seed))
            server.stop()
            load.probes += read_json(out)["probes"]
        except Exception as exc:
            res.attempt(1)
            res.fail(f"set-up sample failed: {exc}")
        finally:
            server.kill()
    return samples


def run(workload: str, seed: int, seconds: float, traced: bool, scale: str, work: Path) -> Outcome:
    spec = inputs.SERVE[scale]
    ops = inputs.serve_ops(seed, seconds, scale)
    subset, oriented = inputs.query_vertices(ops, seed, scale)
    oracle, graph = oracle_answers(ops, spec.n, seed, subset, oriented)
    res = Outcome(workload)
    updates = sum(op.size for op in ops)
    server_cpu, loadgen_cpus = _split_cpus()
    stream = Stream(spec, seed, ops, oracle, _requests(subset, oriented), server_cpu)

    def final_bands(load: Load) -> None:
        from repro.service.state import TenantConfig

        served = {
            "coreness": load.final["coreness"]["coreness"],
            "density": load.final["density"]["density"],
        }
        bands.check(res, served, graph, spec.n, TenantConfig(n=spec.n).eps)

    everywhere = os.sched_getaffinity(0)
    if loadgen_cpus:
        os.sched_setaffinity(0, loadgen_cpus)
    try:
        bare, bare_boot = _pass(res, work, "bare", stream)
        final_bands(bare)
        res.note("touched_vertices", len(bare.final["coreness"]["coreness"]))
        if not traced:
            setups = [bare.setup] + _setup_probes(res, work, stream, bare, SETUP_SAMPLES - 1)
            _measured(res, bare, setups, updates)
        else:
            shimmed, traced_boot = _pass(res, work, "traced", stream)
            _traced(res, bare, bare_boot, shimmed, traced_boot, updates)
    finally:
        os.sched_setaffinity(0, everywhere)
    return res


def _measured(res: Outcome, load: Load, setups: list[Interval], updates: int) -> None:
    speed = Speed(load.probes)
    apply_s = sum(speed.seconds(load.applies))
    res.metric("updates_per_s", updates / max(apply_s, 1e-9), "1/s", len(load.applies))
    visible = speed.ms(load.visible)
    res.metric("batch_p50_ms", percentile(visible, 50), "ms", len(visible))
    res.metric("batch_p90_ms", percentile(visible, 90), "ms", len(visible))
    res.metric("setup_s", median(speed.seconds(setups)), "s", len(setups))
    raw_visible = _ms(load.visible)
    res.note("raw_updates_per_s", updates / max(_seconds(load.applies), 1e-9))
    res.note("raw_batch_p50_ms", percentile(raw_visible, 50))
    res.note("raw_batch_p90_ms", percentile(raw_visible, 90))
    res.note("raw_setup_s", median([b - a for a, b in setups]))
    res.note("probes", len(load.probes))
    res.note("offered_updates_per_s", updates / max(load.window_s, 1e-9))
    res.note("apply_busy_frac", _seconds(load.applies) / max(load.window_s, 1e-9))
    _client_layers(res, load, updates)


def _traced(res, bare, bare_boot, shimmed, traced_boot, updates) -> None:
    res.attempt(1)
    if None in bare_boot or None in traced_boot:
        res.fail("a bootstrapped server wrote no result")
        return
    plain, shim = bare_boot[0]["tenants"][TENANT], traced_boot[0]["tenants"][TENANT]
    if (plain["work"], plain["depth"], plain["counters"]) != (
        shim["work"],
        shim["depth"],
        shim["counters"],
    ):
        res.fail("the traced server's work, depth or counters differ from the bare one's")
    if shimmed.final != bare.final:
        res.fail("the traced server's final answers differ from the bare one's")
    layers = dict(traced_boot[0]["layers"])
    layers["service.recover_s"] = traced_boot[1]["layers"]["service.recover_s"]
    layers["substrate.moves_per_update"] = layers["substrate.inindex_moves"] / updates
    layers["service.apply_busy_frac"] = layers["service.apply_s"] / max(shimmed.window_s, 1e-9)
    # mean client latency minus mean server time per query, same pass
    client_s = _seconds(shimmed.queries) / max(1, len(shimmed.queries))
    layers["service.query_transport_s"] = client_s - layers["service.query_server_s"]
    layers.update(
        {
            "cost.work": plain["work"],
            "cost.depth": plain["depth"],
            "cost.work_per_update": plain["work"] / updates,
            "cost.reversals": plain["counters"].get("reversals", 0),
            "trace.overhead_frac": sum(Speed(shimmed.probes).seconds(shimmed.applies))
            / sum(Speed(bare.probes).seconds(bare.applies))
            - 1.0,
        }
    )
    res.layers.update(layers)
    res.note("publish_split", traced_boot[0]["publish_split"])
    res.attribution_check(traced_boot[0]["apply_attributed"], _seconds(shimmed.applies))
    _client_layers(res, bare, updates)


def _client_layers(res: Outcome, load: Load, updates: int) -> None:
    """Numbers only the load generator sees (untraced pass)."""
    speed = Speed(load.probes)
    acks = _ms(load.acks)
    res.layers.update(
        {
            "serve.ack_p50_ms": percentile(acks, 50),
            "serve.ack_p90_ms": percentile(acks, 90),
            "serve.queries_per_s": len(load.queries) / max(load.reader_s, 1e-9),
            "serve.restart_s": speed.seconds([load.restart])[0],
            "tracefile.wal_bytes": load.wal_bytes,
            "loadgen.late_max_ms": load.late_max_ms,
            "reads.query_p50_ms": percentile(_ms(load.queries), 50),
            "reads.query_p99_ms": percentile(_ms(load.queries), 99),
        }
    )
    res.note("serve_updates", updates)
