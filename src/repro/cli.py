"""Command-line interface.

Core subcommands::

    repro generate --family planted --n 60 --m 200 --pattern churn \\
                   --batch-size 16 --out trace.txt
    repro run      --trace trace.txt --mode both --eps 0.35
    repro profile  --trace trace.txt --bench-out . --name smoke --check
    repro exact    --trace trace.txt
    repro chaos    --structure all --trials 10 --faults 2 --seed 0
    repro verify   --trace trace.txt --deep-every 8
    repro verify   diff --batches 200 --deep-every 25
    repro verify   --replay repro.json
    repro scenarios --scale ci --soak both
    repro scenarios --scenario sliding-window-churn --scale large \\
                    --trace-out window.trace
    repro serve     --data-dir state/ --port 9090 --serve-metrics 0

``generate`` writes a batch-update trace (see repro.graphs.tracefile);
``run`` replays it through the batch-dynamic structures and reports the
maintained estimates plus work/depth metrics (``--telemetry`` streams a
JSONL span/event log, ``--progress K`` logs every K-th batch); ``profile``
replays with phase-scoped telemetry armed and prints the phase tree
(docs/OBSERVABILITY.md), optionally writing ``BENCH_<name>.json``;
``exact`` replays it into a plain graph and reports the exact measures
for comparison; ``chaos`` soaks the structures under seeded fault
injection (docs/ROBUSTNESS.md) and reports which recovery tiers fired;
``verify`` audits a replay against the exact oracles, ``verify diff``
replays one stream through every execution configuration and diffs
per-batch outputs, and ``verify --replay`` re-runs a minimized repro
artifact (docs/VERIFICATION.md); ``scenarios`` drives the adversarial
scenario engine — soak a hardness-informed workload through chaos and/or
the differential panel, or spill it out-of-core to a trace file
(docs/SCENARIOS.md); ``serve`` runs the long-lived coreness service —
per-tenant ladders behind an asyncio JSON-lines protocol with
WAL-before-apply durability and epoch-snapshot queries
(docs/SERVICE.md).

``run`` streams its trace through the bounded-memory
:func:`~repro.graphs.tracefile.iter_trace` reader (one upfront
:func:`~repro.graphs.tracefile.scan_trace` validation pass), so replaying
a multi-million-edge trace holds only the live structures in memory —
never the op list.
"""

from __future__ import annotations

import argparse
import errno
import json
import pathlib
import sys
import threading
from typing import Optional, Sequence

from .baselines import core_numbers, exact_density, greedy_peeling_density
from .config import Constants
from .core import CorenessDecomposition, DensityEstimator
from .graphs import DynamicGraph, generators, streams
from .graphs.tracefile import (
    iter_trace,
    read_trace,
    scan_trace,
    validate_trace,
    write_trace,
)
from .instrument import BatchTimer, CostModel, render_table
from .instrument import trace as _trace
from .instrument.export import (
    JsonlSink,
    bench_payload,
    prometheus_text,
    render_phase_tree,
    write_bench_json,
)
from .instrument.telemetry import REGISTRY, Tracer

CONSTANTS = Constants(sample_c=0.5, min_B=4, duplication_cap=8)


def _make_edges(args) -> tuple[int, list]:
    if args.family == "er":
        return generators.erdos_renyi(args.n, args.m, seed=args.seed)
    if args.family == "ba":
        attach = max(1, args.m // max(1, args.n))
        return generators.barabasi_albert(args.n, attach, seed=args.seed)
    if args.family == "planted":
        block = max(4, args.n // 4)
        n, edges = generators.planted_dense(
            args.n, block=block, p_in=0.9, out_edges=args.m // 2, seed=args.seed
        )
        return n, edges
    raise SystemExit(f"unknown family {args.family!r}")


def cmd_generate(args) -> int:
    """Synthesise a batch-update trace and write it to ``--out``."""
    if args.pattern == "churn":
        # churn synthesizes its own edges; no base family needed
        ops = streams.churn(args.n, steps=args.steps, batch_size=args.batch_size, seed=args.seed)
    else:
        _n, edges = _make_edges(args)
        if args.pattern == "insert-only":
            ops = streams.insert_only(edges, args.batch_size)
        elif args.pattern == "window":
            ops = streams.sliding_window(edges, window=4, batch_size=args.batch_size)
        elif args.pattern == "insert-delete":
            ops = streams.insert_then_delete(edges, args.batch_size, seed=args.seed)
        else:
            raise SystemExit(f"unknown pattern {args.pattern!r}")
    validate_trace(ops)
    count = write_trace(ops, args.out)
    print(f"wrote {count} batches ({sum(op.size for op in ops)} edge updates) to {args.out}")
    return 0


def _build_structures(args, n: int, cm: CostModel) -> list[tuple[str, object]]:
    structures: list[tuple[str, object]] = []
    if args.mode in ("coreness", "both"):
        structures.append(
            (
                "coreness",
                CorenessDecomposition(n, eps=args.eps, cm=cm, constants=CONSTANTS),
            )
        )
    if args.mode in ("density", "both"):
        structures.append(
            (
                "density",
                DensityEstimator(n, eps=args.eps, cm=cm, constants=CONSTANTS),
            )
        )
    if not structures:
        raise SystemExit(f"unknown mode {args.mode!r}")
    return structures


def _replay(
    ops, structures, timer: BatchTimer, progress: int = 0, total: Optional[int] = None
) -> None:
    """Drive every batch through every structure (phase-span instrumented).

    ``ops`` may be any iterable — including a lazy
    :func:`~repro.graphs.tracefile.iter_trace` generator — so pass
    ``total`` (the known batch count) when progress events should report
    it without forcing materialisation.
    """
    for i, op in enumerate(ops):
        with _trace.span("batch", detail={"index": i, "kind": op.kind, "edges": op.size}):
            with timer.batch(op.kind, op.size):
                for name, st in structures:
                    with _trace.span("structure", structure=name):
                        if op.kind == "insert":
                            st.insert_batch(op.edges)
                        else:
                            st.delete_batch(op.edges)
        if progress and (i + 1) % progress == 0:
            _trace.event(
                "progress",
                batch=i + 1,
                batches=total if total is not None else len(ops),
                work=timer.cm.work,
                depth=timer.cm.depth,
            )


def _progress_sink(stream=None):
    """A tracer sink printing ``progress`` events to ``stream`` (stderr)."""
    stream = stream if stream is not None else sys.stderr

    def sink(ev: dict) -> None:
        if ev.get("type") == "event" and ev.get("name") == "progress":
            print(
                f"[progress] batch {ev['batch']}/{ev['batches']}"
                f"  work={ev['work']}  depth={ev['depth']}",
                file=stream,
            )

    return sink


def _serve_metrics_or_die(registry, port: int):
    """Start the metrics HTTP server; die with one clean line if the port
    is taken.  ``PORT 0`` asks the kernel for an ephemeral port — the one
    actually bound is in the printed URL (docs/OBSERVABILITY.md)."""
    from .instrument.live import serve_metrics

    try:
        server = serve_metrics(registry, port)
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            raise SystemExit(
                f"error: metrics port {port} is already in use "
                "(pass --serve-metrics 0 to bind an ephemeral port)"
            ) from None
        raise
    print(f"serving metrics on {server.url}", file=sys.stderr)
    return server


def cmd_run(args) -> int:
    """Replay a trace through the maintained structures; print metrics.

    Out-of-core: one :func:`scan_trace` pass validates the file and sizes
    the vertex universe, then the replay itself drains a lazy
    :func:`iter_trace` generator — the op list never materialises.

    ``--live`` attaches the terminal dashboard (progress, throughput,
    ETA, hottest spans — docs/OBSERVABILITY.md) as an extra tracer sink;
    ``--serve-metrics PORT`` additionally exposes the metrics registry as
    Prometheus text on ``http://127.0.0.1:PORT/metrics`` (``PORT 0`` binds
    an ephemeral port, printed to stderr).  The server used to vanish the
    instant the replay finished — too fast for any scraper on short runs —
    so ``--metrics-linger SECONDS`` now keeps it up after the summary
    prints.  Neither touches the cost model.
    """
    info = scan_trace(args.trace)
    n = max(info.vertices, 2)
    cm = CostModel()
    REGISTRY.clear()
    timer = BatchTimer(cm, registry=REGISTRY)
    live = bool(getattr(args, "live", False))
    serve_port = getattr(args, "serve_metrics", None)
    linger = max(0.0, getattr(args, "metrics_linger", 0.0) or 0.0)
    dashboard = None
    server = None
    try:
        if serve_port is not None:
            server = _serve_metrics_or_die(REGISTRY, serve_port)
        structures = _build_structures(args, n, cm)

        progress = getattr(args, "progress", 0)
        telemetry = getattr(args, "telemetry", None)
        jsonl = None
        if telemetry or progress or live:
            sinks: list = []
            if telemetry:
                jsonl = JsonlSink(telemetry)
                sinks.append(jsonl)
            if progress:
                sinks.append(_progress_sink())
            if live:
                from .instrument.live import LiveDashboard

                dashboard = LiveDashboard(
                    REGISTRY, sys.stderr, total_batches=info.batches
                )
                sinks.append(dashboard)
            tracer = Tracer(cm, sinks=sinks, registry=REGISTRY if live else None)
            try:
                with _trace.tracing(tracer):
                    _replay(
                        iter_trace(args.trace),
                        structures,
                        timer,
                        progress=progress,
                        total=info.batches,
                    )
            finally:
                if jsonl is not None:
                    jsonl.close()
            if telemetry:
                print(f"wrote {jsonl.events_written} telemetry events to {telemetry}")
        else:
            _replay(iter_trace(args.trace), structures, timer)
    finally:
        if dashboard is not None:
            dashboard.close()
        # on the happy path with --metrics-linger the server outlives the
        # replay (the satellite fix: short runs were un-scrape-able); an
        # exception still tears it down here.
        if server is not None and (not linger or sys.exc_info()[0] is not None):
            server.close()
            server = None

    series = timer.series
    rows = [
        ("batches", len(series.records)),
        ("edge updates", series.total_edges()),
        ("mean work/edge", f"{series.mean_work_per_edge():.0f}"),
        ("p99 work/edge", f"{series.percentile_work_per_edge(99):.0f}"),
        ("max batch depth", series.max_depth()),
    ]
    for name, st in structures:
        if name == "coreness":
            ests = st.estimates()
            top = sorted(ests.items(), key=lambda kv: -kv[1])[: args.top]
            rows.append(("max core_alg", f"{st.max_estimate():.1f}"))
            rows.append(
                ("top vertices", " ".join(f"{v}:{e:.0f}" for v, e in top))
            )
        else:
            rows.append(("rho_alg", f"{st.density_estimate():.2f}"))
            rows.append(("lambda_alg", f"{st.arboricity_estimate():.2f}"))
            rows.append(("orientation max d+", st.max_outdegree()))
    print(render_table(["metric", "value"], rows))
    if server is not None:
        # announce inside the try: a ctrl-C sent as soon as the line is
        # read must release the linger, not escape as a traceback
        try:
            print(
                f"metrics stay up on {server.url} for {linger:.0f}s more "
                "(ctrl-C to release early)",
                file=sys.stderr,
            )
            threading.Event().wait(linger)
        except KeyboardInterrupt:
            pass
        server.close()
    return 0


def cmd_profile(args) -> int:
    """Replay a trace with telemetry armed; print the phase tree.

    ``--bench-out DIR`` writes the machine-readable ``BENCH_<name>.json``
    perf summary; ``--prom PATH`` dumps the metrics registry in Prometheus
    text exposition; ``--check`` replays a second time *disarmed* and
    fails if work, depth, or any counter differs — the
    tracing-never-perturbs-the-cost-model guarantee, enforced end to end.
    """
    ops = read_trace(args.trace)
    n = max(validate_trace(ops), 2)

    def measure(armed: bool):
        cm = CostModel()
        REGISTRY.clear()
        timer = BatchTimer(cm, registry=REGISTRY)
        structures = _build_structures(args, n, cm)
        if not armed:
            _replay(ops, structures, timer)
            return cm, timer, None
        jsonl = JsonlSink(args.telemetry) if args.telemetry else None
        tracer = Tracer(cm, sinks=[jsonl] if jsonl else [])
        try:
            with _trace.tracing(tracer):
                _replay(ops, structures, timer)
        finally:
            if jsonl is not None:
                jsonl.close()
        return cm, timer, tracer

    cm, timer, tracer = measure(armed=True)
    root = tracer.root
    if root.work != cm.work or root.total_self_work() != root.work:
        print(
            f"phase-tree accounting broken: root={root.work} "
            f"self-sum={root.total_self_work()} cost-model={cm.work}",
            file=sys.stderr,
        )
        return 1
    print(render_phase_tree(root, min_share=args.min_share))
    print(
        f"\nphase-tree work {root.work} == cost-model work {cm.work} (exact); "
        f"depth {cm.depth}"
    )

    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(REGISTRY))
        print(f"wrote metrics exposition to {args.prom}")
    if args.bench_out:
        payload = bench_payload(
            args.name,
            timer.series,
            tree=root,
            extra={"trace": args.trace, "mode": args.mode, "eps": args.eps},
        )
        path = write_bench_json(args.bench_out, payload)
        print(f"wrote {path}")

    if args.check:
        cm2, _timer2, _ = measure(armed=False)
        armed_view = (cm.work, cm.depth, dict(cm.counters))
        bare_view = (cm2.work, cm2.depth, dict(cm2.counters))
        if armed_view != bare_view:
            print(
                "check FAILED: telemetry perturbed the cost model\n"
                f"  armed:    work={cm.work} depth={cm.depth}\n"
                f"  disarmed: work={cm2.work} depth={cm2.depth}",
                file=sys.stderr,
            )
            return 1
        print("check: armed and disarmed replays are bit-identical")
    return 0


def cmd_exact(args) -> int:
    """Exact offline measures of a trace's final graph."""
    ops = read_trace(args.trace)
    validate_trace(ops)
    g = DynamicGraph(0)
    streams.replay(ops, g)
    cores = core_numbers(g)
    rows = [
        ("vertices touched", len(g.touched_vertices())),
        ("live edges", g.m),
        ("max coreness", max(cores.values(), default=0)),
    ]
    if g.m <= 3000:
        rows.append(("exact rho", f"{exact_density(g):.3f}"))
    else:
        rows.append(("greedy rho (1/2-approx)", f"{greedy_peeling_density(g)[0]:.3f}"))
    print(render_table(["metric", "value"], rows))
    return 0


def cmd_chaos(args) -> int:
    """Chaos-soak the dynamic structures under seeded fault injection."""
    from .resilience.chaos import STRUCTURES, chaos_soak, render_soak_summary

    targets = list(STRUCTURES) if args.structure == "all" else [args.structure]
    reports = []
    for structure in targets:
        report = chaos_soak(
            structure,
            trials=args.trials,
            seed=args.seed,
            n=args.n,
            batches=args.batches,
            batch_size=args.batch_size,
            faults_per_trial=args.faults,
            constants=CONSTANTS,
            deep_audit=not args.no_deep_audit,
            minimize=args.minimize or bool(args.artifact_dir),
            artifact_dir=args.artifact_dir,
        )
        reports.append(report)
        print(report.render())
        print()
    print(render_soak_summary(reports))
    return 0 if all(r.ok for r in reports) else 1


def cmd_scenarios(args) -> int:
    """Drive the adversarial scenario engine (docs/SCENARIOS.md).

    Default: soak the catalog (or ``--scenario NAME``) through chaos
    fault injection and/or the four-config differential panel at the
    chosen ``--scale``; exit 0 iff every verdict is GREEN.
    ``--trace-out PATH`` instead spills one scenario's stream to a
    sealed trace file *out-of-core* — the stream is drained straight
    through a :class:`~repro.graphs.tracefile.TraceWriter`, so even the
    ``large`` (10^6 edge-update) scale never materialises in memory.
    """
    from .graphs.tracefile import write_stream
    from .scenarios import (
        get_scenario,
        params_for,
        render_scenario_summary,
        scenario_names,
        scenario_stream,
        soak_scenario,
    )

    if args.list:
        rows = [
            [name, "yes" if get_scenario(name).bounded_window else "no",
             get_scenario(name).summary]
            for name in scenario_names()
        ]
        print(render_table(["scenario", "windowed", "summary"], rows))
        return 0
    names = [args.scenario] if args.scenario else scenario_names()
    if args.trace_out:
        if len(names) != 1:
            raise SystemExit("scenarios: --trace-out requires an explicit --scenario")
        name = names[0]
        params = params_for(args.scale, seed=args.seed)
        with _trace.span("scenario.spill", scenario=name):
            write_stream(scenario_stream(name, params), args.trace_out)
        info = scan_trace(args.trace_out, strict=True)
        print(
            f"spilled {name} @ {args.scale} to {args.trace_out}: "
            f"{info.batches} batches, {info.edge_updates} edge updates, "
            f"max {info.max_live_edges} live edges, {info.vertices} vertices"
        )
        return 0
    dashboard = None
    server = None
    if getattr(args, "serve_metrics", None) is not None:
        server = _serve_metrics_or_die(REGISTRY, args.serve_metrics)
    if getattr(args, "live", False):
        # no tracer sink plumbing here — the dashboard ticks itself from
        # a daemon thread while the soak publishes into the registry.
        from .instrument.live import LiveDashboard

        dashboard = LiveDashboard(REGISTRY, sys.stderr)
        dashboard.start()
    reports = []
    try:
        for name in names:
            report = soak_scenario(
                name,
                scale=args.scale,
                seed=args.seed,
                mode=args.soak,
                trials=args.trials,
                faults_per_trial=args.faults,
                deep_every=args.deep_every,
                constants=CONSTANTS,
                minimize=args.minimize,
                artifact_dir=args.artifact_dir,
            )
            reports.append(report)
            print(report.render())
            print()
    finally:
        if dashboard is not None:
            dashboard.close()
        if server is not None:
            server.close()
    print(render_scenario_summary(reports))
    return 0 if all(r.ok for r in reports) else 1


def cmd_serve(args) -> int:
    """Run the coreness service (docs/SERVICE.md).

    A long-running asyncio server: per-tenant batch-dynamic ladders
    behind a JSON-lines TCP protocol — every accepted batch hits the
    tenant's WAL before it applies (the ack is the durability point),
    queries read an immutable epoch snapshot and never block on in-flight
    updates, restart recovers through checkpoint + WAL replay, and
    SIGTERM drains gracefully (commit the backlog, seal the WALs).
    ``--serve-metrics PORT`` exposes per-tenant ingest/query counters and
    latency histograms as Prometheus text; the metrics server lives as
    long as the service does.
    """
    import asyncio

    from .service import CorenessService

    service = CorenessService(
        args.data_dir,
        host=args.host,
        port=args.port,
        shards=args.shards,
        checkpoint_every=args.checkpoint_every,
        sync=args.sync,
        max_pending=args.max_pending,
    )
    server = None
    if args.serve_metrics is not None:
        server = _serve_metrics_or_die(service.registry, args.serve_metrics)

    def ready() -> None:
        print(
            f"coreness service listening on {service.host}:{service.port} "
            f"({len(service.tenants)} tenants recovered)",
            flush=True,
        )

    try:
        asyncio.run(service.run(on_ready=ready))
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            raise SystemExit(
                f"error: service port {args.port} on {args.host} is already "
                "in use (pass --port 0 to bind an ephemeral port)"
            ) from None
        raise
    except KeyboardInterrupt:
        pass
    finally:
        if server is not None:
            server.close()
    print("coreness service drained and stopped", file=sys.stderr)
    return 0


def _load_bench_file(path: str) -> dict:
    """Read one ``BENCH_*.json`` payload (SystemExit on garbage)."""
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"bench: cannot read {path}: {exc}")
    if not isinstance(payload, dict):
        raise SystemExit(f"bench: {path} is not a JSON object")
    return payload


def cmd_bench(args) -> int:
    """Bench history: record runs, render trends, gate regressions.

    ``--record FILE...`` appends BENCH payloads into the history store
    (``--history-dir``, default ``.bench_history/``), keyed by
    (experiment, ``--config``, git sha).  ``--trend`` renders per-metric
    sparkline trends from the store.  ``--compare BASELINE`` gates
    ``--current`` payloads against a baseline file (or a directory of
    committed ``BENCH_*.json``), exiting 1 when wall-clock or peak-memory
    regresses beyond the noise threshold estimated from repeated-run
    variance (override with ``--threshold``).
    """
    from .instrument.history import BenchHistory, render_trend

    history = BenchHistory(args.history_dir)
    if args.record:
        for path in args.record:
            record = history.append(_load_bench_file(path), config=args.config)
            print(
                f"recorded {record['experiment']} @ {record['git_sha']} "
                f"({len(record['metrics'])} gated metrics)"
            )
        if not (args.trend or args.compare):
            return 0
    if args.trend:
        text = render_trend(
            history, experiment=args.experiment, metric=args.metric
        )
        print(text)
        if args.out:
            pathlib.Path(args.out).write_text(text + "\n")
            print(f"wrote trend table to {args.out}")
        if not args.compare:
            return 0
    if args.compare:
        if not args.current:
            raise SystemExit("bench: --compare requires --current FILE...")
        base_path = pathlib.Path(args.compare)
        regressions = []
        for path in args.current:
            current = _load_bench_file(path)
            if base_path.is_dir():
                candidate = base_path / f"BENCH_{current.get('name', '?')}.json"
                if not candidate.is_file():
                    print(f"no baseline for {current.get('name')}; skipping")
                    continue
                baseline = _load_bench_file(str(candidate))
            else:
                baseline = _load_bench_file(str(base_path))
            found = history.compare(
                baseline, current, config=args.config, threshold=args.threshold
            )
            gated = [
                m for m in sorted(set(history_metrics(baseline)))
                if m in history_metrics(current)
            ]
            name = current.get("name", path)
            if found:
                for reg in found:
                    print("REGRESSION " + reg.describe())
            else:
                print(f"{name}: {len(gated)} gated metric(s) within threshold")
            regressions.extend(found)
        if regressions:
            print(f"\n{len(regressions)} regression(s) past the noise gate")
            return 1
        print("\nno regressions")
        return 0
    raise SystemExit("bench: nothing to do (use --record, --trend, or --compare)")


def history_metrics(payload: dict) -> dict:
    """The gated metrics of one payload (re-exported for cmd_bench)."""
    from .instrument.history import extract_metrics

    return extract_metrics(payload)


def cmd_lint(args) -> int:
    """Run reprolint (see docs/STATIC_ANALYSIS.md) over the given paths.

    Every argument after ``lint`` is forwarded verbatim to the reprolint
    CLI, so new flags (``--fix``, ``--statistics``, ``--format sarif``,
    baseline/cache options) work without re-declaring them here.
    """
    from .analysis.cli import main as lint_main

    return lint_main(list(args.lint_args))


def cmd_verify(args) -> int:
    """Replay a trace auditing structure invariants after every batch.

    ``--replay ARTIFACT`` instead re-runs a minimized repro artifact
    (written by ``verify diff --artifact-out`` or the chaos harness) and
    exits 0 iff the recorded failure still reproduces.
    """
    from .verify import replay_artifact
    from .verify.audits import replay_audit

    if args.replay:
        reproduced, text = replay_artifact(args.replay)
        print(text)
        if reproduced:
            print("repro artifact REPRODUCED the recorded failure")
            return 0
        print("repro artifact did NOT reproduce — the failure moved or is fixed")
        return 1
    if not args.trace:
        raise SystemExit("verify: --trace is required (or use --replay ARTIFACT)")
    ops = read_trace(args.trace)
    validate_trace(ops)
    report = replay_audit(
        ops,
        H=args.height,
        constants=CONSTANTS,
        deep_every=args.deep_every,
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_verify_diff(args) -> int:
    """Differential replay: one stream, every execution config, zero drift."""
    from .verify import (
        RunnerConfig,
        configs_by_name,
        default_configs,
        minimize_diff,
        run_diff,
        write_artifact,
    )

    if args.trace:
        ops = read_trace(args.trace)
    else:
        ops = streams.churn(
            args.n, steps=args.batches, batch_size=args.batch_size, seed=args.seed
        )
    n = max(validate_trace(ops), 2)
    if args.configs:
        panel = configs_by_name(
            [s.strip() for s in args.configs.split(",") if s.strip()]
        )
    else:
        panel = default_configs()
    if args.inject:
        site, _, rest = args.inject.partition(":")
        hit_s, _, action = rest.partition(":")
        panel = panel + [
            RunnerConfig(
                "injected",
                faults=((site, int(hit_s) if hit_s else 1, action or "raise"),),
                cost_class=None,
            )
        ]
    report = run_diff(
        ops,
        configs=panel,
        eps=args.eps,
        constants=CONSTANTS,
        seed=args.seed,
        n=n,
        deep_every=args.deep_every,
    )
    print(report.render())
    if report.ok:
        return 0
    if args.minimize or args.artifact_out:
        minimal, probe = minimize_diff(
            ops,
            report,
            configs=panel,
            eps=args.eps,
            constants=CONSTANTS,
            seed=args.seed,
            n=n,
            deep_every=args.deep_every,
        )
        print(
            f"\nminimized repro: {len(minimal)} batch(es), "
            f"{sum(op.size for op in minimal)} edge update(s)"
        )
        for op in minimal:
            print(f"  {op.kind} {list(op.edges)}")
        if args.artifact_out:
            path = write_artifact(
                args.artifact_out,
                kind="diff",
                ops=minimal,
                params={
                    "eps": args.eps,
                    "seed": args.seed,
                    "n": n,
                    "deep_every": args.deep_every,
                },
                configs=probe,
                constants=CONSTANTS,
                expected={
                    "divergences": [
                        f"batch {d.batch} [{d.config}] {d.observable}"
                        for d in report.divergences
                    ],
                    "oracle_findings": len(report.oracle_findings),
                },
            )
            print(f"wrote repro artifact to {path}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser with all subcommands attached."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a batch-update trace file")
    g.add_argument("--family", default="er", choices=["er", "ba", "planted"])
    g.add_argument("--n", type=int, default=60)
    g.add_argument("--m", type=int, default=200)
    g.add_argument("--steps", type=int, default=40)
    g.add_argument("--batch-size", type=int, default=16)
    g.add_argument(
        "--pattern",
        default="insert-only",
        choices=["insert-only", "window", "churn", "insert-delete"],
    )
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="replay a trace through the dynamic structures")
    r.add_argument("--trace", required=True)
    r.add_argument("--mode", default="both", choices=["coreness", "density", "both"])
    r.add_argument("--eps", type=float, default=0.35)
    r.add_argument("--top", type=int, default=5)
    r.add_argument("--telemetry", metavar="PATH",
                   help="write a JSONL span/event log to PATH")
    r.add_argument("--progress", type=int, default=0, metavar="K",
                   help="log every K-th batch via the telemetry event sink")
    r.add_argument("--live", action="store_true",
                   help="stream a live status line (progress, throughput, "
                        "ETA, hottest spans) to stderr")
    r.add_argument("--serve-metrics", type=int, default=None, metavar="PORT",
                   help="expose the metrics registry as Prometheus text on "
                        "http://127.0.0.1:PORT/metrics for the run "
                        "(PORT 0 = ephemeral; the bound URL is printed)")
    r.add_argument("--metrics-linger", type=float, default=0.0, metavar="SEC",
                   help="keep the --serve-metrics server up SEC seconds "
                        "after the replay so scrapers can still reach it")
    r.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "profile", help="replay a trace with phase-scoped telemetry armed"
    )
    p.add_argument("--trace", required=True)
    p.add_argument("--mode", default="both", choices=["coreness", "density", "both"])
    p.add_argument("--eps", type=float, default=0.35)
    p.add_argument("--min-share", type=float, default=0.01,
                   help="prune phase-tree rows below this work share")
    p.add_argument("--name", default="profile",
                   help="BENCH payload name (file becomes BENCH_<name>.json)")
    p.add_argument("--bench-out", metavar="DIR",
                   help="write BENCH_<name>.json under DIR")
    p.add_argument("--telemetry", metavar="PATH",
                   help="write a JSONL span/event log to PATH")
    p.add_argument("--prom", metavar="PATH",
                   help="dump the metrics registry as Prometheus text")
    p.add_argument("--check", action="store_true",
                   help="replay disarmed too; fail on any work/depth/counter drift")
    p.set_defaults(func=cmd_profile)

    e = sub.add_parser("exact", help="exact offline measures of a trace's final graph")
    e.add_argument("--trace", required=True)
    e.set_defaults(func=cmd_exact)

    v = sub.add_parser(
        "verify", help="replay a trace auditing structure invariants per batch"
    )
    v.add_argument("--trace", help="trace file to audit")
    v.add_argument("--height", type=int, default=5)
    v.add_argument("--deep-every", type=int, default=0,
                   help="also audit estimate bands every N batches (slow)")
    v.add_argument("--replay", metavar="ARTIFACT",
                   help="re-run a minimized repro artifact; exit 0 iff it "
                        "still reproduces the recorded failure")
    v.set_defaults(func=cmd_verify)
    v_sub = v.add_subparsers(dest="verify_cmd")
    d = v_sub.add_parser(
        "diff",
        help="replay one stream through every execution config and diff "
             "per-batch outputs (docs/VERIFICATION.md)",
    )
    d.add_argument("--trace", help="trace file (default: generate a churn stream)")
    d.add_argument("--n", type=int, default=32,
                   help="vertex count of the generated churn stream")
    d.add_argument("--batches", type=int, default=200,
                   help="batch count of the generated churn stream")
    d.add_argument("--batch-size", type=int, default=6)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--eps", type=float, default=0.35)
    d.add_argument("--deep-every", type=int, default=0,
                   help="audit the baseline vs the exact oracles every N batches")
    d.add_argument("--configs", metavar="A,B,...",
                   help="comma-separated panel (default: serial, telemetry, "
                        "chaos-recovered)")
    d.add_argument("--inject", metavar="SITE[:HIT[:ACTION]]",
                   help="add an un-recovered fault-injected config (the "
                        "harness must catch and shrink it)")
    d.add_argument("--minimize", action="store_true",
                   help="on divergence, ddmin-shrink the stream to a minimal repro")
    d.add_argument("--artifact-out", metavar="PATH",
                   help="write the minimized repro as a replayable artifact")
    d.set_defaults(func=cmd_verify_diff)

    c = sub.add_parser(
        "chaos", help="soak the structures under seeded fault injection"
    )
    c.add_argument(
        "--structure",
        default="all",
        choices=["all", "balanced", "coreness", "density"],
    )
    c.add_argument("--trials", type=int, default=10)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--n", type=int, default=24)
    c.add_argument("--batches", type=int, default=20)
    c.add_argument("--batch-size", type=int, default=6)
    c.add_argument("--faults", type=int, default=2,
                   help="planned fault injections per trial")
    c.add_argument("--no-deep-audit", action="store_true",
                   help="skip the exact-oracle band audits")
    c.add_argument("--minimize", action="store_true",
                   help="ddmin-shrink every failing trial's stream")
    c.add_argument("--artifact-dir", metavar="DIR",
                   help="write minimized repro artifacts under DIR "
                        "(implies --minimize)")
    c.set_defaults(func=cmd_chaos)

    sc = sub.add_parser(
        "scenarios",
        help="soak or spill the adversarial scenario catalog (docs/SCENARIOS.md)",
    )
    sc.add_argument("--list", action="store_true",
                    help="list the scenario catalog and exit")
    sc.add_argument("--scenario", metavar="NAME",
                    help="one scenario (default: the whole catalog)")
    sc.add_argument("--scale", default="ci",
                    choices=["tiny", "ci", "bench", "large"],
                    help="named parameter preset (large = 10^6 edge updates)")
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--soak", default="both", choices=["chaos", "diff", "both"],
                    help="which verdict machinery to run")
    sc.add_argument("--trials", type=int, default=3,
                    help="chaos fault-injection trials per scenario")
    sc.add_argument("--faults", type=int, default=2,
                    help="planned fault injections per chaos trial")
    sc.add_argument("--deep-every", type=int, default=0,
                    help="exact-oracle deep audit every N diff batches")
    sc.add_argument("--minimize", action="store_true",
                    help="ddmin-shrink every failing chaos trial's stream")
    sc.add_argument("--artifact-dir", metavar="DIR",
                    help="write minimized repro artifacts under DIR "
                         "(implies --minimize)")
    sc.add_argument("--trace-out", metavar="PATH",
                    help="spill the scenario stream out-of-core to a sealed "
                         "trace file instead of soaking")
    sc.add_argument("--live", action="store_true",
                    help="tick a live status line to stderr while soaking")
    sc.add_argument("--serve-metrics", type=int, default=None, metavar="PORT",
                    help="expose the metrics registry as Prometheus text on "
                         "http://127.0.0.1:PORT/metrics while soaking "
                         "(PORT 0 = ephemeral; the bound URL is printed)")
    sc.set_defaults(func=cmd_scenarios)

    sv = sub.add_parser(
        "serve",
        help="run the coreness service: async ingest/query over per-tenant "
             "ladders (docs/SERVICE.md)",
    )
    sv.add_argument("--data-dir", required=True, metavar="DIR",
                    help="durable state root (one subdirectory per tenant: "
                         "meta.json + wal.trace + checkpoint.json)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=0,
                    help="TCP port (0 = ephemeral; the bound port is printed "
                         "on the ready line)")
    sv.add_argument("--shards", type=int, default=4,
                    help="parallel apply lanes; tenants map to lanes by "
                         "name hash")
    sv.add_argument("--checkpoint-every", type=int, default=32, metavar="K",
                    help="full checkpoint every K committed batches per tenant")
    sv.add_argument("--max-pending", type=int, default=256, metavar="N",
                    help="per-lane bound on accepted-but-unapplied batches; "
                         "at the bound, ingest acks stall (backpressure) "
                         "instead of growing an unbounded apply backlog")
    sv.add_argument("--sync", action="store_true",
                    help="fsync every WAL append before acking "
                         "(power-loss durability, slower ingest)")
    sv.add_argument("--serve-metrics", type=int, default=None, metavar="PORT",
                    help="expose per-tenant service metrics as Prometheus "
                         "text (PORT 0 = ephemeral; the bound URL is printed)")
    sv.set_defaults(func=cmd_serve)

    b = sub.add_parser(
        "bench",
        help="bench history: record runs, sparkline trends, regression gates",
    )
    b.add_argument("--history-dir", default=".bench_history", metavar="DIR",
                   help="the append-only JSONL history store")
    b.add_argument("--config", default="default",
                   help="config label the records are keyed under")
    b.add_argument("--record", nargs="+", metavar="FILE",
                   help="append BENCH_*.json payload(s) to the store")
    b.add_argument("--trend", action="store_true",
                   help="render per-metric trend tables with sparklines")
    b.add_argument("--experiment", metavar="NAME",
                   help="restrict --trend to one experiment")
    b.add_argument("--metric", metavar="NAME",
                   help="restrict --trend to one (dotted-path) metric")
    b.add_argument("--out", metavar="PATH",
                   help="also write the --trend table to PATH (CI artifact)")
    b.add_argument("--compare", metavar="BASELINE",
                   help="gate --current payloads against a baseline BENCH "
                        "file (or a directory of committed ones); exit 1 on "
                        "wall-clock / peak-memory regression")
    b.add_argument("--current", nargs="+", metavar="FILE",
                   help="the freshly measured BENCH_*.json payload(s)")
    b.add_argument("--threshold", type=float, default=None,
                   help="relative regression threshold (default: estimated "
                        "from repeated-run variance in the history store)")
    b.set_defaults(func=cmd_bench)

    lint = sub.add_parser(
        "lint",
        help="run reprolint (static invariant checks) over the tree",
        description=(
            "All arguments are forwarded to the reprolint CLI; see "
            "'python -m repro.analysis --help' for the full flag set."
        ),
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="paths and reprolint flags (forwarded verbatim)")
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
