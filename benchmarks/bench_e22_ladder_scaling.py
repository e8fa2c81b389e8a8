"""E22 — ladder sharding: the rung sweep.

The ladder's rungs are independent (that independence *is* Theorems
1.1/1.2's parallelism), so each batch runs every rung as one branch of a
single parallel region (docs/PERFORMANCE.md).  This experiment drives a
skewed stream — a planted dense block that saturates the low rungs plus a
sparse periphery that leaves the tall rungs untouched — through the
**serial** sweep and reports its work, depth and the Brent projection of
its parallel speedup.

Absolute wall-clock numbers are hardware-noisy; the reproduction targets
are the work/depth shapes.  ``REPRO_E22_TINY=1`` shrinks the trace for CI
smoke runs.
"""

from __future__ import annotations

import os

from repro.core import CorenessDecomposition, DensityEstimator
from repro.graphs import generators as gen, streams
from repro.instrument import (
    BatchTimer,
    CostModel,
    Tracer,
    parallelism,
    project,
    render_table,
    trace,
    wallclock,
)

from common import CONSTANTS, EPS, Experiment, write_bench

TINY = bool(os.environ.get("REPRO_E22_TINY"))
if TINY:
    N, BLOCK, PERIPHERY, BATCH = 24, 6, 40, 12
else:
    N, BLOCK, PERIPHERY, BATCH = 56, 12, 150, 24
P = 16  # Brent projection processor count


def _trace():
    _, edges = gen.planted_dense(N, BLOCK, p_in=0.8, out_edges=PERIPHERY, seed=22)
    return streams.insert_then_delete(edges, BATCH, seed=22)


def measure(traced: bool = False):
    """Drive both ladders through the stream; return the observables.

    ``traced=True`` arms a phase tracer (telemetry never perturbs the
    cost model, so a traced run stays bit-comparable) and returns the
    aggregated span tree for the BENCH phase-share block.
    """
    ops = _trace()
    cm = CostModel()
    core = CorenessDecomposition(N, eps=EPS, cm=cm, constants=CONSTANTS, seed=22)
    dens = DensityEstimator(N, eps=EPS, cm=cm, constants=CONSTANTS, seed=22)
    timer = BatchTimer(cm)
    tracer = Tracer(cm) if traced else None
    ctx = trace.tracing(tracer) if traced else _null()
    t0 = wallclock.monotonic()
    with ctx:
        for i, op in enumerate(ops):
            with trace.span("batch", detail={"index": i, "kind": op.kind}):
                with timer.batch(op.kind, op.size):
                    for st in (core, dens):
                        if op.kind == "insert":
                            st.insert_batch(op.edges)
                        else:
                            st.delete_batch(op.edges)
    wall = wallclock.monotonic() - t0
    answers = (core.estimates(), core.max_estimate(), dens.density_estimate())
    return {
        "work": cm.work,
        "depth": cm.depth,
        "wall": wall,
        "answers": answers,
        "series": timer.series,
        "tree": tracer.root if tracer is not None else None,
    }


def _null():
    import contextlib

    return contextlib.nullcontext()


def run_experiment() -> Experiment:
    run = measure(traced=True)
    t16 = project(run["work"], run["depth"], [P])[0].time_upper
    table = render_table(
        ["config", "model work", "depth", "W/D", f"Brent T_{P} (<=)", "wall"],
        [
            (
                "serial",
                run["work"],
                run["depth"],
                f"{parallelism(run['work'], run['depth']):.1f}",
                f"{t16:.0f}",
                f"{run['wall']:.2f}s",
            )
        ],
    )
    write_bench(
        "e22_ladder_scaling",
        run["series"],
        tree=run["tree"],
        extra={
            "configs": {
                "serial": {
                    "work": run["work"],
                    "depth": run["depth"],
                    "wall_seconds": run["wall"],
                },
            },
        },
    )
    return Experiment(
        exp_id="E22",
        title="ladder sharding — the rung sweep",
        claim=(
            "the ladder's rungs are independent, so one rung sweep is a "
            "parallel-for whose depth is the deepest rung's"
        ),
        table=table,
        conclusion=(
            "the Brent bound projects the sweep's W/D parallelism from "
            "the serial run's work and depth; every rung runs every batch, "
            "so no batch pays for an earlier one."
        ),
    )


def test_e22_wallclock(benchmark):
    benchmark.pedantic(lambda: measure(), rounds=1, iterations=1)


if __name__ == "__main__":
    print(run_experiment().render())
