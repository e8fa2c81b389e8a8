"""One replay round in a fresh process: the ``repro run --mode both`` path.

Usage (spawned by ``replay.py``; prints ``READY <c0> <c1>`` once set up,
with the calibration cost measured at the start and at the end of set-up)::

    python3 perfbench/replay_worker.py --trace T --out R.json \\
        --subset 1,2,3 --oriented 4,5 [--cost plain|null] [--traced] [--setup-only]

Set-up is what ``repro run`` does before its first batch: import the
program, scan and read the trace, build both ladders with the CLI's
defaults (``eps`` and ``constants``; no backend flags).  The replay then
applies every batch to both ladders and, after each commit, runs the
serve reader's query mix in-process twice (the first read after a commit
sees cold query caches, the second warm ones).  The mix's vertices come
from the parent (``inputs.query_vertices``), as the serve reader's do.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import shims
from common import REFERENCE_KITER_PER_S, now, seconds_per_kiter, use_source, write_json

#: in-process reads per committed batch (see the module docstring).
READS_PER_BATCH = 2


def query_mix(core, dens, subset, oriented):
    """The serve reader's mix against the live ladders, as (name, call)."""
    return (
        ("stats", lambda: core.max_estimate()),
        ("coreness_subset", lambda: core.estimates(subset)),
        ("coreness", lambda: core.estimates()),
        (
            "density",
            lambda: (
                dens.density_estimate(),
                dens.arboricity_estimate(),
                dens.max_outdegree(),
            ),
        ),
        ("orientation", lambda: {v: sorted(dens.orientation_out(v)) for v in oriented}),
    )


def answers(core, dens) -> dict:
    """Everything a run is judged by: estimates, density, orientation."""
    coreness = core.estimates()
    return {
        "coreness": {str(v): c for v, c in sorted(coreness.items())},
        "max_coreness": core.max_estimate(),
        "density": dens.density_estimate(),
        "arboricity": dens.arboricity_estimate(),
        "max_outdegree": dens.max_outdegree(),
        "orientation": {
            str(v): sorted(dens.orientation_out(v)) for v in sorted(coreness)
        },
    }


def _vertices(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--subset", type=_vertices, required=True)
    parser.add_argument("--oriented", type=_vertices, required=True)
    parser.add_argument("--cost", choices=("plain", "null"), default="plain")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    setup_cost = seconds_per_kiter()

    use_source()
    from repro.cli import CONSTANTS, build_parser
    from repro.core import CorenessDecomposition, DensityEstimator
    from repro.graphs import tracefile
    from repro.instrument.work_depth import CostModel, NullCostModel

    rec = None
    if args.traced:
        rec = shims.Recorder()
        shims.install_algorithm(rec)

    def read(path):
        info = tracefile.scan_trace(path)
        return info, list(tracefile.iter_trace(path))

    if rec is not None:
        read = rec.span("tracefile.read", read)
    info, ops = read(args.trace)
    n = max(info.vertices, 2)
    eps = build_parser().parse_args(["run", "--trace", args.trace]).eps
    cm = NullCostModel() if args.cost == "null" else CostModel()
    core = CorenessDecomposition(n, eps=eps, cm=cm, constants=CONSTANTS)
    dens = DensityEstimator(n, eps=eps, cm=cm, constants=CONSTANTS)
    mix = query_mix(core, dens, args.subset, args.oriented)
    print(f"READY {setup_cost!r} {seconds_per_kiter()!r}", flush=True)
    if args.setup_only:
        return 0

    batch_walls: list[float] = []
    query_walls: list[float] = []
    #: calibration cost (s per kilo-iteration) around each batch / read round
    batch_costs: list[float] = []
    query_costs: list[float] = []

    #: wall of the calibration probes inside the replay loop
    probe_wall = 0.0

    def probe() -> float:
        nonlocal probe_wall
        p0 = now()
        cost = seconds_per_kiter()
        probe_wall += now() - p0
        return cost

    first_span = len(rec.spans) if rec is not None else 0
    t0 = now()
    before = probe()
    for op in ops:
        b0 = now()
        for st in (core, dens):
            if op.kind == "insert":
                st.insert_batch(op.edges)
            else:
                st.delete_batch(op.edges)
        batch_walls.append(now() - b0)
        middle = probe()
        batch_costs.append((before + middle) / 2)
        for _ in range(READS_PER_BATCH):
            for _name, call in mix:
                q0 = now()
                call()
                query_walls.append(now() - q0)
        before = probe()
        query_costs.extend([(middle + before) / 2] * (READS_PER_BATCH * len(mix)))
    loop_wall = now() - t0
    updates = sum(op.size for op in ops)

    result = {
        "n": n,
        "eps": eps,
        "batches": len(ops),
        "updates": updates,
        "loop_wall": loop_wall,
    }
    if rec is not None:
        # measured before the final answers below add query spans
        layers = shims.algorithm_metrics(rec)
        layers["substrate.moves_per_update"] = layers["substrate.inindex_moves"] / updates
        layers["tracefile.read_s"] = shims.layer_totals(rec.spans)[0].get(
            "tracefile.read", 0.0
        )
        result["layers"] = layers
        # every span of the loop is a named layer; the probes are the
        # benchmark's own work, so they leave the wall
        result["attributed"] = shims.attributed(rec.spans[first_span:])
        result["traced_wall"] = loop_wall - probe_wall
        result["spans"] = len(rec.spans)
    scale = 1.0 / REFERENCE_KITER_PER_S
    result.update(
        batch_walls=batch_walls,
        query_walls=query_walls,
        batch_cal=[w * scale / c for w, c in zip(batch_walls, batch_costs)],
        query_cal=[w * scale / c for w, c in zip(query_walls, query_costs)],
        answers=answers(core, dens),
        work=cm.work,
        depth=cm.depth,
        counters=dict(sorted(cm.counters.items())),
    )
    write_json(Path(args.out), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
