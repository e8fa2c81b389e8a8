"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload replay-grow --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from the
checkout's ``src``.  ``--trace 0`` measures the end-to-end metrics with
no shims installed; ``--trace 1`` runs the traced variant and reports
the per-layer metrics.  ``BENCHMARK.json`` lists both and says why each
workload exists; ``perfbench/predictions.json`` says which end-to-end
metric each layer metric should move, on which workload, and what each
end-to-end metric means on each workload.

Output: one line per metric (value, unit, sample count), a ``record``
line carrying the environment stamp (``nproc``, Python version,
calibration score) and the run's notes and failures, and as the last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every correctness gate held; without the
program's source it is 2 and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

from common import ROOT, WORK_ROOT, env_stamp, source_present, use_source

WORKLOADS = ("replay-grow", "replay-churn", "serve-mixed")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny inputs, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not source_present():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    use_source()
    spec = _spec()

    import replay
    import serve

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = serve.run if args.workload == "serve-mixed" else replay.run
        res = runner(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    if args.trace:
        metrics = {}
        for m in spec["per_layer"]:
            value = res.layers.get(m["name"], 0.0)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<28} {value:>16.6g} {m['unit']}")
    else:
        metrics = {}
        for m in spec["end_to_end"]:
            if m["name"] not in res.metrics:
                res.fail(f"workload produced no {m['name']}")
                continue
            value, unit, samples = res.metrics[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": unit}
            print(f"  {m['name']:<16} {value:>14.6g} {unit:<6} (n={samples})")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_stamp(),
        "notes": res.notes,
        "layers": {} if args.trace else res.layers,
        "failures": res.failures,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": res.correct,
                "attempted": max(1, res.attempted),
                "failed": res.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
