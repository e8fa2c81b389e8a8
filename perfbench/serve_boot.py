"""Start ``repro serve`` with the benchmark's hooks, then dump what they saw.

Usage::

    python3 perfbench/serve_boot.py --mode bare|traced --out R.json [--cpu C] -- \\
        serve --data-dir D --port 0

``--cpu`` pins the process to that vCPU before anything else runs.

Both modes run the CLI's ``serve`` entry with the arguments given and,
when it returns (SIGTERM drains it), write to ``--out`` each tenant's
work, depth and counters, the start and end of every
``TenantShard.apply`` call, and the calibration probes (:mod:`common`)
the process ran: one when it started, and one per SIGUSR1.  The load
generator sends SIGUSR1 only while the server is idle — every batch sent
is committed, the next is not yet due, and its reader is pausing — so a
probe never delays a batch or a query and no server load slows it down.
Times are on the monotonic clock the load generator shares.  ``bare``
adds only these hooks, two clock reads per commit, and a constructor hook
that finds the tenants; ``traced`` additionally installs every timing and
counting shim (:mod:`shims`) beneath the apply timer and writes the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import os
import signal
import sys
from pathlib import Path

import shims
from common import now, seconds_per_kiter, use_source, write_json


def probe() -> tuple[float, float]:
    """(midpoint time, cost) of one run of the calibration loop."""
    t0 = now()
    cost = seconds_per_kiter()
    return (t0 + now()) / 2, cost


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("bare", "traced"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    probes = [probe()]  # before the program is imported

    use_source()
    from repro import cli
    from repro.service.state import TenantShard

    rec = shims.Recorder()
    if args.mode == "traced":
        shims.install_algorithm(rec)
        shims.install_service(rec)
    tenants: list = []

    def collect(init):
        @functools.wraps(init)
        def __init__(shard, *a, **k):
            init(shard, *a, **k)
            tenants.append(shard)

        return __init__

    shims.wrap(TenantShard, "__init__", collect)
    #: epoch -> (start, end) of the apply that committed it, timed outside
    #: every shim, so the traced run can check what its layers account for
    applies: dict[int, tuple[float, float]] = {}

    def timed(apply):
        @functools.wraps(apply)
        def timed_apply(shard, op):
            t0 = now()
            epoch = apply(shard, op)
            applies[epoch] = (t0, now())
            return epoch

        return timed_apply

    shims.wrap(TenantShard, "apply", timed)
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: probes.append(probe()))
    try:
        code = cli.main(cli_args)
    finally:
        payload: dict = {
            "tenants": {
                shard.name: {
                    "work": shard.cm.work,
                    "depth": shard.cm.depth,
                    "counters": dict(sorted(shard.cm.counters.items())),
                    "applied": shard.applied,
                }
                for shard in tenants
            },
            "applies": applies,
            "probes": probes,
        }
        if args.mode == "traced":
            layers = shims.algorithm_metrics(rec)
            layers.update(shims.service_metrics(rec))
            payload["layers"] = layers
            # apply's own self time is the commit's bookkeeping once the
            # snapshot rebuild has a span of its own; otherwise it is publish
            split = "service.publish" in {span[2] for span in rec.spans}
            payload["apply_attributed"] = shims.attributed(
                rec.spans, root="service.apply", catch_all="service.apply" if split else None
            )
            payload["publish_split"] = split
            payload["spans"] = len(rec.spans)
        write_json(Path(args.out), payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
