"""Seeded inputs of every workload.

Each workload's inputs are a pure function of ``(workload, seed, scale)``
built with the generators and stream shapers behind ``repro generate``;
the program under test only ever receives the resulting trace file or
ingest batches.  Sizes are chosen so that one replay round takes a few
seconds on a 2-core box and the serve stream keeps the server well below
saturation (see ``BENCHMARK.json`` for why each workload exists).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: edges per batch of the replay workloads (the ``repro generate`` shape).
REPLAY_BATCH = 8
#: independent traces per replay workload and seed.
TRACES = {"full": 3, "tiny": 2}


@dataclass(frozen=True)
class ReplaySpec:
    family: str  # "ba" growth or "er" sliding-window expiry
    n: int
    size: int  # BA attachments per vertex, or ER edge count
    window: int = 0


@dataclass(frozen=True)
class ServeSpec:
    n: int  # tenant universe
    batch: int  # edges per ingest batch
    window: int  # batches an edge stays live
    rate: float  # offered ingest batches per second (open loop)
    subset: int  # vertices per coreness-subset query
    oriented: int  # vertices per orientation query
    think_ms: float  # reader pause between a response and its next query


REPLAY = {
    "replay-grow": {
        "full": ReplaySpec("ba", n=150, size=3),
        "tiny": ReplaySpec("ba", n=24, size=2),
    },
    "replay-churn": {
        "full": ReplaySpec("er", n=120, size=240, window=4),
        "tiny": ReplaySpec("er", n=24, size=40, window=2),
    },
}

SERVE = {
    # Measured on a 2-vCPU box: one TenantShard.apply of an 8-edge batch
    # (64 live edges) takes 180-190 ms alone and ~270 ms beside the reader,
    # so at half load only 2 batches/s fit, 50 in a 25 s run: too few for a
    # p90 with 10 samples beyond it.  2-edge batches over a 16-batch window
    # (32 live edges) take ~56 ms alone and ~82 ms beside the reader.  At
    # 5/s the apply lane was 26-47% busy, and a query that meets a running
    # apply waits a 5 ms GIL switch interval, so the query p50 sat on the
    # edge of that second mode and spread 41% between seeds.  4/s keeps the
    # lane about 30% busy and gives 100 batches in 25 s; the final snapshot
    # holds ~185 touched vertices.
    "full": ServeSpec(n=512, batch=2, window=16, rate=4.0, subset=16, oriented=4, think_ms=5.0),
    "tiny": ServeSpec(n=32, batch=3, window=3, rate=8.0, subset=6, oriented=3, think_ms=2.0),
}


def replay_traces(workload: str, seed: int, scale: str = "full") -> list[list]:
    """The batch streams of a replay workload: ``TRACES`` independent draws.

    Several smaller graphs per seed rather than one large one: the tail
    percentiles then rest on more distinct batches, so they depend less on
    which seed drew the inputs.
    """
    from repro.graphs import generators, streams

    spec = REPLAY[workload][scale]
    out = []
    for j in range(TRACES[scale]):
        sub = seed * 16 + j
        if spec.family == "ba":
            _n, edges = generators.barabasi_albert(spec.n, spec.size, seed=sub)
            out.append(streams.insert_only(edges, REPLAY_BATCH))
        else:
            _n, edges = generators.erdos_renyi(spec.n, spec.size, seed=sub)
            out.append(
                streams.sliding_window(edges, window=spec.window, batch_size=REPLAY_BATCH)
            )
    return out


def serve_ops(seed: int, seconds: float, scale: str = "full") -> list:
    """``rate x seconds`` churn batches: an expiring window over G(n, m)."""
    from repro.graphs import generators, streams

    spec = SERVE[scale]
    count = max(2, int(round(spec.rate * seconds)))
    # a sliding window emits ~2 batches per chunk once it is full
    chunks = count // 2 + spec.window + 1
    _n, edges = generators.erdos_renyi(spec.n, chunks * spec.batch, seed=seed)
    # shuffle so a batch is not a run of edges sharing their low endpoint
    random.Random(seed).shuffle(edges)
    ops = streams.sliding_window(edges, window=spec.window, batch_size=spec.batch)
    return ops[:count]


def query_vertices(ops: list, seed: int, scale: str = "full") -> tuple[list[int], list[int]]:
    """(coreness-subset vertices, orientation vertices) of the reader mix.

    The serve reader and the replay workloads' in-process reads both use
    them.  Drawn from the stream's endpoints so the answers are not
    trivially empty.
    """
    spec = SERVE[scale]
    endpoints = sorted({x for op in ops for e in op.edges for x in e})
    rng = random.Random(seed ^ 0x5EED)
    subset = sorted(rng.sample(endpoints, min(spec.subset, len(endpoints))))
    oriented = sorted(rng.sample(endpoints, min(spec.oriented, len(endpoints))))
    return subset, oriented
