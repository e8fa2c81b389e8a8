"""Golden contract: the orientation storage reproduces recorded streams.

``golden_streams.json`` holds, for four seeded streams, every query
answer after every batch, the cost model's work and depth after every
batch, and the final counters.  The figures were recorded on the
[PP01]-substitute search trees the storage layer used before the sorted
slabs of ``core/outset.py`` and ``core/inindex.py`` replaced them; since
all charges are analytic and live in the callers, any storage layout
must reproduce them exactly.

The streams:

* ``e21`` -- E21's trace (ER n=48, m=240, insert then delete in batches
  of 24, seed 21) through the coreness ladder, with E21's constants;
* ``ba_grow`` -- a Barabasi-Albert insert-only stream through both
  ladders;
* ``er_window`` -- an Erdos-Renyi sliding-window stream (inserts plus
  expiring deletes) through both ladders;
* ``er_window_strict`` -- a denser sliding-window stream through both
  ladders with ``strict_paper_transparency=True``: the E15 ablation path
  of the token-pushing game, recorded before the in-index dropped edge
  labels from its filing key.

Regenerate (only when a change is *meant* to move answers or charges)::

    PYTHONPATH=src python -m tests.core.test_golden_contract --write
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import Constants
from repro.core.coreness import CorenessDecomposition
from repro.core.density import DensityEstimator
from repro.graphs import generators, streams
from repro.instrument.work_depth import CostModel

GOLDEN = Path(__file__).with_name("golden_streams.json")

#: E21's constants (benchmarks/common.py), used for every other stream.
CONSTANTS = Constants(sample_c=0.5, min_B=4, duplication_cap=8)
#: The same constants with the paper's literal transparency rule (E15).
STRICT = replace(CONSTANTS, strict_paper_transparency=True)


def _spec(name: str):
    """(n, ops, eps, seed, ladders, constants) of one golden stream."""
    both = ("coreness", "density")
    if name == "e21":
        n, edges = generators.erdos_renyi(48, 240, seed=21)
        ops = streams.insert_then_delete(edges, 24, seed=21)
        return n, ops, 0.35, 21, ("coreness",), CONSTANTS
    if name == "ba_grow":
        n, edges = generators.barabasi_albert(40, 3, seed=7)
        return n, streams.insert_only(edges, 8), 0.3, 7, both, CONSTANTS
    if name == "er_window":
        n, edges = generators.erdos_renyi(32, 96, seed=11)
        return n, streams.sliding_window(edges, 4, 8), 0.3, 11, both, CONSTANTS
    if name == "er_window_strict":
        n, edges = generators.erdos_renyi(32, 160, seed=13)
        return n, streams.sliding_window(edges, 4, 12), 0.3, 13, both, STRICT
    raise KeyError(name)


STREAMS = ("e21", "ba_grow", "er_window", "er_window_strict")


def record(name: str) -> dict:
    """Replay one stream and record its answers and accounting."""
    n, ops, eps, seed, ladders, constants = _spec(name)
    cm = CostModel()
    kw = dict(eps=eps, cm=cm, constants=constants, seed=seed)
    core = CorenessDecomposition(n, **kw) if "coreness" in ladders else None
    dens = DensityEstimator(n, **kw) if "density" in ladders else None
    batches = []
    for op in ops:
        for st in (core, dens):
            if st is None:
                continue
            if op.kind == "insert":
                st.insert_batch(op.edges)
            else:
                st.delete_batch(op.edges)
        row: dict = {"work": cm.work, "depth": cm.depth}
        if core is not None:
            row["estimates"] = [[v, est] for v, est in core.estimates().items()]
            row["max_estimate"] = core.max_estimate()
        if dens is not None:
            row["density"] = dens.density_estimate()
            row["arboricity"] = dens.arboricity_estimate()
            row["max_outdegree"] = dens.max_outdegree()
        batches.append(row)
    out: dict = {"batches": batches}
    if dens is not None:
        out["orientation"] = [dens.orientation_out(v) for v in range(n)]
    out["final"] = {
        "work": cm.work,
        "depth": cm.depth,
        "counters": dict(sorted(cm.counters.items())),
    }
    return out


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", STREAMS)
def test_stream_reproduces_golden(name):
    expected = _load()[name]
    got = json.loads(json.dumps(record(name)))  # same tuple/list normal form
    assert len(got["batches"]) == len(expected["batches"])
    for i, (g, e) in enumerate(zip(got["batches"], expected["batches"])):
        assert g == e, f"{name}: batch {i} diverges"
    assert got.get("orientation") == expected.get("orientation")
    assert got["final"] == expected["final"]


def test_golden_covers_every_stream():
    assert sorted(_load()) == sorted(STREAMS)


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        raise SystemExit("usage: python -m tests.core.test_golden_contract --write")
    GOLDEN.write_text(
        json.dumps({name: record(name) for name in STREAMS}, separators=(",", ":"))
        + "\n"
    )
    print(f"wrote {GOLDEN}")
