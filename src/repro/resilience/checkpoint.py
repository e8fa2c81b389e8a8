"""Logical checkpoints for the full ladder structures (JSON-able).

``core/snapshot.py`` checkpoints a single ``BALANCED(H)``; a production
restart needs the same story for the Theorem 1.1/1.2 ladders.  A ladder
checkpoint records the *construction parameters* (n, eps, seed, h_max,
constants) plus, per rung, the logical state of every inner balanced
orientation (arcs + levels).  Restoring builds a fresh ladder from the
parameters — which deterministically reproduces the rung skeleton,
regimes, duplication factors and sampler seeds — and then re-files each
inner orientation through the audited ``_arc_add`` funnel.

Together with the write-ahead trace log
(:class:`~repro.graphs.tracefile.TraceWriter`), restart becomes
*restore checkpoint + replay the trace suffix*; the service's
:class:`~repro.service.state.TenantShard` packages both.

All malformed-payload errors surface as :class:`~repro.errors.BatchError`
or :class:`~repro.errors.ParameterError` with a clear message, matching
the hardened ``core/snapshot.py`` contract.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Optional

from ..config import Constants
from ..errors import BatchError
from ..graphs.graph import norm_edge
from ..instrument.work_depth import CostModel
from .guard import _rebuild_balanced


def _balanced_state(bal: Any) -> dict[str, Any]:
    """Logical (arcs, levels) of one inner orientation — JSON-able."""
    return {
        "arcs": [list(a) for a in sorted(bal.arcs())],
        "levels": {str(v): lvl for v, lvl in sorted(bal.level.items()) if lvl},
    }


def _load_balanced_state(bal: Any, state: dict[str, Any]) -> None:
    """Re-file a freshly constructed orientation from a saved state."""
    if not isinstance(state, dict) or "arcs" not in state or "levels" not in state:
        raise BatchError("checkpoint rung state missing 'arcs'/'levels'")
    try:
        levels = {int(v): int(lvl) for v, lvl in dict(state["levels"]).items()}
        arcs = [(int(t), int(h), int(c)) for t, h, c in state["arcs"]]
    except (TypeError, ValueError) as exc:
        raise BatchError(f"checkpoint rung state is malformed: {exc}") from exc
    tail_of: dict[tuple[int, int, int], int] = {}
    for tail, head, copy in arcs:
        a, b = norm_edge(tail, head)
        key = (a, b, copy)
        if key in tail_of:
            raise BatchError(f"checkpoint rung state repeats arc {key}")
        tail_of[key] = tail
        levels.setdefault(tail, 0)
    snap = {
        "tail_of": tail_of,
        "level": levels,
        "vertex_label": {},
        "journals": ([], [], []),
    }
    _rebuild_balanced(bal, snap)


# -- checkpoint (structure -> payload) ----------------------------------------


def checkpoint(st: Any) -> dict[str, Any]:
    """A JSON-able checkpoint payload for any supported structure."""
    from ..core.balanced import BalancedOrientation
    from ..core.coreness import CorenessDecomposition
    from ..core.density import DensityEstimator

    if isinstance(st, BalancedOrientation):
        from ..core.snapshot import snapshot

        snap = snapshot(st)
        return {
            "type": "balanced",
            "H": snap["H"],
            "arcs": [list(a) for a in snap["arcs"]],
            "levels": {str(v): lvl for v, lvl in snap["levels"].items()},
        }
    if isinstance(st, (CorenessDecomposition, DensityEstimator)):
        kind = "coreness" if isinstance(st, CorenessDecomposition) else "density"
        payload: dict[str, Any] = {
            "type": kind,
            "n": st.n,
            "eps": st.eps,
            "seed": st.seed,
            "h_max": st.h_max,
            "constants": asdict(st.constants),
            "rungs": [_rung_state(rung) for rung in st.rungs],
        }
        if kind == "coreness":
            payload["touched"] = sorted(st._touched)
        return payload
    raise BatchError(f"cannot checkpoint {type(st).__name__}")


def _rung_state(rung: Any) -> dict[str, Any]:
    if hasattr(rung, "bal"):  # FixedHCorenessEstimator
        inner = rung.dup.inner if rung.dup is not None else rung.bal
        return {"inner": _balanced_state(inner)}
    # FixedHDensityGuard
    state: dict[str, Any] = {
        "changed": [list(e) for e in sorted(rung.changed_edges)],
    }
    if rung.dup is not None:
        state["dup"] = _balanced_state(rung.dup.inner)
    else:
        state["buckets"] = {
            str(i): _balanced_state(bucket) for i, bucket in rung._buckets.items()
        }
    return state


# -- restore (payload -> structure) -------------------------------------------


def restore_checkpoint(payload: dict[str, Any], cm: Optional[CostModel] = None) -> Any:
    """Rebuild a structure from a :func:`checkpoint` payload and verify it.

    Payloads written before storage had a single layout carry a
    ``substrate`` tag; it is ignored, whatever its value.
    """
    if not isinstance(payload, dict):
        raise BatchError("checkpoint payload must be a mapping")
    kind = payload.get("type")
    if kind == "balanced":
        from ..core.snapshot import restore

        snap = {
            "H": payload.get("H"),
            "arcs": [tuple(a) for a in payload.get("arcs", [])],
            "levels": payload.get("levels", {}),
        }
        return restore(snap, cm=cm)
    if kind not in ("coreness", "density"):
        raise BatchError(f"unknown checkpoint type {kind!r}")
    for key in ("n", "eps", "seed", "constants", "rungs"):
        if key not in payload:
            raise BatchError(f"checkpoint missing key {key!r}")
    try:
        constants = Constants(**dict(payload["constants"]))
    except TypeError as exc:
        raise BatchError(f"checkpoint constants are malformed: {exc}") from exc
    h_max = payload.get("h_max")
    try:
        n, eps, seed = int(payload["n"]), float(payload["eps"]), int(payload["seed"])
        h_max = None if h_max is None else int(h_max)
    except (TypeError, ValueError) as exc:
        raise BatchError(f"checkpoint parameters are malformed: {exc}") from exc

    from ..core.coreness import CorenessDecomposition
    from ..core.density import DensityEstimator

    cls = CorenessDecomposition if kind == "coreness" else DensityEstimator
    st = cls(n, eps=eps, cm=cm, constants=constants, seed=seed, h_max=h_max)
    rungs = payload["rungs"]
    if not isinstance(rungs, list):
        raise BatchError("checkpoint 'rungs' must be a list")
    if len(rungs) != len(st.rungs):
        raise BatchError(
            f"checkpoint has {len(rungs)} rungs but the ladder rebuilt with "
            f"{len(st.rungs)} — parameters and checkpoint disagree"
        )
    for rung, state in zip(st.rungs, rungs):
        _load_rung_state(rung, state)
    if kind == "coreness":
        try:
            st._touched = {int(v) for v in payload.get("touched", [])}
        except (TypeError, ValueError) as exc:
            raise BatchError(f"checkpoint 'touched' is malformed: {exc}") from exc
    st.check_invariants()
    return st


def _load_rung_state(rung: Any, state: dict[str, Any]) -> None:
    if not isinstance(state, dict):
        raise BatchError("checkpoint rung entry must be a mapping")
    if hasattr(rung, "bal"):  # coreness rung
        if "inner" not in state:
            raise BatchError("coreness rung state missing 'inner'")
        inner = rung.dup.inner if rung.dup is not None else rung.bal
        _load_balanced_state(inner, state["inner"])
        return
    # density rung
    try:
        rung.changed_edges = {
            norm_edge(int(a), int(b)) for a, b in state.get("changed", [])
        }
    except (TypeError, ValueError) as exc:
        raise BatchError(f"density rung 'changed' is malformed: {exc}") from exc
    if rung.dup is not None:
        if "dup" not in state:
            raise BatchError("duplication-regime rung state missing 'dup'")
        _load_balanced_state(rung.dup.inner, state["dup"])
    else:
        buckets = state.get("buckets")
        if not isinstance(buckets, dict):
            raise BatchError("bucket-regime rung state missing 'buckets'")
        rung._buckets = {}
        for key, bucket_state in buckets.items():
            try:
                index = int(key)
            except (TypeError, ValueError) as exc:
                raise BatchError(f"bucket index {key!r} is not an int") from exc
            if not (0 <= index < rung.T):
                raise BatchError(f"bucket index {index} outside [0, {rung.T})")
            _load_balanced_state(rung._bucket(index), bucket_state)


# -- JSON helpers -------------------------------------------------------------


def to_json(st: Any) -> str:
    """Serialise a structure checkpoint to a JSON string."""
    return json.dumps(checkpoint(st))


def from_json(text: str, cm: Optional[CostModel] = None) -> Any:
    """Rebuild a structure from :func:`to_json` output."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BatchError(f"checkpoint is not valid JSON: {exc}") from exc
    return restore_checkpoint(payload, cm=cm)
