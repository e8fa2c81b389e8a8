"""Resilience subsystem: fault injection, transactions, tiered recovery.

Four layers (docs/ROBUSTNESS.md has the full failure model):

* :mod:`~repro.resilience.faults` — a deterministic, seeded fault injector
  with named injection sites instrumented into the hot paths (token games,
  bundle extraction, hash-table batch ops).  Zero overhead while disarmed.
* :mod:`~repro.resilience.guard` — transactional batch application: a
  ``guarded`` context manager that makes a structure's batch
  apply-fully-or-rollback (strong exception safety).
* :mod:`~repro.resilience.checkpoint` — logical checkpoints (JSON-able)
  for the full ladder structures, extending ``core/snapshot.py`` beyond
  the single orientation, so restart = restore + replay the trace suffix.
* :mod:`~repro.resilience.recovery` — the tiered
  :class:`~repro.resilience.recovery.RecoveryManager`: rollback →
  checkpoint + WAL replay → full rebuild, recording which tier fired.
* :mod:`~repro.resilience.chaos` — the randomized soak harness behind
  ``repro chaos`` and benchmark E20.

``faults`` and ``guard`` import nothing from :mod:`repro.core` at module
scope (the core structures import *them*); the heavier layers are loaded
lazily here to keep the import graph acyclic.
"""

from __future__ import annotations

from . import faults
from .faults import SITES, FaultInjector, FaultSpec, injecting
from .guard import capture, guarded, rollback

_LAZY = {
    "checkpoint": ".checkpoint",
    "recovery": ".recovery",
    "chaos": ".chaos",
    "RecoveryManager": ".recovery",
    "ChaosReport": ".chaos",
    "chaos_soak": ".chaos",
    "run_trial": ".chaos",
    "minimize_trial": ".chaos",
}

__all__ = [
    "SITES",
    "FaultInjector",
    "FaultSpec",
    "capture",
    "faults",
    "guarded",
    "injecting",
    "rollback",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    """Lazily import the layers that depend on :mod:`repro.core`."""
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target, __name__)
    if target.lstrip(".") == name:
        return module
    return getattr(module, name)
