"""The record one benchmark run fills in and ``run.py`` prints."""

from __future__ import annotations

import math

#: the named layers' self times must sum to the traced wall, measured
#: outside the shims, within this share of it.  The rest is time no layer
#: covers: the replay loop's own bookkeeping, or what ``TenantShard.apply``
#: does around the ladder commit and the snapshot rebuild.
UNATTRIBUTED_TOLERANCE = 0.02


class Outcome:
    """Operations attempted and failed, metrics, per-layer numbers."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: end-to-end metric -> (value, unit, samples)
        self.metrics: dict[str, tuple[float, str, int]] = {}
        #: per-layer metric -> value (units come from BENCHMARK.json)
        self.layers: dict[str, float] = {}
        self.notes: dict[str, object] = {}

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        if value is None or math.isnan(value):
            self.fail(f"metric {name} has no samples")
            value = 0.0
        self.metrics[name] = (float(value), unit, samples)

    def note(self, key: str, value: object) -> None:
        self.notes[key] = value

    def attribution_check(self, attributed: float, wall: float) -> None:
        """Gate: the named layers account for the traced wall."""
        self.attempt(1)
        share = (wall - attributed) / wall if wall > 0 else float("inf")
        self.layers["trace.unattributed_frac"] = share
        if abs(share) > UNATTRIBUTED_TOLERANCE:
            self.fail(
                f"named layers account for {attributed:.6f}s of a {wall:.6f}s "
                f"traced wall ({share:+.2%} unattributed, tolerance "
                f"{UNATTRIBUTED_TOLERANCE:.0%})"
            )

    @property
    def correct(self) -> bool:
        return self.failed == 0
