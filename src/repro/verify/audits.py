"""Deep cross-verification against exact oracles — the audit layer.

``check_invariants()`` methods verify *internal* consistency; this module
verifies structures against *external* ground truth:

* :func:`audit_orientation` — a BALANCED(H) structure against the graph
  it is supposed to orient (edge sets equal, orientation complete,
  H-balanced, levels reconciled);
* :func:`audit_coreness` — estimator output against exact peeling, with
  the Theorem 5.1/1.1 band scaled by configurable slack;
* :func:`audit_density` — the density ladder against the exact flow
  oracle and the flow-optimal orientation;
* :func:`replay_audit` — replays a batch stream, auditing after every
  batch; used by the CLI's ``verify`` subcommand and the soak tests.

Every function returns an :class:`AuditReport`; ``ok`` is False with a
list of findings rather than raising, so operators can log everything.

The differential layer on top of these absolute audits lives in
:mod:`repro.verify.differential` (docs/VERIFICATION.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import InvariantViolation
from ..graphs.streams import BatchOp
from ..instrument import trace as _trace

#: How many example violations each finding embeds before summarising.
SAMPLE_LIMIT = 3


@dataclass
class AuditReport:
    """Accumulated invariant-audit findings; ``ok`` iff none."""

    subject: str
    findings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, finding: str) -> None:
        self.findings.append(finding)

    def merge(self, other: "AuditReport") -> None:
        self.findings.extend(f"{other.subject}: {f}" for f in other.findings)

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.findings)} finding(s)"
        lines = [f"[{status}] {self.subject}"]
        lines.extend(f"  - {f}" for f in self.findings)
        return "\n".join(lines)


def audit_orientation(st, graph) -> AuditReport:
    """BALANCED(H) vs the ground-truth graph."""
    from ..core.levels import is_h_balanced_edge

    report = AuditReport(f"BALANCED({st.H})")
    try:
        st.check_invariants()
    except InvariantViolation as exc:
        report.add(f"internal invariant broken: {exc}")
    ours = {(a, b) for (a, b, _c) in st.tail_of}
    if ours != graph.edges:
        missing = graph.edges - ours
        extra = ours - graph.edges
        if missing:
            report.add(f"{len(missing)} graph edges absent (e.g. {sorted(missing)[:SAMPLE_LIMIT]})")
        if extra:
            report.add(f"{len(extra)} phantom edges (e.g. {sorted(extra)[:SAMPLE_LIMIT]})")
    unbalanced = 0
    sample: list[tuple[int, int, int]] = []
    for tail, head, copy in st.arcs():
        if not is_h_balanced_edge(
            st.level.get(tail, 0), st.level.get(head, 0), st.H
        ):
            unbalanced += 1
            if len(sample) < SAMPLE_LIMIT:
                sample.append((tail, head, copy))
    if unbalanced:
        examples = " ".join(f"({t}->{h},{c})" for t, h, c in sample)
        report.add(f"{unbalanced} unbalanced arc(s) (e.g. {examples})")
    total_level = sum(st.level.values())
    if total_level != st.num_arcs():
        report.add(
            f"levels sum to {total_level}, arcs number {st.num_arcs()}"
        )
    return report


def audit_coreness(
    decomposition,
    graph,
    lower: float = 0.1,
    upper: float = 6.0,
    min_core: int = 2,
) -> AuditReport:
    """Estimates vs exact peeling, within [lower, upper] x core."""
    from ..baselines.exact_kcore import core_numbers

    report = AuditReport("coreness band")
    exact = core_numbers(graph)
    for v in sorted(graph.touched_vertices()):
        c = exact.get(v, 0)
        if c < min_core:
            continue
        est = decomposition.estimate(v)
        if not (lower * c <= est <= upper * c):
            report.add(f"vertex {v}: core={c}, estimate={est:.2f} outside band")
    return report


def audit_density(
    estimator,
    graph,
    lower: float = 0.3,
    upper: float = 3.0,
    orientation_factor: float = 3.0,
) -> AuditReport:
    """Density estimate and orientation vs the exact flow oracles."""
    from ..baselines.exact_density import exact_density
    from ..baselines.exact_orientation import min_max_outdegree

    report = AuditReport("density band")
    rho = exact_density(graph)
    est = estimator.density_estimate()
    if rho > 0.5 and not (lower * rho <= est <= max(2.0, upper * rho)):
        report.add(f"rho={rho:.2f}, estimate={est:.2f} outside band")
    if graph.m:
        dstar, _ = min_max_outdegree(graph)
        maxout = estimator.max_outdegree()
        if maxout > orientation_factor * dstar + 1:
            report.add(
                f"orientation max d+ {maxout} vs flow optimum {dstar}"
            )
    return report


def replay_audit(
    ops: Sequence[BatchOp],
    H: Optional[int] = None,
    eps: float = 0.4,
    constants=None,
    audit_every: int = 1,
    deep_every: int = 0,
) -> AuditReport:
    """Replay a stream, auditing the orientation after every batch.

    ``deep_every > 0`` additionally audits coreness/density bands every
    that many batches (expensive: runs the exact oracles).
    """
    from ..config import DEFAULT_CONSTANTS
    from ..core.balanced import BalancedOrientation
    from ..core.coreness import CorenessDecomposition
    from ..core.density import DensityEstimator
    from ..graphs.graph import DynamicGraph

    constants = constants or DEFAULT_CONSTANTS
    report = AuditReport("stream replay")
    graph = DynamicGraph(0)
    # size the orientation to the stream if no hint given
    n_guess = max((max(e) for op in ops for e in op.edges), default=1) + 1
    st = BalancedOrientation(H or 5, constants=constants)
    core = dens = None
    if deep_every:
        core = CorenessDecomposition(n_guess, eps, constants=constants)
        dens = DensityEstimator(n_guess, eps, constants=constants)
    for i, op in enumerate(ops):
        if op.kind == "insert":
            graph.insert_batch(op.edges)
            st.insert_batch(op.edges)
            if core is not None:
                core.insert_batch(op.edges)
                dens.insert_batch(op.edges)
        else:
            graph.delete_batch(op.edges)
            st.delete_batch(op.edges)
            if core is not None:
                core.delete_batch(op.edges)
                dens.delete_batch(op.edges)
        if audit_every and i % audit_every == 0:
            sub = audit_orientation(st, graph)
            if not sub.ok:
                sub.subject += f" (batch {i})"
                report.merge(sub)
        if deep_every and i % deep_every == deep_every - 1:
            with _trace.span("verify.audit", detail={"batch": i}):
                sub = audit_coreness(core, graph)
                if not sub.ok:
                    sub.subject += f" (batch {i})"
                    report.merge(sub)
                sub = audit_density(dens, graph)
                if not sub.ok:
                    sub.subject += f" (batch {i})"
                    report.merge(sub)
    return report
