"""Correctness gates against the exact oracles (Theorems 1.1 and 1.2).

* Thm 1.1: every vertex with ``core(v) >= 1`` has
  ``(1/2 - eps) core(v) <= core_ALG(v) <= (2 + eps) core(v)``.
* Thm 1.2: the estimate is the first "low" rung ``H_k`` of the ladder, so
  ``rho <= (1 + eps) H_k`` (rung k certifies "low") and, when ``k > 0``,
  ``rho > (1 - eps) H_{k-1}`` (rung k-1 certifies "high").
"""

from __future__ import annotations


def check(res, answers: dict, graph, n: int, eps: float) -> None:
    """Count one band check per vertex and one for the density."""
    from repro.baselines import core_numbers, exact_density
    from repro.config import ladder_heights

    estimates = {int(v): c for v, c in answers["coreness"].items()}
    for v, core in sorted(core_numbers(graph).items()):
        if core < 1:
            continue
        res.attempt(1)
        est = estimates.get(v)
        if est is None or not ((0.5 - eps) * core <= est <= (2.0 + eps) * core):
            res.fail(f"Thm 1.1 band: vertex {v} core={core} estimate={est}")
    res.attempt(1)
    rho = exact_density(graph)
    est = answers["density"]
    heights = ladder_heights(n, eps)
    k = heights.index(int(est)) if int(est) in heights else -1
    low_ok = k >= 0 and rho <= (1.0 + eps) * est
    high_ok = k <= 0 or rho > (1.0 - eps) * heights[k - 1]
    if not (low_ok and high_ok):
        res.fail(f"Thm 1.2 band: rho={rho:.4f} estimate={est}")
