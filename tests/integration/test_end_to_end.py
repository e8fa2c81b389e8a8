"""End-to-end integration: every layer stacked, against exact oracles."""

import pytest

from repro.apps import ExplicitColoring, ImplicitColoring, MaximalMatching
from repro.baselines import core_numbers, exact_density
from repro.config import Constants
from repro.core import BalancedOrientation, CorenessDecomposition, DensityEstimator
from repro.graphs import DynamicGraph, generators as gen, streams
from repro.instrument import BatchTimer, CostModel, project


SMALL = Constants(sample_c=0.5, min_B=4, duplication_cap=8)


class TestFullPipelineOnDynamicWorkload:
    def test_coreness_pipeline_tracks_exact_through_stream(self):
        n = 30
        cd = CorenessDecomposition(n, eps=0.4, constants=SMALL, seed=1)
        model = DynamicGraph(n)
        ops = streams.churn(n, steps=14, batch_size=8, seed=1)
        for op in ops:
            if op.kind == "insert":
                cd.insert_batch(op.edges)
                model.insert_batch(op.edges)
            else:
                cd.delete_batch(op.edges)
                model.delete_batch(op.edges)
        exact = core_numbers(model)
        for v in model.touched_vertices():
            c = exact.get(v, 0)
            if c >= 2:
                assert 0.15 * c <= cd.estimate(v) <= 5.0 * c

    def test_density_pipeline_through_ramp(self):
        n = 30
        de = DensityEstimator(n, eps=0.4, constants=SMALL, seed=2)
        model = DynamicGraph(n)
        for op in streams.density_ramp(n, block=12, levels=5, per_level=12, seed=2):
            de.insert_batch(op.edges)
            model.insert_batch(op.edges)
            rho = exact_density(model)
            est = de.density_estimate()
            assert est >= 0.4 * rho
            assert est <= max(2.0, 2.5 * rho)

    def test_all_apps_share_one_workload(self):
        n = 24
        mm = MaximalMatching(5, n, eps=0.4, constants=SMALL)
        ec = ExplicitColoring(5, n, eps=0.4, constants=SMALL)
        ic = ImplicitColoring(n, eps=0.4, constants=SMALL)
        live: set = set()
        for op in streams.churn(n, steps=10, batch_size=5, seed=3):
            for app in (mm, ec, ic):
                if op.kind == "insert":
                    app.insert_batch(op.edges)
                else:
                    app.delete_batch(op.edges)
            live = live | set(op.edges) if op.kind == "insert" else live - set(op.edges)
            mm.check_matching()
            ec.check_proper(live)
        if live:
            ic.check_proper(sorted(live))


class TestWorstCaseClaim:
    """The paper's headline: per-batch work bounded even after heavy history."""

    def test_tiny_batches_stay_cheap_after_big_history(self):
        cm = CostModel()
        st = BalancedOrientation(H=5, cm=cm)
        timer = BatchTimer(cm)
        n, edges = gen.erdos_renyi(80, 500, seed=4)
        with timer.batch("big", 480):
            st.insert_batch(edges[:480])
        for i in range(480, 500):
            with timer.batch("tiny", 1):
                st.insert_batch([edges[i]])
        records = timer.series.records
        big = records[0]
        tiny_max = max(r.work for r in records[1:])
        # every 1-edge batch costs a vanishing fraction of the 480-edge one
        assert tiny_max < 0.05 * big.work

    def test_ladder_batches_stay_flat_after_quiet_history(self):
        """No ladder batch pays for earlier ones: after a quiet path and
        churn on it, a star that lifts the max degree costs per edge about
        what any other batch did (a rung that deferred the quiet batches
        would replay them all here)."""
        n = 48
        cm = CostModel()
        ladders = [
            cls(n, eps=0.35, cm=cm, constants=SMALL, seed=3)
            for cls in (CorenessDecomposition, DensityEstimator)
        ]
        path = [(i, i + 1) for i in range(n - 1)]
        batches = [("insert_batch", path[i : i + 8]) for i in range(0, len(path), 8)]
        for r in range(10):
            chunk = path[8 * (r % 5) : 8 * (r % 5) + 8]
            batches += [("delete_batch", chunk), ("insert_batch", chunk)]
        batches.append(("insert_batch", [(0, v) for v in range(2, 18)]))
        per_edge = []
        for method, edges in batches:
            before = cm.work
            for ladder in ladders:
                getattr(ladder, method)(edges)
            per_edge.append((cm.work - before) / len(edges))
        mean = sum(per_edge) / len(per_edge)
        assert max(per_edge) <= 4 * mean

    def test_brent_projection_sane(self):
        cm = CostModel()
        st = BalancedOrientation(H=4, cm=cm)
        n, edges = gen.erdos_renyi(50, 250, seed=5)
        st.insert_batch(edges)
        pts = project(cm.work, cm.depth, [1, 4, 16, 64])
        assert pts[0].speedup_upper == pytest.approx(1.0)
        assert pts[-1].speedup_upper > 1.0


class TestCrossValidation:
    def test_orientation_agrees_with_graph(self):
        n, edges = gen.barabasi_albert(40, 3, seed=6)
        st = BalancedOrientation(H=5)
        st.insert_batch(edges)
        arcs = {tuple(sorted((t, h))) for (t, h, _c) in st.arcs()}
        assert arcs == set(edges)

    def test_degenerate_empty_batches(self):
        st = BalancedOrientation(H=3)
        st.insert_batch([])
        st.delete_batch([])
        st.check_invariants()
        cd = CorenessDecomposition(8, eps=0.4, constants=SMALL)
        cd.insert_batch([])
        assert cd.estimates() == {}
