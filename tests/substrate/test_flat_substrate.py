"""The flat storage slabs, property-tested against a naive model.

The orientation state lives in sorted ``list`` slabs: each vertex's
ranked out-set (:class:`~repro.core.outset.OutSet`) and its incoming-edge
index (:class:`~repro.core.inindex.InIndex`).  The hypothesis drivers
below run arbitrary operation sequences on both classes and on a naive
``sorted(set)`` model side by side, and require identical answers:
rank/select/first/window on the out-set; the minimum unskipped tail
``any_at`` returns and ``move`` on the index; and the
``AssertionError`` every duplicate add or absent remove must raise.
``tests/core/test_golden_contract.py`` pins the end-to-end side: answers,
work, depth and counters on recorded streams.

The ladder-level tests check that ``guarded()`` rollback and checkpoint
round trips leave a structure answering and charging exactly like one
that never saw the aborted batch or the round trip.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Constants
from repro.core.coreness import CorenessDecomposition
from repro.core.density import DensityEstimator
from repro.core.inindex import InIndex
from repro.core.outset import OutSet
from repro.graphs.graph import norm_edge
from repro.resilience.checkpoint import checkpoint, restore_checkpoint
from repro.resilience.guard import guarded

SMALL = Constants(sample_c=0.5, min_B=4, duplication_cap=8)
N = 16


# -- the slabs vs a sorted(set) model -----------------------------------------

_keys = st.tuples(st.integers(0, 9), st.integers(0, 2))

_outset_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _keys),
        st.tuples(st.just("remove"), _keys),
        st.tuples(st.just("rank"), _keys),
        st.tuples(st.just("select"), st.integers(-1, 12)),
        st.tuples(st.just("first"), st.integers(0, 12)),
        st.tuples(st.just("window"), st.tuples(st.integers(0, 12), st.integers(0, 12))),
    ),
    max_size=60,
)

_filing = st.tuples(st.integers(1, 3), st.integers(0, 3))

# the vertices any_at skips (the token-pushing game passes its labelled ones)
_skip = st.dictionaries(st.integers(0, 9), st.integers(1, 3), max_size=6)

_inindex_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _keys, _filing),
        st.tuples(st.just("remove"), _keys, _filing),
        st.tuples(st.just("move"), _keys, st.tuples(_filing, _filing)),
        st.tuples(st.just("any_at"), _skip, _filing),
    ),
    max_size=60,
)


class TestSlabsMatchSortedModel:
    @given(ops=_outset_ops)
    @settings(max_examples=150, deadline=None)
    def test_outset_matches_sorted_model(self, ops):
        s, model = OutSet(), set()
        for op, arg in ops:
            ordered = sorted(model)
            if op == "add":
                if arg in model:
                    with pytest.raises(AssertionError):
                        s.add(arg)
                else:
                    s.add(arg)
                    model.add(arg)
            elif op == "remove":
                if arg in model:
                    s.remove(arg)
                    model.remove(arg)
                else:
                    with pytest.raises(AssertionError):
                        s.remove(arg)
            elif op == "rank":
                if arg in model:
                    assert s.rank(arg) == ordered.index(arg) + 1
                else:
                    with pytest.raises(AssertionError):
                        s.rank(arg)
            elif op == "select":
                if 1 <= arg <= len(ordered):
                    assert s.select(arg) == ordered[arg - 1]
                else:
                    with pytest.raises(IndexError):
                        s.select(arg)
            elif op == "first":
                assert s.first(arg) == ordered[:arg]
            else:
                lo, hi = arg
                assert s.window(lo, hi) == ordered[max(0, lo - 1): hi]
            assert list(s) == sorted(model)
            assert len(s) == len(model)
            assert all((k in s) == (k in model) for k in ordered)
        s.check()

    @given(ops=_inindex_ops)
    @settings(max_examples=150, deadline=None)
    def test_inindex_matches_sorted_model(self, ops):
        ix = InIndex()
        model: dict[tuple, set] = {}  # (tr, lev) -> tails

        def filed(tail, key):
            return tail in model.get(key, ())

        for op, tail, arg in ops:
            if op == "add":
                if filed(tail, arg):
                    with pytest.raises(AssertionError):
                        ix.add(tail, *arg)
                else:
                    ix.add(tail, *arg)
                    model.setdefault(arg, set()).add(tail)
            elif op == "remove":
                if filed(tail, arg):
                    ix.remove(tail, *arg)
                    model[arg].discard(tail)
                else:
                    with pytest.raises(AssertionError):
                        ix.remove(tail, *arg)
            elif op == "move":
                old, new = arg
                if old == new:
                    ix.move(tail, old, new)  # identity: a no-op, filed or not
                elif not filed(tail, old) or filed(tail, new):
                    with pytest.raises(AssertionError):
                        ix.move(tail, old, new)
                    if filed(tail, old):
                        # the remove half landed before the add half raised
                        model[old].discard(tail)
                else:
                    ix.move(tail, old, new)
                    model[old].discard(tail)
                    model.setdefault(new, set()).add(tail)
            else:
                skip = tail  # an any_at op carries its skip map in that slot
                eligible = [t for t in model.get(arg, ()) if t[0] not in skip]
                assert ix.any_at(*arg, skip) == min(eligible, default=None)
                assert ix.any_at(*arg) == min(model.get(arg, ()), default=None)
            assert sorted(ix.entries()) == sorted(
                (t, *k) for k, tails in model.items() for t in tails
            )
            assert len(ix) == sum(len(tails) for tails in model.values())


# -- ladder state through rollback and checkpoints -----------------------------

_edges = st.lists(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)),
    min_size=1,
    max_size=8,
)

_raw_stream = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), _edges),
    min_size=1,
    max_size=6,
)


def _valid_batch(kind, edges, live):
    """The subset of ``edges`` the structures accept against ``live``."""
    batch = []
    for u, v in edges:
        if u == v:
            continue
        e = norm_edge(u, v)
        if kind == "insert" and e not in live and e not in batch:
            batch.append(e)
        elif kind == "delete" and e in live and e not in batch:
            batch.append(e)
    return batch


class _Pair:
    """One (coreness, density) ladder pair sharing a cost model."""

    def __init__(self, seed=5):
        from repro.instrument.work_depth import CostModel

        self.cm = CostModel()
        self.core = CorenessDecomposition(
            N, eps=0.3, cm=self.cm, constants=SMALL, seed=seed,
        )
        self.dens = DensityEstimator(
            N, eps=0.3, cm=self.cm, constants=SMALL, seed=seed,
        )

    def apply(self, kind, edges):
        for st_ in (self.core, self.dens):
            if kind == "insert":
                st_.insert_batch(edges)
            else:
                st_.delete_batch(edges)

    def observe(self):
        return (
            tuple(sorted(self.core.estimates().items())),
            self.core.max_estimate(),
            self.dens.density_estimate(),
            self.dens.arboricity_estimate(),
            self.dens.max_outdegree(),
            tuple(tuple(self.dens.orientation_out(v)) for v in range(N)),
        )


class TestLadderState:
    @given(raw=_raw_stream, boom_at=st.integers(0, 5))
    @settings(max_examples=15, deadline=None)
    def test_guarded_rollback_matches_skipped_batch(self, raw, boom_at):
        """A rolled-back batch leaves the ladders as if it never ran.

        One batch (index ``boom_at``) is applied under ``guarded()`` and
        aborted mid-transaction; a reference pair simply skips it.  The
        two must answer identically for the rest of the stream.  Batches
        are validated against the *actual* live edge set, which the
        rolled-back batch never joins.
        """
        aborted, skipped = _Pair(), _Pair()
        live: set = set()
        index = 0
        for kind, edges in raw:
            batch = _valid_batch(kind, edges, live)
            if not batch:
                continue
            if index == boom_at:
                with pytest.raises(RuntimeError):
                    with guarded(aborted.core):
                        with guarded(aborted.dens):
                            aborted.apply(kind, batch)
                            raise RuntimeError("forced abort")
            else:
                aborted.apply(kind, batch)
                skipped.apply(kind, batch)
                if kind == "insert":
                    live.update(batch)
                else:
                    live.difference_update(batch)
            index += 1
            assert aborted.observe() == skipped.observe()
        aborted.core.check_invariants()
        aborted.dens.check_invariants()

    @given(raw=_raw_stream)
    @settings(max_examples=10, deadline=None)
    def test_checkpoint_round_trip_is_exact(self, raw):
        """A restored ladder has the same payload and answers, and a
        payload's legacy ``substrate`` tag is ignored whatever its value."""
        pair, live = _Pair(), set()
        for kind, edges in raw:
            batch = _valid_batch(kind, edges, live)
            if not batch:
                continue
            pair.apply(kind, batch)
            live.update(batch) if kind == "insert" else live.difference_update(batch)
        for structure in (pair.core, pair.dens):
            payload = checkpoint(structure)
            assert "substrate" not in payload
            for tagged in (payload, dict(payload, substrate="flat"),
                           dict(payload, substrate="unknown")):
                back = restore_checkpoint(tagged)
                assert checkpoint(back) == payload
                if hasattr(structure, "estimates"):
                    assert back.estimates() == structure.estimates()
                else:
                    assert back.density_estimate() == structure.density_estimate()
