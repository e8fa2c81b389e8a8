"""The rank cap the token-pushing game relies on (Lemma 4.18's game).

A push game only flips arcs and absorbs out-degree decrements, so while
it runs every vertex keeps ``len(out[w]) <= level[w]``.  A tail filed at
truncated level ``L < H`` then has no arc of rank above ``L``, which is
why ``_run_push_game`` skips the lookup of every rank round above
``level(v) + 1``.  These tests check the cap after every flip the game
makes, on seeded churn streams, with the default constants and with the
paper's literal transparency rule.
"""

import pytest

from repro.config import DEFAULT_CONSTANTS, Constants
from repro.core import tokens
from repro.core.balanced import BalancedOrientation
from repro.graphs import streams

STRICT = Constants(strict_paper_transparency=True)


class _CapChecked(BalancedOrientation):
    """Checks the cap after every flip made inside a push game."""

    in_push = False
    checked = 0

    def _flip(self, tail, head, copy):
        super()._flip(tail, head, copy)
        if self.in_push:
            _assert_cap(self)
            self.checked += 1


def _assert_cap(st):
    for w, outset in st.out.items():
        assert len(outset) <= st.level.get(w, 0), f"{w} has more arcs than its level"
    for v, index in st.inx.items():
        lv = st.level.get(v, 0)
        # the probe v would make at a rank above its cap, labels ignored
        for i in range(lv + 2, st.H + 1):
            assert index.any_at(i, lv + 1) is None, (v, i)


@pytest.fixture
def push_flag(monkeypatch):
    inner = tokens._run_push_game

    def flagged(st, token):
        st.in_push = True
        try:
            inner(st, token)
        finally:
            st.in_push = False

    monkeypatch.setattr(tokens, "_run_push_game", flagged)


@pytest.mark.parametrize("constants", [DEFAULT_CONSTANTS, STRICT], ids=["d1", "strict"])
@pytest.mark.parametrize("H,seed", [(3, 1), (4, 2), (6, 3)])
def test_push_game_keeps_out_sets_within_levels(push_flag, constants, H, seed):
    st = _CapChecked(H, constants=constants)
    for op in streams.churn(24, 60, 12, insert_bias=0.6, seed=seed):
        if op.kind == "insert":
            st.insert_batch(op.edges)
        else:
            st.delete_batch(op.edges)
        st.check_invariants()
    counters = st.cm.counters
    assert st.checked > 0
    # some tail held several deletion tokens, so a batch ran several bundles
    assert counters["delete_bundles"] > counters["delete_batches"]
