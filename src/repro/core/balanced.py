"""``BALANCED(H)`` — batch-dynamic H-balanced orientation (Theorem 4.1).

The data structure of Section 4: every vertex keeps a ranked out-edge set
(:class:`~repro.core.outset.OutSet`) and an incoming-edge index
(:class:`~repro.core.inindex.InIndex`) keyed by truncated rank and
bucketed by the tail's truncated level.  The paper also keys the in-index
by the deletion-game label (§4.1); here an arc's label is a function of
its tail (``vertex_label[tail]`` at rank ``<= H``, 0 beyond), so lookups
read it from ``vertex_label`` and a label change re-files nothing.  Its
charges are unchanged: ``_apply_vertex_label`` still pays for the
re-filing the paper does.  Batch insertions run the
token-dropping game on token bundles (Section 4.2); batch deletions run the
token-pushing game (Section 4.3).  Between batches the structure satisfies
the H-balancedness invariant of Definition 3.1::

    for every arc (u -> v):   min(H, d+(u)) <= min(H, d+(v)) + 1

**Multigraph support.**  Arcs are keyed ``(head, copy)``; simple graphs use
``copy = 0`` everywhere, while Corollary 5.4's K-duplicated graphs insert
copies ``0..K-1`` of each undirected edge.  Levels, tokens and balancedness
always refer to *vertices*, exactly as in the paper.

**Levels vs out-set sizes.**  ``self.level[v]`` is the *recorded*
out-degree.  While a token game runs, levels are frozen (the game's whole
point) and ``len(out[v]) - level[v]`` equals the signed token surplus;
settlement reconciles them.  Between batches ``level[v] == len(out[v])``
for every vertex — ``check_invariants`` verifies this along with full
index consistency.

**Cost accounting** matches the paper's lemma granularity: every arc
mutation charges the Lemma 4.3/4.4 rate of ``O(H log n)`` work and depth
(callers parallelise over edges, so per-batch depth is the max); in-index
lookups charge one BST unit; games count phases/rounds into
``cm.counters``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

from ..config import DEFAULT_CONSTANTS, Constants, check_height
from ..errors import BatchError, InvariantViolation
from ..graphs.graph import Edge, norm_edge
from ..instrument import trace as _trace
from ..instrument.work_depth import CostModel
from .inindex import InIndex
from .levels import is_h_balanced_edge, levkey
from .outset import OutSet

# An arc is (tail, head, copy); an arc key inside an OutSet is (head, copy).
ArcKey = tuple[int, int]


class BalancedOrientation:
    """Deterministic batch-dynamic H-balanced orientation.

    An arc's filing state is its truncated rank (``tr_of``) and its tail's
    truncated level; its §4.1 label is not stored per arc but derived from
    ``vertex_label`` when the token-pushing game looks it up.
    """

    def __init__(
        self,
        H: int,
        cm: Optional[CostModel] = None,
        constants: Constants = DEFAULT_CONSTANTS,
        n_hint: int = 64,
    ) -> None:
        self.H = check_height(H)
        self.cm = cm if cm is not None else CostModel()
        self.constants = constants
        self.out: dict[int, OutSet] = {}
        self.inx: dict[int, InIndex] = {}
        self.level: dict[int, int] = {}
        # per-arc filing state, keyed (tail, head, copy)
        self.tr_of: dict[tuple[int, int, int], int] = {}
        # deletion-game label of each labelled vertex; it is the label of
        # the vertex's out-arcs of rank <= H (0 beyond rank H, and 0 for
        # every vertex absent here)
        self.vertex_label: dict[int, int] = {}
        # undirected (min, max, copy) -> current tail
        self.tail_of: dict[tuple[int, int, int], int] = {}
        self._n_hint = max(2, n_hint)
        self._logn_size = -1  # len(self.level) the cached _logn was computed at
        self._logn_val = 1
        # change journal for Lemma 6.1's D_ins / D_del interfaces
        self.last_reversed: list[tuple[int, int, int]] = []  # (tail, head, copy) post-flip
        self.last_inserted: list[tuple[int, int, int]] = []
        self.last_deleted: list[tuple[int, int, int]] = []

    # ------------------------------------------------------------------ queries

    def outdegree(self, v: int) -> int:
        """Recorded out-degree (== true out-degree between batches)."""
        return self.level.get(v, 0)

    def max_outdegree(self) -> int:
        return max(self.level.values(), default=0)

    def num_arcs(self) -> int:
        return len(self.tail_of)

    def has_edge(self, u: int, v: int, copy: int = 0) -> bool:
        a, b = norm_edge(u, v)
        return (a, b, copy) in self.tail_of

    def orientation_of(self, u: int, v: int, copy: int = 0) -> tuple[int, int]:
        """Current (tail, head) of the undirected edge ``{u, v}``."""
        a, b = norm_edge(u, v)
        tail = self.tail_of.get((a, b, copy))
        if tail is None:
            raise BatchError(f"edge ({u}, {v}, copy={copy}) not present")
        return (tail, b if tail == a else a)

    def out_neighbors(self, v: int) -> list[int]:
        """Heads of v's out-arcs (with multiplicity), in rank order."""
        outset = self.out.get(v)
        if outset is None:
            return []
        return [head for head, _copy in outset]

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """All arcs as (tail, head, copy)."""
        for (a, b, copy), tail in self.tail_of.items():
            head = b if tail == a else a
            yield (tail, head, copy)

    # ------------------------------------------------------------------ internals

    def _outset(self, v: int) -> OutSet:
        outset = self.out.get(v)
        if outset is None:
            outset = OutSet()
            self.out[v] = outset
        return outset

    def _inx(self, v: int) -> InIndex:
        index = self.inx.get(v)
        if index is None:
            index = InIndex()
            self.inx[v] = index
        return index

    def _reset_storage(self) -> None:
        """Drop every container to empty.

        The single funnel through which snapshot restore and guard
        rollback wipe the structure before replaying arcs.
        """
        self.out = {}
        self.inx = {}
        self.level = {}
        self.tr_of = {}
        self.vertex_label = {}
        self.tail_of = {}

    def _logn(self) -> int:
        # cached on len(self.level): recomputing ceil(log2) per charge was
        # measurable at game scale, and the value only moves when the
        # vertex-universe size does.  Same formula, same values.
        size = len(self.level)
        if size != self._logn_size:
            self._logn_size = size
            n = max(self._n_hint, size)
            self._logn_val = max(1, int(math.ceil(math.log2(n))))
        return self._logn_val

    def _charge_arc_op(self) -> None:
        """The Lemma 4.3/4.4 per-edge rate: O(H log n) work and depth."""
        unit = (self.H + 2) * self._logn()
        self.cm.charge(work=unit, depth=unit)

    def _charge_lookup(self) -> None:
        unit = self._logn()
        self.cm.charge(work=unit, depth=unit)

    def _expected_filing(self, tail: int, position: int) -> tuple[int, int]:
        """(tr, lev) an arc at 1-indexed ``position`` must be filed at."""
        tr = position if position <= self.H else self.H + 1
        return tr, levkey(self.level.get(tail, 0), self.H)

    def _refile(self, tail: int, lo: int, hi: int) -> None:
        """Re-file arcs of ``tail`` at positions ``lo..hi`` (clamped).

        Recomputes the expected truncated rank of each arc and diffs with
        the stored one — the single funnel through which rank shifts flow
        (keeps the index correct by construction).
        """
        outset = self.out.get(tail)
        if outset is None:
            return
        hi = min(hi, len(outset))
        lo = max(1, lo)
        # the positions re-file independently: O(span log n) work at one
        # O(log n) level of depth (a parallel scan over the window).
        span = hi - lo + 1
        if span > 0:
            logn = self._logn()
            self.cm.charge(work=span * logn, depth=logn)
        # the stored and expected levels agree inside a window (both are
        # levkey(level[tail])), so only tr can differ — this loop is
        # _expected_filing unrolled with the level component hoisted.
        lev = self._stored_lev(tail)
        H = self.H
        tr_of, inx = self.tr_of, self.inx
        position = lo - 1
        for head, copy in outset.window(lo, hi):
            position += 1
            tr = position if position <= H else H + 1
            arc = (tail, head, copy)
            stored_tr = tr_of[arc]
            if stored_tr != tr:
                # a filed arc's head always has an in-index — direct hit
                inx[head].move((tail, copy), (stored_tr, lev), (tr, lev))
                tr_of[arc] = tr

    def _stored_lev(self, tail: int) -> int:
        return levkey(self.level.get(tail, 0), self.H)

    # -- arc mutations -----------------------------------------------------------

    def _arc_add(self, tail: int, head: int, copy: int) -> None:
        """Add arc (tail -> head, copy); does NOT touch levels."""
        outset = self._outset(tail)
        outset.add((head, copy))
        position = outset.rank((head, copy))
        arc = (tail, head, copy)
        tr, lev = self._expected_filing(tail, position)
        self.tr_of[arc] = tr
        self._inx(head).add(tail_key(tail, copy), tr, lev)
        # ranks of later arcs shifted up by one; only first H+1 positions file.
        self._refile(tail, position + 1, self.H + 1)
        a, b = norm_edge(tail, head)
        self.tail_of[(a, b, copy)] = tail
        self.level.setdefault(tail, 0)
        self.level.setdefault(head, 0)
        self._charge_arc_op()

    def _arc_remove(self, tail: int, head: int, copy: int) -> None:
        """Remove arc (tail -> head, copy); does NOT touch levels."""
        outset = self.out.get(tail)
        arc = (tail, head, copy)
        if outset is None or (head, copy) not in outset:
            raise InvariantViolation(f"arc {arc} missing from out-set")
        position = outset.rank((head, copy))
        self.inx[head].remove(
            tail_key(tail, copy), self.tr_of.pop(arc), self._stored_lev(tail)
        )
        outset.remove((head, copy))
        self._refile(tail, position, self.H + 1)
        a, b = norm_edge(tail, head)
        del self.tail_of[(a, b, copy)]
        self._charge_arc_op()

    def _flip(self, tail: int, head: int, copy: int) -> None:
        """Reverse arc (tail -> head) to (head -> tail); levels untouched."""
        self._arc_remove(tail, head, copy)
        self._arc_add(head, tail, copy)
        self.last_reversed.append((head, tail, copy))
        self.cm.count("reversals")

    def _set_level(self, v: int, new: int) -> None:
        """Record a new out-degree for ``v`` and re-file its out-arcs'
        level buckets if the truncated level changed."""
        old = self.level.get(v, 0)
        if new < 0:
            raise InvariantViolation(f"negative level for {v}")
        self.level[v] = new
        if levkey(old, self.H) != levkey(new, self.H):
            outset = self.out.get(v)
            if outset is not None:
                old_lev = levkey(old, self.H)
                new_lev = levkey(new, self.H)
                tr_of, inx = self.tr_of, self.inx
                for head, copy in outset:  # moves touch the index, not the set
                    tr = tr_of[(v, head, copy)]
                    inx[head].move((v, copy), (tr, old_lev), (tr, new_lev))
            self._charge_arc_op()
        else:
            self.cm.charge(work=1, depth=1)

    def _apply_vertex_label(self, v: int, label: int) -> None:
        """Set the deletion-game label of ``v`` on its rank <= H out-arcs.

        Only the dict changes: the in-index reads labels at lookup time.
        The charge is the paper's, which re-files the ``min(H, d+(v))``
        labelled arcs in parallel (one ``log n`` unit each, one unit of
        depth), plus the ``(H+1) log n`` label write itself.
        """
        if self.vertex_label.get(v, 0) == label:
            return
        if label:
            self.vertex_label[v] = label
        else:
            self.vertex_label.pop(v, None)
        logn = self._logn()
        unit = (self.H + 1) * logn
        span = min(self.H, len(self.out.get(v, ())))
        self.cm.charge(work=span * logn + unit, depth=(logn if span else 0) + unit)

    # ------------------------------------------------------------------ batch API

    def insert_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        """Insert a batch of undirected simple edges (Theorem 4.1, insert)."""
        batch = self._validate_insert(edges, copy=0)
        self._begin_journal()
        self._insert_arcs(batch)

    def delete_batch(self, edges: Iterable[tuple[int, int]]) -> None:
        """Delete a batch of undirected simple edges (Theorem 4.1, delete)."""
        batch = self._validate_delete(edges, copy=0)
        self._begin_journal()
        self._delete_arcs(batch)

    def update_batch(
        self,
        insertions: Iterable[tuple[int, int]] = (),
        deletions: Iterable[tuple[int, int]] = (),
    ) -> None:
        """One mixed batch: deletions apply first, then insertions.

        Deletions are validated against the pre-batch graph and insertions
        against the post-deletion graph, so an edge may be deleted and
        re-inserted within one call.  Each half carries its Theorem 4.1
        worst-case guarantee; the change journals of both halves are
        merged.
        """
        insertions, deletions = list(insertions), list(deletions)
        # the batch envelope itself — validation and journal merge — is
        # O(|insertions| + |deletions|) work even when one half is empty
        self.cm.charge(work=len(insertions) + len(deletions) + 1, depth=1)
        reversed_, inserted, deleted = [], [], []
        if deletions:
            self.delete_batch(deletions)
            reversed_ += self.last_reversed
            inserted += self.last_inserted
            deleted += self.last_deleted
        if insertions:
            self.insert_batch(insertions)
            reversed_ += self.last_reversed
            inserted += self.last_inserted
            deleted += self.last_deleted
        self.last_reversed = reversed_
        self.last_inserted = inserted
        self.last_deleted = deleted

    def insert_multi_batch(self, arcs: list[tuple[int, int, int]]) -> None:
        """Insert (u, v, copy) multi-edges — the Corollary 5.4 entry point."""
        seen = set()
        for u, v, copy in arcs:
            a, b = norm_edge(u, v)
            key = (a, b, copy)
            if key in seen or key in self.tail_of:
                raise BatchError(f"multi-edge {key} duplicate or already present")
            seen.add(key)
        self._begin_journal()
        self._insert_arcs([(u, v, copy) for u, v, copy in arcs])

    def delete_multi_batch(self, arcs: list[tuple[int, int, int]]) -> None:
        seen = set()
        for u, v, copy in arcs:
            a, b = norm_edge(u, v)
            key = (a, b, copy)
            if key in seen:
                raise BatchError(f"multi-edge {key} duplicated in batch")
            if key not in self.tail_of:
                raise BatchError(f"multi-edge {key} not present")
            seen.add(key)
        self._begin_journal()
        self._delete_arcs([(u, v, copy) for u, v, copy in arcs])

    def _validate_insert(self, edges: Iterable[tuple[int, int]], copy: int):
        seen: set[Edge] = set()
        batch = []
        for u, v in edges:
            e = norm_edge(u, v)
            if e in seen:
                raise BatchError(f"duplicate edge {e} within batch")
            if (e[0], e[1], copy) in self.tail_of:
                raise BatchError(f"edge {e} already present")
            seen.add(e)
            batch.append((e[0], e[1], copy))
        return batch

    def _validate_delete(self, edges: Iterable[tuple[int, int]], copy: int):
        seen: set[Edge] = set()
        batch = []
        for u, v in edges:
            e = norm_edge(u, v)
            if e in seen:
                raise BatchError(f"duplicate edge {e} within batch")
            if (e[0], e[1], copy) not in self.tail_of:
                raise BatchError(f"edge {e} not present")
            seen.add(e)
            batch.append((e[0], e[1], copy))
        return batch

    def _begin_journal(self) -> None:
        self.last_reversed = []
        self.last_inserted = []
        self.last_deleted = []

    # -- drivers (Sections 4.2.2 / 4.3.2); game logic lives in tokens.py --------

    def _insert_arcs(self, batch: list[tuple[int, int, int]]) -> None:
        with _trace.span("balanced.insert", detail={"edges": len(batch)}):
            self._insert_arcs_inner(batch)

    def _insert_arcs_inner(self, batch: list[tuple[int, int, int]]) -> None:
        from .bundles import extract_token_bundle
        from .tokens import run_drop_game

        pending = list(batch)
        rounds = 0
        bound = (
            self.constants.bundle_safety * (self.H + 1) ** 2
            + self.constants.convergence_slack
        )
        while pending:
            # edges whose endpoints are both saturated insert freely (§4.2.2)
            free = [
                (u, v, c)
                for (u, v, c) in pending
                if min(self.outdegree(u), self.outdegree(v)) >= self.H
            ]
            if free:
                free_keys = set(free)
                with _trace.span("balanced.free"):
                    with self.cm.parallel() as region:
                        for u, v, c in free:
                            with region.branch():
                                tail, head = (
                                    (u, v)
                                    if self.outdegree(u) <= self.outdegree(v)
                                    else (v, u)
                                )
                                self._arc_add(tail, head, c)
                                self._set_level(tail, self.level.get(tail, 0) + 1)
                                self.last_inserted.append((tail, head, c))
                pending = [e for e in pending if e not in free_keys]
            if not pending:
                break
            rounds += 1
            if rounds > bound:
                raise _convergence(
                    f"bundle extraction exceeded {bound} rounds (Lemma 4.15)"
                )
            bundle = extract_token_bundle(self, pending)
            run_drop_game(self, bundle)
            self.cm.count("insert_bundle_rounds")
        self.cm.count("insert_batches")

    def _delete_arcs(self, batch: list[tuple[int, int, int]]) -> None:
        with _trace.span("balanced.delete", detail={"edges": len(batch)}):
            self._delete_arcs_inner(batch)

    def _delete_arcs_inner(self, batch: list[tuple[int, int, int]]) -> None:
        from .bundles import partition_deletion_tokens
        from .tokens import run_push_game

        # orient every doomed edge
        directed: dict[int, list[tuple[int, int]]] = {}
        for u, v, copy in batch:
            a, b = norm_edge(u, v)
            tail = self.tail_of[(a, b, copy)]
            head = b if tail == a else a
            directed.setdefault(tail, []).append((head, copy))

        # free deletions at saturated tails (§4.3.2): the first
        # d+(tail) - H doomed arcs of each tail leave without tokens.
        tokens: dict[int, int] = {}
        with _trace.span("balanced.free"):
            with self.cm.parallel() as region:
                for tail, heads in sorted(directed.items()):
                    with region.branch():
                        lvl = self.level.get(tail, 0)
                        free_count = min(len(heads), max(0, lvl - self.H))
                        for head, copy in heads[:free_count]:
                            self._arc_remove(tail, head, copy)
                            self._set_level(tail, self.level[tail] - 1)
                            self.last_deleted.append((tail, head, copy))
                        for head, copy in heads[free_count:]:
                            self._arc_remove(tail, head, copy)
                            self.last_deleted.append((tail, head, copy))
                            tokens[tail] = tokens.get(tail, 0) + 1

        for bundle in partition_deletion_tokens(tokens):
            run_push_game(self, bundle)
            self.cm.count("delete_bundles")
        self.cm.count("delete_batches")

    # ------------------------------------------------------------------ checking

    def check_invariants(self) -> None:
        """Full structural verification (I1/I2 of DESIGN.md §5).

        Raises :class:`InvariantViolation` on the first inconsistency.
        Intended for tests — O(m * H) time.
        """
        # levels match out-set sizes; H-balancedness on every arc
        for v, outset in self.out.items():
            if self.level.get(v, 0) != len(outset):
                raise InvariantViolation(
                    f"level[{v}] = {self.level.get(v, 0)} != |out| = {len(outset)}"
                )
        for v, lvl in self.level.items():
            if lvl and v not in self.out:
                raise InvariantViolation(
                    f"level[{v}] = {lvl} but {v} has no out-set"
                )
        for v, outset in self.out.items():
            lv = self.level.get(v, 0)
            for head, copy in outset:
                if not is_h_balanced_edge(lv, self.level.get(head, 0), self.H):
                    raise InvariantViolation(
                        f"arc ({v}->{head},{copy}): min(H,{lv}) > "
                        f"min(H,{self.level.get(head, 0)}) + 1 (H={self.H})"
                    )
        # filing consistency: every arc filed exactly once, at the right key
        filed = 0
        for head, index in self.inx.items():
            for tkey, tr, lev in index.entries():
                tail, copy = tkey
                arc = (tail, head, copy)
                if arc not in self.tr_of:
                    raise InvariantViolation(f"stray in-index entry {arc}")
                outset = self.out.get(tail)
                if outset is None or (head, copy) not in outset:
                    raise InvariantViolation(f"in-index entry {arc} has no arc")
                position = outset.rank((head, copy))
                expected = self._expected_filing(tail, position)
                if (tr, lev) != expected or self.tr_of[arc] != tr:
                    raise InvariantViolation(
                        f"arc {arc} filed at {(tr, lev)}, expected {expected}"
                    )
                filed += 1
        total_arcs = sum(len(o) for o in self.out.values())
        if filed != total_arcs or filed != len(self.tail_of):
            raise InvariantViolation(
                f"arc counts disagree: filed={filed}, out={total_arcs}, "
                f"tail_of={len(self.tail_of)}"
            )
        # orientation map consistency
        for (a, b, copy), tail in self.tail_of.items():
            head = b if tail == a else a
            outset = self.out.get(tail)
            if outset is None or (head, copy) not in outset:
                raise InvariantViolation(f"tail_of says {tail}->{head} but arc missing")
        # no leftover labels between batches
        if self.vertex_label:
            raise InvariantViolation(f"leftover vertex labels: {self.vertex_label}")


def tail_key(tail: int, copy: int) -> tuple[int, int]:
    """How a tail is identified inside an in-index bucket."""
    return (tail, copy)


def _convergence(msg: str):
    from ..errors import ConvergenceError

    return ConvergenceError(msg)
