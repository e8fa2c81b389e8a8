"""TenantShard unit tests: validation, durability, recovery."""

from __future__ import annotations

import json
import os
import random
import stat

import pytest

from repro.core.coreness import CorenessDecomposition
from repro.core.density import DensityEstimator
from repro.errors import BatchError, ParameterError
from repro.graphs.streams import BatchOp
from repro.instrument.work_depth import CostModel
from repro.service.state import (
    CHECKPOINT_NAME,
    META_NAME,
    TenantConfig,
    TenantShard,
    WAL_NAME,
    discover_tenants,
)


def churn_batches(n: int, seed: int, count: int, size: int) -> list[BatchOp]:
    """A deterministic insert/delete stream over the ``[0, n)`` universe."""
    rng = random.Random(seed)
    live: set[tuple[int, int]] = set()
    out: list[BatchOp] = []
    for i in range(count):
        if live and (rng.random() < 0.3 or len(live) > 4 * n):
            batch = rng.sample(sorted(live), min(size, len(live)))
            live.difference_update(batch)
            out.append(BatchOp("delete", tuple(batch)))
        else:
            batch: list[tuple[int, int]] = []
            while len(batch) < size:
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                e = (min(u, v), max(u, v))
                if e in live or e in batch:
                    continue
                batch.append(e)
            live.update(batch)
            out.append(BatchOp("insert", tuple(batch)))
    return out


def oracle_answers(config: TenantConfig, batches: list[BatchOp]):
    """Serial replay through bare ladders — the ground truth a recovered
    or served tenant must match bit-identically."""
    cm = CostModel()
    core = CorenessDecomposition(
        config.n, eps=config.eps, cm=cm, constants=config.constants,
        seed=config.seed,
    )
    dens = DensityEstimator(
        config.n, eps=config.eps, cm=cm, constants=config.constants,
        seed=config.seed,
    )
    per_epoch = {0: (dict(core.estimates()), dens.density_estimate())}
    for e, op in enumerate(batches, 1):
        for st in (core, dens):
            if op.kind == "insert":
                st.insert_batch(op.edges)
            else:
                st.delete_batch(op.edges)
        per_epoch[e] = (dict(core.estimates()), dens.density_estimate())
    return per_epoch


def drive(shard: TenantShard, batches) -> None:
    for op in batches:
        shard.accept(op)
        shard.apply(op)


CFG = TenantConfig(n=32, eps=0.35, seed=5)


def _corrupt(text: str, edit) -> str:
    """Torn JSON for ``edit=None``; else set ``(path, value)`` inside the
    coreness ladder's payload, which still parses."""
    if edit is None:
        return "{ not json"
    path, value = edit
    payload = json.loads(text)
    node = payload["structures"]["coreness"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(payload)


class TestValidation:
    def test_rejects_out_of_universe_edge(self, tmp_path):
        shard = TenantShard("t", tmp_path / "t", CFG)
        with pytest.raises(BatchError, match="universe"):
            shard.accept(BatchOp("insert", ((0, CFG.n),)))
        assert shard.accepted == 0

    def test_rejects_negative_endpoint(self, tmp_path):
        """Regression: only the upper endpoint was bounded, so an edge
        like (-5, 3) was accepted, WAL-logged, and replayed on every
        restart — negative ids would wrap any array-indexed substrate."""
        shard = TenantShard("t", tmp_path / "t", CFG)
        with pytest.raises(BatchError, match="universe"):
            shard.accept(BatchOp("insert", ((-5, 3),)))
        assert shard.accepted == 0
        shard.close()
        # nothing leaked into the WAL either
        assert TenantShard("t", tmp_path / "t", CFG).accepted == 0

    def test_rejects_duplicate_and_unknown(self, tmp_path):
        shard = TenantShard("t", tmp_path / "t", CFG)
        with pytest.raises(BatchError, match="duplicate"):
            shard.accept(BatchOp("insert", ((0, 1), (1, 0))))
        with pytest.raises(BatchError, match="absent"):
            shard.accept(BatchOp("delete", ((0, 1),)))
        shard.accept(BatchOp("insert", ((0, 1),)))
        with pytest.raises(BatchError, match="live"):
            shard.accept(BatchOp("insert", ((1, 0),)))

    def test_rejected_batches_never_reach_the_wal(self, tmp_path):
        shard = TenantShard("t", tmp_path / "t", CFG)
        with pytest.raises(BatchError):
            shard.accept(BatchOp("insert", ((0, 0),)))
        shard.close()
        reopened = TenantShard("t", tmp_path / "t", CFG)
        assert reopened.accepted == 0

    def test_mode_validation(self):
        with pytest.raises(ParameterError, match="mode"):
            TenantConfig(mode="exactly")

    def test_parameter_immutability(self, tmp_path):
        TenantShard("t", tmp_path / "t", CFG).close()
        with pytest.raises(BatchError, match="immutable"):
            TenantShard("t", tmp_path / "t", TenantConfig(n=64, seed=5))


class TestRecovery:
    def test_graceful_restart_is_bit_identical(self, tmp_path):
        batches = churn_batches(CFG.n, seed=1, count=10, size=5)
        oracle = oracle_answers(CFG, batches)
        shard = TenantShard("t", tmp_path / "t", CFG, checkpoint_every=4)
        drive(shard, batches)
        shard.close()  # checkpoints and seals the WAL
        reopened = TenantShard("t", tmp_path / "t", CFG)
        snap = reopened.snapshot
        assert snap.epoch == len(batches)
        assert (dict(snap.coreness), snap.density) == oracle[len(batches)]
        reopened.close()

    def test_kill_without_close_replays_the_wal(self, tmp_path):
        """No close(), no seal, checkpoint stale — recovery replays."""
        batches = churn_batches(CFG.n, seed=2, count=9, size=5)
        oracle = oracle_answers(CFG, batches)
        shard = TenantShard("t", tmp_path / "t", CFG, checkpoint_every=4)
        drive(shard, batches)  # last checkpoint at epoch 8, WAL has 9
        del shard  # simulated kill: nothing sealed
        reopened = TenantShard("t", tmp_path / "t", CFG, checkpoint_every=4)
        snap = reopened.snapshot
        assert snap.epoch == len(batches)
        assert (dict(snap.coreness), snap.density) == oracle[len(batches)]

    def test_torn_wal_tail_is_dropped_and_truncated(self, tmp_path):
        """A half-written (never acked) final line is physically removed."""
        batches = churn_batches(CFG.n, seed=3, count=6, size=4)
        oracle = oracle_answers(CFG, batches)
        shard = TenantShard("t", tmp_path / "t", CFG)
        drive(shard, batches)
        wal = tmp_path / "t" / WAL_NAME
        with open(wal, "a") as fh:
            fh.write('{"kind": "insert", "edges": [[1, 2')  # torn mid-write
        reopened = TenantShard("t", tmp_path / "t", CFG)
        assert reopened.accepted == len(batches)
        assert (
            dict(reopened.snapshot.coreness),
            reopened.snapshot.density,
        ) == oracle[len(batches)]
        assert not wal.read_text().rstrip().endswith("[[1, 2")
        # and the resumed writer appends cleanly after the truncation
        reopened.accept(BatchOp("insert", ((30, 31),)))
        reopened.apply(BatchOp("insert", ((30, 31),)))
        reopened.close()
        final = TenantShard("t", tmp_path / "t", CFG)
        assert final.accepted == len(batches) + 1

    @pytest.mark.parametrize("edit", [
        pytest.param(None, id="torn"),
        pytest.param((("rungs", 0, "inner", "arcs"), [[1]]), id="bad-arc"),
        pytest.param((("n",), "thirty-two"), id="text-n"),
        pytest.param((("rungs",), 5), id="rungs-int"),
        pytest.param((("touched",), ["v0"]), id="text-touched"),
    ])
    def test_corrupt_checkpoint_falls_back_to_full_replay(self, tmp_path, edit):
        """Torn JSON and JSON that parses but does not restore both leave
        the WAL, which holds every batch, to rebuild the tenant."""
        batches = churn_batches(CFG.n, seed=4, count=8, size=4)
        oracle = oracle_answers(CFG, batches)
        shard = TenantShard("t", tmp_path / "t", CFG, checkpoint_every=3)
        drive(shard, batches)
        shard.close()
        path = tmp_path / "t" / CHECKPOINT_NAME
        path.write_text(_corrupt(path.read_text(), edit))
        reopened = TenantShard("t", tmp_path / "t", CFG)
        assert (
            dict(reopened.snapshot.coreness),
            reopened.snapshot.density,
        ) == oracle[len(batches)]

    def test_checkpoint_ahead_of_wal_is_ignored(self, tmp_path):
        """A checkpoint claiming more batches than the WAL holds (e.g. the
        WAL lost its tail) must not be trusted."""
        batches = churn_batches(CFG.n, seed=6, count=6, size=4)
        shard = TenantShard("t", tmp_path / "t", CFG, checkpoint_every=2)
        drive(shard, batches)
        shard.write_checkpoint()
        shard.close(seal=False)
        payload = json.loads((tmp_path / "t" / CHECKPOINT_NAME).read_text())
        payload["position"] = len(batches) + 5
        (tmp_path / "t" / CHECKPOINT_NAME).write_text(json.dumps(payload))
        reopened = TenantShard("t", tmp_path / "t", CFG)
        oracle = oracle_answers(CFG, batches)
        assert (
            dict(reopened.snapshot.coreness),
            reopened.snapshot.density,
        ) == oracle[len(batches)]


class TestAtomicWriteDurability:
    @pytest.mark.parametrize("sync", [True, False])
    def test_meta_and_checkpoint_fsync_only_under_sync(
        self, tmp_path, monkeypatch, sync
    ):
        """``sync=True``: each atomic write fsyncs its temp file, then the
        directory; without it the writes issue no fsync at all."""
        kinds: list[str] = []
        real_fsync = os.fsync

        def spy(fd: int) -> None:
            kinds.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        shard = TenantShard("t", tmp_path / "t", CFG, sync=sync)  # meta.json
        shard.write_checkpoint()
        assert kinds == (["file", "dir"] * 2 if sync else [])
        shard.close(seal=False)
        directory = tmp_path / "t"
        meta = json.loads((directory / META_NAME).read_text())
        assert TenantConfig.from_json(meta) == CFG
        checkpoint = json.loads((directory / CHECKPOINT_NAME).read_text())
        assert checkpoint["position"] == 0
        assert not list(directory.glob("*.tmp"))


class TestModesAndDiscovery:
    def test_coreness_only_tenant_has_no_density(self, tmp_path):
        cfg = TenantConfig(n=16, mode="coreness")
        shard = TenantShard("t", tmp_path / "t", cfg)
        shard.accept(BatchOp("insert", ((0, 1), (1, 2))))
        shard.apply(BatchOp("insert", ((0, 1), (1, 2))))
        snap = shard.snapshot
        assert snap.coreness is not None
        assert snap.density is None and snap.out_neighbors is None

    def test_discover_tenants(self, tmp_path):
        for name in ("beta", "alpha"):
            TenantShard(name, tmp_path / name, CFG).close()
        (tmp_path / "junk").mkdir()  # no meta.json: not a tenant
        assert discover_tenants(tmp_path) == ["alpha", "beta"]
        assert discover_tenants(tmp_path / "missing") == []

    def test_pending_counts_accepted_minus_applied(self, tmp_path):
        shard = TenantShard("t", tmp_path / "t", CFG)
        op = BatchOp("insert", ((0, 1),))
        shard.accept(op)
        assert shard.pending == 1
        shard.apply(op)
        assert shard.pending == 0
