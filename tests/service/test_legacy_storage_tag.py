"""Data written before storage had a single layout still restores.

Checkpoints and snapshots used to carry a ``"substrate"`` tag naming the
storage layout they were captured on.  The tag was never part of the
logical state; it is no longer written and is ignored on read, whatever
its value.

``fixtures/legacy_storage_tag`` was written by the last revision that
had the tag, running on its default search-tree layout:

* ``legacy/`` — a tenant data dir (``mode="both"``, n=24, 11 churn
  batches, ``checkpoint_every=4``) left without a graceful close, so its
  ``checkpoint.json`` (tagged with the old default layout) sits at epoch 8
  and the unsealed WAL holds a 3-batch suffix;
* ``expected_snapshot.json`` — that tenant's published snapshot at
  epoch 11, serialised with ``json.dumps(asdict(snapshot), sort_keys=True)``;
* ``balanced_snapshot.json`` — a tagged ``core.snapshot.to_json`` payload.
"""

from __future__ import annotations

import json
import pathlib
import shutil
from dataclasses import asdict

from repro.core.snapshot import from_json, to_json
from repro.resilience.checkpoint import checkpoint, restore_checkpoint
from repro.service.state import CHECKPOINT_NAME, TenantConfig, TenantShard

FIXTURE = pathlib.Path(__file__).with_name("fixtures") / "legacy_storage_tag"


def _open_copy(tmp_path: pathlib.Path) -> TenantShard:
    directory = tmp_path / "legacy"
    shutil.copytree(FIXTURE / "legacy", directory)
    meta = json.loads((directory / "meta.json").read_text())
    return TenantShard("legacy", directory, TenantConfig.from_json(meta))


def test_fixture_carries_the_legacy_tag():
    payload = json.loads((FIXTURE / "legacy" / CHECKPOINT_NAME).read_text())
    assert payload["position"] == 8
    for structure in payload["structures"].values():
        assert structure["substrate"] != "flat"  # the old default layout


def test_tenant_recovers_to_byte_identical_answers(tmp_path):
    shard = _open_copy(tmp_path)
    try:
        assert shard.applied == 11
        got = json.dumps(asdict(shard.snapshot), sort_keys=True) + "\n"
        assert got == (FIXTURE / "expected_snapshot.json").read_text()
    finally:
        shard.close()
    # the graceful close re-checkpoints without the tag
    payload = json.loads((tmp_path / "legacy" / CHECKPOINT_NAME).read_text())
    assert all("substrate" not in s for s in payload["structures"].values())


def test_ladder_payloads_restore_with_the_tag_ignored():
    payload = json.loads((FIXTURE / "legacy" / CHECKPOINT_NAME).read_text())
    for structure in payload["structures"].values():
        untagged = {k: v for k, v in structure.items() if k != "substrate"}
        for tagged in (structure, untagged, dict(structure, substrate="flat")):
            assert checkpoint(restore_checkpoint(tagged)) == untagged


def test_balanced_snapshot_restores_with_the_tag_ignored():
    raw = (FIXTURE / "balanced_snapshot.json").read_text()
    assert json.loads(raw)["substrate"] != "flat"
    st = from_json(raw)
    untagged = {k: v for k, v in json.loads(raw).items() if k != "substrate"}
    assert json.loads(to_json(st)) == untagged
