"""CellStore semantics: publish/resolve/deprecate, optimistic
concurrency, durability of the refs log, and cross-instance (stand-in
for cross-process) visibility."""

from __future__ import annotations

import pytest

from repro.cellstore import (
    CellStore,
    Conflict,
    Corrupt,
    Deprecated,
    NotFound,
)
from repro.cellstore.store import text_digest
from repro.obs import metrics


def publish(store, name, payload, **kwargs):
    return store.publish(
        name, "sticks", payload, content_hash=text_digest(payload), **kwargs
    )


class TestPublishResolve:
    def test_versions_count_up_from_one(self, store):
        assert publish(store, "nand", "v1").version == 1
        assert publish(store, "nand", "v2").version == 2

    def test_bare_ref_resolves_latest(self, store):
        publish(store, "nand", "v1")
        publish(store, "nand", "v2")
        assert store.resolve("nand").version == 2
        assert store.resolve("nand@latest").version == 2

    def test_pinned_ref_survives_newer_versions(self, store):
        publish(store, "nand", "v1")
        publish(store, "nand", "v2")
        record = store.resolve("nand@1")
        assert (record.version, store.payload(record)) == (1, "v1")

    def test_payload_round_trips_exactly(self, store):
        payload = "line one\nline two\n# comment\n"
        record = publish(store, "nand", payload)
        assert store.payload(record) == payload

    def test_unknown_name_raises_not_found(self, store):
        with pytest.raises(NotFound) as excinfo:
            store.resolve("ghost")
        assert excinfo.value.code == "library.not_found"

    def test_unknown_version_raises_not_found(self, store):
        publish(store, "nand", "v1")
        with pytest.raises(NotFound):
            store.resolve("nand@9")

    def test_identical_payloads_share_one_blob(self, store):
        a = publish(store, "nand", "same text")
        b = publish(store, "or2", "same text")
        assert a.blob == b.blob
        assert a.blob == text_digest("same text")

    def test_unknown_kind_rejected(self, store):
        with pytest.raises(ValueError):
            store.publish(
                "nand", "netlist", "p", content_hash=text_digest("p")
            )

    def test_versioned_ref_rejected_as_publish_name(self, store):
        with pytest.raises(ValueError):
            publish(store, "nand@2", "p")


class TestOptimisticConcurrency:
    def test_expected_version_zero_means_create(self, store):
        assert publish(store, "nand", "v1", expected_version=0).version == 1

    def test_cas_succeeds_against_current_head(self, store):
        publish(store, "nand", "v1")
        assert publish(store, "nand", "v2", expected_version=1).version == 2

    def test_stale_expectation_conflicts_with_head(self, store):
        publish(store, "nand", "v1")
        publish(store, "nand", "v2")
        with pytest.raises(Conflict) as excinfo:
            publish(store, "nand", "v3", expected_version=1)
        assert excinfo.value.code == "library.conflict"
        assert excinfo.value.head == 2

    def test_conflict_leaves_store_unchanged(self, store):
        publish(store, "nand", "v1")
        with pytest.raises(Conflict):
            publish(store, "nand", "v2", expected_version=0)
        assert store.resolve("nand").version == 1
        assert [r.version for r in store.versions("nand")] == [1]


class TestDeprecation:
    def test_latest_skips_tombstoned_versions(self, store):
        publish(store, "nand", "v1")
        publish(store, "nand", "v2")
        store.deprecate("nand", 2)
        assert store.resolve("nand").version == 1

    def test_pinned_ref_to_tombstone_raises_deprecated(self, store):
        publish(store, "nand", "v1")
        publish(store, "nand", "v2")
        store.deprecate("nand", 1)
        with pytest.raises(Deprecated) as excinfo:
            store.resolve("nand@1")
        assert excinfo.value.code == "library.deprecated"

    def test_all_versions_tombstoned_raises_deprecated(self, store):
        publish(store, "nand", "v1")
        store.deprecate("nand", 1)
        with pytest.raises(Deprecated):
            store.resolve("nand")

    def test_deprecate_is_idempotent(self, store):
        publish(store, "nand", "v1")
        store.deprecate("nand", 1)
        store.deprecate("nand", 1)
        assert store.is_deprecated("nand", 1)

    def test_next_publish_resurrects_the_name(self, store):
        publish(store, "nand", "v1")
        store.deprecate("nand", 1)
        publish(store, "nand", "v2")
        assert store.resolve("nand").version == 2


class TestDurability:
    def test_second_instance_sees_existing_records(self, store):
        publish(store, "nand", "v1")
        other = CellStore(store.root)
        record = other.resolve("nand@1")
        assert other.payload(record) == "v1"

    def test_writes_propagate_between_live_instances(self, store):
        other = CellStore(store.root)
        publish(store, "nand", "v1")
        assert other.resolve("nand").version == 1
        publish(other, "nand", "v2")
        assert store.resolve("nand").version == 2

    def test_torn_tail_is_tolerated_and_truncated(self, store):
        publish(store, "nand", "v1")
        with open(store.root / "refs.wal", "a") as f:
            f.write('{"interrupted mid-append')
        # A fresh instance reads past the torn tail...
        other = CellStore(store.root)
        assert other.resolve("nand").version == 1
        # ...and the next publish truncates it rather than corrupting.
        publish(other, "nand", "v2")
        assert CellStore(store.root).resolve("nand").version == 2

    def test_mid_file_damage_raises_corrupt(self, store):
        publish(store, "nand", "v1")
        publish(store, "nand", "v2")
        path = store.root / "refs.wal"
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5] + "XXXXX"  # break the first record's CRC
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(Corrupt) as excinfo:
            CellStore(store.root).resolve("nand")
        assert "fsck" in str(excinfo.value)

    def test_blob_tamper_detected_on_read(self, store):
        record = publish(store, "nand", "v1")
        blob = store.root / "blobs" / record.blob[:2] / record.blob[2:]
        blob.write_text("tampered")
        with pytest.raises(Corrupt):
            CellStore(store.root).payload(record)


class TestCounters:
    def test_publish_conflict_and_resolve_counters(self, store):
        with metrics.scope(metrics.MetricsRegistry()) as registry:
            publish(store, "nand", "v1")
            with pytest.raises(Conflict):
                publish(store, "nand", "v2", expected_version=0)
            store.resolve("nand")
        snapshot = registry.snapshot()
        assert snapshot["library.publishes"] == 1
        assert snapshot["library.conflicts"] == 1
        assert snapshot["library.resolves"] == 1
