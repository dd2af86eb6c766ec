"""Store integrity checking: deterministic damage first, then the
real thing — a publisher SIGKILLed mid-stream, with ``fsck`` required
to bring the store back to a publishable state."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cellstore import CellStore, fsck
from repro.cellstore.store import text_digest


def publish(store, name, payload, **kwargs):
    return store.publish(
        name, "sticks", payload, content_hash=text_digest(payload), **kwargs
    )


class TestDeterministicDamage:
    def test_clean_store_is_clean(self, store):
        publish(store, "nand", "v1")
        report = fsck(store.root)
        assert report.clean
        assert report.records == 1
        assert not report.repaired

    @pytest.mark.parametrize("repair", [False, True])
    def test_missing_store_is_reported_and_not_created(self, tmp_path, repair):
        missing = tmp_path / "never-created"
        report = fsck(missing, repair=repair)
        assert report.missing
        assert not report.clean and not report.repaired
        assert report.to_text().endswith("no cell store there")
        assert "--repair" not in report.to_text()
        assert not missing.exists()

    def test_torn_tail_detected_then_repaired(self, store):
        publish(store, "nand", "v1")
        with open(store.root / "refs.wal", "a") as f:
            f.write('{"torn')
        report = fsck(store.root)
        assert not report.clean
        assert report.torn_tail
        repaired = fsck(store.root, repair=True)
        assert repaired.repaired
        assert fsck(store.root).clean
        assert CellStore(store.root).resolve("nand").version == 1

    def test_missing_blob_reported(self, store):
        record = publish(store, "nand", "v1")
        (store.root / "blobs" / record.blob[:2] / record.blob[2:]).unlink()
        report = fsck(store.root)
        assert not report.clean
        assert any(i.kind == "missing-blob" for i in report.issues)

    def test_corrupt_blob_reported(self, store):
        record = publish(store, "nand", "v1")
        blob = store.root / "blobs" / record.blob[:2] / record.blob[2:]
        blob.write_text("not the payload")
        report = fsck(store.root)
        assert any(i.kind == "corrupt-blob" for i in report.issues)

    def test_damaged_line_repairable_keeping_prior_records(self, store):
        publish(store, "nand", "v1")
        publish(store, "or2", "v1")
        path = store.root / "refs.wal"
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-5] + "XXXXX"  # corrupt or2's CRC
        path.write_text("\n".join(lines) + "\n")
        report = fsck(store.root, repair=True)
        assert report.repaired
        after = CellStore(store.root)
        # Salvage keeps everything before the damage, drops the rest.
        assert after.resolve("nand").version == 1
        assert after.names() == ["nand"]

    def test_a_live_store_rereads_a_repaired_log(self, store):
        # A long-lived reader (a shard's store lives as long as the
        # shard) indexes the log; a repair then rewrites it shorter and
        # another writer grows it past the reader's old offset.
        publish(store, "nand", "v1")
        tampered = publish(store, "or2", "v1 of or2")
        publish(store, "nand", "v2")
        refs = store.root / "refs.wal"
        assert store.names() == ["nand", "or2"]
        indexed = refs.stat().st_size
        (store.root / "blobs" / tampered.blob[:2] / tampered.blob[2:]).write_text(
            "tampered"
        )
        assert fsck(store.root, repair=True).repaired
        assert refs.stat().st_size < indexed
        other = CellStore(store.root)
        count = 0
        while refs.stat().st_size <= indexed:
            publish(other, f"cell{count}", f"payload {count}")
            count += 1
        fresh = CellStore(store.root)
        assert store.names() == fresh.names() == [
            *(f"cell{i}" for i in range(count)),
            "nand",
        ]
        assert store.records() == fresh.records()


#: Child process: hammer publishes until killed.  Big-ish payloads and
#: many iterations make the SIGKILL land mid-append often enough to
#: exercise the torn-tail path across runs.
PUBLISHER = """
import sys
from repro.cellstore import CellStore
from repro.cellstore.store import text_digest

store = CellStore(sys.argv[1])
i = 0
while True:
    payload = ("# filler %d\\n" % i) * 200
    store.publish(
        "cell%d" % (i % 50), "sticks", payload,
        content_hash=text_digest(payload),
    )
    i += 1
    if i == 1:
        print("started", flush=True)
"""


class TestSigkillDuringPublish:
    def test_store_recoverable_after_publisher_killed(self, tmp_path):
        root = tmp_path / "lib"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        with subprocess.Popen(
            [sys.executable, "-c", PUBLISHER, str(root)],
            stdout=subprocess.PIPE,
            env=env,
        ) as proc:
            try:
                # Wait for the first publish so the kill hits a busy store.
                assert proc.stdout.readline().strip() == b"started"
                time.sleep(0.2)
            finally:
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=10)

        # fsck --repair must always converge to a clean store...
        report = fsck(root, repair=True)
        assert fsck(root).clean
        # ...that a fresh process can keep publishing to.
        store = CellStore(root)
        survivors = len(store.records())
        assert survivors >= 1  # the first publish completed pre-kill
        publish(store, "afterlife", "back in business")
        assert store.resolve("afterlife").version == 1
        assert len(store.records()) == survivors + 1
