"""Shared cell library smoke test: two sessions, one store, the
invalidation cascade, and crash recovery.

The scenario CI runs:

1. session ``alice`` publishes the stock ``nand`` leaf to a shared
   on-disk cell store (``nand@1``);
2. session ``bob`` — a different editor, the other seat — consumes it
   with ``library.get``, builds two compositions on top and publishes
   them: ``ok_pair`` (instantiates nand, touches no connector) and
   ``breaker`` (wired through nand's connector ``A``);
3. alice publishes a *breaking* ``nand@2`` (connector ``A`` renamed);
   the publish returns the invalidation cascade's impact report, and
   we assert it names exactly who survives and who breaks — and on
   which command, with which structured error code;
4. in a second store, one of three dependents loses its journal blob;
   a compatible ``nand@2`` still publishes, the cascade reports that
   dependent broken at ``<journal>`` with ``library.corrupt`` and the
   others surviving, and ``python -m repro cellstore fsck`` names the
   missing blob;
5. a publisher subprocess is SIGKILLed mid-stream (the abnormally
   terminated session), and ``python -m repro cellstore fsck --repair``
   brings the store back to a state a fresh session can publish to.

Run directly: ``python examples/library_smoke.py``.  Exit code 0 on
success.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.api import types as t  # noqa: E402
from repro.api.session import Session  # noqa: E402
from repro.cellstore import CellStore, fsck  # noqa: E402
from repro.core.editor import RiotEditor  # noqa: E402
from repro.library.stock import filter_library  # noqa: E402


def session_for(store: CellStore) -> Session:
    editor = RiotEditor()
    editor.library = filter_library(editor.technology)
    return Session(editor=editor, cellstore=store)


def check(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def repro_env() -> dict:
    """This process's environment with ``src/`` on the path, for
    ``python -m repro`` subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def publish_and_consume(store: CellStore) -> None:
    alice = session_for(store)
    published = alice.dispatch(t.LibraryPublishRequest(name="nand"))
    check(
        (published.name, published.version) == ("nand", 1),
        "alice published nand@1",
    )

    bob = session_for(store)
    got = bob.dispatch(t.LibraryGetRequest(ref="nand@1"))
    check(got.ref == "nand@1", "bob consumed nand@1 from the store")

    bob.dispatch(t.NewCellRequest(name="ok_pair"))
    bob.dispatch(t.CreateRequest(at=(0, 20000), cell_name="nand", name="n0"))
    bob.dispatch(t.CreateRequest(at=(8000, 20000), cell_name="nand", name="n1"))
    ok_pair = bob.dispatch(t.LibraryPublishRequest(name="ok_pair"))
    check(ok_pair.deps == ("nand@1",), "ok_pair pinned to nand@1")

    carol = session_for(store)
    carol.dispatch(t.LibraryGetRequest(ref="nand@1"))
    carol.dispatch(t.NewCellRequest(name="breaker"))
    carol.dispatch(t.CreateRequest(at=(0, 20000), cell_name="nand", name="n0"))
    carol.dispatch(
        t.CreateRequest(at=(0, 30000), cell_name="srcell", nx=4, name="sr")
    )
    carol.dispatch(
        t.ConnectRequest(
            from_instance="n0",
            from_connector="A",
            to_instance="sr",
            to_connector="TAP[0,0]",
        )
    )
    carol.dispatch(t.AbutRequest())
    carol.dispatch(t.LibraryPublishRequest(name="breaker"))
    check("breaker" in store.names(), "breaker published")


def breaking_cascade(store: CellStore) -> None:
    """alice ships nand@2 with connector A renamed; the cascade must
    name the survivor and the casualty."""
    alice = session_for(store)
    v1 = store.payload(store.resolve("nand@1"))
    v2 = v1.replace("PIN A poly", "PIN Q poly")
    check(v2 != v1, "breaking candidate differs from nand@1")

    from repro.cellstore.cascade import overlay_payload

    overlay_payload(alice.editor.library, "sticks", v2)
    result = alice.dispatch(
        t.LibraryPublishRequest(name="nand", expected_version=1)
    )
    check(result.version == 2, "alice published breaking nand@2")

    by_name = {e.composition: e for e in result.impact}
    check(set(by_name) == {"ok_pair", "breaker"}, "cascade replayed both dependents")
    check(by_name["ok_pair"].survived, "ok_pair survives the rename")
    broken = by_name["breaker"]
    check(not broken.survived, "breaker is broken by the rename")
    failure = broken.failures[0]
    check(
        (failure.command, failure.code) == ("connect", "args.key"),
        f"break localised to '{failure.command}' with code '{failure.code}'",
    )


def lost_journal_cascade(store_dir: Path) -> None:
    """One of three dependents lost its journal blob: a compatible
    publish still lands, the cascade reports that dependent alone as
    broken, and fsck names the missing blob."""
    store = CellStore(store_dir)
    session_for(store).dispatch(t.LibraryPublishRequest(name="nand"))
    names = ("dep000", "dep001", "dep002")
    for name in names:
        seat = session_for(store)
        seat.dispatch(t.LibraryGetRequest(ref="nand@1"))
        seat.dispatch(t.NewCellRequest(name=name))
        seat.dispatch(t.CreateRequest(at=(0, 20000), cell_name="nand", name="n0"))
        seat.dispatch(t.CreateRequest(at=(8000, 20000), cell_name="nand", name="n1"))
        seat.dispatch(t.LibraryPublishRequest(name=name))
    journal = store.resolve("dep001@1").journal
    (store_dir / "blobs" / journal[:2] / journal[2:]).unlink()
    print(f"deleted dep001's journal blob {journal[:12]}")

    result = session_for(store).dispatch(
        t.LibraryPublishRequest(name="nand", expected_version=1)
    )
    check(result.version == 2, "compatible nand@2 published despite the lost journal")
    by_name = {e.composition: e for e in result.impact}
    check(set(by_name) == set(names), "cascade reported all three dependents")
    lost = by_name["dep001"]
    check(
        not lost.survived
        and [(f.command, f.code) for f in lost.failures]
        == [("<journal>", "library.corrupt")],
        "dep001 broken at <journal> with code library.corrupt",
    )
    check(
        by_name["dep000"].survived and by_name["dep002"].survived,
        "dep000 and dep002 survive",
    )

    report = subprocess.run(
        [sys.executable, "-m", "repro", "cellstore", "fsck", str(store_dir)],
        capture_output=True,
        text=True,
        env=repro_env(),
    )
    print(report.stdout.strip())
    check(
        report.returncode == 1 and journal[:12] in report.stdout,
        "cellstore fsck names the missing journal blob",
    )


#: Child process for the crash test: publish until SIGKILLed.
PUBLISHER = """
import sys
sys.path.insert(0, %r)
from repro.cellstore import CellStore
from repro.cellstore.store import text_digest

store = CellStore(sys.argv[1])
i = 0
while True:
    payload = ("# filler %%d\\n" %% i) * 200
    store.publish("crash%%d" %% (i %% 20), "sticks", payload,
                  content_hash=text_digest(payload))
    i += 1
    if i == 1:
        print("started", flush=True)
""" % str(SRC)


def crash_and_fsck(store_dir: Path) -> None:
    proc = subprocess.Popen(
        [sys.executable, "-c", PUBLISHER, str(store_dir)],
        stdout=subprocess.PIPE,
    )
    try:
        check(
            proc.stdout.readline().strip() == b"started",
            "publisher subprocess running",
        )
        time.sleep(0.3)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    print("publisher SIGKILLed mid-stream")

    repair = subprocess.run(
        [sys.executable, "-m", "repro", "cellstore", "fsck", str(store_dir), "--repair"],
        capture_output=True,
        text=True,
        env=repro_env(),
    )
    print(repair.stdout.strip())
    check(repair.returncode == 0, "cellstore fsck --repair converges")
    check(fsck(store_dir).clean, "store is clean after repair")

    survivor = CellStore(store_dir)
    before = len(survivor.records())
    check(before >= 1, "committed publishes survived the crash")
    from repro.cellstore.store import text_digest

    survivor.publish(
        "afterlife", "sticks", "# alive\n", content_hash=text_digest("# alive\n")
    )
    check(
        len(survivor.records()) == before + 1,
        "fresh session publishes after recovery",
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="library-smoke-") as tmp:
        store_dir = Path(tmp) / "lib"
        store = CellStore(store_dir)
        publish_and_consume(store)
        breaking_cascade(store)
        lost_journal_cascade(Path(tmp) / "journal-lib")
        crash_and_fsck(Path(tmp) / "crash-lib")
    print("library smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
