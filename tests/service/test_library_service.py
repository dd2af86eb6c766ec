"""The shared cell library over the socket transport: parity with
in-process dispatch, CAS conflicts between concurrent publishers, and
the library counters in ``service.stats``."""

from __future__ import annotations

import threading

import pytest

from repro.api import types as t
from repro.api.session import Session
from repro.cellstore import CellStore
from repro.core.editor import RiotEditor
from repro.errors import ReproError
from repro.library.stock import filter_library
from repro.service.client import ServiceClient
from repro.service.serve import ServiceThread


@pytest.fixture
def library_dir(tmp_path):
    return tmp_path / "lib"


@pytest.fixture
def server(library_dir):
    with ServiceThread(max_sessions=8, library_dir=str(library_dir)) as srv:
        yield srv


def client_for(server, session) -> ServiceClient:
    host, port = server.address
    return ServiceClient(host, port, session=session)


def local_session(library_dir) -> Session:
    editor = RiotEditor()
    editor.library = filter_library(editor.technology)
    return Session(editor=editor, cellstore=CellStore(library_dir))


class TestTransportParity:
    def test_same_typed_results_in_process_and_over_socket(
        self, server, library_dir
    ):
        # Publish through a local session (the textual interface's
        # transport)...
        local = local_session(library_dir)
        published = local.dispatch(t.LibraryPublishRequest(name="nand"))
        assert published == t.LibraryPublishResult(
            name="nand",
            version=1,
            hash=published.hash,
            kind="sticks",
        )
        # ...then read it back over the socket: byte-identical typed
        # dataclasses, not merely similar ones.
        with client_for(server, "parity") as client:
            over_wire = client.call("library.resolve", ref="nand@1")
        in_process = local.dispatch(t.LibraryResolveRequest(ref="nand@1"))
        assert over_wire == in_process
        assert over_wire.hash == published.hash

    def test_publish_over_socket_visible_locally(self, server, library_dir):
        with client_for(server, "writer") as client:
            result = client.call("library.publish", name="or2")
        assert (result.name, result.version) == ("or2", 1)
        local = local_session(library_dir)
        got = local.dispatch(t.LibraryGetRequest(ref="or2"))
        assert got.ref == "or2@1"

    def test_library_listing_over_socket(self, server, library_dir):
        local_session(library_dir).dispatch(t.LibraryPublishRequest(name="nand"))
        with client_for(server, "reader") as client:
            listing = client.call("library.list")
            deps = client.call("library.deps", ref="nand@1")
        assert [e.name for e in listing.entries] == ["nand"]
        assert deps.dependents == ()

    def test_unconfigured_service_reports_unavailable(self, tmp_path):
        with ServiceThread(max_sessions=2) as srv:  # no library_dir
            with client_for(srv, "nolib") as client:
                with pytest.raises(ReproError) as excinfo:
                    client.call("library.list")
        assert excinfo.value.code == "library.unavailable"


class TestConcurrentPublish:
    def test_concurrent_cas_publishes_one_wins_one_conflicts(self, server):
        # Two sessions both read head version 0 and race to create
        # nand@1 with expected_version=0: the store's lock serializes
        # them, exactly one wins, the loser gets the structured
        # conflict naming the head it lost to.
        barrier = threading.Barrier(2)
        outcomes: dict[str, object] = {}

        def contend(name: str) -> None:
            with client_for(server, name) as client:
                barrier.wait(timeout=10)
                try:
                    outcomes[name] = client.call(
                        "library.publish", name="nand", expected_version=0
                    )
                except ReproError as exc:
                    outcomes[name] = exc

        threads = [
            threading.Thread(target=contend, args=(n,))
            for n in ("alice", "bob")
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)

        results = [o for o in outcomes.values() if isinstance(o, t.LibraryPublishResult)]
        errors = [o for o in outcomes.values() if isinstance(o, ReproError)]
        assert len(results) == 1 and len(errors) == 1
        assert results[0].version == 1
        assert errors[0].code == "library.conflict"

    def test_loser_rebases_and_succeeds(self, server):
        with client_for(server, "rebase") as client:
            client.call("library.publish", name="nand", expected_version=0)
            with pytest.raises(ReproError) as excinfo:
                client.call("library.publish", name="nand", expected_version=0)
            assert excinfo.value.code == "library.conflict"
            head = client.call("library.resolve", ref="nand").version
            rebased = client.call(
                "library.publish", name="nand", expected_version=head
            )
        assert rebased.version == head + 1


class TestServiceStats:
    def test_stats_count_publishes_and_conflicts(self, server):
        with client_for(server, "stats") as client:
            client.call("library.publish", name="nand")
            with pytest.raises(ReproError):
                client.call("library.publish", name="nand", expected_version=0)
            stats = client.call("service.stats")
        assert stats.library_publishes == 1
        assert stats.library_conflicts == 1


class TestRepeatedGet:
    """``library.get`` of a composition the session already holds is a
    rebind, not a collision (regression: it used to raise
    ``composition.format`` from the loader's ``library.add``)."""

    def publish_composition(self, library_dir) -> None:
        local = local_session(library_dir)
        local.dispatch(t.NewCellRequest(name="duo"))
        local.dispatch(t.CreateRequest(cell_name="nand", name="g1", at=(0, 0)))
        local.dispatch(t.CreateRequest(cell_name="nand", name="g2", at=(0, 20000)))
        local.dispatch(t.FinishRequest())
        local.dispatch(t.LibraryPublishRequest(name="nand"))
        local.dispatch(t.LibraryPublishRequest(name="duo"))

    def test_get_twice_over_socket_rebinds(self, server, library_dir):
        self.publish_composition(library_dir)
        with client_for(server, "regetter") as client:
            first = client.call("library.get", ref="duo")
            second = client.call("library.get", ref="duo")
            # The session is still usable: the re-fetched composition
            # opens for edit, and a third get while it is under edit
            # rebinds silently too.
            client.call("edit", name="duo")
            third = client.call("library.get", ref="duo")
            check = client.call("check")
        assert first.loaded == second.loaded == third.loaded == ("nand", "duo")
        assert check.overlapping == 0

    def test_get_rebinds_the_cell_under_edit(self, library_dir):
        self.publish_composition(library_dir)
        session = local_session(library_dir)
        session.dispatch(t.LibraryGetRequest(ref="duo"))
        session.dispatch(t.EditRequest(name="duo"))
        session.dispatch(
            t.ConnectRequest(
                from_instance="g1",
                from_connector="OUT",
                to_instance="g2",
                to_connector="A",
            )
        )
        assert len(session.editor.pending) == 1
        again = session.dispatch(t.LibraryGetRequest(ref="duo"))
        assert "duo" in again.loaded
        # The editor now edits the freshly loaded definition, and the
        # pending list (which named the old instances) was dropped.
        assert session.editor.cell is session.editor.library.get("duo")
        assert len(session.editor.pending) == 0
        # Follow-on edits work against the rebound cell.
        session.dispatch(
            t.CreateRequest(cell_name="nand", name="g3", at=(8000, 0))
        )
        assert [i.name for i in session.editor.cell.instances] == [
            "g1",
            "g2",
            "g3",
        ]
