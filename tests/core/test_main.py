"""Tests for the ``python -m repro`` entry point."""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

from repro.__main__ import build_interface, run
from repro.api import types as t
from repro.api import wire
from repro.service import control

#: Subprocesses must resolve ``repro`` regardless of install state or
#: working directory, so the repo's src/ rides along on PYTHONPATH.
SRC = Path(__file__).resolve().parents[2] / "src"
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""),
}


class TestRunFunction:
    def test_commands_execute(self):
        outputs = []
        failures = run(["cells", "help"], echo=outputs.append)
        assert failures == 0
        assert outputs[0].startswith("cells:")

    def test_blank_and_comments_skipped(self):
        outputs = []
        run(["", "# a comment", "cells"], echo=outputs.append)
        assert len(outputs) == 1

    def test_quit_stops(self):
        outputs = []
        run(["quit", "cells"], echo=outputs.append)
        assert outputs == []

    def test_failures_counted(self):
        outputs = []
        failures = run(["edit ghost", "read nope.cif"], echo=outputs.append)
        assert failures == 2

    def test_stock_library_preloaded(self):
        interface = build_interface()
        assert "srcell" in interface.editor.library

    def test_session_flow(self, tmp_path):
        interface = build_interface(str(tmp_path))
        outputs = []
        failures = run(
            [
                "new demo",
                "cells",
                "write demo.comp",
            ],
            interface,
            echo=outputs.append,
        )
        assert failures == 0
        assert (tmp_path / "demo.comp").exists()


class TestSubprocess:
    def test_pipe_mode(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro"],
            input="cells\nquit\n",
            capture_output=True,
            text=True,
            timeout=120,
            env=SUBPROCESS_ENV,
        )
        assert result.returncode == 0
        assert "cells:" in result.stdout

    def test_script_mode(self, tmp_path):
        script = tmp_path / "session.txt"
        script.write_text("cells\nhelp\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro", str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(tmp_path),
            env=SUBPROCESS_ENV,
        )
        assert result.returncode == 0
        assert "commands:" in result.stdout


#: ``python -c PROBE OUT ARGS...`` runs ``python -m repro ARGS...`` and,
#: at exit, writes the ``repro`` modules the process loaded to OUT.
PROBE = """
import atexit, json, runpy, sys
def dump(path=sys.argv[1]):
    with open(path, "w") as f:
        json.dump(sorted(m for m in sys.modules if m.startswith("repro")), f)
atexit.register(dump)
sys.argv = ["repro", *sys.argv[2:]]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

#: What only a session runs: the editor and its cell formats, the
#: command registry and the wire dataclasses.
SESSION_STACK = (
    "repro.core",
    "repro.composition",
    "repro.cif",
    "repro.sticks",
    "repro.rest",
    "repro.api.types",
    "repro.api.registry",
    "repro.api.session",
)


def _probe(out: Path, *args: str, **popen) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", PROBE, str(out), *args],
        env=SUBPROCESS_ENV,
        **popen,
    )


def _session_modules(out: Path) -> list[str]:
    return [
        m
        for m in json.loads(out.read_text())
        if any(m == p or m.startswith(p + ".") for p in SESSION_STACK)
    ]


class TestImportBoundaries:
    """Each process imports what it runs, checked in fresh interpreters."""

    def test_supervisor_and_top_load_no_session_stack(self, tmp_path):
        supervisor = _probe(
            tmp_path / "serve.json",
            "serve", "--port", "0", "--shards", "1",
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            host, port = supervisor.stdout.readline().split()[-1].rsplit(":", 1)
            requests = [
                ("service.hello", control.HelloRequest(), None),
                ("service.route", control.RouteRequest(session="alice"), None),
                ("cells", t.CellsRequest(), "alice"),  # answered service.moved
                ("service.stats", control.ServiceStatsRequest(), None),
                ("service.sessions", control.SessionsRequest(), None),
                ("service.telemetry", control.TelemetryRequest(slow=True), None),
            ]
            with socket.create_connection(
                (host, int(port)), timeout=60
            ) as sock, sock.makefile("rw", encoding="utf-8") as stream:
                for id, (method, request, session) in enumerate(requests):
                    stream.write(
                        wire.encode_request(method, request, id=id, session=session)
                        + "\n"
                    )
                    stream.flush()
                    assert json.loads(stream.readline())["id"] == id
                top = _probe(
                    tmp_path / "top.json", "top", "--port", port,
                    stdout=subprocess.DEVNULL,
                )
                assert top.wait(timeout=60) == 0
                stream.write(
                    wire.encode_request(
                        "service.shutdown", control.ShutdownRequest(), id=99
                    )
                    + "\n"
                )
                stream.flush()
                assert json.loads(stream.readline())["ok"]
            assert supervisor.wait(timeout=60) == 0
        finally:
            if supervisor.poll() is None:
                supervisor.kill()
                supervisor.wait()
            supervisor.stdout.close()
        assert _session_modules(tmp_path / "serve.json") == []
        assert "repro.core.textual" not in json.loads(
            (tmp_path / "top.json").read_text()
        )

    def test_shard_loads_the_session_stack_before_its_banner(self):
        loaded = subprocess.run(
            [
                sys.executable,
                "-c",
                "import json, sys, repro.service.shard; "
                "print(json.dumps(sorted(sys.modules)))",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=SUBPROCESS_ENV,
            check=True,
        )
        modules = json.loads(loaded.stdout)
        assert "repro.api.session" in modules
        assert "repro.core.editor" in modules

    def test_fuzz_and_cellstore_skip_the_textual_interface(self, tmp_path):
        (tmp_path / "corpus").mkdir()
        (tmp_path / "store").mkdir()
        runs = {
            "fuzz": ["fuzz", "--cases", "1", "--corpus", str(tmp_path / "corpus")],
            "cellstore": ["cellstore", "fsck", str(tmp_path / "store")],
        }
        for name, args in runs.items():
            out = tmp_path / f"{name}.json"
            proc = _probe(out, *args, stdout=subprocess.DEVNULL)
            assert proc.wait(timeout=120) == 0, name
            assert "repro.core.textual" not in json.loads(out.read_text()), name
