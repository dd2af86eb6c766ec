"""Only ``core/wal.py`` makes files durable.

Its ``atomic_write`` (temp file, fsync, ``os.replace``) and its
``JournalWriter`` (fsynced appends and truncations) are the one
durable-file layer: the WAL, the cell store, ``fsck``, the artifact
cache and ``DiskStore`` all write through them.  This walks each
module's syntax tree with the standard library and names every other
module that calls ``os.fsync``, ``os.replace`` or ``tempfile.mkstemp``
itself, or imports one of them by name.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: The durable-file calls, by module.
CALLS = {"os": {"fsync", "replace"}, "tempfile": {"mkstemp"}}

#: The one module allowed to make them.
OWNER = Path("repro/core/wal.py")


def durable_calls(path: Path) -> list[tuple[int, str]]:
    """(line, ``module.name``) of each durable-file call or import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.attr in CALLS.get(node.value.id, ())
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module in CALLS:
            found.extend(
                (node.lineno, f"{node.module}.{alias.name}")
                for alias in node.names
                if alias.name in CALLS[node.module]
            )
    return sorted(found)


def test_only_the_wal_makes_files_durable():
    found = [
        f"{path.relative_to(SRC)}:{line}: {call}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC) != OWNER
        for line, call in durable_calls(path)
    ]
    assert not found, "durable writes outside core/wal.py:\n" + "\n".join(found)


def test_the_owner_still_makes_them():
    assert {call for _, call in durable_calls(SRC / OWNER)} == {
        "os.fsync",
        "os.replace",
        "tempfile.mkstemp",
    }


def test_the_check_sees_each_call(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os, tempfile\n"
        "from os import replace\n"
        "def save(path, data):\n"
        "    fd, tmp = tempfile.mkstemp()\n"
        "    os.fsync(fd)\n"
        "    os.replace(tmp, path)\n"
        "    return os.path.join(path, 'x')\n",
        encoding="utf-8",
    )
    assert durable_calls(module) == [
        (2, "os.replace"),
        (4, "tempfile.mkstemp"),
        (5, "os.fsync"),
        (6, "os.replace"),
    ]
