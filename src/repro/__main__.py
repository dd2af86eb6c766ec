"""``python -m repro`` — the textual command interface as a REPL.

The closest thing to sitting at the Caltech text terminal: type the
textual commands (``help`` lists them) against a live editor with the
worked example's cell library preloaded.  Files read and written by
commands live under the current directory.

Also usable non-interactively:

```sh
echo "cells" | python -m repro
python -m repro script.txt        # one command per line
```

Crash-safe sessions:

``--journal FILE``
    record the session to a write-ahead journal: every editor command
    is appended (flushed + fsynced) to FILE *before* it executes, so an
    abnormally-terminated session — power loss, ``kill -9`` — loses at
    most the command in flight.

``--recover FILE``
    before reading input, salvage FILE (stopping at any corrupt tail a
    crash left behind), replay it into the fresh session, and print the
    resulting recovery report.  ``--recover-mode strict`` aborts on the
    first entry that no longer executes; the default ``skip`` carries
    on past it, which is what survives leaf-cell redesigns.

The two compose: ``python -m repro --recover s.rpl --journal s.rpl``
resumes a crashed session and keeps journaling to the same file
(compacting away the corrupt tail).

Verification pipeline defaults:

``--jobs N`` / ``--cache DIR`` / ``--timing``
    session-wide defaults for the ``verify`` textual command: fan the
    verification task DAG out over N worker processes, cache every
    intermediate artifact (leaf expansion, CIF, flat geometry, DRC,
    netlist) by content under DIR, and print the per-stage timing and
    cache-counter report.  Each ``verify`` invocation can override
    them with the same flags.

Observability:

``--trace FILE``
    trace the whole session — a span per editor command (linked to its
    WAL sequence number when journaling), nested engine spans (ABUT,
    ROUTE, STRETCH, REST, WAL appends, pipeline tasks) — and write FILE
    in Chrome trace-event format at exit (open it in Perfetto or
    ``chrome://tracing``).  The ``trace on|off|save`` textual commands
    control the same machinery from inside a session.

``--metrics [FILE]``
    report the session's metrics counters (river tracks used, channels
    spilled, abutment refusals, REST iterations, WAL appends/fsyncs,
    pipeline cache hits/misses, ...) at exit: bare, as text on stdout;
    with FILE, as a JSON snapshot.  Both flags mean the same thing on
    every subcommand (``fuzz``, ``serve``) — see :mod:`repro.cli`.

Long-lived service: ``python -m repro serve`` hosts many concurrent
sessions behind the same typed command API over a socket — see
:mod:`repro.service` — and ``python -m repro top`` renders a running
service's request telemetry (per-class and per-stage latency
quantiles, per-shard breakdown, ``--slow`` flight recorder).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotations only; subcommands skip the editor
    from repro.core.textual import TextualInterface


def build_interface(
    root: str = ".", journal: str | None = None, library: str | None = None
) -> TextualInterface:
    from repro.core.editor import RiotEditor
    from repro.core.textual import DiskStore, TextualInterface
    from repro.library.stock import filter_library

    editor = RiotEditor()
    editor.library = filter_library(editor.technology)
    cellstore = None
    if library is not None:
        from repro.cellstore import CellStore

        cellstore = CellStore(library)
    interface = TextualInterface(editor, DiskStore(root), cellstore=cellstore)
    if journal is not None:
        from repro.core.wal import JournalWriter

        editor.journal.attach(JournalWriter(journal))
    return interface


def run(lines, interface: TextualInterface | None = None, echo=print) -> int:
    """Execute command lines; returns the count of failed commands."""
    interface = interface or build_interface()
    failures = 0
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("quit", "exit"):
            break
        response = interface.execute(line)
        if response:
            echo(response)
        if response.startswith("error"):
            failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "fuzz":
        from repro.proptest.runner import main as fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.serve import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "top":
        from repro.service.top import main as top_main

        return top_main(argv[1:])
    if argv and argv[0] == "cellstore":
        from repro.cellstore.cli import main as cellstore_main

        return cellstore_main(argv[1:])
    if argv and argv[0] == "floorplan":
        from repro.floorplan.cli import main as floorplan_main

        return floorplan_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Riot textual command interface",
    )
    parser.add_argument(
        "script", nargs="?", help="command script (one textual command per line)"
    )
    parser.add_argument(
        "--journal",
        metavar="FILE",
        help="record the session to a crash-safe write-ahead journal",
    )
    parser.add_argument(
        "--recover",
        metavar="FILE",
        help="replay a (possibly crash-damaged) journal before reading input",
    )
    parser.add_argument(
        "--recover-mode",
        choices=("strict", "skip"),
        default="skip",
        help="strict: abort on the first failing entry; skip (default): continue past it",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="default worker count for the verify command's pipeline",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="default content-addressed artifact cache for verify",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="have verify print its per-stage timing and cache-counter report",
    )
    parser.add_argument(
        "--library",
        metavar="DIR",
        help="shared cell store directory for the 'library' textual commands",
    )
    from repro.cli import add_obs_flags

    add_obs_flags(parser)
    args = parser.parse_args(argv)

    interface = build_interface(library=args.library)
    if args.jobs is not None:
        if args.jobs < 1:
            print("error: --jobs must be >= 1")
            return 1
        interface.verify_defaults["jobs"] = args.jobs
    if args.cache:
        interface.verify_defaults["cache"] = args.cache
    if args.timing:
        interface.verify_defaults["timing"] = True
    if args.recover:
        from repro.core import wal
        from repro.core.errors import RiotError

        try:
            report = wal.recover(
                interface.editor, wal.load_path(args.recover), mode=args.recover_mode
            )
        except (RiotError, OSError) as exc:
            print(f"error: recovery failed: {exc}")
            return 1
        print(report.to_text())
    if args.journal:
        from repro.core.wal import JournalWriter

        interface.editor.journal.attach(JournalWriter(args.journal))

    from repro.cli import obs_from_flags

    failures = 0
    try:
        with obs_from_flags(args.trace, args.metrics) as tracer:
            if tracer is not None:
                interface.tracer = tracer
            if args.script:
                with open(args.script) as f:
                    failures = run(f, interface)
            else:
                if sys.stdin.isatty():
                    print(
                        "riot-repro textual interface; "
                        "'help' lists commands, 'quit' leaves."
                    )
                # Interactive/pipe mode keeps exit code 0: errors were
                # already reported inline, the way a REPL does.
                run(sys.stdin, interface)
    finally:
        # The session's journal, from --journal or a 'journal' command.
        writer = interface.editor.journal.writer
        if writer is not None:
            writer.close()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
