"""``python -m repro cellstore`` — offline maintenance for the store.

One subcommand so far::

    python -m repro cellstore fsck DIR [--repair]

``fsck`` checks the refs log (framing, CRCs, op allowlist, torn tail)
and the blob farm (presence, content hash) of the cell store at DIR
and prints the report.  Exit status is 0 when the store is clean (or
was just repaired to clean), 1 otherwise — also when DIR is not a
directory, which is reported as no cell store and left uncreated.
``--repair`` rewrites the refs log atomically with every damaged line
dropped — the recovery step after a publisher was SIGKILLed
mid-append.
"""

from __future__ import annotations

import argparse


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro cellstore",
        description="Maintenance tools for the shared cell store.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p_fsck = sub.add_parser("fsck", help="check (and optionally repair) a store")
    p_fsck.add_argument("dir", metavar="DIR", help="the cell store directory")
    p_fsck.add_argument(
        "--repair",
        action="store_true",
        help="rewrite the refs log with damaged lines dropped",
    )
    args = parser.parse_args(argv)

    from repro.cellstore import fsck

    report = fsck(args.dir, repair=args.repair)
    print(report.to_text())
    return 0 if report.clean or report.repaired else 1


if __name__ == "__main__":
    raise SystemExit(main())
