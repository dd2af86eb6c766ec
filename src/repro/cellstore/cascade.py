"""The invalidation cascade — REPLAY as an impact oracle.

The paper's central recovery claim is that a saved session can be
re-run "if some of the input files have changed", because the replay
file names instances and connectors instead of positions.  The shared
library turns that from a manual rescue into a pre-publish check:
when a new version of a cell lands, every stored composition that
depends on it is replayed — in a scratch editor, against the exact
pinned library the composition was published with, with only the
changed cell substituted — and the publisher gets back a structured
impact report: which dependents survive the new version, which break,
and on which command with which stable error code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cellstore.errors import Corrupt, MissingDep
from repro.cellstore.refs import parse_ref
from repro.cellstore.store import CellRecord, CellStore
from repro.core.errors import JournalError
from repro.core.replay import Journal
from repro.errors import error_code
from repro.obs import metrics, trace


@dataclass(frozen=True)
class ImpactFailure:
    """One replayed command that no longer executes."""

    command: str
    code: str
    error: str


@dataclass(frozen=True)
class ImpactEntry:
    """One dependent composition's fate under the candidate version."""

    composition: str
    #: The dependency ref (``name@N``) through which the composition
    #: depends on the changed cell.
    dependency: str
    survived: bool
    executed: int
    total: int
    failures: tuple[ImpactFailure, ...] = ()


def journal_dependencies(text: str) -> tuple[str, ...]:
    """Cell names a REPLAY journal consumes from the library.

    ``create``/``select`` entries name the cells they instantiate;
    names the journal itself defines (``new_cell``, ``rename_cell``)
    are not dependencies.  This is how ``publish`` learns which
    library cells a composition is built from, so it can pin them.
    """
    journal = Journal.from_text(text)
    defined: set[str] = set()
    used: list[str] = []
    for entry in journal.entries:
        if entry.command == "new_cell":
            defined.add(entry.kwargs.get("name"))
        elif entry.command == "rename_cell":
            defined.add(entry.kwargs.get("new"))
        elif entry.command in ("create", "select"):
            name = entry.kwargs.get("cell_name")
            if name and name not in used:
                used.append(name)
    return tuple(n for n in used if n not in defined)


def _replace_or_add(library, cell) -> None:
    if cell.name in library:
        library.replace(cell.name, cell)
    else:
        library.add(cell)


def overlay_payload(library, kind: str, payload: str) -> list[str]:
    """Materialise a stored payload into a session's cell library,
    replacing same-named cells (rebinding their instances) rather than
    colliding with them.  Returns the names it defined."""
    if kind == "composition":
        from repro.composition.format import load_composition

        return [c.name for c in load_composition(payload, library, replace=True)]
    cells = library.leaves(kind, payload)
    for cell in cells:
        _replace_or_add(library, cell)
    return [cell.name for cell in cells]


def load_closure(
    store: CellStore,
    library,
    record: CellRecord,
    *,
    skip: frozenset[str] = frozenset(),
    pins: dict[str, int] | None = None,
    _seen: set[str] | None = None,
) -> list[str]:
    """Overlay ``record``'s pinned dependency closure, then ``record``
    itself, into ``library`` (depth-first, each store cell once).
    Returns every cell name defined, closure order; ``pins`` (if given)
    collects the store version each overlaid cell came from.

    Names in ``skip`` are left alone — the cascade uses this to hold a
    slot open for the candidate payload.  Bare (unpinned) dependency
    names are stock-library cells and are assumed present.
    """
    seen = _seen if _seen is not None else set()
    loaded: list[str] = []
    if record.name in seen or record.name in skip:
        return loaded
    seen.add(record.name)
    for dep in record.deps:
        ref = parse_ref(dep)
        if ref.name in skip or ref.version is None:
            continue
        try:
            dep_record = store.resolve(ref)
        except Exception as exc:
            raise MissingDep(
                f"dependency {dep!r} of {record.ref} is gone: {exc}"
            ) from exc
        loaded.extend(
            load_closure(
                store, library, dep_record, skip=skip, pins=pins, _seen=seen
            )
        )
    loaded.extend(overlay_payload(library, record.kind, store.payload(record)))
    if pins is not None:
        pins[record.name] = record.version
    return loaded


def replay_with_codes(journal: Journal, editor) -> tuple[int, list[ImpactFailure]]:
    """Replay a parsed journal into ``editor``, pressing on past
    failures (:meth:`Journal.replay` in skip mode).  Returns (executed,
    failures), each failure with its stable error code."""
    report = journal.replay(editor, mode="skip")
    return report.executed, [
        ImpactFailure(command=s.command, code=s.code, error=s.error)
        for s in report.skipped
    ]


def fresh_editor(technology=None):
    """A scratch session shaped like the CLI's: stock filter-chip
    library over the (default nMOS) technology."""
    from repro.core.editor import RiotEditor
    from repro.library.stock import filter_library

    editor = RiotEditor(technology)
    editor.library = filter_library(editor.technology)
    return editor


def assess_impact(
    store: CellStore,
    name: str,
    candidate_payload: str,
    candidate_kind: str,
    *,
    technology=None,
) -> list[ImpactEntry]:
    """Replay every stored composition that depends on ``name`` against
    the candidate payload; one :class:`ImpactEntry` per dependent, in
    store order."""
    entries: list[ImpactEntry] = []
    with trace.span("library.cascade", cell=name) as span:
        for comp in store.dependents_of(name):
            dependency = next(
                dep for dep in comp.deps if parse_ref(dep).name == name
            )
            entries.append(
                _assess_one(
                    store,
                    comp,
                    dependency,
                    name,
                    candidate_payload,
                    candidate_kind,
                    technology,
                )
            )
        span.set("dependents", len(entries))
    broken = sum(1 for e in entries if not e.survived)
    metrics.counter("library.cascades").inc()
    if broken:
        metrics.counter("library.cascade_breaks").inc(broken)
    return entries


def _assess_one(
    store: CellStore,
    comp: CellRecord,
    dependency: str,
    name: str,
    candidate_payload: str,
    candidate_kind: str,
    technology,
) -> ImpactEntry:
    def _failed(command: str, code: str, error: str) -> ImpactEntry:
        return ImpactEntry(
            composition=comp.name,
            dependency=dependency,
            survived=False,
            executed=0,
            total=0,
            failures=(ImpactFailure(command=command, code=code, error=error),),
        )

    try:
        journal_text = store.journal_payload(comp)
        if journal_text is None:
            return _failed(
                "<journal>",
                MissingDep.code,
                f"{comp.ref} has no replay journal recorded",
            )
        journal = Journal.from_text(journal_text)
    except (Corrupt, JournalError) as exc:
        # A missing or damaged blob: the new version has already
        # landed, so this is one dependent's failure, not the cascade's.
        return _failed("<journal>", error_code(exc), f"{type(exc).__name__}: {exc}")
    editor = fresh_editor(technology)
    try:
        # The composition's pinned deps, minus the changed cell — whose
        # slot the candidate payload fills instead.
        skip = frozenset({name, comp.name})
        for dep in comp.deps:
            ref = parse_ref(dep)
            if ref.name in skip or ref.version is None:
                continue
            load_closure(store, editor.library, store.resolve(ref), skip=skip)
        overlay_payload(editor.library, candidate_kind, candidate_payload)
    except Exception as exc:
        return _failed("<setup>", error_code(exc), f"{type(exc).__name__}: {exc}")
    executed, failures = replay_with_codes(journal, editor)
    return ImpactEntry(
        composition=comp.name,
        dependency=dependency,
        survived=not failures,
        executed=executed,
        total=len(journal.entries),
        failures=tuple(failures),
    )
