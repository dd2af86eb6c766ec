"""The command table: method name -> (request, result, handler).

Handlers hold the logic the textual interface used to inline; they
take a :class:`repro.api.session.Session` and a request dataclass and
return the paired result dataclass (or raise — error mapping is the
transport's job).  A command is ``replayable`` exactly when the REPLAY
journal's allowlist, :data:`repro.core.replay.REPLAYABLE`, names it;
``readonly`` marks the pure queries (no editor mutation, no WAL entry,
no file written), which re-run harmlessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Callable

from repro.api import types as t
from repro.api.errors import UnknownCommand
from repro.core.errors import RiotError
from repro.core.replay import REPLAYABLE
from repro.geometry.point import Point
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@dataclass(frozen=True)
class CommandSpec:
    """One entry in the command surface."""

    name: str
    request: type
    result: type
    handler: Callable
    replayable: bool = False
    readonly: bool = False


REGISTRY: dict[str, CommandSpec] = {}
SPEC_BY_REQUEST: dict[type, CommandSpec] = {}


def command(name: str, request: type, result: type, readonly: bool = False):
    def register(handler):
        spec = CommandSpec(
            name, request, result, handler, name in REPLAYABLE, readonly
        )
        REGISTRY[name] = spec
        SPEC_BY_REQUEST[request] = spec
        return handler

    return register


def spec_for(name: str) -> CommandSpec:
    spec = REGISTRY.get(name)
    if spec is None:
        raise UnknownCommand(f"unknown command {name!r}")
    return spec


# -- environment: files, plots, reports ------------------------------------


@command("read", t.ReadRequest, t.ReadResult)
def _read(session, req: t.ReadRequest) -> t.ReadResult:
    text = session.store.read(req.name)
    if req.name.endswith(".cif"):
        added = session.editor.read_cif(text, source_file=req.name)
    elif req.name.endswith(".sticks"):
        added = session.editor.read_sticks(text, source_file=req.name)
    elif req.name.endswith(".comp"):
        added = session.editor.read_composition(text)
    else:
        raise RiotError(
            f"cannot tell the format of {req.name!r} "
            "(expect .cif, .sticks or .comp)"
        )
    return t.ReadResult(cells=tuple(added))


@command("write", t.WriteRequest, t.WriteResult)
def _write(session, req: t.WriteRequest) -> t.WriteResult:
    session.store.write(req.name, session.editor.write_composition())
    return t.WriteResult(path=req.name)


@command("writecif", t.WriteCifRequest, t.WriteCifResult)
def _writecif(session, req: t.WriteCifRequest) -> t.WriteCifResult:
    from repro.core.convert import composition_to_cif

    cell = session.composition(req.cell)
    session.store.write(
        req.path, composition_to_cif(cell, session.editor.technology)
    )
    return t.WriteCifResult(cell=req.cell, path=req.path)


@command("writesticks", t.WriteSticksRequest, t.WriteSticksResult)
def _writesticks(session, req: t.WriteSticksRequest) -> t.WriteSticksResult:
    from repro.core.convert import composition_to_sticks
    from repro.sticks.writer import write_sticks

    cell = session.composition(req.cell)
    flat, warnings = composition_to_sticks(cell, session.editor.technology)
    session.store.write(req.path, write_sticks([flat]))
    return t.WriteSticksResult(
        cell=req.cell, path=req.path, warnings=len(warnings)
    )


@command("plot", t.PlotRequest, t.PlotResult)
def _plot(session, req: t.PlotRequest) -> t.PlotResult:
    from repro.core.convert import composition_to_cif
    from repro.graphics.svg import render_mask, render_symbolic

    cell = session.composition(req.cell)
    if req.mask:
        from repro.cif.parser import parse_cif
        from repro.cif.semantics import elaborate

        text = composition_to_cif(cell, session.editor.technology)
        design = elaborate(parse_cif(text), session.editor.technology)
        svg = render_mask(design.cell(cell.name).flatten())
    else:
        svg = render_symbolic(cell)
    session.store.write(req.path, svg)
    return t.PlotResult(cell=req.cell, path=req.path)


@command("report", t.ReportRequest, t.ReportResult)
def _report(session, req: t.ReportRequest) -> t.ReportResult:
    from repro.core.report import report_cell

    return t.ReportResult(text=report_cell(session.composition(req.cell)).to_text())


@command("verify", t.VerifyRequest, t.VerifyResult)
def _verify(session, req: t.VerifyRequest) -> t.VerifyResult:
    from repro.pipeline import run_verification

    if not req.cells:
        raise RiotError("verify: no cells named")
    defaults = session.verify_defaults
    jobs = req.jobs if req.jobs is not None else defaults["jobs"]
    cache = req.cache if req.cache is not None else defaults["cache"]
    timing = req.timing if req.timing is not None else defaults["timing"]
    cells = [session.composition(name) for name in req.cells]
    with obs_trace.span(
        "command.verify",
        category="command",
        cells=list(req.cells),
        jobs=jobs,
    ):
        result = run_verification(
            cells, session.editor.technology, jobs=jobs, cache=cache
        )
    summaries = tuple(result.reports[cell.name].summary() for cell in cells)
    return t.VerifyResult(
        summaries=summaries,
        timing=result.timing.to_text() if timing else None,
    )


# -- environment: settings and inspection ----------------------------------


@command("set_tracks", t.SetTracksRequest, t.SetTracksResult)
def _set_tracks(session, req: t.SetTracksRequest) -> t.SetTracksResult:
    if req.tracks < 1:
        raise RiotError("tracks must be >= 1")
    session.editor.tracks_per_channel = req.tracks
    return t.SetTracksResult(tracks=req.tracks)


@command("cells", t.CellsRequest, t.CellsResult, readonly=True)
def _cells(session, req: t.CellsRequest) -> t.CellsResult:
    return t.CellsResult(names=tuple(session.editor.library.names))


@command("pending", t.PendingRequest, t.PendingResult, readonly=True)
def _pending(session, req: t.PendingRequest) -> t.PendingResult:
    return t.PendingResult(
        entries=tuple(session.editor.pending.display_strings())
    )


@command("check", t.CheckRequest, t.CheckResult, readonly=True)
def _check(session, req: t.CheckRequest) -> t.CheckResult:
    report = session.editor.check()
    return t.CheckResult(
        made=report.made_count,
        near_misses=len(report.near_misses),
        overlapping=len(report.overlapping_instances),
        unconnected=len(report.unconnected),
    )


@command("help", t.HelpRequest, t.HelpResult, readonly=True)
def _help(session, req: t.HelpRequest) -> t.HelpResult:
    return t.HelpResult(commands=tuple(sorted(REGISTRY)))


# -- replay, journaling, recovery ------------------------------------------


@command("savereplay", t.SaveReplayRequest, t.SaveReplayResult)
def _savereplay(session, req: t.SaveReplayRequest) -> t.SaveReplayResult:
    journal = session.editor.journal
    session.store.write(req.path, journal.to_text())
    return t.SaveReplayResult(path=req.path, commands=len(journal))


@command("replay", t.ReplayFileRequest, t.ReplayFileResult)
def _replay(session, req: t.ReplayFileRequest) -> t.ReplayFileResult:
    executed = session.editor.replay_from(session.store.read(req.path))
    return t.ReplayFileResult(executed=executed)


@command("journal", t.JournalRequest, t.JournalResult)
def _journal(session, req: t.JournalRequest) -> t.JournalResult:
    root = getattr(session.store, "root", None)
    if root is None:
        raise RiotError("journal requires a disk-backed store")
    from repro.core.wal import JournalWriter

    session.editor.journal.attach(JournalWriter(FsPath(root) / req.path))
    return t.JournalResult(
        path=req.path, checkpointed=len(session.editor.journal)
    )


@command("recover", t.RecoverRequest, t.RecoverResult)
def _recover(session, req: t.RecoverRequest) -> t.RecoverResult:
    report = session.editor.recover_from(session.store.read(req.path))
    return t.RecoverResult(
        total=report.total,
        executed=report.executed,
        skipped=tuple(
            t.SkippedEntryInfo(
                command=s.command, error=s.error, index=s.index, lineno=s.lineno
            )
            for s in report.skipped
        ),
        corruption=(
            t.CorruptionInfo(
                lineno=report.corruption.lineno, reason=report.corruption.reason
            )
            if report.corruption is not None
            else None
        ),
    )


# -- observability ----------------------------------------------------------


@command("stats", t.StatsRequest, t.StatsResult, readonly=True)
def _stats(session, req: t.StatsRequest) -> t.StatsResult:
    return t.StatsResult(text=session.metrics.render_text())


@command("trace", t.TraceRequest, t.TraceResult, readonly=True)
def _trace(session, req: t.TraceRequest) -> t.TraceResult:
    usage = "usage: trace on|off|status|save <file>"
    verb = req.verb
    if verb in ("on", "off", "status") and req.path is not None:
        raise RiotError(usage)
    if verb == "on":
        session.trace_on()
        return _trace_status(session, state="on")
    if verb == "off":
        session.trace_off()
        return _trace_status(session, state="off")
    if verb == "status":
        return _trace_status(session)
    if verb == "save":
        if req.path is None:
            raise RiotError(usage)
        from repro.obs.export import chrome_text

        tracer = session.current_tracer()
        if tracer is None:
            raise RiotError("nothing traced yet (try: trace on)")
        session.store.write(
            req.path,
            chrome_text(
                tracer.finished(),
                session.metrics.snapshot(),
                unclosed=tracer.open_count(),
            ),
        )
        status = _trace_status(session)
        return t.TraceResult(
            state=status.state,
            collecting=True,
            finished=status.finished,
            open=status.open,
            path=req.path,
        )
    raise RiotError(usage)


def _trace_status(session, state: str | None = None) -> t.TraceResult:
    tracer = session.current_tracer()
    if state is None:
        state = "on" if session.tracing_enabled() else "off"
    if tracer is None:
        return t.TraceResult(
            state=state, collecting=False, finished=0, open=0, path=None
        )
    return t.TraceResult(
        state=state,
        collecting=True,
        finished=len(tracer.finished()),
        open=tracer.open_count(),
        path=None,
    )


# -- editor verbs (the REPLAY command set) ---------------------------------


@command("new_cell", t.NewCellRequest, t.NewCellResult)
def _new_cell(session, req: t.NewCellRequest) -> t.NewCellResult:
    session.editor.new_cell(req.name)
    return t.NewCellResult(name=req.name)


@command("edit", t.EditRequest, t.EditResult)
def _edit(session, req: t.EditRequest) -> t.EditResult:
    session.editor.edit(req.name)
    return t.EditResult(name=req.name)


@command("finish", t.FinishRequest, t.FinishResult)
def _finish(session, req: t.FinishRequest) -> t.FinishResult:
    return t.FinishResult(connectors=tuple(session.editor.finish()))


@command("delete_cell", t.DeleteCellRequest, t.DeleteCellResult)
def _delete_cell(session, req: t.DeleteCellRequest) -> t.DeleteCellResult:
    session.editor.delete_cell(req.name)
    return t.DeleteCellResult(name=req.name)


@command("rename_cell", t.RenameCellRequest, t.RenameCellResult)
def _rename_cell(session, req: t.RenameCellRequest) -> t.RenameCellResult:
    session.editor.rename_cell(req.old, req.new)
    return t.RenameCellResult(old=req.old, new=req.new)


@command("select", t.SelectRequest, t.SelectResult)
def _select(session, req: t.SelectRequest) -> t.SelectResult:
    session.editor.select(req.cell_name)
    return t.SelectResult(cell_name=req.cell_name)


@command("create", t.CreateRequest, t.CreateResult)
def _create(session, req: t.CreateRequest) -> t.CreateResult:
    instance = session.editor.create(
        Point(req.at[0], req.at[1]),
        cell_name=req.cell_name,
        orientation=req.orientation,
        nx=req.nx,
        ny=req.ny,
        dx=req.dx,
        dy=req.dy,
        name=req.name,
    )
    return t.CreateResult(name=instance.name, x=req.at[0], y=req.at[1])


@command("delete_instance", t.DeleteInstanceRequest, t.DeleteInstanceResult)
def _delete_instance(session, req: t.DeleteInstanceRequest) -> t.DeleteInstanceResult:
    session.editor.delete_instance(req.name)
    return t.DeleteInstanceResult(name=req.name)


@command("move", t.MoveRequest, t.MoveResult)
def _move(session, req: t.MoveRequest) -> t.MoveResult:
    session.editor.move(req.name, Point(req.to[0], req.to[1]))
    return t.MoveResult(name=req.name, x=req.to[0], y=req.to[1])


@command("move_by", t.MoveByRequest, t.MoveByResult)
def _move_by(session, req: t.MoveByRequest) -> t.MoveByResult:
    session.editor.move_by(req.name, req.dx, req.dy)
    return t.MoveByResult(name=req.name, dx=req.dx, dy=req.dy)


@command("rotate", t.RotateRequest, t.RotateResult)
def _rotate(session, req: t.RotateRequest) -> t.RotateResult:
    session.editor.rotate(req.name)
    return t.RotateResult(name=req.name)


@command("mirror", t.MirrorRequest, t.MirrorResult)
def _mirror(session, req: t.MirrorRequest) -> t.MirrorResult:
    session.editor.mirror(req.name, req.axis)
    return t.MirrorResult(name=req.name, axis=req.axis)


@command("replicate", t.ReplicateRequest, t.ReplicateResult)
def _replicate(session, req: t.ReplicateRequest) -> t.ReplicateResult:
    session.editor.replicate(req.name, req.nx, req.ny, req.dx, req.dy)
    return t.ReplicateResult(name=req.name, nx=req.nx, ny=req.ny)


@command("connect", t.ConnectRequest, t.ConnectResult)
def _connect(session, req: t.ConnectRequest) -> t.ConnectResult:
    display = session.editor.connect(
        req.from_instance, req.from_connector, req.to_instance, req.to_connector
    )
    return t.ConnectResult(display=display)


@command("bus", t.BusRequest, t.BusResult)
def _bus(session, req: t.BusRequest) -> t.BusResult:
    paired = session.editor.bus(req.from_instance, req.to_instance)
    return t.BusResult(paired=paired)


@command("unconnect", t.UnconnectRequest, t.UnconnectResult)
def _unconnect(session, req: t.UnconnectRequest) -> t.UnconnectResult:
    return t.UnconnectResult(display=session.editor.unconnect(req.index))


@command("clear_pending", t.ClearPendingRequest, t.ClearPendingResult)
def _clear_pending(session, req: t.ClearPendingRequest) -> t.ClearPendingResult:
    session.editor.clear_pending()
    return t.ClearPendingResult()


@command("do_abut", t.AbutRequest, t.AbutCommandResult)
def _do_abut(session, req: t.AbutRequest) -> t.AbutCommandResult:
    result = session.editor.do_abut(overlap=req.overlap)
    return t.AbutCommandResult(made=result.made, warnings=tuple(result.warnings))


@command("do_abut_edges", t.AbutEdgesRequest, t.AbutCommandResult)
def _do_abut_edges(session, req: t.AbutEdgesRequest) -> t.AbutCommandResult:
    result = session.editor.do_abut_edges(req.from_instance, req.to_instance)
    return t.AbutCommandResult(made=result.made, warnings=tuple(result.warnings))


@command("do_route", t.RouteRequest, t.RouteCommandResult)
def _do_route(session, req: t.RouteRequest) -> t.RouteCommandResult:
    result = session.editor.do_route(move_from=req.move_from)
    return t.RouteCommandResult(
        route_cell=result.route_cell,
        instance=result.instance.name,
        wires=result.solved.wire_count,
        channels=result.solved.channels,
        height=result.solved.height,
        moved_dx=result.moved_by.x,
        moved_dy=result.moved_by.y,
    )


@command("do_stretch", t.StretchRequest, t.StretchCommandResult)
def _do_stretch(session, req: t.StretchRequest) -> t.StretchCommandResult:
    result = session.editor.do_stretch(overlap=req.overlap)
    return t.StretchCommandResult(
        old_cell=result.old_cell,
        new_cell=result.new_cell,
        axis=result.axis,
        warnings=tuple(result.warnings),
    )


@command("bring_out", t.BringOutRequest, t.BringOutResult)
def _bring_out(session, req: t.BringOutRequest) -> t.BringOutResult:
    instance = session.editor.bring_out(
        req.instance_name, list(req.connector_names), req.side
    )
    return t.BringOutResult(instance=instance.name, cell=instance.cell.name)


# -- the shared cell library (repro.cellstore) ------------------------------
#
# Not replayable: the REPLAY journal describes one session's edits; the
# store is cross-session state, and replaying a journal must never
# republish into it.


def _require_cellstore(session):
    store = getattr(session, "cellstore", None)
    if store is None:
        from repro.cellstore.errors import Unavailable

        raise Unavailable(
            "this session has no cell store attached "
            "(start with --library DIR, or the service with --library-dir DIR)"
        )
    return store


def _library_payload(session, cell):
    """Serialise a session cell for publication: (kind, payload text,
    journal text or None, consumed dependency names)."""
    if cell.is_leaf:
        if cell.is_stretchable:
            from repro.sticks.writer import write_sticks

            return "sticks", write_sticks([cell.sticks_cell]), None, ()
        from repro.cif.writer import write_cif

        return "cif", write_cif([cell.cif_cell], instantiate_top=False), None, ()
    from repro.cellstore.cascade import journal_dependencies
    from repro.composition.format import save_composition

    # The session journal is what the cascade will replay; the cells it
    # consumes (create/select) are the composition's dependencies.
    journal_payload = session.editor.journal.to_text()
    return (
        "composition",
        save_composition([cell]),
        journal_payload,
        journal_dependencies(journal_payload),
    )


def _pin_deps(session, store, names) -> tuple[str, ...]:
    """Dependency names -> refs: the version this session loaded (or
    last published), else the store head, else the bare name (a stock
    cell every session has)."""
    from repro.cellstore.errors import LibraryError
    from repro.cellstore.refs import format_ref

    pinned = []
    for name in names:
        version = session.library_pins.get(name)
        if version is None:
            try:
                version = store.resolve(name).version
            except LibraryError:
                version = None
        pinned.append(format_ref(name, version) if version else name)
    return tuple(pinned)


def _impact_info(entries) -> tuple[t.ImpactEntryInfo, ...]:
    return tuple(
        t.ImpactEntryInfo(
            composition=e.composition,
            dependency=e.dependency,
            survived=e.survived,
            executed=e.executed,
            total=e.total,
            failures=tuple(
                t.ImpactFailureInfo(command=f.command, code=f.code, error=f.error)
                for f in e.failures
            ),
        )
        for e in entries
    )


def _evict_superseded(session, store, name: str, new_version: int) -> None:
    """A new version orphans the pipeline artifacts keyed on the old
    version's content hash; drop them from the session's artifact
    cache so ``verify`` never reports stale results as hits."""
    cache_dir = session.verify_defaults.get("cache")
    if not cache_dir or new_version < 2:
        return
    from repro.cellstore.errors import LibraryError
    from repro.pipeline.cache import ContentCache
    from repro.pipeline.hashing import hash_technology, task_key

    try:
        old = store.versions(name)[-2]
    except (LibraryError, IndexError):
        return
    cache = ContentCache(cache_dir)
    tech = hash_technology(session.editor.technology)
    for stage in ("expand", "cif", "elaborate", "drc", "extract"):
        cache.evict(task_key(stage, old.hash, tech))


@command("library.publish", t.LibraryPublishRequest, t.LibraryPublishResult)
def _library_publish(session, req: t.LibraryPublishRequest) -> t.LibraryPublishResult:
    from repro.cellstore.cascade import assess_impact
    from repro.pipeline.hashing import hash_cell

    store = _require_cellstore(session)
    cell = session.editor.library.get(req.name)
    kind, payload, journal_payload, dep_names = _library_payload(session, cell)
    record = store.publish(
        req.name,
        kind,
        payload,
        content_hash=hash_cell(cell),
        deps=_pin_deps(session, store, dep_names),
        journal_payload=journal_payload,
        expected_version=req.expected_version,
    )
    session.library_pins[req.name] = record.version
    _evict_superseded(session, store, req.name, record.version)
    impact = ()
    if req.cascade:
        impact = _impact_info(
            assess_impact(
                store,
                req.name,
                payload,
                kind,
                technology=session.editor.technology,
            )
        )
    return t.LibraryPublishResult(
        name=record.name,
        version=record.version,
        hash=record.hash,
        kind=record.kind,
        deps=record.deps,
        impact=impact,
    )


@command("library.get", t.LibraryGetRequest, t.LibraryGetResult)
def _library_get(session, req: t.LibraryGetRequest) -> t.LibraryGetResult:
    from repro.cellstore.cascade import load_closure

    store = _require_cellstore(session)
    record = store.resolve(req.ref)
    pins: dict[str, int] = {}
    loaded = load_closure(store, session.editor.library, record, pins=pins)
    session.library_pins.update(pins)
    # Re-fetching a composition the session already holds replaces the
    # library entry; if it was the cell under edit, rebind the editor to
    # the fresh definition (the pending list named the old instances).
    editor = session.editor
    if editor.cell is not None and editor.cell.name in loaded:
        fresh = editor.library.get(editor.cell.name)
        if fresh is not editor.cell:
            editor.cell = fresh
            editor.pending.clear()
    return t.LibraryGetResult(
        ref=record.ref, kind=record.kind, hash=record.hash, loaded=tuple(loaded)
    )


@command(
    "library.resolve", t.LibraryResolveRequest, t.LibraryResolveResult, readonly=True
)
def _library_resolve(session, req: t.LibraryResolveRequest) -> t.LibraryResolveResult:
    store = _require_cellstore(session)
    record = store.resolve(req.ref)
    return t.LibraryResolveResult(
        name=record.name,
        version=record.version,
        hash=record.hash,
        kind=record.kind,
        deprecated=store.is_deprecated(record.name, record.version),
        deps=record.deps,
    )


@command("library.list", t.LibraryListRequest, t.LibraryListResult, readonly=True)
def _library_list(session, req: t.LibraryListRequest) -> t.LibraryListResult:
    store = _require_cellstore(session)
    records = store.versions(req.name) if req.name else store.records()
    return t.LibraryListResult(
        entries=tuple(
            t.LibraryCellInfo(
                name=r.name,
                version=r.version,
                hash=r.hash,
                kind=r.kind,
                deprecated=store.is_deprecated(r.name, r.version),
                deps=r.deps,
            )
            for r in records
        )
    )


@command("library.deprecate", t.LibraryDeprecateRequest, t.LibraryDeprecateResult)
def _library_deprecate(
    session, req: t.LibraryDeprecateRequest
) -> t.LibraryDeprecateResult:
    store = _require_cellstore(session)
    record = store.deprecate(req.name, req.version)
    return t.LibraryDeprecateResult(name=record.name, version=record.version)


@command("library.deps", t.LibraryDepsRequest, t.LibraryDepsResult, readonly=True)
def _library_deps(session, req: t.LibraryDepsRequest) -> t.LibraryDepsResult:
    store = _require_cellstore(session)
    record = store.resolve(req.ref)
    return t.LibraryDepsResult(
        ref=record.ref,
        deps=record.deps,
        dependents=tuple(r.ref for r in store.dependents_of(record.name)),
    )


@command(
    "library.impact", t.LibraryImpactRequest, t.LibraryImpactResult, readonly=True
)
def _library_impact(session, req: t.LibraryImpactRequest) -> t.LibraryImpactResult:
    from repro.cellstore.cascade import assess_impact

    store = _require_cellstore(session)
    record = store.resolve(req.ref)
    return t.LibraryImpactResult(
        ref=record.ref,
        impact=_impact_info(
            assess_impact(
                store,
                record.name,
                store.payload(record),
                record.kind,
                technology=session.editor.technology,
            )
        ),
    )


# -- floorplan: seeded big-chip workload -----------------------------------
# Not replayable: the build *emits* journal entries (every placement and
# connection dispatches through this same session), so replaying the
# journal already reproduces the chip without re-running the generator.


@command("floorplan.build", t.FloorplanBuildRequest, t.FloorplanBuildResult)
def _floorplan_build(session, req: t.FloorplanBuildRequest) -> t.FloorplanBuildResult:
    from repro.floorplan.assemble import assemble_floorplan
    from repro.floorplan.generator import gen_floorplan_case, resolve_tier
    from repro.proptest.prng import Rng

    tier = resolve_tier(req.tier)  # reject unknown tiers before generating
    case = gen_floorplan_case(Rng(req.seed), tier)
    report = assemble_floorplan(case, session=session, strategy=req.strategy)
    stats = report.to_dict()
    return t.FloorplanBuildResult(seed=req.seed, **stats)


@command("floorplan.tiers", t.FloorplanTiersRequest, t.FloorplanTiersResult)
def _floorplan_tiers(session, req: t.FloorplanTiersRequest) -> t.FloorplanTiersResult:
    from repro.floorplan.generator import TIERS

    return t.FloorplanTiersResult(
        tiers=tuple(
            t.FloorplanTierInfo(
                name=tier.name,
                grid=tier.grid,
                block_rows=tier.block_rows,
                block_cols=tier.block_cols,
                pads_per_side=tier.pads_per_side,
                slice_instances=tier.slice_instances,
            )
            for tier in TIERS.values()
        )
    )
