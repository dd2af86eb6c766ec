"""Protocol version 1: the request and result dataclasses.

Every command the system executes — from any transport — is one of
these frozen request types, and every success is the paired result
type.  Field names are wire-stable: changing one is a protocol break
and belongs in version 2 (the strict codec is what makes that evolution
safe — see :mod:`repro.api.codec`).

Editor verbs carry the same names as the REPLAY journal commands
(``new_cell``, ``do_abut``, ...), so a journal entry *is* a request
body; environment commands match the textual command names (``read``,
``verify``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.wire import PROTOCOL_VERSION  # noqa: F401 - the version these types speak


# -- environment: files, plots, reports ------------------------------------


@dataclass(frozen=True)
class ReadRequest:
    name: str


@dataclass(frozen=True)
class ReadResult:
    cells: tuple[str, ...]


@dataclass(frozen=True)
class WriteRequest:
    name: str


@dataclass(frozen=True)
class WriteResult:
    path: str


@dataclass(frozen=True)
class WriteCifRequest:
    cell: str
    path: str


@dataclass(frozen=True)
class WriteCifResult:
    cell: str
    path: str


@dataclass(frozen=True)
class WriteSticksRequest:
    cell: str
    path: str


@dataclass(frozen=True)
class WriteSticksResult:
    cell: str
    path: str
    warnings: int


@dataclass(frozen=True)
class PlotRequest:
    cell: str
    path: str
    mask: bool = False


@dataclass(frozen=True)
class PlotResult:
    cell: str
    path: str


@dataclass(frozen=True)
class ReportRequest:
    cell: str


@dataclass(frozen=True)
class ReportResult:
    text: str


@dataclass(frozen=True)
class VerifyRequest:
    cells: tuple[str, ...]
    jobs: int | None = None
    cache: str | None = None
    timing: bool | None = None


@dataclass(frozen=True)
class VerifyResult:
    summaries: tuple[str, ...]
    timing: str | None


# -- environment: settings and inspection ----------------------------------


@dataclass(frozen=True)
class SetTracksRequest:
    tracks: int


@dataclass(frozen=True)
class SetTracksResult:
    tracks: int


@dataclass(frozen=True)
class CellsRequest:
    pass


@dataclass(frozen=True)
class CellsResult:
    names: tuple[str, ...]


@dataclass(frozen=True)
class PendingRequest:
    pass


@dataclass(frozen=True)
class PendingResult:
    entries: tuple[str, ...]


@dataclass(frozen=True)
class CheckRequest:
    pass


@dataclass(frozen=True)
class CheckResult:
    made: int
    near_misses: int
    overlapping: int
    unconnected: int


@dataclass(frozen=True)
class HelpRequest:
    pass


@dataclass(frozen=True)
class HelpResult:
    commands: tuple[str, ...]


# -- replay, journaling, recovery ------------------------------------------


@dataclass(frozen=True)
class SaveReplayRequest:
    path: str


@dataclass(frozen=True)
class SaveReplayResult:
    path: str
    commands: int


@dataclass(frozen=True)
class ReplayFileRequest:
    path: str


@dataclass(frozen=True)
class ReplayFileResult:
    executed: int


@dataclass(frozen=True)
class JournalRequest:
    path: str


@dataclass(frozen=True)
class JournalResult:
    path: str
    checkpointed: int


@dataclass(frozen=True)
class SkippedEntryInfo:
    """One journal entry recovery could not re-execute."""

    command: str
    error: str
    index: int | None = None
    lineno: int | None = None


@dataclass(frozen=True)
class CorruptionInfo:
    """Where salvage stopped reading a damaged journal."""

    lineno: int
    reason: str


@dataclass(frozen=True)
class RecoverRequest:
    path: str


@dataclass(frozen=True)
class RecoverResult:
    total: int
    executed: int
    skipped: tuple[SkippedEntryInfo, ...]
    corruption: CorruptionInfo | None


# -- observability ----------------------------------------------------------


@dataclass(frozen=True)
class StatsRequest:
    pass


@dataclass(frozen=True)
class StatsResult:
    text: str


@dataclass(frozen=True)
class TraceRequest:
    verb: str
    path: str | None = None


@dataclass(frozen=True)
class TraceResult:
    state: str
    collecting: bool
    finished: int
    open: int
    path: str | None


# -- editor verbs (the REPLAY command set) ---------------------------------


@dataclass(frozen=True)
class NewCellRequest:
    name: str


@dataclass(frozen=True)
class NewCellResult:
    name: str


@dataclass(frozen=True)
class EditRequest:
    name: str


@dataclass(frozen=True)
class EditResult:
    name: str


@dataclass(frozen=True)
class FinishRequest:
    pass


@dataclass(frozen=True)
class FinishResult:
    connectors: tuple[str, ...]


@dataclass(frozen=True)
class DeleteCellRequest:
    name: str


@dataclass(frozen=True)
class DeleteCellResult:
    name: str


@dataclass(frozen=True)
class RenameCellRequest:
    old: str
    new: str


@dataclass(frozen=True)
class RenameCellResult:
    old: str
    new: str


@dataclass(frozen=True)
class SelectRequest:
    cell_name: str


@dataclass(frozen=True)
class SelectResult:
    cell_name: str


@dataclass(frozen=True)
class CreateRequest:
    at: tuple[int, int]
    cell_name: str | None = None
    orientation: str = "R0"
    nx: int = 1
    ny: int = 1
    dx: int | None = None
    dy: int | None = None
    name: str | None = None


@dataclass(frozen=True)
class CreateResult:
    name: str
    x: int
    y: int


@dataclass(frozen=True)
class DeleteInstanceRequest:
    name: str


@dataclass(frozen=True)
class DeleteInstanceResult:
    name: str


@dataclass(frozen=True)
class MoveRequest:
    name: str
    to: tuple[int, int]


@dataclass(frozen=True)
class MoveResult:
    name: str
    x: int
    y: int


@dataclass(frozen=True)
class MoveByRequest:
    name: str
    dx: int
    dy: int


@dataclass(frozen=True)
class MoveByResult:
    name: str
    dx: int
    dy: int


@dataclass(frozen=True)
class RotateRequest:
    name: str


@dataclass(frozen=True)
class RotateResult:
    name: str


@dataclass(frozen=True)
class MirrorRequest:
    name: str
    axis: str = "x"


@dataclass(frozen=True)
class MirrorResult:
    name: str
    axis: str


@dataclass(frozen=True)
class ReplicateRequest:
    name: str
    nx: int
    ny: int = 1
    dx: int | None = None
    dy: int | None = None


@dataclass(frozen=True)
class ReplicateResult:
    name: str
    nx: int
    ny: int


@dataclass(frozen=True)
class ConnectRequest:
    from_instance: str
    from_connector: str
    to_instance: str
    to_connector: str


@dataclass(frozen=True)
class ConnectResult:
    display: str


@dataclass(frozen=True)
class BusRequest:
    from_instance: str
    to_instance: str


@dataclass(frozen=True)
class BusResult:
    paired: int


@dataclass(frozen=True)
class UnconnectRequest:
    index: int


@dataclass(frozen=True)
class UnconnectResult:
    display: str


@dataclass(frozen=True)
class ClearPendingRequest:
    pass


@dataclass(frozen=True)
class ClearPendingResult:
    pass


@dataclass(frozen=True)
class AbutRequest:
    overlap: bool = False


@dataclass(frozen=True)
class AbutCommandResult:
    made: int
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class AbutEdgesRequest:
    from_instance: str
    to_instance: str


@dataclass(frozen=True)
class RouteRequest:
    move_from: bool = True


@dataclass(frozen=True)
class RouteCommandResult:
    route_cell: str
    instance: str
    wires: int
    channels: int
    height: int
    moved_dx: int
    moved_dy: int


@dataclass(frozen=True)
class StretchRequest:
    overlap: bool = False


@dataclass(frozen=True)
class StretchCommandResult:
    old_cell: str
    new_cell: str
    axis: str
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class BringOutRequest:
    instance_name: str
    connector_names: tuple[str, ...]
    side: str | None = None


@dataclass(frozen=True)
class BringOutResult:
    instance: str
    cell: str


# -- the shared cell library (repro.cellstore) ------------------------------


@dataclass(frozen=True)
class ImpactFailureInfo:
    """One replayed command a candidate version breaks."""

    command: str
    code: str
    error: str


@dataclass(frozen=True)
class ImpactEntryInfo:
    """One dependent composition's fate under a candidate version."""

    composition: str
    dependency: str
    survived: bool
    executed: int
    total: int
    failures: tuple[ImpactFailureInfo, ...] = ()


@dataclass(frozen=True)
class LibraryCellInfo:
    """One published version as the listing shows it."""

    name: str
    version: int
    hash: str
    kind: str
    deprecated: bool = False
    deps: tuple[str, ...] = ()


@dataclass(frozen=True)
class LibraryPublishRequest:
    """Publish the named session cell as its next store version.

    ``expected_version`` is the optimistic-concurrency guard (0 = "I am
    creating this cell"; ``None`` skips the check); ``cascade=False``
    skips the dependent-replay impact report.
    """

    name: str
    expected_version: int | None = None
    cascade: bool = True


@dataclass(frozen=True)
class LibraryPublishResult:
    name: str
    version: int
    hash: str
    kind: str
    deps: tuple[str, ...] = ()
    impact: tuple[ImpactEntryInfo, ...] = ()


@dataclass(frozen=True)
class LibraryGetRequest:
    """Load a stored cell (and its pinned dependency closure) into the
    session's cell menu."""

    ref: str


@dataclass(frozen=True)
class LibraryGetResult:
    ref: str
    kind: str
    hash: str
    #: Every cell name the load defined or replaced, closure order.
    loaded: tuple[str, ...] = ()


@dataclass(frozen=True)
class LibraryResolveRequest:
    ref: str


@dataclass(frozen=True)
class LibraryResolveResult:
    name: str
    version: int
    hash: str
    kind: str
    deprecated: bool = False
    deps: tuple[str, ...] = ()


@dataclass(frozen=True)
class LibraryListRequest:
    #: Restrict to one cell's versions; ``None`` lists everything.
    name: str | None = None


@dataclass(frozen=True)
class LibraryListResult:
    entries: tuple[LibraryCellInfo, ...] = ()


@dataclass(frozen=True)
class LibraryDeprecateRequest:
    name: str
    version: int


@dataclass(frozen=True)
class LibraryDeprecateResult:
    name: str
    version: int


@dataclass(frozen=True)
class LibraryDepsRequest:
    ref: str


@dataclass(frozen=True)
class LibraryDepsResult:
    ref: str
    #: What this version was published against (pinned refs).
    deps: tuple[str, ...] = ()
    #: Live compositions that depend on this cell (refs).
    dependents: tuple[str, ...] = ()


@dataclass(frozen=True)
class LibraryImpactRequest:
    """Dry-run cascade: what would publishing the stored version at
    ``ref`` as the latest break?"""

    ref: str


@dataclass(frozen=True)
class LibraryImpactResult:
    ref: str
    impact: tuple[ImpactEntryInfo, ...] = ()


# -- floorplan: the synthetic big-chip workload ----------------------------


@dataclass(frozen=True)
class FloorplanBuildRequest:
    """Generate a seeded synthetic chip and assemble it in this session."""

    seed: int = 0
    tier: str = "small"
    #: Assembly strategy name (``greedy``, ``route-only``); ``None``
    #: uses the default greedy optimizer.
    strategy: str | None = None


@dataclass(frozen=True)
class FloorplanBuildResult:
    tier: str
    seed: int
    top: str
    instances: int
    cells: int
    blocks: int
    edges: int
    abuts: int
    stretches: int
    routes: int
    route_channels: int
    route_spills: int
    overflow_rate: float
    wirelength: int
    width: int
    height: int
    area: int
    pads_placed: int
    pads_connected: int
    fallbacks: int
    commands: int


@dataclass(frozen=True)
class FloorplanTiersRequest:
    pass


@dataclass(frozen=True)
class FloorplanTierInfo:
    name: str
    grid: tuple[int, int]
    block_rows: int
    block_cols: int
    pads_per_side: int
    slice_instances: int


@dataclass(frozen=True)
class FloorplanTiersResult:
    tiers: tuple[FloorplanTierInfo, ...] = ()
