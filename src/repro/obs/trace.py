"""Hierarchical tracing with a no-op fast path.

A span measures one operation: wall and CPU time from the injectable
clock, free-form attributes, and a parent — whatever span was open on
the same thread when it started.  The API is a context manager::

    with trace.span("river.plan", wires=4) as sp:
        ...
        sp.set("tracks", route.channels)

or a decorator::

    @trace.traced("rest.solve_axis")
    def solve_axis(...): ...

Tracing is off by default.  Disabled, :func:`span` returns a single
shared :data:`NULL_SPAN` whose methods do nothing — instrumented hot
paths pay one ``is None`` check and one call, which the overhead smoke
test bounds at < 5% of command cost.

Span ids are allocated per tracer under a lock and thread ids are
mapped to small logical indexes in order of first use, so a
single-threaded run under a :class:`~repro.obs.clock.FixedClock`
produces byte-identical traces — real thread idents and pids never
reach the export.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import threading
from dataclasses import dataclass, field

from repro.obs.clock import get_clock


@dataclass
class SpanRecord:
    """One finished (or synthesized) span."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    tid: int
    start_wall: float
    end_wall: float
    start_cpu: float
    end_cpu: float
    attrs: dict = field(default_factory=dict)
    #: Distributed-trace stitching: the request's trace id and, when
    #: the logical parent span lives in *another process* (or another
    #: thread's stack), its cross-process reference
    #: (``"<process label>:<span id>"``).  ``None`` for purely local
    #: spans, and then absent from every export — single-process
    #: traces are byte-identical to what they were before these fields
    #: existed.
    trace_id: str | None = None
    remote_parent: str | None = None

    @property
    def wall(self) -> float:
        return self.end_wall - self.start_wall

    @property
    def cpu(self) -> float:
        return self.end_cpu - self.start_cpu


class Span:
    """An open span; closes (and is recorded) on ``__exit__``."""

    __slots__ = ("_tracer", "record", "_closed")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record
        self._closed = False

    def set(self, key: str, value) -> "Span":
        """Attach an attribute; chainable."""
        self.record.attrs[key] = value
        return self

    def context(
        self, trace_id: str | None, remote_parent: str | None = None
    ) -> "Span":
        """Stitch this span into a distributed trace; chainable."""
        if trace_id is not None:
            self.record.trace_id = trace_id
        if remote_parent is not None:
            self.record.remote_parent = remote_parent
        return self

    @property
    def ref(self) -> str:
        """This span's cross-process reference (``"label:id"``) — what
        a child in another process carries as its ``remote_parent``."""
        return f"{process_label()}:{self.record.span_id}"

    def close(self) -> None:
        """End the span explicitly (for non-``with`` call sites)."""
        self._tracer._close(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.record.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self)
        return False


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def set(self, key: str, value) -> "_NullSpan":
        return self

    def context(self, trace_id, remote_parent=None) -> "_NullSpan":
        return self

    @property
    def ref(self) -> None:
        return None

    def close(self) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class DetachedSpan:
    """An open span that never touches the thread-local stack.

    The request path of the service opens spans that end on a
    different thread (the session's worker) while other requests
    interleave on the event loop — either would corrupt the parent
    stack a :class:`Span` relies on.  A detached span allocates
    its id eagerly (so children can reference it via :attr:`ref`
    before it closes), takes no implicit parent, and simply records
    itself when closed.
    """

    __slots__ = ("_tracer", "record", "_closed")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record
        self._closed = False

    def set(self, key: str, value) -> "DetachedSpan":
        self.record.attrs[key] = value
        return self

    def context(
        self, trace_id: str | None, remote_parent: str | None = None
    ) -> "DetachedSpan":
        if trace_id is not None:
            self.record.trace_id = trace_id
        if remote_parent is not None:
            self.record.remote_parent = remote_parent
        return self

    @property
    def ref(self) -> str:
        return f"{process_label()}:{self.record.span_id}"

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        clock = self._tracer._clock_now()
        self.record.end_wall = clock.wall()
        self.record.end_cpu = clock.cpu()
        with self._tracer._lock:
            self._tracer._finished.append(self.record)
            self._tracer._open -= 1

    def __enter__(self) -> "DetachedSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.record.attrs.setdefault("error", exc_type.__name__)
        self.close()
        return False


class Tracer:
    """Collects spans for one tracing session.

    Thread-safe: each thread keeps its own open-span stack (parentage
    never crosses threads), ids come from a shared locked counter, and
    finished records append under the same lock.
    """

    def __init__(self, clock=None) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._tids: dict[int, int] = {}
        self._finished: list[SpanRecord] = []
        self._open = 0

    def _clock_now(self):
        return self._clock if self._clock is not None else get_clock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _alloc(self) -> tuple[int, int]:
        """(span id, logical thread index) under the lock."""
        ident = threading.get_ident()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            tid = self._tids.setdefault(ident, len(self._tids))
            self._open += 1
        return span_id, tid

    def span(self, name: str, category: str = "riot", **attrs) -> Span:
        """Open a span; use as a context manager."""
        span_id, tid = self._alloc()
        stack = self._stack()
        parent_id = stack[-1].record.span_id if stack else None
        clock = self._clock_now()
        record = SpanRecord(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            category=category,
            tid=tid,
            start_wall=clock.wall(),
            end_wall=0.0,
            start_cpu=clock.cpu(),
            end_cpu=0.0,
            attrs=dict(attrs),
        )
        span = Span(self, record)
        stack.append(span)
        return span

    def begin(
        self,
        name: str,
        category: str = "riot",
        *,
        trace_id: str | None = None,
        remote_parent: str | None = None,
        **attrs,
    ) -> DetachedSpan:
        """Open a :class:`DetachedSpan`: no stack parent, safe to close
        from another thread or an interleaved coroutine."""
        span_id, tid = self._alloc()
        clock = self._clock_now()
        record = SpanRecord(
            span_id=span_id,
            parent_id=None,
            name=name,
            category=category,
            tid=tid,
            start_wall=clock.wall(),
            end_wall=0.0,
            start_cpu=clock.cpu(),
            end_cpu=0.0,
            attrs=dict(attrs),
            trace_id=trace_id,
            remote_parent=remote_parent,
        )
        return DetachedSpan(self, record)

    def _close(self, span: Span) -> None:
        if span._closed:
            return
        span._closed = True
        clock = self._clock_now()
        span.record.end_wall = clock.wall()
        span.record.end_cpu = clock.cpu()
        stack = self._stack()
        if span in stack:
            # Close any children left open (abandoned generators etc.)
            # so nesting stays well-formed.
            while stack and stack[-1] is not span:
                stack.pop()._closed = True
            stack.pop()
        with self._lock:
            self._finished.append(span.record)
            self._open -= 1

    def record(
        self, name: str, wall: float, cpu: float, category: str = "riot", **attrs
    ) -> SpanRecord:
        """Synthesize an already-measured span (e.g. a task timed inside
        a worker process) as a child of the current open span, ending
        now."""
        span_id, tid = self._alloc()
        stack = self._stack()
        parent_id = stack[-1].record.span_id if stack else None
        clock = self._clock_now()
        end_wall = clock.wall()
        end_cpu = clock.cpu()
        rec = SpanRecord(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            category=category,
            tid=tid,
            start_wall=end_wall - wall,
            end_wall=end_wall,
            start_cpu=end_cpu - cpu,
            end_cpu=end_cpu,
            attrs=dict(attrs),
        )
        with self._lock:
            self._finished.append(rec)
            self._open -= 1
        return rec

    def finished(self) -> list[SpanRecord]:
        """Finished spans, in deterministic (start time, id) order."""
        with self._lock:
            records = list(self._finished)
        records.sort(key=lambda r: (r.start_wall, r.span_id))
        return records

    def open_count(self) -> int:
        with self._lock:
            return self._open

    def open_names(self) -> list[str]:
        """Names of spans still open (unclosed at exit is a bug)."""
        names = []
        stack = getattr(self._local, "stack", None) or []
        names.extend(s.record.name for s in stack)
        return names


# -- distributed-trace identity --------------------------------------------

#: The logical process label used in cross-process span references
#: (``"label:span_id"``) and Chrome exports.  Set once at startup by
#: whoever knows the process's role — ``"client"``, ``"supervisor"``,
#: ``"shard0"`` — and deliberately *not* a real pid, so fixed-clock
#: traces stay reproducible.
_process_label: str | None = None
_trace_seq = 0
_trace_seq_lock = threading.Lock()


def set_process_label(label: str | None) -> str | None:
    """Name this process for cross-process span references; returns
    the previous label (tests restore it)."""
    global _process_label
    previous = _process_label
    _process_label = label
    return previous


def process_label() -> str:
    return _process_label or "main"


def process_label_explicit() -> str | None:
    """The label only if one was set — ``None`` keeps single-process
    exports byte-identical to the pre-distributed-tracing format."""
    return _process_label


def new_trace_id() -> str:
    """A fresh request-scoped trace id, unique across processes: the
    process label, the OS pid, and a process-local sequence number."""
    global _trace_seq
    import os

    with _trace_seq_lock:
        _trace_seq += 1
        seq = _trace_seq
    return f"{process_label()}-{os.getpid():x}-{seq}"


# -- the module-level switch ----------------------------------------------

_active: Tracer | None = None

#: A context-local override of the process-wide switch.  The service
#: hosts many sessions in one process; wrapping each session's command
#: execution in :func:`scope` routes its spans to its own tracer
#: without touching (or seeing) the global one.  ``asyncio.to_thread``
#: copies the caller's context, so a scope set around the thread call
#: travels with it.
_scoped: contextvars.ContextVar[Tracer | None] = contextvars.ContextVar(
    "repro.obs.trace.scoped", default=None
)


@contextlib.contextmanager
def scope(tracer: Tracer):
    """Route spans opened in this context to ``tracer``, shadowing the
    process-wide switch."""
    token = _scoped.set(tracer)
    try:
        yield tracer
    finally:
        _scoped.reset(token)


def enabled() -> bool:
    return _active is not None


def active() -> Tracer | None:
    return _active


def enable(tracer: Tracer | None = None) -> Tracer:
    """Turn tracing on (idempotent); returns the active tracer."""
    global _active
    if tracer is not None:
        _active = tracer
    elif _active is None:
        _active = Tracer()
    return _active


def disable() -> Tracer | None:
    """Turn tracing off; returns the tracer that was active (so its
    spans can still be exported)."""
    global _active
    previous = _active
    _active = None
    return previous


def span(name: str, category: str = "riot", **attrs):
    """The instrumentation entry point: a real span when tracing is on,
    the shared :data:`NULL_SPAN` when it is off."""
    tracer = _scoped.get() or _active
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, category, **attrs)


def record(name: str, wall: float, cpu: float, category: str = "riot", **attrs):
    tracer = _scoped.get() or _active
    if tracer is None:
        return None
    return tracer.record(name, wall, cpu, category, **attrs)


def begin(
    name: str,
    category: str = "riot",
    *,
    trace_id: str | None = None,
    remote_parent: str | None = None,
    **attrs,
):
    """Open a detached span (see :meth:`Tracer.begin`) — or the shared
    :data:`NULL_SPAN` when tracing is off, so call sites can use
    ``span.ref`` (``None``) and ``span.close()`` unconditionally."""
    tracer = _scoped.get() or _active
    if tracer is None:
        return NULL_SPAN
    return tracer.begin(
        name, category, trace_id=trace_id, remote_parent=remote_parent, **attrs
    )


def traced(name: str | None = None, category: str = "riot"):
    """Decorator form: wraps the function body in a span."""

    def decorate(func):
        span_name = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer = _scoped.get() or _active
            if tracer is None:
                return func(*args, **kwargs)
            with tracer.span(span_name, category):
                return func(*args, **kwargs)

        return wrapper

    return decorate
