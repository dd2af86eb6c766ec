"""The service's error family.

Every condition the server itself (as opposed to a command) can raise
carries a stable ``service.*`` code — clients program against the code,
never the message text.

The error *shape* is uniform across the family: every instance carries
``retry_after_ms`` (a pacing hint in milliseconds, ``None`` when the
condition is not retryable or the server has no estimate) and
``detail`` (a structured :class:`repro.api.wire.ErrorDetail` naming the
shard/generation/address involved, ``None`` elsewhere).  Both travel in
the ``error`` object of the response envelope.
"""

from __future__ import annotations

from repro.errors import ReproError


class ServiceError(ReproError):
    """Base for conditions raised by the service layer itself.

    Accepts the uniform retry/detail payload so every subclass shares
    one error shape on the wire.
    """

    code = "service.error"

    def __init__(
        self,
        message: str = "",
        *,
        retry_after_ms: int | None = None,
        detail=None,
        **kwargs,
    ):
        super().__init__(message, **kwargs)
        self.retry_after_ms = retry_after_ms
        self.detail = detail


class BadSessionName(ServiceError):
    """The session name cannot name a session (or a WAL file)."""

    code = "service.bad_session"


class SessionLimitError(ServiceError):
    """Opening one more session would exceed ``--max-sessions``."""

    code = "service.session_limit"


class BackpressureError(ServiceError):
    """The session's command queue is full; the client should retry."""

    code = "service.backpressure"


class ServiceTimeout(ServiceError):
    """The command exceeded the per-request deadline.  The command
    itself still runs to completion (the session stays serialized);
    only the response was abandoned."""

    code = "service.timeout"


class ShutdownError(ServiceError):
    """The service is draining for shutdown and takes no new work."""

    code = "service.shutdown"


class ShardFailedError(ServiceError):
    """The session's shard is down: it died, or is restarting.  The
    supervisor refuses routes to it this way — before anything is
    queued, so a client retries any command — and fails its own
    requests that were in flight when it died.  A session command the
    shard executed before dying is in its WAL, and comes back by
    salvage + replay when its session next opens on the restarted
    shard.  ``retry_after_ms`` estimates how long the restart will
    take; ``detail`` names the shard and the generation the restart
    will supersede."""

    code = "service.shard_failed"


class OverloadedError(ServiceError):
    """Admission control refused the request — the shard's in-flight
    commands over the shed threshold, or its crash-loop circuit open.
    Nothing was executed; the request is always safe to retry after
    ``retry_after_ms``."""

    code = "service.overloaded"


class SessionMovedError(ServiceError):
    """The request reached a process that does not execute it: a shard
    that is not the session's ring owner, a shard that restarted since
    the request's route lease was issued, or the supervisor (which
    executes no session command).  Nothing was executed.  ``detail``
    carries the owner's coordinates when the answering process knows
    them — the address and current generation for a stale lease or a
    command sent to the supervisor.  Clients adopt them, or ask
    ``service.route`` again, and retry the command, whatever it is."""

    code = "service.moved"
