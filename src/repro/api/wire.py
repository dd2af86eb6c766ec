"""Protocol version 1: newline-delimited JSON envelopes.

One request per line, one response per line, canonical JSON (sorted
keys, compact separators) both ways:

Request::

    {"id":1,"method":"do_abut","params":{"overlap":false},
     "session":"alice","v":1}

Success::

    {"id":1,"method":"do_abut","ok":true,
     "result":{"made":1,"warnings":[]},"v":1}

Error::

    {"error":{"code":"riot.command","message":"..."},"id":1,
     "ok":false,"v":1}

Envelope rules, enforced strictly on both sides so version 2 can
evolve safely:

* ``v`` is required and must equal :data:`PROTOCOL_VERSION`
  (:class:`VersionError` otherwise);
* unknown envelope fields are rejected (:class:`BadRequest`), as are
  unknown fields inside ``params``/``result`` (see
  :mod:`repro.api.codec`);
* ``error.code`` is the machine contract — stable strings from
  :mod:`repro.errors` — and ``error.message`` is prose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.api.codec import dumps, from_jsonable, to_jsonable
from repro.api.errors import BadRequest, VersionError
from repro.errors import ReproError, error_code

#: The protocol generation of every envelope and of the dataclasses in
#: :mod:`repro.api.types`.  Bump only with a deliberate, documented
#: break; :func:`parse_request` and :func:`parse_response` reject
#: anything else.
PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class RequestEnvelope:
    """One request line, decoded but with ``params`` still raw."""

    method: str
    params: dict
    id: int | str | None = None
    session: str | None = None
    v: int = PROTOCOL_VERSION
    #: Distributed-trace context: ``{"id": trace id, "parent":
    #: "<process label>:<span id>"}``.  A client opens the root span
    #: for a request and sends its reference here; the shard that
    #: executes the request parents its own spans on it, so one
    #: request yields a single trace stitched across client and
    #: shard.  ``None`` (the default) everywhere tracing is off.
    trace: dict | None = None
    #: The shard's restart generation, on a **direct-to-shard**
    #: request.  A client that dialed a shard's data socket stamps the
    #: generation its ``service.route`` answer named here; the shard
    #: refuses the request with ``service.moved`` when the generation
    #: is stale (the shard restarted since).  ``None`` (and omitted
    #: from the wire) on every other request, so old servers never see
    #: the field.
    generation: int | None = None


@dataclass(frozen=True)
class ErrorInfo:
    code: str
    message: str
    #: Optional pacing hint: retryable conditions (``service.overloaded``,
    #: ``service.backpressure``, ``service.shard_failed``,
    #: ``service.moved``) tell the client how many milliseconds to
    #: wait before trying again.  Absent (``None``) everywhere else.
    retry_after_ms: int | None = None


@dataclass(frozen=True)
class ResponseEnvelope:
    """One response line; exactly one of ``result``/``error`` is set."""

    ok: bool
    id: int | str | None = None
    method: str | None = None
    result: dict | None = None
    error: ErrorInfo | None = None
    v: int = PROTOCOL_VERSION
    #: Per-request stage decomposition in integer microseconds
    #: (``{"shard_queue": ..., "handler": ..., "fsync": ...}``, plus
    #: ``direct`` on a direct-to-shard request; see
    #: :data:`repro.service.telemetry.STAGES`).  Telemetry, not
    #: contract: absent (``None``) when the server has nothing to
    #: report.
    stages: dict | None = None


def _check_version(data: dict, where: str) -> None:
    if "v" not in data:
        raise BadRequest(f"{where}: missing protocol version field 'v'")
    if data["v"] != PROTOCOL_VERSION:
        raise VersionError(
            f"{where}: protocol version {data['v']!r} not supported "
            f"(this side speaks {PROTOCOL_VERSION})"
        )


def _parse_object(line: str | bytes, where: str) -> dict:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise BadRequest(f"{where}: not JSON ({exc.msg})") from None
    if not isinstance(data, dict):
        raise BadRequest(f"{where}: expected a JSON object")
    return data


# -- requests ---------------------------------------------------------------


def encode_request(
    method: str,
    request,
    *,
    id: int | str | None = None,
    session: str | None = None,
    trace: dict | None = None,
    generation: int | None = None,
) -> str:
    """One canonical request line (no trailing newline): a
    :class:`RequestEnvelope`, every field present but ``generation``."""
    data = {
        "id": id,
        "method": method,
        "params": to_jsonable(request),
        "session": session,
        "trace": trace,
        "v": PROTOCOL_VERSION,
    }
    if generation is not None:
        # Present only on a direct request: lines without one stay
        # parseable by pre-direct-routing servers (strict codec rejects
        # unknowns).
        data["generation"] = generation
    return dumps(data)


def parse_request(line: str | bytes) -> RequestEnvelope:
    data = _parse_object(line, "request")
    _check_version(data, "request")
    envelope = from_jsonable(RequestEnvelope, data, where="request")
    if not envelope.method:
        raise BadRequest("request: empty method")
    return envelope


# -- responses --------------------------------------------------------------


def _response(id, method, ok, result, error, stages) -> str:
    """A :class:`ResponseEnvelope` line, built as JSON-ready data."""
    return dumps(
        {
            "error": error,
            "id": id,
            "method": method,
            "ok": ok,
            "result": result,
            "stages": stages,
            "v": PROTOCOL_VERSION,
        }
    )


def encode_result(id, method: str, result, *, stages: dict | None = None) -> str:
    return _response(id, method, True, to_jsonable(result), None, stages)


def encode_error(
    id, exc_or_code, message: str | None = None, *, stages: dict | None = None
) -> str:
    """An error line from an exception (code derived) or a code string."""
    if not isinstance(exc_or_code, BaseException):
        error = {"code": exc_or_code, "message": message or "", "retry_after_ms": None}
        return _response(id, None, False, None, error, stages)
    error = {
        "code": error_code(exc_or_code),
        "message": str(exc_or_code),
        "retry_after_ms": getattr(exc_or_code, "retry_after_ms", None),
    }
    return _response(id, None, False, None, error, stages)


def parse_response(line: str | bytes) -> ResponseEnvelope:
    data = _parse_object(line, "response")
    _check_version(data, "response")
    envelope = from_jsonable(ResponseEnvelope, data, where="response")
    if envelope.ok and envelope.result is None:
        raise BadRequest("response: ok without result")
    if not envelope.ok and envelope.error is None:
        raise BadRequest("response: failure without error")
    return envelope


def response_error(envelope: ResponseEnvelope) -> ReproError:
    """The failure a response envelope carries, rebuilt as a
    :class:`ReproError` with the code — and any ``retry_after_ms``
    pacing hint — preserved."""
    error = ReproError(envelope.error.message, code=envelope.error.code)
    error.retry_after_ms = envelope.error.retry_after_ms
    return error
