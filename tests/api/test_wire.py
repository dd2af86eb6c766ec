"""Protocol v1 contract tests: golden round-trips for every request
and response dataclass, plus strictness (unknown fields, versions).

The round-trip invariant pinned here is what makes the wire protocol
evolvable: ``decode(encode(x)) == x`` and ``encode(decode(bytes)) ==
bytes`` for every type that travels, with unknown fields rejected by
name rather than silently dropped.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing

import pytest

from repro.api import wire
from repro.api.codec import canonical_json, from_jsonable, to_jsonable
from repro.api.errors import BadRequest, VersionError
from repro.api.registry import REGISTRY, spec_for
from repro.api.types import PROTOCOL_VERSION
from repro.core.replay import REPLAYABLE
from repro.errors import ReproError
from repro.service.control import CONTROL


def wire_types() -> list[tuple[str, type]]:
    """Every dataclass that crosses the wire, labelled for test ids."""
    seen: dict[type, str] = {}
    for method, spec in sorted(REGISTRY.items()):
        seen.setdefault(spec.request, f"{method}.request")
        seen.setdefault(spec.result, f"{method}.result")
    for method, (request_cls, result_cls) in sorted(CONTROL.items()):
        seen.setdefault(request_cls, f"{method}.request")
        seen.setdefault(result_cls, f"{method}.result")
    return sorted(((label, cls) for cls, label in seen.items()))


def sample_value(hint, depth: int = 0):
    """A populated value for a type hint — non-default everywhere it
    can be, so totality is actually exercised."""
    origin = typing.get_origin(hint)
    if origin is None:
        if dataclasses.is_dataclass(hint):
            return sample_instance(hint, depth + 1)
        if hint is int:
            return 7 + depth
        if hint is float:
            return 1.5 + depth
        if hint is str:
            return f"s{depth}"
        if hint is bool:
            return True
        if hint is type(None):
            return None
        if hint is dict:
            return {"k": depth}
        raise AssertionError(f"no sample for {hint!r}")
    if origin is tuple:
        args = typing.get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            return (sample_value(args[0], depth), sample_value(args[0], depth + 1))
        return tuple(sample_value(arg, depth) for arg in args)
    if origin in (typing.Union, types.UnionType):
        arms = [a for a in typing.get_args(hint) if a is not type(None)]
        return sample_value(arms[0], depth)
    if origin is dict:
        _, val_t = typing.get_args(hint)
        return {"k": sample_value(val_t, depth)}
    raise AssertionError(f"no sample for {hint!r}")


def sample_instance(cls: type, depth: int = 0):
    hints = typing.get_type_hints(cls)
    return cls(
        **{f.name: sample_value(hints[f.name], depth) for f in dataclasses.fields(cls)}
    )


WIRE_TYPES = wire_types()


class TestGoldenRoundTrip:
    @pytest.mark.parametrize(
        "cls", [c for _, c in WIRE_TYPES], ids=[label for label, _ in WIRE_TYPES]
    )
    def test_round_trip_is_identity_and_bytes_stable(self, cls):
        original = sample_instance(cls)
        encoded = canonical_json(original)
        decoded = from_jsonable(cls, json.loads(encoded))
        assert decoded == original
        # Totality: re-encoding the decoded object reproduces the
        # exact bytes — nothing lost, nothing reordered.
        assert canonical_json(decoded) == encoded

    @pytest.mark.parametrize(
        "cls", [c for _, c in WIRE_TYPES], ids=[label for label, _ in WIRE_TYPES]
    )
    def test_unknown_field_rejected_by_name(self, cls):
        data = to_jsonable(sample_instance(cls))
        data["definitely_not_a_field"] = 1
        with pytest.raises(BadRequest, match="definitely_not_a_field"):
            from_jsonable(cls, data)

    @pytest.mark.parametrize(
        "cls",
        [c for _, c in WIRE_TYPES if any(
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
            for f in dataclasses.fields(c)
        )],
        ids=[label for label, c in WIRE_TYPES if any(
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
            for f in dataclasses.fields(c)
        )],
    )
    def test_missing_required_field_rejected(self, cls):
        required = next(
            f.name
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        data = to_jsonable(sample_instance(cls))
        del data[required]
        with pytest.raises(BadRequest, match=required):
            from_jsonable(cls, data)


class TestEnvelopes:
    def line(self, **overrides) -> str:
        data = {"method": "do_abut", "params": {}, "id": 1, "v": PROTOCOL_VERSION}
        data.update(overrides)
        return json.dumps({k: v for k, v in data.items() if v is not ...})

    def test_request_round_trip(self):
        spec = spec_for("do_abut")
        request = spec.request()
        line = wire.encode_request("do_abut", request, id=9, session="alice")
        envelope = wire.parse_request(line)
        assert envelope.method == "do_abut"
        assert envelope.id == 9
        assert envelope.session == "alice"
        assert envelope.v == PROTOCOL_VERSION
        assert from_jsonable(spec.request, envelope.params) == request

    def test_result_round_trip(self):
        spec = spec_for("do_abut")
        result = sample_instance(spec.result)
        line = wire.encode_result(3, "do_abut", result)
        envelope = wire.parse_response(line)
        assert envelope.ok
        assert envelope.id == 3
        assert from_jsonable(spec.result, envelope.result) == result

    def test_error_round_trip_preserves_code(self):
        line = wire.encode_error(4, KeyError("no such instance 'g9'"))
        envelope = wire.parse_response(line)
        assert not envelope.ok
        assert envelope.error.code == "args.key"
        error = wire.response_error(envelope)
        assert isinstance(error, ReproError)
        assert error.code == "args.key"

    def test_missing_version_rejected(self):
        with pytest.raises(BadRequest, match="protocol version"):
            wire.parse_request(self.line(v=...))

    def test_unknown_version_rejected(self):
        with pytest.raises(VersionError, match="2"):
            wire.parse_request(self.line(v=2))
        with pytest.raises(VersionError):
            wire.parse_response(
                json.dumps({"ok": True, "result": {}, "v": 99})
            )

    def test_unknown_envelope_field_rejected(self):
        with pytest.raises(BadRequest, match="priority"):
            wire.parse_request(self.line(priority=5))

    def test_empty_method_rejected(self):
        with pytest.raises(BadRequest, match="empty method"):
            wire.parse_request(self.line(method=""))

    def test_non_json_rejected(self):
        with pytest.raises(BadRequest, match="not JSON"):
            wire.parse_request(b"ABUT;\n")
        with pytest.raises(BadRequest, match="object"):
            wire.parse_request(b"[1,2]")

    def test_inconsistent_response_rejected(self):
        with pytest.raises(BadRequest, match="ok without result"):
            wire.parse_response(json.dumps({"ok": True, "v": PROTOCOL_VERSION}))
        with pytest.raises(BadRequest, match="failure without error"):
            wire.parse_response(json.dumps({"ok": False, "v": PROTOCOL_VERSION}))


class TestRegistryContract:
    def test_every_registry_method_resolves(self):
        for method in REGISTRY:
            spec = spec_for(method)
            assert spec.name == method
            assert dataclasses.is_dataclass(spec.request)
            assert dataclasses.is_dataclass(spec.result)
        # Every command a journal may name dispatches.
        assert REPLAYABLE <= set(REGISTRY)

    def test_error_codes_are_stable_strings(self):
        # Pin the dotted code strings clients are allowed to match on.
        from repro.api.errors import ApiError, BadRequest, UnknownCommand, VersionError
        from repro.service.errors import (
            BackpressureError,
            BadSessionName,
            OverloadedError,
            ServiceError,
            ServiceTimeout,
            SessionLimitError,
            SessionMovedError,
            ShardFailedError,
            ShutdownError,
        )

        codes = {
            ApiError: "api.error",
            UnknownCommand: "api.unknown_command",
            BadRequest: "api.bad_request",
            VersionError: "api.version",
            ServiceError: "service.error",
            BadSessionName: "service.bad_session",
            SessionLimitError: "service.session_limit",
            BackpressureError: "service.backpressure",
            ServiceTimeout: "service.timeout",
            ShutdownError: "service.shutdown",
            ShardFailedError: "service.shard_failed",
            OverloadedError: "service.overloaded",
            SessionMovedError: "service.moved",
        }
        for exc_type, code in codes.items():
            assert exc_type("x").code == code

    def test_error_detail_survives_the_wire(self):
        from repro.api import wire
        from repro.service.errors import SessionMovedError

        line = wire.encode_error(
            9,
            SessionMovedError(
                "stale lease",
                retry_after_ms=25,
                detail=wire.ErrorDetail(
                    shard=3, generation=2, host="127.0.0.1", port=7453
                ),
            ),
        )
        envelope = wire.parse_response(line)
        assert envelope.error.detail == wire.ErrorDetail(
            shard=3, generation=2, host="127.0.0.1", port=7453
        )
        rebuilt = wire.response_error(envelope)
        assert rebuilt.code == "service.moved"
        assert rebuilt.detail.port == 7453

    def test_error_detail_omitted_when_absent(self):
        # Old clients parse new servers' plain errors: no detail key.
        from repro.api import wire
        from repro.api.errors import BadRequest

        line = wire.encode_error(1, BadRequest("nope"))
        assert '"detail"' not in line
        assert wire.parse_response(line).error.detail is None

    def test_relay_requests_omit_the_generation_key(self):
        # Old servers parse new clients' lines that carry no route
        # lease: no generation key.
        from repro.api import wire

        line = wire.encode_request(
            "rotate", spec_for("rotate").request(name="g0"), id=1
        )
        assert '"generation"' not in line
        direct = wire.encode_request(
            "rotate", spec_for("rotate").request(name="g0"), id=1,
            generation=4,
        )
        assert wire.parse_request(direct).generation == 4

    def test_retry_after_hint_survives_the_wire(self):
        from repro.api import wire
        from repro.service.errors import OverloadedError

        line = wire.encode_error(
            7, OverloadedError("shed", retry_after_ms=250)
        )
        envelope = wire.parse_response(line)
        assert envelope.error.retry_after_ms == 250
        rebuilt = wire.response_error(envelope)
        assert rebuilt.code == "service.overloaded"
        assert rebuilt.retry_after_ms == 250

    def test_retry_after_hint_defaults_to_none(self):
        from repro.api import wire
        from repro.api.errors import BadRequest

        envelope = wire.parse_response(
            wire.encode_error(1, BadRequest("nope"))
        )
        assert envelope.error.retry_after_ms is None
