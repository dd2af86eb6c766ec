"""``service.describe`` contract: the manifest is a complete export.

The property pinned here: a codec built from the manifest alone
(:class:`repro.api.manifest.ManifestCodec` — no imports of the typed
dataclasses) validates and encodes **byte-identical** canonical request
lines for every registered command, from samples drawn from the
manifest alone, and validates every result, with unknown fields
rejected.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import wire
from repro.api.codec import SCALARS, canonical_json, from_jsonable, to_jsonable
from repro.api.errors import BadRequest
from repro.api.manifest import Manifest, ManifestCodec, build_manifest
from repro.api.registry import REGISTRY
from repro.api.types import PROTOCOL_VERSION
from repro.service.control import CONTROL

from .test_wire import sample_instance

MANIFEST = build_manifest(CONTROL)
CODEC = ManifestCodec(MANIFEST)

#: sha256 of ``canonical_json(build_manifest(CONTROL))``: 21,205 bytes.
#: A new command, field or error code changes it on purpose.
MANIFEST_SHA256 = "5efcb02d0d68d7cdd67d839be4b026ab56537fc3ccafdf6c6b6e306ee362dad3"


def sample_node(node, depth: int):
    """A JSON sample for a parsed manifest type node; mirrors
    :func:`tests.api.test_wire.sample_value` exactly."""
    if node in SCALARS:
        return {
            "int": 7 + depth,
            "float": 1.5 + depth,
            "str": f"s{depth}",
            "bool": True,
            "null": None,
            "dict": {"k": depth},
        }[SCALARS[node]]
    kind, arg = node
    if kind == "record":
        return sample_fields(CODEC.shapes[arg], depth + 1)
    if kind == "union":
        return sample_node(next(a for a in arg if a is not type(None)), depth)
    if kind == "array":
        return [sample_node(arg, depth), sample_node(arg, depth + 1)]
    return [sample_node(arm, depth) for arm in arg]


def sample_fields(shape, depth: int) -> dict:
    return {name: sample_node(node, depth) for name, node, _ in shape.fields}


def sample_params(method: str) -> dict:
    return sample_fields(CODEC.sides[method, "request"], 0)


def sample_result(method: str) -> dict:
    return sample_fields(CODEC.sides[method, "result"], 0)


#: (method, request class, result class) for everything registered.
METHODS = sorted(
    [(m, s.request, s.result) for m, s in REGISTRY.items()]
    + [(m, req, res) for m, (req, res) in CONTROL.items()]
)


class TestManifestShape:
    def test_covers_registry_and_control_plane(self):
        assert {c.name for c in MANIFEST.commands} == set(REGISTRY) | set(
            CONTROL
        )

    def test_version_and_flags(self):
        assert MANIFEST.version == PROTOCOL_VERSION
        by_name = {c.name: c for c in MANIFEST.commands}
        assert by_name["rotate"].replayable
        assert not by_name["writecif"].replayable
        assert by_name["service.ping"].control
        assert not by_name["rotate"].control

    def test_replayable_flags_match_registry(self):
        by_name = {c.name: c for c in MANIFEST.commands}
        for method, spec in REGISTRY.items():
            assert by_name[method].replayable == spec.replayable

    def test_error_codes_include_the_pinned_vocabulary(self):
        codes = set(MANIFEST.error_codes)
        assert {
            "api.bad_request",
            "api.unknown_command",
            "service.backpressure",
            "service.moved",
            "service.overloaded",
            "service.shard_failed",
        } <= codes

    def test_bytes_do_not_depend_on_what_the_process_imported(self):
        # A supervisor has loaded only the manifest and the control
        # table when its first service.describe builds the manifest.
        fresh = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys\n"
                "from repro.api.manifest import build_manifest, canonical_json\n"
                "from repro.service.control import CONTROL\n"
                "sys.stdout.write(canonical_json(build_manifest(CONTROL)))",
            ],
            capture_output=True,
            timeout=120,
            check=True,
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
            },
        ).stdout
        assert fresh == canonical_json(MANIFEST).encode()
        assert hashlib.sha256(fresh).hexdigest() == MANIFEST_SHA256

    def test_manifest_travels_protocol_v1(self):
        encoded = canonical_json(MANIFEST)
        decoded = from_jsonable(Manifest, json.loads(encoded))
        assert decoded == MANIFEST
        assert canonical_json(decoded) == encoded


class TestManifestCodecProperty:
    """Per command: the manifest-only codec agrees with the typed one."""

    @pytest.mark.parametrize(
        "method,request_cls,result_cls",
        METHODS,
        ids=[m for m, _, _ in METHODS],
    )
    def test_samples_match_the_typed_encoding(
        self, method, request_cls, result_cls
    ):
        assert sample_params(method) == to_jsonable(
            sample_instance(request_cls)
        )
        assert sample_result(method) == to_jsonable(
            sample_instance(result_cls)
        )

    @pytest.mark.parametrize(
        "method,request_cls,result_cls",
        METHODS,
        ids=[m for m, _, _ in METHODS],
    )
    def test_encoded_lines_are_byte_identical(
        self, method, request_cls, result_cls
    ):
        typed = wire.encode_request(
            method, sample_instance(request_cls), id=3, session="alice"
        )
        from_manifest = CODEC.encode_request_line(
            method, sample_params(method), id=3, session="alice"
        )
        assert from_manifest == typed

    @pytest.mark.parametrize(
        "method,request_cls,result_cls",
        METHODS,
        ids=[m for m, _, _ in METHODS],
    )
    def test_results_validate_and_unknowns_reject(
        self, method, request_cls, result_cls
    ):
        result = to_jsonable(sample_instance(result_cls))
        CODEC.validate(method, "result", result)
        result["definitely_not_a_field"] = 1
        with pytest.raises(BadRequest, match="definitely_not_a_field"):
            CODEC.validate(method, "result", result)

    def test_unknown_param_rejected(self):
        params = sample_params("rotate")
        params["definitely_not_a_field"] = 1
        with pytest.raises(BadRequest, match="definitely_not_a_field"):
            CODEC.encode_request_line("rotate", params, id=1, session="s")

    def test_missing_required_param_rejected(self):
        with pytest.raises(BadRequest, match="name"):
            CODEC.encode_request_line("rotate", {}, id=1, session="s")

    def test_unknown_command_rejected(self):
        with pytest.raises(BadRequest, match="no_such"):
            CODEC.validate("no_such", "request", {})


class TestDescribeEndToEnd:
    def test_manifest_fetched_over_the_wire_drives_a_raw_client(self):
        # The full loop: fetch the manifest with service.describe, then
        # speak the protocol from it alone over a bare socket.
        from repro.service.client import ServiceClient
        from repro.service.serve import ServiceThread

        with ServiceThread() as srv:
            host, port = srv.address
            with ServiceClient(host, port) as control:
                fetched = control.call("service.describe")
            assert fetched == MANIFEST
            codec = ManifestCodec(fetched)
            line = codec.encode_request_line(
                "new_cell",
                {"name": "from-manifest"},
                id=1,
                session="describe-e2e",
            )
            with socket.create_connection((host, port), timeout=10) as sock:
                file = sock.makefile("rwb")
                file.write(line.encode() + b"\n")
                file.flush()
                raw = file.readline()
        envelope = wire.parse_response(raw)
        assert envelope.ok
        codec.validate("new_cell", "result", envelope.result)
        assert envelope.result["name"] == "from-manifest"
