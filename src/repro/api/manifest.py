"""The machine-readable protocol manifest behind ``service.describe``.

:func:`build_manifest` walks the typed registry (and optionally the
``service.*`` control table) and exports every command's request and
result schema as data: field names, type strings, required flags, the
``replayable`` bit the journal allowlist is built from, and the stable
dotted error codes.  The manifest is itself a frozen wire dataclass,
so it travels protocol v1 like everything else.

A type string is the text form of a type node of the shape
:mod:`repro.api.codec` compiled for the field's dataclass, spelled as
that module's vocabulary table gives; a nested dataclass is named, and
described once in the manifest's ``types`` table.

:class:`ManifestCodec` is the proof the export is complete: built from
a manifest alone — no imports of the typed dataclasses — it parses
those strings back into type nodes, validates with the codec's one
walker and encodes byte-identical canonical request lines for every
registered command.  The property test in ``tests/api/test_describe.py``
pins that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.codec import SCALARS, SHAPES, Shape, canonical_json, decode_record, shape
from repro.api.errors import BadRequest
from repro.api.wire import PROTOCOL_VERSION


@dataclass(frozen=True)
class FieldSchema:
    """One field of a request/result/nested dataclass."""

    name: str
    type: str
    required: bool


@dataclass(frozen=True)
class TypeSchema:
    """One nested dataclass referenced by name from a type string."""

    name: str
    fields: tuple[FieldSchema, ...]


@dataclass(frozen=True)
class CommandSchema:
    """One command: its name, flags and both sides of the exchange."""

    name: str
    replayable: bool
    #: True for ``service.*`` control commands (answered by the server
    #: itself, no ``session`` field); False for session commands.
    control: bool
    request: tuple[FieldSchema, ...]
    result: tuple[FieldSchema, ...]


@dataclass(frozen=True)
class Manifest:
    """The whole self-description ``service.describe`` returns."""

    version: int
    commands: tuple[CommandSchema, ...]
    types: tuple[TypeSchema, ...]
    error_codes: tuple[str, ...]


def _spell(node, types_out: dict[str, TypeSchema]) -> str:
    """``node`` as a manifest type string, registering the records it
    reaches in ``types_out``."""
    if node in SCALARS:
        return SCALARS[node]
    kind, arg = node
    if kind == "record":
        name = arg.__name__
        if name not in types_out:
            # Placeholder first: a type that reached itself would stop
            # here instead of recursing forever.
            types_out[name] = TypeSchema(name=name, fields=())
            types_out[name] = TypeSchema(name=name, fields=_fields(arg, types_out))
        return name
    if kind == "union":
        return "|".join(_spell(arm, types_out) for arm in arg)
    if kind == "array":
        return f"tuple[{_spell(arg, types_out)},...]"
    return f"tuple[{','.join(_spell(arm, types_out) for arm in arg)}]"


def _fields(cls: type, types_out: dict[str, TypeSchema]):
    return tuple(
        FieldSchema(name=name, type=_spell(node, types_out), required=required)
        for name, node, required in SHAPES[cls].fields
    )


#: Every module that defines an error code.  Exception families
#: register by being imported, so the manifest imports them all rather
#: than list whichever ones this process happens to have loaded.
_ERROR_MODULES = (
    "repro.api.errors",
    "repro.cellstore.errors",
    "repro.cif.errors",
    "repro.composition.cell",
    "repro.composition.format",
    "repro.core.errors",
    "repro.rest.errors",
    "repro.service.errors",
    "repro.sticks.errors",
)


def _error_codes() -> tuple[str, ...]:
    """Every stable dotted code an error response may carry."""
    from repro.errors import ReproError

    for module in _ERROR_MODULES:
        __import__(module)
    codes = {"args.key", "args.value", "internal"}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        code = cls.__dict__.get("code")
        if isinstance(code, str):
            codes.add(code)
        stack.extend(cls.__subclasses__())
    return tuple(sorted(codes))


def build_manifest(control: dict | None = None) -> Manifest:
    """The manifest for the registry, plus ``control`` when given (the
    server passes :data:`repro.service.control.CONTROL` so the control
    plane describes itself too).  The registry is imported here, not at
    module level, so a supervisor loads it only when a client asks."""
    from repro.api.registry import REGISTRY

    types_out: dict[str, TypeSchema] = {}
    commands = []
    for name, spec in sorted(REGISTRY.items()):
        commands.append(
            CommandSchema(
                name=name,
                replayable=spec.replayable,
                control=False,
                request=_fields(spec.request, types_out),
                result=_fields(spec.result, types_out),
            )
        )
    for name, (request_cls, result_cls) in sorted((control or {}).items()):
        commands.append(
            CommandSchema(
                name=name,
                replayable=False,
                control=True,
                request=_fields(request_cls, types_out),
                result=_fields(result_cls, types_out),
            )
        )
    commands.sort(key=lambda c: c.name)
    return Manifest(
        version=PROTOCOL_VERSION,
        commands=tuple(commands),
        types=tuple(types_out[n] for n in sorted(types_out)),
        error_codes=_error_codes(),
    )


# -- a client built from the manifest alone ---------------------------------


def _split_top(text: str, sep: str) -> list[str]:
    """Split on ``sep`` outside brackets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


_SPELLED = {spelling: node for node, spelling in SCALARS.items()}


def _parse(text: str, type_names) -> object:
    """A manifest type string back into a type node; records are keyed
    by type name."""
    arms = _split_top(text, "|")
    if len(arms) > 1:
        return ("union", tuple(_parse(arm, type_names) for arm in arms))
    if text.startswith("tuple[") and text.endswith("]"):
        parts = _split_top(text[6:-1], ",")
        if len(parts) == 2 and parts[1] == "...":
            return ("array", _parse(parts[0], type_names))
        return ("tuple", tuple(_parse(part, type_names) for part in parts))
    if text in _SPELLED:
        return _SPELLED[text]
    if text in type_names:
        return ("record", text)
    raise BadRequest(f"manifest: unknown type {text!r}")


class ManifestCodec:
    """Validate and encode requests from a :class:`Manifest` alone — no
    access to the typed dataclasses.

    This is the consumer the manifest contract is tested against: if a
    codec built from ``service.describe`` output can produce the same
    canonical bytes as the typed encoder for every command, the export
    is complete.  It parses each type string back into the codec's type
    nodes and checks JSON with the same walker typed decoding uses.
    """

    def __init__(self, manifest: Manifest):
        self.manifest = manifest
        names = {t.name for t in manifest.types}

        def compiled(fields) -> Shape:
            return shape(
                dict, ((f.name, _parse(f.type, names), f.required) for f in fields)
            )

        #: Type name -> shape, the table ``("record", name)`` resolves in.
        self.shapes = {t.name: compiled(t.fields) for t in manifest.types}
        #: (method, ``"request"`` or ``"result"``) -> shape.
        self.sides = {
            (c.name, side): compiled(getattr(c, side))
            for c in manifest.commands
            for side in ("request", "result")
        }

    def validate(self, method: str, side: str, data: dict) -> dict:
        """``data`` checked as ``method``'s ``side``; returns it decoded."""
        compiled = self.sides.get((method, side))
        if compiled is None:
            raise BadRequest(f"manifest: unknown command {method!r}")
        return decode_record(compiled, data, f"{method}.{side}", self.shapes)

    def encode_request_line(
        self,
        method: str,
        params: dict,
        *,
        id=None,
        session: str | None = None,
    ) -> str:
        """A canonical request line, byte-identical to what the typed
        :func:`repro.api.wire.encode_request` emits for the same data."""
        return canonical_json(
            {
                "id": id,
                "method": method,
                "params": self.validate(method, "request", params),
                "session": session,
                "trace": None,
                "v": self.manifest.version,
            }
        )
