"""Strict, reversible dataclass <-> JSON conversion.

The protocol's compatibility story rests on two properties this module
enforces:

* **Totality** — ``to_jsonable`` always emits every field (defaults
  included), so re-encoding a decoded object reproduces the original
  bytes under canonical JSON; the golden round-trip tests pin this.
* **Strictness** — ``from_jsonable`` rejects unknown fields, missing
  required fields and type mismatches with :class:`BadRequest`.
  Rejecting unknown fields now is what lets protocol version 2 add
  fields later and *know* old servers refuse them instead of silently
  dropping semantics.

Each wire dataclass compiles once, on first use, into a :class:`Shape`
holding one ``(name, type node, required)`` triple per field.  The
type nodes are the whole wire vocabulary, listed here and nowhere
else; the last column is a node's text form in the ``service.describe``
manifest (:mod:`repro.api.manifest`):

=======================  ======================  =================
``int`` ``float``        number, never a bool    ``int`` ``float``
``str`` ``bool``         string, boolean         ``str`` ``bool``
``NoneType`` ``dict``    null, any object        ``null`` ``dict``
``("tuple", (A, B))``    array of that length    ``tuple[A,B]``
``("array", T)``         array of any length     ``tuple[T,...]``
``("union", (A, B))``    first arm that fits     ``A|B``
``("record", key)``      nested dataclass        its class name
=======================  ======================  =================

A ``float`` also takes an integer and decodes it as a float.
Anything richer belongs in an explicit dataclass.  One walker,
:func:`decode`, checks JSON against these nodes: for typed decoding a
record key is a class resolved through :data:`SHAPES`; for
:class:`repro.api.manifest.ManifestCodec` it is a type name resolved
through shapes parsed from a manifest.

Shapes are immutable and compiling one class twice yields equal
shapes, so session threads share :data:`SHAPES` without a lock: a
race costs one redundant compile, never a wrong answer.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from typing import Callable, NamedTuple

from repro.api.errors import BadRequest

NoneType = type(None)

#: The scalar nodes and their manifest spellings.
SCALARS = {
    int: "int", float: "float", str: "str", bool: "bool", NoneType: "null", dict: "dict"
}
_LEAVES = frozenset(SCALARS) - {dict}


class Shape(NamedTuple):
    """One record type, compiled: what :func:`decode` checks it by."""

    #: Called with the decoded fields as keywords: the dataclass, or
    #: ``dict`` for a record known only from a manifest.
    make: Callable
    #: ``(name, type node, required)`` per field, in declaration order.
    fields: tuple[tuple[str, object, bool], ...]
    known: frozenset[str]


def shape(make: Callable, fields) -> Shape:
    fields = tuple(fields)
    return Shape(make, fields, frozenset(name for name, _, _ in fields))


def _node(hint):
    if hint in SCALARS:
        return hint
    if dataclasses.is_dataclass(hint):
        return ("record", hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return ("array", _node(args[0]))
    if origin is tuple:
        return ("tuple", tuple(_node(arg) for arg in args))
    if origin in (typing.Union, types.UnionType):
        return ("union", tuple(_node(arg) for arg in args))
    raise TypeError(f"{hint!r} is not in the wire vocabulary")


class _Shapes(dict):
    """Dataclass -> :class:`Shape`, compiled on first lookup."""

    def __missing__(self, cls: type) -> Shape:
        hints = typing.get_type_hints(cls)
        self[cls] = compiled = shape(
            cls,
            (
                (
                    f.name,
                    _node(hints[f.name]),
                    f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING,
                )
                for f in dataclasses.fields(cls)
            ),
        )
        return compiled


SHAPES: dict[type, Shape] = _Shapes()


def decode(node, value, where: str, shapes):
    """``value`` checked against ``node``, converted where the node
    says so (``float`` coercion, arrays to tuples, records built)."""
    if node is str or node is bool:
        if isinstance(value, node):
            return value
        raise BadRequest(f"{where}: expected {node.__name__}")
    if node is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise BadRequest(f"{where}: expected an integer")
    if node is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise BadRequest(f"{where}: expected a number")
    if node is NoneType:
        if value is None:
            return None
        raise BadRequest(f"{where}: expected null")
    if node is dict:
        if isinstance(value, dict):
            return value
        raise BadRequest(f"{where}: expected an object")
    kind, arg = node
    if kind == "record":
        return decode_record(shapes[arg], value, where, shapes)
    if kind == "union":
        # Only a null arm accepts null, so answering it directly keeps
        # the arm order's result without raising for each earlier arm.
        if value is None and NoneType in arg:
            return None
        for arm in arg:
            try:
                return decode(arm, value, where, shapes)
            except BadRequest:
                continue
        raise BadRequest(f"{where}: no union arm accepts the value")
    if not isinstance(value, list):
        raise BadRequest(f"{where}: expected an array")
    if kind == "array":
        arg = (arg,) * len(value)
    elif len(value) != len(arg):
        raise BadRequest(f"{where}: expected {len(arg)} element(s)")
    return tuple(
        [
            decode(arm, item, f"{where}[{i}]", shapes)
            for i, (arm, item) in enumerate(zip(arg, value))
        ]
    )


def decode_record(record: Shape, data, where: str, shapes):
    """``data`` checked against a record shape and built with its
    ``make``."""
    if not isinstance(data, dict):
        raise BadRequest(f"{where}: expected an object, got {type(data).__name__}")
    if not record.known.issuperset(data):
        unknown = sorted(set(data) - record.known)
        raise BadRequest(f"{where}: unknown field(s) {', '.join(unknown)}")
    kwargs = {}
    for name, node, required in record.fields:
        if name in data:
            kwargs[name] = decode(node, data[name], f"{where}.{name}", shapes)
        elif required:
            raise BadRequest(f"{where}: missing required field {name!r}")
    return record.make(**kwargs)


def from_jsonable(cls: type, data, where: str | None = None):
    """Build ``cls`` from decoded JSON, strictly."""
    return decode_record(SHAPES[cls], data, where or cls.__name__, SHAPES)


def to_jsonable(value):
    """A dataclass (or plain value) as JSON-ready data: dicts, lists
    and scalars, every field present."""
    cls = type(value)
    if cls in _LEAVES:
        return value
    if cls in SHAPES or dataclasses.is_dataclass(cls):
        return {
            name: to_jsonable(getattr(value, name)) for name, _, _ in SHAPES[cls].fields
        }
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: to_jsonable(item) for key, item in value.items()}
    return value


def dumps(data) -> str:
    """Key-sorted, compact JSON of data already JSON-ready."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def canonical_json(value) -> str:
    """The one serialisation both sides agree on: key-sorted, compact."""
    return dumps(to_jsonable(value))
