"""The reflective decoder the compiled codec replaced, kept as the
oracle for ``tests/api/test_codec_differential.py``.

``from_jsonable`` and ``_convert`` are verbatim from the codec before
it compiled shapes: they re-read each dataclass's type hints with
``typing.get_origin``/``get_args`` on every value.  Do not edit them
to follow the codec; the differential test is only worth anything
while this copy stays the old behaviour.
"""

from __future__ import annotations

import dataclasses
import types
import typing

from repro.api.errors import BadRequest

_HINTS_CACHE: dict[type, dict[str, object]] = {}


def _hints(cls: type) -> dict[str, object]:
    hints = _HINTS_CACHE.get(cls)
    if hints is None:
        hints = _HINTS_CACHE[cls] = typing.get_type_hints(cls)
    return hints


def from_jsonable(cls: type, data, where: str | None = None):
    """Build ``cls`` from decoded JSON, strictly."""
    where = where or cls.__name__
    if not isinstance(data, dict):
        raise BadRequest(f"{where}: expected an object, got {type(data).__name__}")
    field_list = dataclasses.fields(cls)
    known = {f.name for f in field_list}
    unknown = sorted(set(data) - known)
    if unknown:
        raise BadRequest(f"{where}: unknown field(s) {', '.join(unknown)}")
    hints = _hints(cls)
    kwargs = {}
    for f in field_list:
        if f.name in data:
            kwargs[f.name] = _convert(
                hints[f.name], data[f.name], f"{where}.{f.name}"
            )
        elif (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ):
            raise BadRequest(f"{where}: missing required field {f.name!r}")
    return cls(**kwargs)


def _convert(hint, value, where: str):
    origin = typing.get_origin(hint)
    if origin is None:
        if dataclasses.is_dataclass(hint):
            return from_jsonable(hint, value, where)
        if hint is typing.Any:
            return value
        if hint is type(None):
            if value is not None:
                raise BadRequest(f"{where}: expected null")
            return None
        if hint is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise BadRequest(f"{where}: expected a number")
            return float(value)
        if hint is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise BadRequest(f"{where}: expected an integer")
            return value
        if hint is bool or hint is str:
            if not isinstance(value, hint):
                raise BadRequest(f"{where}: expected {hint.__name__}")
            return value
        if hint is dict:
            if not isinstance(value, dict):
                raise BadRequest(f"{where}: expected an object")
            return value
        raise BadRequest(f"{where}: unsupported field type {hint!r}")
    if origin is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, list):
            raise BadRequest(f"{where}: expected an array")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(
                _convert(args[0], item, f"{where}[{i}]")
                for i, item in enumerate(value)
            )
        if len(value) != len(args):
            raise BadRequest(f"{where}: expected {len(args)} element(s)")
        return tuple(
            _convert(arg, item, f"{where}[{i}]")
            for i, (arg, item) in enumerate(zip(args, value))
        )
    if origin in (typing.Union, types.UnionType):
        for arg in typing.get_args(hint):
            try:
                return _convert(arg, value, where)
            except BadRequest:
                continue
        raise BadRequest(f"{where}: no union arm accepts the value")
    if origin is dict:
        key_t, val_t = typing.get_args(hint)
        if not isinstance(value, dict):
            raise BadRequest(f"{where}: expected an object")
        if key_t is not str:
            raise BadRequest(f"{where}: only str-keyed mappings travel")
        return {
            key: _convert(val_t, item, f"{where}[{key}]")
            for key, item in value.items()
        }
    raise BadRequest(f"{where}: unsupported field type {hint!r}")
