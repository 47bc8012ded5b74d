"""64-bit content digests and the JSON codec for artifact dataclasses.

Digests are the first 8 bytes of SHA-256, rendered as 16 hex digits.
They identify artifacts across stage boundaries (a sampled instance
carries the digest of the template it was drawn from, a trace carries
the digest of the geometry it was simulated on).  Templates, instances
and reports are written as `to_data` of their dataclasses and read back
with `from_data`.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing
from typing import Any, Callable


def digest64_bytes(data: bytes) -> str:
    return hashlib.sha256(data).digest()[:8].hex()


def digest64_text(text: str) -> str:
    return digest64_bytes(text.encode("utf-8"))


def canonical_json(obj: Any) -> str:
    """Minified JSON with sorted keys; the only JSON form we ever hash."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest64_json(obj: Any) -> str:
    return digest64_text(canonical_json(obj))


_SCALARS = (str, int, float, bool, type(None))


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def to_data(obj: Any) -> Any:
    """Dataclasses become dicts of their fields and tuples become lists, recursively."""
    if isinstance(obj, _SCALARS):
        return obj
    if isinstance(obj, (tuple, list)):
        return [to_data(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_data(v) for k, v in obj.items()}
    return {name: to_data(getattr(obj, name)) for name in _field_names(type(obj))}


def from_data(cls: Any, data: Any) -> Any:
    """Rebuild a value of type `cls` from `to_data` output or its JSON reading.

    Handles dataclasses (from an object in which every init field is a
    required key; extra keys are ignored), `tuple[X, ...]`, fixed tuples, `dict[str, X]` and `X | None`,
    and coerces `float`, `int` and `bool` values.
    """
    return _decoder(cls)(data)


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    if tp in (float, int, bool):
        return tp
    if tp is str or tp is Any:
        return lambda data: data
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        plan = tuple((f.name, _decoder(hints[f.name])) for f in dataclasses.fields(tp) if f.init)

        def decode(data: Any) -> Any:
            if not isinstance(data, dict):
                raise ValueError(f"{tp.__name__}: expected an object, got {type(data).__name__}")
            if missing := [name for name, _ in plan if name not in data]:
                raise ValueError(f"{tp.__name__}: missing key(s) {', '.join(missing)}")
            return tp(**{name: field_decoder(data[name]) for name, field_decoder in plan})
        return decode
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and args[-1] is Ellipsis:
        item = _decoder(args[0])
        return lambda data: tuple(item(v) for v in data)
    if origin is tuple:
        items = tuple(_decoder(a) for a in args)
        return lambda data: tuple(d(v) for d, v in zip(items, data, strict=True))
    if origin is dict:
        value = _decoder(args[1])
        return lambda data: {k: value(v) for k, v in data.items()}
    if origin in (types.UnionType, typing.Union) and len(args) == 2 and type(None) in args:
        inner = _decoder(args[0] if args[1] is type(None) else args[1])
        return lambda data: None if data is None else inner(data)
    raise TypeError(f"no decoder for type {tp!r}")
