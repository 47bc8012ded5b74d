"""64-bit content digests and the JSON codec for artifact dataclasses.

Digests are the first 8 bytes of SHA-256, rendered as 16 hex digits.
They identify artifacts across stage boundaries (a sampled instance
carries the digest of the template it was drawn from, a trace carries
the digest of the geometry it was simulated on).  Templates, instances
and reports are written as `to_data` of their dataclasses and read back
with `from_data`.

SHA-256 comes from CPython's built-in `_sha256` module, as the standard
library's `random` takes SHA-512 from `_sha512`: importing `hashlib` loads
`_hashlib`, which maps OpenSSL's libcrypto (about 3.4 MB resident) into
every process that imports the package.  An interpreter built without
`_sha256` falls back to `hashlib.sha256`.  Both compute the same digest, so
digests and `prng.stream`, which hashes with the `sha256` defined here, are
the same either way.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from typing import Any, Callable

try:
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256


def digest64_bytes(data: bytes) -> str:
    return sha256(data).digest()[:8].hex()


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
    required key; extra keys are ignored), `tuple[X, ...]` (from a list),
    `dict[str, X]`, `X | None`, `Any`, and the scalars `bool`, `int` (not a
    bool), `float` (an int or a float, not a bool, widened to a float) and
    `str`.  A value of another JSON type raises ValueError.  A
    failure below the top-level value names the JSON pointer of the value at
    fault, as in `/params/oracle/0/rule_id: expected a string, got int`; one
    at the top level is the bare reason.
    """
    return _decoder(cls)(data)


class _PathError(ValueError):
    """A decoding failure below the top-level value, as `<pointer>: <reason>`."""

    def __init__(self, key: Any, exc: ValueError):
        nested = isinstance(exc, _PathError)
        token = str(key).replace("~", "~0").replace("/", "~1")  # RFC 6901 escapes
        self.pointer = f"/{token}{exc.pointer if nested else ''}"
        self.reason = exc.reason if nested else str(exc)
        super().__init__(f"{self.pointer}: {self.reason}")


def _at(key: Any, decode: Callable, data: Any) -> Any:
    """`decode(data)` for the member `key` of a container; a ValueError it
    raises gains `key` at the front of its JSON pointer."""
    try:
        return decode(data)
    except ValueError as exc:
        raise _PathError(key, exc) from exc


def _checked(expected: str, kinds: tuple[type, ...], decode: Callable) -> Callable:
    """`decode`, applied only to a value whose type is one of `kinds`."""
    def decode_checked(data: Any) -> Any:
        if type(data) not in kinds:
            raise ValueError(f"expected {expected}, got {type(data).__name__}")
        return decode(data)
    return decode_checked


# each scalar type's name in messages, and the JSON types it decodes from
_SCALARS_FROM = {bool: ("a bool", (bool,)), int: ("an int", (int,)),
                 float: ("a number", (int, float)), str: ("a string", (str,))}


@functools.cache
def _decoder(tp: Any) -> Callable[[Any], Any]:
    if tp in _SCALARS_FROM:
        return _checked(*_SCALARS_FROM[tp], tp)
    if tp is Any:
        return lambda data: data
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        plan = tuple((f.name, _decoder(hints[f.name])) for f in dataclasses.fields(tp) if f.init)

        def decode(data: Any) -> Any:
            if not isinstance(data, dict):
                raise ValueError(f"{tp.__name__}: expected an object, got {type(data).__name__}")
            if missing := [name for name, _ in plan if name not in data]:
                raise ValueError(f"{tp.__name__}: missing key(s) {', '.join(missing)}")
            return tp(**{name: _at(name, field_decoder, data[name])
                         for name, field_decoder in plan})
        return decode
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and args[-1] is Ellipsis:
        item = _decoder(args[0])
        return _checked("a list", (list,),
                        lambda data: tuple(_at(i, item, v) for i, v in enumerate(data)))
    if origin is dict:
        value = _decoder(args[1])
        return _checked("an object", (dict,),
                        lambda data: {k: _at(k, value, v) for k, v in data.items()})
    if origin in (types.UnionType, typing.Union) and len(args) == 2 and type(None) in args:
        inner = _decoder(args[0] if args[1] is type(None) else args[1])
        return lambda data: None if data is None else inner(data)
    raise TypeError(f"no decoder for type {tp!r}")
