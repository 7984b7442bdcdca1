"""Versioned JSON serialization for trained models.

The on-disk record is the JSON object
``{"format_version": 2, "kind": K, "checksum": C, "payload": P}``, written in
that order with the payload last.  P is the canonical payload encoding (sorted
keys, no whitespace) and C is the SHA-256 of its text.  Floats are stored via
``repr`` round-tripping (JSON numbers), so reloaded models predict identically.

Loading verifies the checksum one of two ways.  A file laid out exactly as
``save_model`` writes it, at version 1 or 2, is checked by hashing its payload
bytes as they stand, and only those bytes are parsed and decoded.  Any other
file (an older writer, or one rewritten by ``json.dumps``) is parsed whole,
and its payload is re-encoded canonically and hashed.  The two judge a file
alike whenever its payload text is canonical, as in every file ``save_model``
writes; they differ only on a file in that exact layout whose checksum was
taken over a non-canonical payload text, which the byte hash accepts.
Loading refuses unknown versions and corrupt files.

The payload holds the model's dataclass fields by name and is read back by
their types, so a missing field or a value of the wrong JSON type is corrupt.
Fields marked ``metadata={"saved": False}`` are training state that files
do not hold, so a loaded model has no diagnostics and no training report:
version 2 holds what prediction reads, and ``params`` and ``config`` as
provenance.  A version-1 payload holds all that and the training state, so
it loads through the same reader, which skips the extra keys.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import types
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .hierarchy import HfTsvrModel
from .tsvr import TsvrModel

FORMAT_VERSION = 2
_KINDS = {"tsvr": TsvrModel, "hftsvr": HfTsvrModel}


class ModelIOError(Exception):
    """File could not be read or written."""


class SchemaVersionMismatch(Exception):
    pass


class CorruptModel(Exception):
    """Checksum failure or structurally invalid record."""


def _saved_fields(cls_or_value) -> list:
    """The dataclass fields a model file holds: all but those marked unsaved."""
    return [f for f in fields(cls_or_value) if f.metadata.get("saved", True)]


def _encode(value):
    """A model, or any value inside one, as JSON-ready data, field by field."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in _saved_fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def _typed(value, kind):
    # bool is an int in Python; a JSON true is not a number, nor 1 a boolean
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise TypeError(f"expected {kind}, got {type(value).__name__}")
    return value


def _converter(hint) -> Callable:
    """The function that turns the JSON value of a field typed ``hint`` back."""
    if is_dataclass(hint):
        return _reader(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        (inner,) = [arg for arg in args if arg is not type(None)]
        convert = _converter(inner)
        return lambda value: None if value is None else convert(value)
    if origin is np.ndarray:
        (dtype,) = typing.get_args(args[1])
        return lambda value: np.array(_typed(value, list), dtype=dtype)
    if origin is tuple:  # tuple[X, ...]
        convert = _converter(args[0])
        return lambda value: tuple(convert(item) for item in _typed(value, list))
    kind = (int, float) if hint is float else hint
    return lambda value: _typed(value, kind)


@functools.cache
def _reader(cls) -> Callable:
    """A function from a payload dict to ``cls``, built once from its field types.

    Every saved field must be present (a missing one would silently take its
    default); unsaved fields take theirs, and other keys are ignored.
    """
    hints = typing.get_type_hints(cls)
    converters = [(f.name, _converter(hints[f.name])) for f in _saved_fields(cls)]

    def read(payload):
        return cls(**{name: convert(payload[name]) for name, convert in converters})

    return read


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(payload, allow_nan: bool = True) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=allow_nan)


def _checksum(payload: dict) -> str:
    return _sha256(_canonical(payload))


# The header save_model writes, and wrote at version 1, before the canonical
# payload text; the file ends with the "}" that closes the record.
_SIGNED_HEAD = re.compile(
    rf'\{{"format_version": (?:1|{FORMAT_VERSION}), "kind": "(?P<kind>\w+)", '
    r'"checksum": "(?P<checksum>[0-9a-f]{64})", "payload": '
)


def save_model(model: TsvrModel | HfTsvrModel, path: str | Path) -> None:
    """Write ``model`` to ``path``; a model holding NaN or an infinity is
    refused with :class:`ModelIOError` before the file is opened, since JSON
    has no such numbers."""
    kind = next((k for k, cls in _KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    try:
        payload = _canonical(_encode(model), allow_nan=False)
    except ValueError as exc:
        raise ModelIOError(f"cannot write {path}: the model holds a non-finite "
                           f"value ({exc})") from exc
    text = (
        f'{{"format_version": {FORMAT_VERSION}, "kind": "{kind}", '
        f'"checksum": "{_sha256(payload)}", "payload": {payload}}}'
    )
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ModelIOError(f"cannot write {path}: {exc}") from exc


def _signed_payload(text: str) -> tuple[str, object] | None:
    """``(kind, payload)`` of a file in ``save_model``'s layout whose payload
    bytes hash to its checksum, parsed from exactly those bytes; else None.

    A record with a second "payload" key fails the hash, because the hashed
    span runs to the closing brace, so it never decodes a copy it did not hash.
    """
    head = _SIGNED_HEAD.match(text)
    if head is None or not text.endswith("}"):
        return None
    body = text[head.end():-1]
    if _sha256(body) != head["checksum"]:
        return None
    try:
        return head["kind"], json.loads(body)
    except json.JSONDecodeError:
        return None


def _verified_payload(text: str, path) -> tuple[object, object]:
    """``(kind, payload)`` of a whole record whose canonical payload re-encoding
    hashes to its checksum."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptModel(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(record, dict) or "format_version" not in record:
        raise CorruptModel(f"{path}: not a model record")
    if record["format_version"] not in (1, FORMAT_VERSION):
        raise SchemaVersionMismatch(
            f"{path}: format_version {record['format_version']}, "
            f"supported 1 and {FORMAT_VERSION}"
        )
    payload = record.get("payload")
    if payload is None or record.get("checksum") != _checksum(payload):
        raise CorruptModel(f"{path}: checksum mismatch")
    return record.get("kind"), payload


def load_model(path: str | Path) -> TsvrModel | HfTsvrModel:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ModelIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptModel(f"{path}: not UTF-8 text ({exc})") from exc
    kind, payload = _signed_payload(text) or _verified_payload(text, path)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise CorruptModel(f"{path}: unknown model kind {kind!r}")
    # A signed payload can still miss a field or hold one of the wrong type.
    try:
        return _reader(_KINDS[kind])(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptModel(
            f"{path}: invalid {kind} record ({type(exc).__name__}: {exc})"
        ) from exc
