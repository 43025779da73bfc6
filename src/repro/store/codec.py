"""Canonical serialisation of keys, rows, and schemas.

Everything a :class:`~repro.store.base.MatchStore` persists is reduced to
deterministic JSON text: the same key or row always encodes to the same
byte string, so encoded keys are usable as primary keys in SQLite and a
save → load round trip is *bit-identical* (the property the store test
suite asserts).

The one non-JSON value in the data model is the
:data:`~repro.relational.nulls.NULL` marker — Section 6.2's "NULL is not
equal to NULL" sentinel — which must survive a round trip as the same
singleton, not as ``None`` (user data may legitimately contain ``None``).
NULL and the few structured values are escaped through one-key marker
objects: ``{"~": "null"}`` for NULL, ``{"~": "tuple", "items": [...]}``
for tuples, and ``{"~": "escape", "value": ...}`` shields any genuine
mapping that itself carries a ``"~"`` key.
"""

from __future__ import annotations

import json
from typing import Any, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.relational.attribute import Attribute, Domain
from repro.relational.nulls import NULL, is_null
from repro.relational.row import Row
from repro.relational.schema import Schema
from repro.store.errors import StoreCodecError

__all__ = [
    "encode_value",
    "decode_value",
    "encode_key",
    "decode_key",
    "encode_row",
    "decode_row",
    "encode_extended_key",
    "EncodedRow",
    "encode_source_row",
    "encode_schema",
    "decode_schema",
]

KeyValues = Tuple[Tuple[str, Any], ...]

_MARKER = "~"
_DTYPES = {"str": str, "int": int, "float": float, "bool": bool}

# Built once: ``json.dumps`` with non-default options constructs a new
# encoder on every call, and keys and rows are encoded per stored tuple.
_KEY_ENCODER = json.JSONEncoder(separators=(",", ":"))
_ROW_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def encode_value(value: Any) -> Any:
    """One domain value as a JSON-safe object (NULL-aware)."""
    if is_null(value):
        return {_MARKER: "null"}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, tuple):
        return {_MARKER: "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, Mapping):
        return {
            _MARKER: "escape",
            "value": {str(k): encode_value(v) for k, v in value.items()},
        }
    raise StoreCodecError(
        f"cannot serialise value of type {type(value).__name__}: {value!r}"
    )


def decode_value(encoded: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(encoded, dict):
        marker = encoded.get(_MARKER)
        if marker == "null":
            return NULL
        if marker == "tuple":
            return tuple(decode_value(v) for v in encoded["items"])
        if marker == "escape":
            return {k: decode_value(v) for k, v in encoded["value"].items()}
        raise StoreCodecError(f"unknown value marker in {encoded!r}")
    return encoded


def encode_key(key: KeyValues) -> str:
    """A ``KeyValues`` tuple as canonical JSON text.

    ``KeyValues`` is already sorted by attribute (see
    :func:`repro.core.matching_table.key_values`), so the encoding is
    deterministic without re-sorting — identical keys encode identically,
    making the text usable as a SQLite primary-key column.
    """
    try:
        pairs: List[List[Any]] = [
            [attr, encode_value(value)] for attr, value in key
        ]
    except (TypeError, ValueError) as exc:
        raise StoreCodecError(f"malformed key {key!r}: {exc}") from exc
    return _KEY_ENCODER.encode(pairs)


def decode_key(text: str) -> KeyValues:
    """Inverse of :func:`encode_key`."""
    try:
        pairs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StoreCodecError(f"malformed key text {text!r}: {exc}") from exc
    return tuple((attr, decode_value(value)) for attr, value in pairs)


def encode_row(row: Mapping[str, Any]) -> str:
    """A row as canonical JSON text (attributes sorted, NULL-aware)."""
    return _ROW_ENCODER.encode(
        {name: encode_value(value) for name, value in row.items()}
    )


def decode_row(text: str) -> Row:
    """Inverse of :func:`encode_row`, always producing a :class:`Row`."""
    try:
        values = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StoreCodecError(f"malformed row text {text!r}: {exc}") from exc
    return Row({name: decode_value(value) for name, value in values.items()})


def encode_extended_key(
    attributes: Sequence[str], extended: Mapping[str, Any]
) -> Optional[str]:
    """Canonical text of *extended*'s complete values on *attributes*.

    The pairs are sorted by attribute, so the text is the
    :func:`encode_key` of the extended key.  ``None`` when an attribute
    is missing or NULL: an incomplete tuple has no extended key to be
    found by.
    """
    pairs = []
    for attribute in sorted(attributes):
        if attribute not in extended:
            return None
        value = extended[attribute]
        if is_null(value):
            return None
        pairs.append((attribute, value))
    return encode_key(tuple(pairs))


class EncodedRow(NamedTuple):
    """One source tuple together with the texts a store persists for it."""

    key: KeyValues
    raw: Row
    extended: Row
    key_text: str
    raw_text: str
    extended_text: str
    ext_key: Optional[str]


def encode_source_row(
    key: KeyValues, raw: Row, extended: Row, attributes: Sequence[str]
) -> EncodedRow:
    """Encode one source tuple once, for a bulk ``put_rows``.

    *key* holds values taken from *extended*.  Where the key spans
    exactly the extended-key *attributes*, its text is the extended-key
    text too; where extension left the tuple as it was (same attributes
    in the same order, each bound to the very same object), the
    extended text is the raw text.  Both tests are by identity, never
    by equality: ``1``, ``1.0`` and ``True`` compare equal but encode
    differently.
    """
    key_text = encode_key(key)
    if tuple(attribute for attribute, _ in key) == tuple(sorted(attributes)):
        ext_key = None if any(is_null(value) for _, value in key) else key_text
    else:
        ext_key = encode_extended_key(attributes, extended)
    raw_text = encode_row(raw)
    unchanged = tuple(raw) == tuple(extended) and all(
        new is old for new, old in zip(extended.values(), raw.values())
    )
    return EncodedRow(
        key,
        raw,
        extended,
        key_text,
        raw_text,
        raw_text if unchanged else encode_row(extended),
        ext_key,
    )


def encode_schema(schema: Schema) -> str:
    """A schema (names, dtypes, candidate keys) as JSON text.

    Enumerated domains are not preserved — checkpoints store the dtype
    only, which is what row validation on resume needs.
    """
    return json.dumps(
        {
            "names": list(schema.names),
            "dtypes": [attr.domain.dtype.__name__ for attr in schema.attributes],
            "keys": [sorted(key) for key in schema.keys],
        },
        separators=(",", ":"),
    )


def decode_schema(text: str) -> Schema:
    """Inverse of :func:`encode_schema`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StoreCodecError(f"malformed schema text {text!r}: {exc}") from exc
    try:
        attributes = [
            Attribute(name, Domain(_DTYPES[dtype]))
            for name, dtype in zip(data["names"], data["dtypes"])
        ]
        return Schema(attributes, data["keys"])
    except (KeyError, TypeError) as exc:
        raise StoreCodecError(f"malformed schema record {data!r}: {exc}") from exc
