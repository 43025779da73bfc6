"""Persisted canonical entities: the golden-record row of the store.

The identity graph (:mod:`repro.entities`) resolves N sources into
entity clusters and survivorship-merged golden records; this module is
their storage form.  An :class:`EntityRecord` is deliberately small —
an id, the cluster's canonical extended-key text, the golden row, and
the member tuples as ``(source, key)`` pairs — everything the serving
layer needs to answer ``/resolve`` from the persisted graph without the
sources.

Canonical entity ids are **content-derived**: the id is a prefixed
truncated SHA-256 over the sorted member identities, so the same
cluster gets the same id on every build, resume, or replay — ids are
stable references other systems may hold, never autoincrement rowids.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.relational.row import Row
from repro.store.codec import KeyValues, decode_key, decode_row, encode_key, encode_row
from repro.store.errors import StoreCodecError

__all__ = [
    "ENTITY_ID_PREFIX",
    "EntityRecord",
    "EncodedEntity",
    "canonical_entity_id",
    "encode_members",
    "decode_members",
    "golden_event",
]

ENTITY_ID_PREFIX = "ent-"
"""Default canonical-id prefix (overridable per build)."""

Member = Tuple[str, KeyValues]

_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _member_pairs(
    members: Iterable[Member], key_texts: Optional[Sequence[str]]
) -> List[List[str]]:
    """``[source, key text]`` per member, reusing *key_texts* when given."""
    if key_texts is None:
        return [[source, encode_key(key)] for source, key in members]
    return [[source, text] for (source, _), text in zip(members, key_texts)]


def canonical_entity_id(
    members: Iterable[Member],
    *,
    prefix: str = ENTITY_ID_PREFIX,
    key_texts: Optional[Sequence[str]] = None,
) -> str:
    """Deterministic id for the cluster with these members.

    Hashes the **sorted** ``(source, canonical key text)`` pairs, so the
    id is independent of member order, run order, and resume history —
    two builds over the same sources always mint the same id for the
    same real-world entity.  *key_texts*, aligned with *members*, are
    their :func:`encode_key` texts when the caller already has them.
    """
    material = _COMPACT.encode(sorted(_member_pairs(members, key_texts)))
    digest = hashlib.sha256(material.encode("utf-8")).hexdigest()
    return f"{prefix}{digest[:16]}"


def encode_members(
    members: Iterable[Member], *, key_texts: Optional[Sequence[str]] = None
) -> str:
    """Members as canonical JSON text (order preserved).

    *key_texts* as for :func:`canonical_entity_id`.
    """
    return _COMPACT.encode(_member_pairs(members, key_texts))


def decode_members(text: str) -> Tuple[Member, ...]:
    """Inverse of :func:`encode_members`."""
    try:
        pairs = json.loads(text)
        return tuple((source, decode_key(key)) for source, key in pairs)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise StoreCodecError(f"malformed members text {text!r}: {exc}") from exc


@dataclass(frozen=True)
class EntityRecord:
    """One canonical entity as persisted by the store.

    Attributes
    ----------
    entity_id:
        Content-derived id (:func:`canonical_entity_id`).
    ext_key:
        Canonical text of the cluster's complete extended-key values —
        the lookup key ``/resolve`` probes (``None`` only for records
        built without a known extended key).
    golden:
        The survivorship-merged golden row.
    members:
        ``(source name, key values)`` per member tuple, in the graph's
        deterministic member order (source declaration, then row order).
    """

    entity_id: str
    ext_key: Optional[str]
    golden: Row
    members: Tuple[Member, ...]

    @property
    def sources(self) -> Tuple[str, ...]:
        """Source names contributing a member, in member order."""
        return tuple(source for source, _ in self.members)

    def member_keys(self, source: str) -> List[KeyValues]:
        """This entity's member keys from *source* (possibly empty)."""
        return [key for name, key in self.members if name == source]

    def __len__(self) -> int:
        return len(self.members)


class EncodedEntity(NamedTuple):
    """One canonical entity with the column texts a bulk write persists."""

    record: EntityRecord
    golden_text: str
    members_text: str


def golden_event(
    record: EntityRecord, *, key_texts: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """Payload of the ``golden`` event that heads *record*'s resolution log.

    Names every member as ``source:key text``; *key_texts* as for
    :func:`canonical_entity_id`.
    """
    return {
        "event": "golden",
        "members": [
            f"{source}:{text}"
            for source, text in _member_pairs(record.members, key_texts)
        ],
    }


def encode_entity(record: EntityRecord) -> EncodedEntity:
    """The record with its golden-row and members column texts."""
    return EncodedEntity(
        record, encode_row(record.golden), encode_members(record.members)
    )


def decode_entity(
    entity_id: str, ext_key: Optional[str], golden: str, members: str
) -> EntityRecord:
    """Inverse of :func:`encode_entity`, from the four stored columns."""
    return EntityRecord(
        entity_id=entity_id,
        ext_key=ext_key,
        golden=decode_row(golden),
        members=decode_members(members),
    )
