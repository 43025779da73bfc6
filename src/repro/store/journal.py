"""The derivation journal: an append-only log of rule firings.

Every entry in the matching or negative matching table exists because a
rule fired — the extended-key identity rule, a DBA identity or
distinctness rule, a Proposition-1 dual of an ILFD — or because a
knowledgeable user asserted it.  The journal records each of those
events (plus the ILFD derivations that *enabled* them, and the deletes
that retracted them) with the rule id, the pair keys, and a timestamp,
so any persisted conclusion can be explained after the fact without the
sources, and the whole store can be audited offline: replaying the
journal must reproduce the stored tables exactly
(:func:`replay_journal`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Mapping, Optional, Set, Tuple

from repro.store.codec import KeyValues, encode_key

__all__ = [
    "KIND_IDENTITY",
    "KIND_DISTINCTNESS",
    "KIND_ILFD",
    "KIND_ASSERT",
    "KIND_REMOVE",
    "KIND_CHECKPOINT",
    "KIND_ENTITY",
    "JOURNAL_KINDS",
    "JournalEntry",
    "entity_entry",
    "entry_checksum",
    "journal_row",
    "replay_journal",
    "explain_pair",
    "explain_entity",
]

Pair = Tuple[KeyValues, KeyValues]

KIND_IDENTITY = "identity"
"""An identity rule fired: the pair entered the matching table."""

KIND_DISTINCTNESS = "distinctness"
"""A distinctness rule fired: the pair entered the negative table."""

KIND_ILFD = "ilfd"
"""An ILFD derived an extended-key value for one tuple (one-sided)."""

KIND_ASSERT = "assert"
"""A user-asserted match entered the matching table directly."""

KIND_REMOVE = "remove"
"""A source delete retracted the pair from the matching table."""

KIND_CHECKPOINT = "checkpoint"
"""A snapshot marker: the state up to this entry was checkpointed."""

KIND_ENTITY = "entity_resolution"
"""An entity-resolution decision: a canonical entity was built, one of
its golden-record attributes was decided by a survivorship rule, or a
generalized-uniqueness violation was observed.  Entity entries carry no
pair keys — the entity id and decision detail live in the payload — so
they are invisible to :func:`replay_journal` and never perturb the
matching-table audit."""

JOURNAL_KINDS = (
    KIND_IDENTITY,
    KIND_DISTINCTNESS,
    KIND_ILFD,
    KIND_ASSERT,
    KIND_REMOVE,
    KIND_CHECKPOINT,
    KIND_ENTITY,
)


@dataclass(frozen=True)
class JournalEntry:
    """One rule firing (or table mutation) in the derivation journal.

    Attributes
    ----------
    seq:
        Monotone sequence number assigned by the store on append.
    timestamp:
        Wall-clock seconds since the epoch at append time.
    kind:
        One of :data:`JOURNAL_KINDS`.
    rule:
        The id of the rule that fired — an identity/distinctness rule
        name, an ILFD name, or "" for events with no rule (checkpoints).
    r_key / s_key:
        The pair's identifying key values.  ILFD entries are one-sided:
        only the derived tuple's side is set.
    payload:
        Kind-specific extras, e.g. ``{"derived": {...}}`` for ILFD
        firings or ``{"reason": ...}`` for removes.
    """

    seq: int
    timestamp: float
    kind: str
    rule: str = ""
    r_key: Optional[KeyValues] = None
    s_key: Optional[KeyValues] = None
    payload: Mapping[str, Any] = field(default_factory=dict)

    @property
    def pair(self) -> Optional[Pair]:
        """The (R key, S key) pair, when both sides are present."""
        if self.r_key is not None and self.s_key is not None:
            return (self.r_key, self.s_key)
        return None

    def concerns(self, r_key: Optional[KeyValues], s_key: Optional[KeyValues]) -> bool:
        """True iff the entry touches the given key(s).

        Two-sided entries must agree on every given side; one-sided ILFD
        entries match when their single key equals either given key.
        """
        if self.kind == KIND_ILFD:
            mine = self.r_key if self.r_key is not None else self.s_key
            return mine is not None and mine in (r_key, s_key)
        if r_key is not None and self.r_key != r_key:
            return False
        if s_key is not None and self.s_key != s_key:
            return False
        return r_key is not None or s_key is not None


def entity_entry(
    entity_id: str, *, rule: str, payload: Mapping[str, Any], timestamp: float
) -> JournalEntry:
    """One :data:`KIND_ENTITY` entry: *payload* tagged with *entity_id*."""
    event = {"entity_id": entity_id}
    event.update(payload)
    return JournalEntry(
        seq=0, timestamp=timestamp, kind=KIND_ENTITY, rule=rule, payload=event
    )


# One encoder walk yields both texts a journal row needs.  With
# ``ensure_ascii`` every control character inside a string is escaped,
# so the placeholder separators \x01 (between items) and \x00 (after
# keys) occur only between tokens, and swapping them gives the stored
# payload's ", "/": " and the checksum material's ","/":" exactly.
_MARKED = json.JSONEncoder(sort_keys=True, separators=("\x01", "\x00"))

JournalRow = Tuple[float, str, str, Optional[str], Optional[str], str, str]


def journal_row(entry: JournalEntry) -> JournalRow:
    """*entry* as its stored columns, each part encoded once.

    ``(ts, kind, rule, r_key text, s_key text, payload text, checksum)``
    — the one encoder behind every journal write of the SQLite store,
    single or bulk, and behind :func:`entry_checksum`.  The payload is
    stored with ``sort_keys`` and the default separators; the checksum
    hashes the compact form of ``[repr(ts), kind, rule, r_key text,
    s_key text, payload]``.
    """
    r_text = encode_key(entry.r_key) if entry.r_key is not None else None
    s_text = encode_key(entry.s_key) if entry.s_key is not None else None
    marked = _MARKED.encode(
        [repr(entry.timestamp), entry.kind, entry.rule, r_text, s_text,
         dict(entry.payload)]
    )
    # The first five items are strings or null: none holds a separator.
    payload = marked[1:-1].split("\x01", 5)[5]
    material = marked.replace("\x01", ",").replace("\x00", ":")
    return (
        entry.timestamp,
        entry.kind,
        entry.rule,
        r_text,
        s_text,
        payload.replace("\x01", ", ").replace("\x00", ": "),
        hashlib.sha256(material.encode("utf-8")).hexdigest()[:32],
    )


def entry_checksum(entry: JournalEntry) -> str:
    """Content checksum of one journal entry (hex SHA-256, truncated).

    Covers everything the entry *says* — timestamp, kind, rule, the
    canonical key encodings, and the sorted payload — but **not**
    ``seq``: sequence numbers are reassigned when entries are copied
    between stores (checkpointing, salvage), and the checksum must keep
    certifying the entry's content across that.  Stored alongside each
    entry by the backends and verified by
    :meth:`~repro.store.base.MatchStore.verify_journal`, it turns silent
    bit-rot in a persisted journal into a detected integrity failure.
    """
    return journal_row(entry)[6]


def replay_journal(
    entries: Iterable[JournalEntry],
) -> Tuple[Set[Pair], Set[Pair]]:
    """Reconstruct (matching pairs, negative pairs) from the journal alone.

    Identity and assert entries add to the matching set, removes retract
    from it, distinctness entries add to the negative set; ILFD and
    checkpoint entries carry no table mutation.  The result is what the
    store's tables *must* equal for the journal to be a faithful account
    (enforced by :meth:`~repro.store.base.MatchStore.verify_journal`).
    """
    matches: Set[Pair] = set()
    negatives: Set[Pair] = set()
    for entry in entries:
        pair = entry.pair
        if pair is None:
            continue
        if entry.kind in (KIND_IDENTITY, KIND_ASSERT):
            matches.add(pair)
        elif entry.kind == KIND_REMOVE:
            matches.discard(pair)
        elif entry.kind == KIND_DISTINCTNESS:
            negatives.add(pair)
    return matches, negatives


def _format_key(key: Optional[KeyValues]) -> str:
    if key is None:
        return "?"
    return "[" + ", ".join(f"{attr}={value!r}" for attr, value in key) + "]"


def explain_pair(
    entries: Iterable[JournalEntry],
    r_key: Optional[KeyValues] = None,
    s_key: Optional[KeyValues] = None,
) -> str:
    """Reconstruct the rule-firing chain for one pair, journal-only.

    Renders, in journal order, every ILFD derivation that touched either
    tuple and every table mutation recorded for the pair, ending with the
    pair's current verdict — the provenance story behind one line of
    MT_RS or NMT_RS, recoverable long after the identification run.
    """
    relevant: List[JournalEntry] = [
        entry for entry in entries if entry.concerns(r_key, s_key)
    ]
    header = f"pair R{_format_key(r_key)} / S{_format_key(s_key)}"
    if not relevant:
        return f"{header}\n  (no journal entries; the pair was never touched)"
    lines = [header]
    verdict = "undetermined"
    for entry in relevant:
        stamp = f"#{entry.seq}"
        if entry.kind == KIND_ILFD:
            side = "R" if entry.r_key is not None else "S"
            derived = entry.payload.get("derived", {})
            values = ", ".join(f"{a}={v!r}" for a, v in sorted(derived.items()))
            lines.append(
                f"  {stamp} ilfd {entry.rule or '(unnamed)'} derived "
                f"{values or 'nothing'} for {side}"
                f"{_format_key(entry.r_key if side == 'R' else entry.s_key)}"
            )
        elif entry.kind in (KIND_IDENTITY, KIND_ASSERT):
            how = (
                f"identity rule {entry.rule}"
                if entry.kind == KIND_IDENTITY
                else "user assertion"
            )
            lines.append(f"  {stamp} MATCH recorded by {how}")
            verdict = "MATCH"
        elif entry.kind == KIND_DISTINCTNESS:
            lines.append(
                f"  {stamp} NON-MATCH recorded by distinctness rule {entry.rule}"
            )
            verdict = "NON-MATCH"
        elif entry.kind == KIND_REMOVE:
            reason = entry.payload.get("reason", "source delete")
            lines.append(f"  {stamp} match removed ({reason})")
            verdict = "undetermined (retracted)"
        elif entry.kind == KIND_CHECKPOINT:
            lines.append(f"  {stamp} checkpoint boundary")
    lines.append(f"  verdict: {verdict}")
    return "\n".join(lines)


def explain_entity(entries: Iterable[JournalEntry], entity_id: str) -> str:
    """Reconstruct the resolution log for one canonical entity.

    Renders, in journal order, every :data:`KIND_ENTITY` entry whose
    payload names *entity_id*: the cluster's formation, each
    survivorship decision with the rule that made it, and any
    generalized-uniqueness violations observed while building it — the
    golden record's provenance story, recoverable from the store alone.
    """
    relevant = [
        entry
        for entry in entries
        if entry.kind == KIND_ENTITY and entry.payload.get("entity_id") == entity_id
    ]
    header = f"entity {entity_id}"
    if not relevant:
        return f"{header}\n  (no resolution-log entries; the entity was never built)"
    lines = [header]
    for entry in relevant:
        stamp = f"#{entry.seq}"
        event = entry.payload.get("event", "")
        if event == "golden":
            members = entry.payload.get("members", [])
            lines.append(
                f"  {stamp} golden record built from {len(members)} member(s): "
                + ", ".join(str(member) for member in members)
            )
        elif event == "decision":
            attribute = entry.payload.get("attribute", "?")
            value = entry.payload.get("value")
            source = entry.payload.get("source", "?")
            contested = " (contested)" if entry.payload.get("contested") else ""
            lines.append(
                f"  {stamp} {attribute}={value!r} survived from {source} "
                f"by rule {entry.rule or '(unnamed)'}{contested}"
            )
        elif event == "violation":
            source = entry.payload.get("source", "?")
            count = entry.payload.get("count", "?")
            lines.append(
                f"  {stamp} uniqueness VIOLATION: {count} tuples from "
                f"{source} share the entity's extended key"
            )
        else:
            lines.append(f"  {stamp} {event or 'entity event'}")
    return "\n".join(lines)
