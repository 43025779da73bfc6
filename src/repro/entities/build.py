"""Build a persisted entity store from an identity graph.

One transactional pass turns a resolved :class:`IdentityGraph` into a
durable artifact the serving layer can answer ``/resolve`` from with no
sources loaded:

- the source-side vocabulary (``MatchStore.set_sides``) and every
  extended tuple, per source, indexed by extended key,
- one :class:`~repro.store.entity.EntityRecord` per cluster (golden
  record, member identities, deterministic canonical id),
- the ``entity_resolution_log``: a journaled ``golden`` event per
  entity, a ``decision`` event per survivorship pick, and a
  ``violation`` event per generalized-uniqueness breach,
- metadata enough to audit the build offline — source names, schemas
  and key attributes per source, survivorship chain, and a canonical
  fingerprint a reload can be checked against
  (:func:`verify_entity_store`).

Because canonical ids hash member identities and the journal is
append-only, rebuilding from the same sources produces bit-identical
entities — the stability the conformance cell and the store round-trip
tests pin down.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.matching_table import key_values
from repro.entities.errors import EntityBuildError
from repro.entities.golden import build_golden
from repro.entities.graph import GraphSoundnessReport, IdentityGraph
from repro.entities.survivorship import SurvivorshipPolicy
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.resilience.faults import (
    NO_OP_INJECTOR,
    SITE_ENTITY_PERSIST,
    FaultInjector,
)
from repro.store.base import MatchStore
from repro.store.codec import (
    EncodedRow,
    encode_key,
    encode_row,
    encode_schema,
    encode_source_row,
    encode_value,
)
from repro.store.entity import (
    ENTITY_ID_PREFIX,
    EncodedEntity,
    EntityRecord,
    canonical_entity_id,
    encode_members,
    golden_event,
)
from repro.store.journal import JournalEntry, entity_entry

__all__ = [
    "META_ENTITY_SOURCES",
    "META_ENTITY_PREFIX",
    "META_ENTITY_SURVIVORSHIP",
    "META_ENTITY_FINGERPRINT",
    "META_ENTITY_PROGRESS",
    "DECISION_LOGGING",
    "BuildReport",
    "build_entity_store",
    "load_entities",
    "entities_fingerprint",
    "verify_entity_store",
]

META_ENTITY_SOURCES = "entity_sources"
META_ENTITY_PREFIX = "entity_prefix"
META_ENTITY_SURVIVORSHIP = "entity_survivorship"
META_ENTITY_FINGERPRINT = "entity_fingerprint"
META_ENTITY_PROGRESS = "entity_build_progress"
META_ENTITY_SCHEMA = "entity_schema:"  # + source name
META_ENTITY_KEY = "entity_key_attributes:"  # + source name

DECISION_LOGGING = ("all", "contested", "none")
"""How much of the survivorship trail lands in the journal."""


@dataclass(frozen=True)
class BuildReport:
    """What one entity build produced."""

    sources: Tuple[str, ...]
    entities: int
    members: int
    violations: int
    contested: int
    decisions_logged: int
    fingerprint: str
    survivorship: Tuple[str, ...]

    @property
    def is_sound(self) -> bool:
        """True iff the generalized uniqueness constraint held."""
        return self.violations == 0


def entities_fingerprint(records: Sequence[EntityRecord]) -> str:
    """Canonical SHA-256 over entity records, order-independent.

    Hashes the sorted ``(id, ext key, golden row, members)`` quadruples,
    so a build and its reload fingerprint equal iff the persisted
    entities are bit-identical.
    """
    return _fingerprint(
        [
            record.entity_id,
            record.ext_key,
            encode_row(record.golden),
            [[source, encode_key(key)] for source, key in record.members],
        ]
        for record in records
    )


def _fingerprint(quadruples: Iterable[list]) -> str:
    material = json.dumps(sorted(quadruples), separators=(",", ":"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _ext_key_text(attributes: Sequence[str], values: Tuple) -> str:
    """Canonical text of one cluster key (same form the store indexes)."""
    return encode_key(tuple(sorted(zip(attributes, values), key=lambda p: p[0])))


def build_entity_store(
    graph: IdentityGraph,
    store: MatchStore,
    *,
    policy: Optional[SurvivorshipPolicy] = None,
    prefix: str = ENTITY_ID_PREFIX,
    log_decisions: str = "all",
    tracer: Optional[Tracer] = None,
    timestamp: Optional[float] = None,
    batch_size: Optional[int] = None,
    fault_injector: Optional[FaultInjector] = None,
    resume: bool = True,
) -> BuildReport:
    """Resolve *graph* and persist everything into *store*, atomically.

    *log_decisions* bounds the resolution log: ``"all"`` journals every
    survivorship pick, ``"contested"`` only the ones sources disagreed
    on, ``"none"`` only the per-entity ``golden`` events.  Violations
    are always journaled.

    With *batch_size* the persist becomes **crash-safe and resumable**:
    entities land in batches of that many, each batch one transaction
    committed atomically with a progress record
    (:data:`META_ENTITY_PROGRESS`), so a build killed mid-way — even
    SIGKILL mid-transaction — leaves either a fully-committed prefix or
    nothing of the torn batch.  Re-running the same build against the
    same store (*resume* = True, the default) verifies the interrupted
    build targeted the same result (the expected fingerprint is
    recorded up front, every golden id is content-addressed), skips the
    committed prefix, and finishes to the **bit-identical**
    ``entities_fingerprint`` a fault-free run seals.  *fault_injector*
    fires the ``entities.persist`` site before every batch commit — the
    chaos harness's hook.  Without *batch_size* the build is the
    original single transaction.

    Every persisted text is encoded once, before anything is written,
    and both modes write it through the store's bulk methods.  A
    member's key text is found by the extended row it came from, never
    by value: ``1``, ``1.0`` and ``True`` are equal keys with three texts.
    """
    if log_decisions not in DECISION_LOGGING:
        raise EntityBuildError(
            f"unknown decision-logging mode {log_decisions!r}; "
            f"expected one of {DECISION_LOGGING}"
        )
    if batch_size is not None and batch_size < 1:
        raise EntityBuildError(f"batch_size must be >= 1, got {batch_size}")
    policy = policy if policy is not None else SurvivorshipPolicy()
    tracer = tracer if tracer is not None else NO_OP_TRACER
    injector = fault_injector if fault_injector is not None else NO_OP_INJECTOR
    now = timestamp if timestamp is not None else time.time()

    names = graph.source_names
    extended = graph.extended()
    key_attrs = tuple(graph.extended_key.attributes)
    attribute_order: List[str] = []
    for relation in extended.values():
        for attr in relation.schema.names:
            if attr not in attribute_order:
                attribute_order.append(attr)
    source_keys: Dict[str, Tuple[str, ...]] = {
        name: graph.source_key_attributes(name) for name in names
    }

    def logs_decision(decision) -> bool:
        if log_decisions == "none" or decision.source is None:
            return False
        return log_decisions == "all" or decision.contested

    with tracer.span("entities.build", sources=len(names)):
        clusters = graph.clusters()
        report = graph.verify()

        rows: Dict[str, List[EncodedRow]] = {}
        # id(extended row) → its key text; `extended` keeps every row
        # alive, so no id is reused while this map exists.
        key_text: Dict[int, str] = {}
        for name in names:
            rows[name] = [
                encode_source_row(
                    key_values(ext_row, source_keys[name]), raw, ext_row, key_attrs
                )
                for raw, ext_row in zip(graph.sources[name], extended[name])
            ]
            for row in rows[name]:
                key_text[id(row.extended)] = row.key_text

        # The whole result is computable before anything is persisted —
        # golden ids are content-addressed and the journal is derived —
        # which is what makes batched resume trivially bit-identical:
        # the expected fingerprint is known up front and every batch is
        # a pure slice of these lists.
        entities: List[EncodedEntity] = []
        logs: List[List[JournalEntry]] = []
        quadruples = []
        contested = logged = 0
        for cluster in clusters:
            texts = [key_text[id(row)] for _, row in cluster.members]
            golden = build_golden(
                cluster,
                attribute_order=attribute_order,
                source_key_attributes=source_keys,
                policy=policy,
                prefix=prefix,
                key_texts=texts,
            )
            record = golden.to_record(_ext_key_text(key_attrs, golden.key))
            golden_text = encode_row(record.golden)
            entities.append(
                EncodedEntity(
                    record,
                    golden_text,
                    encode_members(record.members, key_texts=texts),
                )
            )
            quadruples.append(
                [
                    record.entity_id,
                    record.ext_key,
                    golden_text,
                    [[source, text] for source, text in zip(record.sources, texts)],
                ]
            )
            event = golden_event(record, key_texts=texts)
            event["key"] = record.ext_key
            log = [
                entity_entry(
                    record.entity_id,
                    rule=",".join(policy.rule_names),
                    payload=event,
                    timestamp=now,
                )
            ]
            for decision in golden.decisions:
                contested += decision.contested
                if not logs_decision(decision):
                    continue
                log.append(
                    entity_entry(
                        record.entity_id,
                        rule=decision.rule,
                        payload={
                            "event": "decision",
                            "attribute": decision.attribute,
                            "value": encode_value(decision.value),
                            "source": decision.source,
                            "contested": decision.contested,
                            "considered": [
                                [source, encode_value(value)]
                                for source, value in decision.considered
                            ],
                        },
                        timestamp=now,
                    )
                )
            logged += len(log) - 1
            logs.append(log)
        fingerprint = _fingerprint(quadruples)
        violations = _violation_log(report, entities, key_attrs, prefix, now)

        def write_setup() -> None:
            store.set_sides(names)
            store.set_extended_key_attributes(key_attrs)
            store.set_meta(META_ENTITY_SOURCES, json.dumps(list(names)))
            store.set_meta(META_ENTITY_PREFIX, prefix)
            store.set_meta(
                META_ENTITY_SURVIVORSHIP, json.dumps(list(policy.rule_names))
            )
            for name in names:
                store.set_meta(
                    META_ENTITY_SCHEMA + name,
                    encode_schema(extended[name].schema),
                )
                store.set_meta(
                    META_ENTITY_KEY + name, json.dumps(list(source_keys[name]))
                )
                store.put_rows(name, rows[name])

        def write_slice(lo: int, hi: int) -> None:
            store.record_entities(
                entities[lo:hi], [entry for log in logs[lo:hi] for entry in log]
            )

        def write_seal() -> None:
            store.record_entities((), violations)
            store.set_meta(META_ENTITY_FINGERPRINT, fingerprint)

        if batch_size is None:
            injector.fire(SITE_ENTITY_PERSIST)
            with store.transaction():
                write_setup()
                write_slice(0, len(entities))
                write_seal()
        else:
            _persist_batched(
                store,
                len(entities),
                fingerprint=fingerprint,
                batch_size=batch_size,
                resume=resume,
                write_setup=write_setup,
                write_slice=write_slice,
                write_seal=write_seal,
                injector=injector,
                tracer=tracer,
            )

    if tracer.enabled:
        tracer.metrics.inc("entities.golden_built", len(entities))
        tracer.metrics.inc("entities.decisions_logged", logged)
        if contested:
            tracer.metrics.inc("entities.contested", contested)

    return BuildReport(
        sources=names,
        entities=len(entities),
        members=sum(len(entity.record.members) for entity in entities),
        violations=len(report.violations),
        contested=contested,
        decisions_logged=logged,
        fingerprint=fingerprint,
        survivorship=policy.rule_names,
    )


def _violation_log(
    report: GraphSoundnessReport,
    entities: Sequence[EncodedEntity],
    key_attrs: Sequence[str],
    prefix: str,
    now: float,
) -> List[JournalEntry]:
    """One ``violation`` event per generalized-uniqueness breach."""
    ext_text_to_id = {entity.record.ext_key: entity.record.entity_id for entity in entities}
    log = []
    for violation in report.violations:
        ext_text = _ext_key_text(key_attrs, violation.key)
        entity_id = ext_text_to_id.get(
            ext_text,
            # No cluster spans ≥2 sources here: mint a stable id from
            # the offending members so the log still has a durable
            # handle for the breach.
            canonical_entity_id(
                [(violation.source, key) for key in violation.members],
                prefix=prefix,
            ),
        )
        log.append(
            entity_entry(
                entity_id,
                rule="uniqueness",
                payload={
                    "event": "violation",
                    "source": violation.source,
                    "count": len(violation.members),
                    "key": ext_text,
                    "members": [encode_key(key) for key in violation.members],
                },
                timestamp=now,
            )
        )
    return log


def _persist_batched(
    store: MatchStore,
    total: int,
    *,
    fingerprint: str,
    batch_size: int,
    resume: bool,
    write_setup: Callable[[], None],
    write_slice: Callable[[int, int], None],
    write_seal: Callable[[], None],
    injector: FaultInjector,
    tracer: Tracer,
) -> None:
    """Crash-safe batched persist of *total* entities.

    Invariant: every transaction that lands a batch of entities also
    lands the progress record saying so, so after *any* interruption the
    store holds exactly the entities of batches ``[0, next)`` and
    nothing of a torn one — the property that makes resume reach the
    bit-identical fingerprint (``tests/entities/test_resume.py``).
    """
    start = 0
    progress_text = store.get_meta(META_ENTITY_PROGRESS, "") or ""
    if progress_text:
        state = json.loads(progress_text)
        if not resume:
            raise EntityBuildError(
                "an interrupted entity build is in progress "
                f"({state.get('next', 0)}/{state.get('total', '?')} batches "
                "committed); pass resume=True to finish it"
            )
        if state.get("fingerprint") != fingerprint:
            raise EntityBuildError(
                "the interrupted build in this store targeted a different "
                f"result (sealed-ahead fingerprint "
                f"{str(state.get('fingerprint'))[:16]}…, this build "
                f"{fingerprint[:16]}…); rebuild into a fresh store"
            )
        start = int(state.get("next", 0))
        if tracer.enabled:
            tracer.metrics.inc("entities.build_resumes")

    def progress(next_index: int) -> str:
        return json.dumps(
            {"fingerprint": fingerprint, "next": next_index, "total": total},
            separators=(",", ":"),
        )

    if not progress_text:
        injector.fire(SITE_ENTITY_PERSIST)
        with store.transaction():
            write_setup()
            # Unsealed while building: verify refuses the store until
            # the final batch reseals it.
            store.set_meta(META_ENTITY_FINGERPRINT, "")
            store.set_meta(META_ENTITY_PROGRESS, progress(0))

    for lo in range(start, total, batch_size):
        hi = min(lo + batch_size, total)
        injector.fire(SITE_ENTITY_PERSIST)
        with store.transaction():
            write_slice(lo, hi)
            store.set_meta(META_ENTITY_PROGRESS, progress(hi))

    injector.fire(SITE_ENTITY_PERSIST)
    with store.transaction():
        write_seal()
        store.set_meta(META_ENTITY_PROGRESS, "")


def load_entities(store: MatchStore) -> List[EntityRecord]:
    """All persisted canonical entities, in entity-id order."""
    return list(store.entity_items())


def verify_entity_store(store: MatchStore) -> Tuple[int, str]:
    """Audit a persisted entity build: recompute and check its fingerprint.

    Returns ``(entity_count, fingerprint)`` on success; raises
    :class:`EntityBuildError` when the store carries no build or the
    stored entities no longer hash to the fingerprint sealed at build
    time — the entity-layer analogue of ``verify_journal``.
    """
    progress = store.get_meta(META_ENTITY_PROGRESS, "") or ""
    if progress:
        state = json.loads(progress)
        raise EntityBuildError(
            "the store carries an interrupted entity build "
            f"({state.get('next', 0)}/{state.get('total', '?')} entities "
            "committed); re-run the build to finish it before verifying"
        )
    sealed = store.get_meta(META_ENTITY_FINGERPRINT)
    if not sealed:
        raise EntityBuildError(
            "the store carries no entity build (no sealed fingerprint)"
        )
    records = load_entities(store)
    actual = entities_fingerprint(records)
    if actual != sealed:
        raise EntityBuildError(
            "persisted entities do not match the build fingerprint: "
            f"sealed {sealed[:16]}…, recomputed {actual[:16]}…"
        )
    return len(records), actual
