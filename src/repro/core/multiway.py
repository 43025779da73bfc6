"""Entity identification across more than two databases.

The paper opens with "taking two (or more) independently developed
databases" but develops the machinery for the two-relation case.  The
generalisation is direct *because of how the technique works*: a match
requires **identical, fully non-NULL extended-key values**, and equality
is transitive — so the multiway matching relation is an equivalence, and
entities are simply the groups of tuples (across all sources) sharing a
complete extended-key value.  No pairwise fix-ups or cluster repair are
needed, unlike similarity-based matchers whose pairwise decisions do not
compose.

:class:`MultiwayIdentifier` therefore:

1. extends every source with ILFD-derived extended-key values,
2. groups all tuples by complete extended-key value — groups spanning ≥2
   sources are the matched entity clusters,
3. verifies the generalised uniqueness constraint: within one source, no
   two tuples share a complete extended-key value (each real-world
   entity is modelled at most once per relation, Section 3.1),
4. integrates: one row per entity over the union of the source schemas.

Pairwise projections of the clusters coincide with
:class:`~repro.core.identifier.EntityIdentifier` on each source pair
(property-tested).  This is the one N-way construction
(:class:`~repro.entities.graph.IdentityGraph` delegates here); pairwise
runs closed by union-find are only the conformance oracle.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.errors import CoreError, SoundnessError
from repro.core.extended_key import ExtendedKey
from repro.core.matching_table import KeyValues, key_values
from repro.ilfd.derivation import DerivationEngine, DerivationPolicy
from repro.ilfd.ilfd import ILFD, ILFDSet
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.relational.attribute import Attribute
from repro.relational.nulls import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.row import Row
from repro.relational.schema import Schema

CONFLICT_POLICIES = ("first", "error", "null")
"""Integrate's attribute-collision policies: first non-NULL in source
order wins / raise on any disagreement / blank disagreeing attributes."""


@dataclass(frozen=True)
class EntityCluster:
    """One matched entity: tuples from ≥2 sources sharing K_Ext values."""

    key: Tuple[Any, ...]
    members: Tuple[Tuple[str, Row], ...]

    @property
    def sources(self) -> Tuple[str, ...]:
        """The source names contributing a tuple, in member order."""
        return tuple(source for source, _ in self.members)

    def member_of(self, source: str) -> Optional[Row]:
        """This cluster's tuple from *source*, if any."""
        for name, row in self.members:
            if name == source:
                return row
        return None

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class AttributeConflict:
    """Sources disagree on one attribute of one matched entity.

    ``values`` lists every non-NULL candidate as ``(source, value)`` in
    cluster member order — at least two distinct values, or the
    attribute would not be a conflict.
    """

    key: Tuple[Any, ...]
    attribute: str
    values: Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True)
class MultiwaySoundnessReport:
    """Per-source uniqueness violations."""

    violations: Mapping[str, Tuple[Tuple[Any, ...], ...]]

    @property
    def is_sound(self) -> bool:
        """True iff no source has two tuples sharing complete K_Ext values."""
        return not any(self.violations.values())

    def raise_if_unsound(self) -> None:
        """Raise :class:`SoundnessError` when the check failed."""
        if not self.is_sound:
            raise SoundnessError(
                f"duplicate complete extended-key values within sources: "
                f"{dict(self.violations)!r}"
            )


class MultiwayIdentifier:
    """Identify entities across any number of (unified) sources.

    Parameters
    ----------
    sources:
        Mapping of source name → relation (all in the unified namespace).
        At least two sources are required.
    extended_key / ilfds / policy:
        As for :class:`~repro.core.identifier.EntityIdentifier`.
    tracer:
        Optional :class:`~repro.observability.Tracer`; when given, the
        identifier emits ``multiway.*`` spans and metrics (sources,
        tuples grouped, clusters, uniqueness violations, integrate
        conflicts).
    """

    def __init__(
        self,
        sources: Mapping[str, Relation],
        extended_key: ExtendedKey | Sequence[str],
        *,
        ilfds: ILFDSet | Iterable[ILFD] = (),
        policy: DerivationPolicy = DerivationPolicy.FIRST_MATCH,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if len(sources) < 2:
            raise CoreError("multiway identification needs at least two sources")
        if not isinstance(extended_key, ExtendedKey):
            extended_key = ExtendedKey(list(extended_key))
        self._sources: Dict[str, Relation] = dict(sources)
        self._key = extended_key
        self._ilfds = ilfds if isinstance(ilfds, ILFDSet) else ILFDSet(ilfds)
        derivable = {a for ilfd in self._ilfds for a in ilfd.consequent_attributes}
        extended_key.check_against(*self._sources.values(), derivable=derivable)
        self._tracer = tracer if tracer is not None else NO_OP_TRACER
        self._engine = DerivationEngine(
            self._ilfds, policy=policy, tracer=self._tracer
        )
        self._extended: Optional[Dict[str, Relation]] = None
        self._groups: Optional[Dict[Tuple[Any, ...], List[Tuple[str, Row]]]] = None
        if self._tracer.enabled:
            self._tracer.metrics.inc("multiway.sources", len(self._sources))

    # ------------------------------------------------------------------
    @property
    def extended_key(self) -> ExtendedKey:
        """The extended key in use."""
        return self._key

    @property
    def source_names(self) -> Tuple[str, ...]:
        """The source names, in declaration order."""
        return tuple(self._sources)

    def extended(self) -> Dict[str, Relation]:
        """Every source extended with derived K_Ext values."""
        if self._extended is None:
            targets = list(self._key.attributes)
            with self._tracer.span("multiway.extend", sources=len(self._sources)):
                self._extended = {
                    name: self._engine.extend_relation(relation, targets)
                    for name, relation in self._sources.items()
                }
        return self._extended

    def groups(self) -> Dict[Tuple[Any, ...], List[Tuple[str, Row]]]:
        """Complete K_Ext values → ``(source, row)`` members, computed once.

        Groups in first-seen order, members in (source declaration, row)
        order; single-source groups included.
        """
        if self._groups is None:
            key_attrs = list(self._key.attributes)
            groups: Dict[Tuple[Any, ...], List[Tuple[str, Row]]] = defaultdict(list)
            tuples = 0
            with self._tracer.span("multiway.cluster"):
                for name, relation in self.extended().items():
                    for row in relation:
                        values = row.values_for(key_attrs)
                        if any(is_null(v) for v in values):
                            continue
                        groups[values].append((name, row))
                        tuples += 1
            self._groups = dict(groups)
            if self._tracer.enabled:
                self._tracer.metrics.inc("multiway.tuples", tuples)
        return self._groups

    # ------------------------------------------------------------------
    def clusters(self) -> List[EntityCluster]:
        """Matched entities: groups spanning at least two sources."""
        out: List[EntityCluster] = []
        for values, members in sorted(self.groups().items(), key=lambda kv: str(kv[0])):
            if len({name for name, _ in members}) >= 2:
                out.append(EntityCluster(values, tuple(members)))
        if self._tracer.enabled:
            self._tracer.metrics.inc("multiway.clusters", len(out))
        return out

    def verify(self) -> MultiwaySoundnessReport:
        """The generalised uniqueness constraint, per source."""
        violations: Dict[str, List[Tuple[Any, ...]]] = {
            name: [] for name in self._sources
        }
        with self._tracer.span("multiway.verify"):
            for values, members in self.groups().items():
                for name, count in Counter(name for name, _ in members).items():
                    if count > 1:
                        violations[name].append(values)
        total = sum(len(v) for v in violations.values())
        if self._tracer.enabled and total:
            self._tracer.metrics.inc("multiway.violations", total)
        return MultiwaySoundnessReport(
            {name: tuple(v) for name, v in violations.items()}
        )

    def pairwise_pairs(self, first: str, second: str) -> FrozenSet[Tuple[KeyValues, KeyValues]]:
        """The (first, second) matches, in EntityIdentifier's pair format."""
        for name in (first, second):
            if name not in self._sources:
                raise CoreError(f"unknown source {name!r}")
        first_keys = self.source_key_attributes(first)
        second_keys = self.source_key_attributes(second)
        return frozenset(
            (key_values(left, first_keys), key_values(right, second_keys))
            for cluster in self.clusters()
            for name, left in cluster.members if name == first
            for other, right in cluster.members if other == second
        )

    def source_key_attributes(self, name: str) -> Tuple[str, ...]:
        """*name*'s primary-key attributes, in schema order."""
        schema = self._sources[name].schema
        key = schema.primary_key
        return tuple(n for n in schema.names if n in key)

    # ------------------------------------------------------------------
    def _attribute_order(self) -> List[str]:
        """Union of the extended schemas, in declaration order."""
        ordered: List[str] = []
        for relation in self.extended().values():
            for attr in relation.schema.names:
                if attr not in ordered:
                    ordered.append(attr)
        return ordered

    def _cluster_candidates(
        self, cluster: EntityCluster
    ) -> Dict[str, List[Tuple[str, Any]]]:
        """Non-NULL candidate values per attribute, in member order."""
        candidates: Dict[str, List[Tuple[str, Any]]] = {}
        for source, row in cluster.members:
            for attr in row:
                value = row[attr]
                if is_null(value):
                    continue
                candidates.setdefault(attr, []).append((source, value))
        return candidates

    def conflicts(self) -> List[AttributeConflict]:
        """Every attribute collision integration would have to resolve.

        An attribute of a cluster is in conflict when two members carry
        distinct non-NULL values for it.  Deterministic order: clusters
        in :meth:`clusters` order, attributes in schema-union order.
        """
        ordered = self._attribute_order()
        out: List[AttributeConflict] = []
        for cluster in self.clusters():
            candidates = self._cluster_candidates(cluster)
            for attr in ordered:
                values = candidates.get(attr, [])
                if len({value for _, value in values}) > 1:
                    out.append(AttributeConflict(cluster.key, attr, tuple(values)))
        if self._tracer.enabled and out:
            self._tracer.metrics.inc("multiway.conflicts", len(out))
        return out

    def integrate(
        self, *, source_column: str = "sources", on_conflict: str = "first"
    ) -> Relation:
        """One row per real-world entity, over the union of the schemas.

        Matched clusters coalesce attribute-wise; unmatched tuples
        survive NULL-padded.  When members disagree on a non-key
        attribute, *on_conflict* decides — deterministically, never by
        dict iteration accident:

        - ``"first"`` (default): the first non-NULL value in source
          declaration order wins (the disagreement is still counted in
          the ``multiway.conflicts`` metric; use :meth:`conflicts` for
          the full diagnostic),
        - ``"error"``: raise :class:`CoreError` naming the first
          conflicting cluster and attribute,
        - ``"null"``: blank the contested attribute — the integrated
          row asserts nothing the sources dispute.

        The *source_column* records provenance (comma-joined source
        names), which also keeps coincidentally identical unmatched
        tuples from different sources apart.
        """
        if on_conflict not in CONFLICT_POLICIES:
            raise CoreError(
                f"unknown conflict policy {on_conflict!r}; "
                f"expected one of {CONFLICT_POLICIES}"
            )
        ordered = self._attribute_order()
        if source_column in ordered:
            raise CoreError(
                f"source column {source_column!r} collides with a source attribute"
            )
        schema = Schema([Attribute(a) for a in ordered + [source_column]])

        with self._tracer.span("multiway.integrate", on_conflict=on_conflict):
            rows: List[Row] = []
            clustered: set = set()
            conflict_count = 0
            for cluster in self.clusters():
                for _, row in cluster.members:
                    clustered.add(row)
                candidates = self._cluster_candidates(cluster)
                values: Dict[str, Any] = {attr: NULL for attr in ordered}
                for attr in ordered:
                    attr_values = candidates.get(attr, [])
                    if len({value for _, value in attr_values}) > 1:
                        conflict_count += 1
                        if on_conflict == "error":
                            raise CoreError(
                                f"sources disagree on {attr!r} for entity "
                                f"{cluster.key!r}: "
                                + ", ".join(
                                    f"{source}={value!r}"
                                    for source, value in attr_values
                                )
                            )
                        if on_conflict == "null":
                            continue  # values[attr] stays NULL
                    if attr_values:
                        values[attr] = attr_values[0][1]
                values[source_column] = ",".join(cluster.sources)
                rows.append(Row(values))
            for name, relation in self.extended().items():
                for row in relation:
                    if row in clustered:
                        continue
                    values = {attr: NULL for attr in ordered}
                    for attr in row:
                        values[attr] = row[attr]
                    values[source_column] = name
                    rows.append(Row(values))
            if self._tracer.enabled and conflict_count:
                self._tracer.metrics.inc("multiway.conflicts", conflict_count)

        out = Relation(schema, (), name="T_multi", enforce_keys=False)
        deduped: Dict[Row, None] = {}
        for row in rows:
            deduped.setdefault(row)
        out._rows = tuple(deduped)
        out._row_set = frozenset(deduped)
        return out
