"""The identity graph: N-way resolution over named sources.

A match means *identical, fully non-NULL extended-key values*, and
equality is transitive, so N-way entities are exactly the groups of
tuples sharing a complete extended key.  :class:`IdentityGraph` is the
entity subsystem's face on that one construction,
:class:`~repro.core.multiway.MultiwayIdentifier` (each source
ILFD-extended once, then grouped): it adds the consistency constraint
of every pairwise run (MT ∩ NMT = ∅), per-source uniqueness reports,
and each source pair's full :class:`~repro.core.identifier.EntityIdentifier`
pipeline on demand.  The ``entities-graph`` conformance cell checks the
clusters against the pairwise-composition oracle
(:func:`~repro.conformance.oracles.pairwise_composition_clusters`).
Golden records (:mod:`repro.entities.golden`) and the persisted entity
store (:mod:`repro.entities.build`) are made from the graph.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.blocking.base import Blocker
from repro.core.errors import ConsistencyError
from repro.core.extended_key import ExtendedKey
from repro.core.identifier import EntityIdentifier, IdentificationResult
from repro.core.matching_table import KeyValues, key_values
from repro.core.multiway import EntityCluster, MultiwayIdentifier
from repro.entities.errors import GraphError
from repro.ilfd.derivation import DerivationPolicy
from repro.ilfd.ilfd import ILFD, ILFDSet
from repro.observability.tracer import NO_OP_TRACER, Tracer
from repro.relational.relation import Relation
from repro.rules.conversion import ilfd_to_distinctness_rules
from repro.rules.factorised import compile_distinctness
from repro.store.codec import encode_row

__all__ = [
    "IdentityGraph",
    "UniquenessViolation",
    "GraphSoundnessReport",
    "cluster_fingerprint",
]


def cluster_fingerprint(clusters: Sequence[EntityCluster]) -> str:
    """Canonical SHA-256 over a cluster list (hex digest).

    Hashes the cluster keys and every member's ``(source, canonical row
    encoding)`` in list order, so two cluster lists fingerprint equal
    iff they are bit-identical — the conformance cell's equality test
    between the graph and the pairwise-composition oracle, and between
    a build and its reload.
    """
    material = json.dumps(
        [
            [
                str(cluster.key),
                [[source, encode_row(row)] for source, row in cluster.members],
            ]
            for cluster in clusters
        ],
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class UniquenessViolation:
    """One source modelling one entity more than once.

    The generalized uniqueness constraint says a cluster may contain at
    most one tuple per source; this names the offending source, the
    shared extended-key values, and the primary keys of every offending
    tuple.
    """

    source: str
    key: Tuple[Any, ...]
    members: Tuple[KeyValues, ...]


@dataclass(frozen=True)
class GraphSoundnessReport:
    """Structured verdict of the generalized uniqueness check."""

    violations: Tuple[UniquenessViolation, ...]

    @property
    def is_sound(self) -> bool:
        """True iff no source has two tuples sharing complete K_Ext values."""
        return not self.violations

    def by_source(self) -> Mapping[str, Tuple[UniquenessViolation, ...]]:
        """Violations grouped per source (only offending sources appear)."""
        grouped: Dict[str, List[UniquenessViolation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.source, []).append(violation)
        return {source: tuple(items) for source, items in grouped.items()}

    def raise_if_unsound(self) -> None:
        """Raise :class:`GraphError` when the check failed."""
        if not self.is_sound:
            detail = "; ".join(
                f"{v.source} models {v.key!r} {len(v.members)} times"
                for v in self.violations[:5]
            )
            raise GraphError(
                f"generalized uniqueness constraint violated: {detail}"
            )


class IdentityGraph:
    """N-way entity resolution by grouping on the complete extended key.

    Parameters
    ----------
    sources:
        Mapping of source name → relation (unified namespace, ≥2
        entries).  Declaration order is the deterministic source
        priority used for cluster member order and survivorship.
    extended_key / ilfds / policy:
        As for :class:`~repro.core.identifier.EntityIdentifier`.
    blocker_factory / workers:
        A zero-argument callable returning a fresh
        :class:`~repro.blocking.Blocker` (one instance must not be shared
        across runs), and a worker count, for the on-demand pairwise runs
        of :meth:`pair_identifier` only; clusters never depend on them.
    tracer:
        Optional tracer, threaded through the multiway construction and
        every pairwise pipeline; the graph adds ``entities.*`` metrics.
    """

    def __init__(
        self,
        sources: Mapping[str, Relation],
        extended_key: "ExtendedKey | Sequence[str]",
        *,
        ilfds: "ILFDSet | Iterable[ILFD]" = (),
        policy: DerivationPolicy = DerivationPolicy.FIRST_MATCH,
        blocker_factory: Optional[Callable[[], Optional[Blocker]]] = None,
        workers: int = 1,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if len(sources) < 2:
            raise GraphError("an identity graph needs at least two sources")
        self._sources: Dict[str, Relation] = dict(sources)
        self._names: Tuple[str, ...] = tuple(self._sources)
        self._ilfds = ilfds if isinstance(ilfds, ILFDSet) else ILFDSet(ilfds)
        self._policy = policy
        self._blocker_factory = blocker_factory
        self._workers = workers
        self._tracer = tracer if tracer is not None else NO_OP_TRACER
        self._multiway = MultiwayIdentifier(
            self._sources,
            extended_key,
            ilfds=self._ilfds,
            policy=policy,
            tracer=self._tracer,
        )
        self._identifiers: Dict[Tuple[str, str], EntityIdentifier] = {}
        self._results: Dict[EntityIdentifier, IdentificationResult] = {}
        self._clusters: Optional[List[EntityCluster]] = None
        if self._tracer.enabled:
            self._tracer.metrics.inc("entities.sources", len(self._sources))

    # ------------------------------------------------------------------
    @property
    def source_names(self) -> Tuple[str, ...]:
        """Source names in declaration order."""
        return self._names

    @property
    def extended_key(self) -> ExtendedKey:
        """The extended key in use."""
        return self._multiway.extended_key

    @property
    def sources(self) -> Mapping[str, Relation]:
        """The source relations, by name."""
        return dict(self._sources)

    def source_key_attributes(self, name: str) -> Tuple[str, ...]:
        """*name*'s primary-key attributes, in schema order."""
        self._check_source(name)
        return self._multiway.source_key_attributes(name)

    def _check_source(self, name: str) -> None:
        if name not in self._sources:
            raise GraphError(
                f"unknown source {name!r}; expected one of {self._names}"
            )

    def _check_pair(self, first: str, second: str) -> None:
        self._check_source(first)
        self._check_source(second)
        if first == second:
            raise GraphError(f"a source pair needs two distinct sources, got {first!r}")

    def extended(self) -> Dict[str, Relation]:
        """Every source extended with derived K_Ext values (computed once)."""
        return self._multiway.extended()

    def clusters(self) -> List[EntityCluster]:
        """Exactly :meth:`MultiwayIdentifier.clusters`, checked consistent.

        Raises :class:`~repro.core.errors.ConsistencyError` where a
        pairwise run would (see :meth:`_check_consistency`).
        """
        if self._clusters is None:
            clusters = self._multiway.clusters()
            self._check_consistency(clusters)
            self._clusters = clusters
            if self._tracer.enabled:
                self._tracer.metrics.inc("entities.clusters", len(clusters))
                self._tracer.metrics.inc(
                    "entities.members", sum(len(c) for c in clusters)
                )
        return self._clusters

    def _check_consistency(self, clusters: Sequence[EntityCluster]) -> None:
        """Raise if a rule declares two cross-source cluster members distinct.

        Those pairs are exactly the pairwise matches, so this is every
        pairwise run's MT ∩ NMT = ∅, with the ILFDs' Proposition-1
        distinctness rules compiled once over the clustered tuples.
        """
        rules = [r for ilfd in self._ilfds for r in ilfd_to_distinctness_rules(ilfd)]
        rows = [row for cluster in clusters for _, row in cluster.members]
        masks = compile_distinctness(rules, rows, rows)
        overlap, start = [], 0
        for cluster in clusters:
            members = cluster.members
            overlap += [
                (members[i], members[j])
                for i, j in combinations(range(len(members)), 2)
                if members[i][0] != members[j][0] and masks.fired(start + i, start + j)
            ]
            start += len(members)
        if overlap:
            (first, left), (second, right) = overlap[0]
            raise ConsistencyError(
                f"{len(overlap)} pair(s) appear in both the matching and the "
                f"negative matching tables, e.g. "
                f"({first}: {key_values(left, self.source_key_attributes(first))!r}, "
                f"{second}: {key_values(right, self.source_key_attributes(second))!r})"
            )

    def pairwise_pairs(
        self, first: str, second: str
    ) -> FrozenSet[Tuple[KeyValues, KeyValues]]:
        """The (first, second) matches as EntityIdentifier-format pairs.

        The pairwise *projection* of the clusters — equal to what a
        fresh ``EntityIdentifier`` run over the two sources produces.
        """
        self._check_pair(first, second)
        return self._multiway.pairwise_pairs(first, second)

    def verify(self) -> GraphSoundnessReport:
        """The generalized uniqueness constraint, structured per source.

        :meth:`MultiwayIdentifier.verify` finds the duplicated complete
        K_Ext values (in every group, so a source modelling an entity
        twice is reported even when no other source shares the key);
        this names each one's tuples, in the same order.
        """
        with self._tracer.span("entities.verify"):
            groups = self._multiway.groups()
            violations = tuple(
                UniquenessViolation(name, values, tuple(
                    key_values(row, self.source_key_attributes(name))
                    for source, row in groups[values] if source == name
                ))
                for name, duplicated in self._multiway.verify().violations.items()
                for values in duplicated
            )
        if self._tracer.enabled and violations:
            self._tracer.metrics.inc("entities.violations", len(violations))
        return GraphSoundnessReport(violations)

    def fingerprint(self) -> str:
        """Canonical fingerprint of this graph's clusters."""
        return cluster_fingerprint(self.clusters())

    # ------------------------------------------------------------------
    # Pairwise layer (on demand)
    # ------------------------------------------------------------------
    def pair_names(self) -> List[Tuple[str, str]]:
        """All source pairs, in declaration order."""
        return list(combinations(self._names, 2))

    def pair_identifier(self, first: str, second: str) -> EntityIdentifier:
        """The (cached) pairwise pipeline for one source pair.

        Only callers wanting a pair's NMT and undetermined counts need it;
        clusters never run it.  Uses *blocker_factory* and *workers*.
        """
        self._check_pair(first, second)
        if (second, first) in self._identifiers:
            first, second = second, first
        pair = (first, second)
        if pair not in self._identifiers:
            blocker = self._blocker_factory() if self._blocker_factory else None
            self._identifiers[pair] = EntityIdentifier(
                self._sources[first],
                self._sources[second],
                self.extended_key,
                ilfds=self._ilfds,
                policy=self._policy,
                tracer=self._tracer,
                blocker=blocker,
                workers=self._workers,
            )
        return self._identifiers[pair]

    def pair_result(self, first: str, second: str) -> IdentificationResult:
        """The (cached) pairwise identification result for one pair."""
        identifier = self.pair_identifier(first, second)
        if identifier not in self._results:
            with self._tracer.span("entities.pairwise", first=first, second=second):
                self._results[identifier] = identifier.run()
            if self._tracer.enabled:
                self._tracer.metrics.inc("entities.pairwise_runs")
        return self._results[identifier]
