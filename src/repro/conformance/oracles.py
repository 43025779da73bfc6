"""Executable oracles for the paper's Section-3 propositions.

Each oracle re-derives one claim about an identification result from
first principles — one layer *below* the pipeline, straight from the
semantic knowledge (extended key, ILFDs, DBA rules) — so a bug anywhere
in the pipeline stack (blocking, parallel execution, persistence,
recovery) cannot also hide in the checker:

- **soundness** (Section 3.2): every entry of MT_RS is derivable from
  the knowledge — some identity rule fires on the pair's extended
  tuples, or the pair was explicitly asserted by the user;
- **completeness w.r.t. the rules** (Section 3.2): every pair on which
  an identity (distinctness) rule fires appears in MT (NMT) — nothing
  the knowledge decides is left undetermined or dropped;
- **uniqueness** (Section 3.2's constraint on MT_RS): no tuple of
  either relation is matched to more than one tuple of the other;
- **consistency** (the MT/NMT constraint): no pair appears in both
  tables;
- **monotonicity** (Section 3.3, Figure 3): under knowledge growth the
  matching and non-matching sets only expand;
- **pairwise composition** (the N-way reference): entity clusters
  rebuilt from one full pairwise run per source pair closed by
  union-find, against which the one production N-way construction
  (grouping on the complete extended key) is checked.

Every checker returns an :class:`~repro.conformance.violations.OracleReport`
with witness-carrying :class:`~repro.conformance.violations.Violation`
records instead of raising, so they are equally usable as test asserts
and as runtime audits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.blocking.base import Blocker
from repro.core.extended_key import ExtendedKey
from repro.core.matching_table import (
    KeyValues,
    MatchingTable,
    NegativeMatchingTable,
    key_values,
)
from repro.core.multiway import EntityCluster
from repro.ilfd.derivation import DerivationEngine, DerivationPolicy
from repro.ilfd.ilfd import ILFD, ILFDSet
from repro.relational.relation import Relation
from repro.relational.row import Row
from repro.rules.conversion import ilfd_to_distinctness_rules
from repro.rules.distinctness import DistinctnessRule
from repro.rules.engine import RuleEngine
from repro.rules.identity import IdentityRule
from repro.conformance.violations import (
    ConformanceReport,
    OracleReport,
    Violation,
)

__all__ = [
    "Knowledge",
    "TableSnapshot",
    "check_soundness",
    "check_completeness",
    "check_uniqueness",
    "check_consistency",
    "check_monotonicity",
    "monotonicity_snapshots",
    "pairwise_composition_clusters",
    "run_oracles",
]

Pair = Tuple[KeyValues, KeyValues]


@dataclass(frozen=True)
class Knowledge:
    """The semantic knowledge one identification run is judged against.

    This is the oracle-side mirror of the :class:`EntityIdentifier`
    constructor arguments: what the DBA supplied, nothing the pipeline
    computed.  Oracles rebuild their own derivation and rule engines
    from it rather than trusting the pipeline's.
    """

    extended_key: Tuple[str, ...]
    ilfds: ILFDSet = field(default_factory=ILFDSet)
    identity_rules: Tuple[IdentityRule, ...] = ()
    distinctness_rules: Tuple[DistinctnessRule, ...] = ()
    derive_ilfd_distinctness: bool = True
    policy: DerivationPolicy = DerivationPolicy.FIRST_MATCH

    @classmethod
    def from_workload(cls, workload, **overrides) -> "Knowledge":
        """Knowledge of a :class:`~repro.workloads.Workload`."""
        base = cls(
            extended_key=tuple(workload.extended_key),
            ilfds=workload.ilfds
            if isinstance(workload.ilfds, ILFDSet)
            else ILFDSet(workload.ilfds),
        )
        return replace(base, **overrides) if overrides else base

    def key(self) -> ExtendedKey:
        """The extended key as the core's :class:`ExtendedKey`."""
        return ExtendedKey(list(self.extended_key))

    def with_ilfds(self, ilfds: Iterable[ILFD]) -> "Knowledge":
        """The same knowledge with a different ILFD set."""
        return replace(self, ilfds=ILFDSet(ilfds))

    def derivation_engine(self) -> DerivationEngine:
        """A fresh derivation engine over this knowledge."""
        return DerivationEngine(self.ilfds, policy=self.policy)

    def rule_engine(self) -> RuleEngine:
        """A fresh rule engine: K_Ext rule, DBA rules, ILFD duals."""
        derived: List[DistinctnessRule] = []
        if self.derive_ilfd_distinctness:
            for ilfd in self.ilfds:
                derived.extend(ilfd_to_distinctness_rules(ilfd))
        return RuleEngine(
            [self.key().identity_rule(), *self.identity_rules],
            list(self.distinctness_rules) + derived,
        )

    def extend(self, r: Relation, s: Relation) -> Tuple[Relation, Relation]:
        """R' and S': both sources chased to the extended key."""
        engine = self.derivation_engine()
        targets = list(self.extended_key)
        return (
            engine.extend_relation(r, targets),
            engine.extend_relation(s, targets),
        )


def _key_attrs(relation: Relation) -> Tuple[str, ...]:
    primary = relation.schema.primary_key
    return tuple(n for n in relation.schema.names if n in primary)


# ----------------------------------------------------------------------
# Soundness
# ----------------------------------------------------------------------
def check_soundness(
    matching: MatchingTable,
    knowledge: Knowledge,
    *,
    asserted: AbstractSet[Pair] = frozenset(),
) -> OracleReport:
    """Every asserted match is rule-derivable from the knowledge.

    For each MT entry, an independently built rule engine must fire some
    identity rule on the entry's (extended) tuple pair — the paper's
    notion of a match being *established* by the semantic knowledge
    rather than guessed.  Pairs in *asserted* (the "knowledgeable user"
    channel) are exempt.
    """
    engine = knowledge.rule_engine()
    violations: List[Violation] = []
    for entry in matching:
        if entry.pair in asserted:
            continue
        fired = engine.firing_identity_rules(entry.r_row, entry.s_row)
        if not fired:
            violations.append(
                Violation(
                    oracle="soundness",
                    kind="underivable-match",
                    message=(
                        "matching-table entry is not derivable: no "
                        "identity rule fires on the pair"
                    ),
                    r_key=entry.r_key,
                    s_key=entry.s_key,
                )
            )
    return OracleReport(
        oracle="soundness",
        checked=len(matching),
        violations=tuple(violations),
    )


# ----------------------------------------------------------------------
# Completeness w.r.t. the rules
# ----------------------------------------------------------------------
def check_completeness(
    matching: MatchingTable,
    negative: NegativeMatchingTable,
    extended_r: Relation,
    extended_s: Relation,
    knowledge: Knowledge,
) -> OracleReport:
    """Everything the rules decide is recorded in the right table.

    Exhaustively classifies every (R', S') pair with an independent rule
    engine: a firing identity rule must have its pair in MT, a firing
    distinctness rule must have its pair in NMT, and a pair firing both
    witnesses an inconsistent rule set (reported, not raised).  This is
    completeness *relative to the supplied knowledge* — Section 3.2's
    achievable half; pairs where nothing fires are legitimately
    undetermined.
    """
    engine = knowledge.rule_engine()
    r_attrs = _key_attrs(extended_r)
    s_attrs = _key_attrs(extended_s)
    violations: List[Violation] = []
    checked = 0
    for r_row in extended_r:
        r_key = key_values(r_row, r_attrs)
        for s_row in extended_s:
            checked += 1
            s_key = key_values(s_row, s_attrs)
            fired_identity = engine.firing_identity_rules(r_row, s_row)
            fired_distinct = engine.firing_distinctness_rules(r_row, s_row)
            if fired_identity and fired_distinct:
                violations.append(
                    Violation(
                        oracle="completeness",
                        kind="rule-conflict",
                        message=(
                            "identity and distinctness rules both fire "
                            f"({[r.name for r in fired_identity]} vs "
                            f"{[r.name for r in fired_distinct]})"
                        ),
                        r_key=r_key,
                        s_key=s_key,
                    )
                )
                continue
            if fired_identity and not matching.contains_pair(r_key, s_key):
                violations.append(
                    Violation(
                        oracle="completeness",
                        kind="missing-match",
                        message=(
                            f"identity rule(s) "
                            f"{[r.name for r in fired_identity]} fire but "
                            "the pair is absent from the matching table"
                        ),
                        r_key=r_key,
                        s_key=s_key,
                    )
                )
            if fired_distinct and not negative.contains_pair(r_key, s_key):
                violations.append(
                    Violation(
                        oracle="completeness",
                        kind="missing-non-match",
                        message=(
                            f"distinctness rule(s) "
                            f"{[r.name for r in fired_distinct]} fire but "
                            "the pair is absent from the negative table"
                        ),
                        r_key=r_key,
                        s_key=s_key,
                    )
                )
    return OracleReport(
        oracle="completeness", checked=checked, violations=tuple(violations)
    )


# ----------------------------------------------------------------------
# Uniqueness and consistency constraints
# ----------------------------------------------------------------------
def check_uniqueness(matching: MatchingTable) -> OracleReport:
    """No tuple of either relation matches more than one counterpart."""
    witnesses = matching.uniqueness_violations()
    violations: List[Violation] = []
    for r_key in witnesses["R"]:
        violations.append(
            Violation(
                oracle="uniqueness",
                kind="r-key-multiply-matched",
                message="R tuple matched to more than one S tuple",
                r_key=r_key,
            )
        )
    for s_key in witnesses["S"]:
        violations.append(
            Violation(
                oracle="uniqueness",
                kind="s-key-multiply-matched",
                message="S tuple matched to more than one R tuple",
                s_key=s_key,
            )
        )
    return OracleReport(
        oracle="uniqueness",
        checked=len(matching),
        violations=tuple(violations),
    )


def check_consistency(
    matching: MatchingTable, negative: NegativeMatchingTable
) -> OracleReport:
    """No pair appears in both MT_RS and NMT_RS."""
    overlap = matching.pairs() & negative.pairs()
    violations = tuple(
        Violation(
            oracle="consistency",
            kind="pair-in-both-tables",
            message="pair appears in both the matching and negative tables",
            r_key=r_key,
            s_key=s_key,
        )
        for r_key, s_key in sorted(overlap)
    )
    return OracleReport(
        oracle="consistency",
        checked=len(matching) + len(negative),
        violations=violations,
    )


# ----------------------------------------------------------------------
# Monotonicity under knowledge growth
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TableSnapshot:
    """The decided sets after one knowledge increment (Figure 3)."""

    label: str
    matching: FrozenSet[Pair]
    non_matching: FrozenSet[Pair]


def check_monotonicity(snapshots: Sequence[TableSnapshot]) -> OracleReport:
    """Decided pairs never get retracted as knowledge grows.

    Checks every consecutive snapshot pair: the matching and
    non-matching sets must each be supersets of their predecessors
    ("every pair of tuples determined … remains so when additional
    information is supplied").
    """
    violations: List[Violation] = []
    for previous, current in zip(snapshots, snapshots[1:]):
        for r_key, s_key in sorted(previous.matching - current.matching):
            violations.append(
                Violation(
                    oracle="monotonicity",
                    kind="match-retracted",
                    message=(
                        f"pair matched at {previous.label!r} is gone at "
                        f"{current.label!r}"
                    ),
                    r_key=r_key,
                    s_key=s_key,
                )
            )
        for r_key, s_key in sorted(
            previous.non_matching - current.non_matching
        ):
            violations.append(
                Violation(
                    oracle="monotonicity",
                    kind="non-match-retracted",
                    message=(
                        f"pair declared distinct at {previous.label!r} is "
                        f"gone at {current.label!r}"
                    ),
                    r_key=r_key,
                    s_key=s_key,
                )
            )
    return OracleReport(
        oracle="monotonicity",
        checked=max(len(snapshots) - 1, 0),
        violations=tuple(violations),
    )


def monotonicity_snapshots(
    r: Relation,
    s: Relation,
    knowledge: Knowledge,
    *,
    steps: Optional[int] = None,
) -> List[TableSnapshot]:
    """Replay knowledge growth: identify under growing ILFD prefixes.

    Reveals the ILFD set in ``steps`` prefix increments (default: one
    ILFD at a time, capped at 8 steps) and records the decided sets
    after each run.  Feed the result to :func:`check_monotonicity`.
    """
    from repro.core.identifier import EntityIdentifier

    ilfds = list(knowledge.ilfds)
    if steps is None:
        steps = min(len(ilfds), 8)
    cuts = sorted(
        {0, len(ilfds)}
        | {round(len(ilfds) * i / max(steps, 1)) for i in range(1, steps)}
    )
    snapshots: List[TableSnapshot] = []
    for cut in cuts:
        identifier = EntityIdentifier(
            r,
            s,
            list(knowledge.extended_key),
            ilfds=ilfds[:cut],
            identity_rules=knowledge.identity_rules,
            distinctness_rules=knowledge.distinctness_rules,
            derive_ilfd_distinctness=knowledge.derive_ilfd_distinctness,
            policy=knowledge.policy,
        )
        result = identifier.run()
        snapshots.append(
            TableSnapshot(
                label=f"ilfds[:{cut}]",
                matching=result.matching.pairs(),
                non_matching=result.negative.pairs(),
            )
        )
    return snapshots


def pairwise_composition_clusters(
    sources: Mapping[str, Relation],
    extended_key: ExtendedKey | Sequence[str],
    *,
    ilfds: ILFDSet | Iterable[ILFD] = (),
    blocker_factory: Optional[Callable[[], Optional[Blocker]]] = None,
) -> List[EntityCluster]:
    """N-way entity clusters composed from pairwise identification.

    The reference for :meth:`~repro.entities.IdentityGraph.clusters`,
    reached the long way round: one full
    :class:`~repro.core.identifier.EntityIdentifier` run per source pair
    (under a fresh blocker from *blocker_factory*), the matched tuples
    unioned into connected components, and the components rendered in
    the production order — members by (source declaration, row),
    clusters by the string form of the shared extended-key values.
    Because a match means identical complete extended-key values, the
    components are exactly the complete-key groups spanning ≥2 sources,
    so the two fingerprint equal.  Each run enforces MT ∩ NMT = ∅, so
    this raises :class:`~repro.core.errors.ConsistencyError` on the same
    inputs the graph does.
    """
    from repro.core.identifier import EntityIdentifier

    if not isinstance(extended_key, ExtendedKey):
        extended_key = ExtendedKey(list(extended_key))
    ilfds = ilfds if isinstance(ilfds, ILFDSet) else ILFDSet(ilfds)
    key_attrs = list(extended_key.attributes)
    names = tuple(sources)
    # Node = (source declaration index, row index): its natural sort
    # order is the member order.
    node_of: Dict[Tuple[int, KeyValues], Tuple[int, int]] = {}
    rows: Dict[Tuple[int, int], Row] = {}
    parent: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def find(node: Tuple[int, int]) -> Tuple[int, int]:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for (i, first), (j, second) in combinations(enumerate(names), 2):
        identifier = EntityIdentifier(
            sources[first],
            sources[second],
            extended_key,
            ilfds=ilfds,
            blocker=blocker_factory() if blocker_factory else None,
        )
        extended_first, extended_second = identifier.extended_relations()
        for index, relation, attrs in (
            (i, extended_first, identifier.r_key_attributes),
            (j, extended_second, identifier.s_key_attributes),
        ):
            for position, row in enumerate(relation):
                node_of[(index, key_values(row, attrs))] = (index, position)
                rows[(index, position)] = row
        for entry in identifier.run().matching:
            parent[find(node_of[(i, entry.r_key)])] = find(node_of[(j, entry.s_key)])

    components: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for node in list(parent):
        components.setdefault(find(node), []).append(node)
    clusters = []
    for members in components.values():
        member_rows = tuple((names[s], rows[(s, r)]) for s, r in sorted(members))
        clusters.append(
            EntityCluster(member_rows[0][1].values_for(key_attrs), member_rows)
        )
    clusters.sort(key=lambda cluster: str(cluster.key))
    return clusters


# ----------------------------------------------------------------------
# The bundle
# ----------------------------------------------------------------------
def run_oracles(
    matching: MatchingTable,
    negative: NegativeMatchingTable,
    extended_r: Relation,
    extended_s: Relation,
    knowledge: Knowledge,
    *,
    asserted: AbstractSet[Pair] = frozenset(),
    tracer=None,
) -> ConformanceReport:
    """Run the four per-result oracles and bundle their reports.

    (Monotonicity needs a *sequence* of runs — drive it separately via
    :func:`monotonicity_snapshots` + :func:`check_monotonicity`.)
    """
    reports = (
        check_soundness(matching, knowledge, asserted=asserted),
        check_completeness(
            matching, negative, extended_r, extended_s, knowledge
        ),
        check_uniqueness(matching),
        check_consistency(matching, negative),
    )
    report = ConformanceReport(reports=reports)
    if tracer is not None and tracer.enabled:
        tracer.metrics.inc(
            "conformance.oracle_checks", sum(r.checked for r in reports)
        )
        tracer.metrics.inc(
            "conformance.oracle_violations", len(report.violations)
        )
    return report
