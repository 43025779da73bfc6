"""The scenario runner: every grid cell through the real pipeline.

:class:`ScenarioRunner` takes a grid of specs and, per cell: generates
the adversarial data, undoes any schema drift (the integration step),
builds an :class:`~repro.entities.graph.IdentityGraph` over the real
blocker × identifier × entity-build stack, runs the Section-3
conformance oracles on every pairwise result, scores declared matches
against the generated ground truth, checks cluster purity and graph
soundness, and runs the ILFD drift detector over the cell's baseline
snapshot and delta batches.  No mocks anywhere: a cell that passes has
pushed real adversarial data through the same code paths production
callers use.

Two structural checks ride on specific axes: schema-drift cells assert
the un-drift round-trips losslessly back to the unified relations, and
shuffled-delta cells assert drift findings are arrival-order-independent
(same fingerprints when the batches are replayed reversed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.baselines.evaluation import MatchQuality, evaluate_pairs
from repro.blocking.strategies import ExtendedKeyHashBlocker
from repro.conformance.oracles import (
    ConformanceReport,
    Knowledge,
    check_consistency,
    check_soundness,
    check_uniqueness,
    run_oracles,
)
from repro.core.matching_table import KeyValues, key_values
from repro.entities.graph import IdentityGraph
from repro.relational.relation import Relation
from repro.scenarios.drift import (
    DEFAULT_WATCH,
    DriftReport,
    WatchFamily,
    detect_constraint_drift,
)
from repro.scenarios.errors import ScenarioError
from repro.scenarios.generate import (
    ScenarioData,
    generate_scenario,
    street_merger,
)
from repro.scenarios.grid import ScenarioSpec
from repro.workloads.generator import merge_attributes, rename_attributes

__all__ = [
    "CellResult",
    "PairOutcome",
    "ScenarioRunner",
    "run_cell",
]


def _round(value: float) -> float:
    return round(value, 6)


@dataclass
class PairOutcome:
    """One pairwise identification run, scored and oracle-checked."""

    pair: Tuple[str, str]
    candidate_pairs: int
    declared: int
    truth: int
    quality: MatchQuality
    conformance: ConformanceReport
    completeness_checked: bool

    @property
    def oracle_violations(self) -> int:
        return len(self.conformance.violations)

    def to_json(self) -> Dict[str, Any]:
        return {
            "pair": list(self.pair),
            "candidate_pairs": self.candidate_pairs,
            "declared": self.declared,
            "truth": self.truth,
            "true_positives": self.quality.true_positives,
            "false_positives": self.quality.false_positives,
            "false_negatives": self.quality.false_negatives,
            "precision": _round(self.quality.precision),
            "recall": _round(self.quality.recall),
            "f1": _round(self.quality.f1),
            "oracle_violations": self.oracle_violations,
            "completeness_checked": self.completeness_checked,
        }


@dataclass
class CellResult:
    """Everything one grid cell produced."""

    spec: ScenarioSpec
    pairs: List[PairOutcome]
    clusters: int
    impure_clusters: int
    unlabeled_members: int
    graph_violations: int
    drift: DriftReport
    roundtrip_ok: Optional[bool]
    order_independent: Optional[bool]
    injected: bool = False

    @property
    def cell_id(self) -> str:
        return self.spec.cell_id

    @property
    def quality(self) -> MatchQuality:
        """Micro-averaged match quality over all source pairs."""
        return MatchQuality(
            matcher_name=self.cell_id,
            true_positives=sum(p.quality.true_positives for p in self.pairs),
            false_positives=sum(p.quality.false_positives for p in self.pairs),
            false_negatives=sum(p.quality.false_negatives for p in self.pairs),
            uniqueness_violations=sum(
                p.quality.uniqueness_violations for p in self.pairs
            ),
        )

    @property
    def oracle_violations(self) -> int:
        return sum(p.oracle_violations for p in self.pairs)

    @property
    def ok(self) -> bool:
        """Green iff oracles, graph soundness, cluster purity, drift
        expectations, and the structural axis checks all hold."""
        return (
            self.oracle_violations == 0
            and self.graph_violations == 0
            and self.impure_clusters == 0
            and self.unlabeled_members == 0
            and not self.drift.unexpected
            and self.roundtrip_ok is not False
            and self.order_independent is not False
            and self._drift_contract_met
        )

    @property
    def _drift_contract_met(self) -> bool:
        # A conflict cell that fails to surface its seeded drift is as
        # broken as an unexpected finding: the detector went blind.
        if self.spec.conflict and not self.injected:
            return any(f.expected for f in self.drift.findings)
        return True

    def to_json(self) -> Dict[str, Any]:
        quality = self.quality
        return {
            "cell": self.cell_id,
            "ok": self.ok,
            "injected": self.injected,
            "pairs": [p.to_json() for p in self.pairs],
            "clusters": self.clusters,
            "impure_clusters": self.impure_clusters,
            "unlabeled_members": self.unlabeled_members,
            "graph_violations": self.graph_violations,
            "oracle_violations": self.oracle_violations,
            "roundtrip_ok": self.roundtrip_ok,
            "order_independent": self.order_independent,
            "precision": _round(quality.precision),
            "recall": _round(quality.recall),
            "f1": _round(quality.f1),
            "drift": {
                "rules_watched": self.drift.rules_watched,
                "findings": [f.to_json() for f in self.drift.findings],
                "unexpected": len(self.drift.unexpected),
            },
        }


def _canonical_rows(relation: Relation) -> List[Tuple[Tuple[str, Any], ...]]:
    rows = [tuple(sorted(row.items(), key=lambda kv: kv[0])) for row in relation]
    return sorted(rows, key=repr)


def _undrift(data: ScenarioData) -> Tuple[Dict[str, Relation], Optional[bool]]:
    """Undo schema drift on the feeds; report round-trip fidelity."""
    working = dict(data.feeds)
    drift = data.drift
    if drift is None:
        return working, None
    feed = working[drift.source]
    if drift.kind == "rename":
        inverse = {new: old for old, new in drift.renames.items()}
        restored = rename_attributes(feed, inverse, name=feed.name)
    elif drift.kind == "split":
        assert drift.split_into is not None and drift.split_attribute is not None
        restored = merge_attributes(
            feed,
            drift.split_into,
            drift.split_attribute,
            street_merger,
            name=feed.name,
        )
    else:  # pragma: no cover - SchemaDrift constrains kind
        raise ScenarioError(f"unknown drift kind {drift.kind!r}")
    working[drift.source] = restored
    reference = data.sources[drift.source]
    roundtrip_ok = (
        tuple(restored.schema.names) == tuple(reference.schema.names)
        and _canonical_rows(restored) == _canonical_rows(reference)
    )
    return working, roundtrip_ok


def _pair_conformance(
    result, knowledge: Knowledge, *, with_completeness: bool
) -> ConformanceReport:
    if with_completeness:
        return run_oracles(
            result.matching,
            result.negative,
            result.extended_r,
            result.extended_s,
            knowledge,
        )
    # A restrictive blocker prunes candidate pairs, so the NMT is not
    # the full complement and the completeness oracle would report the
    # pruned pairs as missing classifications.  Soundness, uniqueness,
    # and consistency remain exact obligations.
    reports = (
        check_soundness(result.matching, knowledge),
        check_uniqueness(result.matching),
        check_consistency(result.matching, result.negative),
    )
    return ConformanceReport(reports=reports)


def _cluster_purity(
    graph: IdentityGraph, data: ScenarioData
) -> Tuple[int, int, int]:
    """(clusters, clusters mixing labels, members with no label)."""
    clusters = graph.clusters()
    impure = 0
    unlabeled = 0
    for cluster in clusters:
        labels = set()
        for source_name, row in cluster.members:
            key_attrs = data.key_attributes[source_name]
            key = key_values(dict(row), key_attrs)
            label = data.labels[source_name].get(key)
            if label is None:
                unlabeled += 1
            else:
                labels.add(label)
        if len(labels) > 1:
            impure += 1
    return len(clusters), impure, unlabeled


def _detect_drift(
    data: ScenarioData,
    *,
    watch: WatchFamily,
    expect_conflict: bool,
    reverse: bool = False,
) -> DriftReport:
    """Run the drift detector over every watch-capable source."""
    findings: List = []
    rules_watched = 0
    batch_range = range(len(data.delta_batches))
    order = list(reversed(batch_range)) if reverse else list(batch_range)
    for name, baseline in data.base.items():
        if not watch.covers(baseline.schema.names):
            continue
        batches = [
            data.delta_batches[i].get(name, ()) for i in order
        ]
        report = detect_constraint_drift(
            name,
            baseline,
            batches,
            key_attributes=data.key_attributes[name],
            watch=watch,
            expected=expect_conflict and name == data.conflict_source,
        )
        findings.extend(report.findings)
        rules_watched += report.rules_watched
    findings.sort(key=lambda f: (f.source, f.rule))
    return DriftReport(findings=tuple(findings), rules_watched=rules_watched)


def run_cell(
    spec: ScenarioSpec,
    *,
    watch: WatchFamily = DEFAULT_WATCH,
    inject_drift: bool = False,
    tracer=None,
) -> CellResult:
    """Generate and execute one grid cell end to end.

    With ``inject_drift``, a delta-bearing non-conflict cell generates
    *as if* ``conflict=True`` while the detector still treats findings
    as unexpected — a deliberate canary proving the unexpected-drift
    path fails loudly (exit 1 through the CLI).
    """
    injected = False
    generation_spec = spec
    if inject_drift and not spec.conflict and spec.deltas != "none":
        generation_spec = replace(spec, conflict=True)
        injected = True
    data = generate_scenario(generation_spec)

    working, roundtrip_ok = _undrift(data)
    blocker_factory = None
    if spec.blocker == "hash":
        blocker_factory = ExtendedKeyHashBlocker
    graph = IdentityGraph(
        working,
        data.extended_key,
        ilfds=data.ilfds,
        blocker_factory=blocker_factory,
        tracer=tracer,
    )

    knowledge = Knowledge(
        extended_key=tuple(data.extended_key), ilfds=data.ilfds
    )
    with_completeness = spec.blocker == "exact"
    pairs: List[PairOutcome] = []
    for first, second in graph.pair_names():
        result = graph.pair_result(first, second)
        conformance = _pair_conformance(
            result, knowledge, with_completeness=with_completeness
        )
        declared = frozenset((e.r_key, e.s_key) for e in result.matching)
        truth = data.truth[(first, second)]
        quality = evaluate_pairs(
            f"{spec.cell_id}:{first}+{second}", declared, truth
        )
        pairs.append(
            PairOutcome(
                pair=(first, second),
                candidate_pairs=result.pair_count,
                declared=len(declared),
                truth=len(truth),
                quality=quality,
                conformance=conformance,
                completeness_checked=with_completeness,
            )
        )

    graph_violations = len(graph.verify().violations)
    clusters, impure, unlabeled = _cluster_purity(graph, data)

    expect_conflict = spec.conflict and not injected
    drift = _detect_drift(data, watch=watch, expect_conflict=expect_conflict)
    order_independent: Optional[bool] = None
    if spec.deltas == "shuffled":
        reversed_drift = _detect_drift(
            data, watch=watch, expect_conflict=expect_conflict, reverse=True
        )
        order_independent = (
            drift.fingerprints() == reversed_drift.fingerprints()
        )

    result = CellResult(
        spec=spec,
        pairs=pairs,
        clusters=clusters,
        impure_clusters=impure,
        unlabeled_members=unlabeled,
        graph_violations=graph_violations,
        drift=drift,
        roundtrip_ok=roundtrip_ok,
        order_independent=order_independent,
        injected=injected,
    )
    _record_metrics(result, tracer)
    return result


def _record_metrics(result: CellResult, tracer) -> None:
    if tracer is None or not tracer.enabled:
        return
    metrics = tracer.metrics
    metrics.inc("scenarios.cells")
    if not result.ok:
        metrics.inc("scenarios.cells_failed")
    metrics.inc("scenarios.pairs", len(result.pairs))
    metrics.inc("scenarios.oracle_violations", result.oracle_violations)
    metrics.inc("scenarios.drift_findings", len(result.drift.findings))
    metrics.inc("scenarios.unexpected_drift", len(result.drift.unexpected))
    metrics.inc("scenarios.clusters", result.clusters)
    metrics.inc("scenarios.impure_clusters", result.impure_clusters)
    quality = result.quality
    metrics.observe("scenarios.precision", quality.precision)
    metrics.observe("scenarios.recall", quality.recall)


@dataclass
class ScenarioRunner:
    """Execute a grid of scenario specs through the pipeline."""

    specs: Sequence[ScenarioSpec]
    watch: WatchFamily = DEFAULT_WATCH
    inject_drift: bool = False
    tracer: Any = None

    def run(self) -> List[CellResult]:
        """Run every cell, in grid order."""
        seen: Dict[str, ScenarioSpec] = {}
        for spec in self.specs:
            if spec.cell_id in seen:
                raise ScenarioError(
                    f"duplicate cell id {spec.cell_id!r} in grid"
                )
            seen[spec.cell_id] = spec
        return [
            run_cell(
                spec,
                watch=self.watch,
                inject_drift=self.inject_drift,
                tracer=self.tracer,
            )
            for spec in self.specs
        ]
