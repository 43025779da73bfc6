"""IdentityGraph: complete-key clusters ≡ MultiwayIdentifier ≡ pairwise runs."""

import pytest

from repro.blocking import make_blocker
from repro.conformance import pairwise_composition_clusters
from repro.core.errors import ConsistencyError
from repro.core.identifier import EntityIdentifier
from repro.core.multiway import MultiwayIdentifier
from repro.entities import (
    GraphError,
    IdentityGraph,
    build_entity_store,
    cluster_fingerprint,
)
from repro.observability import Tracer
from repro.store import MemoryStore

from tests.entities.conftest import rel


class TestConstruction:
    def test_needs_two_sources(self, example3):
        with pytest.raises(GraphError):
            IdentityGraph({"R": example3.r}, example3.extended_key)

    def test_source_names_in_declaration_order(self, graph):
        assert graph.source_names == ("R", "S", "T")

    def test_source_key_attributes_in_schema_order(self, graph):
        assert graph.source_key_attributes("T") == ("name", "speciality")
        with pytest.raises(GraphError):
            graph.source_key_attributes("nope")

    def test_pair_names_are_all_combinations(self, graph):
        assert graph.pair_names() == [("R", "S"), ("R", "T"), ("S", "T")]


class TestMultiwayEquivalence:
    """The tentpole invariant: graph clusters ≡ multiway clusters, bitwise."""

    def test_clusters_bit_identical_to_multiway(self, graph, three_sources, example3):
        multiway = MultiwayIdentifier(
            three_sources, example3.extended_key, ilfds=list(example3.ilfds)
        )
        assert cluster_fingerprint(graph.clusters()) == cluster_fingerprint(
            multiway.clusters()
        )
        assert graph.fingerprint() == cluster_fingerprint(multiway.clusters())

    def test_clusters_span_expected_sources(self, graph):
        spans = {c.key[0]: set(c.sources) for c in graph.clusters()}
        assert spans["TwinCities"] == {"R", "S", "T"}
        assert spans["Anjuman"] == {"R", "S", "T"}
        assert spans["It'sGreek"] == {"R", "S"}

    def test_cluster_order_sorted_by_key_text(self, graph):
        keys = [str(c.key) for c in graph.clusters()]
        assert keys == sorted(keys)

    def test_source_order_does_not_change_clusters(self, three_sources, example3):
        forward = IdentityGraph(
            three_sources, example3.extended_key, ilfds=list(example3.ilfds)
        )
        backward = IdentityGraph(
            dict(reversed(list(three_sources.items()))),
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        assert [c.key for c in forward.clusters()] == [
            c.key for c in backward.clusters()
        ]

    def test_blocker_and_workers_do_not_change_clusters(
        self, three_sources, example3, graph
    ):
        blocked = IdentityGraph(
            three_sources,
            example3.extended_key,
            ilfds=list(example3.ilfds),
            blocker_factory=lambda: make_blocker("hash"),
        )
        assert blocked.fingerprint() == graph.fingerprint()


class TestPairwiseProjections:
    def test_every_projection_matches_fresh_pairwise_run(
        self, graph, three_sources, example3
    ):
        for first, second in graph.pair_names():
            fresh = EntityIdentifier(
                three_sources[first],
                three_sources[second],
                example3.extended_key,
                ilfds=list(example3.ilfds),
            ).matching_table()
            assert graph.pairwise_pairs(first, second) == fresh.pairs(), (
                first,
                second,
            )

    def test_pair_lookup_symmetric_and_cached(self, graph):
        assert graph.pair_identifier("R", "S") is graph.pair_identifier("S", "R")
        assert graph.pair_result("R", "S") is graph.pair_result("S", "R")

    def test_unknown_pair_rejected(self, graph):
        with pytest.raises(GraphError):
            graph.pairwise_pairs("R", "nope")
        with pytest.raises(GraphError):
            graph.pair_identifier("R", "R")


class TestSoundness:
    def test_sound_graph(self, graph):
        report = graph.verify()
        assert report.is_sound
        assert report.by_source() == {}
        report.raise_if_unsound()

    def test_duplicate_entity_within_source_reported(self, example3):
        bad = rel(
            ["name", "speciality", "cuisine", "note"],
            [
                ("TwinCities", "Hunan", "Chinese", "a"),
                ("TwinCities", "Hunan", "Chinese", "b"),
            ],
            ("name", "speciality", "note"),
            "Bad",
        )
        graph = IdentityGraph(
            {"R": example3.r, "Bad": bad},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        report = graph.verify()
        assert not report.is_sound
        [violation] = report.violations
        assert violation.source == "Bad"
        assert len(violation.members) == 2
        assert set(report.by_source()) == {"Bad"}
        with pytest.raises(GraphError):
            report.raise_if_unsound()


def contradicting(name):
    """One tuple holding cuisine=Indian although I1 derives Chinese from Hunan."""
    return rel(
        ["name", "cuisine", "speciality"],
        [("TwinCities", "Indian", "Hunan")],
        ("name", "cuisine"),
        name,
    )


class TestConsistency:
    """MT ∩ NMT = ∅ still holds without running the pairwise pipelines."""

    def test_matched_pair_declared_distinct_raises(self, example3):
        sources = {"R": example3.r, "U": contradicting("U"), "V": contradicting("V")}
        ilfds = list(example3.ilfds)
        graph = IdentityGraph(sources, example3.extended_key, ilfds=ilfds)
        with pytest.raises(ConsistencyError, match="1 pair"):
            graph.clusters()
        # The pairwise route refuses the same inputs.
        with pytest.raises(ConsistencyError):
            graph.pair_result("U", "V")
        with pytest.raises(ConsistencyError):
            pairwise_composition_clusters(
                sources, example3.extended_key, ilfds=ilfds
            )

    def test_unmatched_contradiction_is_not_a_conflict(self, three_sources, example3):
        sources = dict(three_sources, U=contradicting("U"))
        graph = IdentityGraph(sources, example3.extended_key, ilfds=list(example3.ilfds))
        assert graph.fingerprint() == cluster_fingerprint(
            pairwise_composition_clusters(
                sources, example3.extended_key, ilfds=list(example3.ilfds)
            )
        )


class TestObservability:
    def _traced(self, three_sources, example3):
        tracer = Tracer()
        graph = IdentityGraph(
            three_sources,
            example3.extended_key,
            ilfds=list(example3.ilfds),
            tracer=tracer,
        )
        return graph, tracer

    def test_metrics_emitted(self, three_sources, example3):
        graph, tracer = self._traced(three_sources, example3)
        clusters = graph.clusters()
        build_entity_store(graph, MemoryStore())
        metrics = tracer.metrics
        assert metrics.counter("entities.sources") == 3
        assert metrics.counter("entities.clusters") == len(clusters)
        assert metrics.counter("entities.members") == sum(
            len(c) for c in clusters
        )
        # No pairwise pipeline; every source extended exactly once.
        assert metrics.counter("entities.pairwise_runs") == 0
        assert metrics.counter("pipeline.pairs") == 0
        assert metrics.counter("ilfd.rows_extended") == sum(
            len(relation) for relation in three_sources.values()
        )

    def test_spans_cover_the_phases(self, three_sources, example3):
        graph, tracer = self._traced(three_sources, example3)
        graph.clusters()
        graph.verify()
        build_entity_store(graph, MemoryStore())
        names = [span.name for span in tracer.spans()]
        assert names.count("multiway.extend") == 1
        assert names.count("multiway.cluster") == 1
        assert "entities.verify" in names
        assert "entities.pairwise" not in names
        assert "identify.run" not in names

    def test_pair_result_runs_one_pipeline_on_demand(self, three_sources, example3):
        graph, tracer = self._traced(three_sources, example3)
        graph.clusters()
        first = graph.pair_result("R", "S")
        assert graph.pair_result("S", "R") is first
        names = [span.name for span in tracer.spans()]
        assert names.count("entities.pairwise") == 1
        assert names.count("identify.run") == 1
        assert tracer.metrics.counter("entities.pairwise_runs") == 1
