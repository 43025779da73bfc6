"""Tests for identification across more than two databases."""

import pytest

from repro.core.errors import CoreError, ExtendedKeyError
from repro.core.identifier import EntityIdentifier
from repro.core.multiway import MultiwayIdentifier
from repro.relational.attribute import string_attribute
from repro.relational.nulls import is_null
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def rel(names, rows, key, name):
    schema = Schema([string_attribute(n) for n in names], keys=[key])
    return Relation(schema, rows, name=name)


@pytest.fixture
def three_sources(example3):
    """Example 3's R and S plus a third database T(name, speciality, phone)."""
    t = rel(
        ["name", "speciality", "phone"],
        [
            ("TwinCities", "Hunan", "555-0101"),
            ("Anjuman", "Mughalai", "555-0202"),
            ("VillageWok", "Cantonese", "555-0303"),
        ],
        ("name", "speciality"),
        "T",
    )
    return {"R": example3.r, "S": example3.s, "T": t}


@pytest.fixture
def multiway(three_sources, example3):
    return MultiwayIdentifier(
        three_sources,
        example3.extended_key,
        ilfds=list(example3.ilfds),
    )


class TestClusters:
    def test_cluster_contents(self, multiway):
        clusters = multiway.clusters()
        by_name = {dict(zip(("name",), c.key[:1]))["name"]: c for c in clusters}
        # keys are (name, cuisine, speciality) value tuples in K_Ext order
        spans = {c.key[0]: set(c.sources) for c in clusters}
        assert spans["TwinCities"] == {"R", "S", "T"}
        assert spans["Anjuman"] == {"R", "S", "T"}
        assert spans["It'sGreek"] == {"R", "S"}

    def test_three_way_cluster_size(self, multiway):
        three_way = [c for c in multiway.clusters() if len(c) == 3]
        assert len(three_way) == 2  # TwinCities-Hunan and Anjuman-Mughalai

    def test_member_lookup(self, multiway):
        cluster = next(c for c in multiway.clusters() if c.key[0] == "Anjuman")
        t_row = cluster.member_of("T")
        assert t_row is not None and t_row["phone"] == "555-0202"
        assert cluster.member_of("nope") is None

    def test_soundness(self, multiway):
        report = multiway.verify()
        assert report.is_sound
        report.raise_if_unsound()

    def test_unsound_source_detected(self, example3):
        # a source with two tuples deriving the same complete K_Ext
        bad = rel(
            ["name", "speciality", "cuisine", "note"],
            [
                ("TwinCities", "Hunan", "Chinese", "a"),
                ("TwinCities", "Hunan", "Chinese", "b"),
            ],
            ("name", "speciality", "note"),
            "Bad",
        )
        multiway = MultiwayIdentifier(
            {"R": example3.r, "Bad": bad},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        report = multiway.verify()
        assert not report.is_sound
        assert report.violations["Bad"]

    def test_needs_two_sources(self, example3):
        with pytest.raises(CoreError):
            MultiwayIdentifier({"R": example3.r}, example3.extended_key)

    def test_key_attribute_in_no_source_rejected(self, three_sources):
        with pytest.raises(ExtendedKeyError):
            MultiwayIdentifier(three_sources, ["name", "zz"])

    def test_extension_traced_once_per_source_row(self, three_sources, example3):
        from repro.observability import Tracer

        tracer = Tracer()
        multiway = MultiwayIdentifier(
            three_sources,
            example3.extended_key,
            ilfds=list(example3.ilfds),
            tracer=tracer,
        )
        multiway.clusters()
        multiway.verify()
        assert tracer.metrics.counter("ilfd.rows_extended") == sum(
            len(relation) for relation in three_sources.values()
        )
        assert tracer.metrics.counter("ilfd.firings") > 0


class TestPairwiseConsistency:
    def test_rs_projection_matches_entity_identifier(self, multiway, example3):
        pairwise = multiway.pairwise_pairs("R", "S")
        two_way = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=list(example3.ilfds)
        ).matching_table()
        assert pairwise == two_way.pairs()

    def test_transitivity_within_clusters(self, multiway):
        """If R~S and S~T within a cluster then R~T (equality of K_Ext)."""
        rs = multiway.pairwise_pairs("R", "S")
        st = multiway.pairwise_pairs("S", "T")
        rt = multiway.pairwise_pairs("R", "T")
        s_to_r = {s_key: r_key for r_key, s_key in rs}
        for s_key, t_key in st:
            if s_key in s_to_r:
                assert (s_to_r[s_key], t_key) in rt

    def test_unknown_source_rejected(self, multiway):
        with pytest.raises(CoreError):
            multiway.pairwise_pairs("R", "nope")


class TestMultiwayIntegration:
    def test_row_count(self, multiway, three_sources):
        integrated = multiway.integrate()
        total = sum(len(rel) for rel in three_sources.values())
        in_clusters = sum(len(c) for c in multiway.clusters())
        expected = len(multiway.clusters()) + (total - in_clusters)
        assert len(integrated) == expected

    def test_cluster_rows_coalesce(self, multiway):
        integrated = multiway.integrate()
        anjuman = [
            row for row in integrated
            if row["name"] == "Anjuman" and row["sources"] == "R,S,T"
        ]
        assert len(anjuman) == 1
        row = anjuman[0]
        assert row["street"] == "LeSalleAve."   # from R
        assert row["county"] == "Mpls."          # from S
        assert row["phone"] == "555-0202"        # from T

    def test_unmatched_rows_padded(self, multiway):
        integrated = multiway.integrate()
        cantonese = [
            row for row in integrated if row["speciality"] == "Cantonese"
        ]
        assert len(cantonese) == 1
        assert cantonese[0]["sources"] == "T"
        assert is_null(cantonese[0]["street"])

    def test_source_column_collision_rejected(self, multiway):
        with pytest.raises(CoreError):
            multiway.integrate(source_column="name")


class TestEntityClusterEdgeCases:
    def test_single_source_groups_excluded(self, example3):
        """A K_Ext group whose members all come from one source is no match."""
        lonely = rel(
            ["name", "speciality", "cuisine"],
            [("OnlyHere", "Fusion", "Modern")],
            ("name", "speciality"),
            "L",
        )
        multiway = MultiwayIdentifier(
            {"R": example3.r, "L": lonely},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )
        assert all(
            len(set(c.sources)) >= 2 for c in multiway.clusters()
        )
        assert not any(
            c.key[0] == "OnlyHere" for c in multiway.clusters()
        )

    def test_member_of_absent_source_is_none(self, multiway):
        greek = next(
            c for c in multiway.clusters() if c.key[0] == "It'sGreek"
        )
        assert greek.member_of("T") is None
        assert set(greek.sources) == {"R", "S"}

    def test_cluster_ordering_deterministic(self, three_sources, example3):
        """Cluster order is a pure function of the inputs, not dict order."""
        runs = [
            MultiwayIdentifier(
                dict(order),
                example3.extended_key,
                ilfds=list(example3.ilfds),
            ).clusters()
            for order in (
                list(three_sources.items()),
                list(reversed(list(three_sources.items()))),
            )
        ]
        assert [c.key for c in runs[0]] == [c.key for c in runs[1]]
        keys = [str(c.key) for c in runs[0]]
        assert keys == sorted(keys)


class TestConflictPolicies:
    @pytest.fixture
    def disagreeing(self, example3):
        """T disagrees with R on Anjuman's street."""
        t = rel(
            ["name", "speciality", "street"],
            [("Anjuman", "Mughalai", "ElmSt")],
            ("name", "speciality"),
            "T",
        )
        return MultiwayIdentifier(
            {"R": example3.r, "S": example3.s, "T": t},
            example3.extended_key,
            ilfds=list(example3.ilfds),
        )

    def test_conflicts_enumerated(self, disagreeing):
        conflicts = disagreeing.conflicts()
        assert len(conflicts) == 1
        conflict = conflicts[0]
        assert conflict.attribute == "street"
        assert dict(conflict.values) == {"R": "LeSalleAve.", "T": "ElmSt"}

    def test_first_policy_keeps_declaration_order_winner(self, disagreeing):
        integrated = disagreeing.integrate(on_conflict="first")
        row = next(
            r for r in integrated
            if r["name"] == "Anjuman" and "T" in r["sources"]
        )
        assert row["street"] == "LeSalleAve."  # R declared before T

    def test_error_policy_raises_naming_the_conflict(self, disagreeing):
        with pytest.raises(CoreError) as excinfo:
            disagreeing.integrate(on_conflict="error")
        message = str(excinfo.value)
        assert "street" in message and "ElmSt" in message

    def test_null_policy_blanks_contested_attribute(self, disagreeing):
        integrated = disagreeing.integrate(on_conflict="null")
        row = next(
            r for r in integrated
            if r["name"] == "Anjuman" and "T" in r["sources"]
        )
        assert is_null(row["street"])
        assert row["county"] == "Mpls."  # uncontested values survive

    def test_unknown_policy_rejected(self, disagreeing):
        with pytest.raises(CoreError):
            disagreeing.integrate(on_conflict="vote")

    def test_conflict_metrics_emitted(self, example3):
        from repro.observability import Tracer

        t = rel(
            ["name", "speciality", "street"],
            [("Anjuman", "Mughalai", "ElmSt")],
            ("name", "speciality"),
            "T",
        )
        tracer = Tracer()
        multiway = MultiwayIdentifier(
            {"R": example3.r, "S": example3.s, "T": t},
            example3.extended_key,
            ilfds=list(example3.ilfds),
            tracer=tracer,
        )
        multiway.integrate()
        metrics = tracer.metrics
        assert metrics.counter("multiway.sources") == 3
        assert metrics.counter("multiway.clusters") >= 1
        assert metrics.counter("multiway.conflicts") >= 1
