"""Tests for the EntityIdentifier pipeline (the paper's Figure 4)."""

import pytest

from repro.core.correspondence import AttributeCorrespondence
from repro.core.errors import CoreError
from repro.core.identifier import EntityIdentifier
from repro.core.matching_table import key_values
from repro.ilfd.derivation import DerivationPolicy
from repro.ilfd.ilfd import ILFD
from repro.relational.attribute import string_attribute
from repro.relational.nulls import NULL, is_null
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.rules.engine import MatchStatus
from repro.store.journal import KIND_DISTINCTNESS
from repro.store.memory import MemoryStore
from repro.workloads import RestaurantWorkloadSpec, restaurant_workload


class TestExample2Pipeline:
    """Tables 2–4: extended key {name, cuisine} + the Mughalai ILFD."""

    def _identifier(self, example2):
        return EntityIdentifier(
            example2.r,
            example2.s,
            example2.extended_key,
            ilfds=list(example2.ilfds),
        )

    def test_matching_table_is_table3(self, example2):
        matching = self._identifier(example2).matching_table()
        assert matching.pairs() == example2.truth

    def test_matching_table_view(self, example2):
        view = self._identifier(example2).matching_table().to_relation()
        row = view.rows[0]
        assert row["R.name"] == "TwinCities"
        assert row["R.cuisine"] == "Indian"
        assert row["S.name"] == "TwinCities"

    def test_negative_table_is_table4(self, example2):
        negative = self._identifier(example2).negative_matching_table()
        # exactly the Chinese-TwinCities / Mughalai-TwinCities pair
        assert len(negative) == 1
        e = next(iter(negative))
        assert dict(e.r_key)["cuisine"] == "Chinese"
        assert dict(e.s_key)["speciality"] == "Mughalai"

    def test_soundness_report(self, example2):
        report = self._identifier(example2).verify()
        assert report.is_sound
        assert "verified" in report.message

    def test_run_bundles_counts(self, example2):
        result = self._identifier(example2).run()
        assert result.pair_count == 2
        assert len(result.matching) == 1
        assert len(result.negative) == 1
        assert result.undetermined_count == 0
        assert result.is_complete()


class TestExample3Pipeline:
    def _identifier(self, example3, **kwargs):
        return EntityIdentifier(
            example3.r,
            example3.s,
            example3.extended_key,
            ilfds=list(example3.ilfds),
            **kwargs,
        )

    def test_extended_relations_are_table6(self, example3):
        extended_r, extended_s = self._identifier(example3).extended_relations()
        r_rows = {row["name"] + "/" + str(row["cuisine"]): row for row in extended_r}
        assert r_rows["TwinCities/Chinese"]["speciality"] == "Hunan"
        assert is_null(r_rows["TwinCities/Indian"]["speciality"])
        assert r_rows["It'sGreek/Greek"]["speciality"] == "Gyros"
        assert r_rows["Anjuman/Indian"]["speciality"] == "Mughalai"
        assert is_null(r_rows["VillageWok/Chinese"]["speciality"])
        s_rows = {row["name"] + "/" + row["speciality"]: row for row in extended_s}
        assert s_rows["TwinCities/Hunan"]["cuisine"] == "Chinese"
        assert s_rows["TwinCities/Sichuan"]["cuisine"] == "Chinese"
        assert s_rows["It'sGreek/Gyros"]["cuisine"] == "Greek"
        assert s_rows["Anjuman/Mughalai"]["cuisine"] == "Indian"

    def test_matching_table_is_table7(self, example3):
        matching = self._identifier(example3).matching_table()
        assert matching.pairs() == example3.truth
        assert len(matching) == 3

    def test_sound(self, example3):
        assert self._identifier(example3).verify().is_sound

    def test_all_consistent_policy_agrees(self, example3):
        first = self._identifier(example3).matching_table()
        chased = self._identifier(
            example3, policy=DerivationPolicy.ALL_CONSISTENT
        ).matching_table()
        assert first.pairs() == chased.pairs()

    def test_classify_pair(self, example3):
        identifier = self._identifier(example3)
        r_rows = {row["name"] + "/" + row["cuisine"]: row for row in example3.r}
        s_rows = {row["name"] + "/" + row["speciality"]: row for row in example3.s}
        assert (
            identifier.classify_pair(
                r_rows["TwinCities/Chinese"], s_rows["TwinCities/Hunan"]
            )
            is MatchStatus.MATCH
        )
        assert (
            identifier.classify_pair(
                r_rows["TwinCities/Indian"], s_rows["TwinCities/Hunan"]
            )
            is MatchStatus.NON_MATCH
        )
        assert (
            identifier.classify_pair(
                r_rows["VillageWok/Chinese"], s_rows["TwinCities/Sichuan"]
            )
            is MatchStatus.UNKNOWN
        )

    def test_consistency_between_tables(self, example3):
        result = self._identifier(example3).run()
        assert not (result.matching.pairs() & result.negative.pairs())

    def test_without_ilfd_distinctness(self, example3):
        identifier = self._identifier(example3, derive_ilfd_distinctness=False)
        assert len(identifier.negative_matching_table()) == 0

    def test_journal_names_the_first_firing_rule(self, example3):
        # Up to four ILFD duals fire on one pair; the journal names the
        # first in declaration order, pair by pair in row-major order.
        store = MemoryStore()
        identifier = self._identifier(example3, store=store)
        identifier.negative_matching_table()
        journal = _distinctness_journal(store)
        assert [rule for _, _, rule in journal] == [
            "I5", "I1", "I1", "I1", "I2", "I3", "I1",
            "I2", "I3", "I1", "I2", "I3", "I3", "I4",
        ]
        assert journal == _pairwise_journal(identifier)
        fired = identifier.rules.firing_distinctness_rules
        assert max(
            len(fired(entry.r_row, entry.s_row))
            for entry in identifier.negative_matching_table()
        ) == 4


def _distinctness_journal(store):
    return [
        (entry.r_key, entry.s_key, entry.rule)
        for entry in store.journal_entries()
        if entry.kind == KIND_DISTINCTNESS
    ]


def _pairwise_journal(identifier):
    """(R key, S key, first firing rule) over R'×S', row-major."""
    extended_r, extended_s = identifier.extended_relations()
    out = []
    for r_row in extended_r:
        for s_row in extended_s:
            fired = identifier.rules.firing_distinctness_rules(r_row, s_row)
            if fired:
                out.append(
                    (
                        key_values(r_row, identifier.r_key_attributes),
                        key_values(s_row, identifier.s_key_attributes),
                        fired[0].name,
                    )
                )
    return out


def test_restaurant_workload_journal_matches_pairwise():
    workload = restaurant_workload(RestaurantWorkloadSpec(n_entities=30, seed=11))
    store = MemoryStore()
    identifier = EntityIdentifier(
        workload.r, workload.s, workload.extended_key, ilfds=workload.ilfds, store=store
    )
    table = identifier.negative_matching_table()
    expected = _pairwise_journal(identifier)
    assert [(e.r_key, e.s_key) for e in table] == [(r, s) for r, s, _ in expected]
    assert _distinctness_journal(store) == expected
    fired = identifier.rules.firing_distinctness_rules
    assert any(len(fired(e.r_row, e.s_row)) >= 2 for e in table)


class TestUnsoundKeys:
    def test_name_only_key_is_unsound(self, example3):
        identifier = EntityIdentifier(
            example3.r, example3.s, ["name"], ilfds=list(example3.ilfds)
        )
        report = identifier.verify()
        assert not report.is_sound
        assert "unsound" in report.message
        with pytest.raises(Exception):
            report.raise_if_unsound()

    def test_name_cuisine_key_is_unsound(self, example3):
        # both TwinCities S-tuples derive cuisine=Chinese
        identifier = EntityIdentifier(
            example3.r, example3.s, ["name", "cuisine"], ilfds=list(example3.ilfds)
        )
        assert not identifier.verify().is_sound


class TestCorrespondences:
    def test_local_names_unified(self):
        r = Relation(
            Schema(
                [string_attribute("rname"), string_attribute("rcui")],
                keys=[("rname", "rcui")],
            ),
            [("TwinCities", "Indian")],
            name="R",
        )
        s = Relation(
            Schema(
                [string_attribute("sname"), string_attribute("sspec")],
                keys=[("sname", "sspec")],
            ),
            [("TwinCities", "Mughalai")],
            name="S",
        )
        correspondence = AttributeCorrespondence(
            r_map={"rname": "name", "rcui": "cuisine"},
            s_map={"sname": "name", "sspec": "speciality"},
        )
        identifier = EntityIdentifier(
            r,
            s,
            ["name", "cuisine"],
            ilfds=[ILFD({"speciality": "Mughalai"}, {"cuisine": "Indian"})],
            correspondence=correspondence,
        )
        assert len(identifier.matching_table()) == 1


class TestAssertedMatches:
    def test_user_asserted_entry_lands_in_table(self, example3):
        identifier = EntityIdentifier(
            example3.r,
            example3.s,
            example3.extended_key,
            ilfds=[],  # no ILFDs: nothing matches automatically
            asserted_matches=[
                (
                    {"name": "VillageWok", "cuisine": "Chinese"},
                    {"name": "TwinCities", "speciality": "Sichuan"},
                )
            ],
        )
        matching = identifier.matching_table()
        assert len(matching) == 1

    def test_unknown_assertion_rejected(self, example3):
        identifier = EntityIdentifier(
            example3.r,
            example3.s,
            example3.extended_key,
            asserted_matches=[({"name": "Nobody"}, {"name": "NoOne"})],
        )
        with pytest.raises(CoreError):
            identifier.matching_table()


class TestIncrementalKnowledge:
    def test_more_ilfds_more_matches(self, example3):
        ilfds = list(example3.ilfds)
        few = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=ilfds[:4]
        ).matching_table()
        all_ = EntityIdentifier(
            example3.r, example3.s, example3.extended_key, ilfds=ilfds
        ).matching_table()
        assert few.pairs() <= all_.pairs()
        assert len(all_) > len(few)
