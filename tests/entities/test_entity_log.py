"""SqliteStore.entity_log: an indexed read that equals the journal scan."""

import sqlite3

import pytest

from repro.entities import IdentityGraph, build_entity_store
from repro.relational.attribute import string_attribute
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.store import MatchStore, SqliteStore
from repro.store.journal import KIND_ENTITY


def duplicated_graph():
    """A models Bob twice (with B) and Eve twice (alone): two violations."""

    def source(name, rows):
        schema = Schema(
            [string_attribute("code"), string_attribute("name")], keys=[("code",)]
        )
        return Relation(schema, rows, name=name)

    return IdentityGraph(
        {
            "A": source(
                "A",
                [("a1", "Bob"), ("a2", "Bob"), ("a3", "Eve"), ("a4", "Eve"), ("a5", "Ann")],
            ),
            "B": source("B", [("b1", "Bob"), ("b2", "Ann"), ("b3", "Cy")]),
        },
        ("name",),
    )


@pytest.fixture(params=["example3", "duplicated"])
def built_path(request, three_sources, example3, tmp_path):
    graph = (
        IdentityGraph(three_sources, example3.extended_key, ilfds=list(example3.ilfds))
        if request.param == "example3"
        else duplicated_graph()
    )
    path = tmp_path / "entities.sqlite"
    with SqliteStore(path) as store:
        build_entity_store(graph, store, timestamp=1000.0)
    return path


def logged_ids(store):
    return {
        entry.payload["entity_id"]
        for entry in store.journal_entries()
        if entry.kind == KIND_ENTITY
    }


def assert_equals_scan(store):
    ids = logged_ids(store) | {entity.entity_id for entity in store.entity_items()}
    assert ids
    for entity_id in sorted(ids) + ["ent-unknown"]:
        assert store.entity_log(entity_id) == MatchStore.entity_log(store, entity_id)
    assert store.entity_log("ent-unknown") == []


def test_indexed_log_equals_full_scan(built_path):
    with SqliteStore(built_path) as store:
        assert_equals_scan(store)
    with SqliteStore(built_path, read_only=True) as replica:
        assert_equals_scan(replica)


def test_violations_are_logged_under_their_entity(tmp_path):
    path = tmp_path / "entities.sqlite"
    with SqliteStore(path) as store:
        report = build_entity_store(duplicated_graph(), store, timestamp=1.0)
        assert report.violations == 2
        violations = [
            entry
            for entity_id in logged_ids(store)
            for entry in store.entity_log(entity_id)
            if entry.payload.get("event") == "violation"
        ]
    assert sorted(entry.payload["source"] for entry in violations) == ["A", "A"]


def test_query_plan_uses_the_index(built_path):
    with SqliteStore(built_path) as store:
        entity_id = min(logged_ids(store))
        statements = []
        store._conn.set_trace_callback(statements.append)
        store.entity_log(entity_id)
        store._conn.set_trace_callback(None)
        (query,) = [sql for sql in statements if "FROM journal" in sql]
        # Traced statements carry their bound values expanded on most
        # Python/SQLite builds; bind the id again where they do not.
        params = (entity_id,) if "?" in query else ()
        plan = " ".join(
            str(row[-1])
            for row in store._conn.execute("EXPLAIN QUERY PLAN " + query, params)
        )
    assert "USING INDEX journal_entity" in plan
    assert "SCAN journal" not in plan


def test_store_file_without_the_column_still_answers(built_path):
    """A file written before the entity_id column: scan read-only, migrate on open."""
    conn = sqlite3.connect(str(built_path))
    conn.executescript(
        """
        CREATE TABLE legacy (
            seq      INTEGER PRIMARY KEY AUTOINCREMENT,
            ts       REAL NOT NULL,
            kind     TEXT NOT NULL,
            rule     TEXT NOT NULL DEFAULT '',
            r_key    TEXT,
            s_key    TEXT,
            payload  TEXT NOT NULL DEFAULT '{}',
            checksum TEXT NOT NULL DEFAULT ''
        );
        INSERT INTO legacy
            SELECT seq, ts, kind, rule, r_key, s_key, payload, checksum FROM journal;
        DROP TABLE journal;
        ALTER TABLE legacy RENAME TO journal;
        """
    )
    conn.close()
    with SqliteStore(built_path, read_only=True) as replica:
        assert_equals_scan(replica)
    with SqliteStore(built_path) as store:  # migrates and backfills
        assert_equals_scan(store)
        column = store._conn.execute(
            "SELECT COUNT(entity_id) FROM journal WHERE kind = ?", (KIND_ENTITY,)
        ).fetchone()[0]
        assert column == len(store.journal_entries())
