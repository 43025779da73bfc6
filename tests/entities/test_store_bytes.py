"""The persisted bytes of an entity build are pinned, table by table.

A build with a fixed timestamp must write exactly these rows: every
column of ``source_rows``, ``entities``, ``journal`` and ``meta``,
hashed in a fixed order.  The digests were taken from the build path
that encoded every value through the store's per-row methods, so any
faster write path has to reproduce the same file content.  The
typed-key fixture puts ``1``, ``1.0`` and ``True`` in one cluster: they
are equal and hash equal in Python but encode to three different key
texts, so a text memo keyed by value, or a row ``ext_key`` taken from
the cluster instead of the row, changes a digest.
"""

import hashlib
import json
import sqlite3

import pytest

from repro.entities import IdentityGraph, build_entity_store, verify_entity_store
from repro.relational.attribute import Attribute, Domain, string_attribute
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.store import SqliteStore

TABLES = {
    "source_rows": "SELECT side, key, raw, extended, ext_key FROM source_rows "
    "ORDER BY side, key",
    "entities": "SELECT entity_id, ext_key, golden, members FROM entities "
    "ORDER BY entity_id",
    "journal": "SELECT seq, ts, kind, rule, r_key, s_key, payload, checksum "
    "FROM journal ORDER BY seq",
    "meta": "SELECT key, value FROM meta ORDER BY key",
}

EXPECTED = {
    ("example3", "single"): {
        "source_rows": "403dd74e7252f2c873da08cf0c5483ae1fe767846f0e7c848e145ae481c59de5",
        "entities": "8712fdb2ffe4f5d2d30ee693bdd451834bc5ea609e7b743245117138e6ff3b30",
        "journal": "3fd6a97feb0c0e4775ee082459e15d7cbac2a1ffce3450edda50a7e4025b3c70",
        "meta": "6bebb6780f46da421065215066683fb74d6e23c4eee6acbdbc75d7e28b077a93",
    },
    ("example3", "batched"): {
        "source_rows": "403dd74e7252f2c873da08cf0c5483ae1fe767846f0e7c848e145ae481c59de5",
        "entities": "8712fdb2ffe4f5d2d30ee693bdd451834bc5ea609e7b743245117138e6ff3b30",
        "journal": "3fd6a97feb0c0e4775ee082459e15d7cbac2a1ffce3450edda50a7e4025b3c70",
        "meta": "16b7dffd536ba680aa519ea98dbb7effa00ccfff88c86d3f0aa704e9e8ebd751",
    },
    ("typed", "single"): {
        "source_rows": "5c065c2c7db55253961b8cb85dda2d6db755b587224f9ffbea10d4c14b1f7b51",
        "entities": "9368d9ca1a3d792c395874602873a7bc84474f1a743117c316bfc8c0d0831734",
        "journal": "9c04ebf429df7666ee0ccab0a57d9fa3eca9d8b2945fca47acee7c48c5d6487c",
        "meta": "e56dfdb08a41f3cca5569d621a6f62148dd72570f7d32800089d4b32fc22c252",
    },
    ("typed", "batched"): {
        "source_rows": "5c065c2c7db55253961b8cb85dda2d6db755b587224f9ffbea10d4c14b1f7b51",
        "entities": "9368d9ca1a3d792c395874602873a7bc84474f1a743117c316bfc8c0d0831734",
        "journal": "9c04ebf429df7666ee0ccab0a57d9fa3eca9d8b2945fca47acee7c48c5d6487c",
        "meta": "5f8c85b9d9d37d5ba9dd2d26350c0581ecfcfdafa6f9b7e51416ce4f3d4e31d9",
    },
}


def table_digests(path):
    conn = sqlite3.connect(str(path))
    try:
        return {
            table: hashlib.sha256(
                json.dumps([list(row) for row in conn.execute(query)]).encode()
            ).hexdigest()
            for table, query in TABLES.items()
        }
    finally:
        conn.close()


def typed_graph():
    """Three sources keyed by ``id``: int 1/2, float 1.0/-0.0, bool True."""

    def source(name, dtype, rows):
        schema = Schema(
            [Attribute("id", Domain(dtype)), string_attribute("label")],
            keys=[("id",)],
        )
        return Relation(schema, rows, name=name)

    return IdentityGraph(
        {
            "ints": source("ints", int, [(1, "one"), (2, "two")]),
            "floats": source("floats", float, [(1.0, "uno"), (-0.0, "zero")]),
            "bools": source("bools", bool, [(True, "yes")]),
        },
        ("id",),
    )


@pytest.fixture
def graphs(three_sources, example3):
    return {
        "example3": lambda: IdentityGraph(
            three_sources, example3.extended_key, ilfds=list(example3.ilfds)
        ),
        "typed": typed_graph,
    }


@pytest.mark.parametrize("mode", ["single", "batched"])
@pytest.mark.parametrize("fixture", ["example3", "typed"])
def test_store_bytes_are_pinned(graphs, fixture, mode, tmp_path):
    path = tmp_path / "entities.sqlite"
    store = SqliteStore(path)
    try:
        build_entity_store(
            graphs[fixture](),
            store,
            timestamp=1000.0,
            batch_size=1 if mode == "batched" else None,
        )
        store.verify_journal()
        verify_entity_store(store)
    finally:
        store.close()
    assert table_digests(path) == EXPECTED[(fixture, mode)]


def test_typed_cluster_keeps_each_members_own_key_text(tmp_path):
    path = tmp_path / "entities.sqlite"
    with SqliteStore(path) as store:
        build_entity_store(typed_graph(), store, timestamp=1000.0)
        (entity,) = [e for e in store.entity_items() if len(e) == 3]
        conn = sqlite3.connect(str(path))
        ext_keys = dict(conn.execute("SELECT side, ext_key FROM source_rows "
                                     "WHERE key LIKE '%1%' OR key LIKE '%true%'"))
        conn.close()
    assert [type(key[0][1]) for _, key in entity.members] == [int, float, bool]
    assert ext_keys == {
        "ints": '[["id",1]]',
        "floats": '[["id",1.0]]',
        "bools": '[["id",true]]',
    }
