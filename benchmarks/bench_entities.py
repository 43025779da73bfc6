"""X7 — entities: clustering throughput and golden-record build rate.

Two modes:

- pytest-benchmark (the shared harness): a small 3-source universe,
  timing ``IdentityGraph.clusters()`` (ILFD extension + grouping on the
  complete extended key) and ``build_entity_store`` into SQLite,
  asserting the build verifies against its sealed fingerprint.
- script mode (``python benchmarks/bench_entities.py``): the
  characterisation written machine-readable to ``BENCH_entities.json``
  — clustering throughput (source rows/s through extension and
  grouping; the series keeps its ``closure`` name) and golden-record
  build rate (entities/s persisted,
  survivorship + resolution log included) at 3×100k-entity scale
  (``--entities`` scales it down for slower hosts).  ``--smoke`` runs
  a 300-entity universe and skips the file writes (the CI check).
  ``--baseline`` flags the appended history records as the series'
  baselines for ``repro report bench-check``.

Honesty notes, recorded in the JSON itself: the universe gives every
entity a globally unique single-attribute extended key — the bench
measures the clustering and build machinery at scale, not pairwise
identification (which ``bench_blocking.py`` characterises).  The
conformance matrix separately proves the clusters equal the
pairwise-composition oracle's.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Dict, List, Optional, Sequence

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:  # script mode
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.core.extended_key import ExtendedKey
from repro.entities import (
    IdentityGraph,
    build_entity_store,
    verify_entity_store,
)
from repro.relational.relation import Relation
from repro.store import SqliteStore
from repro.workloads import SideSpec, split_universe_many

_SIDE_EXTRAS = ("street", "county", "phone", "grade", "dept")


def _universe(n: int) -> List[Dict[str, str]]:
    return [
        {
            "name": f"entity-{i:07d}",
            "division": f"div-{i % 97:02d}",
            **{extra: f"{extra}-{i % 1009}" for extra in _SIDE_EXTRAS},
        }
        for i in range(n)
    ]


def _sources(
    n_entities: int, n_sources: int, seed: int
) -> Dict[str, Relation]:
    """N overlapping sources sharing the unique ``name`` extended key."""
    sides = [
        SideSpec(
            name=f"S{index}",
            attributes=("name", "division", _SIDE_EXTRAS[index % len(_SIDE_EXTRAS)]),
            key=("name",),
            membership=0.8,
        )
        for index in range(n_sources)
    ]
    relations, _ = split_universe_many(_universe(n_entities), sides, seed=seed)
    return relations


def _bench_closure(sources: Dict[str, Relation]) -> dict:
    """ILFD extension + grouping on the complete extended key, rows/s."""
    total_rows = sum(len(rel) for rel in sources.values())
    start = time.perf_counter()
    graph = IdentityGraph(sources, ExtendedKey(("name",)))
    clusters = graph.clusters()
    closure_s = time.perf_counter() - start
    return {
        "rows": total_rows,
        "pairs": len(graph.pair_names()),
        "clusters": len(clusters),
        "members": sum(len(c) for c in clusters),
        "closure_s": round(closure_s, 3),
        "rows_per_s": round(total_rows / closure_s, 1) if closure_s else None,
        "_graph": graph,
    }


def _bench_build(graph: IdentityGraph, path: str) -> dict:
    """Persist golden records + resolution log; entities/s, then verify."""
    store = SqliteStore(path)
    try:
        start = time.perf_counter()
        report = build_entity_store(graph, store)
        build_s = time.perf_counter() - start
        start = time.perf_counter()
        count, _ = verify_entity_store(store)
        verify_s = time.perf_counter() - start
    finally:
        store.close()
    assert count == report.entities
    return {
        "entities": report.entities,
        "members": report.members,
        "decisions_logged": report.decisions_logged,
        "sound": report.is_sound,
        "build_s": round(build_s, 3),
        "entities_per_s": round(report.entities / build_s, 1)
        if build_s
        else None,
        "verify_s": round(verify_s, 3),
        "store_bytes": Path(path).stat().st_size,
    }


# ----------------------------------------------------------------------
# pytest-benchmark mode
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_sources():
    return _sources(300, 3, seed=11)


def test_closure(benchmark, small_sources):
    def run():
        return IdentityGraph(small_sources, ExtendedKey(("name",))).clusters()

    clusters = benchmark(run)
    assert clusters


def test_build_store(benchmark, small_sources, tmp_path):
    graph = IdentityGraph(small_sources, ExtendedKey(("name",)))
    graph.clusters()  # resolve once; the bench times persistence
    counter = iter(range(10_000))

    def run():
        path = tmp_path / f"bench-{next(counter)}.sqlite"
        store = SqliteStore(path)
        try:
            return build_entity_store(graph, store)
        finally:
            store.close()

    report = benchmark(run)
    assert report.entities > 0 and report.is_sound


# ----------------------------------------------------------------------
# Script mode
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Entities bench; writes BENCH_entities.json."
    )
    parser.add_argument(
        "--entities",
        type=int,
        default=100_000,
        help="universe size shared by the sources (default 100000)",
    )
    parser.add_argument(
        "--sources",
        type=int,
        default=3,
        help="number of overlapping sources (default 3)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--out",
        default=str(_REPO_ROOT / "BENCH_entities.json"),
        help="output JSON path (default: BENCH_entities.json at the repo root)",
    )
    parser.add_argument(
        "--history",
        default=None,
        help="bench-history JSONL to append to "
        "(default: BENCH_HISTORY.jsonl at the repo root)",
    )
    parser.add_argument(
        "--baseline",
        action="store_true",
        help="flag the appended history records as series baselines",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="300-entity universe, skip the file writes (CI)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        sources = _sources(300, args.sources, seed=args.seed)
        closure = _bench_closure(sources)
        graph = closure.pop("_graph")
        with TemporaryDirectory() as tmp_dir:
            build = _bench_build(graph, str(Path(tmp_dir) / "smoke.sqlite"))
        print(
            f"smoke: {closure['rows']} rows -> {closure['clusters']} clusters "
            f"({closure['rows_per_s']} rows/s), "
            f"{build['entities']} golden records "
            f"({build['entities_per_s']} entities/s)"
        )
        assert closure["clusters"] > 0, "closure produced no clusters"
        assert build["sound"], "the smoke universe must satisfy uniqueness"
        return 0

    import json

    from conftest import env_header
    from history import record_series

    report = {
        "bench": "entities",
        "env": env_header(),
        "entities": args.entities,
        "sources": args.sources,
        "note": "Every entity carries a globally unique single-attribute "
        "extended key: the bench characterises clustering (ILFD "
        "extension + grouping on the complete extended key) and the "
        "golden-record build/persist machinery at scale, not pairwise "
        "identification (see bench_blocking.py). "
        "closure.rows_per_s counts source rows through extension and "
        "grouping; build.entities_per_s counts golden "
        "records persisted with survivorship decisions and the "
        "resolution log journaled.",
    }
    print(
        f"building {args.sources} sources over {args.entities} entities ...",
        flush=True,
    )
    sources = _sources(args.entities, args.sources, seed=args.seed)
    print("  benching closure ...", flush=True)
    closure = _bench_closure(sources)
    graph = closure.pop("_graph")
    report["closure"] = closure
    with TemporaryDirectory() as tmp_dir:
        print("  benching entity-store build ...", flush=True)
        report["build"] = _bench_build(
            graph, str(Path(tmp_dir) / "entities.sqlite")
        )

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    closure, build = report["closure"], report["build"]
    print(
        f"  closure: {closure['rows']} rows -> {closure['clusters']} "
        f"clusters in {closure['closure_s']}s ({closure['rows_per_s']} rows/s)"
    )
    print(
        f"  build: {build['entities']} golden records in {build['build_s']}s "
        f"({build['entities_per_s']} entities/s, verify {build['verify_s']}s)"
    )

    record_series(
        "entities",
        [
            ("closure_rows_per_s", "throughput", closure["rows_per_s"], closure["rows"]),
            ("golden_build_per_s", "throughput", build["entities_per_s"], build["entities"]),
        ],
        env=report["env"],
        history_path=args.history,
        baseline=args.baseline,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
