"""``nway-build``: three sources to persisted golden records.

Each instance carves three overlapping sources with
``split_universe_many`` out of an employee-shaped universe.  The ILFD
family is fixed (the 13 ``dept → division`` rules) and the ``hr`` source
has no ``division``, so it must derive part of the extended key
``{name, division}``.  One operation runs the hash-blocked
``IdentityGraph``, closes it with ``clusters()``, builds the golden
records into a fresh SQLite file with ``build_entity_store`` and audits
them with ``verify_entity_store``.  The work is in extension, blocking,
closure, survivorship and store writes; rule evaluation does little.
"""

from __future__ import annotations

import contextlib
import os
import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable, ContextManager, Dict, FrozenSet, List, Optional, Tuple

import repro.entities.build as entities_build
from repro.blocking import make_blocker
from repro.core.matching_table import key_values
from repro.core.multiway import MultiwayIdentifier
from repro.entities import EntitiesError, IdentityGraph, cluster_fingerprint
from repro.ilfd.ilfd import ILFDSet
from repro.relational.relation import Relation
from repro.store import SqliteStore
from repro.workloads import (
    EmployeeWorkloadSpec,
    SideSpec,
    employee_workload,
    split_universe_many,
)

from perfbench.common import HostSpeed, Outcome, Timed, batch_figures, repeat

EXTENDED_KEY = ("name", "division")
SIDES = (
    SideSpec("hr", ("name", "dept", "title"), ("name", "dept"), membership=0.6),
    SideSpec("perf", ("name", "division", "rating"), ("name", "division"), membership=0.6),
    SideSpec("payroll", ("name", "division", "title"), ("name", "division"), membership=0.6),
)


@dataclass(frozen=True)
class Size:
    entities: int  # universe per instance
    instances: int


SIZES = {"standard": Size(300, 12), "smoke": Size(60, 2)}


@dataclass
class Instance:
    sources: Dict[str, Relation]
    truth: Dict[Tuple[str, str], FrozenSet[tuple]]
    ilfds: ILFDSet
    user_bytes: int  # the source rows as the user supplied them


@dataclass
class Inputs:
    instances: List[Instance]
    scratch: Any


def setup(seed: int, size: Size, scratch: Any) -> Inputs:
    rng = random.Random(seed)
    instances = []
    for _ in range(size.instances):
        # name_pool = half the universe: every name is shared by about
        # two people in different divisions (homonyms across sources).
        workload = employee_workload(
            EmployeeWorkloadSpec(
                n_entities=size.entities,
                name_pool=max(size.entities // 2, 1),
                seed=rng.randrange(2**31),
            )
        )
        sources, truth = split_universe_many(
            workload.universe, SIDES, seed=rng.randrange(2**31)
        )
        user_bytes = sum(
            len(",".join(str(v) for v in row.values())) + 1
            for relation in sources.values()
            for row in relation
        )
        instances.append(Instance(sources, truth, workload.ilfds, user_bytes))
    return Inputs(instances, scratch)


def close(inputs: Inputs) -> None:
    pass


def _cycle(instance: Instance, path: str, on_store: Optional[Callable[[Any], None]]
           ) -> Tuple[IdentityGraph, Any, Tuple[int, str], int]:
    """Graph → closure → golden records in a fresh store → audit."""
    graph = IdentityGraph(
        instance.sources,
        EXTENDED_KEY,
        ilfds=instance.ilfds,
        blocker_factory=lambda: make_blocker("hash"),
    )
    graph.clusters()
    store = SqliteStore(path)
    if on_store is not None:
        on_store(store)
    try:
        report = entities_build.build_entity_store(graph, store)
        verified = entities_build.verify_entity_store(store)
    finally:
        store.close()
    return graph, report, verified, os.path.getsize(path)


def _cluster_pairs(graph: IdentityGraph) -> Dict[Tuple[str, str], FrozenSet[tuple]]:
    """Per source pair, the (first key, second key) pairs the clusters imply."""
    pairs: Dict[Tuple[str, str], set] = {
        pair: set() for pair in combinations(graph.source_names, 2)
    }
    keys = {name: graph.source_key_attributes(name) for name in graph.source_names}
    for cluster in graph.clusters():
        for (first, row1), (second, row2) in combinations(cluster.members, 2):
            pairs[(first, second)].add(
                (key_values(row1, keys[first]), key_values(row2, keys[second]))
            )
    return {pair: frozenset(found) for pair, found in pairs.items()}


def _check(outcome: Outcome, instance: Instance, graph: IdentityGraph,
           report: Any, verified: Tuple[int, str]) -> bool:
    multiway = MultiwayIdentifier(instance.sources, EXTENDED_KEY, ilfds=instance.ilfds)
    ok = outcome.check(
        graph.fingerprint() == cluster_fingerprint(multiway.clusters()),
        "IdentityGraph clusters differ from MultiwayIdentifier's",
    )
    ok &= outcome.check(
        verified == (report.entities, report.fingerprint),
        "verify_entity_store disagrees with the build report",
    )
    ok &= outcome.check(report.is_sound, "entity build reports uniqueness violations")
    ok &= outcome.check(
        _cluster_pairs(graph) == instance.truth,
        "clusters are not pure against the split's truth",
    )
    return ok


def run_pass(
    inputs: Inputs,
    outcome: Outcome,
    *,
    seconds: Optional[float] = None,
    speed: Optional[HostSpeed] = None,
    pause: Callable[[], ContextManager[Any]] = contextlib.nullcontext,
    on_store: Optional[Callable[[Any], None]] = None,
) -> Dict[str, Any]:
    """Build the instances in turn (see ``common.repeat``).

    *on_store* sees each fresh store before the build writes to it;
    *pause* wraps the output checks.  The counts cover the first pass
    over the instances.
    """
    counts = {"clusters": 0, "decisions_logged": 0, "source_rows": 0,
              "store_bytes": 0, "user_bytes": 0, "matches": 0,
              "non_matches": 0, "undetermined": 0}

    def step(index: int, item: int) -> Optional[Timed]:
        instance = inputs.instances[item]
        rows = sum(len(relation) for relation in instance.sources.values())
        path = inputs.scratch.file(f"entities-{index}.sqlite")
        begin = time.perf_counter()
        try:
            graph, report, verified, size = _cycle(instance, path, on_store)
        except EntitiesError as exc:
            outcome.check(False, f"entity build raised {type(exc).__name__}: {exc}")
            outcome.operation(False)
            return None
        finally:
            for suffix in ("", "-wal", "-shm"):
                if os.path.exists(path + suffix):
                    os.remove(path + suffix)
        elapsed = time.perf_counter() - begin
        with pause():
            outcome.operation(_check(outcome, instance, graph, report, verified))
            if index == item:
                counts["clusters"] += report.entities
                counts["decisions_logged"] += report.decisions_logged
                counts["source_rows"] += rows
                counts["store_bytes"] += size
                counts["user_bytes"] += instance.user_bytes
                for first, second in graph.pair_names():
                    result = graph.pair_result(first, second)
                    counts["matches"] += len(result.matching)
                    counts["non_matches"] += len(result.negative)
                    counts["undetermined"] += result.undetermined_count
        return Timed(elapsed, rows)

    started = time.perf_counter()
    ops = repeat(len(inputs.instances), step, seconds=seconds, speed=speed)
    wall = time.perf_counter() - started
    return {"ops": ops, "counts": counts, "wall_s": wall}


def metrics(result: Dict[str, Any]) -> Dict[str, Any]:
    """Throughput is source rows carried to persisted golden records per
    second (``rows_per_s``); an operation is graph, closure, build and
    audit of one instance."""
    return batch_figures(result["ops"])
