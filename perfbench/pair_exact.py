"""``pair-exact``: exact two-source identification, no blocker.

Each instance is a scaled restaurant workload (``workloads.restaurants``)
whose entities carry their own ILFDs, so the number of Proposition-1
distinctness rules grows with size and nearly all the time goes to rule
evaluation for the full negative matching table.  ``EntityIdentifier.run``
gives the exact MT, the full NMT and the soundness verdict.  The store,
serving and the cache are not used.

One operation is one ``run()`` over one instance; the run cycles over
the seed's instances until its time is up.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, List, Optional

from repro import EntityIdentifier
from repro.core.errors import CoreError
from repro.core.matching_table import key_values
from repro.rules import MatchStatus
from repro.workloads import RestaurantWorkloadSpec, Workload, restaurant_workload

from perfbench.common import HostSpeed, Outcome, Timed, batch_figures, repeat


@dataclass(frozen=True)
class Size:
    entities: int  # universe per instance (≈ 0.75 of it lands on each side)
    instances: int  # distinct instances derived from the seed
    sample: int  # pairs per operation re-checked with classify_pair


SIZES = {"standard": Size(24, 24, 8), "smoke": Size(8, 2, 4)}
_R_KEY = ("name", "cuisine")
_S_KEY = ("name", "speciality")


@dataclass
class Inputs:
    workloads: List[Workload]
    samples: List[List[tuple]]  # per instance: (r_row, s_row) pairs to re-check


def setup(seed: int, size: Size, scratch: Any) -> Inputs:
    rng = random.Random(seed)
    workloads = [
        restaurant_workload(
            RestaurantWorkloadSpec(n_entities=size.entities, seed=rng.randrange(2**31))
        )
        for _ in range(size.instances)
    ]
    samples = []
    for workload in workloads:
        # Half the sample are true matches, half random pairs (mostly
        # NMT members, some undetermined).
        r_rows, s_rows = list(workload.r), list(workload.s)
        r_by_key = {key_values(row, _R_KEY): row for row in r_rows}
        s_by_key = {key_values(row, _S_KEY): row for row in s_rows}
        truth = sorted(workload.truth)
        sample = [
            (r_by_key[r_key], s_by_key[s_key])
            for r_key, s_key in rng.sample(truth, min(len(truth), size.sample // 2))
        ]
        while len(sample) < size.sample:
            sample.append((rng.choice(r_rows), rng.choice(s_rows)))
        samples.append(sample)
    return Inputs(workloads, samples)


def close(inputs: Inputs) -> None:
    pass


def _identify(workload: Workload):
    identifier = EntityIdentifier(
        workload.r, workload.s, workload.extended_key, ilfds=workload.ilfds
    )
    return identifier, identifier.run()


def _check(
    outcome: Outcome, workload: Workload, identifier: Any, result: Any, sample: List[tuple]
) -> bool:
    matches = result.matching.pairs()
    non_matches = result.negative.pairs()
    ok = outcome.check(matches == workload.truth, "MT differs from the carried truth")
    ok &= outcome.check(result.report.is_sound, "matching table is not sound")
    ok &= outcome.check(not (matches & non_matches), "a pair is in both MT and NMT")
    r_key = identifier.r_key_attributes
    s_key = identifier.s_key_attributes
    for r_row, s_row in sample:
        pair = (key_values(r_row, r_key), key_values(s_row, s_key))
        expected = (
            MatchStatus.MATCH if pair in matches
            else MatchStatus.NON_MATCH if pair in non_matches
            else MatchStatus.UNKNOWN
        )
        ok &= outcome.check(
            identifier.classify_pair(dict(r_row), dict(s_row)) is expected,
            f"classify_pair disagrees with MT/NMT membership for {pair!r}",
        )
    return ok


def run_pass(
    inputs: Inputs,
    outcome: Outcome,
    *,
    seconds: Optional[float] = None,
    speed: Optional[HostSpeed] = None,
    pause: Callable[[], ContextManager[Any]] = contextlib.nullcontext,
) -> Dict[str, Any]:
    """Identify the instances in turn (see ``common.repeat``).

    *pause* wraps the output checks.  The counts cover the first pass
    over the instances, so they depend on the seed alone.
    """
    counts = {"matches": 0, "non_matches": 0, "undetermined": 0, "source_rows": 0}

    def step(index: int, item: int) -> Optional[Timed]:
        workload = inputs.workloads[item]
        begin = time.perf_counter()
        try:
            identifier, result = _identify(workload)
        except CoreError as exc:
            outcome.check(False, f"run() raised {type(exc).__name__}: {exc}")
            outcome.operation(False)
            return None
        elapsed = time.perf_counter() - begin
        with pause():
            outcome.operation(_check(outcome, workload, identifier, result, inputs.samples[item]))
        if index == item:
            counts["matches"] += len(result.matching)
            counts["non_matches"] += len(result.negative)
            counts["undetermined"] += result.undetermined_count
            counts["source_rows"] += len(workload.r) + len(workload.s)
        return Timed(elapsed, result.pair_count)

    started = time.perf_counter()
    ops = repeat(len(inputs.workloads), step, seconds=seconds, speed=speed)
    wall = time.perf_counter() - started
    return {"ops": ops, "counts": counts, "wall_s": wall}


def metrics(result: Dict[str, Any]) -> Dict[str, Any]:
    """Throughput is R×S pairs classified per second (``pairs_per_s``);
    an operation is one ``run()`` over one instance."""
    return batch_figures(result["ops"])
