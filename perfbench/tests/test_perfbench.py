"""The benchmark's own tests.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import nway_build, pair_exact, run, serve_mixed  # noqa: E402
from perfbench.common import Outcome, Scratch, tail  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, seed: int = 3) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "3", "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Inputs come from the seed alone
# ----------------------------------------------------------------------
def _pair_exact_inputs(seed: int):
    inputs = pair_exact.setup(seed, pair_exact.SIZES["smoke"], None)
    return (
        [(list(map(dict, w.r)), list(map(dict, w.s)), sorted(map(repr, w.ilfds)),
          sorted(w.truth)) for w in inputs.workloads],
        [[(dict(r), dict(s)) for r, s in sample] for sample in inputs.samples],
    )


def _nway_inputs(seed: int):
    inputs = nway_build.setup(seed, nway_build.SIZES["smoke"], None)
    return [
        ({name: list(map(dict, rel)) for name, rel in i.sources.items()}, i.truth)
        for i in inputs.instances
    ]


def _serve_inputs(seed: int):
    workload = serve_mixed.generate(seed, serve_mixed.SIZES["smoke"])
    traffic = serve_mixed.Traffic(workload, seed)
    stream = [traffic.next("nominal", 0.0) for _ in range(300)]
    return (
        list(map(dict, workload.r)), list(map(dict, workload.s)), sorted(workload.truth),
        [(r.kind, r.side, r.key, r.row, r.partner) for r in stream],
    )


@pytest.mark.parametrize("make", [_pair_exact_inputs, _nway_inputs, _serve_inputs])
def test_same_seed_gives_identical_inputs(make):
    assert make(5) == make(5)
    assert make(5) != make(6)


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_passes_checks_and_prints_the_declared_metrics(workload):
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        result = _bench(workload, trace)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }


# ----------------------------------------------------------------------
# Wrong answers are caught
# ----------------------------------------------------------------------
def test_a_dropped_match_fails_pair_exact(monkeypatch):
    from repro.core.identifier import EntityIdentifier
    from repro.core.matching_table import MatchingTable

    original = EntityIdentifier.matching_table

    def drop_one(self):
        table = original(self)
        entries = list(table)[1:]
        smaller = MatchingTable(r_key_attributes=self.r_key_attributes,
                                s_key_attributes=self.s_key_attributes)
        for entry in entries:
            smaller.add(entry)
        return smaller

    monkeypatch.setattr(EntityIdentifier, "matching_table", drop_one)
    inputs = pair_exact.setup(2, pair_exact.SIZES["smoke"], None)
    outcome = Outcome()
    pair_exact.run_pass(inputs, outcome)
    assert outcome.failed == outcome.attempted > 0
    assert any("carried truth" in failure for failure in outcome.failures)


def test_a_dropped_cluster_fails_nway_build(monkeypatch):
    from repro.entities.graph import IdentityGraph

    original = IdentityGraph.clusters

    def drop_one(self):
        return original(self)[1:]

    monkeypatch.setattr(IdentityGraph, "clusters", drop_one)
    with Scratch() as scratch:
        inputs = nway_build.setup(2, nway_build.SIZES["smoke"], scratch)
        outcome = Outcome()
        nway_build.run_pass(inputs, outcome)
    assert outcome.failed == outcome.attempted > 0
    assert any("MultiwayIdentifier" in failure for failure in outcome.failures)


def test_a_missing_match_or_stale_answer_fails_serve_mixed():
    workload = serve_mixed.generate(4, serve_mixed.SIZES["smoke"])
    inputs = type("Inputs", (), {"workload": workload})()
    r_key, s_key = sorted(workload.truth)[0]

    def record(request, answer, sent, done):
        return serve_mixed.Sent(request, sent=sent, done=done, status=200,
                                body=json.dumps(answer).encode())

    def encode(pairs):
        return [{"r_key": [list(i) for i in r], "s_key": [list(i) for i in s]}
                for r, s in pairs]

    # A resolve whose match list lost the true pair.
    resolve = serve_mixed.Request(0.0, "nominal", "resolve", "r", r_key)
    outcome = Outcome()
    serve_mixed.check_all(inputs, outcome, [
        record(resolve, {"found": True, "matches": []}, 1.0, 2.0),
    ])
    assert outcome.failed == 1

    # An ingest that answered before a resolve was sent must be visible.
    new_key = (("dept", "Legal"), ("name", "Fresh Hire 1"))
    partner = next(s for _, s in workload.truth)
    ingest = serve_mixed.Request(0.0, "nominal", "ingest", "r", new_key,
                                 {"name": "Fresh Hire 1"}, partner)
    late = serve_mixed.Request(0.0, "nominal", "resolve", "s", partner)
    known = {pair for pair in workload.truth if pair[1] == partner}
    outcome = Outcome()
    serve_mixed.check_all(inputs, outcome, [
        record(ingest, {"inserted": True, "matches_added": encode([(new_key, partner)])},
               1.0, 2.0),
        record(late, {"found": True, "matches": encode(known)}, 3.0, 4.0),
    ])
    assert (outcome.attempted, outcome.failed) == (2, 1)
    assert "resolve" in outcome.failures[0]


def test_the_command_exits_nonzero_when_a_check_fails(monkeypatch, capsys):
    from repro.core.errors import CoreError
    from repro.core.identifier import EntityIdentifier

    def unsound(self):
        raise CoreError("seeded failure")

    monkeypatch.setattr(EntityIdentifier, "verify", unsound)
    affinity = os.sched_getaffinity(0)
    try:
        status = run.main(["--workload", "pair-exact", "--seed", "1", "--seconds", "0.5",
                           "--size", "smoke"])
    finally:
        os.sched_setaffinity(0, affinity)  # main() pins the process
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_tail_is_the_highest_ladder_percentile_with_ten_beyond():
    assert tail(list(range(20)))[0] == 50.0
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(1000)))[0] == 99.0
    with pytest.raises(ValueError):
        tail(list(range(19)))
