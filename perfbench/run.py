"""One benchmark command for the repository: three seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pair-exact --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` instead runs the workload's fixed work untraced, with
every layer's public entry points wrapped, and untraced again, and
reports self time per layer (see ``perfbench/layers.py``); the layer
table and the spans are written to ``.perfbench_out/``.

Every operation's output is checked.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit status is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import nway_build, pair_exact, serve_mixed  # noqa: E402
from perfbench.common import (  # noqa: E402
    HostSpeed,
    Outcome,
    Scratch,
    host_record,
    median,
    output_dir,
    peak_rss_mb,
    pin_to_one_cpu,
)
from perfbench.layers import LAYERS, LayerTracer, install_pipeline, install_serving  # noqa: E402

WORKLOADS = {
    "pair-exact": pair_exact,
    "nway-build": nway_build,
    "serve-mixed": serve_mixed,
}
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = {"pair-exact": 5, "nway-build": 5, "serve-mixed": 3}

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "ilfd.extend_s": "s",
    "ilfd.rows_extended": "count",
    "ilfd.extensions_per_source_row": "ratio",
    "blocking.block_s": "s",
    "blocking.candidates": "count",
    "blocking.useful_ratio": "ratio",
    "rules.evaluate_s": "s",
    "rules.rule_evaluations": "count",
    "rules.nmt_yield": "ratio",
    "core.matching_table_s": "s",
    "core.negative_table_s": "s",
    "core.verify_s": "s",
    "core.matches": "count",
    "core.non_matches": "count",
    "core.undetermined": "count",
    "entities.pairwise_s": "s",
    "entities.closure_s": "s",
    "entities.build_s": "s",
    "entities.verify_s": "s",
    "entities.clusters": "count",
    "entities.decisions_logged": "count",
    "store.write_s": "s",
    "store.commits": "count",
    "store.bytes_per_user_byte": "ratio",
    "serving.http_overhead_ms": "ms",
    "serving.resolve_service_ms": "ms",
    "serving.ingest_service_ms": "ms",
    "serving.replica_read_ms": "ms",
    "serving.cache_hit_ratio": "ratio",
    "serving.cache_evictions": "count",
    "serving.cache_invalidations": "count",
    "serving.shed": "count",
    "serving.generator_lateness_ms": "ms",
    "serving.max_ok_rps": "1/s",
    "serving.resolve_p50_ms": "ms",
    "serving.resolve_p99_ms": "ms",
    "serving.ingest_p50_ms": "ms",
    "serving.ingest_p95_ms": "ms",
    **{f"{layer}.self_pct": "%" for layer in LAYERS},
    "unattributed_pct": "%",
    "trace_overhead_pct": "%",
}


def _timed_setups(module: Any, seed: int, size: Any, scratch: Scratch,
                  repeats: int, speed: HostSpeed) -> tuple:
    """Set up *repeats* times, each timed at the reference host speed;
    keep the last inputs, close the others."""
    times: List[float] = []
    inputs = None
    before = speed.probe()
    for _ in range(repeats):
        if inputs is not None:
            module.close(inputs)
        begin = time.perf_counter()
        inputs = module.setup(seed, size, scratch)
        elapsed = time.perf_counter() - begin
        slowdown, before = speed.around(before)
        times.append(elapsed / slowdown)
    return inputs, times


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, size_name: str,
            outcome: Outcome, report: Dict[str, Any]) -> Dict[str, float]:
    module = WORKLOADS[name]
    size = module.SIZES[size_name]
    speed = HostSpeed()
    with Scratch() as scratch:
        inputs, setups = _timed_setups(module, seed, size, scratch,
                                       SETUP_REPEATS[name], speed)
        try:
            if name == "serve-mixed":
                result = module.run_http(inputs, outcome, seconds, normalize=True)
                report["server_stats"] = result["stats"]
            else:
                result = module.run_pass(inputs, outcome, seconds=seconds, speed=speed)
        finally:
            module.close(inputs)
    try:
        if name == "serve-mixed":
            figures = module.metrics(result, inputs)
            report["client"] = module.client_breakdown(result)
        else:
            figures = module.metrics(result)
    except ValueError as exc:  # too few successful operations to summarise
        outcome.check(False, f"no figures: {exc}")
        figures = {metric: 0.0 for metric in END_TO_END}
    report["setup_times_s"] = setups
    report["figures"] = figures
    return {
        "setup_s": median(setups),
        "throughput_per_s": figures["throughput_per_s"],
        "latency_p50_ms": figures["latency_p50_ms"],
        "peak_rss_mb": peak_rss_mb(include_children=True),
    }


# ----------------------------------------------------------------------
# --trace 1: per-layer self time
# ----------------------------------------------------------------------
def _traced(install: Callable[[LayerTracer], None],
            work: Callable[[Optional[LayerTracer]], Any],
            durations: Callable[[Any], List[float]]):
    """Run *work* untraced, traced, untraced; returns (tracer, traced
    result, its wall time, tracing overhead in %).

    Each result carries the wall time of its measured window as
    ``wall_s``; *durations* lists its operations in a fixed order.  The
    overhead is the median over operations of the traced time against
    the mean of the two untraced times, so host-speed drift during the
    passes mostly cancels.
    """
    first = durations(work(None))
    tracer = LayerTracer()
    install(tracer)
    try:
        result = work(tracer)
    finally:
        tracer.restore()
    last = durations(work(None))
    ratios = [
        traced / ((before + after) / 2.0)
        for traced, before, after in zip(durations(result), first, last)
    ]
    return tracer, result, result["wall_s"], 100.0 * (median(ratios) - 1.0)


def trace(name: str, seed: int, seconds: float, size_name: str,
          outcome: Outcome, report: Dict[str, Any]) -> Dict[str, float]:
    module = WORKLOADS[name]
    size = module.SIZES[size_name]
    values: Dict[str, float] = {metric: 0.0 for metric in PER_LAYER}
    with Scratch() as scratch:
        inputs = module.setup(seed, size, scratch)
        try:
            if name == "serve-mixed":
                http = module.run_http(inputs, outcome, seconds)
                records = http["records"]

                def work(tracer: Optional[LayerTracer]) -> Any:
                    return module.replay(inputs, outcome, records)

                tracer, result, wall, overhead = _traced(
                    install_serving, work, lambda result: result["durations"]
                )
                _serving_figures(module, http, result, tracer, values, report)
                counts: Dict[str, int] = {"source_rows": result["ingests"]}
            else:
                def work(tracer: Optional[LayerTracer]) -> Any:
                    if tracer is None:
                        return module.run_pass(inputs, outcome)
                    kwargs = {"on_store": tracer.wrap_store} if name == "nway-build" else {}
                    return module.run_pass(inputs, outcome, pause=tracer.paused, **kwargs)

                tracer, result, wall, overhead = _traced(
                    install_pipeline, work, lambda result: [op.seconds for op in result["ops"]]
                )
                counts = result["counts"]
        finally:
            module.close(inputs)

    table = tracer.layer_table(wall)
    table["trace_overhead_pct"] = overhead
    _layer_figures(tracer, table, counts, values)
    out = output_dir()
    stem = f"{name}-seed{seed}"
    (out / f"{stem}-layers.json").write_text(
        json.dumps({"workload": name, "seed": seed, "size": size_name,
                    "host": report["host"], **table}, indent=2) + "\n"
    )
    tracer.write_spans(str(out / f"{stem}-spans.jsonl"))
    report["layer_table"] = table
    return values


def _layer_figures(tracer: LayerTracer, table: Dict[str, Any],
                   counts: Dict[str, int], values: Dict[str, float]) -> None:
    own = tracer.self_by_name
    c = tracer.counts
    values["ilfd.extend_s"] = tracer.self_by_layer.get("ilfd", 0.0)
    values["ilfd.rows_extended"] = c.get("ilfd.rows_extended", 0)
    if counts.get("source_rows"):
        values["ilfd.extensions_per_source_row"] = (
            c.get("ilfd.rows_extended", 0) / counts["source_rows"]
        )
    values["blocking.block_s"] = tracer.self_by_layer.get("blocking", 0.0)
    values["blocking.candidates"] = c.get("blocking.candidates", 0)
    if c.get("blocking.candidates"):
        values["blocking.useful_ratio"] = c.get("blocking.useful", 0) / c["blocking.candidates"]
    values["rules.evaluate_s"] = tracer.self_by_layer.get("rules", 0.0)
    values["rules.rule_evaluations"] = c.get("rules.rule_evaluations", 0)
    if c.get("rules.rule_evaluations"):
        values["rules.nmt_yield"] = counts.get("non_matches", 0) / c["rules.rule_evaluations"]
    values["core.matching_table_s"] = own.get("core.matching_table", 0.0)
    values["core.negative_table_s"] = own.get("core.negative_matching_table", 0.0)
    values["core.verify_s"] = own.get("core.verify", 0.0)
    for key in ("matches", "non_matches", "undetermined"):
        values[f"core.{key}"] = counts.get(key, 0)
    values["entities.pairwise_s"] = tracer.total_by_name.get("entities.pairwise", 0.0)
    values["entities.closure_s"] = own.get("entities.closure", 0.0)
    values["entities.build_s"] = own.get("entities.build", 0.0)
    values["entities.verify_s"] = own.get("entities.verify", 0.0)
    values["entities.clusters"] = counts.get("clusters", 0)
    values["entities.decisions_logged"] = counts.get("decisions_logged", 0)
    values["store.write_s"] = sum(
        seconds for span, seconds in own.items() if span.startswith("store.write.")
    )
    values["store.commits"] = c.get("store.commits", 0)
    if counts.get("user_bytes"):
        values["store.bytes_per_user_byte"] = counts["store_bytes"] / counts["user_bytes"]
    for layer in LAYERS:
        values[f"{layer}.self_pct"] = table["layers"][layer]["share_pct"]
    values["unattributed_pct"] = table["unattributed_pct"]
    values["trace_overhead_pct"] = table["trace_overhead_pct"]


def _serving_figures(module: Any, http: Dict[str, Any], replayed: Dict[str, Any],
                     tracer: LayerTracer, values: Dict[str, float],
                     report: Dict[str, Any]) -> None:
    client = module.client_breakdown(http)
    stats = http["stats"]
    cache = stats["cache"]
    admission = stats.get("admission", {})
    resolve_service = median(replayed["service_ms"]["resolve"])
    values["serving.http_overhead_ms"] = client["resolve_send_ms"] - resolve_service
    values["serving.resolve_service_ms"] = resolve_service
    values["serving.ingest_service_ms"] = median(replayed["service_ms"]["ingest"])
    reads = tracer.calls.get("serving.replica_read", 0)
    if reads:
        values["serving.replica_read_ms"] = (
            1000.0 * tracer.total_by_name["serving.replica_read"] / reads
        )
    lookups = cache["hits"] + cache["misses"]
    values["serving.cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    values["serving.cache_evictions"] = cache["evictions"]
    values["serving.cache_invalidations"] = cache["invalidations"]
    values["serving.shed"] = admission.get("shed_429", 0) + admission.get("shed_503", 0)
    values["serving.generator_lateness_ms"] = client["lateness_tail"][1]
    values["serving.max_ok_rps"] = module.max_ok_rps(http["steps"])
    values["serving.resolve_p50_ms"] = client["resolve_p50_ms"]
    values["serving.resolve_p99_ms"] = client["resolve_p99_ms"]
    values["serving.ingest_p50_ms"] = client["ingest_p50_ms"]
    values["serving.ingest_p95_ms"] = client["ingest_p95_ms"]
    report["client"] = client
    report["server_stats"] = stats


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("standard", "smoke"), default="standard",
                        help="input size (smoke: seconds-long runs for tests)")
    args = parser.parse_args(argv)
    pin_to_one_cpu()

    report: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host": host_record(),
    }
    outcome = Outcome()
    if args.trace:
        values = trace(args.workload, args.seed, args.seconds, args.size, outcome, report)
        units = PER_LAYER
    else:
        values = measure(args.workload, args.seed, args.seconds, args.size, outcome, report)
        units = END_TO_END

    print(f"host: {json.dumps(report['host'], sort_keys=True)}")
    print(f"workload: {args.workload}  seed: {args.seed}  size: {args.size}  "
          f"trace: {args.trace}")
    for key in ("figures", "client", "layer_table"):
        if key in report:
            print(f"{key}: {json.dumps(report[key], default=str)}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"error_rate: {error_rate:.6g} ({outcome.failed} of {outcome.attempted} "
          f"operations failed)")
    for failure in outcome.failures[:20]:
        print(f"FAILED CHECK: {failure}")
    for metric, unit in units.items():
        print(f"  {metric} = {values[metric]:.6g} {unit}")
    correct = outcome.attempted > 0 and outcome.failed == 0 and not outcome.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
