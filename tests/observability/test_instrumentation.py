"""Instrumentation hooks: every pipeline stage reports into one tracer."""

import timeit

import pytest

from repro.baselines.base import InapplicableError
from repro.baselines.key_equivalence import KeyEquivalenceMatcher
from repro.baselines.probabilistic_attr import ProbabilisticAttributeMatcher
from repro.core.identifier import EntityIdentifier
from repro.federation.incremental import IncrementalIdentifier
from repro.ilfd.closure import closure
from repro.ilfd.derivation import DerivationEngine
from repro.ilfd.ilfd import ILFD
from repro.ilfd.saturation import saturate
from repro.observability import NO_OP_TRACER, Tracer
from repro.workloads import restaurant_example_3


def _example3_identifier(tracer=None):
    example = restaurant_example_3()
    return (
        EntityIdentifier(
            example.r,
            example.s,
            example.extended_key,
            ilfds=list(example.ilfds),
            tracer=tracer,
        ),
        example,
    )


class TestPipelineSpans:
    def test_run_produces_phase_spans(self):
        tracer = Tracer()
        identifier, _ = _example3_identifier(tracer)
        identifier.run()
        identifier.integrate()
        names = set(tracer.span_names())
        assert {
            "identify.run",
            "identify.extend_relations",
            "derive.extend_relation",
            "identify.matching_table",
            "identify.negative_matching_table",
            "identify.soundness",
            "identify.integrate",
        } <= names

    def test_phase_spans_nest_under_run(self):
        tracer = Tracer()
        identifier, _ = _example3_identifier(tracer)
        identifier.run()
        (run_span,) = [s for s in tracer.spans() if s.name == "identify.run"]
        children = {s.name for s in tracer.children_of(run_span)}
        assert "identify.matching_table" in children
        assert "identify.negative_matching_table" in children

    def test_match_outcome_tallies(self):
        tracer = Tracer()
        identifier, _ = _example3_identifier(tracer)
        result = identifier.run()
        counters = tracer.metrics.counters
        assert counters["pipeline.pairs"] == result.pair_count
        assert counters["pipeline.matches"] == len(result.matching)
        assert counters["pipeline.non_matches"] == len(result.negative)
        assert counters["pipeline.unknown"] == result.undetermined_count

    def test_rule_and_ilfd_counters_populated(self):
        tracer = Tracer()
        identifier, _ = _example3_identifier(tracer)
        identifier.run()
        counters = tracer.metrics.counters
        assert counters["ilfd.rows_extended"] > 0
        assert counters["ilfd.firings"] > 0
        assert tracer.metrics.histogram("ilfd.chain_depth").count > 0

    def test_distinctness_counters_count_every_pair(self):
        # |R'|·|S'|·|rules| = 5·4·8 evaluations, and the rules fired
        # summed over the 14 NMT pairs, as a pairwise loop counts them.
        tracer = Tracer()
        identifier, _ = _example3_identifier(tracer)
        identifier.run()
        counters = tracer.metrics.counters
        assert counters["rules.distinctness_evaluations"] == 160
        assert counters["rules.distinctness_fired"] == 32

    def test_default_tracer_records_nothing(self):
        identifier, _ = _example3_identifier()
        identifier.run()
        assert identifier.tracer is NO_OP_TRACER
        assert NO_OP_TRACER.metrics.is_empty()

    def test_traced_run_equals_untraced_run(self):
        traced, _ = _example3_identifier(Tracer())
        plain, _ = _example3_identifier()
        assert traced.run().matching.pairs() == plain.run().matching.pairs()


class TestEngineInstrumentation:
    def test_rule_engine_counts_survive_with_rules(self):
        tracer = Tracer()
        identifier, _ = _example3_identifier(tracer)
        extended = identifier.rules.with_rules()
        extended.classify(
            {"name": "A", "cuisine": "Indian", "speciality": "Mughalai"},
            {"name": "A", "cuisine": "Indian", "speciality": "Mughalai"},
        )
        assert tracer.metrics.counter("rules.identity_evaluations") > 0
        assert tracer.metrics.counter("rules.outcome.match") == 1

    def test_derivation_engine_chain_depth(self):
        tracer = Tracer()
        engine = DerivationEngine(
            [
                ILFD({"a": "1"}, {"b": "2"}),
                ILFD({"b": "2"}, {"c": "3"}),
            ],
            tracer=tracer,
        )
        result = engine.extend_row({"a": "1"}, ["c"])
        assert result.row["c"] == "3"
        assert tracer.metrics.counter("ilfd.firings") == 2
        assert tracer.metrics.histogram("ilfd.chain_depth").maximum == 2

    def test_closure_metrics(self):
        tracer = Tracer()
        result = closure(
            {"a": "1"},
            [ILFD({"a": "1"}, {"b": "2"}), ILFD({"b": "2"}, {"c": "3"})],
            tracer=tracer,
        )
        assert len(result.derived()) == 2
        assert tracer.metrics.counter("closure.computations") == 1
        assert tracer.metrics.counter("closure.firings") == 2
        assert tracer.metrics.counter("closure.derived_symbols") == 2
        assert tracer.metrics.histogram("closure.rounds").count == 1

    def test_saturation_metrics(self):
        tracer = Tracer()
        saturate(
            [ILFD({"a": "1"}, {"b": "2"}), ILFD({"b": "2"}, {"c": "3"})],
            tracer=tracer,
        )
        assert tracer.metrics.counter("saturation.runs") == 1
        assert tracer.metrics.counter("saturation.derived_ilfds") == 1


class TestFederationInstrumentation:
    def test_update_deltas_recorded(self):
        example = restaurant_example_3()
        tracer = Tracer()
        incremental = IncrementalIdentifier(
            example.r.schema,
            example.s.schema,
            example.extended_key,
            ilfds=list(example.ilfds),
            tracer=tracer,
        )
        incremental.load(example.r, example.s)
        counters = tracer.metrics.counters
        assert counters["federation.inserts"] == len(example.r) + len(example.s)
        assert tracer.metrics.histogram("federation.delta_added").count == (
            counters["federation.inserts"]
        )
        assert "federation.load" in tracer.span_names()

        first_r_key = next(iter(incremental.match_pairs()))[0]
        incremental.delete_r(dict(first_r_key))
        assert counters["federation.deletes"] == 1
        assert tracer.metrics.histogram("federation.delta_removed").count == 1

    def test_add_ilfds_span_and_counters(self):
        example = restaurant_example_3()
        tracer = Tracer()
        incremental = IncrementalIdentifier(
            example.r.schema,
            example.s.schema,
            example.extended_key,
            tracer=tracer,
        )
        incremental.load(example.r, example.s)
        incremental.add_ilfds(list(example.ilfds))
        assert tracer.metrics.counter("federation.ilfd_updates") == 1
        assert "federation.add_ilfds" in tracer.span_names()


class TestBaselineInstrumentation:
    def test_run_records_comparable_stats(self):
        example = restaurant_example_3()
        tracer = Tracer()
        matcher = ProbabilisticAttributeMatcher(threshold=0.5)
        result = matcher.run(example.r, example.s, tracer=tracer)
        counters = tracer.metrics.counters
        name = matcher.name
        assert counters[f"baseline.{name}.runs"] == 1
        assert counters[f"baseline.{name}.pairs"] == len(result.pairs)
        assert f"baseline.{name}.uniqueness_violations" in counters
        assert "baseline.match" in tracer.span_names()

    def test_inapplicable_is_counted_and_reraised(self):
        example = restaurant_example_3()
        tracer = Tracer()
        matcher = KeyEquivalenceMatcher()  # no common candidate key here
        with pytest.raises(InapplicableError):
            matcher.run(example.r, example.s, tracer=tracer)
        assert tracer.metrics.counter(
            f"baseline.{matcher.name}.inapplicable"
        ) == 1

    def test_run_without_tracer_matches_match(self):
        example = restaurant_example_3()
        matcher = ProbabilisticAttributeMatcher(threshold=0.5)
        assert (
            matcher.run(example.r, example.s).pair_set()
            == matcher.match(example.r, example.s).pair_set()
        )


class TestNoOpOverheadGuard:
    def test_noop_guard_is_cheap(self):
        """The no-op guard (attribute load + branch) must stay in the
        tens-of-nanoseconds range; 1µs would invalidate the <5% budget
        argument of bench_observability_overhead.py."""
        per_check = min(
            timeit.repeat(
                "tracer.enabled",
                globals={"tracer": NO_OP_TRACER},
                number=100_000,
                repeat=5,
            )
        ) / 100_000
        assert per_check < 1e-6

    def test_noop_span_allocates_nothing(self):
        before = len(NO_OP_TRACER.spans())
        for _ in range(100):
            with NO_OP_TRACER.span("hot"):
                pass
        assert len(NO_OP_TRACER.spans()) == before == 0
