"""The factorised distinctness evaluation against the pairwise reference.

``repro.rules.factorised.compile_distinctness`` must give, for every
pair, exactly the rules ``RuleEngine.firing_distinctness_rules`` gives:
on Proposition-1 rules from random ILFDs, hand-built rules over every
comparator, cross-entity and same-entity attribute predicates, a rule
class overriding ``applies``, and typed, NULL-heavy rows (int / float /
bool / str mixes, NaN, -0.0, None, NULL, missing attributes, values the
index cannot represent).  Checked at three levels:

- the compiled masks (``firing_pairs``, ``first``),
- ``EntityIdentifier.negative_matching_table`` (entry order, journal
  rule names, rule-evaluation metrics),
- ``ParallelPairExecutor.evaluate`` on the serial, thread and process
  backends (``distinct``, ``distinct_rules``, quarantine).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking.executor import ParallelPairExecutor
from repro.core.identifier import EntityIdentifier
from repro.ilfd.ilfd import ILFD
from repro.observability import Tracer
from repro.relational.attribute import Attribute, Domain
from repro.relational.nulls import NULL, Maybe
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.rules import (
    Comparator,
    DistinctnessRule,
    EntityRef,
    Literal,
    Predicate,
    RuleEngine,
    ilfd_to_distinctness_rules,
)
from repro.rules.factorised import compile_distinctness
from repro.store.journal import KIND_DISTINCTNESS
from repro.store.memory import MemoryStore

ATTRS = ("a", "b", "c")
SHARED_NAN = float("nan")


class _Tag(str):
    """A str subclass: equal to its text, but not a type the index trusts."""


class _ParityRule(DistinctnessRule):
    """Overrides ``applies``: distinct when the e1 ``a`` and e2 ``b``
    renderings differ in length parity (asymmetric on purpose)."""

    __slots__ = ()

    def applies(self, row1, row2):
        def text(row, attribute):
            try:
                return repr(row[attribute])
            except Exception:
                return ""

        return Maybe.from_bool(len(text(row1, "a")) % 2 != len(text(row2, "b")) % 2)


def _parity_rule(name):
    # The literal predicate is ignored by ``applies``, so it must not
    # pre-select pairs either.
    return _ParityRule(
        [
            Predicate(EntityRef(1, "c"), Comparator.EQ, Literal("x")),
            Predicate(EntityRef(2, "b"), Comparator.NE, Literal("y")),
        ],
        name=name,
    )


class _Explosive:
    """A value whose equality raises (not a TypeError)."""

    def __eq__(self, other):
        raise RuntimeError("explosive comparison")

    __ne__ = __lt__ = __gt__ = __le__ = __ge__ = __eq__
    __hash__ = object.__hash__


exact_values = st.sampled_from(
    [None, 0, 1, -1, 2, True, False, 0.0, -0.0, 1.0, 0.5, SHARED_NAN, "1", "x", "y", ""]
)
fresh_nan = st.builds(lambda: float("nan"))
odd_values = st.sampled_from([Fraction(1, 2), Fraction(1), _Tag("x"), (1,)])
row_values = st.one_of(
    st.just(NULL), st.just(NULL), exact_values, exact_values, fresh_nan, odd_values
)
literal_values = st.one_of(exact_values, exact_values, exact_values, fresh_nan, odd_values)
rows = st.lists(
    st.dictionaries(st.sampled_from(ATTRS), row_values, max_size=len(ATTRS)),
    max_size=6,
)
comparators = st.sampled_from(list(Comparator))


def literal_pred(entity):
    return st.builds(
        lambda attribute, op, value: Predicate(
            EntityRef(entity, attribute), op, Literal(value)
        ),
        st.sampled_from(ATTRS),
        comparators,
        literal_values,
    )


def attribute_pred(left_entity, right_entity):
    return st.builds(
        lambda left, op, right: Predicate(
            EntityRef(left_entity, left), op, EntityRef(right_entity, right)
        ),
        st.sampled_from(ATTRS),
        comparators,
        st.sampled_from(ATTRS),
    )


cross_pred = st.one_of(attribute_pred(1, 2), attribute_pred(2, 1))
extra_pred = st.one_of(
    literal_pred(1), literal_pred(2), cross_pred, attribute_pred(1, 1), attribute_pred(2, 2)
)


@st.composite
def hand_rules(draw):
    shape = draw(st.sampled_from(["literals", "cross-only"]))
    if shape == "literals":
        preds = [draw(literal_pred(1)), draw(literal_pred(2))]
    else:
        preds = [draw(literal_pred(draw(st.sampled_from([1, 2])))), draw(cross_pred)]
    preds += draw(st.lists(extra_pred, max_size=2))
    return DistinctnessRule(draw(st.permutations(preds)))


@st.composite
def ilfd_rules(draw):
    consequent = draw(st.sampled_from(ATTRS))
    others = [a for a in ATTRS if a != consequent]
    antecedent = draw(st.lists(st.sampled_from(others), min_size=1, max_size=2, unique=True))
    ilfd = ILFD(
        {attribute: draw(exact_values) for attribute in antecedent},
        {consequent: draw(exact_values)},
    )
    return ilfd_to_distinctness_rules(ilfd)


@st.composite
def rule_sets(draw):
    rules = []
    for group in draw(
        st.lists(
            st.one_of(
                ilfd_rules(),
                hand_rules().map(lambda rule: [rule]),
                st.just(None),
            ),
            max_size=8,
        )
    ):
        rules.extend(group if group is not None else [_parity_rule("")])
    # Unique names, so a journal rule name identifies a rule.
    for index, rule in enumerate(rules):
        rule.name = f"d{index}"
    return rules


def _bits(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _pairwise(rules, r_rows, s_rows):
    """(i, j, indices of the firing rules), row-major, by the rule engine."""
    engine = RuleEngine((), rules)
    out = []
    for i, r_row in enumerate(r_rows):
        for j, s_row in enumerate(s_rows):
            fired = {id(rule) for rule in engine.firing_distinctness_rules(r_row, s_row)}
            if fired:
                out.append((i, j, [k for k, rule in enumerate(rules) if id(rule) in fired]))
    return out


@settings(max_examples=300, deadline=None)
@given(rules=rule_sets(), r_rows=rows, s_rows=rows)
def test_compiled_masks_equal_pairwise(rules, r_rows, s_rows):
    expected = _pairwise(rules, r_rows, s_rows)
    masks = compile_distinctness(rules, r_rows, s_rows)
    got = [(i, j, _bits(mask)) for i, j, mask in masks.firing_pairs()]
    assert got == expected
    first = {(i, j): fired[0] for i, j, fired in expected}
    for i in range(len(r_rows)):
        for j in range(len(s_rows)):
            assert masks.first(i, j) == first.get((i, j), -1)


def test_nan_literal_never_equals_the_same_nan_object():
    # A dict probe would hit the identical NaN key; ``==`` says unequal.
    nan = float("nan")
    rule = DistinctnessRule(
        [
            Predicate(EntityRef(1, "a"), Comparator.EQ, Literal(nan)),
            Predicate(EntityRef(2, "b"), Comparator.NE, Literal("x")),
        ]
    )
    r_rows, s_rows = [{"a": nan}], [{"b": "y"}]
    assert RuleEngine((), [rule]).firing_distinctness_rules(r_rows[0], s_rows[0]) == []
    masks = compile_distinctness([rule], r_rows, s_rows)
    assert list(masks.firing_pairs()) == []
    assert masks.first(0, 0) == -1
    # ≠ against the same NaN object holds, as ``nan != nan`` does.
    negated = DistinctnessRule(
        [
            Predicate(EntityRef(1, "a"), Comparator.NE, Literal(nan)),
            Predicate(EntityRef(2, "b"), Comparator.NE, Literal("x")),
        ]
    )
    assert list(compile_distinctness([negated], r_rows, s_rows).firing_pairs()) == [
        (0, 0, 1)
    ]


def test_two_equalities_on_one_attribute_need_both():
    # e1.a = 1 ∧ e1.a = 1.0 holds for 1; e1.a = 1 ∧ e1.a = 2 for nothing.
    def rule(first, second):
        return DistinctnessRule(
            [
                Predicate(EntityRef(1, "a"), Comparator.EQ, Literal(first)),
                Predicate(EntityRef(1, "a"), Comparator.EQ, Literal(second)),
                Predicate(EntityRef(2, "b"), Comparator.NE, Literal("x")),
            ]
        )

    rules = [rule(1, 2), rule(1, 1.0), rule(2, 2)]
    r_rows, s_rows = [{"a": 1}, {"a": 2}], [{"b": "y"}]
    masks = compile_distinctness(rules, r_rows, s_rows)
    got = [(i, j, _bits(mask)) for i, j, mask in masks.firing_pairs()]
    assert got == _pairwise(rules, r_rows, s_rows) == [(0, 0, [1]), (1, 0, [2])]


# ----------------------------------------------------------------------
# EntityIdentifier: typed relations (one dtype per attribute), NULL-heavy
# ----------------------------------------------------------------------
_R_SCHEMA = Schema(
    [
        Attribute("rid", Domain(int)),
        Attribute("a", Domain(float)),
        Attribute("b", Domain(str)),
        Attribute("c", Domain(int)),
    ],
    keys=[["rid"]],
)
_S_SCHEMA = Schema(
    [
        Attribute("sid", Domain(int)),
        Attribute("a", Domain(float)),
        Attribute("b", Domain(str)),
        Attribute("c", Domain(bool)),
    ],
    keys=[["sid"]],
)
floats = st.sampled_from([NULL, NULL, 0.0, -0.0, 1.0, 1, 0.5, SHARED_NAN])
strings = st.sampled_from([NULL, NULL, "x", "y", "1", ""])
ints = st.sampled_from([NULL, NULL, 0, 1, 2, -1])
bools = st.sampled_from([NULL, NULL, True, False])


def _relation(schema, key, c_values, count):
    return st.lists(
        st.fixed_dictionaries({"a": st.one_of(floats, fresh_nan), "b": strings, "c": c_values}),
        max_size=count,
    ).map(
        lambda raw: Relation(
            schema, [dict(row, **{key: index}) for index, row in enumerate(raw)]
        )
    )


@st.composite
def typed_ilfds(draw):
    """c = constant → a = float or b = str, deriving extended-key values."""
    ilfds = []
    for index in range(draw(st.integers(0, 3))):
        consequent = draw(st.sampled_from(["a", "b"]))
        values = floats if consequent == "a" else strings
        ilfds.append(
            ILFD(
                {"c": draw(st.sampled_from([0, 1, True, 2]))},
                {consequent: draw(values.filter(lambda v: v is not NULL))},
                name=f"i{index}",
            )
        )
    return ilfds


def _key(row, name):
    return ((name, row[name]),)


@settings(max_examples=150, deadline=None)
@given(
    r=_relation(_R_SCHEMA, "rid", ints, 6),
    s=_relation(_S_SCHEMA, "sid", bools, 6),
    rules=rule_sets(),
    ilfds=typed_ilfds(),
)
def test_identifier_nmt_equals_pairwise(r, s, rules, ilfds):
    store = MemoryStore()
    tracer = Tracer()
    identifier = EntityIdentifier(
        r,
        s,
        ["a", "b"],
        ilfds=ilfds,
        distinctness_rules=rules,
        store=store,
        tracer=tracer,
    )
    table = identifier.negative_matching_table()
    extended_r, extended_s = identifier.extended_relations()
    r_rows, s_rows = list(extended_r), list(extended_s)
    all_rules = identifier.rules.distinctness_rules
    expected = _pairwise(all_rules, r_rows, s_rows)
    assert [(entry.r_key, entry.s_key) for entry in table] == [
        (_key(r_rows[i], "rid"), _key(s_rows[j], "sid")) for i, j, _ in expected
    ]
    journal = [
        (entry.r_key, entry.s_key, entry.rule)
        for entry in store.journal_entries()
        if entry.kind == KIND_DISTINCTNESS
    ]
    assert journal == [
        (_key(r_rows[i], "rid"), _key(s_rows[j], "sid"), all_rules[fired[0]].name)
        for i, j, fired in expected
    ]
    counters = tracer.metrics.counters
    if r_rows and s_rows:
        assert counters["rules.distinctness_evaluations"] == (
            len(r_rows) * len(s_rows) * len(all_rules)
        )
        assert counters["rules.distinctness_fired"] == sum(
            len(fired) for _, _, fired in expected
        )


# ----------------------------------------------------------------------
# ParallelPairExecutor, every backend
# ----------------------------------------------------------------------
def _executors():
    yield ParallelPairExecutor(1)
    yield ParallelPairExecutor(2, backend="thread", batch_size=3)
    yield ParallelPairExecutor(2, backend="process", batch_size=3)


@settings(max_examples=15, deadline=None)
@given(rules=rule_sets(), r_rows=rows, s_rows=rows)
def test_executor_backends_equal_pairwise(rules, r_rows, s_rows):
    expected = _pairwise(rules, r_rows, s_rows)
    candidates = [(i, j) for i in range(len(r_rows)) for j in range(len(s_rows))]
    for executor in _executors():
        evaluation = executor.evaluate(candidates, r_rows, s_rows, (), rules)
        assert evaluation.distinct == [(i, j) for i, j, _ in expected], executor.backend
        assert evaluation.distinct_rules == [fired[0] for _, _, fired in expected]


def test_executor_quarantines_the_pairs_a_raising_value_poisons():
    # Rule 0 fires before the explosive rule 1 is reached on (0, 0) and
    # (1, 0); every other pair reaches rule 1 and raises, as pairwise.
    rules = [
        DistinctnessRule(
            [
                Predicate(EntityRef(1, "a"), Comparator.EQ, Literal("x")),
                Predicate(EntityRef(2, "b"), Comparator.EQ, Literal("y")),
            ]
        ),
        DistinctnessRule(
            [
                Predicate(EntityRef(1, "c"), Comparator.EQ, Literal(1)),
                Predicate(EntityRef(2, "b"), Comparator.NE, Literal("z")),
            ]
        ),
    ]
    r_rows = [{"a": "x", "c": _Explosive()}, {"a": "x", "c": 1}, {"a": "w", "c": 1}]
    s_rows = [{"b": "y", "a": "x"}, {"b": "q", "a": "x"}]
    candidates = [(i, j) for i in range(len(r_rows)) for j in range(len(s_rows))]
    for executor in _executors():
        evaluation = executor.evaluate(candidates, r_rows, s_rows, (), rules)
        assert evaluation.distinct == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
        assert evaluation.distinct_rules == [0, 0, 1, 1, 1]
        assert [pair for pair, _ in evaluation.quarantined] == [(0, 1)]
