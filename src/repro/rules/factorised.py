"""Factorised evaluation of distinctness rules over two row lists.

A distinctness rule is a conjunction.  Its single-entity literal
predicates (``e1.A op c``, ``e2.B op c``) each depend on one row only,
so the rule holds for a pair ``(row1, row2)`` iff its e1-side literals
hold for ``row1``, its e2-side literals hold for ``row2``, and its
remaining predicates hold for the pair.  Proposition-1 rules
(:mod:`repro.rules.conversion`) have no remaining predicates:
``(e1.A1=a1 ∧ … ∧ e1.An=an) ∧ (e2.B≠b)`` is an R-selection times an
S-selection, so the negative matching table is a union of rectangles.

:func:`compile_distinctness` evaluates every literal predicate once per
distinct attribute value, through per-attribute value indexes, and
gives each row two rule bitmasks (bit *k* is the *k*-th rule in
declaration order):

- ``as_e1`` — the rules whose e1-side literals hold for the row,
- ``as_e2`` — the rules whose e2-side literals hold for the row.

Rule *k* declares ``(r, s)`` distinct iff bit *k* is set in
``(r.as_e1 & s.as_e2) | (s.as_e1 & r.as_e2)`` — the two orientations
:meth:`RuleEngine.firing_distinctness_rules` evaluates.  The lowest set
bit is the first firing rule.

**Residual rules.**  Three kinds of rule are settled per pair by
:meth:`DistinctnessRule.applies`, only for the pairs whose bits their
literal parts leave set:

- rules with a predicate over two attributes (``e1.X op e2.Y``); their
  literal predicates still select the pairs worth checking,
- rules whose class overrides ``applies``, or whose predicates or terms
  are subclasses (every pair is checked),
- rules on values the index cannot represent exactly: a literal, or a
  row value of an attribute the rule mentions, that is not a NULL,
  ``str``, ``int``, ``float``, ``bool`` or ``None`` (every pair is
  checked, so a comparison that raises still raises on the pairs it
  did before).

The per-pair reference stays
:meth:`~repro.rules.engine.RuleEngine.firing_distinctness_rules`; the
masks reproduce its answers exactly, including on NaN (a NaN literal
never equals a row's NaN, even the same object: the index compares
with ``==``, never by a dict hit on identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.relational.nulls import NULL, Maybe
from repro.rules.distinctness import DistinctnessRule
from repro.rules.predicates import Comparator, EntityRef, Literal, Predicate

__all__ = ["DistinctnessMasks", "compile_distinctness", "first_rule", "popcount"]

_NONE = type(None)
_EXACT = frozenset((str, int, float, bool, _NONE))
# The exact types a value of each exact type can compare equal to.
_NUMBERS = (int, float, bool)
_PROBES = {str: (str,), int: _NUMBERS, float: _NUMBERS, bool: _NUMBERS, _NONE: (_NONE,)}

RowMasks = Tuple[int, int]  # (as_e1, as_e2)
LiteralTerm = Tuple[int, str, Comparator, Any]  # (entity, attribute, op, value)


def first_rule(mask: int) -> int:
    """Index of the lowest set bit (the first firing rule); -1 for 0."""
    return (mask & -mask).bit_length() - 1


def popcount(mask: int) -> int:
    """Number of set bits (rules fired)."""
    return bin(mask).count("1")


def _value(row: Mapping[str, Any], attribute: str) -> Any:
    # Same lookup as EntityRef.resolve: a missing attribute is NULL.
    try:
        return row[attribute]
    except Exception:
        return NULL


class _Split(NamedTuple):
    literals: List[LiteralTerm]
    attributes: FrozenSet[str]
    rest: bool  # some predicate is not an indexed literal


def _split(rule: DistinctnessRule) -> Optional[_Split]:
    """The rule's indexable literals, or None to evaluate it whole."""
    if not isinstance(rule, DistinctnessRule) or type(rule).applies is not (
        DistinctnessRule.applies
    ):
        return None
    literals: List[LiteralTerm] = []
    attributes = set()
    equalities: Dict[Tuple[int, str], Any] = {}
    rest = False
    for pred in rule.predicates:
        left, right = pred.left, pred.right
        if type(pred) is not Predicate or type(left) is not EntityRef:
            return None
        attributes.add(left.attribute)
        if type(right) is EntityRef:
            attributes.add(right.attribute)
            rest = True
            continue
        if type(right) is not Literal or type(right.value) not in _EXACT:
            return None
        term = (left.entity, left.attribute, pred.op, right.value)
        if pred.op is Comparator.EQ:
            # The index subtracts equality hits rule by rule, so a rule
            # keeps at most one equality per attribute; a second,
            # different one is checked pairwise.
            key = (type(right.value), right.value)
            seen = equalities.setdefault(term[:2], key)
            if seen != key:
                rest = True
                continue
            if seen is not key:
                continue  # the same equality twice
        literals.append(term)
    return _Split(literals, frozenset(attributes), rest)


class _AttributeIndex:
    """The literal predicates on one (entity, attribute), by rule bit."""

    __slots__ = ("eq", "ne", "scan", "eq_all", "every")

    def __init__(self) -> None:
        self.eq: Dict[Tuple[type, Any], int] = {}
        self.ne: Dict[Tuple[type, Any], int] = {}
        self.scan: List[Tuple[Callable[[Any, Any], bool], Any, int]] = []
        self.eq_all = 0
        self.every = 0

    def add(self, op: Comparator, value: Any, bit: int) -> None:
        self.every |= bit
        # NaN literals are compared with ``==`` like orderings, never
        # probed: a probe with the same NaN object would hit by identity.
        if op in (Comparator.EQ, Comparator.NE) and value == value:
            table = self.eq if op is Comparator.EQ else self.ne
            key = (type(value), value)
            table[key] = table.get(key, 0) | bit
            if op is Comparator.EQ:
                self.eq_all |= bit
        else:
            self.scan.append((op.fn, value, bit))

    def unsatisfied(self, value: Any) -> int:
        """Rules with a literal on this attribute that *value* fails."""
        eq_hits = ne_hits = 0
        # Among exact types a dict probe finds exactly the keys == value
        # (no key is NaN, which a probe would hit by identity).
        for kind in _PROBES[type(value)]:
            key = (kind, value)
            eq_hits |= self.eq.get(key, 0)
            ne_hits |= self.ne.get(key, 0)
        failed = (self.eq_all & ~eq_hits) | ne_hits
        for fn, literal, bit in self.scan:
            try:
                holds = fn(value, literal)
            except TypeError:
                holds = False
            if not holds:
                failed |= bit
        return failed


def _side_masks(
    indexes: Dict[int, Dict[str, _AttributeIndex]],
    columns: Mapping[str, Sequence[Any]],
    size: int,
    full: int,
) -> List[RowMasks]:
    sides = []
    for entity in (1, 2):
        masks = [full] * size
        for attribute, index in indexes[entity].items():
            cache: Dict[Tuple[type, Any], int] = {}
            for row, value in enumerate(columns[attribute]):
                if value is NULL:
                    failed = index.every
                else:
                    key = (type(value), value)
                    failed = cache.get(key)
                    if failed is None:
                        failed = cache[key] = index.unsatisfied(value)
                if failed:
                    masks[row] &= ~failed
        sides.append(masks)
    return list(zip(sides[0], sides[1]))


@dataclass(frozen=True)
class DistinctnessMasks:
    """A rule set compiled against an R row list and an S row list.

    ``r[i]`` / ``s[j]`` are the ``(as_e1, as_e2)`` masks of ``r_rows[i]``
    / ``s_rows[j]``; ``residual`` has the bits of the rules whose set
    bits are candidates to confirm with ``applies`` (see the module
    docstring).
    """

    rules: Tuple[DistinctnessRule, ...]
    r_rows: Sequence[Mapping[str, Any]]
    s_rows: Sequence[Mapping[str, Any]]
    r: List[RowMasks]
    s: List[RowMasks]
    residual: int

    def _settle(self, i: int, j: int, first_only: bool) -> int:
        r1, r2 = self.r[i]
        s1, s2 = self.s[j]
        forward = r1 & s2
        backward = s1 & r2
        candidates = forward | backward
        pending = candidates & self.residual
        fired = candidates ^ pending
        if first_only:
            fired &= -fired
        while pending:
            bit = pending & -pending
            if first_only and fired and bit > fired:
                break
            rule = self.rules[bit.bit_length() - 1]
            r_row, s_row = self.r_rows[i], self.s_rows[j]
            if (forward & bit and rule.applies(r_row, s_row) is Maybe.TRUE) or (
                backward & bit and rule.applies(s_row, r_row) is Maybe.TRUE
            ):
                if first_only:
                    return bit
                fired |= bit
            pending ^= bit
        return fired

    def fired(self, i: int, j: int) -> int:
        """Mask of every rule declaring ``(r_rows[i], s_rows[j])`` distinct."""
        return self._settle(i, j, False)

    def first(self, i: int, j: int) -> int:
        """Index of the first rule declaring the pair distinct, or -1.

        Residual rules after the first firing rule are not evaluated,
        as a pairwise loop that stops at the first firing rule would not.
        """
        return first_rule(self._settle(i, j, True))

    def firing_pairs(self) -> Iterator[Tuple[int, int, int]]:
        """``(i, j, fired mask)`` for every distinct pair, row-major.

        Rows are grouped by their mask pair and each R group is tested
        against each S group once; only residual candidates are settled
        pair by pair.
        """
        residual = self.residual
        s_groups: Dict[RowMasks, int] = {}
        s_group_of = [s_groups.setdefault(masks, len(s_groups)) for masks in self.s]
        s_group_masks = list(s_groups)
        r_groups: Dict[RowMasks, List[Tuple[int, int]]] = {}
        for i, (r1, r2) in enumerate(self.r):
            row = r_groups.get((r1, r2))
            if row is None:
                by_group = [(r1 & s2) | (s1 & r2) for s1, s2 in s_group_masks]
                row = r_groups[(r1, r2)] = [
                    (j, by_group[group])
                    for j, group in enumerate(s_group_of)
                    if by_group[group]
                ]
            for j, fired in row:
                if fired & residual:
                    fired = self.fired(i, j)
                    if not fired:
                        continue
                yield i, j, fired


def compile_distinctness(
    rules: Iterable[DistinctnessRule],
    r_rows: Sequence[Mapping[str, Any]],
    s_rows: Sequence[Mapping[str, Any]],
) -> DistinctnessMasks:
    """Compile *rules* against the two row lists (see the module docstring)."""
    rules = tuple(rules)
    splits = [_split(rule) for rule in rules]
    mentioned = set()
    for split in splits:
        if split is not None:
            mentioned |= split.attributes
    r_columns = {a: [_value(row, a) for row in r_rows] for a in mentioned}
    s_columns = {a: [_value(row, a) for row in s_rows] for a in mentioned}
    opaque = {
        attribute
        for attribute in mentioned
        if any(
            value is not NULL and type(value) not in _EXACT
            for columns in (r_columns, s_columns)
            for value in columns[attribute]
        )
    }
    indexes: Dict[int, Dict[str, _AttributeIndex]] = {1: {}, 2: {}}
    residual = 0
    for k, split in enumerate(splits):
        bit = 1 << k
        if split is None or split.attributes & opaque:
            residual |= bit
            continue
        if split.rest:
            residual |= bit
        for entity, attribute, op, value in split.literals:
            index = indexes[entity].get(attribute)
            if index is None:
                index = indexes[entity][attribute] = _AttributeIndex()
            index.add(op, value, bit)
    full = (1 << len(rules)) - 1
    return DistinctnessMasks(
        rules,
        r_rows,
        s_rows,
        _side_masks(indexes, r_columns, len(r_rows), full),
        _side_masks(indexes, s_columns, len(s_rows), full),
        residual,
    )
