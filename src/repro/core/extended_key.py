"""The extended key (Section 4.1).

    **Definition (Extended key).**  The extended key ``K_Ext`` is a
    minimal set of attributes, of the form ``K1 ∪ K2 ∪ Ā``, needed to
    uniquely identify an instance of type E in the integrated real world,
    where ``Ā`` is a set of attributes of E in neither K1 nor K2.

Whether a given attribute set really identifies entities in the
*integrated world* is a semantic judgement only the DBA can make; the
instance-level checks here are the necessary conditions a machine can
verify (and the ones the prototype verifies): the induced identity rule
must not match one tuple to two.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence, Tuple

from repro.core.errors import ExtendedKeyError
from repro.relational.relation import Relation
from repro.rules.identity import IdentityRule, extended_key_rule


class ExtendedKey:
    """An ordered extended key over unified attribute names.

    Order is presentational (it fixes matching-table column order); the
    key itself is a set.
    """

    __slots__ = ("_attributes",)

    def __init__(self, attributes: Sequence[str]) -> None:
        attrs = list(attributes)
        if not attrs:
            raise ExtendedKeyError("extended key cannot be empty")
        if len(set(attrs)) != len(attrs):
            raise ExtendedKeyError(f"duplicate attributes in extended key {attrs}")
        self._attributes: Tuple[str, ...] = tuple(attrs)

    # ------------------------------------------------------------------
    @property
    def attributes(self) -> Tuple[str, ...]:
        """The key attributes, in declaration order."""
        return self._attributes

    def as_set(self) -> FrozenSet[str]:
        """The key as a set."""
        return frozenset(self._attributes)

    def __iter__(self):
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._attributes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtendedKey):
            return NotImplemented
        return self.as_set() == other.as_set()

    def __hash__(self) -> int:
        return hash(self.as_set())

    def __repr__(self) -> str:
        return "ExtendedKey{" + ", ".join(self._attributes) + "}"

    # ------------------------------------------------------------------
    def identity_rule(self) -> IdentityRule:
        """The extended-key equivalence identity rule this key induces."""
        return extended_key_rule(self._attributes)

    def missing_in(self, relation: Relation) -> Tuple[str, ...]:
        """K_Ext attributes absent from *relation*'s schema.

        The paper writes ``K_Ext−R = K_Ext − K_R``; we subtract the whole
        attribute set, which coincides when (as the paper assumes) every
        present extended-key attribute is part of the relation's key, and
        avoids re-deriving values the relation already stores.
        """
        present = set(relation.schema.names)
        return tuple(a for a in self._attributes if a not in present)

    def covers_keys(self, r: Relation, s: Relation) -> bool:
        """True iff K_Ext ⊇ K_R ∪ K_S (the ``K1 ∪ K2 ∪ Ā`` shape).

        Uses each relation's primary key in the *unified* namespace — pass
        the unified relations.
        """
        wanted = set(r.schema.primary_key) | set(s.schema.primary_key)
        return wanted <= self.as_set()

    def check_against(
        self, *relations: Relation, derivable: Iterable[str] = ()
    ) -> None:
        """Validate the key is usable with the (unified) sources.

        Every key attribute must exist in at least one source schema or
        be ILFD-*derivable* (the caller passes the attributes its ILFDs
        can conclude) — an attribute in neither could never be valued
        for any source and the matching table would always be empty.
        """
        known = set(derivable).union(*(rel.schema.names for rel in relations))
        orphans = [a for a in self._attributes if a not in known]
        if orphans:
            raise ExtendedKeyError(
                f"extended key attributes {orphans} appear in no source "
                "relation and no ILFD derives them"
            )

    def proper_subsets(self) -> Iterable["ExtendedKey"]:
        """All extended keys over proper non-empty subsets (for minimality
        probes: if a subset also yields sound unique matching on the given
        instances, the key is not instance-minimal)."""
        from itertools import combinations

        for size in range(1, len(self._attributes)):
            for combo in combinations(self._attributes, size):
                yield ExtendedKey(list(combo))
