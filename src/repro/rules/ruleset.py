"""Rule sets and rule schemes.

"The rules generated for the same attribute pair (X, Y) consist of the
rule set designated by the rule scheme X --> Y" (Section 5.2.1).  A
:class:`RuleSet` is the whole knowledge base's rule collection; a
:class:`RuleScheme` is one ``X --> Y`` group within it.

Section 5 warns that "storing more rules ... increases the overhead for
storing and searching these rules".  The set therefore keeps one
:class:`RuleIndex` per version: for every attribute, the rules with a
premise on it and the rules concluding on it, with their distinct
intervals sorted by lower endpoint.  Forward chaining, backward
matching and the planner's semantic optimizer all retrieve their
candidate rules from it instead of scanning the whole set.

Backward matching goes further: on first use the index groups the rules
concluding on each attribute by distinct consequence interval, orders
each group's rules as answers list them (support descending, then rule
position), and precomputes one tuple of :class:`PartialDescription`
per group and provenance.  An ask bisects to the groups inside its fact
and returns those shared descriptions, dropping only the rules the
forward pass fired and premises that restate a fact.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.rules.clause import AttributeRef, Clause, Interval
from repro.rules.rule import Rule

#: Process-wide monotonic source for :attr:`RuleSet.version`.  Every
#: construction and every mutation of *any* rule set draws a fresh
#: number, so two rule sets never share a version and a changed rule
#: base can never be mistaken for the one a cache entry was keyed on.
_VERSIONS = itertools.count(1)


class RuleScheme:
    """The rules sharing one premise/consequence attribute signature."""

    def __init__(self, lhs_attributes: Sequence[AttributeRef],
                 rhs_attribute: AttributeRef, rules: Sequence[Rule]):
        self.lhs_attributes = tuple(lhs_attributes)
        self.rhs_attribute = rhs_attribute
        self.rules = tuple(rules)

    def render(self) -> str:
        lhs = ", ".join(a.render() for a in self.lhs_attributes)
        return f"{lhs} --> {self.rhs_attribute.render()}"

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __repr__(self) -> str:
        return f"<RuleScheme {self.render()}, {len(self.rules)} rules>"


def _low_key(value) -> tuple:
    """Sort key of a lower endpoint (``None`` is minus infinity)."""
    return (0,) if value is None else (1, value)


class Postings:
    """The rules with a clause on one attribute.

    :attr:`positions` lists the rules' 0-based positions in rule-number
    order.  :attr:`groups` pairs each distinct clause interval with the
    positions of the rules that use it, sorted by lower endpoint, so
    :meth:`containing` and :meth:`inside` bisect to the intervals that
    can qualify and test only those.  When the endpoints cannot be
    ordered the groups keep first-use order and nothing is narrowed.
    """

    __slots__ = ("attribute", "positions", "groups", "_lows")

    def __init__(self, entries: list[tuple[int, Clause]]):
        #: the attribute as the first rule on it spells it.
        self.attribute = entries[0][1].attribute
        self.positions = sorted({position for position, _ in entries})
        groups: dict[Interval, list[int]] = {}
        for position, clause in entries:
            groups.setdefault(clause.interval, []).append(position)
        self.groups = list(groups.items())
        try:
            self.groups = sorted(self.groups,
                                 key=lambda group: _low_key(group[0].low))
        except TypeError:
            self._lows = None
            return
        self._lows = [_low_key(interval.low) for interval, _ in self.groups]

    def containing(self, interval: Interval) -> list[int]:
        """Positions of the rules whose interval contains *interval*
        (only intervals starting at or below it can)."""
        if self._lows is None:
            return self.positions
        try:
            stop = bisect_right(self._lows, _low_key(interval.low))
            return sorted({position for candidate, positions
                           in self.groups[:stop]
                           if candidate.contains(interval)
                           for position in positions})
        except TypeError:
            return self.positions

    def inside(self, interval: Interval) -> list[int]:
        """Offsets into :attr:`groups` of the intervals lying inside
        *interval* (only intervals starting inside it can).  An interval
        that cannot be ordered against *interval* is never inside it."""
        candidates = range(len(self.groups))
        if self._lows is not None:
            try:
                candidates = range(
                    bisect_left(self._lows, _low_key(interval.low)),
                    len(self._lows) if interval.high is None
                    else bisect_right(self._lows, _low_key(interval.high)))
            except TypeError:
                pass
        out = []
        for offset in candidates:
            try:
                if interval.contains(self.groups[offset][0]):
                    out.append(offset)
            except TypeError:
                continue
        return out


class PartialDescription(NamedTuple):
    """One backward-derived subset description."""

    rule: Rule
    #: whether the matched consequence fact came straight from the query
    #: (Example 2) or was itself forward-derived (Example 3).
    via_derived_fact: bool


class ConsequenceGroup:
    """The rules concluding one distinct interval (one entry of
    :attr:`Postings.groups`) on one attribute, in backward answer
    order: support descending, then rule position.

    ``described[via]`` is the group's tuple of
    :class:`PartialDescription` with ``via_derived_fact=via``, shared by
    every answer that selects the group; ``ranks`` holds each
    description's place in the whole rule set's answer order, the key
    that merges several groups.  ``signatures`` sub-buckets the offsets
    by premise attributes (``(refs, offsets)`` pairs), and
    ``rule_offsets`` maps a rule's ``id()`` to its offsets.
    """

    __slots__ = ("described", "ranks", "signatures", "rule_offsets")

    def __init__(self, positions: list[int], rules: Sequence[Rule],
                 rank: list[int]):
        order = sorted(positions, key=rank.__getitem__)
        self.described = tuple(
            tuple(PartialDescription(rules[position], via)
                  for position in order)
            for via in (False, True))
        self.ranks = tuple(rank[position] for position in order)
        buckets: dict[tuple, tuple[tuple, list[int]]] = {}
        self.rule_offsets: dict[int, list[int]] = {}
        for offset, position in enumerate(order):
            rule = rules[position]
            refs = {clause.attribute.key: clause.attribute
                    for clause in rule.lhs}
            bucket = buckets.setdefault(tuple(refs),
                                        (tuple(refs.values()), []))
            bucket[1].append(offset)
            self.rule_offsets.setdefault(id(rule), []).append(offset)
        self.signatures = tuple((refs, tuple(offsets))
                                for refs, offsets in buckets.values())


class RuleIndex:
    """Per-attribute :class:`Postings` of one rule-set version.

    ``rules`` is the rule sequence the positions refer to;
    ``premises`` and ``conclusions`` map an attribute key to the
    postings of the rules with a premise on it and of the rules
    concluding on it.  :meth:`consequences` adds the backward answer
    shape on first use.
    """

    __slots__ = ("version", "rules", "premises", "conclusions", "relations",
                 "_consequences")

    def __init__(self, rules: Sequence[Rule], version: int):
        self.version = version
        self.rules = tuple(rules)
        premises: dict[tuple[str, str], list] = {}
        conclusions: dict[tuple[str, str], list] = {}
        for position, rule in enumerate(self.rules):
            for clause in rule.lhs:
                premises.setdefault(clause.attribute.key, []).append(
                    (position, clause))
            conclusions.setdefault(rule.rhs.attribute.key, []).append(
                (position, rule.rhs))
        self.premises = {key: Postings(entries)
                         for key, entries in premises.items()}
        self.conclusions = {key: Postings(entries)
                            for key, entries in conclusions.items()}
        #: relation names (lower) some rule mentions.
        self.relations = frozenset(
            key[0] for key in itertools.chain(premises, conclusions))
        self._consequences: dict[tuple[str, str],
                                 list[ConsequenceGroup]] | None = None

    def consequences(self) -> dict[tuple[str, str], list[ConsequenceGroup]]:
        """By conclusion attribute key, one :class:`ConsequenceGroup`
        per entry of that attribute's ``conclusions`` groups; built on
        the first call and kept for the life of this version."""
        built = self._consequences
        if built is None:
            rules = self.rules
            order = sorted(range(len(rules)),
                           key=lambda position: (-rules[position].support,
                                                 position))
            rank = [0] * len(rules)
            for place, position in enumerate(order):
                rank[position] = place
            built = self._consequences = {
                key: [ConsequenceGroup(positions, rules, rank)
                      for _interval, positions in postings.groups]
                for key, postings in self.conclusions.items()}
        return built


class RuleSet:
    """An ordered collection of rules with an attribute index.

    Rule numbers are assigned on insertion (1-based, stable), matching
    the paper's R1..R17 numbering style.
    """

    def __init__(self, rules: Iterable[Rule] = ()):
        self._rules: list[Rule] = []
        self._index: RuleIndex | None = None
        #: Rule-base version: a process-unique integer reassigned on
        #: every :meth:`add`.  The query cache keys plan entries and
        #: intensional answers on it, so swapping in a re-induced rule
        #: set (or mutating this one) invalidates them all at once.
        self.version = next(_VERSIONS)
        #: Induction basis: relation name (lower) -> mutation version at
        #: the moment the rules were induced, or ``None`` when unknown.
        #: An induced rule is a fact about one specific database state;
        #: :meth:`fresh_for` lets consumers that *rewrite queries* with
        #: the rules (the planner's semantic optimizer) verify the state
        #: has not moved underneath them.  ``None`` preserves the legacy
        #: trust-the-caller behaviour (recovered rule bases are guarded
        #: by the storage engine's ``rule_sync`` staleness flag instead).
        self.basis: dict[str, int] | None = None
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> Rule:
        rule.number = len(self._rules) + 1
        self._rules.append(rule)
        self.version = next(_VERSIONS)
        return rule

    def extend(self, rules: Iterable[Rule]) -> None:
        for rule in rules:
            self.add(rule)

    # -- lookup ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __getitem__(self, number: int) -> Rule:
        """Rule by its 1-based rule number."""
        if not 1 <= number <= len(self._rules):
            raise IndexError(f"no rule numbered {number}")
        return self._rules[number - 1]

    def index(self) -> RuleIndex:
        """The attribute index of the current version (built lazily)."""
        index = self._index
        if index is None or index.version != self.version:
            index = self._index = RuleIndex(self._rules, self.version)
        return index

    def rules_with_premise_on(self, attribute: AttributeRef) -> list[Rule]:
        """Rules having a premise clause on *attribute* (forward index)."""
        return self._rules_in(self.index().premises, attribute)

    def rules_concluding_on(self, attribute: AttributeRef) -> list[Rule]:
        """Rules whose consequence is on *attribute* (backward index)."""
        return self._rules_in(self.index().conclusions, attribute)

    def _rules_in(self, postings_by_key: dict,
                  attribute: AttributeRef) -> list[Rule]:
        postings = postings_by_key.get(attribute.key)
        if postings is None:
            return []
        return [self._rules[position] for position in postings.positions]

    def premise_attributes(self) -> list[AttributeRef]:
        return [postings.attribute
                for postings in self.index().premises.values()]

    def schemes(self) -> list[RuleScheme]:
        """Group rules into their ``X --> Y`` rule schemes (stable order)."""
        groups: dict[tuple, list[Rule]] = {}
        order: list[tuple] = []
        for rule in self._rules:
            key = rule.scheme_key()
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(rule)
        out = []
        for key in order:
            rules = groups[key]
            out.append(RuleScheme(
                [clause.attribute for clause in rules[0].lhs],
                rules[0].rhs.attribute, rules))
        return out

    # -- induction basis -----------------------------------------------------

    def record_basis(self, database) -> None:
        """Stamp the rule set with the mutation version of every
        relation in *database*: the state these rules were induced from.
        Call right after induction, before any DML can interleave."""
        self.basis = {name.lower(): database.relation(name).version
                      for name in database.catalog.names()}

    def references(self, relation_name: str) -> bool:
        """Whether any rule mentions *relation_name* (premise or
        conclusion)."""
        return relation_name.lower() in self.index().relations

    def fresh_for(self, relation) -> bool:
        """Whether query rewrites against *relation* are still sound.

        True when no basis was recorded (trusted caller), when the
        relation's mutation version still matches the basis, or when no
        rule mentions the relation (nothing could rewrite it anyway).
        """
        if self.basis is None:
            return True
        if self.basis.get(relation.name.lower()) == relation.version:
            return True
        return not self.references(relation.name)

    # -- transformation -----------------------------------------------------

    def filtered(self, keep) -> "RuleSet":
        """New rule set with only the rules satisfying *keep* (renumbered)."""
        out = RuleSet(
            Rule(rule.lhs, rule.rhs, support=rule.support,
                 rhs_subtype=rule.rhs_subtype, source=rule.source)
            for rule in self._rules if keep(rule))
        out.basis = None if self.basis is None else dict(self.basis)
        return out

    def merged_with(self, other: "RuleSet") -> "RuleSet":
        merged = RuleSet()
        for rule in list(self) + list(other):
            merged.add(Rule(rule.lhs, rule.rhs, support=rule.support,
                            rhs_subtype=rule.rhs_subtype, source=rule.source))
        # Declarative (schema) rule sets carry no basis; an induced
        # basis survives the merge so freshness checks keep working.
        bases = [b for b in (self.basis, other.basis) if b is not None]
        if bases:
            combined: dict[str, int] = {}
            for basis in bases:
                combined.update(basis)
            merged.basis = combined
        return merged

    def render(self, isa_style: bool = False) -> str:
        return "\n".join(rule.render(isa_style=isa_style)
                         for rule in self._rules)

    def __repr__(self) -> str:
        return f"<RuleSet {len(self._rules)} rules>"
