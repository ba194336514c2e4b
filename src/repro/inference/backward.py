"""Backward type inference.

"Backward inference uses the known facts to infer what must be true
according to the induced rules" -- reading a rule right-to-left: when a
rule's consequence lies inside an established fact, every instance
satisfying the rule's premise is guaranteed to satisfy the fact, so the
premise *describes a subset of the answers*.  The description can be
incomplete (Example 2: class 1301 is an SSBN but no surviving rule says
so), which is why backward answers characterize a set *contained in* the
extensional answer.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.inference.facts import FactBase
from repro.rules.clause import AttributeRef, Interval
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet


class PartialDescription(NamedTuple):
    """One backward-derived subset description."""

    rule: Rule
    #: whether the matched consequence fact came straight from the query
    #: (Example 2) or was itself forward-derived (Example 3).
    via_derived_fact: bool


def backward_match(facts: FactBase, rules: RuleSet,
                   exclude: set[int] | None = None
                   ) -> list[PartialDescription]:
    """Rules whose consequence is implied by the established facts,
    support-descending with rule-number ties.

    Only attributes holding a fact are visited, and on each only the
    rules whose consequence the :class:`~repro.rules.ruleset.RuleIndex`
    finds inside the fact.

    *exclude* holds ``id()``s of rules to skip -- the engine passes the
    rules that already fired forward, whose backward reading restates
    them.
    """
    index = rules.index()
    known: dict[tuple[str, str], Interval | None] = {}

    def fact_for(attribute: AttributeRef) -> Interval | None:
        if attribute.key not in known:
            known[attribute.key] = facts.interval_for(attribute)
        return known[attribute.key]

    found: list[tuple[int, int, PartialDescription]] = []
    for postings in index.conclusions.values():
        fact = facts.interval_for(postings.attribute)
        if fact is None:
            continue
        sources = facts.sources_for(postings.attribute)
        via_derived = any(source != "query" for source in sources)
        for position in postings.within(fact):
            rule = index.rules[position]
            if exclude and id(rule) in exclude:
                continue
            if not fact.contains(rule.rhs.interval):
                continue  # within() keeps all when it cannot order
            if _premise_trivial(rule, fact_for):
                continue
            found.append((-rule.support, position,
                          PartialDescription(rule, via_derived)))
    found.sort()  # positions are unique: descriptions never compared
    return [description for _, _, description in found]


def _premise_trivial(rule: Rule, fact_for) -> bool:
    """A backward description is uninformative when its premise merely
    restates facts already established for every answer (e.g. the rule's
    premise interval contains the query's own condition).  *fact_for*
    maps an attribute to its established interval, or ``None``."""
    for clause in rule.lhs:
        fact = fact_for(clause.attribute)
        if fact is None or not clause.interval.contains(fact):
            return False
    return True
