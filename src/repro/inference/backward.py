"""Backward type inference.

"Backward inference uses the known facts to infer what must be true
according to the induced rules" -- reading a rule right-to-left: when a
rule's consequence lies inside an established fact, every instance
satisfying the rule's premise is guaranteed to satisfy the fact, so the
premise *describes a subset of the answers*.  The description can be
incomplete (Example 2: class 1301 is an SSBN but no surviving rule says
so), which is why backward answers characterize a set *contained in* the
extensional answer.

The descriptions themselves are precomputed by the
:class:`~repro.rules.ruleset.RuleIndex`, one tuple per consequence
interval and provenance, and shared across asks; matching selects
groups and drops the few rules this ask excludes.
"""

from __future__ import annotations

from operator import itemgetter

from repro.inference.facts import FactBase
from repro.rules.clause import AttributeRef, Interval
from repro.rules.rule import Rule
from repro.rules.ruleset import PartialDescription, RuleSet


def backward_match(facts: FactBase, rules: RuleSet,
                   exclude: set[int] | None = None
                   ) -> list[PartialDescription]:
    """Rules whose consequence is implied by the established facts,
    support-descending with rule-number ties.

    Only attributes holding a fact are visited, and on each only the
    consequence groups lying inside the fact.  A group's premise
    signature needs the triviality test only when every attribute in it
    holds a fact; a premise with no fact never restates one.

    *exclude* holds ``id()``s of rules to skip -- the engine passes the
    rules that already fired forward, whose backward reading restates
    them.
    """
    known: dict[tuple[str, str], Interval | None] = {}

    def fact_for(attribute: AttributeRef) -> Interval | None:
        if attribute.key not in known:
            known[attribute.key] = facts.interval_for(attribute)
        return known[attribute.key]

    index = rules.index()
    consequences = index.consequences()
    selected: list[tuple] = []
    for key, postings in index.conclusions.items():
        fact = fact_for(postings.attribute)
        if fact is None:
            continue
        via = any(source != "query"
                  for source in facts.sources_for(postings.attribute))
        groups = consequences[key]
        for slot in postings.inside(fact):
            group = groups[slot]
            described = group.described[via]
            drop: set[int] = set()
            for rule_id in exclude or ():
                drop.update(group.rule_offsets.get(rule_id, ()))
            for refs, offsets in group.signatures:
                for ref in refs:
                    if fact_for(ref) is None:
                        break
                else:
                    drop.update(
                        offset for offset in offsets
                        if _premise_trivial(described[offset].rule,
                                            fact_for))
            if drop:
                selected.append((_without(group.ranks, drop),
                                 _without(described, drop)))
            else:
                selected.append((group.ranks, described))
    if not selected:
        return []
    if len(selected) == 1:
        return list(selected[0][1])
    merged = [pair for ranks, described in selected
              for pair in zip(ranks, described)]
    merged.sort(key=itemgetter(0))
    return [description for _, description in merged]


def _without(items: tuple, drop: set[int]) -> list:
    """*items* less the offsets in *drop*, copied slice by slice."""
    out: list = []
    start = 0
    for offset in sorted(drop):
        out.extend(items[start:offset])
        start = offset + 1
    out.extend(items[start:])
    return out


def _premise_trivial(rule: Rule, fact_for) -> bool:
    """A backward description is uninformative when its premise merely
    restates facts already established for every answer (e.g. the rule's
    premise interval contains the query's own condition).  *fact_for*
    maps an attribute to its established interval, or ``None``; a
    premise that cannot be ordered against its fact restates nothing."""
    for clause in rule.lhs:
        fact = fact_for(clause.attribute)
        if fact is None:
            return False
        try:
            if not clause.interval.contains(fact):
                return False
        except TypeError:
            return False
    return True
