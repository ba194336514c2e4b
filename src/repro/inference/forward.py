"""Forward type inference (Modus Ponens over interval subsumption).

"Using forward inference, we can traverse the type hierarchies of the
object types specified in the query based on the query condition and the
with constraints to derive intensional answers."  A rule fires when the
established fact on each premise attribute is *subsumed by* the premise
interval (the declared attribute domain widens the check: Displacement >
8000 within a [2000..30000] domain is subsumed by [7250..30000]).  Fired
rules add their consequences as new facts; chaining runs to fixpoint, so
a derived ``SonarType = BQS`` can enable further rules.

The fixpoint is semi-naive.  A rule can only fire once every premise
attribute holds a fact, and a rule that failed can only start to fire
after a fact on one of its premise attributes appears or narrows.  So
the first round tests the rules the :class:`~repro.rules.ruleset.
RuleIndex` lists under attributes holding a fact, and every later test
is scheduled by a fact change: in the current round when the rule comes
after the one that fired, else in the next round.  Rules are tested in
rule-number order within a round, exactly as a full scan would meet
them, so the derivations come out identical.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple

from repro.inference.facts import FactBase
from repro.rules.clause import Clause
from repro.rules.rule import Rule
from repro.rules.ruleset import Postings, RuleSet
from repro.rules.subsumption import interval_subsumes, within_domain


class ForwardDerivation(NamedTuple):
    """One forward-derived fact."""

    rule: Rule
    clause: Clause        #: the consequence asserted
    narrowed: bool        #: whether it changed the fact base
    #: snapshot of the established fact on each premise attribute at the
    #: moment the rule fired (the subsumption witnesses) -- used by
    #: :mod:`repro.inference.explain` to print derivation traces.
    triggers: tuple = ()


def rule_fires(rule: Rule, facts: FactBase) -> bool:
    """Whether every premise of *rule* is implied by the current facts."""
    for clause in rule.lhs:
        fact = facts.interval_for(clause.attribute)
        if fact is None:
            return False
        domain = facts.domain_for(clause.attribute)
        if not interval_subsumes(clause.interval, fact, domain):
            return False
    return True


def forward_chain(facts: FactBase, rules: RuleSet,
                  max_iterations: int = 100,
                  fired: set[int] | None = None
                  ) -> list[ForwardDerivation]:
    """Run forward inference to fixpoint; returns the derivations in
    firing order.  Each rule fires at most once.

    Passing *fired* lets the engine interleave chaining with bound
    propagation without re-firing rules across rounds.
    """
    derivations: list[ForwardDerivation] = []
    if fired is None:
        fired = set()
    index = rules.index()
    # Premise postings by the canonical key of their attribute, so a
    # fact reaches every rule on an FK- or join-equivalent attribute.
    canon = facts.canonicalizer.canon
    watchers: dict[tuple[str, str], list[Postings]] = {}
    for postings in index.premises.values():
        watchers.setdefault(canon(postings.attribute).key,
                            []).append(postings)
    pending = set(_candidates(facts, index.premises.values()))
    for _round in range(max_iterations):
        if not pending:
            break
        queue = sorted(pending)  # a sorted list is a valid heap
        queued = set(queue)
        pending = set()
        while queue:
            position = heapq.heappop(queue)
            rule = index.rules[position]
            if id(rule) in fired:
                continue
            if not rule_fires(rule, facts):
                continue
            fired.add(id(rule))
            triggers = tuple(
                Clause(premise.attribute,
                       facts.interval_for(premise.attribute))
                for premise in rule.lhs)
            narrowed = facts.assert_interval(
                rule.rhs.attribute, rule.rhs.interval, rule)
            derivations.append(ForwardDerivation(
                rule, rule.rhs, narrowed, triggers))
            if not narrowed:
                continue
            for later in _candidates(facts, watchers.get(
                    canon(rule.rhs.attribute).key, ())):
                if later <= position:
                    pending.add(later)
                elif later not in queued:
                    queued.add(later)
                    heapq.heappush(queue, later)
    return derivations


def _candidates(facts: FactBase,
                postings_list: Iterable[Postings]) -> list[int]:
    """Positions of the rules whose premise on one of these attributes
    subsumes the attribute's fact: the premise interval contains the
    fact narrowed to the declared domain, or the fact misses the domain
    (then every premise subsumes it vacuously).  A domain that cannot be
    ordered against the fact is not applied."""
    out: list[int] = []
    for postings in postings_list:
        fact = facts.interval_for(postings.attribute)
        if fact is None:
            continue
        fact = within_domain(fact, facts.domain_for(postings.attribute))
        if fact is None:
            out.extend(postings.positions)
            continue
        out.extend(postings.containing(fact))
    return out
