"""Clause- and rule-level implication tests (the logic behind type
inference).

Forward inference (Section 4) fires a rule when the *query condition* on
an attribute is subsumed by the rule premise on that attribute -- e.g.
``Displacement > 8000`` is subsumed by ``7250 <= Displacement <= 30000``
once the attribute's declared domain bound (30000) is taken into account.
These helpers implement that check, optionally widening rule premises to
the attribute's domain interval.
"""

from __future__ import annotations

from typing import Mapping

from repro.rules.clause import AttributeRef, Clause, Interval
from repro.rules.rule import Rule


def interval_subsumes(premise: Interval, condition: Interval,
                      domain: Interval | None = None) -> bool:
    """Does *premise* contain *condition* (given an optional domain)?

    When *domain* is supplied, the effective condition is the
    intersection of *condition* with the domain interval -- this is how
    the paper concludes that
    ``Displacement > 8000`` implies membership in ``[7250, 30000]`` when
    the schema declares ``Displacement in [2000..30000]``.

    A premise that cannot be ordered against the condition never
    subsumes it.
    """
    effective_condition = within_domain(condition, domain)
    if effective_condition is None:
        # The condition excludes every legal value; vacuously subsumed.
        return True
    try:
        return premise.contains(effective_condition)
    except TypeError:
        return False


def within_domain(condition: Interval,
                  domain: Interval | None) -> Interval | None:
    """*condition* narrowed to the declared *domain*, or ``None`` when it
    lies wholly outside it.  A domain that cannot be ordered against the
    condition narrows nothing, as in
    :meth:`~repro.inference.facts.FactBase.misses_domain`."""
    if domain is None:
        return condition
    try:
        return condition.intersect(domain)
    except TypeError:
        return condition


def clause_subsumes(premise: Clause, condition: Clause,
                    domains: Mapping[AttributeRef, Interval] | None = None
                    ) -> bool:
    """Clause-level subsumption: same attribute and interval containment."""
    if premise.attribute != condition.attribute:
        return False
    domain = None
    if domains is not None:
        domain = domains.get(premise.attribute)
    return interval_subsumes(premise.interval, condition.interval, domain)


def rule_fires_forward(rule: Rule,
                       conditions: Mapping[AttributeRef, Interval],
                       domains: Mapping[AttributeRef, Interval] | None = None
                       ) -> bool:
    """Whether *rule*'s whole premise is implied by the query conditions.

    Every premise clause must be subsumed: for attributes the query
    constrains, the constraint interval must lie inside the premise
    interval; premise clauses on unconstrained attributes block firing
    (nothing guarantees them).
    """
    for clause in rule.lhs:
        condition = conditions.get(clause.attribute)
        if condition is None:
            return False
        domain = domains.get(clause.attribute) if domains else None
        if not interval_subsumes(clause.interval, condition, domain):
            return False
    return True


def rule_matches_backward(rule: Rule, attribute: AttributeRef,
                          fact: Interval) -> bool:
    """Whether *rule* concludes on *attribute* with a consequence interval
    lying inside the established *fact* interval.

    When it does, the rule's premise describes a subset of the answers
    ("Ship Classes in the range 0101 to 0103 are SSBN"): any tuple
    satisfying the premise is guaranteed to satisfy the fact.
    """
    if rule.rhs.attribute != attribute:
        return False
    return fact.contains(rule.rhs.interval)


def rule_subsumed_by(general: Rule, specific: Rule) -> bool:
    """Whether *specific* is redundant given *general*: same consequence
    implied, and every *specific* premise implies a *general* premise.

    Used by rule-set minimization: if the general rule fires whenever the
    specific one does and concludes at least as much, the specific rule
    adds nothing.
    """
    if not general.rhs.implies(specific.rhs):
        return False
    for general_clause in general.lhs:
        matching = [c for c in specific.lhs
                    if c.attribute == general_clause.attribute]
        if not matching:
            return False
        if not any(c.implies(general_clause) for c in matching):
            return False
    return True
