"""Semantic query optimization driven by the induced rule base.

The paper's induced rules are interval implications ("if 8000 <=
Displacement <= 30000 then Type = SSBN").  Before any tuple is scanned,
the planner runs the query's per-relation interval constraints through
the rule base:

* **Contradiction**: when a rule's premises are all implied by the
  query's constraints but its consequence is disjoint from them, no
  tuple can satisfy the query -- execution short-circuits to an empty
  result carrying an intensional explanation ("no CLASS row can have
  Type = SSBN and Displacement < 8000").
* **Tightening**: otherwise the consequence interval intersects the
  query's constraint on the same attribute, narrowing the range an
  index scan has to touch.

This is the same rewrite-before-evaluate idea used for query answering
over conceptual schemas (Calvanese et al.), applied to the induced
interval rules.  Soundness matches the rules': an induced rule holds on
the database it was induced from (and is maintained under updates by the
rule-maintenance subsystem), so rewrites never change the answer.
"""

from __future__ import annotations

from typing import NamedTuple

from repro import obs
from repro.rules.clause import Interval
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet

#: Fixpoint guard: interval intersection converges fast; this only
#: protects against pathological rule chains.
MAX_PASSES = 10


class SemanticNote(NamedTuple):
    """One applied rewrite, for EXPLAIN output."""

    kind: str  # "tighten" | "contradiction"
    rule: Rule
    message: str

    def render(self) -> str:
        return self.message


class SemanticResult(NamedTuple):
    """Outcome of semantic analysis for one relation's constraints."""

    intervals: dict[str, Interval]  # column key -> (tightened) interval
    contradiction: str | None  # intensional explanation, when proven empty
    notes: list[SemanticNote]


def _candidates(relation_name: str, intervals: dict[str, Interval],
                rules: RuleSet) -> list[Rule]:
    """The rules, in rule-number order, whose premises and consequence
    all lie on columns of *relation_name* the query constrains (read
    from the shared rule index).  Tightening never adds a constrained
    column, so the list holds for the whole fixpoint."""
    index = rules.index()
    constrained = {(relation_name.lower(), column) for column in intervals}
    positions: set[int] = set()
    for key in constrained:
        postings = index.premises.get(key)
        if postings is not None:
            positions.update(postings.positions)
    out = []
    for position in sorted(positions):
        rule = index.rules[position]
        if rule.rhs.attribute.key in constrained and all(
                clause.attribute.key in constrained for clause in rule.lhs):
            out.append(rule)
    return out


def analyze(relation_name: str, intervals: dict[str, Interval],
            rules: RuleSet | None) -> SemanticResult:
    """Tighten *intervals* (column key -> interval) for one relation
    against *rules*, or prove them unsatisfiable.

    Only columns the query already constrains are tightened; attributes
    the rules mention but the query does not are left free, so the
    rewrite never invents restrictions the projection could observe.
    """
    current = dict(intervals)
    notes: list[SemanticNote] = []
    if rules is None or not len(rules) or not current:
        return SemanticResult(current, None, notes)

    with obs.span("plan.semantic", relation=relation_name,
                  constraints=len(current)) as span:
        candidates = _candidates(relation_name, current, rules)
        for _pass in range(MAX_PASSES):
            changed = False
            for rule in candidates:
                # Applies when every premise interval contains the
                # query's constraint on that column.
                if not all(clause.interval.contains(
                        current[clause.attribute.key[1]])
                        for clause in rule.lhs):
                    continue
                column = rule.rhs.attribute.key[1]
                constraint = current[column]
                tightened = constraint.intersect(rule.rhs.interval)
                if tightened is None:
                    premise = " and ".join(c.render() for c in rule.lhs)
                    message = (
                        f"no {relation_name} row can satisfy the query: "
                        f"every row with {premise} has "
                        f"{rule.rhs.render()}, but the query requires "
                        f"{constraint.render(rule.rhs.attribute.render())} "
                        f"(R{rule.number})")
                    notes.append(SemanticNote("contradiction", rule,
                                              message))
                    obs.counter("semantic_rewrites_total",
                                "rule-driven planner rewrites by kind",
                                kind="short_circuit").inc()
                    span.set(outcome="short_circuit",
                             rule=f"R{rule.number}")
                    return SemanticResult(current, message, notes)
                if tightened != constraint:
                    current[column] = tightened
                    notes.append(SemanticNote(
                        "tighten", rule,
                        f"R{rule.number} tightens "
                        f"{rule.rhs.attribute.render()} to "
                        f"{tightened.render(rule.rhs.attribute.render())}"))
                    obs.counter("semantic_rewrites_total",
                                "rule-driven planner rewrites by kind",
                                kind="tighten").inc()
                    changed = True
            if not changed:
                break
        span.set(notes=len(notes))
    return SemanticResult(current, None, notes)
