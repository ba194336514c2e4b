"""E11 -- inference latency vs knowledge-base size.

The paper stores rules in relations partly because "storing more rules
... increases the overhead for storing and searching these rules".
This benchmark times uncached forward+backward inference (the engine's
memo is switched off with ``REPRO_CACHE=off``, so every call chains)
against rule bases of 10^2, 10^3 and 10^4 rules.  The rules crowd onto
a few attributes with disjoint premise intervals, the shape induced
rule schemes have, plus one live chain the query fires.

Guard: retrieval goes through the shared rule index, so growth is
sub-linear -- 10^4 rules cost at most 5x the time of 10^2 rules.

That knowledge base gives every rule its own consequence and holds no
fact on one, so backward matching never returns anything.  The fan-in
sweep adds the hospital shape: 10^2, 10^3 and 10^4 rules ``P.Id in
[a, b] --> P.Triage = v`` over three consequence values, asked with a
fact on ``P.Triage``, so about a third of the rule base comes back as
descriptions.  Descriptions are precomputed per consequence interval,
so what an ask pays per returned description must not grow with the
rule base: guard, at 10^4 rules at most 1.5x its cost at 10^2.  That
holds for re-testing every matching rule per ask too (a constant cost
per description), so a second guard bounds the ask itself: at 10^4
rules, returning 100x the descriptions, at most 10x its 10^2 time
(re-testing measured ~100x).
"""

import time

from repro.inference import TypeInferenceEngine
from repro.reporting import render_table
from repro.rules import Clause, Rule, RuleSet

from conftest import record_report

SIZES = (100, 1_000, 10_000)
#: Attributes the synthetic rules crowd onto (one rule scheme each).
SCHEMES = 10
GUARD = 5.0
#: Timing: best of SAMPLES interleaved samples of CALLS calls each.
SAMPLES = 15
CALLS = 20

CONDITIONS = [Clause.between("Q.A", 10, 20),
              Clause.between("T.X0", 42, 45)]

#: Consequence values of the fan-in sweep, and its one condition.
FAN_IN_VALUES = ("low", "mid", "high")
FAN_IN_CONDITIONS = [Clause.equals("P.Triage", "mid")]
FAN_IN_GUARD = 1.5
FAN_IN_ASK_GUARD = 10.0


def synthetic_rules(n_rules: int) -> RuleSet:
    """A two-rule chain the conditions fire, then *n_rules* - 2 rules
    spread over :data:`SCHEMES` schemes ``T.Xk --> T.Yk`` with disjoint
    premise intervals and distinct consequences."""
    rules = RuleSet()
    rules.add(Rule([Clause.between("Q.A", 0, 100)],
                   Clause.equals("Q.B", "hit"), support=5,
                   rhs_subtype="HIT"))
    rules.add(Rule([Clause.equals("Q.B", "hit")],
                   Clause.equals("Q.C", "chained"), support=5))
    for index in range(n_rules - 2):
        scheme, slot = index % SCHEMES, index // SCHEMES
        rules.add(Rule(
            [Clause.between(f"T.X{scheme}", slot * 10, slot * 10 + 9)],
            Clause.equals(f"T.Y{scheme}", f"c{slot}"),
            support=index % 7))
    return rules


def fan_in_rules(n_rules: int) -> RuleSet:
    """*n_rules* rules with disjoint ``P.Id`` premises, concluding into
    the :data:`FAN_IN_VALUES` in turn (supports 3..10, as induced)."""
    rules = RuleSet()
    for index in range(n_rules):
        rules.add(Rule(
            [Clause.between("P.Id", index * 10, index * 10 + 9)],
            Clause.equals("P.Triage", FAN_IN_VALUES[index % 3]),
            support=3 + index % 8))
    return rules


def _best_per_call(engines: dict, conditions) -> dict:
    """Best of :data:`SAMPLES` interleaved samples, seconds per call."""
    best = {n_rules: float("inf") for n_rules in engines}
    for _sample in range(SAMPLES):
        for n_rules, engine in engines.items():
            start = time.perf_counter()
            for _call in range(CALLS):
                engine.infer(conditions)
            best[n_rules] = min(best[n_rules],
                                (time.perf_counter() - start) / CALLS)
    return best


def _fan_in_sweep() -> tuple[str, dict, bool]:
    engines, returned = {}, {}
    for n_rules in SIZES:
        engine = TypeInferenceEngine(fan_in_rules(n_rules))
        result = engine.infer(FAN_IN_CONDITIONS)
        returned[n_rules] = len(result.backward)
        assert returned[n_rules] == (n_rules + 1) // 3
        engines[n_rules] = engine
    best = _best_per_call(engines, FAN_IN_CONDITIONS)
    per_description = {n: best[n] / returned[n] for n in SIZES}
    growth = per_description[SIZES[-1]] / per_description[SIZES[0]]
    ask_growth = best[SIZES[-1]] / best[SIZES[0]]
    passed = growth <= FAN_IN_GUARD and ask_growth <= FAN_IN_ASK_GUARD
    rows = [[n_rules, returned[n_rules], f"{best[n_rules] * 1e6:.1f}",
             f"{per_description[n_rules] * 1e6:.3f}"] for n_rules in SIZES]
    text = (render_table(["rules", "descriptions", "us per ask",
                          "us per description"], rows)
            + f"\n\nguard: us per description at 10^4 rules <= "
            + f"{FAN_IN_GUARD}x of 10^2 ({growth:.2f}x) and us per ask "
            + f"<= {FAN_IN_ASK_GUARD:.0f}x ({ask_growth:.2f}x): "
            + ("ok" if passed else "FAIL"))
    data = {"values": len(FAN_IN_VALUES),
            "descriptions": {str(n): returned[n] for n in SIZES},
            "infer_s": {str(n): best[n] for n in SIZES},
            "per_description_s": {str(n): per_description[n]
                                  for n in SIZES},
            "growth": growth, "ask_growth": ask_growth,
            "guard": f"per description <= {FAN_IN_GUARD}x, "
                     f"per ask <= {FAN_IN_ASK_GUARD:.0f}x",
            "guard_passed": passed}
    return text, data, passed


def test_inference_latency_sweep(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    engines = {}
    build_s = {}
    for n_rules in SIZES:
        rules = synthetic_rules(n_rules)
        start = time.perf_counter()
        rules.index()
        build_s[n_rules] = time.perf_counter() - start
        engine = TypeInferenceEngine(rules)
        result = engine.infer(CONDITIONS)
        assert result.forward_subtypes() == ["HIT"]
        assert len(result.forward) == 3  # the chain and T.X0 -> T.Y0
        assert engine.memo_hits == engine.memo_misses == 0
        engines[n_rules] = engine

    best = _best_per_call(engines, CONDITIONS)
    growth = best[SIZES[-1]] / best[SIZES[0]]
    passed = growth <= GUARD
    fan_in_text, fan_in, fan_in_passed = _fan_in_sweep()
    rows = [[n_rules, f"{best[n_rules] * 1e6:.1f}",
             f"{best[n_rules] / best[SIZES[0]]:.2f}x",
             f"{build_s[n_rules] * 1e3:.2f}"] for n_rules in SIZES]
    record_report(
        "E11", "Uncached inference latency vs rule-base size",
        render_table(["rules", "best microseconds", "vs 10^2",
                      "index build ms"], rows)
        + f"\n\nguard: 10^4 rules <= {GUARD:.0f}x of 10^2 rules: "
        + ("ok" if passed else "FAIL") + f" ({growth:.2f}x)"
        + "\n\nfan-in (backward matching, 3 consequence values):\n"
        + fan_in_text,
        data={"sizes": list(SIZES), "schemes": SCHEMES,
              "infer_s": {str(n): best[n] for n in SIZES},
              "index_build_s": {str(n): build_s[n] for n in SIZES},
              "growth": growth, "guard": f"<= {GUARD:.0f}x",
              "guard_passed": passed, "fan_in": fan_in})
    assert passed, (
        f"inference grew {growth:.1f}x from {SIZES[0]} to {SIZES[-1]} "
        f"rules (guard {GUARD:.0f}x)")
    assert fan_in_passed, (
        f"from {SIZES[0]} to {SIZES[-1]} rules the per-description cost "
        f"grew {fan_in['growth']:.2f}x (guard {FAN_IN_GUARD}x) and the "
        f"ask {fan_in['ask_growth']:.2f}x (guard {FAN_IN_ASK_GUARD:.0f}x)")


def test_ship_inference_latency(benchmark, ship_system, monkeypatch):
    """Uncached inference over the real ship knowledge base (Example 3
    facts)."""
    from repro.rules.clause import AttributeRef

    monkeypatch.setenv("REPRO_CACHE", "off")
    conditions = [Clause.equals("INSTALL.Sonar", "BQS-04")]
    equivalences = [
        (AttributeRef("SUBMARINE", "Class"),
         AttributeRef("CLASS", "Class")),
        (AttributeRef("SUBMARINE", "Id"), AttributeRef("INSTALL", "Ship")),
    ]

    result = benchmark(ship_system.engine.infer, conditions, equivalences)
    assert set(result.forward_subtypes()) == {"BQS", "SSN"}

