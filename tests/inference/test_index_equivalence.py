"""Indexed rule retrieval against a naive full scan.

Forward chaining, backward matching and the semantic optimizer read
their candidate rules from the shared :class:`~repro.rules.ruleset.
RuleIndex`.  The oracles below are the full-scan algorithms they
replaced: every round tests every rule, every rule is matched, every
rule is checked against the query's constraints.  Hypothesis draws rule
sets and facts (multi-premise rules, chains, FK/join equivalences,
declared domains, open and unbounded intervals, rules added after the
index was first built) and the indexed results must equal the oracle's,
in the same order.

Backward matching reads shared, pre-ordered description tuples from the
index, so its oracle also covers what that sharing could get wrong:
consequence endpoints of mixed types on one attribute, facts selecting
several consequence groups on several attributes (the merge order),
repeated calls (the same description objects), and rules added after
the groups were built.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.errors import InferenceError
from repro.inference.backward import _premise_trivial, backward_match
from repro.inference.facts import Canonicalizer, FactBase
from repro.inference.forward import forward_chain, rule_fires
from repro.plan.semantic import MAX_PASSES, analyze
from repro.rules.clause import AttributeRef, Clause, Interval
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet

#: Attribute spellings; case variants share one key.
SPELLINGS = [("T", "A"), ("t", "a"), ("T", "B"), ("T", "C"), ("T", "D"),
             ("U", "D"), ("u", "d")]
ATTRIBUTES = st.sampled_from(SPELLINGS).map(lambda s: AttributeRef(*s))


#: Every interval over a small value range (so premises, facts and
#: consequences overlap often enough to chain): closed, open,
#: half-unbounded and unbounded.  Strategies sample from these pools.
ENDPOINTS = [None, 0, 1, 2, 3, 4, 5]
ALL_INTERVALS = list(dict.fromkeys(
    Interval(low, high, low_open=low_open, high_open=high_open)
    for low in ENDPOINTS for high in ENDPOINTS
    for low_open in (False, True) for high_open in (False, True)
    if low is None or high is None or low < high
    or (low == high and not low_open and not high_open)))
#: premise-shaped: likely to contain a point fact.
WIDE = [interval for interval in ALL_INTERVALS
        if (interval.low is None or interval.low <= 2)
        and (interval.high is None or interval.high >= 3)]
POINTS = [interval for interval in ALL_INTERVALS if interval.is_point()]

intervals = st.sampled_from(ALL_INTERVALS)
wide = st.sampled_from(WIDE)
points = st.sampled_from(POINTS)
rules = st.builds(
    Rule,
    st.lists(st.builds(Clause, ATTRIBUTES, wide | intervals),
             min_size=1, max_size=3),
    st.builds(Clause, ATTRIBUTES, points | intervals | wide),
    support=st.integers(0, 2))


#: Endpoints that cannot be ordered against the integer ones.
MIXED = [Interval.point("x"), Interval.point("y"), Interval.closed("a", "c"),
         Interval.at_least("b"), Interval.at_most("b", strict=True)]
mixed = st.sampled_from(MIXED)
mixed_rules = st.builds(
    Rule,
    st.lists(st.builds(Clause, ATTRIBUTES, wide | intervals | mixed),
             min_size=1, max_size=3),
    st.builds(Clause, ATTRIBUTES, points | intervals | mixed),
    support=st.integers(0, 2))


@st.composite
def knowledge(draw, rules=rules, conditions=points | points | intervals):
    """(rule set, FactBase factory): some rules are added after the
    index was built, which bumps the version."""
    first = draw(st.lists(rules, min_size=3, max_size=16))
    later = draw(st.lists(rules, max_size=4))
    ruleset = RuleSet(first)
    ruleset.index()
    ruleset.extend(later)
    pairs = draw(st.lists(st.tuples(ATTRIBUTES, ATTRIBUTES), max_size=2))
    domains = draw(st.dictionaries(ATTRIBUTES, st.sampled_from(
        [Interval.closed(0, 5), Interval.closed(1, 4),
         Interval.closed(0, 2), Interval.closed(3, 5)]), max_size=3))
    conditions = draw(st.lists(
        st.builds(Clause, ATTRIBUTES, conditions), min_size=1, max_size=4))

    def make_facts():
        facts = FactBase(Canonicalizer(pairs), domains)
        for clause in conditions:
            try:
                facts.add_condition(clause)
            except InferenceError:
                pass  # contradicts an earlier condition: leave it out
        return facts

    return ruleset, make_facts


# -- the full-scan oracles ---------------------------------------------------


def naive_forward_chain(facts, rules, max_iterations=100, fired=None):
    derivations = []
    if fired is None:
        fired = set()
    for _round in range(max_iterations):
        progressed = False
        for rule in rules:
            if id(rule) in fired or not rule_fires(rule, facts):
                continue
            fired.add(id(rule))
            triggers = tuple(Clause(premise.attribute,
                                    facts.interval_for(premise.attribute))
                             for premise in rule.lhs)
            narrowed = facts.assert_interval(rule.rhs.attribute,
                                             rule.rhs.interval, rule)
            derivations.append((rule, rule.rhs, narrowed, triggers))
            progressed = True
        if not progressed:
            break
    return derivations


def naive_backward_match(facts, rules, exclude=None):
    out = []
    for rule in rules:
        if exclude and id(rule) in exclude:
            continue
        fact = facts.interval_for(rule.rhs.attribute)
        if fact is None:
            continue
        try:
            if not fact.contains(rule.rhs.interval):
                continue
        except TypeError:
            continue  # cannot be ordered against the fact: no match
        if _premise_trivial(rule, facts.interval_for):
            continue
        sources = facts.sources_for(rule.rhs.attribute)
        out.append((rule, any(source != "query" for source in sources)))
    out.sort(key=lambda item: (-item[0].support, item[0].number))
    return out


def naive_analyze(relation_name, intervals, rules):
    current = dict(intervals)
    notes = []
    key = relation_name.lower()

    def applies(rule):
        if rule.rhs.attribute.relation.lower() != key:
            return False
        for clause in rule.lhs:
            if clause.attribute.relation.lower() != key:
                return False
            constraint = current.get(clause.attribute.attribute.lower())
            if constraint is None or not clause.interval.contains(
                    constraint):
                return False
        return True

    for _pass in range(MAX_PASSES):
        changed = False
        for rule in rules:
            if not applies(rule):
                continue
            column = rule.rhs.attribute.attribute.lower()
            constraint = current.get(column)
            if constraint is None:
                continue
            tightened = constraint.intersect(rule.rhs.interval)
            if tightened is None:
                notes.append(("contradiction", rule.number))
                return current, True, notes
            if tightened != constraint:
                current[column] = tightened
                notes.append(("tighten", rule.number))
                changed = True
        if not changed:
            break
    return current, False, notes


# -- equivalence -------------------------------------------------------------


def _derivation_view(derivations):
    return [(id(rule), clause, narrowed, triggers)
            for rule, clause, narrowed, triggers in derivations]


def _run(chain, facts, rules, **kwargs):
    try:
        return chain(facts, rules, **kwargs), facts.facts()
    except InferenceError:
        return "contradiction", None


class TestForwardEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(knowledge(), st.integers(1, 4))
    def test_same_derivations_in_same_order(self, kb, max_iterations):
        ruleset, make_facts = kb
        for limit in (100, max_iterations):
            expected, expected_facts = _run(
                naive_forward_chain, make_facts(), ruleset,
                max_iterations=limit)
            got, got_facts = _run(forward_chain, make_facts(), ruleset,
                                  max_iterations=limit)
            if expected == "contradiction":
                assert got == "contradiction"
                continue
            assert _derivation_view(got) == _derivation_view(expected)
            assert [(ref.key, interval, sources)
                    for ref, interval, sources in got_facts] == \
                [(ref.key, interval, sources)
                 for ref, interval, sources in expected_facts]

    @settings(max_examples=100, deadline=None)
    @given(knowledge())
    def test_fired_set_carries_across_calls(self, kb):
        ruleset, make_facts = kb
        naive_fired, fired = set(), set()
        naive_facts, facts = make_facts(), make_facts()
        for _call in range(2):
            expected, _ = _run(naive_forward_chain, naive_facts, ruleset,
                               fired=naive_fired)
            got, _ = _run(forward_chain, facts, ruleset, fired=fired)
            if expected == "contradiction":
                assert got == "contradiction"
                return
            assert _derivation_view(got) == _derivation_view(expected)
        assert fired == naive_fired


class TestBackwardEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(knowledge(), st.booleans())
    def test_same_descriptions_in_same_order(self, kb, chain_first):
        ruleset, make_facts = kb
        facts = make_facts()
        fired: set[int] = set()
        if chain_first:
            try:
                forward_chain(facts, ruleset, fired=fired)
            except InferenceError:
                return
        got = backward_match(facts, ruleset, exclude=fired)
        expected = naive_backward_match(facts, ruleset, exclude=fired)
        assert [(id(d.rule), d.via_derived_fact) for d in got] == \
            [(id(rule), via) for rule, via in expected]


def _chained(facts, ruleset, chain_first):
    """The exclusion set forward chaining leaves, or ``None`` when the
    facts contradict each other."""
    fired: set[int] = set()
    if chain_first:
        try:
            forward_chain(facts, ruleset, fired=fired)
        except InferenceError:
            return None
    return fired


def _view(descriptions):
    return [(id(d.rule), d.via_derived_fact) for d in descriptions]


def _oracle_view(expected):
    return [(id(rule), via) for rule, via in expected]


#: Conclusion attributes of the fan-in rule sets, and the wide facts
#: that select several consequence groups on each of them.
FAN_IN = [AttributeRef("T", "B"), AttributeRef("U", "D")]


@st.composite
def fan_in(draw):
    """Many rules concluding into a few points on two attributes, with
    premises on attributes that may hold a fact, and wide facts on both
    conclusion attributes."""
    ruleset = RuleSet(draw(st.lists(st.builds(
        Rule,
        st.lists(st.builds(Clause, st.sampled_from(
            [AttributeRef("T", "A"), AttributeRef("T", "C")]),
            wide | intervals), min_size=1, max_size=2),
        st.builds(Clause, st.sampled_from(FAN_IN),
                  st.sampled_from(POINTS[:4])),
        support=st.integers(0, 3)), min_size=4, max_size=30)))
    facts_on = [Clause(attribute, draw(st.sampled_from(
        [Interval.everything(), Interval.closed(0, 5),
         Interval.closed(1, 3)]))) for attribute in FAN_IN]
    premise_facts = draw(st.lists(st.builds(
        Clause, st.sampled_from([AttributeRef("T", "A"),
                                 AttributeRef("T", "C")]), points),
        max_size=2, unique_by=lambda clause: clause.attribute.key))

    def make_facts():
        facts = FactBase()
        for clause in facts_on + premise_facts:
            facts.add_condition(clause)
        return facts

    return ruleset, make_facts


class TestBackwardGroups:
    @settings(max_examples=200, deadline=None)
    @given(knowledge(mixed_rules, points | mixed | intervals),
           st.booleans())
    def test_mixed_type_consequences(self, kb, chain_first):
        ruleset, make_facts = kb
        facts = make_facts()
        fired = _chained(facts, ruleset, chain_first)
        if fired is None:
            return
        got = backward_match(facts, ruleset, exclude=fired)
        expected = naive_backward_match(facts, ruleset, exclude=fired)
        assert _view(got) == _oracle_view(expected)

    @settings(max_examples=200, deadline=None)
    @given(fan_in(), st.booleans())
    def test_merge_across_groups_and_attributes(self, kb, chain_first):
        ruleset, make_facts = kb
        facts = make_facts()
        fired = _chained(facts, ruleset, chain_first)
        got = backward_match(facts, ruleset, exclude=fired)
        groups = {(d.rule.rhs.attribute.key, d.rule.rhs.interval)
                  for d in got}
        assume(len(groups) >= 3
               and len({key for key, _ in groups}) >= 2)
        expected = naive_backward_match(facts, ruleset, exclude=fired)
        assert _view(got) == _oracle_view(expected)
        keys = [(-d.rule.support, d.rule.number) for d in got]
        assert keys == sorted(keys)

    @settings(max_examples=100, deadline=None)
    @given(knowledge(), st.booleans())
    def test_repeated_calls_share_descriptions(self, kb, chain_first):
        ruleset, make_facts = kb
        runs = []
        for _call in range(2):
            facts = make_facts()
            fired = _chained(facts, ruleset, chain_first)
            if fired is None:
                return
            runs.append(backward_match(facts, ruleset, exclude=fired))
        first, second = runs
        assert first == second
        assert all(a is b for a, b in zip(first, second))

    @settings(max_examples=100, deadline=None)
    @given(knowledge(), st.lists(rules, min_size=1, max_size=4))
    def test_rules_added_after_groups_were_built(self, kb, added):
        ruleset, make_facts = kb
        backward_match(make_facts(), ruleset)
        built = ruleset.index()
        ruleset.extend(added)
        assert ruleset.index() is not built
        facts = make_facts()
        got = backward_match(facts, ruleset)
        assert _view(got) == _oracle_view(
            naive_backward_match(facts, ruleset))


class TestSemanticEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(knowledge(), st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]), points | intervals,
        min_size=1, max_size=4),
        st.sampled_from(["T", "t", "U"]))
    def test_same_rewrites(self, kb, constraints, relation):
        ruleset, _make_facts = kb
        result = analyze(relation, constraints, ruleset)
        current, contradiction, notes = naive_analyze(
            relation, constraints, ruleset)
        assert result.intervals == current
        assert (result.contradiction is not None) == contradiction
        assert [(note.kind, note.rule.number) for note in result.notes] \
            == notes
