"""Unit tests for rules and rule sets."""

import pytest

from repro.errors import RuleError
from repro.rules.clause import AttributeRef, Clause, Interval
from repro.rules.rule import Rule
from repro.rules.ruleset import RuleSet


def displacement_rule():
    return Rule([Clause.between("CLASS.Displacement", 7250, 30000)],
                Clause.equals("CLASS.Type", "SSBN"),
                support=4, rhs_subtype="SSBN")


def class_rule():
    return Rule([Clause.between("CLASS.Class", "0101", "0103")],
                Clause.equals("CLASS.Type", "SSBN"),
                support=3, rhs_subtype="SSBN")


class TestRule:
    def test_requires_premise(self):
        with pytest.raises(RuleError):
            Rule([], Clause.equals("T.A", 1))

    def test_premise_satisfied_by(self):
        rule = displacement_rule()
        ref = AttributeRef("CLASS", "Displacement")
        assert rule.premise_satisfied_by({ref: 16600})
        assert not rule.premise_satisfied_by({ref: 5000})
        assert not rule.premise_satisfied_by({})

    def test_satisfied_by(self):
        rule = displacement_rule()
        record = {AttributeRef("CLASS", "Displacement"): 16600,
                  AttributeRef("CLASS", "Type"): "SSBN"}
        assert rule.satisfied_by(record)
        record[AttributeRef("CLASS", "Type")] = "SSN"
        assert not rule.satisfied_by(record)

    def test_sound_on(self):
        rule = displacement_rule()
        good = [{AttributeRef("CLASS", "Displacement"): 9000,
                 AttributeRef("CLASS", "Type"): "SSBN"}]
        bad = good + [{AttributeRef("CLASS", "Displacement"): 8000,
                       AttributeRef("CLASS", "Type"): "SSN"}]
        assert rule.sound_on(good)
        assert not rule.sound_on(bad)

    def test_render_isa_style(self):
        rule = displacement_rule()
        assert rule.render(isa_style=True).endswith("then x isa SSBN")
        assert "CLASS.Type = SSBN" in rule.render()

    def test_equality_ignores_support(self):
        left = displacement_rule()
        right = displacement_rule()
        right.support = 99
        assert left == right

    def test_scheme_key(self):
        assert displacement_rule().scheme_key() != class_rule().scheme_key()


class TestRuleSet:
    @pytest.fixture()
    def ruleset(self):
        rules = RuleSet()
        rules.add(displacement_rule())
        rules.add(class_rule())
        return rules

    def test_numbering(self, ruleset):
        assert [rule.number for rule in ruleset] == [1, 2]
        assert ruleset[1].rhs_subtype == "SSBN"
        with pytest.raises(IndexError):
            ruleset[3]

    def test_forward_index(self, ruleset):
        hits = ruleset.rules_with_premise_on(
            AttributeRef("CLASS", "Displacement"))
        assert len(hits) == 1

    def test_backward_index(self, ruleset):
        hits = ruleset.rules_concluding_on(AttributeRef("CLASS", "Type"))
        assert len(hits) == 2

    def test_premise_attributes(self, ruleset):
        names = {ref.render() for ref in ruleset.premise_attributes()}
        assert names == {"CLASS.Displacement", "CLASS.Class"}

    def test_schemes(self, ruleset):
        schemes = ruleset.schemes()
        assert len(schemes) == 2
        assert schemes[0].render() == (
            "CLASS.Displacement --> CLASS.Type")

    def test_filtered_renumbers(self, ruleset):
        kept = ruleset.filtered(lambda rule: rule.support >= 4)
        assert len(kept) == 1
        assert kept[1].support == 4

    def test_merged_with(self, ruleset):
        merged = ruleset.merged_with(ruleset)
        assert len(merged) == 4
        assert [rule.number for rule in merged] == [1, 2, 3, 4]

    def test_render(self, ruleset):
        text = ruleset.render(isa_style=True)
        assert text.splitlines()[0].startswith("R1:")


class TestRuleIndex:
    DISPLACEMENT = AttributeRef("CLASS", "Displacement")
    TYPE = AttributeRef("class", "TYPE")

    @pytest.fixture()
    def ruleset(self):
        return RuleSet([displacement_rule(), class_rule()])

    def test_index_sees_add_after_lookup(self, ruleset):
        before = ruleset.index()
        assert len(ruleset.rules_concluding_on(self.TYPE)) == 2
        version = ruleset.version
        ruleset.add(Rule([Clause.between("CLASS.Displacement", 2000, 7000)],
                         Clause.equals("CLASS.Type", "SSN"), support=5))
        assert ruleset.version != version
        assert ruleset.index() is not before
        assert ruleset.index().version == ruleset.version
        assert [rule.number for rule in ruleset.rules_with_premise_on(
            self.DISPLACEMENT)] == [1, 3]
        assert [rule.number for rule in ruleset.rules_concluding_on(
            self.TYPE)] == [1, 2, 3]
        assert ruleset.index() is ruleset.index()  # cached per version

    def test_index_of_filtered(self, ruleset):
        ruleset.index()
        kept = ruleset.filtered(lambda rule: rule.support == 3)
        assert kept.rules_with_premise_on(self.DISPLACEMENT) == []
        assert [rule.number for rule in kept.rules_concluding_on(
            self.TYPE)] == [1]
        assert kept.premise_attributes() == [
            AttributeRef("CLASS", "Class")]

    def test_index_of_merged(self, ruleset):
        ruleset.index()
        merged = ruleset.merged_with(ruleset)
        assert [rule.number for rule in merged.rules_with_premise_on(
            self.DISPLACEMENT)] == [1, 3]
        assert [rule.number for rule in merged.rules_concluding_on(
            self.TYPE)] == [1, 2, 3, 4]
        assert merged.references("Class")
        assert not merged.references("SONAR")

    def test_endpoint_narrowing(self, ruleset):
        index = ruleset.index()
        premises = index.premises[self.DISPLACEMENT.key]
        assert premises.containing(Interval.closed(8000, 9000)) == [0]
        assert premises.containing(Interval.closed(7000, 9000)) == []
        assert premises.containing(Interval.at_least(8000)) == []

    @staticmethod
    def _inside(index, key, fact):
        """Rule numbers of each consequence group inside *fact*, in
        answer order."""
        groups = index.consequences()[key]
        return [[description.rule.number
                 for description in groups[offset].described[False]]
                for offset in index.conclusions[key].inside(fact)]

    def test_consequence_groups(self, ruleset):
        index = ruleset.index()
        key = self.TYPE.key
        assert self._inside(index, key, Interval.point("SSBN")) == [[1, 2]]
        assert self._inside(index, key, Interval.point("SSN")) == []
        assert self._inside(index, key, Interval.everything()) == [[1, 2]]
        assert index.consequences() is index.consequences()

    def test_groups_bisect_and_order_by_support(self):
        ruleset = RuleSet([
            Rule([Clause.between("T.A", 0, 1)], Clause.equals("T.B", 5),
                 support=1),
            Rule([Clause.between("T.A", 2, 3)], Clause.between("T.B", 1, 2),
                 support=2),
            Rule([Clause.between("T.C", 4, 5)], Clause.equals("T.B", 5),
                 support=7),
            Rule([Clause.between("T.A", 6, 7)], Clause.equals("T.B", 9))])
        index, key = ruleset.index(), ("t", "b")
        assert self._inside(index, key, Interval.closed(1, 5)) == [
            [2], [3, 1]]
        assert self._inside(index, key, Interval.at_least(3)) == [
            [3, 1], [4]]
        assert self._inside(index, key, Interval.closed(1, 1)) == []
        (offset,) = index.conclusions[key].inside(Interval.point(5))
        group = index.consequences()[key][offset]
        assert group.ranks == (0, 2)  # R3 leads the whole set
        assert [[ref.key for ref in refs] for refs, _ in group.signatures] \
            == [[("t", "c")], [("t", "a")]]
        assert [offsets for _, offsets in group.signatures] == [(0,), (1,)]

    def test_unordered_endpoints_are_not_narrowed(self):
        mixed = RuleSet([
            Rule([Clause.between("T.A", 1, 2)], Clause.equals("T.B", 1)),
            Rule([Clause.between("T.A", "x", "y")],
                 Clause.equals("T.B", 2)),
            Rule([Clause.between("T.A", 3, 4)], Clause.equals("T.B", "z"))])
        postings = mixed.index().premises[("t", "a")]
        assert postings.containing(Interval.point(1)) == [0, 1, 2]
        index, key = mixed.index(), ("t", "b")
        # Every group is a candidate; those the fact cannot order are
        # never inside it.
        assert self._inside(index, key, Interval.closed(0, 1)) == [[1]]
        assert self._inside(index, key, Interval.point("z")) == [[3]]
        assert self._inside(index, key, Interval.everything()) == [
            [1], [2], [3]]
