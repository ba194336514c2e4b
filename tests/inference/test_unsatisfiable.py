"""Unit tests for contradictory-condition handling."""

import pytest

from repro.inference import TypeInferenceEngine
from repro.query import IntensionalQueryProcessor
from repro.rules import Rule, RuleSet
from repro.rules.clause import Clause
from repro.synth import build_instance


class TestUnsatisfiableQueries:
    def test_contradictory_conditions_flagged(self, ship_system):
        result = ship_system.ask(
            "SELECT Class FROM CLASS "
            "WHERE Displacement > 8000 AND Displacement < 5000")
        assert result.extensional.rows == []
        assert result.inference.unsatisfiable
        assert "contradictory" in result.inference.combined_answer()

    def test_summary_notes_unsatisfiability(self, ship_system):
        result = ship_system.ask(
            "SELECT Class FROM CLASS "
            "WHERE Type = 'SSBN' AND Type = 'SSN'")
        assert result.inference.unsatisfiable
        assert "contradictory" in result.inference.summary()

    def test_no_rules_fire(self, ship_system):
        result = ship_system.ask(
            "SELECT Class FROM CLASS "
            "WHERE Displacement > 8000 AND Displacement < 5000")
        assert not result.inference.forward
        assert not result.inference.backward

    def test_engine_level(self, ship_rules, ship_binding):
        engine = TypeInferenceEngine(ship_rules, binding=ship_binding)
        result = engine.infer([
            Clause.equals("CLASS.Type", "SSBN"),
            Clause.equals("CLASS.Type", "SSN")])
        assert result.unsatisfiable

    def test_satisfiable_conjunction_not_flagged(self, ship_system):
        result = ship_system.ask(
            "SELECT Class FROM CLASS "
            "WHERE Displacement > 8000 AND Displacement < 20000")
        assert not result.inference.unsatisfiable
        assert result.inference.forward_subtypes() == ["SSBN"]

    def test_contradiction_through_equivalence(self, ship_system):
        # The contradiction only appears after canonicalizing the two
        # attribute spellings through the join.
        result = ship_system.ask(
            "SELECT SUBMARINE.Name FROM SUBMARINE, CLASS "
            "WHERE SUBMARINE.Class = CLASS.Class "
            "AND SUBMARINE.Class = '0101' AND CLASS.Class = '0215'")
        assert result.inference.unsatisfiable


@pytest.fixture(scope="module")
def hospital_system():
    instance = build_instance("hospital", seed=0)
    return IntensionalQueryProcessor(instance.database, instance.rules,
                                     binding=instance.binding)


class TestOutOfDomainConditions:
    """A condition disjoint from its declared domain used to make every
    premise on the attribute vacuously subsumed; the rules that then
    fired contradicted one another and the ask raised."""

    def test_severity_outside_domain(self, hospital_system):
        result = hospital_system.ask(
            "SELECT PATIENT.Id FROM PATIENT "
            "WHERE PATIENT.Severity >= 101 AND PATIENT.Severity <= 104")
        assert result.extensional.rows == []
        assert result.inference.unsatisfiable
        assert not result.inference.forward
        assert "contradictory" in result.inference.combined_answer()

    def test_displacement_above_domain(self, ship_system):
        result = ship_system.ask(
            "SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, "
            "CLASS.TYPE FROM SUBMARINE, CLASS "
            "WHERE SUBMARINE.CLASS = CLASS.CLASS "
            "AND CLASS.DISPLACEMENT > 30500")
        assert result.extensional.rows == []
        assert result.inference.unsatisfiable
        assert result.intensional == []

    def test_edge_of_domain_still_satisfiable(self, ship_system):
        result = ship_system.ask(
            "SELECT Class FROM CLASS WHERE Displacement >= 30000")
        assert not result.inference.unsatisfiable


class TestContradictionWhileChaining:
    def test_derived_contradiction_is_unsatisfiable(self):
        rules = RuleSet([
            Rule([Clause.between("T.A", 0, 10)], Clause.equals("T.B", 1)),
            Rule([Clause.between("T.A", 5, 10)], Clause.equals("T.B", 2))])
        result = TypeInferenceEngine(rules).infer(
            [Clause.between("T.A", 6, 7)])
        assert result.unsatisfiable
        assert result.forward == () and result.backward == ()


class TestMistypedLiterals:
    """A literal of another type than the column's values cannot be
    ordered against the rules' intervals.  Such rules neither fire nor
    match, a domain that cannot order the literal is not applied, and
    the ask answers like ``execute_sql`` instead of raising
    ``TypeError``."""

    @pytest.mark.parametrize("sql", [
        "SELECT CLASS.CLASS FROM CLASS WHERE CLASS.TYPE = 5",
        "SELECT CLASS.CLASS FROM CLASS WHERE CLASS.DISPLACEMENT = 'big'",
    ])
    def test_rows_match_execute_sql(self, ship_system, sql):
        from repro.sql.executor import execute_sql

        result = ship_system.ask(sql)
        assert result.extensional.rows == \
            execute_sql(ship_system.database, sql).rows
        assert not result.inference.forward
        assert not result.inference.backward
        result.render()

    def test_literal_against_derived_fact_is_unsatisfiable(self,
                                                            ship_system):
        # Displacement > 8000 derives Type = SSBN, which no integer
        # Type can equal.
        sql = ("SELECT CLASS.CLASS FROM CLASS "
               "WHERE CLASS.TYPE = 5 AND CLASS.DISPLACEMENT > 8000")
        result = ship_system.ask(sql)
        assert result.extensional.rows == []
        assert result.inference.unsatisfiable

    def test_mixed_literals_on_one_column_are_unsatisfiable(
            self, ship_system):
        result = ship_system.ask(
            "SELECT CLASS.CLASS FROM CLASS "
            "WHERE CLASS.TYPE = 5 AND CLASS.TYPE = 'SSN'")
        assert result.extensional.rows == []
        assert result.inference.unsatisfiable
