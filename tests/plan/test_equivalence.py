"""Property-based equivalence: the cost-based planner must return the
same bag of rows as the legacy executor for every supported SELECT.

Queries are generated over a *matrix of domains* -- the paper's ship
test bed plus synthetic domains from :mod:`repro.synth` (see
``tests/domain_fixtures.py``): random FROM scenarios (with their
natural join conditions), random filter conjuncts drawn from
per-column literal pools (in-domain, boundary, and out-of-domain
values), random projections, DISTINCT, and ORDER BY.  Relation
equality is bag equality, so plan-dependent row order is ignored.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.plan import parallel
from repro.plan.planner import plan_select
from repro.plan.plans import UNBOUNDED
from repro.relational import columnar, compiled
from repro.sql.executor import (
    execute_select, execute_select_legacy, execute_statement,
)
from repro.sql.parser import parse_select
from tests.domain_fixtures import EQUIVALENCE_FIXTURES

# Read-only databases and rule bases shared by every generated query
# (hypothesis runs many examples; function-scoped fixtures don't mix
# with @given).
FIXTURES = EQUIVALENCE_FIXTURES

OPS = ["=", "<", "<=", ">", ">=", "!="]


@st.composite
def select_statements(draw):
    """Draw ``(fixture, sql)``: the domain and a query over it."""
    fixture = draw(st.sampled_from(FIXTURES))
    tables, joins = draw(st.sampled_from(fixture.scenarios))
    conjuncts = list(joins)
    for _ in range(draw(st.integers(0, 3))):
        table = draw(st.sampled_from(tables))
        column, pool = draw(st.sampled_from(fixture.columns[table]))
        op = draw(st.sampled_from(OPS))
        literal = draw(st.sampled_from(pool))
        conjuncts.append(f"{table}.{column} {op} {literal}")

    projections = ["*"]
    for table in tables:
        for column, _pool in fixture.columns[table]:
            projections.append(f"{table}.{column}")
    items = draw(st.sampled_from(projections))
    distinct = draw(st.booleans()) and items != "*"

    sql = "SELECT " + ("DISTINCT " if distinct else "") + items
    sql += " FROM " + ", ".join(tables)
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    if draw(st.booleans()) and items != "*":
        sql += f" ORDER BY {items}"
    return fixture, sql


@settings(max_examples=80, deadline=None)
@given(select_statements())
def test_planner_matches_legacy(case):
    fixture, sql = case
    statement = parse_select(sql)
    planned = execute_select(fixture.database, statement,
                             use_planner=True, rules=fixture.rules)
    legacy = execute_select_legacy(fixture.database, statement)
    assert planned == legacy, f"[{fixture.name}] {sql}"


@settings(max_examples=40, deadline=None)
@given(select_statements())
def test_planner_without_rules_matches_legacy(case):
    fixture, sql = case
    statement = parse_select(sql)
    planned = execute_select(fixture.database, statement,
                             use_planner=True)
    legacy = execute_select_legacy(fixture.database, statement)
    assert planned == legacy, f"[{fixture.name}] {sql}"


@settings(max_examples=40, deadline=None)
@given(select_statements())
def test_explain_analyze_actuals_match_legacy(case):
    """EXPLAIN ANALYZE instrumentation must not distort execution: the
    root node's measured actual row count equals the legacy executor's
    cardinality, and the rendered tree reports exactly that number."""
    import re

    from repro.plan.explain import explain_select

    fixture, sql = case
    statement = parse_select(sql)
    legacy = execute_select_legacy(fixture.database, statement)

    planned = plan_select(fixture.database, statement,
                          rules=fixture.rules)
    result = planned.execute()
    assert planned.root.actual_rows == len(result) == len(legacy), sql

    rendered = explain_select(fixture.database, statement,
                              rules=fixture.rules, analyze=True)
    root_line = next(line for line in rendered.splitlines()
                     if not line.startswith(("semantic:", "cache:")))
    match = re.search(r"actual (\d+), time ", root_line)
    assert match is not None, rendered
    assert int(match.group(1)) == len(legacy), sql


@settings(max_examples=40, deadline=None)
@given(select_statements(), st.sampled_from([1, 7, None]))
def test_streaming_matches_materializing(case, batch_size):
    """The morsel size is an implementation knob, never a semantic one:
    any streamed batch size produces *exactly* the rows (same order)
    that one unbounded batch -- the old materializing pipeline shape --
    produces, and the bag the legacy executor produces."""
    fixture, sql = case
    statement = parse_select(sql)
    streamed = plan_select(fixture.database, statement,
                           rules=fixture.rules).execute(
        batch_size=batch_size)
    reference = plan_select(fixture.database, statement,
                            rules=fixture.rules).execute(
        batch_size=UNBOUNDED)
    assert list(streamed.rows) == list(reference.rows), sql
    assert streamed == execute_select_legacy(fixture.database,
                                             statement), sql


@settings(max_examples=25, deadline=None)
@given(select_statements())
def test_compiled_predicates_match_interpreted(case):
    """Flipping ``compiled.ENABLED`` off restores the interpreted
    pre-refactor pipeline; results must be tuple-for-tuple identical."""
    fixture, sql = case
    statement = parse_select(sql)
    with_compiler = plan_select(fixture.database, statement,
                                rules=fixture.rules).execute()
    legacy_compiled = execute_select_legacy(fixture.database, statement)
    assert compiled.ENABLED
    try:
        compiled.ENABLED = False
        interpreted = plan_select(fixture.database, statement,
                                  rules=fixture.rules).execute()
        legacy_interpreted = execute_select_legacy(fixture.database,
                                                   statement)
    finally:
        compiled.ENABLED = True
    assert list(with_compiler.rows) == list(interpreted.rows), sql
    assert list(legacy_compiled.rows) == list(legacy_interpreted.rows), sql


@settings(max_examples=25, deadline=None)
@given(select_statements(), st.sampled_from([1, 7, None]))
def test_columnar_matches_row_pipeline(case, batch_size):
    """REPRO_COLUMNAR is a storage/execution knob, never a semantic
    one: the fused columnar path yields tuple-for-tuple the rows of the
    row pipeline at every batch size, on the planner and the legacy
    executor, with compiled predicates on and off."""
    fixture, sql = case
    statement = parse_select(sql)

    def run():
        return plan_select(fixture.database, statement,
                           rules=fixture.rules).execute(
            batch_size=batch_size)

    before = columnar.FORCED
    try:
        columnar.set_enabled(True)
        fused = run()
        legacy_on = execute_select_legacy(fixture.database, statement)
        columnar.set_enabled(False)
        rowwise = run()
        legacy_off = execute_select_legacy(fixture.database, statement)
        assert list(fused.rows) == list(rowwise.rows), sql
        assert list(legacy_on.rows) == list(legacy_off.rows), sql
        columnar.set_enabled(True)
        assert compiled.ENABLED
        try:
            compiled.ENABLED = False
            interpreted = run()
        finally:
            compiled.ENABLED = True
        assert list(interpreted.rows) == list(rowwise.rows), sql
    finally:
        columnar.set_enabled(before)


@pytest.mark.skipif(not columnar.HAS_NUMPY, reason="numpy not installed")
@settings(max_examples=15, deadline=None)
@given(select_statements())
def test_columnar_pure_python_matches_numpy(case):
    """The pure-Python kernel fallback (no numpy) is row-identical to
    the vectorized path."""
    fixture, sql = case
    statement = parse_select(sql)
    before = columnar.FORCED
    try:
        columnar.set_enabled(True)
        vectorized = plan_select(fixture.database, statement,
                                 rules=fixture.rules).execute()
        columnar.set_numpy_enabled(False)
        try:
            pure = plan_select(fixture.database, statement,
                               rules=fixture.rules).execute()
        finally:
            columnar.set_numpy_enabled(True)
        assert list(vectorized.rows) == list(pure.rows), sql
    finally:
        columnar.set_enabled(before)


@settings(max_examples=25, deadline=None)
@given(select_statements(), st.booleans())
def test_aggregates_match_legacy(case, count_column):
    # Rewrite the generated projection into a single aggregate; COUNT
    # over the join output must agree between the two paths.
    fixture, sql = case
    aggregate = (f"COUNT({fixture.agg_column})" if count_column
                 else "COUNT(*)")
    body = sql.split(" FROM ", 1)[1].split(" ORDER BY ")[0]
    tables_part = body.split(" WHERE ")[0]
    if count_column and not any(table in tables_part
                                for table in fixture.agg_tables):
        aggregate = "COUNT(*)"  # no table in scope has that column
    rewritten = f"SELECT {aggregate} FROM {body}"
    statement = parse_select(rewritten)
    planned = execute_select(fixture.database, statement,
                             use_planner=True, rules=fixture.rules)
    legacy = execute_select_legacy(fixture.database, statement)
    assert planned == legacy, f"[{fixture.name}] {rewritten}"


@settings(max_examples=25, deadline=None)
@given(select_statements(), st.sampled_from([2, 4]),
       st.sampled_from([1, None]))
def test_parallel_matches_serial(case, worker_count, batch_size):
    """REPRO_PARALLEL is a performance knob, never a semantic one: with
    the DOP thresholds shrunk so fixture-sized tables actually fan out
    across exchange operators, every worker count yields tuple-for-tuple
    the serial plan's rows -- same order, not just the same bag -- on
    the fused columnar path and the pure row path, at every batch
    size."""
    fixture, sql = case
    statement = parse_select(sql)

    def run():
        return plan_select(fixture.database, statement,
                           rules=fixture.rules).execute(
            batch_size=batch_size)

    workers_before = parallel.FORCED
    columnar_before = columnar.FORCED
    morsel_before = parallel.MORSEL_ROWS
    per_worker_before = parallel.ROWS_PER_WORKER
    try:
        columnar.set_enabled(True)
        parallel.set_workers(1)
        serial = run()
        # Shrink the planner thresholds so these small fixtures plan
        # multi-worker pipelines with several morsels per pipeline.
        parallel.ROWS_PER_WORKER = 2
        parallel.MORSEL_ROWS = 3
        parallel.set_workers(worker_count)
        for fused in (True, False):
            columnar.set_enabled(fused)
            result = run()
            assert list(result.rows) == list(serial.rows), \
                f"[{fixture.name}] workers={worker_count} " \
                f"fused={fused} {sql}"
    finally:
        parallel.set_workers(workers_before)
        columnar.set_enabled(columnar_before)
        parallel.MORSEL_ROWS = morsel_before
        parallel.ROWS_PER_WORKER = per_worker_before


# -- wide SELECT lists, grouping and multi-edge joins over NULLs -------------
#
# ``select_statements`` draws one SELECT item and no GROUP BY.  The
# strategy below covers what the generated row functions compile: SELECT
# lists of several items with ORDER BY and DISTINCT, one- and two-column
# GROUP BY keys with every aggregate, and hash joins over two edges,
# over ship and hospital copies that hold NULL in join and group columns.

_NULL_ROWS = {
    "ship": [
        "INSERT INTO SUBMARINE VALUES ('SSN990', NULL, '0101')",
        "INSERT INTO SUBMARINE VALUES ('SSN991', 'Ghost', NULL)",
        "INSERT INTO SUBMARINE VALUES ('SSN992', NULL, NULL)",
        "INSERT INTO CLASS VALUES ('0990', NULL, NULL, NULL)",
        "INSERT INTO CLASS VALUES ('0991', 'Phantom', 'SSN', NULL)",
        "INSERT INTO INSTALL VALUES ('SSN990', NULL)",
        "INSERT INTO INSTALL VALUES (NULL, 'BQQ-2')",
        "INSERT INTO INSTALL VALUES (NULL, NULL)",
        "INSERT INTO INSTALL VALUES ('SSN991', 'BQS-04')",
        "INSERT INTO SONAR VALUES ('BQX-9', NULL)",
    ],
    "hospital": [
        "INSERT INTO PATIENT VALUES ('N001', NULL, 50, 'RED', 'W01')",
        "INSERT INTO PATIENT VALUES ('N002', 40, NULL, NULL, 'W02')",
        "INSERT INTO PATIENT VALUES ('N003', 41, 60, 'AMBER', NULL)",
        "INSERT INTO PATIENT VALUES ('N004', NULL, NULL, NULL, NULL)",
        "INSERT INTO PATIENT VALUES ('N005', 42, 61, NULL, 'W03')",
        "INSERT INTO WARD VALUES ('W09', NULL, NULL, 10)",
    ],
}

#: (tables as (name, binding), join conjuncts) per domain.
_WIDE_SCENARIOS = {
    "ship": [
        ([("SUBMARINE", "SUBMARINE")], []),
        ([("CLASS", "CLASS")], []),
        ([("SUBMARINE", "SUBMARINE"), ("CLASS", "CLASS")],
         ["SUBMARINE.Class = CLASS.Class"]),
        ([("INSTALL", "i1"), ("INSTALL", "i2")],
         ["i1.Ship = i2.Ship", "i1.Sonar = i2.Sonar"]),
        ([("SUBMARINE", "s1"), ("SUBMARINE", "s2")],
         ["s1.Class = s2.Class", "s1.Name = s2.Name"]),
        ([("SUBMARINE", "SUBMARINE"), ("INSTALL", "INSTALL"),
          ("SONAR", "SONAR")],
         ["SUBMARINE.Id = INSTALL.Ship", "INSTALL.Sonar = SONAR.Sonar"]),
    ],
    "hospital": [
        ([("PATIENT", "PATIENT")], []),
        ([("PATIENT", "PATIENT"), ("WARD", "WARD")],
         ["PATIENT.Ward = WARD.Ward"]),
        ([("PATIENT", "p"), ("PATIENT", "q")],
         ["p.Ward = q.Ward", "p.Triage = q.Triage"]),
    ],
}

_NULL_FIXTURES = [
    fixture._replace(database=fixture.fresh_database())
    for fixture in FIXTURES if fixture.name in _NULL_ROWS]
for _fixture in _NULL_FIXTURES:
    for _sql in _NULL_ROWS[_fixture.name]:
        execute_statement(_fixture.database, _sql)


@st.composite
def wide_statements(draw):
    """Draw ``(fixture, sql, order)`` with a multi-item SELECT list
    (plain or grouped) over a scenario that may join on several edges;
    *order* lists the output positions of the ORDER BY keys."""
    fixture = draw(st.sampled_from(_NULL_FIXTURES))
    tables, joins = draw(st.sampled_from(_WIDE_SCENARIOS[fixture.name]))
    columns, numeric = [], []
    for name, binding in tables:
        for column in fixture.database.relation(name).schema.columns:
            columns.append(f"{binding}.{column.name}")
            if column.datatype.name in ("integer", "real"):
                numeric.append(f"{binding}.{column.name}")
    conjuncts = list(joins)
    for _ in range(draw(st.integers(0, 2))):
        name, binding = draw(st.sampled_from(tables))
        column, pool = draw(st.sampled_from(fixture.columns[name]))
        conjuncts.append(f"{binding}.{column} {draw(st.sampled_from(OPS))} "
                         f"{draw(st.sampled_from(pool))}")
    where = " WHERE " + " AND ".join(conjuncts) if conjuncts else ""
    source = " FROM " + ", ".join(
        name if name == binding else f"{name} {binding}"
        for name, binding in tables) + where

    if not draw(st.booleans()):
        items = draw(st.lists(st.sampled_from(columns), min_size=2,
                              max_size=4))
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        sql = f"SELECT {distinct}{', '.join(items)}{source}"
        keys = draw(st.lists(st.sampled_from(items), max_size=2))
        if keys:
            sql += " ORDER BY " + ", ".join(keys)
        return fixture, sql, [items.index(key) for key in keys]

    keys = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2,
                         unique=True))
    aggregates = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(
            ["MIN", "MAX", "COUNT", "COUNT DISTINCT", "COUNT(*)"]
            + (["SUM", "AVG"] if numeric else [])))
        if op == "COUNT(*)":
            aggregates.append(op)
            continue
        pool = numeric if op in ("SUM", "AVG") else columns
        operand = draw(st.sampled_from(pool))
        if op == "COUNT DISTINCT":
            aggregates.append(f"COUNT(DISTINCT {operand})")
        else:
            aggregates.append(f"{op}({operand})")
    sql = (f"SELECT {', '.join(keys + aggregates)}{source}"
           f" GROUP BY {', '.join(keys)}")
    if not draw(st.booleans()):
        return fixture, sql, []
    return fixture, sql + " ORDER BY " + ", ".join(keys), list(
        range(len(keys)))


def _compiled_and_interpreted(database, sql, batch_size=None):
    """Rows from the planner with generated row functions (fused
    columnar on, then the row path alone) and interpreted (compiled
    off), each as a list."""
    statement = parse_select(sql)

    def run():
        return list(plan_select(database, statement).execute(
            batch_size=batch_size).rows)

    before = columnar.FORCED
    try:
        columnar.set_enabled(True)
        fused = run()
        columnar.set_enabled(False)
        rowwise = run()
        assert compiled.ENABLED
        try:
            compiled.ENABLED = False
            interpreted = run()
        finally:
            compiled.ENABLED = True
    finally:
        columnar.set_enabled(before)
    return fused, rowwise, interpreted


@settings(max_examples=80, deadline=None)
@given(wide_statements(), st.sampled_from([1, 7, None]))
def test_row_functions_match_interpreted(case, batch_size):
    """Generated row functions are an evaluation strategy, never a
    semantic one: tuple-for-tuple the interpreted pipeline's rows, and
    the legacy executor's bag."""
    fixture, sql, order = case
    fused, rowwise, interpreted = _compiled_and_interpreted(
        fixture.database, sql, batch_size)
    assert fused == rowwise == interpreted, f"[{fixture.name}] {sql}"
    legacy = execute_select_legacy(fixture.database, parse_select(sql))
    assert sorted(map(repr, legacy.rows)) == sorted(map(repr, fused)), sql

    def sort_key(row):
        return [(row[i] is None, 0 if row[i] is None else row[i])
                for i in order]

    assert all(sort_key(a) <= sort_key(b)
               for a, b in zip(fused, fused[1:])), sql


@pytest.mark.parametrize("domain, sql, nodes", [
    ("ship", "SELECT i1.Ship, i2.Sonar, i1.Sonar FROM INSTALL i1, "
     "INSTALL i2 WHERE i1.Ship = i2.Ship AND i1.Sonar = i2.Sonar "
     "ORDER BY i2.Sonar, i1.Ship",
     ["HashJoin [i1.Ship = i2.Ship, i1.Sonar = i2.Sonar]",
      "TableScan INSTALL i1", "TableScan INSTALL i2"]),
    ("ship", "SELECT DISTINCT i1.Ship, i2.Sonar FROM INSTALL i1, "
     "INSTALL i2 WHERE i1.Ship = i2.Ship AND i1.Sonar = i2.Sonar "
     "AND i2.Sonar = 'BQQ-2'",
     ["HashJoin [i2.Ship = i1.Ship, i2.Sonar = i1.Sonar]",
      "IndexScan INSTALL", "TableScan INSTALL i1"]),
    ("hospital", "SELECT p.Id, q.Id, p.Triage FROM PATIENT p, PATIENT q "
     "WHERE p.Ward = q.Ward AND p.Triage = q.Triage AND p.Severity >= 90",
     ["HashJoin [p.Ward = q.Ward, p.Triage = q.Triage]", "IndexScan",
      "TableScan PATIENT q"]),
    ("hospital", "SELECT WARD.WardName, COUNT(*), MIN(PATIENT.Age), "
     "MAX(PATIENT.Severity), AVG(PATIENT.Age) FROM PATIENT, WARD "
     "WHERE PATIENT.Ward = WARD.Ward AND PATIENT.Age >= 40 "
     "GROUP BY WARD.WardName ORDER BY WARD.WardName",
     ["HashJoin", "TableScan WARD", "IndexScan PATIENT on Age"]),
    ("hospital", "SELECT PATIENT.Triage, PATIENT.Ward, SUM(PATIENT.Age), "
     "COUNT(DISTINCT PATIENT.Severity), COUNT(PATIENT.Triage) "
     "FROM PATIENT WHERE PATIENT.Severity < 40 "
     "GROUP BY PATIENT.Triage, PATIENT.Ward",
     ["IndexScan PATIENT on Severity"]),
    ("hospital", "SELECT PATIENT.Triage, MIN(PATIENT.Age), "
     "MAX(PATIENT.Age) FROM PATIENT GROUP BY PATIENT.Triage",
     ["TableScan PATIENT"]),
])
def test_row_functions_on_index_and_table_scans(domain, sql, nodes):
    """The shapes above pin IndexScan and TableScan children under
    HashJoin and Project, with NULL join and group keys present."""
    fixture = next(f for f in _NULL_FIXTURES if f.name == domain)
    rendered = plan_select(fixture.database, parse_select(sql)).render()
    for node in nodes:
        assert node in rendered, rendered
    fused, rowwise, interpreted = _compiled_and_interpreted(
        fixture.database, sql)
    assert fused == rowwise == interpreted, sql
    assert fused, sql
    legacy = execute_select_legacy(fixture.database, parse_select(sql))
    assert sorted(map(repr, legacy.rows)) == sorted(map(repr, fused)), sql


# -- selection-vector execution -----------------------------------------------
#
# Scan+filter chains (IndexScan or TableScan based) and single-edge hash
# joins resolve to per-binding row-position vectors, which Project and
# GROUP BY gather columns from once.  Every case below runs three ways --
# frames over the numpy kernels, frames over the pure-Python kernels,
# and the row path (columnar off) -- and all three must agree tuple for
# tuple, order included, with identical EXPLAIN ANALYZE actuals on every
# node; the legacy executor must return the same bag.

_HOSPITAL = next(f for f in FIXTURES if f.name == "hospital")
_SHIP = next(f for f in FIXTURES if f.name == "ship")
_HOSPITAL_NULLS = next(f for f in _NULL_FIXTURES if f.name == "hospital")
_SHIP_NULLS = next(f for f in _NULL_FIXTURES if f.name == "ship")

_JOIN = "PATIENT.Ward = WARD.Ward"

#: (fixture, sql, nodes the plan must contain, fast path engages)
_SELECTION_CASES = [
    (_HOSPITAL, "SELECT PATIENT.Id, PATIENT.Age FROM PATIENT "
     "WHERE PATIENT.Severity = 50", ["(hash)"], True),
    (_HOSPITAL, "SELECT PATIENT.Id, PATIENT.Triage FROM PATIENT "
     "WHERE PATIENT.Severity >= 40 AND PATIENT.Severity <= 60 "
     "AND PATIENT.Triage = 'RED'", ["(sorted)", "Filter"], True),
    (_HOSPITAL, "SELECT PATIENT.Id FROM PATIENT "
     "WHERE PATIENT.Severity > 90", ["(sorted)"], True),
    (_HOSPITAL, "SELECT PATIENT.Id, PATIENT.Severity FROM PATIENT "
     "WHERE PATIENT.Age < 20 AND PATIENT.Severity != 3",
     ["IndexScan PATIENT on Age", "Filter"], True),
    (_HOSPITAL_NULLS, "SELECT PATIENT.Id, PATIENT.Ward FROM PATIENT "
     "WHERE PATIENT.Severity = 50 AND PATIENT.Age >= 30",
     ["(hash)", "Filter"], True),
    (_HOSPITAL, f"SELECT PATIENT.Id, WARD.WardName FROM PATIENT, WARD "
     f"WHERE {_JOIN} AND PATIENT.Age >= 60",
     ["HashJoin", "IndexScan PATIENT on Age"], True),
    (_HOSPITAL_NULLS, f"SELECT PATIENT.Id, WARD.WardName, WARD.Floor "
     f"FROM PATIENT, WARD WHERE {_JOIN}", ["HashJoin"], True),
    (_HOSPITAL_NULLS, "SELECT p.Id, q.Id, q.Ward FROM PATIENT p, "
     "PATIENT q WHERE p.Ward = q.Ward AND p.Severity >= 60 "
     "AND q.Severity >= 55", ["HashJoin", "IndexScan"], True),
    (_SHIP, "SELECT SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE "
     "FROM SUBMARINE, CLASS, INSTALL "
     "WHERE SUBMARINE.CLASS = CLASS.CLASS AND SUBMARINE.ID = INSTALL.SHIP "
     "AND INSTALL.SONAR = 'BQS-04'", ["HashJoin", "HashJoin"], True),
    (_SHIP_NULLS, "SELECT SUBMARINE.Name, INSTALL.Sonar, SONAR.SonarType "
     "FROM SUBMARINE, INSTALL, SONAR WHERE SUBMARINE.Id = INSTALL.Ship "
     "AND INSTALL.Sonar = SONAR.Sonar", ["HashJoin", "HashJoin"], True),
    (_HOSPITAL, f"SELECT WARD.WardName, COUNT(*), MIN(PATIENT.Age), "
     f"MAX(PATIENT.Severity) FROM PATIENT, WARD WHERE {_JOIN} "
     f"AND PATIENT.Age >= 40 GROUP BY WARD.WardName", ["HashJoin"], True),
    (_HOSPITAL, f"SELECT PATIENT.Triage, COUNT(WARD.Floor), "
     f"MIN(WARD.Floor), MAX(WARD.Beds) FROM PATIENT, WARD "
     f"WHERE {_JOIN} GROUP BY PATIENT.Triage", ["HashJoin"], True),
    (_HOSPITAL, "SELECT PATIENT.Triage, COUNT(*), MIN(PATIENT.Age), "
     "MAX(PATIENT.Age) FROM PATIENT WHERE PATIENT.Severity >= 30 "
     "GROUP BY PATIENT.Triage", ["IndexScan"], True),
    (_HOSPITAL, "SELECT PATIENT.Age, COUNT(*), MAX(PATIENT.Severity) "
     "FROM PATIENT WHERE PATIENT.Severity <= 50 GROUP BY PATIENT.Age",
     ["TableScan", "Filter"], True),
    (_HOSPITAL_NULLS, "SELECT PATIENT.Triage, COUNT(*), "
     "COUNT(PATIENT.Triage) FROM PATIENT GROUP BY PATIENT.Triage",
     ["TableScan"], True),
    (_HOSPITAL_NULLS, f"SELECT WARD.Floor, COUNT(PATIENT.Age) "
     f"FROM PATIENT, WARD WHERE {_JOIN} GROUP BY WARD.Floor",
     ["HashJoin"], True),
    (_HOSPITAL, "SELECT COUNT(*), MIN(PATIENT.Age), MAX(PATIENT.Age) "
     "FROM PATIENT WHERE PATIENT.Severity > 1000", ["IndexScan"], True),
    (_HOSPITAL, f"SELECT PATIENT.Id, WARD.Floor FROM PATIENT, WARD "
     f"WHERE {_JOIN} AND PATIENT.Severity > 1000", ["HashJoin"], True),
    (_HOSPITAL, f"SELECT DISTINCT PATIENT.Triage, WARD.Floor "
     f"FROM PATIENT, WARD WHERE {_JOIN} AND PATIENT.Age >= 30 "
     f"ORDER BY WARD.Floor", ["HashJoin"], True),
    (_HOSPITAL_NULLS, "SELECT PATIENT.Id, PATIENT.Age FROM PATIENT "
     "WHERE PATIENT.Severity >= 20 ORDER BY PATIENT.Age", ["(sorted)"],
     True),
    (_HOSPITAL, f"SELECT DISTINCT WARD.WardName, COUNT(*) "
     f"FROM PATIENT, WARD WHERE {_JOIN} GROUP BY WARD.WardName",
     ["HashJoin"], True),
    # Each of these must fall back to the row path.
    (_HOSPITAL, "SELECT PATIENT.Triage, SUM(PATIENT.Age) FROM PATIENT "
     "WHERE PATIENT.Severity >= 30 GROUP BY PATIENT.Triage",
     ["IndexScan"], False),
    (_HOSPITAL, f"SELECT WARD.WardName, AVG(PATIENT.Severity) "
     f"FROM PATIENT, WARD WHERE {_JOIN} GROUP BY WARD.WardName",
     ["HashJoin"], False),
    (_HOSPITAL_NULLS, "SELECT PATIENT.Triage, MIN(PATIENT.Age) "
     "FROM PATIENT WHERE PATIENT.Severity >= 30 GROUP BY PATIENT.Triage",
     ["IndexScan"], False),
    (_HOSPITAL, "SELECT PATIENT.Triage, MAX(PATIENT.Ward) FROM PATIENT "
     "GROUP BY PATIENT.Triage", ["TableScan"], False),
    (_HOSPITAL, "SELECT PATIENT.Triage, COUNT(*) FROM PATIENT "
     "GROUP BY PATIENT.Triage ORDER BY PATIENT.Triage", ["TableScan"],
     False),
]


def _node_actuals(node) -> list[tuple[str, int | None]]:
    actuals = [(node.label(), node.actual_rows)]
    for child in node.children():
        actuals.extend(_node_actuals(child))
    return actuals


def _three_ways(database, sql) -> dict:
    """``mode -> (rows, per-node actuals, fast path engaged)``."""
    from repro.plan import vectorized

    statement = parse_select(sql)
    runs = {}
    before = columnar.FORCED
    try:
        for mode in ("numpy", "pure", "rows"):
            columnar.set_enabled(mode != "rows")
            columnar.set_numpy_enabled(mode == "numpy")
            probe = plan_select(database, statement).root
            fast = (mode != "rows"
                    and vectorized.fast_result(probe) is not None)
            planned = plan_select(database, statement)
            result = planned.execute()
            runs[mode] = (list(result.rows), _node_actuals(planned.root),
                          fast)
    finally:
        columnar.set_enabled(before)
        columnar.set_numpy_enabled(True)
    return runs


@pytest.mark.parametrize(
    "fixture,sql,nodes,fast", _SELECTION_CASES,
    ids=[f"{case[0].name}-{index}"
         for index, case in enumerate(_SELECTION_CASES)])
def test_selection_vectors_match_row_path(fixture, sql, nodes, fast):
    rendered = plan_select(fixture.database, parse_select(sql)).render()
    for node in nodes:
        assert node in rendered, rendered
    runs = _three_ways(fixture.database, sql)
    rows, actuals, _fast = runs["rows"]
    for mode in ("numpy", "pure"):
        got_rows, got_actuals, engaged = runs[mode]
        assert got_rows == rows, (mode, sql)
        assert got_actuals == actuals, (mode, sql)
        assert engaged == fast, (mode, sql)
    legacy = execute_select_legacy(fixture.database, parse_select(sql))
    assert sorted(map(repr, legacy.rows)) == sorted(map(repr, rows)), sql


def test_dml_between_planning_and_execution():
    """A plan built before DML executes against the relation as it is
    at execution: indexes and stores are re-resolved (rebuilt) by
    version, on every path."""
    database = _HOSPITAL.fresh_database()
    sql = (f"SELECT PATIENT.Id, WARD.WardName, PATIENT.Severity "
           f"FROM PATIENT, WARD WHERE {_JOIN} AND PATIENT.Severity >= 60")
    statement = parse_select(sql)
    plan_select(database, statement).execute()  # warm index and store
    planned = {mode: plan_select(database, statement)
               for mode in ("numpy", "pure", "rows")}
    execute_statement(database, "DELETE FROM PATIENT "
                                "WHERE PATIENT.Severity >= 90")
    execute_statement(database, "INSERT INTO PATIENT VALUES "
                                "('X001', 33, 77, 'RED', 'W02')")
    before = columnar.FORCED
    results = {}
    try:
        for mode, plan in planned.items():
            columnar.set_enabled(mode != "rows")
            columnar.set_numpy_enabled(mode == "numpy")
            results[mode] = list(plan.execute().rows)
    finally:
        columnar.set_enabled(before)
        columnar.set_numpy_enabled(True)
    assert results["numpy"] == results["pure"] == results["rows"]
    assert any(row[0] == "X001" for row in results["rows"])
    assert not any(row[2] >= 90 for row in results["rows"])
    fresh = execute_select_legacy(database, statement)
    assert sorted(map(repr, fresh.rows)) == sorted(
        map(repr, results["rows"]))


def test_stale_index_falls_back_to_row_path(monkeypatch):
    """An index whose version differs from the relation's is never
    addressed into the current column store: frame resolution declines
    and the row path runs (here serving the index's own snapshot, which
    both paths then agree on)."""
    from repro.plan.plans import resolve_frame
    from repro.relational.indexes import IndexCache

    database = _HOSPITAL.fresh_database()
    sql = ("SELECT PATIENT.Id, PATIENT.Age FROM PATIENT "
           "WHERE PATIENT.Severity >= 80")
    statement = parse_select(sql)
    relation = database.relation("PATIENT")
    stale = database.indexes.sorted_index(relation, "Severity")
    execute_statement(database, "INSERT INTO PATIENT VALUES "
                                "('X002', 50, 99, 'RED', 'W01')")
    assert stale.is_stale
    monkeypatch.setattr(IndexCache, "sorted_index",
                        lambda self, relation, column: stale)
    planned = plan_select(database, statement)
    assert "IndexScan PATIENT on Severity" in planned.render()
    assert resolve_frame(planned.root.child) is None
    assert planned.root.child.actual_rows is None
    before = columnar.FORCED
    try:
        columnar.set_enabled(True)
        fused = list(plan_select(database, statement).execute().rows)
        columnar.set_enabled(False)
        rowwise = list(plan_select(database, statement).execute().rows)
    finally:
        columnar.set_enabled(before)
    assert fused == rowwise
    assert all(row[0] != "X002" for row in fused)
