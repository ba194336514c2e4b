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
