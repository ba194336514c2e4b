"""Executor for the SQL SELECT subset.

SELECT statements are normally routed through the cost-based query
planner (:mod:`repro.plan`), which consults per-relation statistics,
picks index access paths, orders joins by estimated cardinality, and
applies rule-driven semantic optimization.  The original heuristic
pipeline is kept as the *legacy* path (``use_planner=False`` or
:data:`USE_PLANNER`): WHERE conjuncts are classified into per-table
filters (pushed down before joining, with a hash-index fast path for
equality filters), equi-join edges (executed as hash joins in
connectivity order), and residual predicates (evaluated on the joined
rows).  The two paths share the scope, conjunct-classification, and
projection machinery below, so they are cross-checkable row for row.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence

from repro import obs
from repro.errors import SqlError
from repro.relational import columnar, compiled, kernels
from repro.relational.database import Database
from repro.relational.datatypes import infer_type, INTEGER, REAL
from repro.relational.expressions import (
    ColumnRef, Comparison, Environment, Expression, Literal, conjuncts,
)
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema
from repro.sql import ast
from repro.sql.parser import parse_select

#: Default SELECT execution path.  ``True`` routes through the
#: cost-based planner in :mod:`repro.plan`; ``False`` restores the
#: legacy heuristic executor.  Either way the per-call
#: ``use_planner=`` argument wins.
USE_PLANNER = True


def execute_sql(database: Database, text: str,
                result_name: str = "result") -> Relation:
    """Parse and execute a SELECT statement against *database*."""
    return execute_select(database, parse_select(text),
                          result_name=result_name)


def execute_statement(database: Database, text: str,
                      result_name: str = "result",
                      rules=None) -> Relation | int | str:
    """Parse and execute any supported statement.

    SELECT returns a :class:`Relation`; INSERT/DELETE/UPDATE return the
    affected row count; ``EXPLAIN SELECT ...`` returns the rendered plan
    tree as a string (pass *rules* to enable semantic optimization).
    """
    from repro.sql.parser import parse_statement
    statement = parse_statement(text)
    if isinstance(statement, ast.ExplainStmt):
        from repro.plan.explain import explain_select
        kind = "explain_analyze" if statement.analyze else "explain"
        obs.counter("queries_total", "statements executed by type",
                    type=kind).inc()
        return explain_select(database, statement.select, rules=rules,
                              analyze=statement.analyze)
    if isinstance(statement, ast.SelectStmt):
        obs.counter("queries_total", "statements executed by type",
                    type="select").inc()
        return execute_select(database, statement,
                              result_name=result_name, rules=rules)
    obs.counter("queries_total", "statements executed by type",
                type=type(statement).__name__.replace(
                    "Stmt", "").lower()).inc()
    # DML runs inside a storage statement scope when the database is
    # attached to a durable engine: on success the scope autocommits to
    # the WAL (unless an explicit transaction is open); on error it
    # rolls the statement's mutations back, so a statement is all or
    # nothing even when it touched the relation before failing.
    scope = (database.storage.statement() if database.storage is not None
             else contextlib.nullcontext())
    with scope:
        if isinstance(statement, ast.InsertStmt):
            return _execute_insert(database, statement)
        if isinstance(statement, ast.DeleteStmt):
            return _execute_delete(database, statement)
        if isinstance(statement, ast.UpdateStmt):
            return _execute_update(database, statement)
        raise SqlError(f"unsupported statement {statement!r}")


def _constant(expression, what: str):
    from repro.relational.expressions import Environment, Literal
    if isinstance(expression, Literal):
        return expression.value
    try:
        return expression.evaluate(Environment())
    except Exception as error:
        raise SqlError(
            f"{what} must be a constant expression: "
            f"{expression.render()}") from error


def _execute_insert(database: Database, statement: ast.InsertStmt) -> int:
    relation = database.relation(statement.table)
    schema = relation.schema
    if statement.columns is not None:
        for name in statement.columns:
            schema.position(name)  # raises on unknown columns
    batch = []
    for row in statement.rows:
        if statement.columns is None:
            if len(row) != schema.arity:
                raise SqlError(
                    f"INSERT expects {schema.arity} values, "
                    f"got {len(row)}")
            batch.append([_constant(cell, "VALUES") for cell in row])
            continue
        if len(row) != len(statement.columns):
            raise SqlError("VALUES row does not match the column list")
        record = {name.lower(): _constant(cell, "VALUES")
                  for name, cell in zip(statement.columns, row)}
        batch.append([record.get(column.key)
                      for column in schema.columns])
    relation.insert_many(batch)
    return len(batch)


def _row_env(relation: Relation, row: tuple):
    from repro.relational.expressions import Environment
    return Environment.for_row(relation.schema, row)


def _where_test(relation: Relation, where: Expression):
    """Compiled row predicate for a single-relation WHERE clause."""
    return compiled.compile_predicate(
        where,
        compiled.schema_resolver(relation.schema, [relation.schema.name]),
        fallback=lambda: lambda row: where.evaluate(_row_env(relation, row)))


def _execute_delete(database: Database, statement: ast.DeleteStmt) -> int:
    relation = database.relation(statement.table)
    if statement.where is None:
        count = len(relation)
        relation.clear()
        return count
    return relation.delete_where(_where_test(relation, statement.where))


def _execute_update(database: Database, statement: ast.UpdateStmt) -> int:
    relation = database.relation(statement.table)
    positions = {}
    for name, _expression in statement.assignments:
        positions[name.lower()] = relation.schema.position(name)

    def updated(row: tuple):
        values = list(row)
        env = _row_env(relation, row)
        for name, expression in statement.assignments:
            values[positions[name.lower()]] = expression.evaluate(env)
        return values

    if statement.where is None:
        return relation.replace_where(lambda row: True, updated)
    return relation.replace_where(_where_test(relation, statement.where),
                                  updated)


def execute_select(database: Database, statement: ast.SelectStmt,
                   result_name: str = "result",
                   use_planner: bool | None = None,
                   rules=None) -> Relation:
    """Execute a parsed SELECT statement.

    With ``use_planner`` unset, :data:`USE_PLANNER` decides the path.
    *rules* (a :class:`~repro.rules.ruleset.RuleSet`) enables the
    planner's semantic optimization; the legacy path ignores it.
    """
    if use_planner is None:
        use_planner = USE_PLANNER
    start = time.perf_counter()
    if use_planner:
        # The planner path goes through the version-aware query cache:
        # repeated statements reuse the compiled plan, and expensive
        # results are served straight from the result cache while the
        # relations they touched are unchanged (REPRO_CACHE=off makes
        # this a plain pass-through to plan_select).
        from repro.cache.core import query_cache
        result = query_cache(database).execute_select(
            statement, rules=rules, result_name=result_name)
    else:
        result = execute_select_legacy(database, statement, result_name)
    if obs.enabled():
        duration = time.perf_counter() - start
        obs.counter("select_path_total", "SELECT executions by path",
                    path="planner" if use_planner else "legacy").inc()
        obs.observe_query(statement.render(), duration,
                          rows=len(result))
    return result


def execute_select_legacy(database: Database, statement: ast.SelectStmt,
                          result_name: str = "result") -> Relation:
    """The pre-planner heuristic pipeline (kept for cross-checking)."""
    scope = Scope(database, statement.tables)
    combined = _join(scope, statement.where)
    return project_statement(scope, statement, combined.bindings,
                             [combined.rows], result_name)


class Scope:
    """FROM-clause bindings: qualifier -> relation."""

    def __init__(self, database: Database, tables: Sequence[ast.TableRef]):
        if not tables:
            raise SqlError("FROM clause must name at least one relation")
        self.database = database
        self.bindings: list[str] = []
        self.relations: dict[str, Relation] = {}
        for table in tables:
            binding = table.binding.lower()
            if binding in self.relations:
                raise SqlError(f"duplicate FROM binding {table.binding!r}")
            self.bindings.append(binding)
            self.relations[binding] = database.relation(table.name)

    def resolve(self, ref: ColumnRef) -> str:
        """Binding that *ref* refers to."""
        if ref.qualifier is not None:
            binding = ref.qualifier.lower()
            if binding not in self.relations:
                raise SqlError(f"unknown table or alias {ref.qualifier!r}")
            if not self.relations[binding].schema.has_column(ref.column):
                raise SqlError(
                    f"{ref.qualifier} has no column {ref.column!r}")
            return binding
        hits = [binding for binding in self.bindings
                if self.relations[binding].schema.has_column(ref.column)]
        if not hits:
            raise SqlError(f"unknown column {ref.column!r}")
        if len(hits) > 1:
            raise SqlError(f"ambiguous column {ref.column!r}")
        return hits[0]

    def bindings_of(self, expression: Expression) -> set[str]:
        return {self.resolve(ref) for ref in expression.references()}

    def environment(self, bindings: Sequence[str],
                    rows: Sequence[tuple]) -> Environment:
        env = Environment()
        for binding, row in zip(bindings, rows):
            env.bind(binding, self.relations[binding].schema, row)
        return env


class ConjunctClasses(NamedTuple):
    """WHERE conjuncts classified for planning/execution."""

    filters: dict[str, list[Expression]]  # binding -> pushed-down filters
    edges: list[tuple[str, str, str, str]]  # (bind_a, col_a, bind_b, col_b)
    residual: list[Expression]  # multi-binding, non-equi-join


def classify_conjuncts(scope: Scope,
                       where: Expression | None) -> ConjunctClasses:
    """Classify WHERE conjuncts into per-binding filters, equi-join
    edges, and residual predicates (shared by both executor paths)."""
    filters: dict[str, list[Expression]] = {b: [] for b in scope.bindings}
    edges: list[tuple[str, str, str, str]] = []
    residual: list[Expression] = []

    for conjunct in conjuncts(where):
        used = scope.bindings_of(conjunct)
        if len(used) <= 1:
            target = next(iter(used), scope.bindings[0])
            filters[target].append(conjunct)
            continue
        if (len(used) == 2 and isinstance(conjunct, Comparison)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)):
            bind_a = scope.resolve(conjunct.left)
            bind_b = scope.resolve(conjunct.right)
            edges.append((bind_a, conjunct.left.column,
                          bind_b, conjunct.right.column))
            continue
        residual.append(conjunct)
    return ConjunctClasses(filters, edges, residual)


def equality_probe(conjunct: Expression) -> tuple[str, object] | None:
    """``(column, value)`` when *conjunct* is ``column = literal`` (either
    operand order), else ``None``.  NULL literals never match anything
    under comparison semantics, so they are not probes."""
    if not (isinstance(conjunct, Comparison) and conjunct.op == "="):
        return None
    if (isinstance(conjunct.left, Literal)
            and isinstance(conjunct.right, ColumnRef)):
        conjunct = conjunct.flipped()
    if (isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, Literal)
            and conjunct.right.value is not None):
        return conjunct.left.column, conjunct.right.value
    return None


def _filtered_rows(scope: Scope, binding: str,
                   predicates: list[Expression]) -> list[tuple]:
    """Pushed-down filters for one binding, probing a cached
    :class:`HashIndex` for the first ``column = literal`` conjunct
    instead of scanning the whole relation.  Remaining predicates are
    compiled once into positional closures (interpreted per-row
    environments only as a fallback)."""
    relation = scope.relations[binding]
    rows: Sequence[tuple] = relation.rows
    remaining = list(predicates)
    probed = False
    for conjunct in remaining:
        probe = equality_probe(conjunct)
        if probe is not None:
            column, value = probe
            index = scope.database.indexes.hash_index(relation, column)
            rows = index.lookup(value)
            remaining.remove(conjunct)
            probed = True
            break
    if (remaining and not probed and compiled.ENABLED
            and columnar.enabled()):
        # Vectorized fast path: evaluate the conjunction as column
        # kernels over the relation's store and gather survivors.  An
        # index probe already shrank ``rows`` to a subset the store
        # cannot address, so kernels only engage on full scans.
        try:
            store = relation.column_store()
            selection = kernels.to_selection(kernels.predicate_mask(
                store, remaining, [binding]))
        except kernels.UnsupportedKernel:
            pass
        else:
            if selection is None:
                return list(store.rows)
            store_rows = store.rows
            return [store_rows[i] for i in selection]
    resolve = compiled.schema_resolver(relation.schema, [binding])
    for predicate in remaining:
        test = compiled.compile_predicate(
            predicate, resolve,
            fallback=lambda p=predicate: lambda row: p.evaluate(
                _single_env(scope, binding, row)))
        rows = [row for row in rows if test(row)]
    return list(rows)


def _join(scope: Scope, where: Expression | None) -> "_Combined":
    """Join every FROM binding, using classified WHERE conjuncts."""
    filters, edges, residual = classify_conjuncts(scope, where)
    residual = list(residual)

    # Pre-filter each relation.
    filtered: dict[str, list[tuple]] = {}
    for binding in scope.bindings:
        filtered[binding] = _filtered_rows(scope, binding,
                                           filters[binding])

    combined = _Combined(scope, [scope.bindings[0]],
                         [(row,) for row in filtered[scope.bindings[0]]])
    remaining = list(scope.bindings[1:])
    pending_edges = list(edges)
    while remaining:
        progressed = False
        for binding in list(remaining):
            usable = [edge for edge in pending_edges
                      if _edge_connects(edge, combined.bindings, binding)]
            if usable:
                combined = combined.hash_join(binding, filtered[binding],
                                              usable)
                pending_edges = [e for e in pending_edges if e not in usable]
                remaining.remove(binding)
                progressed = True
                break
        if not progressed:
            binding = remaining.pop(0)
            combined = combined.cross(binding, filtered[binding])

    # Any join edges between already-joined tables that were not used as
    # hash keys (e.g. cycles) become residual predicates.
    for bind_a, col_a, bind_b, col_b in pending_edges:
        residual.append(Comparison(
            "=", ColumnRef(col_a, bind_a), ColumnRef(col_b, bind_b)))

    if residual:
        resolve = compiled.slot_resolver(
            [(binding, scope.relations[binding].schema)
             for binding in combined.bindings])
        tests = [compiled.compile_predicate(
                     predicate, resolve,
                     fallback=lambda p=predicate: lambda rows: p.evaluate(
                         scope.environment(combined.bindings, rows)))
                 for predicate in residual]
        combined.rows = [rows for rows in combined.rows
                         if all(test(rows) for test in tests)]
    return combined


def _edge_connects(edge: tuple[str, str, str, str],
                   joined: Sequence[str], candidate: str) -> bool:
    bind_a, _col_a, bind_b, _col_b = edge
    return ((bind_a in joined and bind_b == candidate)
            or (bind_b in joined and bind_a == candidate))


def _single_env(scope: Scope, binding: str, row: tuple) -> Environment:
    env = Environment()
    env.bind(binding, scope.relations[binding].schema, row)
    env.bind("", scope.relations[binding].schema, row)
    return env


class _Combined:
    """Intermediate join state: per-binding row tuples, aligned."""

    def __init__(self, scope: Scope, bindings: list[str],
                 rows: list[tuple]):
        self.scope = scope
        self.bindings = bindings
        self.rows = rows

    def hash_join(self, binding: str, new_rows: list[tuple],
                  edges: list[tuple[str, str, str, str]]) -> "_Combined":
        # Normalize edges so the existing side comes first.
        keys: list[tuple[int, int, int]] = []  # (slot, col_pos_old, col_pos_new)
        new_schema = self.scope.relations[binding].schema
        for bind_a, col_a, bind_b, col_b in edges:
            if bind_b == binding:
                old_bind, old_col, new_col = bind_a, col_a, col_b
            else:
                old_bind, old_col, new_col = bind_b, col_b, col_a
            slot = self.bindings.index(old_bind)
            old_pos = self.scope.relations[old_bind].schema.position(old_col)
            keys.append((slot, old_pos, new_schema.position(new_col)))

        buckets: dict[tuple, list[tuple]] = {}
        for row in new_rows:
            key = tuple(row[new_pos] for _s, _o, new_pos in keys)
            if any(value is None for value in key):
                continue
            buckets.setdefault(key, []).append(row)

        out: list[tuple] = []
        for rows in self.rows:
            key = tuple(rows[slot][old_pos] for slot, old_pos, _n in keys)
            if any(value is None for value in key):
                continue
            for match in buckets.get(key, ()):
                out.append(rows + (match,))
        return _Combined(self.scope, self.bindings + [binding], out)

    def cross(self, binding: str, new_rows: list[tuple]) -> "_Combined":
        out = [rows + (row,)
               for rows in self.rows for row in new_rows]
        return _Combined(self.scope, self.bindings + [binding], out)


def project_statement(scope: Scope, statement: ast.SelectStmt,
                      bindings: Sequence[str],
                      batches: Iterable[list[tuple]],
                      result_name: str) -> Relation:
    """Evaluate the SELECT list (plain or aggregated), ORDER BY and
    DISTINCT over *batches* of joined rows (lists of aligned
    per-binding row tuples).

    *batches* may be any single-pass iterable -- in particular the lazy
    batch stream of a plan tree -- and is consumed exactly once.

    Shared by the legacy executor and the planner's ProjectPlan so both
    paths produce byte-identical relations.
    """
    if statement.has_aggregates() or statement.group_by:
        return _project_grouped(scope, statement, bindings, batches,
                                result_name)
    return _project(scope, statement, bindings, batches, result_name)


def row_function(scope: Scope, bindings: Sequence[str],
                 expressions: Sequence[Expression], scalar: bool = False):
    """One generated row function for *expressions* over aligned rows
    of *bindings* (the interpreted one when compilation is off); shared
    by the projections below and the planner's hash join keys."""
    return compiled.compile_row(
        expressions,
        compiled.slot_resolver([(binding, scope.relations[binding].schema)
                                for binding in bindings]),
        lambda rows: scope.environment(bindings, rows), scalar=scalar)


def _projection_items(scope: Scope,
                      statement: ast.SelectStmt) -> list[ast.SelectItem]:
    """The effective SELECT items (star expanded in FROM order), with
    every output and sort reference validated up-front so unknown
    aliases, unknown columns and ambiguities surface as SqlError.

    Shared by the row-path projection and the vectorized fast path
    (:mod:`repro.plan.vectorized`), so both validate identically.
    """
    if statement.star:
        # Expand in FROM order (scope.bindings), not join order: the
        # planner may reorder joins, but * output columns must not move.
        items = []
        for binding in scope.bindings:
            relation = scope.relations[binding]
            for column in relation.schema.columns:
                items.append(ast.SelectItem(
                    ColumnRef(column.name, qualifier=binding)))
    else:
        items = list(statement.items)

    for item in items:
        for ref in item.expression.references():
            scope.resolve(ref)
    for key in statement.order_by:
        for ref in key.references():
            scope.resolve(ref)
    return items


def _plain_result(scope: Scope, statement: ast.SelectStmt,
                  items: Sequence[ast.SelectItem], names: Sequence[str],
                  rows: list[tuple], result_name: str) -> Relation:
    """Column typing + DISTINCT tail of the plain projection (shared
    with the vectorized fast path so output schemas stay identical)."""
    columns = []
    for position, (name, item) in enumerate(zip(names, items)):
        datatype = None
        expression = item.expression
        if isinstance(expression, ColumnRef):
            binding = scope.resolve(expression)
            datatype = scope.relations[binding].schema.column(
                expression.column).datatype
        if datatype is None:
            sample = next((row[position] for row in rows
                           if row[position] is not None), None)
            datatype = infer_type(sample) if sample is not None else REAL
        columns.append(Column(name, datatype))
    result = Relation(RelationSchema(result_name, columns), rows,
                      validated=True)
    if statement.distinct:
        result = result.distinct()
    return result


def _project(scope: Scope, statement: ast.SelectStmt,
             bindings: Sequence[str], batches: Iterable[list[tuple]],
             result_name: str) -> Relation:
    items = _projection_items(scope, statement)
    names = _output_names(items)
    # One row function computes the SELECT list followed by the sort
    # keys, so each row is read (or, interpreted, bound) once.
    width = len(items)
    row_of = row_function(scope, bindings,
                          [item.expression for item in items]
                          + list(statement.order_by))
    rows: list[tuple] = []
    for batch in batches:
        rows.extend(map(row_of, batch))

    if statement.order_by:
        rows.sort(key=lambda row: tuple(
            (v is None, v if v is not None else 0) for v in row[width:]))
        rows = [row[:width] for row in rows]

    return _plain_result(scope, statement, items, names, rows, result_name)


def _validate_grouped(scope: Scope,
                      statement: ast.SelectStmt) -> list[Expression]:
    """Up-front validation shared by the grouped projection and the
    vectorized aggregate fast path: star/aggregate mixing, the
    syntactic GROUP BY membership check, and reference resolution.
    Returns the GROUP BY expressions."""
    if statement.star:
        raise SqlError("SELECT * cannot be combined with aggregates")
    group_exprs = list(statement.group_by)
    group_renders = [e.render().lower() for e in group_exprs]
    for item in statement.items:
        if item.is_aggregate():
            continue
        if item.expression.render().lower() not in group_renders:
            raise SqlError(
                f"{item.expression.render()} must appear in GROUP BY "
                "or inside an aggregate")

    for item in statement.items:
        for ref in item.expression.references():
            scope.resolve(ref)
    for expression in group_exprs:
        for ref in expression.references():
            scope.resolve(ref)
    return group_exprs


def _grouped_result(scope: Scope, statement: ast.SelectStmt,
                    names: Sequence[str], rows: list[tuple],
                    result_name: str) -> Relation:
    """Column typing + DISTINCT tail of the grouped projection (shared
    with the vectorized aggregate fast path)."""
    columns = []
    for position, (name, item) in enumerate(zip(names, statement.items)):
        datatype = None
        if item.is_aggregate():
            call = item.expression
            if call.op == "count":
                datatype = INTEGER
            elif call.op in ("sum", "avg"):
                datatype = REAL
            elif isinstance(call.operand, ColumnRef):
                binding = scope.resolve(call.operand)
                datatype = scope.relations[binding].schema.column(
                    call.operand.column).datatype
        elif isinstance(item.expression, ColumnRef):
            binding = scope.resolve(item.expression)
            datatype = scope.relations[binding].schema.column(
                item.expression.column).datatype
        if datatype is None:
            sample = next((row[position] for row in rows
                           if row[position] is not None), None)
            datatype = infer_type(sample) if sample is not None else REAL
        columns.append(Column(name, datatype))
    result = Relation(RelationSchema(result_name, columns), rows,
                      validated=True)
    if statement.distinct:
        result = result.distinct()
    return result


def _project_grouped(scope: Scope, statement: ast.SelectStmt,
                     bindings: Sequence[str], batches: Iterable[list[tuple]],
                     result_name: str) -> Relation:
    """Aggregate projection, with optional GROUP BY.

    Non-aggregate select items must appear in the GROUP BY list
    (matched syntactically).  Without GROUP BY the whole input is one
    group and every item must be an aggregate; an empty input then
    yields the conventional single row (COUNT = 0, others NULL).
    """
    group_exprs = _validate_grouped(scope, statement)

    # Group members in first-appearance order (dicts keep insertion
    # order); a single GROUP BY expression keys by its bare value.
    groups: dict[object, list[tuple]] = defaultdict(list)
    if group_exprs:
        key_of = row_function(scope, bindings, group_exprs,
                              scalar=len(group_exprs) == 1)
        for batch in batches:
            for key, row_group in zip(map(key_of, batch), batch):
                groups[key].append(row_group)
    else:
        groups[()] = [row_group for batch in batches for row_group in batch]

    # One operand function per aggregate item, built once per query.
    operand_fns = {
        index: row_function(scope, bindings, [item.expression.operand],
                            scalar=True)
        for index, item in enumerate(statement.items)
        if item.is_aggregate() and item.expression.operand is not None}

    names = _output_names(statement.items)
    rows: list[tuple] = []
    for members in groups.values():
        out: list = []
        representative = members[0] if members else None
        env = (scope.environment(bindings, representative)
               if representative is not None else None)
        for index, item in enumerate(statement.items):
            if not item.is_aggregate():
                out.append(item.expression.evaluate(env))
                continue
            call: ast.AggregateCall = item.expression
            if call.operand is None:
                out.append(len(members))
                continue
            values = list(map(operand_fns[index], members))
            out.append(_fold_sql_aggregate(call, values))
        rows.append(tuple(out))

    if statement.order_by:
        def sort_key(pair):
            members, _row = pair
            env = (scope.environment(bindings, members[0])
                   if members else None)
            values = []
            for expression in statement.order_by:
                value = expression.evaluate(env) if env else None
                values.append((value is None,
                               value if value is not None else 0))
            return tuple(values)

        paired = sorted(zip(groups.values(), rows), key=sort_key)
        rows = [row for _members, row in paired]

    return _grouped_result(scope, statement, names, rows, result_name)


def _fold_sql_aggregate(call: ast.AggregateCall, values: list):
    present = [value for value in values if value is not None]
    if call.distinct:
        present = list(dict.fromkeys(present))
    if call.op == "count":
        return len(present)
    if not present:
        return None
    if call.op == "min":
        return min(present)
    if call.op == "max":
        return max(present)
    if call.op == "sum":
        return float(sum(present))
    if call.op == "avg":
        return float(sum(present)) / len(present)
    raise SqlError(f"unknown aggregate {call.op!r}")


def _output_names(items: Sequence[ast.SelectItem]) -> list[str]:
    names: list[str] = []
    used: set[str] = set()
    for index, item in enumerate(items):
        if item.alias:
            name = item.alias
        elif isinstance(item.expression, ColumnRef):
            name = item.expression.column
        elif isinstance(item.expression, ast.AggregateCall):
            name = item.expression.op
        else:
            name = f"col{index + 1}"
        base = name
        suffix = 2
        while name.lower() in used:
            name = f"{base}_{suffix}"
            suffix += 1
        used.add(name.lower())
        names.append(name)
    return names
