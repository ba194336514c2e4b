"""Vectorized projection and COUNT/MIN/MAX aggregation over frames.

The fused columnar kernels made predicate evaluation cheap; profiling
(ROADMAP) then showed the time going to the per-output-row projection
closures and to the per-member loops of GROUP BY.  This module removes
that tail for the common shapes.  The plan under the projection is
resolved to a :class:`~repro.plan.plans.Frame` -- one row-position
vector per FROM binding, in the row path's exact output order (index
order under an IndexScan, storage order under a TableScan, probe then
build order through single-edge hash joins) -- and:

* :func:`fast_project` -- when every SELECT item (and every ORDER BY
  key) is a plain column reference, each output column is gathered
  *once* from its binding's
  :class:`~repro.relational.columnar.ColumnStore` and the columns are
  transposed with one ``zip`` instead of building a joined tuple and
  calling a closure per row.
* :func:`fast_aggregate` -- COUNT(*), COUNT(col), and MIN/MAX over
  null-free numeric columns, globally or grouped by one column of any
  binding.  Group ids are dictionary codes (or a sorted unique table,
  or one dict pass) renumbered to first-appearance order -- the row
  path's group order -- and each group's MIN/MAX is Python's own
  ``min``/``max`` over its slice of one stable sort, so values and
  their types are exactly the row path's.  SUM and AVG (numpy's
  pairwise float sum would not reproduce the row path's left-to-right
  sum), string and NULL-bearing MIN/MAX, DISTINCT aggregates and
  grouped ORDER BY fall back.

Exact-semantics gating mirrors the kernels: a fast path engages only
when it provably reproduces the row path -- validation runs through
the *same* executor helpers (:func:`~repro.sql.executor.
_projection_items`, ``_validate_grouped``), the frame resolves only
when every predicate compiles to a total kernel, and any unsupported
shape returns ``None`` so the caller falls back to the row-path
projection, which reproduces interpreter behavior exactly.  Frame
resolution sets every plan node's actuals to what the row path
reports, so EXPLAIN ANALYZE reads the same on both paths.
"""

from __future__ import annotations

from repro import obs
from repro.plan import plans
from repro.relational import columnar, kernels
from repro.relational.expressions import ColumnRef
from repro.sql import executor as _executor
from repro.sql.ast import AggregateCall


def fast_result(project):
    """Vectorized result :class:`~repro.relational.relation.Relation`
    for *project* (a :class:`~repro.plan.plans.ProjectPlan`), or
    ``None`` when only the row path reproduces exact semantics."""
    plans._check_statement_deadline()
    if plans._batch_observer is not None:
        # The observer contract promises every streamed (plan, batch)
        # pair; gathering columns would silently skip it.
        return None
    statement = project.statement
    if statement.has_aggregates() or statement.group_by:
        result = fast_aggregate(project)
        kind = "aggregate"
    else:
        result = fast_project(project)
        kind = "project"
    if obs.enabled():
        obs.counter("plan_vectorized_total",
                    "projections taken by the vectorized fast paths",
                    kind=kind,
                    result="fast" if result is not None else "fallback"
                    ).inc()
    return result


def _located(scope, ref: ColumnRef) -> tuple[str, int]:
    """``(binding, column position)`` of a validated column reference."""
    binding = scope.resolve(ref)
    return binding, scope.relations[binding].schema.position(ref.column)


# -- vectorized projection ---------------------------------------------------


def fast_project(project):
    statement = project.statement
    if statement.order_by and not all(
            isinstance(key, ColumnRef) for key in statement.order_by):
        return None
    scope = project.scope
    # Same expansion + validation as the row path, so unknown columns
    # and ambiguities raise the identical SqlError at the same point.
    items = _executor._projection_items(scope, statement)
    if not all(isinstance(item.expression, ColumnRef) for item in items):
        return None
    frame = plans.resolve_frame(project.child)
    if frame is None:
        return None
    columns = [frame.column(*_located(scope, item.expression))
               for item in items]
    rows = list(zip(*columns))
    if statement.order_by:
        sort_columns = [frame.column(*_located(scope, key))
                        for key in statement.order_by]
        order = sorted(range(len(rows)),
                       key=lambda i: tuple(
                           (column[i] is None,
                            column[i] if column[i] is not None else 0)
                           for column in sort_columns))
        rows = [rows[i] for i in order]
    names = _executor._output_names(items)
    return _executor._plain_result(scope, statement, items, names, rows,
                                   project.result_name)


# -- COUNT / MIN / MAX, globally or grouped ----------------------------------


def fast_aggregate(project):
    statement = project.statement
    if statement.order_by:
        return None
    scope = project.scope
    # Same up-front validation as the row path (star/aggregate mixing,
    # GROUP BY membership, reference resolution).
    group_exprs = _executor._validate_grouped(scope, statement)
    if len(group_exprs) > 1 or not all(
            isinstance(expression, ColumnRef) for expression in group_exprs):
        return None
    specs: list[tuple[str, tuple[str, int] | None]] = []
    for item in statement.items:
        if not item.is_aggregate():
            # _validate_grouped proved the item *is* the group key.
            specs.append(("key", None))
            continue
        call: AggregateCall = item.expression
        if call.distinct or call.op not in ("count", "min", "max"):
            return None
        if call.operand is None:
            specs.append(("count", None))
            continue
        if not isinstance(call.operand, ColumnRef):
            return None
        located = _located(scope, call.operand)
        if call.op != "count" and not _null_free_numeric(scope, *located):
            return None
        specs.append((call.op, located))
    frame = plans.resolve_frame(project.child)
    if frame is None:
        return None
    if group_exprs:
        group_ids, keys = _group_ids(frame, *_located(scope, group_exprs[0]))
    else:
        # One global group, present even over an empty input.
        group_ids, keys = _zeros(frame.size), [None]
    rows = _aggregate_rows(frame, specs, group_ids, keys)
    names = _executor._output_names(statement.items)
    return _executor._grouped_result(scope, statement, names, rows,
                                     project.result_name)


def _null_free_numeric(scope, binding: str, position: int) -> bool:
    """Whether MIN/MAX over this column may take the fast path."""
    column = scope.relations[binding].column_store().columns[position]
    if not (isinstance(column, columnar.PlainColumn)
            and column.datatype.is_numeric()):
        return False
    if columnar.numpy_module() is None:
        return None not in column.values
    return column.array() is not None  # a built array proves no NULLs


def _zeros(size: int):
    np = columnar.numpy_module()
    return [0] * size if np is None else np.zeros(size, dtype=np.intp)


def _group_ids(frame, binding: str, position: int):
    """``(group id per frame row, key per group)``: ids number groups
    in first-appearance order, and a key is its first member's value
    (what the row path evaluates the group expression on)."""
    np = columnar.numpy_module()
    if not frame.size:
        return _zeros(0), []
    slot = frame.bindings.index(binding)
    store, positions = frame.stores[slot], frame.positions[slot]
    column = store.columns[position]
    codes = None
    if np is not None:
        if isinstance(column, columnar.DictionaryColumn):
            codes = column.np_codes()
        elif isinstance(column, columnar.PlainColumn):
            array = column.array()
            if array is not None and not (array.dtype.kind == "f"
                                          and np.isnan(array).any()):
                codes = array
    if codes is None:
        # One dict pass: Python key equality, first-appearance ids, and
        # the dict keeps each group's first key object.
        id_of: dict = {}
        ids = [id_of.setdefault(value, len(id_of))
               for value in frame.column(binding, position)]
        return (ids if np is None else np.asarray(ids, dtype=np.intp),
                list(id_of))
    if positions is not None:
        codes = codes[kernels.as_positions(positions)]
    _unique, first, inverse = np.unique(codes, return_index=True,
                                        return_inverse=True)
    appearance = np.argsort(first, kind="stable")
    rank = np.empty(len(first), dtype=np.intp)
    rank[appearance] = np.arange(len(first))
    representatives = first[appearance]
    keys = store.gather(position, representatives if positions is None
                        else positions[representatives])
    return rank[inverse.reshape(-1)], keys


def _aggregate_rows(frame, specs, group_ids, keys) -> list[tuple]:
    np = columnar.numpy_module()
    groups = len(keys)
    if np is not None:
        sizes = np.bincount(group_ids, minlength=groups).tolist()
    else:
        sizes = [0] * groups
        for group in group_ids:
            sizes[group] += 1
    order = bounds = None
    grouped: dict[tuple[str, int], list] = {}
    columns: list[list] = []
    for kind, located in specs:
        if kind == "key":
            columns.append(keys)
        elif located is None:  # COUNT(*)
            columns.append(sizes)
        elif kind == "count":
            columns.append(_present_counts(frame, located, group_ids,
                                           sizes))
        else:
            if order is None:
                order, bounds = _group_order(group_ids, sizes)
            values = grouped.get(located)
            if values is None:
                values = grouped[located] = frame.column(*located, order)
            fold = min if kind == "min" else max
            columns.append([fold(values[low:high]) if high > low else None
                            for low, high in bounds])
    return list(zip(*columns))


def _present_counts(frame, located, group_ids, sizes) -> list[int]:
    """COUNT(col) per group: the members whose value is not NULL."""
    if not frame.size:
        return sizes
    binding, position = located
    slot = frame.bindings.index(binding)
    mask = kernels.notnull_mask(frame.stores[slot], position,
                                selection=frame.positions[slot])
    if mask is None:
        return sizes
    np = columnar.numpy_module()
    if np is not None:
        return np.bincount(group_ids, weights=mask,
                           minlength=len(sizes)).astype(np.int64).tolist()
    counts = [0] * len(sizes)
    for group, present in zip(group_ids, mask):
        counts[group] += present
    return counts


def _group_order(group_ids, sizes):
    """Frame rows stably sorted by group (members keep frame order, as
    in the row path's member lists) and each group's ``(low, high)``
    slice of that order."""
    np = columnar.numpy_module()
    if np is not None:
        order = kernels.stable_order(group_ids, len(sizes))
    else:
        order = sorted(range(len(group_ids)), key=group_ids.__getitem__)
    bounds = []
    low = 0
    for size in sizes:
        bounds.append((low, low + size))
        low += size
    return order, bounds


__all__ = ["fast_aggregate", "fast_project", "fast_result"]
