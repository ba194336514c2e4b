"""Predicate/expression compilation to positional closures.

The interpreter in :mod:`repro.relational.expressions` evaluates a tree
against an :class:`Environment`, which costs one environment object (and
one dict binding per qualifier) per row.  On the execution hot path --
pushed-down filters, residual join predicates, SELECT-list evaluation --
the schema is fixed for the whole query, so every column reference can
be resolved to a tuple position *once* and the tree collapsed into a
closure over positional row access.  That is what this module does::

    test = compile_predicate(expr, schema_resolver(schema, {"emp"}),
                             fallback=...)
    rows = [row for row in relation.rows if test(row)]

Compiled closures reproduce the interpreter's semantics exactly:
comparisons with a NULL operand are false, arithmetic over NULL is NULL,
type errors raise :class:`~repro.errors.ExpressionError` with the same
message, ``and``/``or`` short-circuit left to right.  The one visible
difference is *when* resolution errors surface: the interpreter raises
on the first row evaluated, the compiler at compile time (so even over
an empty relation a predicate naming an unknown column is rejected).

Lists of expressions -- a SELECT list, ORDER BY or GROUP BY keys, an
aggregate operand, hash-join keys -- compile into *one generated row
function* (:func:`compile_row`)::

    row_of = compile_row(items, slot_resolver(schemas), environment)
    out.extend(map(row_of, batch))

Its Python source is generated from the list's *shape* and compiled
with :func:`compile`: a column reference becomes an inline subscript
``g[slot][position]``, a literal a bound name, and any other node a call
of its compiled closure through a bound name.  The source holds only
integer subscripts and generated names, never user text (literal
values, column or relation names), and the compiled code is cached by
shape, so a statement repeated with fresh literals reuses it.

Compilation is structural over the known node types; an unknown
:class:`Expression` subclass raises :class:`UnsupportedExpression` and
callers fall back to interpretation, so extensions degrade gracefully
instead of breaking.  The module flag :data:`ENABLED` forces the
fallback everywhere -- benchmarks flip it to measure the pre-compilation
pipeline, and tests use it to cross-check compiled against interpreted
results.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ExpressionError
from repro.relational.expressions import (
    _COMPARISONS, And, Arithmetic, Comparison, ColumnRef, Environment,
    Expression, IsNull, Literal, Not, Or,
)
from repro.relational.schema import RelationSchema

#: Master switch.  ``False`` makes :func:`compile_predicate` and
#: :func:`compile_row` return their interpreted fallbacks, so every
#: expression -- predicates, SELECT lists, keys -- is interpreted.
ENABLED = True

#: A resolver maps a ColumnRef to its *access path*: the integer
#: subscripts that reach the value from a row-like object --
#: ``(position,)`` for a plain row, ``(slot, position)`` for aligned
#: per-binding rows.
Resolver = Callable[[ColumnRef], tuple[int, ...]]

#: Distinct row-function shapes whose compiled code is kept.
SHAPE_CACHE_SIZE = 512


class UnsupportedExpression(Exception):
    """Raised (internally) for expression nodes the compiler does not
    know; callers catch it and fall back to interpretation."""


def schema_resolver(schema: RelationSchema,
                    qualifiers: Iterable[str] = ()) -> Resolver:
    """Resolver for single-relation rows (plain row tuples).

    *qualifiers* are the accepted qualifier spellings besides
    unqualified references (the relation name, a range variable, a FROM
    alias -- whatever the matching :class:`Environment` would bind).
    Resolution failures raise :class:`ExpressionError` with the
    interpreter's messages.
    """
    accepted = {q.lower() for q in qualifiers}

    def resolve(ref: ColumnRef) -> tuple[int, ...]:
        if ref.qualifier is not None:
            if ref.qualifier.lower() not in accepted:
                raise ExpressionError(
                    f"unknown range variable or relation {ref.qualifier!r}")
            if not schema.has_column(ref.column):
                raise ExpressionError(
                    f"{ref.qualifier} has no column {ref.column!r}")
        elif not schema.has_column(ref.column):
            raise ExpressionError(f"unknown column {ref.column!r}")
        return (schema.position(ref.column),)

    return resolve


def slot_resolver(schemas: Sequence[tuple[str, RelationSchema]]) -> Resolver:
    """Resolver for aligned per-binding row tuples (the join pipeline's
    intermediate shape): element ``i`` of the row-like object is the row
    of ``schemas[i]``.  Mirrors :meth:`Environment.lookup`: qualified
    references name their binding, unqualified ones must be unambiguous
    across all bindings."""
    by_name = {binding.lower(): (slot, schema)
               for slot, (binding, schema) in enumerate(schemas)}

    def resolve(ref: ColumnRef) -> tuple[int, ...]:
        if ref.qualifier is not None:
            entry = by_name.get(ref.qualifier.lower())
            if entry is None:
                raise ExpressionError(
                    f"unknown range variable or relation {ref.qualifier!r}")
            slot, schema = entry
            if not schema.has_column(ref.column):
                raise ExpressionError(
                    f"{ref.qualifier} has no column {ref.column!r}")
            return slot, schema.position(ref.column)
        hits = [(slot, schema) for slot, (_binding, schema)
                in enumerate(schemas) if schema.has_column(ref.column)]
        if not hits:
            raise ExpressionError(f"unknown column {ref.column!r}")
        if len(hits) > 1:
            raise ExpressionError(f"ambiguous column {ref.column!r}")
        slot, schema = hits[0]
        return slot, schema.position(ref.column)

    return resolve


# -- generated row functions ---------------------------------------------------

#: Shape entries for terms that are not column references: a bound
#: value (a literal) and a bound closure called on the row.
_VALUE = "value"
_CALL = "call"


def _access_path(path: Sequence[int]) -> tuple[int, ...]:
    """*path* as a tuple of plain ints -- the only resolver output that
    may reach generated source."""
    path = tuple(path)
    if not path or any(type(index) is not int for index in path):
        raise TypeError(f"resolver returned a non-integer access path "
                        f"{path!r}")
    return path


def _shape(expressions: Sequence[Expression], resolve: Resolver
           ) -> tuple[tuple, list]:
    """``(shape, bound)``: one shape entry per expression (an access
    path, :data:`_VALUE` or :data:`_CALL`) and the values the non-path
    entries bind, in order.  Resolution errors raise here, at compile
    time; unknown nodes raise :class:`UnsupportedExpression`."""
    shape: list = []
    bound: list = []
    for expression in expressions:
        if isinstance(expression, ColumnRef):
            shape.append(_access_path(resolve(expression)))
        elif isinstance(expression, Literal):
            shape.append(_VALUE)
            bound.append(expression.value)
        else:
            shape.append(_CALL)
            bound.append(compile_expression(expression, resolve))
    return tuple(shape), bound


def _source(shape: tuple, scalar: bool) -> str:
    """Python source of a factory ``make(*bound) -> row`` for *shape*.

    ``row(g)`` returns the tuple of every term (the bare term when
    *scalar*).  Only integer subscripts and generated names appear."""
    params: list[str] = []
    terms: list[str] = []
    for entry in shape:
        if entry == _VALUE or entry == _CALL:
            name = f"_v{len(params)}"
            params.append(name)
            terms.append(name if entry == _VALUE else f"{name}(g)")
        else:
            terms.append("g" + "".join(f"[{index}]" for index in entry))
    if scalar:
        (value,) = terms
    else:
        value = "(" + "".join(term + ", " for term in terms) + ")"
    return (f"def make({', '.join(params)}):\n"
            f"    def row(g):\n"
            f"        return {value}\n"
            f"    return row\n")


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _factory(shape: tuple, scalar: bool) -> Callable[..., Callable]:
    namespace: dict[str, Any] = {}
    exec(compile(_source(shape, scalar), "<row function>", "exec"),
         namespace)
    return namespace["make"]


def compile_row(expressions: Sequence[Expression], resolve: Resolver,
                environment: Callable[[Any], Environment], *,
                scalar: bool = False) -> Callable[[Any], Any]:
    """One function computing every expression in *expressions* for a
    row-like object: a tuple of values, or with *scalar* the value of
    the single expression.

    The function is generated (see :func:`_source`) unless
    :data:`ENABLED` is off or a node is unsupported; then it interprets
    every expression against ``environment(row)``, one environment per
    row.  Resolution errors raise at compile time, as for
    :func:`compile_expression`.
    """
    if ENABLED:
        try:
            shape, bound = _shape(expressions, resolve)
        except UnsupportedExpression:
            pass
        else:
            return _factory(shape, scalar)(*bound)
    if scalar:
        (expression,) = expressions
        return lambda row: expression.evaluate(environment(row))
    expressions = tuple(expressions)

    def interpreted(row):
        env = environment(row)
        return tuple(expression.evaluate(env) for expression in expressions)

    return interpreted


def compile_expression(expression: Expression,
                       resolve: Resolver) -> Callable[[Any], Any]:
    """Compile *expression* into a closure over positional row access.

    Raises :class:`UnsupportedExpression` for unknown node types and
    whatever the resolver raises for unresolvable column references.
    """
    if isinstance(expression, Literal):
        value = expression.value
        return lambda _row: value
    if isinstance(expression, ColumnRef):
        # A one-term generated row function: the bare subscript.
        return _factory((_access_path(resolve(expression)),), True)()
    if isinstance(expression, Comparison):
        left = compile_expression(expression.left, resolve)
        right = compile_expression(expression.right, resolve)
        compare = _COMPARISONS[expression.op]

        def compiled_comparison(row):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return False
            try:
                return compare(a, b)
            except TypeError as exc:
                raise ExpressionError(
                    f"type error in {expression.render()}: {exc}") from exc

        return compiled_comparison
    if isinstance(expression, Arithmetic):
        left = compile_expression(expression.left, resolve)
        right = compile_expression(expression.right, resolve)
        operate = Arithmetic.OPS[expression.op]

        def compiled_arithmetic(row):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            try:
                return operate(a, b)
            except (TypeError, ZeroDivisionError) as exc:
                raise ExpressionError(
                    f"cannot evaluate {expression.render()}: {exc}") from exc

        return compiled_arithmetic
    if isinstance(expression, IsNull):
        operand = compile_expression(expression.operand, resolve)
        if expression.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None
    if isinstance(expression, And):
        parts = [compile_expression(part, resolve)
                 for part in expression.parts]
        return lambda row: all(part(row) for part in parts)
    if isinstance(expression, Or):
        parts = [compile_expression(part, resolve)
                 for part in expression.parts]
        return lambda row: any(part(row) for part in parts)
    if isinstance(expression, Not):
        operand = compile_expression(expression.operand, resolve)
        return lambda row: not operand(row)
    raise UnsupportedExpression(type(expression).__name__)


def compile_predicate(expression: Expression, resolve: Resolver,
                      fallback: Callable[[], Callable[[Any], Any]]
                      ) -> Callable[[Any], Any]:
    """Compiled predicate over *expression*, or ``fallback()`` when the
    tree contains unsupported nodes or :data:`ENABLED` is off.

    *fallback* is a zero-argument factory (not the closure itself) so
    the interpreted path's setup cost is only paid when actually taken.
    """
    if not ENABLED:
        return fallback()
    try:
        return compile_expression(expression, resolve)
    except UnsupportedExpression:
        return fallback()


__all__ = [
    "ENABLED",
    "Resolver",
    "UnsupportedExpression",
    "compile_expression",
    "compile_predicate",
    "compile_row",
    "schema_resolver",
    "slot_resolver",
]
