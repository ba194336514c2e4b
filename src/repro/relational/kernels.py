"""Vectorized predicate kernels over :class:`ColumnStore` columns.

Where :mod:`repro.relational.compiled` collapses a predicate tree into a
per-row closure, this module collapses it into a *mask*: one boolean per
row, computed column-at-a-time (a numpy boolean array on the fast path,
a plain list from a single comprehension otherwise).  Masks AND/OR/NOT
together positionally and the final mask becomes a selection vector --
the ascending row indices that survive -- which callers use to gather
surviving rows from the store's aligned snapshot.  A mask may also be
evaluated over an existing selection (an index scan's positions, in
index order), and :func:`join_pairs` turns two selected key columns
into the aligned position pairs of their equi-join.

Exact-semantics gating
----------------------

The row pipeline's semantics are the contract: comparisons with a NULL
operand are false, ``and``/``or`` short-circuit per row, and a type
error raises :class:`~repro.errors.ExpressionError` *for the first row
that reaches it*.  A mask evaluates every row of every conjunct, so the
only predicates compiled here are ones that provably cannot raise:
comparisons whose operand types are :func:`~repro.relational.datatypes.
comparable` (then short-circuit order is unobservable), ``IS NULL``
over a column, and boolean combinators over such parts.  Anything else
-- arithmetic (division can raise), incomparable operand types, unknown
node shapes -- raises :class:`UnsupportedKernel` and the caller falls
back to the row path, which reproduces interpreter behavior exactly.
Column-resolution failures raise the resolver's
:class:`ExpressionError` with the interpreter's messages, matching when
and what the compiled row path raises.

Dictionary columns evaluate comparisons over *codes*: an ordering
predicate becomes one comparison per distinct dictionary value (a truth
table) plus a gather, never one per row; the NULL code indexes a
dedicated always-false slot.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, Sequence

from repro.errors import ExpressionError, TypeMismatchError
from repro.relational import columnar
from repro.relational.columnar import (
    ColumnStore, DictionaryColumn, PlainColumn,
)
from repro.relational.datatypes import comparable, infer_type
from repro.relational.expressions import (
    _COMPARISONS, And, Comparison, ColumnRef, Expression, IsNull, Literal,
    Not, Or,
)


class UnsupportedKernel(Exception):
    """Raised when a predicate cannot be compiled into a total
    (never-raising) mask; callers fall back to the row path."""


def predicate_mask(store: ColumnStore, predicates: Sequence[Expression],
                   qualifiers: Iterable[str] = (),
                   lo: int = 0, hi: int | None = None, selection=None):
    """The conjunction of *predicates* as one mask over *store*'s rows
    (``None`` when there are no predicates, i.e. everything survives).

    ``lo``/``hi`` restrict evaluation to the row range ``[lo, hi)`` --
    the parallel morsel path hands each worker a disjoint range, and on
    the numpy path a range is an array slice (a view, so the comparison
    itself releases the GIL over just those rows).  The default range
    is every row.  A *selection* (row positions, e.g. an index scan's
    output) evaluates over exactly those rows instead, in that order.

    Raises :class:`UnsupportedKernel` for trees outside the compilable
    subset and :class:`ExpressionError` for resolution failures, with
    the row-path resolver's messages.
    """
    accepted = {q.lower() for q in qualifiers}
    span = _Span(lo, len(store.rows) if hi is None else hi, selection)
    mask = None
    for predicate in predicates:
        mask = combine_and(mask, _mask(predicate, store, accepted, span))
    return mask


def combine_and(left, right):
    """AND of two masks; ``None`` means all-true."""
    if left is None:
        return right
    if right is None:
        return left
    np = columnar.numpy_module()
    if np is not None:
        return left & right
    return [a and b for a, b in zip(left, right)]


def count(mask, n: int) -> int:
    """Surviving rows under *mask* (``None`` = all *n* survive)."""
    if mask is None:
        return n
    np = columnar.numpy_module()
    if np is not None and isinstance(mask, np.ndarray):
        return int(np.count_nonzero(mask))
    return sum(mask)


def to_selection(mask):
    """*mask* as a selection vector: ascending surviving row indices
    (``None`` passes through, meaning every row)."""
    if mask is None:
        return None
    np = columnar.numpy_module()
    if np is not None and isinstance(mask, np.ndarray):
        return np.nonzero(mask)[0]
    return [i for i, survives in enumerate(mask) if survives]


def compress(selection, mask):
    """The entries of *selection* (row positions, ``None`` = every row)
    that *mask* keeps, in order."""
    if mask is None:
        return selection
    if selection is None:
        return to_selection(mask)
    np = columnar.numpy_module()
    if np is not None:
        return as_positions(selection)[mask]
    return [position for position, keep in zip(selection, mask) if keep]


def as_positions(selection):
    """*selection* in the active backend's position-vector form: an
    ``intp`` numpy array on the numpy path, a list otherwise."""
    np = columnar.numpy_module()
    if np is None:
        return selection if isinstance(selection, list) else list(selection)
    if isinstance(selection, np.ndarray):
        return selection
    if isinstance(selection, array):
        return np.frombuffer(selection, dtype=np.int64).astype(np.intp,
                                                               copy=False)
    return np.fromiter(selection, dtype=np.intp, count=len(selection))


def gather(values: Sequence, selection) -> list:
    """``[values[i] for i in selection]`` as one C-level pass (``None``
    selection = every value)."""
    if selection is None:
        return list(values)
    if not isinstance(selection, list):
        selection = selection.tolist()
    return list(map(values.__getitem__, selection))


def notnull_mask(store: ColumnStore, position: int,
                 lo: int = 0, hi: int | None = None, selection=None):
    """Mask of rows in ``[lo, hi)`` (default: every row; or the rows of
    *selection*, in its order) whose value in the column at *position*
    is not NULL (``None`` when those rows provably hold no NULLs)."""
    column = store.columns[position]
    np = columnar.numpy_module()
    span = _Span(lo, len(store.rows) if hi is None else hi, selection)
    if isinstance(column, DictionaryColumn):
        if np is not None:
            return span.take(column.np_codes()) >= 0
        return [code >= 0 for code in span.take(column.codes)]
    if np is not None and isinstance(column, PlainColumn):
        if column.array() is not None:  # a built array proves no NULLs
            return None
    values = span.take(column.values)
    if any(value is None for value in values):
        mask = [value is not None for value in values]
        return (np.asarray(mask, dtype=bool) if np is not None else mask)
    return None


def join_pairs(left_store: ColumnStore, left_position: int, left_selection,
               right_store: ColumnStore, right_position: int,
               right_selection):
    """The equi-join of two selected key columns as aligned index
    vectors ``(left, right)`` into the two selections.

    Order is the row-path hash join's exactly: left (probe) order, then
    build insertion order -- ascending right index -- within a bucket.
    NULL keys never match, and keys match under Python dict semantics.
    With numpy the keys are factorized to integer codes (dictionary
    codes, a sorted unique table, or a dict pass for anything a numeric
    array cannot represent exactly) and each bucket is a slice of one
    stable argsort (a CSR layout); without numpy a dict of position
    lists does the same.  Both yield identical vectors.
    """
    np = columnar.numpy_module()
    if np is None:
        buckets: dict[Any, list[int]] = {}
        for index, key in enumerate(
                gather(right_store.values(right_position), right_selection)):
            if key is not None:
                buckets.setdefault(key, []).append(index)
        left_out: list[int] = []
        right_out: list[int] = []
        for index, key in enumerate(
                gather(left_store.values(left_position), left_selection)):
            matches = buckets.get(key)
            if matches:
                left_out.extend([index] * len(matches))
                right_out.extend(matches)
        return left_out, right_out
    left_codes, right_codes, cardinality = _join_codes(
        np, left_store.columns[left_position], left_selection,
        right_store.columns[right_position], right_selection)
    # Only build rows whose code some probe row holds can pair; the
    # trailing slot absorbs the -1 (no match / NULL) code.
    probed = np.zeros(cardinality + 1, dtype=bool)
    probed[left_codes] = True
    probed[-1] = False
    right_valid = np.flatnonzero(probed[right_codes])
    # CSR over those build rows: bucket c is order[starts[c]:starts[c+1]],
    # ascending within the bucket because the argsort is stable.
    valid_codes = right_codes[right_valid]
    order = right_valid[stable_order(valid_codes, cardinality)]
    sizes = np.bincount(valid_codes, minlength=cardinality)
    starts = np.cumsum(sizes) - sizes
    left_valid = np.flatnonzero(left_codes >= 0)
    probe_codes = left_codes[left_valid]
    per_row = sizes[probe_codes]
    left_out = np.repeat(left_valid, per_row)
    row_starts = np.cumsum(per_row) - per_row
    within = np.arange(len(left_out)) - np.repeat(row_starts, per_row)
    right_out = order[np.repeat(starts[probe_codes], per_row) + within]
    return left_out, right_out


def stable_order(codes, cardinality: int):
    """``numpy.argsort(codes, kind="stable")`` for codes in
    ``[0, cardinality)``; small code spaces sort as ``int16``, which
    numpy radix-sorts (several times faster, same order)."""
    np = columnar.numpy_module()
    if cardinality <= 2 ** 15:
        codes = codes.astype(np.int16)
    return np.argsort(codes, kind="stable")


def _join_codes(np, left_column, left_selection, right_column,
                right_selection):
    """``(left codes, right codes, cardinality)``: equal keys share a
    code in ``[0, cardinality)``; NULL keys, and left keys absent from
    the right side, get ``-1``."""
    if (isinstance(left_column, DictionaryColumn)
            and isinstance(right_column, DictionaryColumn)):
        right_codes = _take_np(np, right_column.np_codes(), right_selection)
        # Left dictionary codes -> right code space; the trailing slot
        # maps the NULL code (-1) to -1.
        remap = np.array([_missing(right_column.code_for(value))
                          for value in left_column.values] + [-1],
                         dtype=np.int64)
        left_codes = remap[_take_np(np, left_column.np_codes(),
                                    left_selection)]
        return left_codes, right_codes.astype(np.int64), max(
            1, right_column.cardinality)
    left_array = (left_column.array()
                  if isinstance(left_column, PlainColumn) else None)
    right_array = (right_column.array()
                   if isinstance(right_column, PlainColumn) else None)
    if (left_array is not None and right_array is not None
            and left_array.dtype == right_array.dtype
            and not (left_array.dtype.kind == "f"
                     and (np.isnan(left_array).any()
                          or np.isnan(right_array).any()))):
        left_keys = _take_np(np, left_array, left_selection)
        right_keys = _take_np(np, right_array, right_selection)
        # Codes are slots in the sorted distinct keys of the smaller
        # side; a key absent from that table cannot pair anyway.
        table = np.unique(left_keys if len(left_keys) <= len(right_keys)
                          else right_keys)
        return (_slots_in(np, table, left_keys),
                _slots_in(np, table, right_keys), max(1, len(table)))
    # Anything else (NULL-bearing or mixed-type keys, NaN): one dict
    # pass, which is Python key equality by construction.
    code_of: dict[Any, int] = {}
    right_list = [-1 if key is None else code_of.setdefault(key, len(code_of))
                  for key in _values_of(right_column, right_selection)]
    left_list = [-1 if key is None else code_of.get(key, -1)
                 for key in _values_of(left_column, left_selection)]
    return (np.array(left_list, dtype=np.int64),
            np.array(right_list, dtype=np.int64), max(1, len(code_of)))


def _slots_in(np, table, keys):
    """Each key's slot in the sorted *table*, ``-1`` when absent."""
    if not len(table):
        return np.full(len(keys), -1, dtype=np.int64)
    slot = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return np.where(table[slot] == keys, slot, -1).astype(np.int64)


def _missing(code: int | None) -> int:
    return -1 if code is None else code


def _take_np(np, values, selection):
    return values if selection is None else values[as_positions(selection)]


def _values_of(column, selection) -> list:
    values = (column.decode() if isinstance(column, DictionaryColumn)
              else column.values)
    return gather(values, selection)


# -- mask compilation --------------------------------------------------------


class _Span:
    """The rows a mask evaluates over: the half-open range ``[lo, hi)``,
    or the positions of a *selection* in selection order."""

    __slots__ = ("lo", "hi", "selection", "_listed")

    def __init__(self, lo: int, hi: int, selection=None) -> None:
        self.lo = lo
        self.hi = max(lo, hi)
        self.selection = (None if selection is None
                          else as_positions(selection))
        self._listed = None

    def __len__(self) -> int:
        if self.selection is not None:
            return len(self.selection)
        return self.hi - self.lo

    def take(self, values):
        """*values* (a list, an ``array`` or a numpy array) restricted
        to these rows."""
        if self.selection is None:
            return values[self.lo:self.hi]
        np = columnar.numpy_module()
        if np is not None and isinstance(values, np.ndarray):
            return values[self.selection]
        if self._listed is None:
            self._listed = (self.selection
                            if isinstance(self.selection, list)
                            else self.selection.tolist())
        return list(map(values.__getitem__, self._listed))


def _mask(expression: Expression, store: ColumnStore, accepted: set,
          span: _Span):
    mask = _mask_node(expression, store, accepted, span)
    np = columnar.numpy_module()
    if np is not None and not isinstance(mask, np.ndarray):
        mask = np.asarray(mask, dtype=bool)
    return mask


def _mask_node(expression: Expression, store: ColumnStore, accepted: set,
               span: _Span):
    if isinstance(expression, Literal):
        return _const_mask(len(span), bool(expression.value))
    if isinstance(expression, Comparison):
        return _comparison_mask(expression, store, accepted, span)
    if isinstance(expression, IsNull):
        return _is_null_mask(expression, store, accepted, span)
    if isinstance(expression, And):
        mask = None
        for part in expression.parts:
            mask = combine_and(mask, _mask(part, store, accepted, span))
        return mask
    if isinstance(expression, Or):
        mask = None
        for part in expression.parts:
            part_mask = _mask(part, store, accepted, span)
            if mask is None:
                mask = part_mask
            else:
                np = columnar.numpy_module()
                mask = (mask | part_mask if np is not None
                        else [a or b for a, b in zip(mask, part_mask)])
        return mask
    if isinstance(expression, Not):
        mask = _mask(expression.operand, store, accepted, span)
        np = columnar.numpy_module()
        return ~mask if np is not None else [not value for value in mask]
    raise UnsupportedKernel(type(expression).__name__)


def _resolve(ref: ColumnRef, store: ColumnStore, accepted: set) -> int:
    """Column position of *ref*, with the row-path resolver's errors."""
    schema = store.schema
    if ref.qualifier is not None:
        if ref.qualifier.lower() not in accepted:
            raise ExpressionError(
                f"unknown range variable or relation {ref.qualifier!r}")
        if not schema.has_column(ref.column):
            raise ExpressionError(
                f"{ref.qualifier} has no column {ref.column!r}")
    elif not schema.has_column(ref.column):
        raise ExpressionError(f"unknown column {ref.column!r}")
    return schema.position(ref.column)


def _comparison_mask(expression: Comparison, store: ColumnStore,
                     accepted: set, span: _Span):
    left, right, op = expression.left, expression.right, expression.op
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        expression = expression.flipped()
        left, right, op = expression.left, expression.right, expression.op
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        position = _resolve(left, store, accepted)
        return _column_literal_mask(store, position, op, right.value, span)
    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        position_a = _resolve(left, store, accepted)
        position_b = _resolve(right, store, accepted)
        return _column_column_mask(store, position_a, position_b, op, span)
    raise UnsupportedKernel(expression.render())


def _column_literal_mask(store: ColumnStore, position: int, op: str,
                         literal: Any, span: _Span):
    if literal is None:
        return _const_mask(len(span), False)  # NULL compares false
    datatype = store.schema.columns[position].datatype
    try:
        literal_type = infer_type(literal)
    except TypeMismatchError:
        raise UnsupportedKernel(f"literal {literal!r}") from None
    if not comparable(datatype, literal_type):
        # The row path raises a per-row type error for the first non-NULL
        # value; a total mask cannot reproduce that, so fall back.
        raise UnsupportedKernel(
            f"{datatype.render()} vs {literal_type.render()}")
    compare = _COMPARISONS[op]
    column = store.columns[position]
    np = columnar.numpy_module()
    if isinstance(column, DictionaryColumn):
        # One comparison per *distinct* value, then gather through the
        # codes; the extra slot keeps the NULL code (-1) always false.
        table = [compare(value, literal) for value in column.values]
        if np is not None:
            np_table = np.zeros(len(table) + 1, dtype=bool)
            if table:
                np_table[:len(table)] = table
            return np_table[span.take(column.np_codes())]
        return [code >= 0 and table[code]
                for code in span.take(column.codes)]
    if np is not None:
        array = column.array()
        if array is not None:
            return _np_compare(np, op, span.take(array), literal)
    return [value is not None and compare(value, literal)
            for value in span.take(column.values)]


def _column_column_mask(store: ColumnStore, position_a: int,
                        position_b: int, op: str, span: _Span):
    type_a = store.schema.columns[position_a].datatype
    type_b = store.schema.columns[position_b].datatype
    if not comparable(type_a, type_b):
        raise UnsupportedKernel(f"{type_a.render()} vs {type_b.render()}")
    column_a = store.columns[position_a]
    column_b = store.columns[position_b]
    np = columnar.numpy_module()
    if (np is not None and isinstance(column_a, PlainColumn)
            and isinstance(column_b, PlainColumn)):
        array_a = column_a.array()
        array_b = column_b.array()
        if array_a is not None and array_b is not None:
            return _np_compare(np, op, span.take(array_a),
                               span.take(array_b))
    compare = _COMPARISONS[op]
    return [a is not None and b is not None and compare(a, b)
            for a, b in zip(span.take(store.values(position_a)),
                            span.take(store.values(position_b)))]


def _is_null_mask(expression: IsNull, store: ColumnStore, accepted: set,
                  span: _Span):
    if not isinstance(expression.operand, ColumnRef):
        raise UnsupportedKernel(expression.render())
    position = _resolve(expression.operand, store, accepted)
    column = store.columns[position]
    np = columnar.numpy_module()
    if isinstance(column, DictionaryColumn):
        if np is not None:
            codes = span.take(column.np_codes())
            return codes >= 0 if expression.negated else codes < 0
        codes = span.take(column.codes)
        if expression.negated:
            return [code >= 0 for code in codes]
        return [code < 0 for code in codes]
    if np is not None and isinstance(column, PlainColumn):
        if column.array() is not None:  # a built array proves no NULLs
            return _const_mask(len(span), expression.negated)
    values = span.take(column.values)
    if expression.negated:
        return [value is not None for value in values]
    return [value is None for value in values]


def _const_mask(n: int, value: bool):
    np = columnar.numpy_module()
    if np is not None:
        return np.full(n, value, dtype=bool)
    return [value] * n


def _np_compare(np, op: str, left, right):
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


__all__ = [
    "UnsupportedKernel",
    "as_positions",
    "combine_and",
    "compress",
    "count",
    "gather",
    "join_pairs",
    "notnull_mask",
    "predicate_mask",
    "stable_order",
    "to_selection",
]
