"""Composable plan nodes for SELECT execution -- streaming edition.

In the SimpleDB exemplar's style, each relational-algebra operator has a
Plan class exposing cost-model accessors (``records_output``,
``distinct_values``, ``cost``) next to execution.  Execution is
*batch-at-a-time* (morsel-driven): every node implements
:meth:`Plan._batches`, a generator yielding lists of at most
``batch_size`` aligned per-binding row tuples -- element ``i`` of an
output tuple is the row contributed by ``bindings[i]``, exactly the
intermediate shape the legacy executor's join pipeline uses, so the
shared projection code consumes either path's output unchanged.

Batches stream child to parent: a scan produces its next morsel only
when the consumer asks, a filter evaluates its *compiled* predicates
(:mod:`repro.relational.compiled`) over each morsel, and a hash join
materializes only its build side (inherent to hashing) while the probe
side streams through.  Closing a consumer generator closes the whole
producer chain (early termination), and no node buffers more than one
output batch, so peak intermediate state is O(batch) per node plus the
join build sides.  The top of the tree (:class:`ProjectPlan`) is the
only place a full result materializes -- as the result
:class:`Relation` itself.

Per-node accounting survives the refactor exactly: every node
accumulates the rows it actually streamed in :attr:`Plan.actual_rows`
and its inclusive wall time in :attr:`Plan.actual_time_s`, so EXPLAIN
renders estimated vs. actual side by side and EXPLAIN ANALYZE adds the
measured times.  Observability is *per batch*, never per row: when the
:mod:`repro.obs` flag is on, each node counts its batches and records
one ``plan.node.<Type>`` span as its stream finishes; when it is off
the accounting is two ``perf_counter`` reads and one integer add per
batch, preserving the zero-overhead guarantee bench E20 pins.

The default morsel size is :data:`DEFAULT_BATCH_SIZE`, overridable per
process with the ``REPRO_BATCH_SIZE`` environment variable (CI runs the
whole suite at 1, the worst case) and per call via the ``batch_size``
arguments; :data:`UNBOUNDED` restores the old materialize-everything
behavior (one batch per node), which the equivalence suite and bench
E22 use as the reference pipeline.

With the columnar path on, a subtree built from scan+filter chains and
single-edge hash joins does not stream rows internally at all: it
resolves to a :class:`Frame` of per-binding row-position vectors in
the row path's exact output order (:func:`resolve_frame`), which the
projection gathers columns from, or which the subtree's top node turns
back into row batches when its parent cannot take a frame.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Sequence

from repro import obs
from repro.errors import SqlError
from repro.plan import parallel
from repro.relational import columnar, compiled, kernels
from repro.relational.expressions import ColumnRef
from repro.relational.relation import Relation
from repro.rules.clause import Interval
from repro.sql import ast
from repro.sql.executor import Scope, project_statement, row_function

#: Crossing this estimated-fraction threshold makes a range index scan
#: not worth it compared to a straight filter over the table scan.
INDEX_FRACTION_THRESHOLD = 0.75

#: Morsel size when neither the call site nor the environment says
#: otherwise.  Large enough to amortize per-batch accounting, small
#: enough to keep intermediate state cache-resident.
DEFAULT_BATCH_SIZE = 1024

#: Sentinel batch size: one batch spans the whole input, i.e. the old
#: materializing pipeline (used as the reference in tests and benches).
UNBOUNDED = 2 ** 62

#: Optional hook called as ``observer(plan, batch)`` for every streamed
#: batch (bench E22 installs one to assert the O(batch) bound).  Keep it
#: ``None`` in production: the per-batch cost is then one ``is None``.
_batch_observer: Callable[["Plan", list], None] | None = None


def set_batch_observer(
        observer: Callable[["Plan", list], None] | None) -> None:
    """Install (or clear, with ``None``) the per-batch observer hook."""
    global _batch_observer
    _batch_observer = observer


#: Per-thread statement deadline (a ``time.monotonic`` instant, or
#: absent).  The server sets it around statement execution so a
#: runaway streaming plan is cancelled at the next batch boundary
#: instead of holding the engine lock forever; the cost while unset is
#: one attribute lookup per batch.
_statement_deadline = threading.local()


def set_statement_deadline(at: float | None) -> None:
    """Arm (or clear, with ``None``) this thread's statement deadline.

    Cooperative cancellation: every instrumented ``batches()`` stream
    checks the deadline once per batch and raises
    :class:`~repro.errors.StatementTimeout` past it.  Callers must
    clear the deadline in a ``finally`` -- it is thread state, not
    call-scoped.
    """
    _statement_deadline.at = at


def _check_statement_deadline() -> None:
    at = getattr(_statement_deadline, "at", None)
    if at is not None and time.monotonic() > at:
        from repro.errors import StatementTimeout
        raise StatementTimeout(
            "statement cancelled: execution ran past its deadline "
            "(server statement timeout or request deadline)")


class _DeadlineScope:
    """Context manager arming this thread's statement deadline for the
    given *budget* in seconds (``None`` = no deadline), restoring the
    previous value on exit so scopes nest."""

    __slots__ = ("budget", "_previous")

    def __init__(self, budget: float | None):
        self.budget = budget

    def __enter__(self) -> "_DeadlineScope":
        self._previous = getattr(_statement_deadline, "at", None)
        if self.budget is not None:
            _statement_deadline.at = time.monotonic() + self.budget
        return self

    def __exit__(self, *_exc) -> None:
        _statement_deadline.at = self._previous


def statement_deadline_scope(budget: float | None) -> _DeadlineScope:
    """``with statement_deadline_scope(seconds): ...`` -- cooperative
    cancellation for everything streamed inside the block."""
    return _DeadlineScope(budget)


#: Rejected ``REPRO_BATCH_SIZE`` spellings already warned about -- the
#: env var is consulted on every stream start, so each bad value warns
#: exactly once instead of flooding a long session.
_warned_batch_sizes: set[str] = set()


def default_batch_size() -> int:
    """The process-wide morsel size: ``REPRO_BATCH_SIZE`` when it parses
    to a positive integer, :data:`DEFAULT_BATCH_SIZE` otherwise.

    A set-but-unusable value (non-integer or non-positive) falls back
    to the default *loudly*: one :class:`UserWarning` per distinct bad
    value, naming both.  An unset/empty variable stays silent -- that
    is the normal configuration, not a mistake.
    """
    import warnings

    raw = os.environ.get("REPRO_BATCH_SIZE", "")
    try:
        value = int(raw)
    except ValueError:
        if raw.strip() and raw not in _warned_batch_sizes:
            _warned_batch_sizes.add(raw)
            warnings.warn(
                f"REPRO_BATCH_SIZE={raw!r} is not an integer; using the "
                f"default batch size {DEFAULT_BATCH_SIZE}", stacklevel=2)
        return DEFAULT_BATCH_SIZE
    if value <= 0:
        if raw not in _warned_batch_sizes:
            _warned_batch_sizes.add(raw)
            warnings.warn(
                f"REPRO_BATCH_SIZE={raw!r} is not positive; using the "
                f"default batch size {DEFAULT_BATCH_SIZE}", stacklevel=2)
        return DEFAULT_BATCH_SIZE
    return value


def _columnar_ready() -> bool:
    """Whether fused columnar execution may engage: the columnar flag
    is on AND predicate compilation is on (``compiled.ENABLED`` off
    means "give me the interpreted pipeline end to end", which the
    kernels would defeat)."""
    return compiled.ENABLED and columnar.enabled()


def _scan_filter_chain(plan: "Plan", index_scan: bool = False):
    """``(scan, [filter, ...])`` when *plan* is a TableScan -- or, with
    *index_scan*, an IndexScan -- optionally wrapped in FilterPlans
    (outermost last), the shape the fused columnar path can execute;
    else ``None``.  The exchange operators partition whole tables, so
    they ask for table scans only."""
    filters: list[FilterPlan] = []
    node = plan
    while isinstance(node, FilterPlan):
        filters.append(node)
        node = node.child
    if not isinstance(node, (TableScanPlan, IndexScanPlan) if index_scan
                      else TableScanPlan):
        return None
    filters.reverse()
    return node, filters


def _resolve_columnar(scan: "TableScanPlan | IndexScanPlan",
                      filters: Sequence["FilterPlan"],
                      *, account_top: bool = True):
    """Execute a scan+filter chain as a selection vector.

    Returns ``(store, selection)``: *selection* lists the positions of
    the chain's output rows in the relation's column store, in the
    chain's output order -- index order under an IndexScan, storage
    order under a TableScan (``None`` = every row).  Each filter's mask
    is evaluated over the current selection only.  Sets every chain
    node's actuals to exactly what the row path would have accumulated
    on full consumption (times inclusive of the nodes below); with
    *account_top* off the outermost node is left to its own
    ``_instrumented`` accounting.  Raises
    :class:`~repro.relational.kernels.UnsupportedKernel` when any
    predicate falls outside the compilable subset, or when the index
    and the store were not built at the relation's current version --
    callers fall back to the row path, which re-resolves everything and
    surfaces exact interpreter semantics.
    """
    start = time.perf_counter()
    relation = scan.relation
    store = relation.column_store()
    if isinstance(scan, IndexScanPlan):
        index, positions = scan.index_positions()
        if (index.built_version != relation.version
                or store.version != relation.version):
            raise kernels.UnsupportedKernel("index or store is stale")
        selection = kernels.as_positions(positions)
        surviving = len(selection)
    else:
        selection = None
        surviving = len(store.rows)
    top = filters[-1] if filters else scan
    if account_top or scan is not top:
        scan.actual_rows = surviving
        scan.actual_time_s = time.perf_counter() - start
    for node in filters:
        mask = kernels.predicate_mask(store, node.predicates,
                                      [scan.binding], selection=selection)
        selection = kernels.compress(selection, mask)
        if account_top or node is not top:
            node.actual_rows = (len(store.rows) if selection is None
                                else len(selection))
            node.actual_time_s = time.perf_counter() - start
    return store, selection


class Frame:
    """A subtree's output as per-binding row-position vectors.

    Output row ``k`` is the tuple of ``stores[i].rows[positions[i][k]]``
    over ``bindings`` -- the aligned per-binding rows the row path
    streams, in the same order.  A ``None`` vector stands for every row
    of the store in storage order (an unfiltered table scan).  Columns
    are gathered straight from the stores, once per output column,
    instead of through one joined tuple per row.
    """

    __slots__ = ("bindings", "stores", "positions", "size")

    def __init__(self, bindings: Sequence[str], stores: Sequence,
                 positions: Sequence, size: int) -> None:
        self.bindings = tuple(bindings)
        self.stores = list(stores)
        self.positions = list(positions)
        self.size = size

    def column(self, binding: str, position: int, rows=None) -> list:
        """The values of one column of *binding*, one per output row --
        or, given *rows* (output row indices), one per listed row."""
        if not self.size:
            return []
        slot = self.bindings.index(binding)
        positions = self.positions[slot]
        if rows is not None:
            positions = _composed(positions, rows)
        return self.stores[slot].gather(position, positions)

    def batches(self, size: int) -> Iterator[list[tuple]]:
        """The output as aligned row-tuple batches of at most *size*."""
        listed = [positions if positions is None
                  or isinstance(positions, list) else positions.tolist()
                  for positions in self.positions]
        for start in range(0, self.size, size):
            parts = [store.rows[start:start + size] if positions is None
                     else list(map(store.rows.__getitem__,
                                   positions[start:start + size]))
                     for store, positions in zip(self.stores, listed)]
            yield list(zip(*parts))


def resolve_frame(plan: "Plan") -> Frame | None:
    """*plan*'s output as a :class:`Frame`, every node's actuals set, or
    ``None`` when it is not built from scan+filter chains and
    single-edge serial hash joins or a predicate falls outside the
    kernel subset (the caller then runs the row path; actuals left by
    the attempt are cleared)."""
    try:
        return _frame(plan, account_top=True)
    except kernels.UnsupportedKernel:
        plan.reset_actuals()
        return None


def _frame(plan: "Plan", account_top: bool) -> Frame:
    if isinstance(plan, HashJoinPlan):
        if (isinstance(plan, ParallelHashJoinPlan)
                and min(plan.dop, parallel.workers()) > 1):
            raise kernels.UnsupportedKernel("parallel hash join")
        return plan.join_frame(account_top)
    if isinstance(plan, MergeExchangePlan):
        return plan.exchange_frame(account_top)
    chain = _scan_filter_chain(plan, index_scan=True)
    if chain is None:
        raise kernels.UnsupportedKernel(type(plan).__name__)
    scan, filters = chain
    store, selection = _resolve_columnar(scan, filters,
                                         account_top=account_top)
    size = len(store.rows) if selection is None else len(selection)
    return Frame([scan.binding], [store], [selection], size)


def _own_frame(plan: "Plan") -> Frame | None:
    """*plan*'s output as a :class:`Frame` for its own ``_batches`` when
    its parent could not consume one (the node's own actuals stay with
    ``_instrumented``), or ``None`` for the row path.  Declined while a
    batch observer is installed: it is promised every streamed
    ``(plan, batch)`` pair, and a frame never streams its inputs."""
    if not _columnar_ready() or _batch_observer is not None:
        return None
    try:
        # A parallel join only gets here on its serial fallback, so it
        # resolves like any serial join.
        frame = (plan.join_frame(account_top=False)
                 if isinstance(plan, HashJoinPlan)
                 else _frame(plan, account_top=False))
    except kernels.UnsupportedKernel:
        _count_fused(type(plan).__name__, False)
        for child in plan.children():
            child.reset_actuals()
        return None
    _count_fused(type(plan).__name__, True)
    return frame


def _composed(positions, pairs):
    """Row positions of a join's output for one input binding: the
    input's *positions* taken at the join's *pairs* side."""
    if positions is None:
        return pairs
    if isinstance(positions, list):
        return kernels.gather(positions, pairs)
    return positions[pairs]


def _count_fused(node_type: str, fused: bool) -> None:
    if obs.enabled():
        obs.counter("columnar_fused_total",
                    "plan subtrees executed via column kernels",
                    node=node_type,
                    result="fused" if fused else "fallback").inc()


class Plan:
    """Abstract plan node over a query :class:`Scope`."""

    def __init__(self, scope: Scope, bindings: Sequence[str]):
        self.scope = scope
        self.bindings: tuple[str, ...] = tuple(bindings)
        self.actual_rows: int | None = None
        self.actual_time_s: float | None = None

    # -- cost model --------------------------------------------------------

    def records_output(self) -> float:
        """Estimated output cardinality."""
        raise NotImplementedError

    def cost(self) -> float:
        """Estimated total rows touched computing this subtree."""
        raise NotImplementedError

    def distinct_values(self, binding: str, column: str) -> float:
        """Estimated distinct values of ``binding.column`` in the
        output (join-cardinality denominator)."""
        raise NotImplementedError

    # -- execution ---------------------------------------------------------

    def batches(self, batch_size: int | None = None
                ) -> Iterator[list[tuple]]:
        """Stream this node's output as batches of aligned per-binding
        row tuples, each of at most *batch_size* rows.

        The returned generator is instrumented: it accumulates
        :attr:`actual_rows` and inclusive :attr:`actual_time_s` as the
        consumer pulls, counts batches in the metrics registry when
        observability is on, and records one ``plan.node.<Type>`` span
        when the stream finishes (exhaustion *or* early close).
        """
        size = default_batch_size() if batch_size is None else batch_size
        if size <= 0:
            raise ValueError(f"batch size must be positive, got {size}")
        self.actual_rows = 0
        self.actual_time_s = 0.0
        return self._instrumented(self._batches(size), size)

    def _instrumented(self, source: Iterator[list[tuple]],
                      size: int) -> Iterator[list[tuple]]:
        wall_start = time.perf_counter()
        batch_count = 0
        try:
            while True:
                _check_statement_deadline()
                start = time.perf_counter()
                try:
                    batch = next(source)
                except StopIteration:
                    self.actual_time_s += time.perf_counter() - start
                    break
                self.actual_time_s += time.perf_counter() - start
                self.actual_rows += len(batch)
                batch_count += 1
                if obs.enabled():
                    obs.counter("plan_batches_total",
                                "batches streamed by plan node type",
                                node=type(self).__name__).inc()
                if _batch_observer is not None:
                    _batch_observer(self, batch)
                yield batch
        finally:
            source.close()
            obs.record_span(f"plan.node.{type(self).__name__}",
                            wall_start, time.perf_counter(),
                            label=self.label(), rows=self.actual_rows,
                            batches=batch_count, batch_size=size)

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        raise NotImplementedError

    def execute(self, batch_size: int | None = None) -> list[tuple]:
        """Materialize the node's whole output (streaming underneath)."""
        self.reset_actuals()
        out: list[tuple] = []
        for batch in self.batches(batch_size):
            out.extend(batch)
        return out

    def reset_actuals(self) -> None:
        """Clear measured actuals on this subtree (before re-execution,
        so nodes skipped by early termination render as unmeasured)."""
        self.actual_rows = None
        self.actual_time_s = None
        for child in self.children():
            child.reset_actuals()

    # -- rendering ---------------------------------------------------------

    def children(self) -> tuple["Plan", ...]:
        return ()

    def label(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label()}>"


class TableScanPlan(Plan):
    """Full scan of one FROM binding.

    The scan snapshots the relation's row list (a pointer copy, not a
    row copy) when its first batch is requested, so a mutation arriving
    *between batches* neither corrupts iteration nor changes the rows
    this stream produces; the next query sees the mutation through the
    usual version checks.
    """

    def __init__(self, scope: Scope, binding: str, stats):
        super().__init__(scope, [binding])
        self.binding = binding
        self.relation = scope.relations[binding]
        self.stats = stats

    def records_output(self) -> float:
        return float(self.stats.row_count)

    def cost(self) -> float:
        return float(self.stats.row_count)

    def distinct_values(self, binding: str, column: str) -> float:
        return float(self.stats.distinct_values(column))

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        rows = list(self.relation.rows)  # stream-start snapshot
        for start in range(0, len(rows), size):
            yield list(zip(rows[start:start + size]))

    def label(self) -> str:
        return (f"TableScan {self.relation.name}"
                + (f" {self.binding}" if self.binding
                   != self.relation.name.lower() else ""))


class IndexScanPlan(Plan):
    """Index access path for one binding: equality probes go through a
    :class:`~repro.relational.indexes.HashIndex`, range probes through a
    :class:`~repro.relational.indexes.SortedIndex` (both cached on the
    database and version-checked).  The index is resolved when the first
    batch is requested -- not at plan time -- so mutations between
    planning and execution are seen through the cache's staleness
    check."""

    def __init__(self, scope: Scope, binding: str, column: str,
                 interval: Interval, stats):
        super().__init__(scope, [binding])
        self.binding = binding
        self.relation = scope.relations[binding]
        self.column = column
        self.interval = interval
        self.stats = stats
        self.kind = "hash" if interval.is_point() else "sorted"

    def records_output(self) -> float:
        fraction = self.stats.selectivity(self.column, self.interval)
        return self.stats.row_count * fraction

    def cost(self) -> float:
        # An index probe touches only its matches (build cost amortizes
        # across the workload through the cache).
        return self.records_output()

    def distinct_values(self, binding: str, column: str) -> float:
        if column.lower() == self.column.lower():
            return 1.0 if self.interval.is_point() else max(
                1.0, self.stats.distinct_values(column)
                * self.stats.selectivity(self.column, self.interval))
        return min(float(self.stats.distinct_values(column)),
                   max(1.0, self.records_output()))

    def index_positions(self):
        """``(index, positions)``: the cached index this scan probes and
        the positions of its matching rows, in index order."""
        cache = self.scope.database.indexes
        if self.kind == "hash":
            index = cache.hash_index(self.relation, self.column)
            return index, index.positions(self.interval.low)
        index = cache.sorted_index(self.relation, self.column)
        return index, index.range_positions(
            self.interval.low, self.interval.high,
            low_inclusive=not self.interval.low_open,
            high_inclusive=not self.interval.high_open)

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        index, positions = self.index_positions()
        rows = index.rows
        for start in range(0, len(positions), size):
            yield list(zip(map(rows.__getitem__,
                               positions[start:start + size])))

    def label(self) -> str:
        return (f"IndexScan {self.relation.name} on {self.column} "
                f"[{self.interval.render(self.column)}] ({self.kind})")


class FilterPlan(Plan):
    """Predicate evaluation over a child plan's output.

    Predicates are compiled once per stream into positional closures
    over the aligned row tuples; rows that survive accumulate into
    output batches of the configured size (a selective filter emits
    fewer, fuller batches rather than many near-empty ones).  Topping a
    kernel-capable scan+filter chain, the chain runs as masks over a
    selection vector instead (see :class:`Frame`)."""

    def __init__(self, child: Plan, predicates: Sequence, selectivity: float):
        super().__init__(child.scope, child.bindings)
        self.child = child
        self.predicates = list(predicates)
        self.selectivity = selectivity

    def records_output(self) -> float:
        return self.child.records_output() * self.selectivity

    def cost(self) -> float:
        return self.child.cost() + self.child.records_output()

    def distinct_values(self, binding: str, column: str) -> float:
        return min(self.child.distinct_values(binding, column),
                   max(1.0, self.records_output()))

    def _compiled_predicates(self) -> list:
        resolve = compiled.slot_resolver(
            [(binding, self.scope.relations[binding].schema)
             for binding in self.bindings])

        def interpreted(predicate):
            return lambda rows: predicate.evaluate(
                self.scope.environment(self.bindings, rows))

        return [compiled.compile_predicate(
                    predicate, resolve,
                    fallback=lambda p=predicate: interpreted(p))
                for predicate in self.predicates]

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        frame = _own_frame(self)
        if frame is not None:
            yield from frame.batches(size)
            return
        tests = self._compiled_predicates()
        if len(tests) == 1:
            test = tests[0]
        else:
            test = lambda rows: all(t(rows) for t in tests)
        out: list[tuple] = []
        for batch in self.child.batches(size):
            out.extend(rows for rows in batch if test(rows))
            while len(out) >= size:
                yield out[:size]
                out = out[size:]
        if out:
            yield out

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def label(self) -> str:
        return ("Filter ["
                + " and ".join(p.render() for p in self.predicates) + "]")


class MergeExchangePlan(Plan):
    """Order-preserving parallel execution of a scan(+filter) pipeline.

    Workers claim :data:`~repro.plan.parallel.MORSEL_ROWS`-row ranges
    from a shared cursor and evaluate the fused columnar kernels over
    their disjoint slices (the numpy path releases the GIL, so ranges
    genuinely overlap on cores); a
    :class:`~repro.plan.parallel.MergeExchange` re-assembles morsel
    outputs in sequence order, so consumers observe *exactly* the
    serial row order, early termination (generator close) cancels the
    fan-out at the next morsel boundary, and a worker exception --
    including a statement timeout -- surfaces at the same ordinal
    position the serial stream would have raised it.

    The planner only inserts this node when :func:`parallel.choose_dop`
    grants more than one worker; at execution time the degree is
    re-clamped against the *current* ``REPRO_PARALLEL`` setting (plans
    are cached, knobs are not), and a clamp to one worker -- or a chain
    shape the kernels cannot fuse when columnar is off -- degrades to
    the child's ordinary serial stream.

    Chain-internal actuals differ from serial execution by design: the
    scan reports its full snapshot, intermediate filters stay
    unmeasured (the conjunction is evaluated as one fused mask, never
    per filter), and this node's own actuals carry the survivor count.
    """

    def __init__(self, child: Plan, dop: int):
        super().__init__(child.scope, child.bindings)
        self.child = child
        self.dop = dop
        self.worker_actuals: list[dict] = []

    def records_output(self) -> float:
        return self.child.records_output()

    def cost(self) -> float:
        return self.child.cost()

    def distinct_values(self, binding: str, column: str) -> float:
        return self.child.distinct_values(binding, column)

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        self.worker_actuals = []
        dop = min(self.dop, parallel.workers())
        chain = _scan_filter_chain(self.child)
        if dop <= 1 or chain is None:
            yield from self.child.batches(size)
            return
        scan, filters = chain
        deadline = getattr(_statement_deadline, "at", None)
        stream = None
        if _columnar_ready():
            try:
                stream = self._columnar_morsels(scan, filters, dop,
                                                deadline)
            except kernels.UnsupportedKernel:
                _count_fused("MergeExchangePlan", False)
        if stream is None:
            stream = self._row_morsels(scan, filters, dop, deadline)
        out: list[tuple] = []
        try:
            for part in stream:
                out.extend(part)
                while len(out) >= size:
                    yield out[:size]
                    out = out[size:]
            if out:
                yield out
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()

    def exchange_frame(self, account_top: bool) -> Frame:
        """The pipeline as a :class:`Frame` (see :func:`resolve_frame`):
        when the re-clamped degree grants workers, the chain's mask is
        evaluated morsel-parallel and the partial selections merge back
        in morsel order, so the vector is ascending exactly like the
        serial one (chain-internal actuals as in :meth:`_batches`);
        otherwise the chain resolves serially."""
        start = time.perf_counter()
        self.worker_actuals = []
        dop = min(self.dop, parallel.workers())
        chain = _scan_filter_chain(self.child)
        if chain is None:
            raise kernels.UnsupportedKernel("exchange over a non-chain")
        scan, filters = chain
        store = scan.relation.column_store()
        total_rows = len(store.rows)
        morsel_rows = parallel.MORSEL_ROWS
        predicates = [predicate for node in filters
                      for predicate in node.predicates]
        if dop <= 1 or total_rows < 2 * morsel_rows or not predicates:
            frame = _frame(self.child, True)
        else:
            binding = [scan.binding]
            kernels.predicate_mask(store, predicates, binding, 0, 0)
            scan.actual_rows = total_rows
            scan.actual_time_s = time.perf_counter() - start

            def morsel(seq: int):
                lo = seq * morsel_rows
                hi = min(total_rows, lo + morsel_rows)
                mask = kernels.predicate_mask(store, predicates, binding,
                                              lo, hi)
                return lo, hi, kernels.to_selection(mask)

            selection: list[int] = []
            for lo, hi, part in parallel.run_ordered(
                    (total_rows + morsel_rows - 1) // morsel_rows, dop,
                    morsel, deadline=getattr(_statement_deadline, "at",
                                             None),
                    label="MergeExchange",
                    worker_stats=self.worker_actuals):
                if part is None:
                    selection.extend(range(lo, hi))
                else:
                    selection.extend(lo + i for i in part)
            frame = Frame([scan.binding], [store],
                          [None if len(selection) == total_rows
                           else kernels.as_positions(selection)],
                          len(selection))
        if account_top:
            self.actual_rows = frame.size
            self.actual_time_s = time.perf_counter() - start
        return frame

    def _columnar_morsels(self, scan: "TableScanPlan",
                          filters: Sequence["FilterPlan"], dop: int,
                          deadline: float | None) -> Iterator[list[tuple]]:
        start = time.perf_counter()
        store = scan.relation.column_store()
        rows = store.rows
        total_rows = len(rows)
        predicates = [predicate for node in filters
                      for predicate in node.predicates]
        binding = [scan.binding]
        # Pre-flight over an empty range: kernel support is decided by
        # predicate *shape*, so an unsupported predicate surfaces here,
        # on the consumer thread, before any worker fans out.
        kernels.predicate_mask(store, predicates, binding, 0, 0)
        scan.actual_rows = total_rows
        scan.actual_time_s = time.perf_counter() - start
        _count_fused("MergeExchangePlan", True)
        morsel_rows = parallel.MORSEL_ROWS
        total = (total_rows + morsel_rows - 1) // morsel_rows

        def morsel(seq: int) -> list[tuple]:
            lo = seq * morsel_rows
            hi = min(total_rows, lo + morsel_rows)
            selection = None
            if predicates:
                mask = kernels.predicate_mask(store, predicates, binding,
                                              lo, hi)
                selection = kernels.to_selection(mask)
            if selection is None:
                return [(row,) for row in rows[lo:hi]]
            return [(rows[lo + i],) for i in selection]

        return parallel.run_ordered(total, dop, morsel, deadline=deadline,
                                    label="MergeExchange",
                                    worker_stats=self.worker_actuals)

    def _row_morsels(self, scan: "TableScanPlan",
                     filters: Sequence["FilterPlan"], dop: int,
                     deadline: float | None) -> Iterator[list[tuple]]:
        """Morsel stream over the row path (columnar off or predicates
        outside the kernel subset): workers run the chain's compiled
        predicates per row, innermost filter first with short-circuit,
        exactly the serial FilterPlan order."""
        rows = list(scan.relation.rows)  # stream-start snapshot
        total_rows = len(rows)
        scan.actual_rows = total_rows
        scan.actual_time_s = 0.0
        tests = [test for node in filters
                 for test in node._compiled_predicates()]
        morsel_rows = parallel.MORSEL_ROWS
        total = (total_rows + morsel_rows - 1) // morsel_rows

        def morsel(seq: int) -> list[tuple]:
            lo = seq * morsel_rows
            hi = min(total_rows, lo + morsel_rows)
            if not tests:
                return [(row,) for row in rows[lo:hi]]
            return [(row,) for row in rows[lo:hi]
                    if all(test((row,)) for test in tests)]

        return parallel.run_ordered(total, dop, morsel, deadline=deadline,
                                    label="MergeExchange",
                                    worker_stats=self.worker_actuals)

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"MergeExchange [dop={self.dop}]"


class HashJoinPlan(Plan):
    """Equi-join of two plans: hash the right input, probe from the
    left.  ``edges`` are ``(left_binding, left_col, right_binding,
    right_col)`` with sides already normalized.

    The build side (right) is the one intermediate this pipeline must
    materialize -- that is hashing, not batching.  The probe side
    streams: each left batch is probed as it arrives, matches accumulate
    into output batches of at most the configured size, and an empty
    build side terminates the join without pulling a single left batch.
    A single-edge join over inputs that resolve to frames runs as
    :meth:`join_frame` instead, with the same order and actuals.
    """

    def __init__(self, left: Plan, right: Plan,
                 edges: Sequence[tuple[str, str, str, str]]):
        super().__init__(left.scope, tuple(left.bindings)
                         + tuple(right.bindings))
        self.left = left
        self.right = right
        self.edges = list(edges)

    def records_output(self) -> float:
        estimate = self.left.records_output() * self.right.records_output()
        for left_bind, left_col, right_bind, right_col in self.edges:
            denominator = max(
                self.left.distinct_values(left_bind, left_col),
                self.right.distinct_values(right_bind, right_col), 1.0)
            estimate /= denominator
        return estimate

    def cost(self) -> float:
        return (self.left.cost() + self.right.cost()
                + self.left.records_output() + self.right.records_output()
                + self.records_output())

    def distinct_values(self, binding: str, column: str) -> float:
        owner = self.left if binding in self.left.bindings else self.right
        return min(owner.distinct_values(binding, column),
                   max(1.0, self.records_output()))

    def _key_positions(self):
        left_keys, right_keys = [], []
        for left_bind, left_col, right_bind, right_col in self.edges:
            left_slot = self.left.bindings.index(left_bind)
            left_pos = self.scope.relations[left_bind].schema.position(
                left_col)
            right_slot = self.right.bindings.index(right_bind)
            right_pos = self.scope.relations[right_bind].schema.position(
                right_col)
            left_keys.append((left_slot, left_pos))
            right_keys.append((right_slot, right_pos))
        return left_keys, right_keys

    def join_frame(self, account_top: bool) -> Frame:
        """This join as a :class:`Frame` (see :func:`resolve_frame`).

        Both inputs resolve recursively, the build (right) side first;
        :func:`~repro.relational.kernels.join_pairs` then aligns their
        rows in the row path's exact output order, and each binding's
        position vector is composed through the pairs.  As on the row
        path, a build side without a non-NULL key ends the join without
        touching the left input.  Raises
        :class:`~repro.relational.kernels.UnsupportedKernel` for
        multi-edge joins and inputs that do not resolve.
        """
        if len(self.edges) != 1:
            raise kernels.UnsupportedKernel("multi-edge join")
        start = time.perf_counter()
        (left_bind, left_col, right_bind, right_col), = self.edges
        right = _frame(self.right, True)
        frame = Frame(self.bindings, [None] * len(self.bindings),
                      [None] * len(self.bindings), 0)
        if right.size:
            right_slot = right.bindings.index(right_bind)
            right_store = right.stores[right_slot]
            right_position = right_store.schema.position(right_col)
            right_selection = right.positions[right_slot]
            present = kernels.count(
                kernels.notnull_mask(right_store, right_position,
                                     selection=right_selection),
                right.size)
            left = _frame(self.left, True) if present else None
            if left is not None and left.size:
                left_slot = left.bindings.index(left_bind)
                left_store = left.stores[left_slot]
                pairs = kernels.join_pairs(
                    left_store, left_store.schema.position(left_col),
                    left.positions[left_slot], right_store,
                    right_position, right_selection)
                frame = Frame(
                    self.bindings, left.stores + right.stores,
                    [_composed(positions, pairs[0])
                     for positions in left.positions]
                    + [_composed(positions, pairs[1])
                       for positions in right.positions],
                    len(pairs[0]))
        if account_top:
            self.actual_rows = frame.size
            self.actual_time_s = time.perf_counter() - start
        return frame

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        frame = _own_frame(self)
        if frame is not None:
            yield from frame.batches(size)
            return
        # Keys are bare values for a single edge, tuples otherwise.
        key_of = self._key_function(self.right)
        buckets: dict[Any, list[tuple]] = defaultdict(list)
        for batch in self.right.batches(size):
            for key, rows in zip(map(key_of, batch), batch):
                buckets[key].append(rows)
        # NULL never joins: drop the keys holding one, so no probe key
        # holding NULL can find a bucket either.
        if len(self.edges) > 1:
            for key in [key for key in buckets if None in key]:
                del buckets[key]
        else:
            buckets.pop(None, None)
        if not buckets:
            return  # early termination: the left side is never pulled
        key_of = self._key_function(self.left)
        out: list[tuple] = []
        for batch in self.left.batches(size):
            for key, rows in zip(map(key_of, batch), batch):
                matches = buckets.get(key)
                if matches is None:
                    continue
                out.extend([rows + match for match in matches])
                while len(out) >= size:
                    yield out[:size]
                    del out[:size]
        if out:
            yield out

    def _key_function(self, side: Plan):
        """Generated join-key function over the aligned rows of *side*
        (the left or the right input): a bare value for one edge, a
        tuple for several."""
        offset = 0 if side is self.left else 2
        refs = [ColumnRef(edge[offset + 1], edge[offset])
                for edge in self.edges]
        return row_function(self.scope, side.bindings, refs,
                            scalar=len(refs) == 1)

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        keys = ", ".join(f"{lb}.{lc} = {rb}.{rc}"
                         for lb, lc, rb, rc in self.edges)
        return f"HashJoin [{keys}]"


class ParallelHashJoinPlan(HashJoinPlan):
    """Hash join with a partitioned parallel build and an ordered
    parallel probe.

    Build phase: workers claim morsel ranges of the build (right) side,
    evaluate the fused filter + NOT NULL key mask over their slice, and
    scatter surviving row indices to hash partitions
    (:class:`~repro.plan.parallel.ScatterExchange`); fragments merge in
    morsel-sequence order per partition, so each partition's index list
    is globally ascending, and a second fan-out builds each partition's
    buckets independently -- bucket contents end up in ascending build
    row order, byte-for-byte what the serial build inserts.

    Probe phase: the probe (left) side runs as ordered morsels when it
    is itself a kernel-capable chain (each worker masks its range, then
    probes only the one partition a key can live in), otherwise it
    streams serially through the partitioned lookup.  Either way output
    order is exactly the serial join's: probe row order, ascending
    build order per bucket.

    Falls back to :class:`HashJoinPlan`'s serial execution whenever the
    effective worker count clamps to one, the join has multiple edges,
    columnar is off, or a side's predicates fall outside the kernel
    subset.
    """

    def __init__(self, left: Plan, right: Plan,
                 edges: Sequence[tuple[str, str, str, str]], dop: int):
        super().__init__(left, right, edges)
        self.dop = dop
        self.worker_actuals: list[dict] = []

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        self.worker_actuals = []
        dop = min(self.dop, parallel.workers())
        if dop <= 1 or len(self.edges) != 1 or not _columnar_ready():
            yield from super()._batches(size)
            return
        left_keys, right_keys = self._key_positions()
        build = self._partitioned_build(right_keys, dop)
        if build is None:
            yield from super()._batches(size)
            return
        scatter, partitions = build
        if not any(partitions):
            return  # early termination: the left side is never pulled
        yield from self._partitioned_probe(scatter, partitions, left_keys,
                                           size, dop)

    def _partitioned_build(self, right_keys, dop: int):
        """``(scatter, [buckets per partition])`` built partition-
        parallel, or ``None`` when the build side is not a
        kernel-capable chain (callers fall back to the serial join)."""
        chain = _scan_filter_chain(self.right)
        if chain is None:
            return None
        scan, filters = chain
        deadline = getattr(_statement_deadline, "at", None)
        start = time.perf_counter()
        store = scan.relation.column_store()
        rows = store.rows
        total_rows = len(rows)
        predicates = [predicate for node in filters
                      for predicate in node.predicates]
        binding = [scan.binding]
        position = right_keys[0][1]
        try:
            kernels.predicate_mask(store, predicates, binding, 0, 0)
        except kernels.UnsupportedKernel:
            _count_fused("ParallelHashJoinPlan", False)
            return None
        scan.actual_rows = total_rows
        scan.actual_time_s = time.perf_counter() - start
        _count_fused("ParallelHashJoinPlan", True)
        column = store.values(position)
        scatter = parallel.ScatterExchange(dop)
        parts = scatter.partitions
        morsel_rows = parallel.MORSEL_ROWS
        total = (total_rows + morsel_rows - 1) // morsel_rows

        def scatter_morsel(seq: int) -> list[list[int]]:
            lo = seq * morsel_rows
            hi = min(total_rows, lo + morsel_rows)
            mask = (kernels.predicate_mask(store, predicates, binding,
                                           lo, hi)
                    if predicates else None)
            notnull = kernels.notnull_mask(store, position, lo, hi)
            selection = kernels.to_selection(
                kernels.combine_and(mask, notnull))
            indices = (range(lo, hi) if selection is None
                       else [lo + i for i in selection])
            frags: list[list[int]] = [[] for _ in range(parts)]
            for i in indices:
                frags[scatter.route(column[i])].append(i)
            return frags

        fragments: list[list[int]] = [[] for _ in range(parts)]
        for frags in parallel.run_ordered(
                total, dop, scatter_morsel, deadline=deadline,
                label="ScatterExchange",
                worker_stats=self.worker_actuals):
            for part, frag in enumerate(frags):
                if frag:
                    fragments[part].extend(frag)

        def build_partition(part: int) -> dict:
            buckets: dict[Any, list[tuple]] = {}
            for i in fragments[part]:
                buckets.setdefault(column[i], []).append((rows[i],))
            return buckets

        partitions = list(parallel.run_ordered(
            parts, dop, build_partition, deadline=deadline,
            label="HashJoinBuild", worker_stats=self.worker_actuals))
        return scatter, partitions

    def _partitioned_probe(self, scatter, partitions, left_keys,
                           size: int, dop: int) -> Iterator[list[tuple]]:
        slot, position = left_keys[0]

        def lookup(key):
            if key is None:
                return None
            return partitions[scatter.route(key)].get(key)

        deadline = getattr(_statement_deadline, "at", None)
        chain = _scan_filter_chain(self.left)
        stream = None
        if chain is not None:
            stream = self._probe_morsels(chain, position, lookup, dop,
                                         deadline)
        if stream is not None:
            out: list[tuple] = []
            try:
                for part in stream:
                    out.extend(part)
                    while len(out) >= size:
                        yield out[:size]
                        out = out[size:]
                if out:
                    yield out
            finally:
                close = getattr(stream, "close", None)
                if close is not None:
                    close()
            return
        out = []
        for batch in self.left.batches(size):
            for joined in batch:
                matches = lookup(joined[slot][position])
                if not matches:
                    continue
                for match in matches:
                    out.append(joined + match)
                    if len(out) >= size:
                        yield out
                        out = []
        if out:
            yield out

    def _probe_morsels(self, chain, position: int, lookup, dop: int,
                       deadline: float | None):
        """Ordered morsel stream probing the partitioned build, or
        ``None`` when the probe chain's predicates fall outside the
        kernel subset (callers stream the probe side serially)."""
        scan, filters = chain
        start = time.perf_counter()
        store = scan.relation.column_store()
        rows = store.rows
        total_rows = len(rows)
        predicates = [predicate for node in filters
                      for predicate in node.predicates]
        binding = [scan.binding]
        try:
            kernels.predicate_mask(store, predicates, binding, 0, 0)
        except kernels.UnsupportedKernel:
            _count_fused("ParallelHashJoinPlan", False)
            return None
        scan.actual_rows = total_rows
        scan.actual_time_s = time.perf_counter() - start
        column = store.values(position)
        morsel_rows = parallel.MORSEL_ROWS
        total = (total_rows + morsel_rows - 1) // morsel_rows

        def morsel(seq: int) -> list[tuple]:
            lo = seq * morsel_rows
            hi = min(total_rows, lo + morsel_rows)
            selection = None
            if predicates:
                mask = kernels.predicate_mask(store, predicates, binding,
                                              lo, hi)
                selection = kernels.to_selection(mask)
            indices = (range(lo, hi) if selection is None
                       else [lo + i for i in selection])
            out: list[tuple] = []
            for i in indices:
                matches = lookup(column[i])
                if not matches:
                    continue
                base = (rows[i],)
                out.extend(base + match for match in matches)
            return out

        return parallel.run_ordered(total, dop, morsel, deadline=deadline,
                                    label="MergeExchange",
                                    worker_stats=self.worker_actuals)

    def label(self) -> str:
        return super().label() + f" (parallel dop={self.dop})"


class ProductPlan(Plan):
    """Cartesian product (no usable join edge).  The right side is
    materialized (it is re-scanned once per left row); the left side
    streams."""

    def __init__(self, left: Plan, right: Plan):
        super().__init__(left.scope, tuple(left.bindings)
                         + tuple(right.bindings))
        self.left = left
        self.right = right

    def records_output(self) -> float:
        return self.left.records_output() * self.right.records_output()

    def cost(self) -> float:
        return (self.left.cost() + self.right.cost()
                + self.records_output())

    def distinct_values(self, binding: str, column: str) -> float:
        owner = self.left if binding in self.left.bindings else self.right
        return owner.distinct_values(binding, column)

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        right_rows = [rows for batch in self.right.batches(size)
                      for rows in batch]
        if not right_rows:
            return
        out: list[tuple] = []
        for batch in self.left.batches(size):
            for rows in batch:
                for other in right_rows:
                    out.append(rows + other)
                    if len(out) >= size:
                        yield out
                        out = []
        if out:
            yield out

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return "Product"


class EmptyPlan(Plan):
    """Semantic short-circuit: the planner proved no row can satisfy the
    query, so nothing is scanned at all.  ``reason`` carries the
    intensional explanation shown by EXPLAIN."""

    def __init__(self, scope: Scope, bindings: Sequence[str], reason: str):
        super().__init__(scope, bindings)
        self.reason = reason

    def records_output(self) -> float:
        return 0.0

    def cost(self) -> float:
        return 0.0

    def distinct_values(self, binding: str, column: str) -> float:
        return 0.0

    def _batches(self, size: int) -> Iterator[list[tuple]]:
        yield from ()

    def label(self) -> str:
        return f"Empty [{self.reason}]"


class ProjectPlan(Plan):
    """Root node: SELECT-list evaluation, grouping, ORDER BY, DISTINCT.

    Delegates to the executor's shared projection so planned and legacy
    execution produce identical relations.  The child's batches are fed
    to the projection as a lazy row stream, so the joined intermediate
    is never materialized -- only the projected output rows (the result
    itself) accumulate here, which is the one permitted top-of-tree
    materialization.
    """

    def __init__(self, scope: Scope, statement: ast.SelectStmt,
                 child: Plan, result_name: str = "result"):
        super().__init__(scope, child.bindings)
        self.statement = statement
        self.child = child
        self.result_name = result_name

    def records_output(self) -> float:
        """The child's rows for a plain SELECT; for GROUP BY the product
        of the group columns' distinct values, capped at the child's
        rows; one row for a global aggregate."""
        rows = self.child.records_output()
        statement = self.statement
        if not statement.group_by:
            return 1.0 if statement.has_aggregates() else rows
        groups = 1.0
        for expression in statement.group_by:
            if not isinstance(expression, ColumnRef):
                return rows
            try:
                binding = self.scope.resolve(expression)
            except SqlError:
                return rows
            groups *= self.child.distinct_values(binding, expression.column)
        return min(rows, groups)

    def cost(self) -> float:
        return self.child.cost() + self.child.records_output()

    def distinct_values(self, binding: str, column: str) -> float:
        return self.child.distinct_values(binding, column)

    def execute_relation(self, batch_size: int | None = None) -> Relation:
        self.reset_actuals()
        start = time.perf_counter()
        result = None
        if _columnar_ready():
            from repro.plan import vectorized
            result = vectorized.fast_result(self)
        if result is None:
            result = project_statement(self.scope, self.statement,
                                       self.child.bindings,
                                       self.child.batches(batch_size),
                                       self.result_name)
        end = time.perf_counter()
        self.actual_rows = len(result)
        self.actual_time_s = end - start
        obs.record_span("plan.node.ProjectPlan", start, end,
                        label=self.label(), rows=len(result))
        return result

    def _batches(self, size: int):  # pragma: no cover - use execute_relation
        raise NotImplementedError("ProjectPlan executes to a Relation")

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)

    def label(self) -> str:
        if self.statement.star:
            items = "*"
        else:
            items = ", ".join(item.render()
                              for item in self.statement.items)
        return f"Project [{items}]"
