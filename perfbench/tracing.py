"""Per-thread timing wrappers for the traced run.

The wrappers are installed from the benchmark's own code, around the
public functions each layer exposes, at every module that calls them
(``repro.query.system`` imports ``parse_select`` by name, so patching
only ``repro.sql.parser`` would miss it).  They do not use the
program's ``obs`` spans.

Each thread keeps its own stack of open wrappers.  When a wrapper
closes, its duration is charged to its metric group (only when no
wrapper of the same group is open below it, so nested calls are not
counted twice), and its *self time* -- the duration minus the time
its child wrappers cover -- to its layer.  Time on a thread outside
every wrapper is what ``trace.unattributed_share`` reports.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import Counter

#: (module, attribute path, metric group, layer).  A group appears once
#: per call-site module that imports the function by name.
TIMED = (
    ("repro.sql.parser", "parse_select", "sql.parse", "sql"),
    ("repro.sql.parser", "parse_statement", "sql.parse", "sql"),
    ("repro.sql.executor", "parse_select", "sql.parse", "sql"),
    ("repro.query.system", "parse_select", "sql.parse", "sql"),
    ("repro.server.server", "parse_select", "sql.parse", "sql"),
    ("repro.server.server", "parse_statement", "sql.parse", "sql"),
    ("repro.plan.planner", "plan_select", "plan.plan", "plan"),
    ("repro.plan.semantic", "analyze", "plan.semantic", "plan"),
    ("repro.plan.planner", "PlannedQuery.execute", "exec.execute", "exec"),
    ("repro.query.system", "extract_conditions", "query.conditions",
     "query"),
    ("repro.inference.engine", "TypeInferenceEngine.infer",
     "inference.infer", "inference"),
    ("repro.inference.engine", "forward_chain", "inference.forward",
     "inference"),
    ("repro.inference.engine", "backward_match", "inference.backward",
     "inference"),
    ("repro.cache.core", "QueryCache.lookup_ask", "cache.lookup", "cache"),
    ("repro.cache.core", "QueryCache.plan_for", "cache.plan_for", "cache"),
    ("repro.cache.core", "QueryCache.execute_select", "cache.result",
     "cache"),
    ("repro.cache.core", "QueryCache.admit_ask", "cache.admit", "cache"),
    ("repro.cache.core", "QueryCache._admit", "cache.admit", "cache"),
    ("repro.server.server", "Session._serve", "server.request", "server"),
    ("repro.server.protocol", "encode_frame", "server.encode", "server"),
    ("repro.server.protocol", "encode_relation_payload", "server.encode",
     "server"),
    ("repro.server.protocol", "decode_frame", "server.decode", "server"),
    ("repro.server.protocol", "decode_relation_payload", "server.decode",
     "server"),
    ("repro.server.concurrency", "LockTable.slock", "server.lock",
     "server"),
    ("repro.server.concurrency", "LockTable.xlock", "server.lock",
     "server"),
    ("repro.storage.engine", "StorageEngine.commit", "storage.commit",
     "storage"),
    ("repro.storage.faults", "FileOps.fsync", "storage.fsync", "storage"),
)

#: Named layers, in report order.
LAYERS = ("sql", "plan", "exec", "query", "inference", "cache", "server",
          "storage")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


class _Frame:
    __slots__ = ("group", "children")

    def __init__(self, group: str):
        self.group = group
        self.children = 0.0


class Recorder:
    """Accumulates wrapper timings and counts across threads."""

    def __init__(self):
        self._local = threading.local()
        self._guard = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.group_s: Counter = Counter()
        self.group_calls: Counter = Counter()
        self.layer_self_s: Counter = Counter()
        #: time covered by outermost wrappers, over all threads.
        self.covered_s = 0.0
        self.counts: Counter = Counter()
        self.q_errors: list[float] = []

    # -- wrappers ----------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, function, group: str, layer: str, after=None):
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            outermost = all(frame.group != group for frame in stack)
            frame = _Frame(group)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].children += duration
                with recorder._guard:
                    recorder.layer_self_s[layer] += duration - frame.children
                    if outermost:
                        recorder.group_s[group] += duration
                        recorder.group_calls[group] += 1
                    if not stack:
                        recorder.covered_s += duration
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def _counted(self, function, name: str):
        recorder = self

        def wrapper(*args, **kwargs):
            recorder.counts[name] += 1
            return function(*args, **kwargs)

        wrapper.__wrapped__ = function
        return wrapper

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    # -- hooks that count work where it happens -----------------------------

    def _after_execute(self, args, result) -> None:
        from repro.plan.plans import (
            IndexScanPlan, MergeExchangePlan, ParallelHashJoinPlan,
            TableScanPlan,
        )
        scanned, exchange, errors = 0, False, []
        pending = [args[0].root]
        while pending:
            node = pending.pop()
            pending.extend(node.children())
            if isinstance(node, (MergeExchangePlan, ParallelHashJoinPlan)):
                exchange = True
            if isinstance(node, TableScanPlan):
                scanned += len(node.relation)
            elif isinstance(node, IndexScanPlan):
                scanned += node.actual_rows or 0
            if node.actual_rows is not None:
                estimate = max(node.records_output(), 1.0)
                actual = max(node.actual_rows, 1)
                errors.append(max(estimate / actual, actual / estimate))
        with self._guard:
            self.counts["exec.plans"] += 1
            self.counts["exec.exchange_plans"] += exchange
            self.counts["exec.rows_scanned"] += scanned
            self.counts["exec.rows_returned"] += len(result)
            self.q_errors.extend(errors)

    def _after_forward(self, args, result) -> None:
        with self._guard:
            self.counts["inference.rules_fired"] += len(result)

    def _after_encode(self, args, result) -> None:
        with self._guard:
            self.counts["server.frames_encoded"] += 1

    # -- install / remove ----------------------------------------------------

    def install(self, client: bool = False) -> "Recorder":
        """Wrap every function in :data:`TIMED`; with *client*, only the
        wire protocol, charged to ``client.*`` groups (the client side
        of a connection)."""
        if self._patches:
            return self
        afters = {("repro.server.protocol", "encode_frame"):
                  self._after_encode,
                  ("repro.plan.planner", "PlannedQuery.execute"):
                  self._after_execute,
                  ("repro.inference.engine", "forward_chain"):
                  self._after_forward}
        for module_name, path, group, layer in TIMED:
            if client:
                if module_name != "repro.server.protocol":
                    continue
                group = group.replace("server.", "client.")
            owner, attribute = _resolve(module_name, path)
            function = owner.__dict__[attribute]
            after = None if client else afters.get((module_name, path))
            self._patch(owner, attribute,
                        self._timed(function, group, layer, after))
        if client:
            return self
        owner, attribute = _resolve("repro.inference.forward", "rule_fires")
        self._patch(owner, attribute,
                    self._counted(getattr(owner, attribute),
                                  "inference.rules_tested"))
        file_ops, _ = _resolve("repro.storage.faults", "FileOps.write")
        write = file_ops.write
        recorder = self

        def counted_write(ops, handle, data, kind):
            if kind == "wal_append":
                recorder.counts["storage.wal_bytes"] += len(
                    data.encode("utf-8"))
            return write(ops, handle, data, kind)

        self._patch(file_ops, "write", counted_write)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def snapshot(self) -> dict:
        """Everything recorded so far, as plain JSON-able values."""
        with self._guard:
            return {"group_s": dict(self.group_s),
                    "group_calls": dict(self.group_calls),
                    "layer_self_s": dict(self.layer_self_s),
                    "covered_s": self.covered_s,
                    "counts": dict(self.counts),
                    "q_errors": list(self.q_errors)}
