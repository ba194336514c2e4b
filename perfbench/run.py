"""End-to-end benchmark of ``ask()``: rows plus intensional answer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_wire_mixed --seed 1 \\
        --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``paper_wire_mixed`` -- the Appendix C ship database served by an
  ``IntensionalQueryServer`` in a child process (WAL storage,
  ``fsync="commit"``), driven by two blocking ``Client`` connections:
  50% hot asks repeating a Zipf-skewed set of paper-shaped statements,
  20% cold asks, 20% plain SELECT aggregates and 10% writes (an INSERT
  and a DELETE of one INSTALL row in one transaction);
* ``hospital_ask`` -- in-process ``IntensionalQueryProcessor.ask()`` on
  the hospital domain at scale 150 (18,000 patients, ~1.8k rules),
  every literal fresh;
* ``hospital_select`` -- the same instance answering plain SELECTs
  through ``repro.sql.executor.execute_sql``.

The load is a closed loop from this one process: each caller sends its
next statement only after the previous reply.  A run executes a fixed
number of operations, ``--seconds`` times the workload's nominal rate
(``OPS_PER_SECOND``), after an untimed warm-up; the wire warm-up
includes writes, so timing starts with the rule base already stale for
INSTALL.  Every reply is checked after the timed window against
``workloads.naive_rows`` and, for asks, against the intensional answers
of an in-process reference (wire) or ``verify_answers`` (in process);
the worked examples must also give the paper's answers.  Errors and
wrong answers count as failed operations, by type.

Times are adjusted for host speed (see ``speed.py``), and the wire
workload runs client and server on one CPU (see ``run_wire_workload``).
Rates and percentiles are medians over consecutive segments of the
run.  The record also holds the raw, unadjusted values.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
first half of the operations untraced and the second half with the
timing wrappers of ``tracing.py`` installed, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it hold the full record: environment, every metric by name and
unit, and failures by error type.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Recorder  # noqa: E402

WORKLOADS = ("paper_wire_mixed", "hospital_ask", "hospital_select")
#: Operations per ``--seconds`` of each workload: its throughput on a
#: 2-core x86-64 box, so a run measures for about ``--seconds``.
OPS_PER_SECOND = {"paper_wire_mixed": 600, "hospital_ask": 55,
                  "hospital_select": 60}
#: Untimed warm-up operations (drawn from the same generator, so they
#: never repeat a timed cold statement).
WARMUP = {"paper_wire_mixed": 300, "hospital_ask": 30,
          "hospital_select": 12}
#: Operations per block: the unit of host-speed probing (about a
#: quarter second; see ``speed.py``) and of segmenting.
BLOCK = {"paper_wire_mixed": 150, "hospital_ask": 15, "hospital_select": 15}
#: End-to-end rates and percentiles are medians over up to SEGMENTS
#: consecutive stretches of at least SEGMENT_OPS operations, so a
#: stall of the host that lasts less than half a run does not move them.
SEGMENTS = 10
SEGMENT_OPS = 200
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = {"paper_wire_mixed": 9, "hospital_ask": 7, "hospital_select": 7}
#: Client connections of the wire workload (at most ``nproc`` here).
CONNECTIONS = 2
#: Asks per in-process run checked with the full ``verify_answers``.
VERIFY_SAMPLE = 20
HOSPITAL_SCALE = 150
DATA_SEED = 0
#: A run stops early (and says so) past this many seconds of load.
MAX_LOAD_S = 90.0


# -- small helpers -------------------------------------------------------------


def percentile(values: list[float], share: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(share * 100) - 1]


def clear_knobs() -> dict[str, str]:
    """Drop every ``REPRO_*`` variable: the benchmark measures the
    default configuration.  Returns what was dropped."""
    dropped = {name: os.environ.pop(name) for name in list(os.environ)
               if name.startswith("REPRO_")}
    return dropped


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(arguments, database) -> dict:
    from repro.cache.core import query_cache
    from repro.plan import parallel
    from repro.plan.plans import default_batch_size
    from repro.relational import columnar
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    cache = query_cache(database)
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "knobs": {"REPRO_CACHE": "on" if cache.enabled else "off",
                  "REPRO_CACHE_BYTES": cache.byte_budget,
                  "REPRO_CACHE_FLOOR_MS": cache.floor_s * 1000.0,
                  "REPRO_BATCH_SIZE": default_batch_size(),
                  "REPRO_COLUMNAR": "on" if columnar.enabled() else "off",
                  "REPRO_PARALLEL": parallel.workers()},
        "data_seed": DATA_SEED,
        "workload_seed": arguments.seed,
        "commit": git_commit(),
    }


class Outcome:
    """One executed operation; *factor* is the host-speed factor of its
    block (see ``speed.py``)."""

    __slots__ = ("index", "query", "seconds", "factor", "error", "reply")

    def __init__(self, index, query, seconds, factor, error=None,
                 reply=None):
        self.index = index
        self.query = query
        self.seconds = seconds
        self.factor = factor
        self.error = error
        self.reply = reply


def error_name(error: Exception) -> str:
    return getattr(error, "remote_type", None) or type(error).__name__


class Phase:
    """The outcomes of one timed stretch of operations, as the blocks
    they ran in: ``(outcomes, wall seconds, adjusted seconds)``."""

    def __init__(self):
        self.blocks: list[tuple[list[Outcome], float, float]] = []

    @property
    def outcomes(self) -> list[Outcome]:
        return sorted((o for block in self.blocks for o in block[0]),
                      key=lambda o: o.index)

    @property
    def factor(self) -> float:
        """The mean host-speed factor over the phase."""
        return (sum(wall for _, wall, _ in self.blocks)
                / sum(adjusted for _, _, adjusted in self.blocks))

    def latencies(self, kind: str | None = None, adjusted: bool = True,
                  outcomes: list[Outcome] | None = None) -> list[float]:
        return [o.seconds * 1000.0 / (o.factor if adjusted else 1.0)
                for o in (self.outcomes if outcomes is None else outcomes)
                if o.error is None and (kind is None or o.query.kind == kind)]

    def total_latency_s(self) -> float:
        """Raw seconds summed over every operation (trace attribution)."""
        return sum(o.seconds for o in self.outcomes)

    def segments(self) -> list[list]:
        """Consecutive runs of blocks, at least ``SEGMENT_OPS`` operations
        each (at most ``SEGMENTS``)."""
        ops = sum(len(block[0]) for block in self.blocks)
        count = max(1, min(SEGMENTS, ops // SEGMENT_OPS, len(self.blocks)))
        size = len(self.blocks) / count
        return [self.blocks[round(i * size):round((i + 1) * size)]
                for i in range(count)]

    def ops_per_s(self, adjusted: bool = True) -> float:
        """Median over segments of operations per (adjusted) second."""
        return statistics.median(
            sum(len(block[0]) for block in segment)
            / sum(block[2 if adjusted else 1] for block in segment)
            for segment in self.segments())

    def segment_stats(self) -> list[dict]:
        """Per-segment rate and percentiles (adjusted), for the record."""
        stats = []
        for segment in self.segments():
            outcomes = [o for block in segment for o in block[0]]
            latencies = self.latencies(outcomes=outcomes)
            stats.append({
                "ops": len(outcomes),
                "ops_per_s": len(outcomes) / sum(b[2] for b in segment),
                "p50_ms": percentile(latencies, 0.5),
                "p95_ms": percentile(latencies, 0.95)})
        return stats

    def latency_ms(self, share: float, adjusted: bool = True) -> float:
        """Median over segments of the *share* latency percentile."""
        return statistics.median(
            percentile(self.latencies(adjusted=adjusted, outcomes=[
                o for block in segment for o in block[0]]), share)
            for segment in self.segments())


def timed_blocks(ops: list, offset: int, block: int, deadline: float,
                 run_block) -> Phase:
    """Run *ops* in blocks of *block*, probing the host speed before
    each block while the program is idle; ``run_block(numbered ops,
    factor)`` returns the block's outcomes."""
    phase = Phase()
    numbered = list(enumerate(ops, offset))
    for first in range(0, len(numbered), block):
        if time.perf_counter() > deadline:
            break
        factor = speed.factor()
        start = time.perf_counter()
        outcomes = run_block(numbered[first:first + block], factor)
        wall = time.perf_counter() - start
        phase.blocks.append((outcomes, wall, wall / factor))
    return phase


class Measured:
    """What one run of a workload measured."""

    def __init__(self):
        self.phases: list[Phase] = []
        #: set-up times, host-speed adjusted and raw.
        self.setup_s: list[float] = []
        self.setup_raw_s: list[float] = []
        self.induce_s: list[float] = []
        self.rules = 0
        self.maxrss_kb = 0
        #: wrong answers by kind (rows, intensional answers, writes).
        self.wrong: dict[str, int] = {}
        #: paper answers (E3-E5) the worked examples failed to give.
        self.paper_failures: list[str] = []
        #: recorder snapshot and counters around the traced phase.
        self.trace: dict | None = None
        self.counters: tuple[dict, dict] | None = None
        self.shutdown: dict | None = None
        #: server-side time covered by wrappers (wire workload).
        self.server_covered_s = 0.0
        self.environment: dict = {}

    @property
    def outcomes(self) -> list[Outcome]:
        return [o for phase in self.phases for o in phase.outcomes]

    def note_wrong(self, kind: str) -> None:
        self.wrong[kind] = self.wrong.get(kind, 0) + 1


def _phase_split(trace: int, ops: list, offset: int):
    """``(traced, ops, index of the first op)`` per timed phase: all ops
    untraced, or the first half untraced and the second half traced."""
    if not trace:
        return [(False, ops, offset)]
    half = len(ops) // 2
    return [(False, ops[:half], offset), (True, ops[half:], offset + half)]


def paper_answer_failures(system) -> list[str]:
    """Examples 1-3 of Section 6 must give the paper's answers (E3-E5)."""
    failures = []
    first = system.ask(workloads.EXAMPLE_1.sql)
    if sorted(first.extensional.rows) != [
            ("SSBN130", "Typhoon", "1301", "SSBN"),
            ("SSBN730", "Rhode Island", "0101", "SSBN")] \
            or first.inference.forward_subtypes() != ["SSBN"]:
        failures.append("E3: Example 1 is not 'ship type SSBN'")
    second = system.ask(workloads.EXAMPLE_2.sql)
    best = second.inference.best_backward_description()
    if len(second.extensional) != 7 or best is None or (
            best["interval"].low, best["interval"].high) != ("0101", "0103"):
        failures.append("E4: Example 2 is not 'classes 0101 to 0103'")
    third = system.ask(workloads.EXAMPLE_3.sql)
    best = third.inference.best_backward_description()
    if len(third.extensional) != 4 or set(
            third.inference.forward_subtypes()) != {"BQS", "SSN"} \
            or best is None or (best["interval"].low,
                                best["interval"].high) != ("0208", "0215"):
        failures.append("E5: Example 3 is not 'SSN, classes 0208 to 0215, "
                        "sonar BQS-04'")
    return failures


# -- in-process workloads (hospital) -------------------------------------------


def hospital_setup():
    """Build the hospital instance, bind its schema and induce its rules;
    returns ``(system, seconds, induce_seconds)``."""
    from repro.induction import InductionConfig, InductiveLearningSubsystem
    from repro.ker import SchemaBinding
    from repro.query import IntensionalQueryProcessor
    from repro.synth.domains import get_domain

    start = time.perf_counter()
    domain = get_domain("hospital")
    database = domain.build(seed=DATA_SEED, scale=HOSPITAL_SCALE)
    binding = SchemaBinding(domain.ker_schema(), database)
    induce_start = time.perf_counter()
    rules = InductiveLearningSubsystem(
        binding, InductionConfig(n_c=3),
        relation_order=list(domain.relation_order)).induce()
    induce_s = time.perf_counter() - induce_start
    system = IntensionalQueryProcessor(database, rules, binding=binding)
    return system, time.perf_counter() - start, induce_s


def run_local(system, ops: list, offset: int, deadline: float,
              block: int) -> Phase:
    from repro.errors import ReproError
    from repro.sql.executor import execute_sql

    def run_block(numbered, factor) -> list[Outcome]:
        outcomes = []
        for index, query in numbered:
            begun = time.perf_counter()
            try:
                reply = (system.ask(query.sql) if query.kind == "ask"
                         else execute_sql(system.database, query.sql))
            except ReproError as error:
                outcomes.append(Outcome(index, query,
                                        time.perf_counter() - begun,
                                        factor, error))
                continue
            outcomes.append(Outcome(index, query,
                                    time.perf_counter() - begun, factor,
                                    reply=reply))
        return outcomes

    return timed_blocks(ops, offset, block, deadline, run_block)


def local_counters(system) -> dict:
    from repro.cache.core import query_cache
    return {"cache": dict(query_cache(system.database).counters),
            "memo_hits": system.engine.memo_hits,
            "memo_misses": system.engine.memo_misses}


def check_local(system, measured: Measured) -> None:
    """Rows against the naive reference.  Every ask's forward answers go
    through ``verify_forward_answers``; ``VERIFY_SAMPLE`` asks spread
    over the run go through the full ``verify_answers`` (its backward
    coverage pass costs several asks' worth of time each)."""
    from repro.inference.verification import (
        verify_answers, verify_forward_answers,
    )
    asks = [o for o in measured.outcomes
            if o.error is None and o.query.kind == "ask"]
    sample = set(map(id, asks[::max(1, -(-len(asks) // VERIFY_SAMPLE))]))
    for outcome in measured.outcomes:
        if outcome.error is not None:
            continue
        reply = outcome.reply
        asked = outcome.query.kind == "ask"
        rows = reply.extensional.rows if asked else reply.rows
        if not workloads.same_rows(rows, workloads.naive_rows(
                system.database, outcome.query)):
            measured.note_wrong("wrong_rows")
        elif asked and not (verify_answers(reply).all_hold
                            if id(outcome) in sample else all(
                                check.holds for check in
                                verify_forward_answers(reply))):
            measured.note_wrong("unverified_intensional_answer")


def run_hospital(arguments, n: int) -> Measured:
    measured = Measured()
    system = None
    for _ in range(SETUPS[arguments.workload]):
        system = None  # let the previous instance go before rebuilding
        factor = speed.factor()
        system, seconds, induce = hospital_setup()
        measured.setup_s.append(seconds / factor)
        measured.setup_raw_s.append(seconds)
        measured.induce_s.append(induce / factor)
    measured.rules = len(system.rules)
    measured.environment = environment(arguments, system.database)
    measured.environment["hospital_scale"] = HOSPITAL_SCALE
    warm = WARMUP[arguments.workload]
    ops = workloads.hospital_ops(arguments.workload, arguments.seed,
                                 warm + n, system.database)
    block = BLOCK[arguments.workload]
    run_local(system, ops[:warm], 0, float("inf"), block)
    deadline = time.perf_counter() + MAX_LOAD_S
    recorder = Recorder()
    for traced, chunk, offset in _phase_split(arguments.trace, ops[warm:],
                                              warm):
        if traced:
            recorder.install()
        before = local_counters(system)
        try:
            measured.phases.append(run_local(system, chunk, offset,
                                             deadline, block))
        finally:
            recorder.uninstall()
        measured.counters = (before, local_counters(system))
    measured.maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if arguments.trace:
        measured.trace = recorder.snapshot()
    check_local(system, measured)
    return measured


# -- the wire workload (paper scale) -------------------------------------------


class ServerChild:
    """``server_child.py`` in its own process, spoken to over pipes."""

    def __init__(self, work_dir: str, setups: int):
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_child.py"),
             "--work-dir", work_dir, "--setups", str(setups)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT)
        try:
            self.hello = self._read(60.0)
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("the server process did not answer")
        return json.loads(line)

    def call(self, command: dict, timeout: float = 60.0) -> dict:
        self.process.stdin.write(json.dumps(command) + "\n")
        self.process.stdin.flush()
        return self._read(timeout)

    def close(self) -> None:
        try:
            self.process.stdin.close()
            self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()


def wire_op(client, query):
    from repro.errors import ReproError
    if query.kind == "ask":
        reply = client.ask(query.sql)
        return reply.extensional.rows, reply.intensional
    if query.kind == "select":
        return client.sql(query.sql).rows
    insert, delete = query.write_sql()
    client.begin()
    try:
        counts = (client.sql(insert), client.sql(delete))
        client.commit()
    except ReproError:
        if client.in_transaction:
            try:
                client.rollback()
            except ReproError:
                pass
        raise
    return counts


def run_wire(clients, ops: list, offset: int, deadline: float,
             block: int) -> Phase:
    """Each client runs its share of a block (round-robin) closed-loop
    on its own thread; the host-speed probe runs between blocks, with
    every connection idle."""
    from repro.errors import ReproError

    def loop(client, mine: list, factor: float, out: list) -> None:
        for index, query in mine:
            begun = time.perf_counter()
            try:
                reply = wire_op(client, query)
            except ReproError as error:
                out.append(Outcome(index, query,
                                   time.perf_counter() - begun, factor,
                                   error))
                continue
            out.append(Outcome(index, query, time.perf_counter() - begun,
                               factor, reply=reply))

    def run_block(numbered, factor) -> list[Outcome]:
        shares = [[] for _ in clients]
        threads = [threading.Thread(
            target=loop, args=(client, numbered[i::len(clients)], factor,
                               shares[i]))
            for i, client in enumerate(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [o for share in shares for o in share]

    return timed_blocks(ops, offset, block, deadline, run_block)


def check_wire(measured: Measured) -> None:
    """Rows against the naive reference over a private copy of the ship
    database; intensional answers against an in-process reference
    system in the same state (one write applied)."""
    from repro.errors import ReproError
    from repro.induction import InductionConfig
    from repro.query import IntensionalQueryProcessor
    from repro.sql.executor import execute_statement
    from repro.testbed import ship_database, ship_ker_schema

    reference = IntensionalQueryProcessor.from_database(
        ship_database(), ker_schema=ship_ker_schema(),
        config=InductionConfig(n_c=3),
        relation_order=["SUBMARINE", "CLASS", "SONAR", "INSTALL"])
    measured.paper_failures = paper_answer_failures(reference)
    for statement in workloads.paper_write(0).write_sql():
        execute_statement(reference.database, statement)
    rows: dict[str, list] = {}
    answers: dict[str, list | None] = {}
    for outcome in measured.outcomes:
        query = outcome.query
        if outcome.error is not None:
            continue
        if query.kind == "write":
            if tuple(outcome.reply) != (1, 1):
                measured.note_wrong("wrong_write_count")
            continue
        if query.sql not in rows:
            rows[query.sql] = workloads.naive_rows(reference.database,
                                                   query)
        got = outcome.reply[0] if query.kind == "ask" else outcome.reply
        if not workloads.same_rows(got, rows[query.sql]):
            measured.note_wrong("wrong_rows")
            continue
        if query.kind != "ask":
            continue
        if query.sql not in answers:
            try:
                answers[query.sql] = [
                    answer.render()
                    for answer in reference.ask(query.sql).intensional]
            except ReproError:
                answers[query.sql] = None
        if outcome.reply[1] != answers[query.sql]:
            measured.note_wrong("wrong_intensional_answer")


def run_wire_workload(arguments, n: int) -> Measured:
    from repro.relational import Database
    from repro.server.client import Client

    measured = Measured()
    # Client threads and the server child (which inherits this) share
    # one CPU: a request/response handoff is then a context switch, not
    # a cross-CPU wake-up, whose cost on a shared VM host swings 2x from
    # one minute to the next.  Statement execution is serialized behind
    # the server's engine lock, and paper-scale plans never fan out, so
    # the second CPU would only add that noise.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    measured.environment = environment(arguments, Database("knobs"))
    measured.environment["wal_fsync"] = "commit"
    measured.environment["connections"] = CONNECTIONS
    measured.environment["pinned_cpu"] = cpu
    work_dir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    child = None
    try:
        child = ServerChild(work_dir, SETUPS[arguments.workload])
        hello = child.hello
        measured.setup_s = hello["setup_s"]
        measured.setup_raw_s = hello["setup_raw_s"]
        measured.induce_s = hello["induce_s"]
        measured.rules = hello["rules"]
        clients = [Client("127.0.0.1", hello["port"]).connect()
                   for _ in range(CONNECTIONS)]
        try:
            warm = WARMUP[arguments.workload]
            ops = workloads.paper_ops(arguments.seed, warm + n)
            # The warm-up writes first: after a write the rule base is
            # no longer fresh for INSTALL, the state every later
            # statement sees.
            block = BLOCK[arguments.workload]
            run_wire(clients, [workloads.paper_write(0)] + ops[:warm]
                     + [workloads.paper_write(1)], -warm - 2,
                     float("inf"), block)
            deadline = time.perf_counter() + MAX_LOAD_S
            client_side = Recorder()
            for traced, chunk, offset in _phase_split(
                    arguments.trace, ops[warm:], warm):
                if traced:
                    child.call({"cmd": "trace", "on": True})
                    client_side.install(client=True)
                before = child.call({"cmd": "snapshot"})
                try:
                    measured.phases.append(run_wire(clients, chunk, offset,
                                                    deadline, block))
                finally:
                    client_side.uninstall()
                after = child.call({"cmd": "snapshot"})
                child.call({"cmd": "trace", "on": False})
                measured.counters = (before, after)
                measured.maxrss_kb = after["maxrss_kb"]
                if traced:
                    measured.server_covered_s = after["trace"]["covered_s"]
                    measured.trace = merge_traces(after["trace"],
                                                  client_side.snapshot())
        finally:
            for client in clients:
                client.close()
        measured.shutdown = child.call({"cmd": "shutdown"})
    finally:
        if child is not None:
            child.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run is still using it
    check_wire(measured)
    return measured


# -- metrics -------------------------------------------------------------------


def merge_traces(*snapshots: dict) -> dict:
    """Sum recorder snapshots (server side and client side)."""
    merged: dict = {"covered_s": 0.0, "q_errors": []}
    for snapshot in snapshots:
        merged["covered_s"] += snapshot["covered_s"]
        merged["q_errors"] += snapshot["q_errors"]
        for key in ("group_s", "group_calls", "layer_self_s", "counts"):
            total = merged.setdefault(key, {})
            for name, value in snapshot[key].items():
                total[name] = total.get(name, 0) + value
    return merged


def end_to_end(measured: Measured,
               adjusted: bool = True) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, from the untraced phase; times adjusted
    for host speed unless *adjusted* is false."""
    phase = measured.phases[0]
    setup = measured.setup_s if adjusted else measured.setup_raw_s
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (phase.ops_per_s(adjusted), "1/s"),
        "latency_p50_ms": (phase.latency_ms(0.5, adjusted), "ms"),
        "latency_p95_ms": (phase.latency_ms(0.95, adjusted), "ms"),
        "peak_rss_mb": (measured.maxrss_kb / 1024.0, "MB"),
    }


def by_type(measured: Measured) -> dict[str, tuple[float | None, str]]:
    """Latency by operation type, failures and shutdown: printed with the
    record on every run, ``None`` where the workload has no such op."""
    phase = measured.phases[0]
    out: dict[str, tuple[float | None, str]] = {}
    for kind in ("ask", "select", "write"):
        values = phase.latencies(kind)
        out[f"{kind}_p50_ms"] = (percentile(values, 0.5) if values
                                 else None, "ms")
        out[f"{kind}_p95_ms"] = (percentile(values, 0.95) if values
                                 else None, "ms")
    attempted = len(measured.outcomes)
    out["failed_share"] = (failed_count(measured) / attempted, "ratio")
    out["shutdown_s"] = (measured.shutdown["shutdown_s"]
                         if measured.shutdown else None, "s")
    return out


def failures_by_type(measured: Measured) -> dict[str, int]:
    failures: dict[str, int] = {}
    for outcome in measured.outcomes:
        if outcome.error is not None:
            name = error_name(outcome.error)
            failures[name] = failures.get(name, 0) + 1
    for kind, count in measured.wrong.items():
        failures[kind] = failures.get(kind, 0) + count
    return failures


def failed_count(measured: Measured) -> int:
    return sum(failures_by_type(measured).values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(measured: Measured) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the traced phase (``--trace 1``)."""
    plain, traced = measured.phases
    trace = measured.trace
    before, after = measured.counters
    ops = max(len(traced.outcomes), 1)
    total_s = traced.total_latency_s()
    kinds = [o.query.kind for o in traced.outcomes]
    asks, writes = kinds.count("ask"), max(kinds.count("write"), 1)
    groups, calls, counts = (trace["group_s"], trace["group_calls"],
                             trace["counts"])

    def per_op(group: str) -> float:
        return groups.get(group, 0.0) * 1000.0 / ops / traced.factor

    def delta(name: str) -> int:
        return after["cache"].get(name, 0) - before["cache"].get(name, 0)

    def hit_ratio(level: str) -> float:
        hits = delta(f"{level}.hit")
        return _ratio(hits, hits + delta(f"{level}.miss"))

    memo_hits = after["memo_hits"] - before["memo_hits"]
    memo_misses = after["memo_misses"] - before["memo_misses"]
    q_errors = trace["q_errors"]
    wire = measured.shutdown is not None
    tested = counts.get("inference.rules_tested", 0)
    fired = counts.get("inference.rules_fired", 0)
    metrics = {
        "sql.parse_ms": (per_op("sql.parse"), "ms/op"),
        "plan.plan_ms": (per_op("plan.plan"), "ms/op"),
        "plan.semantic_ms": (per_op("plan.semantic"), "ms/op"),
        "plan.q_error_p50": (percentile(q_errors, 0.5), "ratio"),
        "plan.q_error_p95": (percentile(q_errors, 0.95), "ratio"),
        "plan.exchange_plan_share": (_ratio(
            counts.get("exec.exchange_plans", 0),
            counts.get("exec.plans", 0)), "ratio"),
        "exec.execute_ms": (per_op("exec.execute"), "ms/op"),
        "exec.rows_scanned_per_row_returned": (_ratio(
            counts.get("exec.rows_scanned", 0),
            counts.get("exec.rows_returned", 0)), "rows/row"),
        "query.conditions_ms": (per_op("query.conditions"), "ms/op"),
        "inference.infer_ms": (per_op("inference.infer"), "ms/op"),
        "inference.forward_ms": (per_op("inference.forward"), "ms/op"),
        "inference.backward_ms": (per_op("inference.backward"), "ms/op"),
        "inference.rules_tested_per_ask": (_ratio(tested, asks), "count/ask"),
        "inference.rules_fired_per_ask": (_ratio(fired, asks), "count/ask"),
        "inference.fire_ratio": (_ratio(fired, tested), "ratio"),
        "inference.memo_hit_ratio": (_ratio(memo_hits,
                                            memo_hits + memo_misses),
                                     "ratio"),
        "cache.ask_hit_ratio": (hit_ratio("ask"), "ratio"),
        "cache.result_hit_ratio": (hit_ratio("result"), "ratio"),
        "cache.plan_hit_ratio": (hit_ratio("plan"), "ratio"),
        "cache.admit_ms": (per_op("cache.admit"), "ms/op"),
        "server.request_ms": (per_op("server.request"), "ms/op"),
        "server.wire_ms": ((total_s - measured.server_covered_s) * 1000.0
                           / ops / traced.factor if wire else 0.0, "ms/op"),
        "server.encode_ms": (per_op("server.encode"), "ms/op"),
        "server.decode_ms": (per_op("server.decode"), "ms/op"),
        "server.frames_encoded_per_request": (_ratio(
            counts.get("server.frames_encoded", 0),
            calls.get("server.request", 0)), "frames/req"),
        "server.lock_wait_ms": (per_op("server.lock"), "ms/op"),
        "server.threads_after_shutdown": (len(
            measured.shutdown["threads_after_shutdown"]) if wire else 0,
            "count"),
        "server.port_accepts_after_shutdown": (int(
            measured.shutdown["port_accepts_after_shutdown"]) if wire
            else 0, "count"),
        "storage.commit_ms": (groups.get("storage.commit", 0.0) * 1000.0
                              / writes / traced.factor, "ms/write"),
        "storage.fsyncs_per_write": (calls.get("storage.fsync", 0) / writes,
                                     "count/write"),
        "storage.wal_bytes_per_write": (counts.get("storage.wal_bytes", 0)
                                        / writes, "bytes/write"),
        "induction.induce_s": (statistics.median(measured.induce_s), "s"),
        "induction.rules": (measured.rules, "count"),
        "trace.unattributed_share": (_ratio(
            max(total_s - trace["covered_s"], 0.0), total_s), "ratio"),
        "trace.overhead_pct": ((plain.ops_per_s() / traced.ops_per_s()
                                - 1.0) * 100.0, "%"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (_ratio(
            trace["layer_self_s"].get(layer, 0.0), total_s), "ratio")
    return metrics


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    dropped = clear_knobs()
    n = max(40, round(OPS_PER_SECOND[arguments.workload] * arguments.seconds))
    runner = (run_wire_workload if arguments.workload == "paper_wire_mixed"
              else run_hospital)
    measured = runner(arguments, n)
    measured.environment["knobs_cleared"] = dropped

    attempted = len(measured.outcomes)
    failures = failures_by_type(measured)
    wrong = sum(measured.wrong.values())
    correct = wrong == 0 and not measured.paper_failures
    reported = per_layer(measured) if arguments.trace \
        else end_to_end(measured)
    statements = [o.query.sql for o in measured.outcomes
                  if o.query.kind != "write"]
    record = {
        "workload": arguments.workload,
        "operations": n,
        "attempted": attempted,
        "truncated": attempted < n,
        "repeated_statement_share": _ratio(
            len(statements) - len(set(statements)), len(statements)),
        "environment": measured.environment,
        "end_to_end": end_to_end(measured),
        "end_to_end_raw": end_to_end(measured, adjusted=False),
        "host_speed_factor": measured.phases[0].factor,
        "segments": measured.phases[0].segment_stats(),
        "by_type": by_type(measured),
        "failures_by_type": failures,
        "paper_answer_failures": measured.paper_failures,
        "setup_samples_s": measured.setup_s,
        "shutdown": measured.shutdown,
    }
    if arguments.trace:
        record["per_layer"] = reported
        record["largest_self_time_layer"] = max(
            LAYERS, key=lambda layer: reported[f"{layer}.self_share"][0])
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in sorted({**record["end_to_end"],
                                       **record["by_type"],
                                       **(reported if arguments.trace
                                          else {})}.items()):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
