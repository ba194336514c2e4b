"""The benchmark's server launcher for ``paper_wire_mixed``.

Run by ``run.py`` as a child process.  It builds the Appendix C ship
database, binds the KER schema, induces the rule base at n_c=3,
attaches WAL storage with the default ``fsync="commit"`` policy and
starts an ``IntensionalQueryServer`` on a free port -- ``--setups``
times, shutting down every server but the last in the background, so
set-up and shutdown times are medians (set-up times are also reported
adjusted for host speed, see ``speed.py``).  It then answers JSON-line
commands on stdin:

* ``{"cmd": "trace", "on": true|false}`` installs or removes the
  server-side timing wrappers (see ``tracing.py``);
* ``{"cmd": "snapshot"}`` reports wrapper totals, query-cache and
  inference-memo counters, server stats and the peak RSS;
* ``{"cmd": "shutdown"}`` shuts the server down as it is, measures how
  long that takes, which server threads are still alive afterwards and
  whether the port still accepts a connection, then exits.

Replies go to stdout, one JSON object per line; anything else the
program prints goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import socket
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402
from tracing import Recorder  # noqa: E402

SHIP_ORDER = ["SUBMARINE", "CLASS", "SONAR", "INSTALL"]
#: Thread-name prefixes of the server's own threads.
SERVER_THREADS = ("repro-server", "repro-session")


def build_server(data_dir: str):
    """One full set-up; returns ``(server, seconds, induce_seconds)``."""
    from repro.induction import InductionConfig, InductiveLearningSubsystem
    from repro.ker import SchemaBinding
    from repro.query import IntensionalQueryProcessor
    from repro.server.server import IntensionalQueryServer
    from repro.testbed import ship_database, ship_ker_schema

    start = time.perf_counter()
    database = ship_database()
    binding = SchemaBinding(ship_ker_schema(), database)
    induce_start = time.perf_counter()
    rules = InductiveLearningSubsystem(
        binding, InductionConfig(n_c=3), relation_order=SHIP_ORDER).induce()
    induce_s = time.perf_counter() - induce_start
    system = IntensionalQueryProcessor(database, rules, binding=binding)
    system.attach_storage(data_dir, fsync="commit")
    server = IntensionalQueryServer(system, port=0).start()
    return server, time.perf_counter() - start, induce_s


def server_threads(exclude=()) -> list[str]:
    return sorted(thread.name for thread in threading.enumerate()
                  if thread.name.startswith(SERVER_THREADS)
                  and thread not in exclude)


def port_accepts(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1.0):
            return True
    except OSError:
        return False


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setups", type=int, default=3)
    arguments = parser.parse_args()
    replies = sys.stdout
    sys.stdout = sys.stderr

    def reply(message: dict) -> None:
        replies.write(json.dumps(message) + "\n")
        replies.flush()

    setup_s, setup_raw_s, induce_s, shutdown_s = [], [], [], []
    retiring: list[threading.Thread] = []

    def retire(old) -> None:
        start = time.perf_counter()
        old.shutdown()
        shutdown_s.append(time.perf_counter() - start)

    server = baseline = None
    for index in range(arguments.setups):
        if server is not None:
            # Earlier servers shut down in the background: only their
            # set-up is wanted, and a shutdown takes a second.
            retiring.append(threading.Thread(target=retire, args=(server,)))
            retiring[-1].start()
        baseline = set(threading.enumerate())
        factor = speed.factor()
        server, seconds, induce = build_server(
            os.path.join(arguments.work_dir, f"data{index}"))
        setup_s.append(seconds / factor)
        setup_raw_s.append(seconds)
        induce_s.append(induce / factor)
    for thread in retiring:
        thread.join()
    system = server.system
    reply({"ready": True, "port": server.port, "setup_s": setup_s,
           "setup_raw_s": setup_raw_s, "induce_s": induce_s,
           "rules": len(system.rules),
           "shutdown_s": shutdown_s})

    from repro.cache.core import query_cache
    recorder = Recorder()
    for line in sys.stdin:
        command = json.loads(line)
        name = command.get("cmd")
        if name == "trace":
            if command.get("on"):
                recorder.install()
            else:
                recorder.uninstall()
            reply({"ok": True})
        elif name == "snapshot":
            with server.engine_lock:
                reply({"trace": recorder.snapshot(),
                       "cache": dict(query_cache(system.database).counters),
                       "memo_hits": system.engine.memo_hits,
                       "memo_misses": system.engine.memo_misses,
                       "stats": dict(server.stats),
                       "maxrss_kb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss})
        elif name == "shutdown":
            recorder.uninstall()
            port = server.port
            start = time.perf_counter()
            server.shutdown()
            shutdown_s.append(time.perf_counter() - start)
            alive = server_threads(exclude=baseline)
            reply({"shutdown_s": statistics.median(shutdown_s),
                   "shutdown_samples": shutdown_s,
                   "threads_after_shutdown": alive,
                   "port_accepts_after_shutdown": port_accepts(port)})
            break
    shutil.rmtree(arguments.work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
