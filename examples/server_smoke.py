#!/usr/bin/env python
"""Server smoke test: boot ``repro-server`` as a real subprocess, walk
one client through the whole protocol surface, and check graceful
shutdown -- the script CI runs to prove the shipped entry points work
outside the test harness.

The walk covers every request family once: ping, admin introspection,
plain SQL, an intensional ``ask``, and a transaction that is rolled
back followed by one that commits (with visibility checked after
each), then a SIGTERM that must drain the connection cleanly.  On the
way it checks the wire memo's key: a case- and whitespace-variant of a
SELECT already sent is a memo hit, and two literals that differ only
after a backslash-escaped quote get their own rows.

Run:  python examples/server_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile

from repro.server.client import Client


def boot(data_dir: str | None) -> tuple[subprocess.Popen, int]:
    """Start ``python -m repro.server`` on a free port (durable when
    *data_dir* is given) and return the process plus the port it
    announced."""
    command = [sys.executable, "-m", "repro.server", "--port", "0",
               "--lock-timeout", "2"]
    if data_dir is not None:
        command += ["--data-dir", data_dir]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
    while True:
        line = process.stdout.readline()
        if not line:
            raise SystemExit("server exited before announcing its port")
        sys.stdout.write(line)
        match = re.search(r"listening on \S+:(\d+)", line)
        if match:
            return process, int(match.group(1))


def memo_hits(client: Client) -> int:
    return json.loads(client.admin("status"))["stats"]["memo_hits_total"]


def check_memo_keys(client: Client) -> None:
    """Spelling variants share a memo entry; distinct literals never
    do."""
    rows = client.sql("SELECT Name, Class FROM SUBMARINE "
                      "WHERE Class = '1301'")
    hits = memo_hits(client)
    again = client.sql("select  name,class\n  FROM submarine\t"
                       "where CLASS = '1301' ;")
    assert memo_hits(client) == hits + 1, "variant missed the memo"
    assert again.rows == rows.rows, "variant returned other rows"
    print("wire memo: case/whitespace variant served from memo")

    client.sql("INSERT INTO SUBMARINE VALUES "
               "('998', 'a\\' Typhoon', '1301')")
    query = "SELECT Id FROM SUBMARINE WHERE Name = 'a\\' {}'"
    first = client.sql(query.format("Typhoon"))
    second = client.sql(query.format("TYPHOON"))
    assert first.rows == [("998",)], first.rows
    assert second.rows == [], "escaped-quote literals shared a memo key"
    client.sql("DELETE FROM SUBMARINE WHERE Id = '998'")
    print("wire memo: escaped-quote literals keep their own rows")


def stop(process: subprocess.Popen) -> None:
    """SIGTERM, then require a clean exit after a graceful drain."""
    process.terminate()
    output, _ = process.communicate(timeout=30)
    sys.stdout.write(output)
    assert process.returncode == 0, \
        f"server exited with {process.returncode}"
    assert "server stopped" in output, "no graceful shutdown"


def main() -> int:
    # The memo checks write, and with storage attached a write leaves
    # the rule base stale, which turns the memo off; an in-memory
    # server keeps it serving.
    process, port = boot(None)
    try:
        with Client("127.0.0.1", port) as client:
            check_memo_keys(client)
        stop(process)
    finally:
        if process.poll() is None:
            process.kill()
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as data_dir:
        process, port = boot(data_dir)
        try:
            with Client("127.0.0.1", port) as client:
                assert client.ping(), "ping did not pong"
                print(f"connected as session {client.session}")

                tables = client.admin("tables")
                assert "SUBMARINE" in tables, tables
                print(client.admin("sessions"))

                rows = client.sql("SELECT Name, Class FROM SUBMARINE "
                                  "WHERE Class = '1301'")
                assert len(rows) > 0, "expected some 1301-class boats"
                print(f"extensional: {len(rows)} rows")

                reply = client.ask("SELECT Class FROM CLASS "
                                   "WHERE Displacement > 8000")
                assert reply.intensional, "expected an intensional answer"
                print("intensional:", reply.intensional[0])

                before = len(client.sql("SELECT Id FROM SUBMARINE"))
                client.begin()
                client.sql("INSERT INTO SUBMARINE VALUES "
                           "('999', 'Smoke', '1301')")
                client.rollback()
                after = len(client.sql("SELECT Id FROM SUBMARINE"))
                assert after == before, "rollback leaked a row"
                print("rollback: row discarded")

                client.begin()
                client.sql("INSERT INTO SUBMARINE VALUES "
                           "('999', 'Smoke', '1301')")
                client.commit()
                after = len(client.sql("SELECT Id FROM SUBMARINE"))
                assert after == before + 1, "commit lost the row"
                print("commit: row durable")

            stop(process)
        finally:
            if process.poll() is None:
                process.kill()
    print("server smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
