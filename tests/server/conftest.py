"""Lifecycle checks shared by every server test.

A clean shutdown leaves nothing behind: no server thread and no
listening socket survives it.  Every
:meth:`IntensionalQueryServer.shutdown` call a test in this directory
makes is checked on the spot -- the server's accept, reaper and session
threads have exited and its port refuses new connections -- and when a
test module finishes no ``repro-server-*`` or ``repro-session-*``
thread may still be alive.  The shared worker pool's ``repro-worker-*``
threads are process-wide by design and are not server state.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.server import IntensionalQueryServer

SERVER_THREAD_PREFIXES = ("repro-server-", "repro-session-")


def live_server_threads() -> list[str]:
    return sorted(thread.name for thread in threading.enumerate()
                  if thread.name.startswith(SERVER_THREAD_PREFIXES))


def port_refuses(host: str, port: int) -> bool:
    """Whether a TCP connection to ``host:port`` is refused."""
    try:
        probe = socket.create_connection((host, port), timeout=1.0)
    except OSError:
        return True
    probe.close()
    return False


@pytest.fixture(scope="module", autouse=True)
def shutdown_failures():
    """Patch ``shutdown`` for the module so every call is verified;
    yields the list of failures found so far."""
    failures: list[str] = []
    original = IntensionalQueryServer.shutdown

    def checked_shutdown(self, *args, **kwargs):
        if self._listener is None:
            return original(self, *args, **kwargs)
        host, port = self.host, self.port
        threads = [thread for thread in (self._accept_thread,
                                         self._reaper_thread)
                   if thread is not None]
        threads += [thread for _session, thread in
                    list(self._sessions.values())]
        original(self, *args, **kwargs)
        alive = [thread.name for thread in threads if thread.is_alive()]
        if alive:
            failures.append(f"{host}:{port}: threads alive after "
                            f"shutdown: {alive}")
        if not port_refuses(host, port):
            failures.append(f"{host}:{port}: port still accepts "
                            f"connections after shutdown")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IntensionalQueryServer, "shutdown", checked_shutdown)
        yield failures
    assert not failures
    assert live_server_threads() == []


@pytest.fixture(autouse=True)
def clean_shutdowns(shutdown_failures):
    """Fail the test whose own shutdown left something behind."""
    yield
    found = list(shutdown_failures)
    shutdown_failures.clear()
    assert not found
