"""Each statement is scanned once, and its cache key comes from that scan.

``Scanner.lex`` is the scanner's one pass over a text (``Scanner.scan``
goes through it too), so counting its calls counts scans.

The ask cache and the server's wire memo key on the statement's tokens
(``repro.sql.fingerprint.statement_key``).  Two literals that differ
only after a backslash-escaped quote must get different keys -- the
character-loop fingerprint this replaced ignored backslashes and served
one statement's cached answer for the other.
"""

import pytest

from repro.langutil import Scanner
from repro.langutil.scanner import Lexed
from repro.query import IntensionalQueryProcessor
from repro.server import IntensionalQueryServer
from repro.server.client import Client
from repro.sql import execute_sql, execute_statement
from repro.testbed import ship_database, ship_ker_schema

INSERT = ("INSERT INTO SUBMARINE VALUES "
          "('SSN999', 'a\\' Typhoon', '0101')")
Q1 = ("SELECT SUBMARINE.ID FROM SUBMARINE "
      "WHERE SUBMARINE.NAME = 'a\\' Typhoon'")
Q2 = Q1.replace("Typhoon", "TYPHOON")
SELECT = ("SELECT SUBMARINE.NAME FROM SUBMARINE, CLASS "
          "WHERE SUBMARINE.CLASS = CLASS.CLASS "
          "AND CLASS.DISPLACEMENT > 8000")


def _ship_system():
    return IntensionalQueryProcessor.from_database(
        ship_database(), ker_schema=ship_ker_schema(),
        relation_order=["SUBMARINE", "CLASS", "SONAR", "INSTALL"])


@pytest.fixture()
def scans(monkeypatch):
    """Counts scans (``Scanner.lex`` calls), from any thread."""
    calls = []
    lex = Scanner.lex

    def counted(self, text):
        calls.append(text)
        return lex(self, text)

    monkeypatch.setattr(Scanner, "lex", counted)
    return calls


@pytest.fixture()
def token_builds(monkeypatch):
    """Counts the token lists built from scans."""
    calls = []
    build = Lexed._build

    def counted(self):
        calls.append(self.text)
        return build(self)

    monkeypatch.setattr(Lexed, "_build", counted)
    return calls


@pytest.fixture()
def server():
    with IntensionalQueryServer(_ship_system(),
                                lock_timeout_s=0.3) as live:
        yield live


class TestEscapedQuoteFingerprint:
    def test_in_process_ask(self):
        system = _ship_system()
        execute_statement(system.database, INSERT)
        assert system.ask(Q1).extensional.rows == [("SSN999",)]
        # A shared key would serve Q1's cached answer here.
        assert system.ask(Q2).extensional.rows == []
        assert execute_sql(system.database, Q2).rows == []

    def test_wire_memo(self, server):
        with Client("127.0.0.1", server.port) as client:
            client.sql(INSERT)
            assert client.ask(Q1).extensional.rows == [("SSN999",)]
            assert client.ask(Q2).extensional.rows == []
            assert client.sql(Q1).rows == [("SSN999",)]
            assert client.sql(Q2).rows == []

    def test_spelling_variants_still_share_the_memo(self, server):
        with Client("127.0.0.1", server.port) as client:
            first = client.sql(SELECT)
            before = server.stats["requests_total"]
            memo = len(server._wire_memo)
            again = client.sql("  select submarine.name FROM submarine,"
                               " class\n WHERE submarine.class = "
                               "class.class AND class.displacement > "
                               "8000 ;")
            assert again.rows == first.rows
            assert server.stats["requests_total"] == before + 1
            assert len(server._wire_memo) == memo


class TestOneScanPerStatement:
    def test_uncached_ask(self, scans):
        system = _ship_system()
        del scans[:]
        system.ask(SELECT)
        assert scans == [SELECT]

    def test_cached_ask_builds_no_tokens(self, scans, token_builds):
        system = _ship_system()
        system.ask(SELECT)
        del scans[:], token_builds[:]
        system.ask(SELECT.lower())
        assert scans == [SELECT.lower()]
        assert token_builds == []

    def test_execute_sql(self, scans):
        database = ship_database()
        del scans[:]
        execute_sql(database, SELECT)
        assert scans == [SELECT]

    def test_execute_statement_write(self, scans):
        database = ship_database()
        del scans[:]
        execute_statement(database, INSERT)
        assert scans == [INSERT]

    @pytest.mark.parametrize("op, text", [("ask", SELECT),
                                          ("sql", SELECT),
                                          ("sql", INSERT)])
    def test_wire_statement(self, server, scans, op, text):
        with Client("127.0.0.1", server.port) as client:
            del scans[:]
            getattr(client, op)(text)
        assert scans == [text]
