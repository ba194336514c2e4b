"""The regex scanner against the character-walking oracle.

For every operator table the package scans with (SQL, QUEL, KER with
``-`` inside identifiers, and the default table both ways), both
scanners must produce the same tokens -- kind, text, value (and its
type), line, column -- or fail with the same message at the same
position.  ``Lexed.folded()``, which cache keys are built from, must
give the oracle's token texts with identifiers lowercased, or the same
error.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.ker import ddl
from repro.langutil import Scanner, TokenKind
from repro.quel import parser as quel_parser
from repro.sql import parser as sql_parser
from tests.langutil.naive_scanner import NaiveScanner

SCANNERS = {
    "sql": sql_parser._SCANNER,
    "quel": quel_parser._SCANNER,
    "ker": ddl._SCANNER,
    "default": Scanner(),
    "default-dash": Scanner(ident_continue_dash=True),
}

#: Pieces that meet at every lexical boundary the scanners decide on.
FRAGMENTS = (
    # identifiers and keywords, dashed names, case
    "a", "Name", "SELECT", "from", "_x1", "BQS-04", "CLASS-0101", "e", "E",
    # digits, decimal points, ranges, exponents
    "0", "7", "42", "3.5", ".", "..", "...", "e5", "E-2", "e+", "1e",
    # quotes, backslashes, escapes
    "'", '"', "\\", "\\'", '\\"', "''", "'abc'", '"x y"',
    # layout: spaces, tabs, carriage returns, newlines
    " ", "  ", "\t", "\r", "\n", "\r\n",
    # comments
    "--", "/*", "*/", "/", "*", "-- note\n", "/* a\nb */",
    # operators of every table
    "<=", ">=", "!=", "<>", "=", "<", ">", "(", ")", ",", "+", "-", ";",
    "[", "]", "{", "}", ":",
    # characters no table accepts: non-ASCII letters and digits, others
    "é", "ß", "Ж", "٣", "３", "²", "@", "#", "\x0b", "\f", "\x00",
)

texts = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join),
    st.text(alphabet=st.sampled_from(
        "aZ_09.eE+-'\"\\ \n\t\r/*<>=!()[]{}:;,é٣"), max_size=40),
    st.text(max_size=20),
)


def outcome(scanner, text):
    try:
        tokens = scanner.scan(text)
    except ParseError as error:
        return ("error", str(error), error.line, error.column)
    return [(token.kind, token.text, token.value, type(token.value),
             token.line, token.column) for token in tokens]


def oracle(scanner):
    return NaiveScanner(scanner.operators, scanner.ident_continue_dash)


def folded(scanner, text):
    """``Lexed.folded()``, or the error it raises."""
    try:
        return scanner.lex(text).folded()
    except ParseError as error:
        return ("error", str(error), error.line, error.column)


def oracle_folded(scanner, text):
    expected = outcome(oracle(scanner), text)
    if isinstance(expected, tuple):
        return expected
    return [spelled.lower() if kind is TokenKind.IDENT else spelled
            for kind, spelled, *_rest in expected[:-1]]


@pytest.mark.parametrize("name", sorted(SCANNERS))
@settings(max_examples=300, deadline=None)
@given(text=texts)
def test_regex_scanner_matches_oracle(name, text):
    scanner = SCANNERS[name]
    assert outcome(scanner, text) == outcome(oracle(scanner), text)
    assert folded(scanner, text) == oracle_folded(scanner, text)


CASES = (
    "SELECT P.Name FROM PATIENT P WHERE P.Id >= 10 AND P.Ward = 'W-1';",
    "'multi\nline\nliteral' x\n  y",
    "/* a\ncomment\n*/ after -- eol\nnext",
    "x = 'a\\' Typhoon' AND y = \"b\\\"c\"",
    "[0..200] 1..2 1.5.3 .5e3 1e 1e+ 2.5E-2 1.e5",
    "BQS-04 BQS--x Class - 1 A-- tail",
    "'never closed\nover lines",
    "a\n\n  /* never closed",
    "ok\n  é",
    "ok ٣",
    "",
    "\n",
)


@pytest.mark.parametrize("name", sorted(SCANNERS))
@pytest.mark.parametrize("text", CASES)
def test_fixed_cases_match_oracle(name, text):
    scanner = SCANNERS[name]
    assert outcome(scanner, text) == outcome(oracle(scanner), text)
    assert folded(scanner, text) == oracle_folded(scanner, text)


def test_positions_after_newlines_in_strings_and_comments():
    tokens = Scanner().scan("'a\nb' /* c\n\nd */ x\n  -- e\n   y")
    assert [(t.text, t.line, t.column) for t in tokens] == [
        ("'a\nb'", 1, 1), ("x", 4, 6), ("y", 6, 4), ("", 6, 5)]


def test_non_ascii_digit_and_letter_are_unexpected():
    with pytest.raises(ParseError, match="line 1, col 3: unexpected "
                                         "character '٣'"):
        Scanner().scan("1 ٣")
    with pytest.raises(ParseError, match="line 2, col 2: unexpected "
                                         "character 'é'"):
        Scanner().scan("a\nbé")


@pytest.mark.parametrize("tail", [" " * 200_000, "\n" * 200_000,
                                  "-" * 200_000])
def test_long_runs_scan_in_linear_time(tail):
    # Layout is a prefix of every token: a run of it the pattern had to
    # backtrack into would cost time quadratic in its length.
    start = time.perf_counter()
    tokens = SCANNERS["ker"].scan("a" + tail)
    assert tokens[0].text == "a" and tokens[-1].text == ""
    assert time.perf_counter() - start < 2.0
