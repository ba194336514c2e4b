"""A character-walking scanner: the test oracle for the regex scanner.

This is the scanner the package used before it moved to one compiled
master pattern (``repro.langutil.scanner``).  It is naive on purpose --
one character at a time, positions counted as it goes -- so the property
tests in ``test_scanner_oracle.py`` can compare the two token for token:
kind, text, value, line, column, and the message and position of every
lexical error.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ParseError
from repro.langutil.tokens import Token, TokenKind

_IDENT_START = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789-")
_DIGITS = set("0123456789")


class NaiveScanner:
    """Tokenize *text* into a list of :class:`Token`, one character at
    a time.

    Parameters
    ----------
    operators:
        Operator/punctuation spellings to recognize.
    ident_continue_dash:
        Whether ``-`` may appear inside identifiers.  The ship database
        uses identifiers like ``BQS-04`` and ``CLASS-0101`` (the paper
        writes sonar names unquoted in rules), so the KER scanner allows
        it; QUEL and SQL keep ``-`` as an operator.
    """

    def __init__(self, operators: Sequence[str],
                 ident_continue_dash: bool = False):
        self.operators = sorted(set(operators), key=len, reverse=True)
        self.ident_continue_dash = ident_continue_dash

    def scan(self, text: str) -> list[Token]:
        tokens: list[Token] = []
        line = 1
        column = 1
        i = 0
        n = len(text)

        def advance(count: int) -> None:
            nonlocal i, line, column
            for _ in range(count):
                if i < n and text[i] == "\n":
                    line += 1
                    column = 1
                else:
                    column += 1
                i += 1

        while i < n:
            ch = text[i]
            if ch in " \t\r\n":
                advance(1)
                continue
            if text.startswith("/*", i):
                end = text.find("*/", i + 2)
                if end < 0:
                    raise ParseError("unterminated comment", line, column)
                advance(end + 2 - i)
                continue
            if text.startswith("--", i):
                end = text.find("\n", i)
                advance((end if end >= 0 else n) - i)
                continue
            if ch in ('"', "'"):
                tokens.append(self._scan_string(text, i, line, column))
                advance(len(tokens[-1].text))
                continue
            if ch in _DIGITS or (
                    ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
                token = self._scan_number(text, i, line, column)
                tokens.append(token)
                advance(len(token.text))
                continue
            if ch in _IDENT_START:
                token = self._scan_ident(text, i, line, column)
                tokens.append(token)
                advance(len(token.text))
                continue
            op = next((op for op in self.operators
                       if text.startswith(op, i)), None)
            if op is not None:
                tokens.append(Token(TokenKind.OP, op, op, line, column))
                advance(len(op))
                continue
            raise ParseError(f"unexpected character {ch!r}", line, column)
        tokens.append(Token(TokenKind.EOF, "", None, line, column))
        return tokens

    def _scan_string(self, text: str, start: int, line: int,
                     column: int) -> Token:
        quote = text[start]
        i = start + 1
        out: list[str] = []
        while i < len(text):
            ch = text[i]
            if ch == "\\" and i + 1 < len(text):
                out.append(text[i + 1])
                i += 2
                continue
            if ch == quote:
                raw = text[start:i + 1]
                return Token(TokenKind.STRING, raw, "".join(out),
                             line, column)
            out.append(ch)
            i += 1
        raise ParseError("unterminated string literal", line, column)

    def _scan_number(self, text: str, start: int, line: int,
                     column: int) -> Token:
        i = start
        n = len(text)
        while i < n and text[i] in _DIGITS:
            i += 1
        is_real = False
        # A '..' after digits is a range operator, not a decimal point.
        if i < n and text[i] == "." and not text.startswith("..", i):
            if i + 1 < n and text[i + 1] in _DIGITS:
                is_real = True
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
        if i < n and text[i] in "eE":
            j = i + 1
            if j < n and text[j] in "+-":
                j += 1
            if j < n and text[j] in _DIGITS:
                is_real = True
                i = j
                while i < n and text[i] in _DIGITS:
                    i += 1
        raw = text[start:i]
        value = float(raw) if is_real else int(raw)
        return Token(TokenKind.NUMBER, raw, value, line, column)

    def _scan_ident(self, text: str, start: int, line: int,
                    column: int) -> Token:
        i = start + 1
        n = len(text)
        allowed = _IDENT_CONT if self.ident_continue_dash else (
            _IDENT_CONT - {"-"})
        while i < n and text[i] in allowed:
            i += 1
        # Identifiers never end with '-' (so `Class - 1` lexes sanely).
        while self.ident_continue_dash and text[i - 1] == "-":
            i -= 1
        raw = text[start:i]
        return Token(TokenKind.IDENT, raw, raw, line, column)
