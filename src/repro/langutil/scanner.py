"""A small configurable scanner plus a pull-style token stream.

The scanner recognizes identifiers, numbers, single- or double-quoted
strings, C-style ``/* ... */`` comments, ``--``-to-end-of-line comments,
and a configurable operator set (longest match first).  All three query
languages in the package are lexically in this family; each parser
instantiates the scanner with its own operator table.

Each scanner compiles one master regular expression: an alternation of
groups tried in a fixed order, ending in catch-all groups for the three
lexical errors (an unterminated comment or string, a stray character),
so its matches cover the input without gaps and the first error met
left to right is the one raised.  Character classes are spelled out in
ASCII: a non-ASCII letter or digit is an unexpected character, never
part of a token.

:meth:`Scanner.lex` is the one pass of that pattern over a text.  Its
:class:`Lexed` result gives the token spellings cheaply (a cache key
needs nothing more) and builds the :class:`Token` objects, with their
line and column, only when a parser asks for them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Sequence

from repro.errors import ParseError
from repro.langutil.tokens import Token, TokenKind

#: Operators shared by QUEL/SQL/KER (order irrelevant; matching sorts by
#: length so multi-character operators win).
DEFAULT_OPERATORS = (
    "<=", ">=", "!=", "<>", "=", "<", ">", "(", ")", ",", ".", "*", "+",
    "-", "/", "[", "]", "{", "}", ":", ";", "..",
)

_LAYOUT = r"[ \t\r\n]"
_NUMBER = r"(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_STRING = r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*\""""
#: Identifiers never end with '-' (so ``Class - 1`` lexes sanely).
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_DASH_IDENT = r"[A-Za-z_](?:[A-Za-z0-9_-]*[A-Za-z0-9_])?"
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_NEWLINE = re.compile("\n")

_IDENT_KIND = TokenKind.IDENT
_NUMBER_KIND = TokenKind.NUMBER
_STRING_KIND = TokenKind.STRING
_OP_KIND = TokenKind.OP


def _master_pattern(operators: Sequence[str], dash: bool) -> re.Pattern:
    # One match per token, nine groups: the layout before it, then
    # exactly one of ident, skip (a comment, or the end of the text),
    # number, unterminated comment, operator, string, unterminated
    # string, stray character.  Layout is the prefix of every match,
    # not a token of its own; after it comes either a character some
    # alternative takes (the last takes any other) or the end, so the
    # prefix is never backtracked into.  The first character decides
    # between the alternatives, except where an operator is a prefix of
    # something else (``/*``, ``--``, ``.5``): those come first.
    ops = "|".join(re.escape(op) for op in operators) or "(?!)"
    return re.compile(
        rf"({_LAYOUT}*)(?:({_DASH_IDENT if dash else _IDENT})"
        r"|(/\*.*?\*/|--[^\n]*|\Z)"
        rf"|({_NUMBER})"
        r"|(/\*)"
        rf"|({ops})"
        rf"|({_STRING})"
        r"|(['\"])"
        r"|([^ \t\r\n]))",
        re.DOTALL)


class Lexed:
    """One pass of a scanner's master pattern over *text*."""

    __slots__ = ("text", "_matches", "_tokens")

    def __init__(self, text: str, matches: list[tuple[str, ...]]):
        self.text = text
        self._matches = matches
        self._tokens: list[Token] | None = None

    def folded(self) -> list[str]:
        """Each token's text as scanned, identifiers and keywords
        lowercased (all three languages match them case-insensitively).
        Raises the :class:`ParseError` :meth:`tokens` raises."""
        texts: list[str] = []
        append = texts.append
        for (_layout, ident, _skip, number, opencomment, op, string,
             openstring, bad) in self._matches:
            if ident:
                append(ident.lower())
            elif op or number or string:
                append(op or number or string)
            elif opencomment or openstring or bad:
                self.tokens()
        return texts

    def tokens(self) -> list[Token]:
        """The tokens, ending in an EOF token, with 1-based positions;
        built on the first call."""
        if self._tokens is None:
            self._tokens = self._build()
        return self._tokens

    def _build(self) -> list[Token]:
        text = self.text
        # Line starts, only for text that has more than one line: the
        # position of a token is derived from its offset.
        starts = ([0] + [m.end() for m in _NEWLINE.finditer(text)]
                  if "\n" in text else None)
        tokens: list[Token] = []
        append = tokens.append
        offset = 0
        for (layout, ident, skip, number, opencomment, op, string,
             openstring, bad) in self._matches:
            offset += len(layout)
            if ident:
                kind, raw, value = _IDENT_KIND, ident, ident
            elif op:
                kind, raw, value = _OP_KIND, op, op
            elif number:
                kind, raw = _NUMBER_KIND, number
                value = int(raw) if raw.isdigit() else float(raw)
            elif string:
                kind, raw, value = _STRING_KIND, string, string[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(r"\1", value)
            elif opencomment or openstring or bad:
                kind, raw, value = None, opencomment or openstring or bad, None
            else:
                offset += len(skip)
                continue
            if starts is None:
                line, column = 1, offset + 1
            else:
                line = bisect_right(starts, offset)
                column = offset - starts[line - 1] + 1
            if kind is None:
                message = ("unterminated comment" if opencomment else
                           "unterminated string literal" if openstring
                           else f"unexpected character {raw!r}")
                raise ParseError(message, line, column)
            append(Token(kind, raw, value, line, column))
            offset += len(raw)
        if starts is None:
            line, column = 1, offset + 1
        else:
            line, column = len(starts), offset - starts[-1] + 1
        append(Token(TokenKind.EOF, "", None, line, column))
        return tokens


class Scanner:
    """Tokenize *text* into a list of :class:`Token`.

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

    def __init__(self, operators: Sequence[str] = DEFAULT_OPERATORS,
                 ident_continue_dash: bool = False):
        self.operators = sorted(set(operators), key=len, reverse=True)
        self.ident_continue_dash = ident_continue_dash
        self._pattern = _master_pattern(self.operators, ident_continue_dash)

    def lex(self, text: str) -> Lexed:
        """The one pass of the master pattern over *text*."""
        return Lexed(text, self._pattern.findall(text))

    def scan(self, text: str) -> list[Token]:
        return self.lex(text).tokens()


class TokenStream:
    """Pull-style cursor over a token list with parser conveniences.

    A list is used as is (never copied or modified), so one scan can
    feed any number of streams.
    """

    def __init__(self, tokens: Sequence[Token]):
        self._tokens = tokens if isinstance(tokens, list) else list(tokens)
        self._index = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def peek(self, offset: int = 1) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self._tokens[self._index]
        return token.kind is _IDENT_KIND and token.text.lower() in words

    def accept_keyword(self, word: str) -> bool:
        token = self._tokens[self._index]
        if token.kind is _IDENT_KIND and token.text.lower() == word:
            self._index += 1
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        if not self.current.is_keyword(word):
            self.fail(f"expected keyword {word!r}")
        return self.advance()

    def at_op(self, *ops: str) -> bool:
        token = self._tokens[self._index]
        return token.kind is _OP_KIND and token.text in ops

    def accept_op(self, op: str) -> bool:
        token = self._tokens[self._index]
        if token.kind is _OP_KIND and token.text == op:
            self._index += 1
            return True
        return False

    def expect_op(self, op: str) -> Token:
        if not self.current.is_op(op):
            self.fail(f"expected {op!r}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        if self.current.kind is not TokenKind.IDENT:
            self.fail(f"expected {what}")
        return self.advance()

    def at_end(self) -> bool:
        return self.current.kind is TokenKind.EOF

    def fail(self, message: str) -> None:
        token = self.current
        shown = token.text or "<eof>"
        raise ParseError(f"{message}, found {shown!r}",
                         token.line, token.column)
