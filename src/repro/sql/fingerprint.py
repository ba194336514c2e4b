"""SQL statement keys for the ask cache and the server's wire memo.

Two spellings of the same statement -- differing in case, whitespace,
comments, or a trailing semicolon -- should hit the same cache entry, so
the caches key on the statement's *tokens* rather than its raw text.
Literals are kept verbatim, exactly as the scanner delimited them
(quotes and backslash escapes included): plans and results are
literal-specific, so ``WHERE Label = 'G01'`` and ``WHERE Label =
'g01'`` must never collide, and neither may two literals that only
differ after an escaped quote (``'a\\' Typhoon'`` against ``'a\\'
TYPHOON'``).  Identifiers and keywords are case-folded.

The key comes from the same scan the parser consumes
(:class:`~repro.sql.parser.SqlSource`), so a statement is scanned once
per request, and a cache hit never builds the parser's token objects.
Re-scanning a key gives back the statement's tokens (identifiers
lowercased), so two statements share a key only when they lex the same
up to identifier case.  Parsed statements have their own
canonical spelling (``Statement.render()``), which the plan and result
caches key on.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["normalize_sql", "statement_key"]


def statement_key(folded: Sequence[str]) -> str:
    """The cache key of a scanned statement, from its token texts with
    identifiers and keywords lowercased
    (:meth:`~repro.langutil.scanner.Lexed.folded`): the texts joined by
    single spaces, trailing ``;`` tokens dropped."""
    end = len(folded)
    while end and folded[end - 1] == ";":
        end -= 1
    return " ".join(folded[:end])


def normalize_sql(text: str) -> str:
    """The :func:`statement_key` of *text* (raises
    :class:`~repro.errors.ParseError` where the scanner does)."""
    from repro.sql.parser import SqlSource
    return SqlSource(text).key
