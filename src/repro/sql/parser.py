"""Recursive-descent parser for the SQL SELECT subset.

The grammar mirrors the QUEL expression grammar (shared comparison and
arithmetic forms) with SQL statement syntax on top.  One quirk of the
paper is accommodated: Example 1 prints ``CLASS,DISPLACEMENT`` (a comma
where a dot was clearly intended); we do *not* accept that typo -- the
examples in this repository use the corrected ``CLASS.DISPLACEMENT``.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.langutil import Scanner, Token, TokenStream, TokenKind
from repro.sql import ast
from repro.sql.fingerprint import statement_key
from repro.relational.expressions import (
    And, Arithmetic, ColumnRef, Comparison, Expression, IsNull, Literal,
    Not, Or,
)

_OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">", "(", ")", ",", ".",
              "+", "-", "*", "/", ";")
_SCANNER = Scanner(operators=_OPERATORS)

_KEYWORDS = {
    "select", "distinct", "from", "where", "and", "or", "not", "as",
    "order", "by", "asc", "desc", "between", "in", "group",
    "count", "min", "max", "sum", "avg",
    "insert", "into", "values", "delete", "update", "set", "null", "is",
    "explain",
}

_COMPARISON_TOKENS = {"=": "=", "!=": "!=", "<>": "!=", "<": "<",
                      "<=": "<=", ">": ">", ">=": ">="}


class SqlSource:
    """One SQL statement's text, scanned once, and its cache key.

    :func:`parse_statement` and :func:`parse_select` parse
    :attr:`tokens`, and the ask cache and the server's wire memo key on
    :attr:`key` (:func:`~repro.sql.fingerprint.statement_key`), both
    from the one :meth:`~repro.langutil.scanner.Scanner.lex` pass, so
    no entry point scans or fingerprints a statement twice.  The token
    objects are only built when the statement is parsed.
    """

    __slots__ = ("text", "key", "_lexed")

    def __init__(self, text: str):
        self.text = text
        self._lexed = _SCANNER.lex(text)
        self.key = statement_key(self._lexed.folded())

    @property
    def tokens(self) -> list[Token]:
        return self._lexed.tokens()


def _tokens(source: "str | SqlSource") -> list[Token]:
    if isinstance(source, SqlSource):
        return source.tokens
    return _SCANNER.scan(source)


def parse_select(source: "str | SqlSource") -> ast.SelectStmt:
    """Parse one SELECT statement (trailing ``;`` allowed)."""
    tokens = _tokens(source)
    statement = _statement(TokenStream(tokens))
    if not isinstance(statement, ast.SelectStmt):
        TokenStream(tokens).fail("expected a SELECT statement")
    return statement


def parse_statement(source: "str | SqlSource"
                    ) -> "ast.SelectStmt | ast.InsertStmt | " \
                         "ast.DeleteStmt | ast.UpdateStmt | ast.ExplainStmt":
    """Parse one SQL statement: SELECT, INSERT, DELETE, UPDATE, or
    EXPLAIN SELECT."""
    return _statement(TokenStream(_tokens(source)))


def _statement(stream: TokenStream):
    if stream.at_keyword("select"):
        statement = _select(stream)
    elif stream.accept_keyword("explain"):
        # ANALYZE is contextual (not reserved): it only means something
        # directly after EXPLAIN, so columns named "analyze" stay legal.
        analyze = (stream.current.kind is TokenKind.IDENT
                   and stream.current.text.lower() == "analyze")
        if analyze:
            stream.advance()
        statement = ast.ExplainStmt(_select(stream), analyze=analyze)
    elif stream.at_keyword("insert"):
        statement = _insert(stream)
    elif stream.at_keyword("delete"):
        statement = _delete(stream)
    elif stream.at_keyword("update"):
        statement = _update(stream)
    else:
        stream.fail("expected SELECT, EXPLAIN, INSERT, DELETE or UPDATE")
        raise AssertionError("unreachable")
    stream.accept_op(";")
    if not stream.at_end():
        stream.fail("unexpected trailing input after the statement")
    return statement


def _insert(stream: TokenStream) -> ast.InsertStmt:
    stream.expect_keyword("insert")
    stream.expect_keyword("into")
    table = stream.expect_ident("relation name").text
    columns = None
    if stream.accept_op("("):
        columns = [stream.expect_ident("column name").text]
        while stream.accept_op(","):
            columns.append(stream.expect_ident("column name").text)
        stream.expect_op(")")
    stream.expect_keyword("values")
    rows = [_value_row(stream)]
    while stream.accept_op(","):
        rows.append(_value_row(stream))
    return ast.InsertStmt(table, columns, rows)


def _value_row(stream: TokenStream) -> list[Expression]:
    stream.expect_op("(")
    cells = [_value_expression(stream)]
    while stream.accept_op(","):
        cells.append(_value_expression(stream))
    stream.expect_op(")")
    return cells


def _value_expression(stream: TokenStream) -> Expression:
    if stream.accept_keyword("null"):
        return Literal(None)
    return _expression(stream)


def _delete(stream: TokenStream) -> ast.DeleteStmt:
    stream.expect_keyword("delete")
    stream.expect_keyword("from")
    table = stream.expect_ident("relation name").text
    where = None
    if stream.accept_keyword("where"):
        where = _qualification(stream)
    return ast.DeleteStmt(table, where)


def _update(stream: TokenStream) -> ast.UpdateStmt:
    stream.expect_keyword("update")
    table = stream.expect_ident("relation name").text
    stream.expect_keyword("set")
    assignments = [_assignment(stream)]
    while stream.accept_op(","):
        assignments.append(_assignment(stream))
    where = None
    if stream.accept_keyword("where"):
        where = _qualification(stream)
    return ast.UpdateStmt(table, assignments, where)


def _assignment(stream: TokenStream) -> tuple[str, Expression]:
    name = stream.expect_ident("column name").text
    stream.expect_op("=")
    return name, _value_expression(stream)


def _select(stream: TokenStream) -> ast.SelectStmt:
    stream.expect_keyword("select")
    distinct = stream.accept_keyword("distinct")
    star = False
    items: list[ast.SelectItem] = []
    if stream.accept_op("*"):
        star = True
    else:
        items.append(_select_item(stream))
        while stream.accept_op(","):
            items.append(_select_item(stream))
    stream.expect_keyword("from")
    tables = [_table_ref(stream)]
    while stream.accept_op(","):
        tables.append(_table_ref(stream))
    where = None
    if stream.accept_keyword("where"):
        where = _qualification(stream)
    group_by: list[Expression] = []
    if stream.accept_keyword("group"):
        stream.expect_keyword("by")
        group_by.append(_expression(stream))
        while stream.accept_op(","):
            group_by.append(_expression(stream))
    order_by: list[Expression] = []
    if stream.accept_keyword("order"):
        stream.expect_keyword("by")
        order_by.append(_expression(stream))
        stream.accept_keyword("asc")
        while stream.accept_op(","):
            order_by.append(_expression(stream))
            stream.accept_keyword("asc")
    return ast.SelectStmt(items, tables, where=where, distinct=distinct,
                          star=star, order_by=order_by, group_by=group_by)


def _select_item(stream: TokenStream) -> ast.SelectItem:
    if (stream.current.kind is TokenKind.IDENT
            and stream.current.text.lower() in ast.AggregateCall.OPS
            and stream.peek().is_op("(")):
        expression = _aggregate_call(stream)
    else:
        expression = _expression(stream)
    alias = None
    if stream.accept_keyword("as"):
        alias = stream.expect_ident("output column alias").text
    elif (stream.current.kind is TokenKind.IDENT
          and stream.current.text.lower() not in _KEYWORDS):
        alias = stream.advance().text
    return ast.SelectItem(expression, alias)


def _aggregate_call(stream: TokenStream) -> ast.AggregateCall:
    op = stream.advance().text.lower()
    stream.expect_op("(")
    if stream.accept_op("*"):
        if op != "count":
            stream.fail(f"{op.upper()}(*) is not valid; only COUNT(*)")
        stream.expect_op(")")
        return ast.AggregateCall(op, None)
    distinct = stream.accept_keyword("distinct")
    operand = _expression(stream)
    stream.expect_op(")")
    return ast.AggregateCall(op, operand, distinct=distinct)


def _table_ref(stream: TokenStream) -> ast.TableRef:
    name = stream.expect_ident("relation name").text
    alias = None
    if (stream.current.kind is TokenKind.IDENT
            and stream.current.text.lower() not in _KEYWORDS):
        alias = stream.advance().text
    return ast.TableRef(name, alias)


def _qualification(stream: TokenStream) -> Expression:
    parts = [_and_term(stream)]
    while stream.accept_keyword("or"):
        parts.append(_and_term(stream))
    return parts[0] if len(parts) == 1 else Or(parts)


def _and_term(stream: TokenStream) -> Expression:
    parts = [_not_term(stream)]
    while stream.accept_keyword("and"):
        parts.append(_not_term(stream))
    return parts[0] if len(parts) == 1 else And(parts)


def _not_term(stream: TokenStream) -> Expression:
    if stream.accept_keyword("not"):
        return Not(_not_term(stream))
    if stream.at_op("("):
        saved = stream._index
        try:
            stream.expect_op("(")
            inner = _qualification(stream)
            stream.expect_op(")")
        except ParseError:
            stream._index = saved
        else:
            follows_comparison = (
                stream.current.kind is TokenKind.OP
                and stream.current.text in _COMPARISON_TOKENS)
            if follows_comparison:
                stream._index = saved
            else:
                return inner
    return _comparison(stream)


def _comparison(stream: TokenStream) -> Expression:
    left = _expression(stream)
    if stream.accept_keyword("is"):
        negated = stream.accept_keyword("not")
        stream.expect_keyword("null")
        return IsNull(left, negated=negated)
    if stream.accept_keyword("between"):
        low = _expression(stream)
        stream.expect_keyword("and")
        high = _expression(stream)
        return And([Comparison(">=", left, low),
                    Comparison("<=", left, high)])
    if stream.accept_keyword("in"):
        stream.expect_op("(")
        options = [_expression(stream)]
        while stream.accept_op(","):
            options.append(_expression(stream))
        stream.expect_op(")")
        return Or([Comparison("=", left, option) for option in options])
    token = stream.current
    if token.kind is not TokenKind.OP or (
            token.text not in _COMPARISON_TOKENS):
        stream.fail("expected a comparison operator")
    stream.advance()
    return Comparison(_COMPARISON_TOKENS[token.text], left,
                      _expression(stream))


def _expression(stream: TokenStream) -> Expression:
    left = _term(stream)
    while stream.at_op("+", "-"):
        op = stream.advance().text
        left = Arithmetic(op, left, _term(stream))
    return left


def _term(stream: TokenStream) -> Expression:
    left = _factor(stream)
    while stream.at_op("*", "/"):
        op = stream.advance().text
        left = Arithmetic(op, left, _factor(stream))
    return left


def _factor(stream: TokenStream) -> Expression:
    token = stream.current
    if stream.accept_op("-"):
        operand = _factor(stream)
        if isinstance(operand, Literal) and isinstance(
                operand.value, (int, float)):
            return Literal(-operand.value)
        return Arithmetic("-", Literal(0), operand)
    if token.kind is TokenKind.NUMBER:
        stream.advance()
        return Literal(token.value)
    if token.kind is TokenKind.STRING:
        stream.advance()
        return Literal(token.value)
    if stream.accept_op("("):
        inner = _expression(stream)
        stream.expect_op(")")
        return inner
    if token.kind is TokenKind.IDENT:
        if token.text.lower() in _KEYWORDS:
            stream.fail(f"unexpected keyword {token.text!r} in expression")
        stream.advance()
        if stream.accept_op("."):
            column = stream.expect_ident("column name").text
            return ColumnRef(column, qualifier=token.text)
        return ColumnRef(token.text)
    stream.fail("expected an expression")
    raise AssertionError("unreachable")
