"""The predicate compiler must be semantically indistinguishable from
the Environment interpreter: same values, same NULL behavior, same
error types and messages -- only faster.  Cross-checks run every tree
through both paths over every row."""

import io
import re
import tokenize

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExpressionError
from repro.relational import INTEGER, REAL, char, compiled
from repro.relational.compiled import (
    compile_expression, compile_predicate, compile_row, schema_resolver,
    slot_resolver,
)
from repro.relational.expressions import (
    And, Arithmetic, ColumnRef, Comparison, Environment, Expression,
    IsNull, Literal, Not, Or,
)
from repro.relational.relation import Relation
from repro.relational.schema import Column, RelationSchema


SCHEMA = RelationSchema("EMP", [
    Column("Name", char(12)),
    Column("Age", INTEGER),
    Column("Salary", REAL),
])

ROWS = [
    ("alice", 41, 9000.0),
    ("bob", 38, 7500.0),
    ("carol", None, 8000.0),
    ("dave", 29, None),
]

DEPT_SCHEMA = RelationSchema("DEPT", [
    Column("Dept", char(8)),
    Column("Head", char(12)),
])


def interpret(expression: Expression, row: tuple):
    return expression.evaluate(Environment.for_row(SCHEMA, row))


def cross_check(expression: Expression):
    """Compiled result == interpreted result for every row (including
    raised ExpressionErrors, compared by message)."""
    fn = compile_expression(expression, schema_resolver(SCHEMA, ["emp"]))
    for row in ROWS:
        try:
            expected = interpret(expression, row)
        except ExpressionError as error:
            with pytest.raises(ExpressionError) as caught:
                fn(row)
            assert str(caught.value) == str(error)
            continue
        assert fn(row) == expected, (expression.render(), row)


class TestSemanticsParity:
    def test_comparisons(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            cross_check(Comparison(op, ColumnRef("Age"), Literal(38)))

    def test_null_comparison_is_false(self):
        fn = compile_expression(
            Comparison("=", ColumnRef("Age"), Literal(None)),
            schema_resolver(SCHEMA))
        assert all(fn(row) is False for row in ROWS)
        cross_check(Comparison("<", ColumnRef("Age"), Literal(None)))

    def test_comparison_type_error_message(self):
        cross_check(Comparison("<", ColumnRef("Name"), Literal(3)))

    def test_arithmetic(self):
        for op in ("+", "-", "*", "/"):
            cross_check(Arithmetic(op, ColumnRef("Salary"), Literal(2)))

    def test_arithmetic_null_is_null(self):
        fn = compile_expression(
            Arithmetic("+", ColumnRef("Salary"), Literal(1)),
            schema_resolver(SCHEMA))
        assert fn(("dave", 29, None)) is None

    def test_division_by_zero_message(self):
        cross_check(Arithmetic("/", ColumnRef("Salary"), Literal(0)))

    def test_is_null_and_negation(self):
        cross_check(IsNull(ColumnRef("Age")))
        cross_check(IsNull(ColumnRef("Age"), negated=True))

    def test_boolean_connectives(self):
        age = Comparison(">", ColumnRef("Age"), Literal(30))
        pay = Comparison(">", ColumnRef("Salary"), Literal(7800.0))
        cross_check(And([age, pay]))
        cross_check(Or([age, pay]))
        cross_check(Not(age))

    def test_and_short_circuits(self):
        # The second conjunct would raise a type error on every row; a
        # false first conjunct must prevent that, as in the interpreter.
        never = Comparison("=", ColumnRef("Age"), Literal(-1))
        boom = Comparison("<", ColumnRef("Name"), Literal(3))
        fn = compile_expression(And([never, boom]),
                                schema_resolver(SCHEMA))
        assert all(fn(row) is False for row in ROWS)

    def test_qualified_reference(self):
        cross_check(Comparison(
            "=", ColumnRef("Name", qualifier="EMP"), Literal("bob")))


class TestResolvers:
    def test_schema_resolver_unknown_column(self):
        with pytest.raises(ExpressionError, match="unknown column"):
            compile_expression(ColumnRef("Bogus"),
                               schema_resolver(SCHEMA))

    def test_schema_resolver_unknown_qualifier(self):
        with pytest.raises(ExpressionError,
                           match="unknown range variable or relation"):
            compile_expression(ColumnRef("Age", qualifier="other"),
                               schema_resolver(SCHEMA, ["emp"]))

    def test_schema_resolver_qualifier_missing_column(self):
        with pytest.raises(ExpressionError, match="has no column"):
            compile_expression(ColumnRef("Bogus", qualifier="EMP"),
                               schema_resolver(SCHEMA, ["emp"]))

    def test_slot_resolver_qualified(self):
        resolve = slot_resolver([("e", SCHEMA), ("d", DEPT_SCHEMA)])
        fn = compile_expression(ColumnRef("Head", qualifier="d"), resolve)
        assert fn((ROWS[0], ("eng", "alice"))) == "alice"

    def test_slot_resolver_unqualified_unambiguous(self):
        resolve = slot_resolver([("e", SCHEMA), ("d", DEPT_SCHEMA)])
        fn = compile_expression(ColumnRef("Salary"), resolve)
        assert fn((ROWS[1], ("eng", "alice"))) == 7500.0

    def test_slot_resolver_ambiguous(self):
        resolve = slot_resolver([("a", SCHEMA), ("b", SCHEMA)])
        with pytest.raises(ExpressionError, match="ambiguous column"):
            compile_expression(ColumnRef("Age"), resolve)


class TestFallbacks:
    class _Unknown(Expression):
        def evaluate(self, environment):
            return 42

        def render(self):
            return "unknown()"

        def references(self):
            return []

    def test_unsupported_node_takes_fallback(self):
        sentinel = lambda row: "fallback"
        test = compile_predicate(self._Unknown(),
                                 schema_resolver(SCHEMA),
                                 fallback=lambda: sentinel)
        assert test is sentinel

    def test_disabled_flag_takes_fallback(self, monkeypatch):
        monkeypatch.setattr(compiled, "ENABLED", False)
        sentinel = lambda row: "fallback"
        test = compile_predicate(
            Comparison("=", ColumnRef("Age"), Literal(38)),
            schema_resolver(SCHEMA), fallback=lambda: sentinel)
        assert test is sentinel

    def test_compile_row_all_or_none(self):
        # One unsupported node makes the whole row interpreted: no
        # environment per item, one per row.
        good = Comparison("=", ColumnRef("Age"), Literal(38))
        built = []

        def environment(row):
            built.append(row)
            return Environment.for_row(SCHEMA, row)

        fn = compile_row([good], schema_resolver(SCHEMA), environment)
        assert fn(ROWS[1]) == (True,) and not built
        fn = compile_row([good, self._Unknown()], schema_resolver(SCHEMA),
                         environment)
        assert fn(ROWS[1]) == (True, 42) and built == [ROWS[1]]

    def test_compile_row_disabled(self, monkeypatch):
        monkeypatch.setattr(compiled, "ENABLED", False)
        good = Comparison("=", ColumnRef("Age"), Literal(38))
        built = []

        def environment(row):
            built.append(row)
            return Environment.for_row(SCHEMA, row)

        fn = compile_row([good], schema_resolver(SCHEMA), environment,
                         scalar=True)
        assert fn(ROWS[1]) is True and built == [ROWS[1]]


# -- generated row functions ---------------------------------------------------

MGR_SCHEMA = RelationSchema("MGR", [
    Column("Name", char(12)),
    Column("Level", INTEGER),
])

#: Aligned per-binding rows: EMP, DEPT and MGR (``Name`` is ambiguous
#: unqualified, every other column is not).
BINDINGS = [("e", SCHEMA), ("d", DEPT_SCHEMA), ("m", MGR_SCHEMA)]

TEXT = st.text(alphabet=list("ab'\"\\\n {}()_gs0"), max_size=6)
NUMBER = st.one_of(st.integers(-5, 5),
                   st.sampled_from([0.0, 0.5, -2.25, 3.0]))
VALUE = st.one_of(st.none(), NUMBER, TEXT)

QUALIFIED = [ColumnRef(column.name, qualifier)
             for binding, schema in BINDINGS
             for qualifier in (binding, binding.upper())
             for column in schema.columns]
UNQUALIFIED = [ColumnRef(name) for name in
               ("Age", "Salary", "Dept", "Head", "Level")]

expressions = st.recursive(
    st.one_of(st.sampled_from(QUALIFIED + UNQUALIFIED),
              VALUE.map(Literal)),
    lambda inner: st.one_of(
        st.builds(Arithmetic, st.sampled_from("+-*/"), inner, inner),
        st.builds(Comparison, st.sampled_from(["=", "!=", "<", ">="]),
                  inner, inner),
        st.builds(IsNull, inner, st.booleans())),
    max_leaves=4)

aligned_rows = st.tuples(
    st.tuples(st.one_of(st.none(), TEXT),
              st.one_of(st.none(), st.integers(-5, 5)),
              st.one_of(st.none(), st.sampled_from([0.0, 7500.0, 0.5]))),
    st.tuples(st.one_of(st.none(), TEXT), st.one_of(st.none(), TEXT)),
    st.tuples(st.one_of(st.none(), TEXT),
              st.one_of(st.none(), st.integers(-5, 5))))

#: References no binding resolves, each with the interpreter's error.
BAD_REFS = [ColumnRef("Bogus"), ColumnRef("Age", "x"),
            ColumnRef("Head", "e"), ColumnRef("Name")]


def environment(rows):
    env = Environment()
    for (binding, schema), row in zip(BINDINGS, rows):
        env.bind(binding, schema, row)
    return env


def row_source(items, scalar=False):
    """The source :func:`compile_row` generates for *items*."""
    shape, _bound = compiled._shape(items, slot_resolver(BINDINGS))
    return compiled._source(shape, scalar)


def interpreted(expressions_, rows):
    env = environment(rows)
    return tuple(expression.evaluate(env) for expression in expressions_)


class TestRowFunctions:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(expressions, min_size=1, max_size=4),
           st.lists(aligned_rows, min_size=1, max_size=5))
    def test_matches_interpreter(self, items, rows_list):
        fn = compile_row(items, slot_resolver(BINDINGS), environment)
        for rows in rows_list:
            try:
                expected = interpreted(items, rows)
            except ExpressionError as error:
                with pytest.raises(ExpressionError) as caught:
                    fn(rows)
                assert str(caught.value) == str(error)
                continue
            assert fn(rows) == expected, [e.render() for e in items]

    @settings(max_examples=50, deadline=None)
    @given(expressions, aligned_rows)
    def test_scalar_is_the_bare_value(self, expression, rows):
        fn = compile_row([expression], slot_resolver(BINDINGS),
                         environment, scalar=True)
        try:
            (expected,) = interpreted([expression], rows)
        except ExpressionError as error:
            with pytest.raises(ExpressionError, match=re.escape(str(error))):
                fn(rows)
            return
        assert fn(rows) == expected

    @settings(max_examples=50, deadline=None)
    @given(st.lists(expressions, max_size=3), st.sampled_from(BAD_REFS),
           st.booleans(), st.integers(0, 3), aligned_rows)
    def test_resolution_errors_raise_at_compile_time(
            self, items, bad, nested, at, rows):
        with pytest.raises(ExpressionError) as expected:
            bad.evaluate(environment(rows))
        culprit = Arithmetic("+", Literal(1), bad) if nested else bad
        items = items[:at] + [culprit] + items[at:]
        # Every other reference resolves, so the bad one is reported
        # before a single row is seen, with the interpreter's message.
        with pytest.raises(ExpressionError) as caught:
            compile_row(items, slot_resolver(BINDINGS), environment)
        assert str(caught.value) == str(expected.value)

    def test_interpreted_row_raises_on_first_row(self, monkeypatch):
        monkeypatch.setattr(compiled, "ENABLED", False)
        fn = compile_row([ColumnRef("Bogus")], slot_resolver(BINDINGS),
                         environment)
        with pytest.raises(ExpressionError, match="unknown column"):
            fn((ROWS[0], ("eng", "alice"), ("al", 1)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(expressions, max_size=5), st.booleans())
    def test_source_holds_no_user_text(self, items, scalar):
        scalar = scalar and len(items) == 1
        source = row_source(items, scalar)
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.NAME:
                assert re.fullmatch(r"def|return|make|row|g|_v\d+",
                                    token.string), source
            elif token.type == tokenize.NUMBER:
                assert re.fullmatch(r"\d+", token.string), source
            else:
                assert token.type in (tokenize.OP, tokenize.NEWLINE,
                                      tokenize.NL, tokenize.INDENT,
                                      tokenize.DEDENT,
                                      tokenize.ENDMARKER), source

    def test_columns_inline_and_literals_bind(self):
        source = row_source(
            [ColumnRef("Age", "e"), Literal("x'\n"), ColumnRef("Head"),
             ColumnRef("Name", "e")])
        assert "return (g[0][1], _v0, g[1][1], g[0][0], )" in source

    def test_fresh_literals_reuse_compiled_code(self):
        resolve = slot_resolver(BINDINGS)
        rows = (ROWS[0], ("eng", "alice"), ("al", 1))
        compile_row([ColumnRef("Age", "e"), Literal(1),
                     Comparison(">", ColumnRef("Age"), Literal(3))],
                    resolve, environment)
        before = compiled._factory.cache_info()
        fn = compile_row([ColumnRef("Age", "e"), Literal("fresh"),
                          Comparison("<", ColumnRef("Age"), Literal(70))],
                         resolve, environment)
        assert compiled._factory.cache_info().misses == before.misses
        assert fn(rows) == (41, "fresh", True)

    def test_access_paths_must_be_integers(self):
        with pytest.raises(TypeError):
            compile_row([ColumnRef("Age")], lambda ref: ("0",),
                        environment)


class TestBatchAccessors:
    def relation(self):
        return Relation(SCHEMA, ROWS)

    def test_iter_batches_partitions_rows(self):
        relation = self.relation()
        batches = list(relation.iter_batches(3))
        assert [len(b) for b in batches] == [3, 1]
        assert [row for batch in batches for row in batch] == ROWS

    def test_iter_batches_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(self.relation().iter_batches(0))

    def test_columns_positional(self):
        names, ages = self.relation().columns("Name", "Age")
        assert names == ("alice", "bob", "carol", "dave")
        assert ages == (41, 38, None, 29)

    def test_column_arrays_transpose(self):
        arrays = self.relation().column_arrays()
        assert arrays[1] == (41, 38, None, 29)
        empty = Relation(SCHEMA, [])
        assert empty.column_arrays() == [(), (), ()]

    def test_row_view_mapping_interface(self):
        relation = self.relation()
        view = relation.row_view()
        view.bind(ROWS[0])
        assert view["Name"] == "alice"
        assert view["age"] == 41  # case-insensitive, like record dicts
        assert "salary" in view
        assert len(view) == 3
        assert dict(view) == {"Name": "alice", "Age": 41,
                              "Salary": 9000.0}
        view.bind(ROWS[1])  # rebinding repoints, no reallocation
        assert view["Name"] == "bob"
        with pytest.raises(KeyError):
            view["Bogus"]
