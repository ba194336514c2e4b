"""Unit tests for the token-derived SQL statement key."""

import pytest

from repro.errors import ParseError
from repro.langutil import TokenKind
from repro.sql import normalize_sql
from repro.sql.fingerprint import statement_key
from repro.sql.parser import SqlSource, parse_select


class TestNormalizeSql:
    def test_case_folds_keywords_and_identifiers(self):
        assert (normalize_sql("SELECT Name FROM SUBMARINE")
                == normalize_sql("select name from submarine"))

    def test_collapses_whitespace(self):
        assert (normalize_sql("SELECT  Name\n\tFROM   SUBMARINE")
                == normalize_sql("SELECT Name FROM SUBMARINE"))

    def test_strips_trailing_semicolon(self):
        assert (normalize_sql("SELECT Name FROM S;")
                == normalize_sql("SELECT Name FROM S"))
        assert (normalize_sql("SELECT Name FROM S ; ")
                == normalize_sql("SELECT Name FROM S"))

    def test_literals_preserved_verbatim(self):
        # Different literal case = different query = different key.
        a = normalize_sql("SELECT * FROM T WHERE Label = 'G01'")
        b = normalize_sql("SELECT * FROM T WHERE Label = 'g01'")
        assert a != b
        assert "'G01'" in a and "'g01'" in b

    def test_whitespace_inside_literals_preserved(self):
        fp = normalize_sql("SELECT * FROM T WHERE Name = 'A  B'")
        assert "'A  B'" in fp

    def test_doubled_quote_escapes(self):
        # The scanner has no doubled-quote escape: 'it''s  OK' is two
        # adjacent literals, and the key says so (the parser rejects
        # the statement).  The escape is a backslash, kept verbatim.
        fp = normalize_sql("SELECT * FROM T WHERE Name = 'it''s  OK'")
        assert fp.endswith("= 'it' 's  OK'")
        fp = normalize_sql("SELECT * FROM T WHERE Name = 'it\\'s  OK'")
        assert fp.endswith("= 'it\\'s  OK'")

    def test_double_quoted_literals(self):
        fp = normalize_sql('SELECT * FROM T WHERE Type = "SSBN"')
        assert '"SSBN"' in fp

    def test_unterminated_literal_does_not_crash(self):
        # A typed error with the literal's position, as the parser
        # would raise, never a key that could collide.
        with pytest.raises(ParseError, match="unterminated string") as info:
            normalize_sql("SELECT 'oops")
        assert (info.value.line, info.value.column) == (1, 8)


class TestStatementKey:
    ESCAPED = ("SELECT CLASS.CLASS FROM CLASS WHERE "
               "CLASS.CLASSNAME = 'a\\' Typhoon'")

    def test_escaped_quote_literals_get_different_keys(self):
        other = self.ESCAPED.replace("Typhoon", "TYPHOON")
        assert normalize_sql(self.ESCAPED) != normalize_sql(other)
        # ... because they parse to different literals.
        assert (parse_select(self.ESCAPED).where.right.value
                != parse_select(other).where.right.value)

    def test_comments_and_layout_do_not_matter(self):
        assert (normalize_sql("SELECT a /* note */ FROM t -- tail\n;")
                == normalize_sql("select A from T"))

    def test_operators_and_numbers_keep_their_spelling(self):
        assert normalize_sql("SELECT a FROM t WHERE x<=1") \
            == "select a from t where x <= 1"
        assert normalize_sql("SELECT a FROM t WHERE x < = 1") \
            != normalize_sql("SELECT a FROM t WHERE x <= 1")

    def test_key_is_the_token_texts(self):
        source = SqlSource(self.ESCAPED + " ;;")
        assert source.key == statement_key(
            [token.text.lower() if token.kind is TokenKind.IDENT
             else token.text for token in source.tokens[:-1]])
        assert source.key == normalize_sql(self.ESCAPED)

    def test_empty_statement(self):
        assert normalize_sql("  ;  ") == ""
