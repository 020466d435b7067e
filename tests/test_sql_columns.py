"""Column extraction over the supported SELECT subset."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from attrscale import AttributeCatalog, AttrScaleError, SqlSyntaxError, UnsupportedSqlError, extract_attributes
from attrscale.sql_columns import tokenize

from reference_tables import USAGE_ROWS


def names_of(sql: str, catalog, diagnostics=None) -> set[str]:
    return {catalog.attributes[i] for i in extract_attributes(sql, catalog, diagnostics=diagnostics)}


def test_reference_statements_extract_usage_rows(catalog, data_dir):
    expected = dict(USAGE_ROWS)
    with open(data_dir / "reference_workload_sql.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            diags: list[str] = []
            got = names_of(rec["sql"], catalog, diags)
            assert got == set(expected[rec["id"]]), rec["id"]
            assert diags == []


def test_case_insensitive_matching(catalog):
    assert names_of("SELECT A1, a2 FROM t WHERE A10 = 1", catalog) == {"a1", "a2", "a10"}


def test_quoted_identifiers(catalog):
    assert names_of('SELECT "a1", `a2` FROM t', catalog) == {"a1", "a2"}


def test_alias_resolution_with_and_without_as(catalog):
    sql = "SELECT f.a1, d.a2 FROM facts AS f INNER JOIN dims d ON f.a3 = d.a4"
    assert names_of(sql, catalog) == {"a1", "a2", "a3", "a4"}


def test_schema_qualified_table_names(catalog):
    sql = "SELECT f.a1 FROM warehouse.facts AS f WHERE f.a2 > 0"
    assert names_of(sql, catalog) == {"a1", "a2"}


def test_dotted_catalog_entries_and_suffix_lookup():
    catalog = AttributeCatalog(("orders.total", "orders.day", "items.qty"))
    # bare name resolves through the unique dotted suffix
    assert extract_attributes("SELECT total FROM orders", catalog) == {0}
    # qualified name resolves alias -> table -> dotted entry
    assert extract_attributes("SELECT o.total, o.day FROM orders o", catalog) == {0, 1}


def test_ambiguous_suffix_is_reported_not_guessed():
    catalog = AttributeCatalog(("orders.total", "returns.total"))
    diags: list[str] = []
    assert extract_attributes("SELECT total FROM orders", catalog, diagnostics=diags) == set()
    assert diags == ["total"]


def test_function_names_are_not_columns(catalog):
    sql = "SELECT SUM(a1), COUNT(a2), COALESCE(a3, 0) FROM t"
    assert names_of(sql, catalog) == {"a1", "a2", "a3"}


def test_cast_and_expression_keywords_skipped(catalog):
    sql = "SELECT CAST(a1 AS INTEGER) FROM t WHERE a2 BETWEEN 1 AND 5 AND a3 IS NOT NULL"
    diags: list[str] = []
    assert names_of(sql, catalog, diags) == {"a1", "a2", "a3"}
    assert diags == []


def test_case_expression(catalog):
    sql = "SELECT CASE WHEN a1 > 0 THEN a2 ELSE a3 END FROM t"
    assert names_of(sql, catalog) == {"a1", "a2", "a3"}


def test_select_alias_reference_suppressed(catalog):
    sql = "SELECT a1 + a2 AS total FROM t GROUP BY total ORDER BY total"
    diags: list[str] = []
    assert names_of(sql, catalog, diags) == {"a1", "a2"}
    assert diags == []


def test_nested_parens_neither_end_an_on_condition_nor_mint_an_alias(catalog):
    sql = "SELECT a1 FROM t JOIN u ON COALESCE(t.a2, (u.a3)) = 1 JOIN v ON a4 = v.a5"
    assert names_of(sql, catalog) == {"a1", "a2", "a3", "a4", "a5"}
    diags: list[str] = []
    assert names_of("SELECT CAST(a1 AS mytype) FROM t ORDER BY mytype", catalog, diags) == {"a1"}
    assert diags == ["mytype"]  # AS inside parens names no output column


def test_string_literals_ignored(catalog):
    sql = "SELECT a1 FROM t WHERE a2 = 'it''s a5' AND a3 = 'x'"
    assert names_of(sql, catalog) == {"a1", "a2", "a3"}


def test_comments_stripped(catalog):
    sql = "SELECT a1 -- trailing a9\nFROM t /* block a8 */ WHERE a2 = 1"
    assert names_of(sql, catalog) == {"a1", "a2"}


def test_limit_offset_tail(catalog):
    sql = "SELECT a1 FROM t ORDER BY a2 DESC LIMIT 5 OFFSET 10"
    assert names_of(sql, catalog) == {"a1", "a2"}


def test_trailing_semicolon_allowed(catalog):
    assert names_of("SELECT a1 FROM t;", catalog) == {"a1"}


def test_bare_wildcard_reported(catalog):
    diags: list[str] = []
    assert names_of("SELECT * FROM t WHERE a1 = 1", catalog, diags) == {"a1"}
    assert diags == ["*"]


def test_qualified_wildcard_reported(catalog):
    diags: list[str] = []
    assert names_of("SELECT t.*, a1 FROM t", catalog, diags) == {"a1"}
    assert diags == ["t.*"]


def test_unknown_identifiers_reported_once_in_order(catalog):
    diags: list[str] = []
    sql = "SELECT zz, a1, yy FROM t WHERE zz = 1 AND t.xx > 0"
    assert names_of(sql, catalog, diags) == {"a1"}
    assert diags == ["zz", "yy", "t.xx"]


@pytest.mark.parametrize(
    "sql, exc, fragment",
    [
        ("INSERT INTO t VALUES (1)", UnsupportedSqlError, "only SELECT"),
        ("WITH c AS (SELECT a1 FROM t) SELECT a1 FROM c", UnsupportedSqlError, "common table expressions"),
        ("SELECT a1 FROM (SELECT a1 FROM t)", UnsupportedSqlError, "subqueries"),
        ("SELECT a1 FROM t UNION SELECT a2 FROM u", UnsupportedSqlError, "UNION"),
        ("SELECT a1 FROM t INTERSECT SELECT a2 FROM u", UnsupportedSqlError, "INTERSECT"),
        ("SELECT a1 FROM t RIGHT JOIN u ON a2 = a3", UnsupportedSqlError, "RIGHT JOIN"),
        ("SELECT a1 FROM t FULL JOIN u ON a2 = a3", UnsupportedSqlError, "FULL JOIN"),
        ("SELECT a1 FROM t CROSS JOIN u", UnsupportedSqlError, "CROSS JOIN"),
        ("SELECT a1 FROM t; SELECT a2 FROM t", UnsupportedSqlError, "multiple statements"),
        ("SELECT a1 FROM t WHERE (a2 = 1", SqlSyntaxError, "unbalanced"),
        ("SELECT a1 FROM t WHERE a2 = 1)", SqlSyntaxError, "unbalanced"),
        ("SELECT a1 FROM t WHERE a2 = 'oops", SqlSyntaxError, "unterminated string"),
        ("SELECT a1 /* oops FROM t", SqlSyntaxError, "unterminated block comment"),
        ("SELECT a1 FROM t GROUP a2", SqlSyntaxError, "GROUP must be followed by BY"),
        ("SELECT a1 FROM t GROUP BY a2 WHERE a3 = 1", SqlSyntaxError, "WHERE misplaced"),
        ("SELECT a1 FROM t WHERE a2 = ?", SqlSyntaxError, "unexpected character"),
        ("", SqlSyntaxError, "empty statement"),
    ],
)
def test_rejected_statements(catalog, sql, exc, fragment):
    with pytest.raises(exc, match=fragment):
        extract_attributes(sql, catalog)


def test_error_offsets_count_bytes_not_characters(catalog):
    sql = "SELECT 'caffè' FROM t; SELECT a2 FROM t"
    with pytest.raises(UnsupportedSqlError) as exc_info:
        extract_attributes(sql, catalog)
    char_pos = sql.index(";")
    assert exc_info.value.byte_offset == len(sql[:char_pos].encode("utf-8"))
    assert exc_info.value.byte_offset > char_pos  # the multibyte char shifted it


def test_tokenize_positions_and_kinds():
    tokens = tokenize("select t.a1, 'x''y' from t")
    kinds = [kind for kind, _, _, _, _ in tokens]
    assert kinds == ["IDENT", "IDENT", "DOT", "IDENT", "COMMA", "STRING", "IDENT", "IDENT"]
    _, text, _, _, _ = tokens[5]
    assert text == "'x''y'"
    (_, _, first, _, _), (_, _, second, _, _) = tokens[:2]
    assert first == 0 and second == 7
    # depth after each token: "(" carries the inner level, ")" the outer one
    assert [depth for _, _, _, depth, _ in tokenize("f((a), b)) x")] == [0, 1, 2, 2, 1, 1, 1, 0, -1, -1]


@pytest.mark.parametrize(
    "sql, message, offset",
    [
        ("x 'a''", "unterminated string literal", 2),  # the doubled quote escapes; nothing closes
        ("x 'a''''", "unterminated string literal", 2),
        ("x /*/", "unterminated block comment", 2),
        ("'é' \"x", "unterminated quoted identifier", 5),  # byte offset: é is two bytes
        ("x `x", "unterminated quoted identifier", 2),
        ("a /* x */ /* y", "unterminated block comment", 10),  # a closed comment is skipped first
        ("/* é */ 'x", "unterminated string literal", 9),  # é in a skipped comment is two bytes
    ],
)
def test_tokenize_reports_each_unterminated_kind_at_its_byte_offset(sql, message, offset):
    with pytest.raises(SqlSyntaxError, match=message) as exc_info:
        tokenize(sql)
    assert exc_info.value.byte_offset == offset


def test_tokenize_edge_lexemes():
    def lexed(sql):
        return [(kind, text) for kind, text, _, _, _ in tokenize(sql)]

    assert lexed("'a'''") == [("STRING", "'a'''")]
    assert lexed("a -- no newline at the end") == [("IDENT", "a")]
    # an operator run takes every operator character, comment starters included
    assert lexed("a=--x") == [("IDENT", "a"), ("OP", "=--"), ("IDENT", "x")]
    assert lexed("=/*") == [("OP", "=/"), ("STAR", "*")]
    assert lexed("1e+5 1.2.3 x$y ٣") == [("NUMBER", "1e+5"), ("NUMBER", "1.2.3"), ("IDENT", "x$y"), ("NUMBER", "٣")]
    assert lexed("a\u00a0b") == [("IDENT", "a"), ("IDENT", "b")]  # NBSP is whitespace


def test_trailing_whitespace_and_comments_end_the_token_stream():
    # a skip before the end of the statement is matched with the end itself, and
    # the end can match once more after it; neither adds a token
    for sql in ("a   ", "a /* x */", "a -- x\n  "):
        assert [(kind, text) for kind, text, _, _, _ in tokenize(sql)] == [("IDENT", "a")], sql
    assert tokenize("  ") == []
    assert tokenize(" /* é */ ") == []


def test_non_decimal_digits_are_unexpected_characters(catalog):
    # str.isdigit accepts superscript and circled digits; a number starts with a decimal digit only
    sql = "SELECT a1 FROM t WHERE a2 = ² + ③"
    with pytest.raises(SqlSyntaxError, match="unexpected character '²'") as exc_info:
        extract_attributes(sql, catalog)
    assert exc_info.value.byte_offset == len(sql[: sql.index("²")].encode("utf-8"))
    with pytest.raises(SqlSyntaxError, match="unexpected character '③'"):
        tokenize("③")


FUZZ_WORDS = (
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP BY", "GROUP", "BY", "HAVING", "ORDER BY", "ASC",
    "LIMIT", "OFFSET", "JOIN", "LEFT JOIN", "INNER JOIN", "RIGHT", "CROSS", "ON", "AS", "AND", "OR",
    "NOT", "IN", "IS NULL", "BETWEEN", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST", "UNION", "WITH",
    "a1", "A2", "t", "u", "s.t", "t.a3", "x.a4", "t.*", "*", "count", "mystery", '"a5"', '"a""b"',
    "(", ")", ",", ".", ";", "=", "<>", "+", "-", "/", "||", "1", "2.5", "'x'", "'it''s'", "/* c */", "-- c\n",
)
FUZZ_NOISE = ("?", "$1", "@x", "::", "'open", "/* open", '"open', "`a6`", "[a7]", "caffè", "é.ß", "\\")


def fuzz_statements(rng: random.Random) -> list[str]:
    def words(count, noise=0.05):
        return [rng.choice(FUZZ_NOISE if rng.random() < noise else FUZZ_WORDS) for _ in range(count)]

    def mutated(sql):
        parts = sql.split(" ")
        for _ in range(rng.randint(0, 2)):  # drop, repeat, or put a word before one part
            pos = rng.randrange(len(parts))
            parts[pos:pos + 1] = rng.choice(([], [parts[pos]] * 2, [*words(1, 0.2), parts[pos]]))
        return " ".join(parts)

    statements = ["SELECT " + " ".join(words(rng.randint(1, 14))) for _ in range(2000)]
    columns = ("a1", "t.a2", "count(a3)", "u.a4 AS z", "*", "a5 + 1", "mystery")
    joins = ("", " JOIN u ON t.a1 = u.a2", " LEFT JOIN s.u AS v ON a6 = v.a7")
    clauses = (" WHERE a8 IN (1, 2)", " GROUP BY a9 HAVING count(*) > 1", " ORDER BY z DESC", " LIMIT 5")
    for _ in range(1500):
        cols = ", ".join(rng.sample(columns, rng.randint(1, 3)))
        join = rng.choice(joins)
        tail = "".join(rng.sample(clauses, rng.randint(0, 2)))
        statements.append(mutated(f"SELECT {cols} FROM t{join}{tail}"))
    statements += [" ".join(words(rng.randint(1, 10), 0.1)) for _ in range(500)]
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 _.,;()*'\"=<>!+-/%|\nß€"
    statements += ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40))) for _ in range(1000)]
    return statements


# SHA-256 over every fuzz outcome below, recorded before the paren-depth refactor
FUZZ_OUTCOME_DIGEST = "b52623ee7de991fb376dae1e5789238db96accc67311f1ef8958176d6ff1da29"


def test_fuzzed_statements_raise_only_package_errors(catalog):
    # seeded: near-SQL built from fragments plus raw character soup; any other
    # exception type escaping extract_attributes would reach the user as a traceback.
    # Each outcome (indices and diagnostics, or error class, message and byte
    # offset) is folded into one digest, pinning the extractor's whole behaviour.
    digest = hashlib.sha256()
    parsed = rejected = 0
    for sql in fuzz_statements(random.Random(424242)):
        diagnostics: list[str] = []
        try:
            found = extract_attributes(sql, catalog, diagnostics=diagnostics)
        except AttrScaleError as exc:
            outcome = [type(exc).__name__, str(exc), getattr(exc, "byte_offset", None)]
            rejected += 1
        else:
            assert found <= set(range(len(catalog)))
            outcome = [sorted(found), diagnostics]
            parsed += 1
        digest.update(json.dumps(outcome).encode("ascii") + b"\n")
    assert parsed > 1000 and rejected > 1000
    assert digest.hexdigest() == FUZZ_OUTCOME_DIGEST
