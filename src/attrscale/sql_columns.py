"""Column-reference extraction for a small SELECT-only SQL subset.

Supported shape: a single SELECT statement with optional INNER/LEFT joins,
WHERE, GROUP BY, HAVING, ORDER BY and LIMIT/OFFSET tails. Subqueries, CTEs,
set operators and non-SELECT statements are rejected as unsupported.

The extractor does not build an AST. It tokenizes, splits the statement into
top-level clauses, resolves table aliases, then scans the column-bearing
clauses (select list, WHERE, GROUP BY, HAVING, ORDER BY, join ON conditions)
for identifiers. `tokenize` is the only code that counts parentheses: it
stamps each token with its paren depth, and each bare identifier with its
casefolded word, once; every later scan reads those stamps. The clause
keywords and their required order are one tuple, `_CLAUSE_ORDER`. Matching
against the attribute catalog happens after alias resolution and
case-folding; identifiers that match nothing are reported as diagnostics,
never as errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import AttributeCatalog
from .errors import SqlSyntaxError, UnsupportedSqlError

# Words that can appear bare inside expressions but never name a column.
_EXPR_WORDS = frozenset("""
    and or not in is null like between exists case when then else end as
    distinct all any some asc desc nulls first last true false unknown
    cast interval escape collate using filter over partition rows range
    current_date current_timestamp current_time
    integer int bigint smallint tinyint text varchar char character numeric
    decimal real float double precision boolean date timestamp time
""".split())

_CLAUSE_ORDER = ("from", "where", "group", "having", "order", "limit", "offset")
_SET_OPS = frozenset(["union", "intersect", "except"])
_JOIN_WORDS = frozenset(["join", "inner", "left", "right", "full", "cross", "outer"])

_WORD_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_WORD_BODY = _WORD_START | frozenset("0123456789$")
_OP_CHARS = frozenset("=<>!+-/%^&|~")
_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", "*": "STAR", ";": "SEMI"}


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT QIDENT NUMBER STRING OP LPAREN RPAREN COMMA DOT STAR SEMI
    text: str
    offset: int  # character offset into the statement
    depth: int  # paren depth after this token: "(" carries the inner level, ")" the outer
    word: str | None = None  # casefolded text of a bare (unquoted) identifier, else None


def _byte_offset(sql: str, pos: int) -> int:
    return len(sql[:pos].encode("utf-8"))


def tokenize(sql: str) -> list[Token]:
    """Token stream for one statement; comments and whitespace are dropped."""
    tokens: list[Token] = []
    i, limit, depth = 0, len(sql), 0
    while i < limit:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            nl = sql.find("\n", i)
            i = limit if nl < 0 else nl + 1
            continue
        if ch == "/" and sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            if end < 0:
                raise SqlSyntaxError("unterminated block comment", _byte_offset(sql, i))
            i = end + 2
            continue
        if ch == "'":
            j = i + 1
            while True:
                j = sql.find("'", j)
                if j < 0:
                    raise SqlSyntaxError("unterminated string literal", _byte_offset(sql, i))
                if sql.startswith("''", j):  # escaped quote
                    j += 2
                    continue
                break
            tokens.append(Token("STRING", sql[i : j + 1], i, depth))
            i = j + 1
            continue
        if ch in ('"', "`"):
            j = sql.find(ch, i + 1)
            if j < 0:
                raise SqlSyntaxError("unterminated quoted identifier", _byte_offset(sql, i))
            tokens.append(Token("QIDENT", sql[i + 1 : j], i, depth))
            i = j + 1
            continue
        if ch in _WORD_START:
            j = i + 1
            while j < limit and sql[j] in _WORD_BODY:
                j += 1
            text = sql[i:j]
            tokens.append(Token("IDENT", text, i, depth, text.casefold()))
            i = j
            continue
        if ch.isdigit():
            j = i + 1
            while j < limit and (sql[j].isdigit() or sql[j] in ".eE"):
                if sql[j] in "eE" and j + 1 < limit and sql[j + 1] in "+-":
                    j += 1
                j += 1
            tokens.append(Token("NUMBER", sql[i:j], i, depth))
            i = j
            continue
        if ch in _PUNCT:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            tokens.append(Token(_PUNCT[ch], ch, i, depth))
            i += 1
            continue
        if ch not in _OP_CHARS:
            raise SqlSyntaxError(f"unexpected character {ch!r}", _byte_offset(sql, i))
        j = i + 1
        while j < limit and sql[j] in _OP_CHARS:
            j += 1
        tokens.append(Token("OP", sql[i:j], i, depth))
        i = j
    return tokens


@dataclass
class _Statement:
    scan_segments: list[list[Token]]  # select list, ON conditions, WHERE, GROUP BY, HAVING, ORDER BY
    alias_map: dict[str, str]  # casefolded alias or table name -> casefolded table name
    select_aliases: frozenset[str]  # output names minted by AS in the select list


def _shape(sql: str) -> _Statement:
    tokens = tokenize(sql)
    if not tokens:
        raise SqlSyntaxError("empty statement", 0)
    head = tokens[0].word
    if head == "with":
        raise UnsupportedSqlError("common table expressions are not supported", _byte_offset(sql, tokens[0].offset))
    if head != "select":
        raise UnsupportedSqlError("only SELECT statements are supported", _byte_offset(sql, tokens[0].offset))

    # One statement per string; trailing semicolons are the only thing allowed after the tail.
    end = len(tokens)
    while tokens[end - 1].kind == "SEMI":
        end -= 1
    tokens = tokens[:end]
    for tok in tokens:
        if tok.kind == "SEMI":
            raise UnsupportedSqlError("multiple statements are not supported", _byte_offset(sql, tok.offset))

    for pos, tok in enumerate(tokens):
        if tok.depth < 0:
            raise SqlSyntaxError("unbalanced parenthesis", _byte_offset(sql, tok.offset))
        word = tok.word
        if word == "select" and pos > 0:
            raise UnsupportedSqlError("subqueries are not supported", _byte_offset(sql, tok.offset))
        if word in _SET_OPS and tok.depth == 0:
            raise UnsupportedSqlError(f"set operator {word.upper()} is not supported", _byte_offset(sql, tok.offset))
    if tokens[-1].depth != 0:
        raise SqlSyntaxError("unbalanced parenthesis", _byte_offset(sql, tokens[-1].offset))

    # Clause boundaries exist only at paren depth zero.
    bounds: list[tuple[str, int]] = []
    for pos, tok in enumerate(tokens):
        word = tok.word
        if tok.depth == 0 and word in _CLAUSE_ORDER:
            if word in ("group", "order") and (tokens[pos + 1].word if pos + 1 < len(tokens) else None) != "by":
                raise SqlSyntaxError(f"{word.upper()} must be followed by BY", _byte_offset(sql, tok.offset))
            bounds.append((word, pos))
    for (before, _), (name, pos) in zip(bounds, bounds[1:]):
        if _CLAUSE_ORDER.index(name) <= _CLAUSE_ORDER.index(before):
            raise SqlSyntaxError(f"clause {name.upper()} misplaced", _byte_offset(sql, tokens[pos].offset))
    cuts = [*bounds, ("end", len(tokens))]
    clauses = {"select": tokens[1 : cuts[0][1]]}
    for (name, start), (_, stop) in zip(bounds, cuts[1:]):
        clauses[name] = tokens[start + (2 if name in ("group", "order") else 1) : stop]

    alias_map, on_segments = _parse_from(sql, clauses.get("from", []))
    tail = [clauses[name] for name in ("where", "group", "having", "order") if name in clauses]

    # Output names minted by AS may legally reappear in GROUP/ORDER BY.
    sel = clauses["select"]
    select_aliases = frozenset(
        nxt.text.casefold()
        for tok, nxt in zip(sel, sel[1:])
        if tok.depth == 0 and tok.word == "as" and nxt.kind in ("IDENT", "QIDENT")
    )
    return _Statement([sel, *on_segments, *tail], alias_map, select_aliases)


def _parse_from(sql: str, tokens: list[Token]) -> tuple[dict[str, str], list[list[Token]]]:
    """Alias map and the ON condition token slices from a FROM clause."""
    alias_map: dict[str, str] = {}
    on_segments: list[list[Token]] = []
    i = 0

    def take_table_ref(i: int) -> int:
        if i >= len(tokens) or tokens[i].kind not in ("IDENT", "QIDENT"):
            off = tokens[i].offset if i < len(tokens) else (tokens[-1].offset if tokens else 0)
            raise SqlSyntaxError("expected table name", _byte_offset(sql, off))
        name = tokens[i].text.casefold()
        i += 1
        if i + 1 < len(tokens) and tokens[i].kind == "DOT" and tokens[i + 1].kind in ("IDENT", "QIDENT"):
            name = f"{name}.{tokens[i + 1].text.casefold()}"  # schema-qualified table
            i += 2
        alias = None
        if i < len(tokens) and tokens[i].word == "as":
            i += 1
            if i >= len(tokens) or tokens[i].kind not in ("IDENT", "QIDENT"):
                raise SqlSyntaxError("expected alias after AS", _byte_offset(sql, tokens[i - 1].offset))
            alias = tokens[i].text.casefold()
            i += 1
        elif i < len(tokens) and tokens[i].kind in ("IDENT", "QIDENT") and tokens[i].word not in _JOIN_WORDS and tokens[i].word != "on":
            alias = tokens[i].text.casefold()
            i += 1
        alias_map[name] = name
        if alias:
            alias_map[alias] = name
        return i

    if tokens:
        i = take_table_ref(0)
    while i < len(tokens):
        tok = tokens[i]
        if tok.kind == "COMMA":
            i = take_table_ref(i + 1)
            continue
        word = tok.word
        if word in ("right", "full", "cross"):
            raise UnsupportedSqlError(f"{word.upper()} JOIN is not supported", _byte_offset(sql, tok.offset))
        if word in ("inner", "left"):
            i += 1
            if i < len(tokens) and tokens[i].word == "outer":
                i += 1
            if i >= len(tokens) or tokens[i].word != "join":
                off = tokens[i].offset if i < len(tokens) else tok.offset
                raise SqlSyntaxError("expected JOIN", _byte_offset(sql, off))
            word = "join"
        if word == "join":
            i = take_table_ref(i + 1)
            if i < len(tokens) and tokens[i].word == "on":
                i += 1
                start = i
                # FROM sits at depth zero, so ON ends at the first depth-zero join word or comma
                while i < len(tokens):
                    t = tokens[i]
                    if t.depth == 0 and (t.word in _JOIN_WORDS or t.kind == "COMMA"):
                        break
                    i += 1
                on_segments.append(tokens[start:i])
            continue
        raise SqlSyntaxError(f"unexpected token {tok.text!r} in FROM clause", _byte_offset(sql, tok.offset))
    return alias_map, on_segments


def _scan_refs(tokens: list[Token]) -> list[tuple[str | None, str]]:
    """Candidate column references as (qualifier, name); name '*' marks a wildcard."""
    refs: list[tuple[str | None, str]] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.kind in ("IDENT", "QIDENT"):
            word = tok.word
            if word == "as":  # output alias or CAST target: skip the next bare word
                i += 2 if i + 1 < len(tokens) and tokens[i + 1].kind in ("IDENT", "QIDENT") else 1
                continue
            if word in _EXPR_WORDS:
                i += 1
                continue
            if i + 1 < len(tokens) and tokens[i + 1].kind == "DOT":
                if i + 2 < len(tokens) and tokens[i + 2].kind in ("IDENT", "QIDENT"):
                    refs.append((tok.text, tokens[i + 2].text))
                    i += 3
                elif i + 2 < len(tokens) and tokens[i + 2].kind == "STAR":
                    refs.append((tok.text, "*"))
                    i += 3
                else:
                    i += 2
                continue
            if i + 1 < len(tokens) and tokens[i + 1].kind == "LPAREN":
                i += 1  # function name, not a column
                continue
            refs.append((None, tok.text))
        elif tok.kind == "STAR" and (i == 0 or tokens[i - 1].kind == "COMMA"):
            refs.append((None, "*"))  # bare wildcard at the start of a select item
        i += 1
    return refs


def extract_attributes(
    sql: str,
    catalog: AttributeCatalog,
    *,
    diagnostics: list[str] | None = None,
) -> set[int]:
    """Catalog indices of every attribute the statement references.

    Identifiers are matched after alias resolution and case-folding. A
    qualified reference t.c matches catalog entry "c" or "table.c" (with t
    resolved through the alias map); a bare reference matches "c" or, when
    exactly one dotted catalog entry ends in ".c", that entry. Unknown
    identifiers and wildcards are appended to `diagnostics` (when given) and
    otherwise ignored. Raises SqlSyntaxError / UnsupportedSqlError for
    statements outside the supported subset.
    """
    stmt = _shape(sql)
    found: set[int] = set()
    unknown: dict[str, None] = {}  # insertion-ordered set: each identifier once, first sighting first
    for segment in stmt.scan_segments:
        for qual, name in _scan_refs(segment):
            folded = name.casefold()
            if name == "*":
                idx = None
            elif qual is not None:
                table = stmt.alias_map.get(qual.casefold(), qual.casefold())
                idx = catalog.index_of(folded)
                if idx is None:
                    idx = catalog.index_of(f"{table}.{folded}")
            else:
                idx = catalog.index_of(folded)
                if idx is None:
                    idx = catalog.lookup_suffix(folded)
                if idx is None and folded in stmt.select_aliases:
                    continue  # references an output column, not a base attribute
            if idx is None:
                unknown[name if qual is None else f"{qual}.{name}"] = None
            else:
                found.add(idx)
    if diagnostics is not None:
        diagnostics.extend(unknown)
    return found
