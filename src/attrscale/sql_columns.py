"""Column-reference extraction for a small SELECT-only SQL subset.

Supported shape: a single SELECT statement with optional INNER/LEFT joins,
WHERE, GROUP BY, HAVING, ORDER BY and LIMIT/OFFSET tails. Subqueries, CTEs,
set operators and non-SELECT statements are rejected as unsupported.

The extractor does not build an AST. It tokenizes, splits the statement into
top-level clauses, resolves table aliases, then scans the column-bearing
clauses (select list, WHERE, GROUP BY, HAVING, ORDER BY, join ON conditions)
for identifiers. The lexical grammar is one compiled pattern, `_TOKEN`: each
match is the whitespace and comments it skipped plus one token, whose
alternatives are tried in order: identifiers are ASCII words, numbers start
with a decimal digit, and a stray character is an error. `tokenize` reads one
`findall` of it in one loop, takes each token's kind from its first character,
and is the only code that counts parentheses: it stamps each token, a plain
tuple, with its paren depth, and each bare identifier with its casefolded
word, once; every later scan reads those stamps. `_shape` checks the statement
in one pass over the tokens. The clause keywords and their required order are
one tuple, `_CLAUSE_ORDER`. Matching against the attribute catalog happens
after alias resolution and case-folding; identifiers that match nothing are
reported as diagnostics, never as errors.
"""

from __future__ import annotations

import re
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
_CLAUSE_RANK = {word: rank for rank, word in enumerate(_CLAUSE_ORDER)}
_SET_OPS = frozenset(["union", "intersect", "except"])
_SHAPE_WORDS = frozenset(["select", *_SET_OPS, *_CLAUSE_ORDER])  # the words _shape's pass acts on
_JOIN_WORDS = frozenset(["join", "inner", "left", "right", "full", "cross", "outer"])
_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT", "*": "STAR", ";": "SEMI"}

# Each match is (skipped whitespace and comments, one token). The skip takes
# plain whitespace before it tries a comment. The token alternatives are tried
# in order, the commonest (identifiers, then punctuation) first; the last, \Z,
# ends the statement, so a trailing skip never backtracks into an operator or a
# stray character.
_TOKEN = re.compile(
    r"""
    ( \s* (?: (?: --[^\n]*\n? | /\*.*?\*/ ) \s* )* )
    ( [A-Za-z_][A-Za-z0-9_$]*  # IDENT
    | [(),.*;]  # punctuation
    | '(?:[^']|'')*'(?!')  # STRING; the lookahead keeps backtracking from closing 'a'' early
    | "[^"]*" | `[^`]*`  # QIDENT
    | \d(?:[eE][+-]|[\d.eE])*  # NUMBER
    | /\* | ['"`] | [^=<>!+\-/%^&|~]  # unclosed comment or quote, or a stray character
    | [=<>!+\-/%^&|~]+  # OP
    | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_UNCLOSED = {"/*": "block comment", "'": "string literal", '"': "quoted identifier", "`": "quoted identifier"}
# A token's kind from its first character. A non-ASCII decimal digit, absent here, starts a NUMBER too.
_KIND_OF = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "IDENT"),
    **dict.fromkeys("0123456789", "NUMBER"),
    **dict.fromkeys("=<>!+-/%^&|~", "OP"),
    "'": "STRING",
    '"': "QIDENT",
    "`": "QIDENT",
    **_PUNCT,
}

# A token is a plain tuple (kind, text, offset, depth, word):
#   kind    IDENT QIDENT NUMBER STRING OP LPAREN RPAREN COMMA DOT STAR SEMI
#   text    the lexeme; a QIDENT's without its quotes
#   offset  character offset into the statement
#   depth   paren depth after this token: "(" carries the inner level, ")" the outer
#   word    casefolded text of a bare (unquoted) identifier, else None
Token = tuple[str, str, int, int, str | None]
KIND, TEXT, OFFSET, DEPTH, WORD = range(5)


def _byte_offset(sql: str, pos: int) -> int:
    return len(sql[:pos].encode("utf-8", "surrogatepass"))  # a lone surrogate from a JSON escape counts 3 bytes


def tokenize(sql: str) -> list[Token]:
    """Token stream for one statement; comments and whitespace are dropped."""
    tokens: list[Token] = []
    append = tokens.append
    depth = pos = 0
    for skipped, text in _TOKEN.findall(sql):
        if not text:  # \Z; a trailing skip leaves a second empty match after it
            break
        start = pos + len(skipped)
        pos = start + len(text)
        kind = _KIND_OF.get(text[0])
        if kind == "IDENT":
            append((kind, text, start, depth, text.casefold()))
            continue
        if text in _UNCLOSED:
            raise SqlSyntaxError(f"unterminated {_UNCLOSED[text]}", _byte_offset(sql, start))
        if kind is None:
            if not text[0].isdecimal():
                raise SqlSyntaxError(f"unexpected character {text!r}", _byte_offset(sql, start))
            kind = "NUMBER"
        elif kind == "QIDENT":
            text = text[1:-1]
        elif kind == "LPAREN":
            depth += 1
        elif kind == "RPAREN":
            depth -= 1
        append((kind, text, start, depth, None))
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
    head = tokens[0][WORD]
    if head == "with":
        raise UnsupportedSqlError("common table expressions are not supported", _byte_offset(sql, tokens[0][OFFSET]))
    if head != "select":
        raise UnsupportedSqlError("only SELECT statements are supported", _byte_offset(sql, tokens[0][OFFSET]))

    # One pass records the first semicolon, the first token outside the
    # subset and the clause boundaries (which exist only at paren depth zero);
    # the checks below then raise in a fixed order.
    semi = bad = None
    bounds: list[tuple[str, int]] = []
    for pos, (kind, _, _, depth, word) in enumerate(tokens):
        if depth < 0 and bad is None:
            bad = pos
        if word in _SHAPE_WORDS:
            if word == "select":
                if pos and bad is None:
                    bad = pos
            elif depth == 0:
                if word not in _SET_OPS:
                    bounds.append((word, pos))
                elif bad is None:
                    bad = pos
        elif kind == "SEMI" and semi is None:
            semi = pos

    # One statement per string; trailing semicolons are the only thing allowed after the tail.
    end = len(tokens)
    while tokens[end - 1][KIND] == "SEMI":
        end -= 1
    if semi is not None and semi < end:
        raise UnsupportedSqlError("multiple statements are not supported", _byte_offset(sql, tokens[semi][OFFSET]))
    if bad is not None:
        _, _, offset, depth, word = tokens[bad]
        if depth < 0:
            raise SqlSyntaxError("unbalanced parenthesis", _byte_offset(sql, offset))
        if word == "select":
            raise UnsupportedSqlError("subqueries are not supported", _byte_offset(sql, offset))
        raise UnsupportedSqlError(f"set operator {word.upper()} is not supported", _byte_offset(sql, offset))
    if tokens[end - 1][DEPTH] != 0:
        raise SqlSyntaxError("unbalanced parenthesis", _byte_offset(sql, tokens[end - 1][OFFSET]))

    for word, pos in bounds:
        if word in ("group", "order") and (tokens[pos + 1][WORD] if pos + 1 < end else None) != "by":
            raise SqlSyntaxError(f"{word.upper()} must be followed by BY", _byte_offset(sql, tokens[pos][OFFSET]))
    for (before, _), (name, pos) in zip(bounds, bounds[1:]):
        if _CLAUSE_RANK[name] <= _CLAUSE_RANK[before]:
            raise SqlSyntaxError(f"clause {name.upper()} misplaced", _byte_offset(sql, tokens[pos][OFFSET]))
    cuts = [*bounds, ("end", end)]
    clauses = {"select": tokens[1 : cuts[0][1]]}
    for (name, start), (_, stop) in zip(bounds, cuts[1:]):
        clauses[name] = tokens[start + (2 if name in ("group", "order") else 1) : stop]

    alias_map, on_segments = _parse_from(sql, clauses.get("from", []))
    tail = [clauses[name] for name in ("where", "group", "having", "order") if name in clauses]

    # Output names minted by AS may legally reappear in GROUP/ORDER BY.
    sel = clauses["select"]
    select_aliases = frozenset(
        nxt[TEXT].casefold()
        for tok, nxt in zip(sel, sel[1:])
        if tok[DEPTH] == 0 and tok[WORD] == "as" and nxt[KIND] in ("IDENT", "QIDENT")
    )
    return _Statement([sel, *on_segments, *tail], alias_map, select_aliases)


def _parse_from(sql: str, tokens: list[Token]) -> tuple[dict[str, str], list[list[Token]]]:
    """Alias map and the ON condition token slices from a FROM clause."""
    alias_map: dict[str, str] = {}
    on_segments: list[list[Token]] = []
    i = 0

    def take_table_ref(i: int) -> int:
        if i >= len(tokens) or tokens[i][KIND] not in ("IDENT", "QIDENT"):
            off = tokens[i][OFFSET] if i < len(tokens) else (tokens[-1][OFFSET] if tokens else 0)
            raise SqlSyntaxError("expected table name", _byte_offset(sql, off))
        name = tokens[i][TEXT].casefold()
        i += 1
        if i + 1 < len(tokens) and tokens[i][KIND] == "DOT" and tokens[i + 1][KIND] in ("IDENT", "QIDENT"):
            name = f"{name}.{tokens[i + 1][TEXT].casefold()}"  # schema-qualified table
            i += 2
        alias = None
        if i < len(tokens) and tokens[i][WORD] == "as":
            i += 1
            if i >= len(tokens) or tokens[i][KIND] not in ("IDENT", "QIDENT"):
                raise SqlSyntaxError("expected alias after AS", _byte_offset(sql, tokens[i - 1][OFFSET]))
            alias = tokens[i][TEXT].casefold()
            i += 1
        elif i < len(tokens) and tokens[i][KIND] in ("IDENT", "QIDENT") and tokens[i][WORD] not in _JOIN_WORDS and tokens[i][WORD] != "on":
            alias = tokens[i][TEXT].casefold()
            i += 1
        alias_map[name] = name
        if alias:
            alias_map[alias] = name
        return i

    if tokens:
        i = take_table_ref(0)
    while i < len(tokens):
        kind, text, offset, _, word = tokens[i]
        if kind == "COMMA":
            i = take_table_ref(i + 1)
            continue
        if word in ("right", "full", "cross"):
            raise UnsupportedSqlError(f"{word.upper()} JOIN is not supported", _byte_offset(sql, offset))
        if word in ("inner", "left"):
            i += 1
            if i < len(tokens) and tokens[i][WORD] == "outer":
                i += 1
            if i >= len(tokens) or tokens[i][WORD] != "join":
                off = tokens[i][OFFSET] if i < len(tokens) else offset
                raise SqlSyntaxError("expected JOIN", _byte_offset(sql, off))
            word = "join"
        if word == "join":
            i = take_table_ref(i + 1)
            if i < len(tokens) and tokens[i][WORD] == "on":
                i += 1
                start = i
                # FROM sits at depth zero, so ON ends at the first depth-zero join word or comma
                while i < len(tokens):
                    t = tokens[i]
                    if t[DEPTH] == 0 and (t[WORD] in _JOIN_WORDS or t[KIND] == "COMMA"):
                        break
                    i += 1
                on_segments.append(tokens[start:i])
            continue
        raise SqlSyntaxError(f"unexpected token {text!r} in FROM clause", _byte_offset(sql, offset))
    return alias_map, on_segments


def _scan_refs(tokens: list[Token]) -> list[tuple[str | None, str]]:
    """Candidate column references as (qualifier, name); name '*' marks a wildcard."""
    refs: list[tuple[str | None, str]] = []
    i = 0
    while i < len(tokens):
        kind, text, _, _, word = tokens[i]
        if kind in ("IDENT", "QIDENT"):
            if word == "as":  # output alias or CAST target: skip the next bare word
                i += 2 if i + 1 < len(tokens) and tokens[i + 1][KIND] in ("IDENT", "QIDENT") else 1
                continue
            if word in _EXPR_WORDS:
                i += 1
                continue
            if i + 1 < len(tokens) and tokens[i + 1][KIND] == "DOT":
                if i + 2 < len(tokens) and tokens[i + 2][KIND] in ("IDENT", "QIDENT"):
                    refs.append((text, tokens[i + 2][TEXT]))
                    i += 3
                elif i + 2 < len(tokens) and tokens[i + 2][KIND] == "STAR":
                    refs.append((text, "*"))
                    i += 3
                else:
                    i += 2
                continue
            if i + 1 < len(tokens) and tokens[i + 1][KIND] == "LPAREN":
                i += 1  # function name, not a column
                continue
            refs.append((None, text))
        elif kind == "STAR" and (i == 0 or tokens[i - 1][KIND] == "COMMA"):
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
