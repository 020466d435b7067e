"""Seeded input generators for the benchmark workloads.

Each generator returns the files the program reads plus the ground truth the
verifier recomputes from: for every query, the set of catalog indices it
uses. The same seed always yields the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class GeneratedLog:
    """A workload file, its catalog, and the per-query ground truth."""

    catalog: tuple[str, ...]
    query_ids: tuple[str, ...]
    truth: tuple[frozenset[int], ...]  # catalog indices used by each query
    unknown: tuple[str | None, ...]  # the unknown identifier each query carries, if any
    lines: tuple[str, ...]  # JSON lines of the workload file

    def write(self, workload_path: Path, catalog_path: Path) -> None:
        workload_path.write_text("".join(line + "\n" for line in self.lines), encoding="utf-8")
        catalog_path.write_text("".join(name + "\n" for name in self.catalog), encoding="utf-8")


def usage_cells(n: int, m: int, seed: int) -> np.ndarray:
    """The acceptance suite's synthetic_usage distribution as an m×n uint8 matrix.

    Each cell is used with probability 1%; a query left empty gets one
    uniformly chosen attribute, so every query has at least one.
    """
    rng = np.random.default_rng(seed)
    cells = (rng.random((m, n)) < 0.01).astype(np.uint8)
    empty = np.flatnonzero(cells.sum(axis=1) == 0)
    cells[empty, rng.integers(0, n, size=len(empty))] = 1
    return cells


def attrs_log(n: int, m: int, seed: int) -> GeneratedLog:
    """jsonl-attrs log whose usage follows usage_cells; query i has timestamp 1000·(i+1)."""
    cells = usage_cells(n, m, seed)
    catalog = tuple(f"c{k}" for k in range(n))
    truth, lines = [], []
    for i, row in enumerate(cells):
        used = np.flatnonzero(row)
        truth.append(frozenset(int(k) for k in used))
        attrs = json.dumps([catalog[k] for k in used])
        lines.append(f'{{"id": "q{i}", "ts": {1000 * (i + 1)}, "attrs": {attrs}}}')
    return GeneratedLog(
        catalog=catalog,
        query_ids=tuple(f"q{i}" for i in range(m)),
        truth=tuple(truth),
        unknown=(None,) * m,
        lines=tuple(lines),
    )


_TABLES = ("sales", "orders", "items", "users", "events")
_AGGS = ("SUM", "MAX", "MIN", "AVG", "COUNT")
_ZIPF_S = 1.1  # column popularity falls off as 1/(k+1)^_ZIPF_S
_RARE = 4  # trailing columns made rare enough for a usage threshold to drop


def _kw(word: str, upper: bool) -> str:
    return word.upper() if upper else word.lower()


def sql_log(n: int, m: int, seed: int) -> GeneratedLog:
    """jsonl-sql log over the extractor's supported SELECT subset.

    Column popularity is Zipf-skewed, except that the last _RARE columns get a
    tenth of the least popular Zipf weight, so a usage threshold between the
    two drops exactly those few on every seed. Statements use table aliases,
    alias.column qualifiers, INNER/LEFT joins, aggregates with output aliases,
    WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, mixed keyword and identifier case,
    and exactly one identifier that is not in the catalog.
    """
    rng = np.random.default_rng(seed)
    catalog = tuple(f"attr_{k:02d}" for k in range(n))
    weights = 1.0 / np.arange(1, n + 1) ** _ZIPF_S
    weights[n - _RARE :] = weights[n - _RARE - 1] / 10
    weights /= weights.sum()
    truth, unknown, lines = [], [], []
    for i in range(m):
        upper = bool(rng.integers(2))
        kw = lambda w: _kw(w, upper)  # noqa: E731
        k = int(rng.integers(2, 8))
        cols = [int(c) for c in rng.choice(n, size=k, replace=False, p=weights)]

        def ident(c: int, qualifier: str | None) -> str:
            name = catalog[c].upper() if rng.random() < 0.2 else catalog[c]
            return name if qualifier is None else f"{qualifier}.{name}"

        t1, t2 = (str(t) for t in rng.choice(_TABLES, size=2, replace=False))
        a1, a2 = t1[0], t2[0] + "2"
        joined = rng.random() < 0.5
        quals = [a1, a2] if joined else [a1]

        def q() -> str | None:
            return None if rng.random() < 0.5 else quals[int(rng.integers(len(quals)))]

        # split the chosen columns over the clauses; the first always lands in the select list
        n_select = int(rng.integers(1, len(cols) + 1))
        select_cols, rest = cols[:n_select], cols[n_select:]
        items, aliases = [], []
        for j, c in enumerate(select_cols):
            if rng.random() < 0.3:
                alias = f"total_{j}"
                func = _AGGS[int(rng.integers(len(_AGGS)))]
                inner = f"{kw('distinct')} {ident(c, q())}" if func == "COUNT" and rng.random() < 0.5 else ident(c, q())
                items.append(f"{kw(func)}({inner}) {kw('as')} {alias}")
                aliases.append(alias)
            else:
                items.append(ident(c, q()))
        if rng.random() < 0.2:
            items.append(f"{kw('count')}(*)")
        sql = f"{kw('select')} {', '.join(items)} {kw('from')} {t1} {a1}"
        if joined:
            join = kw("left join") if rng.random() < 0.5 else kw("inner join")
            if rng.random() < 0.3:
                join = kw("left outer join")
            on_col = rest.pop(0) if rest else select_cols[0]
            sql += f" {join} {t2} {kw('as')} {a2} {kw('on')} {a1}.{catalog[on_col]} = {a2}.{catalog[on_col]}"

        mystery = f"zz_legacy_{int(rng.integers(50))}"
        conds = [f"{mystery} = {int(rng.integers(100))}"]
        where_cols, rest = rest[: max(0, len(rest) - 2)], rest[max(0, len(rest) - 2) :]
        for c in where_cols:
            shape = int(rng.integers(5))
            ref = ident(c, q())
            if shape == 0:
                conds.append(f"{ref} = 'v{int(rng.integers(1000))}'")
            elif shape == 1:
                conds.append(f"{ref} > {int(rng.integers(100))}")
            elif shape == 2:
                conds.append(f"{ref} {kw('is not null')}")
            elif shape == 3:
                conds.append(f"{ref} {kw('between')} 1 {kw('and')} {int(rng.integers(2, 50))}")
            else:
                conds.append(f"{ref} {kw('in')} (1, 2, {int(rng.integers(3, 9))})")
        rng.shuffle(conds)
        sql += f" {kw('where')} " + f" {kw('and')} ".join(conds)
        if rest:
            group = rest.pop(0)
            sql += f" {kw('group by')} {ident(group, q())}"
            if rest:
                sql += f" {kw('having')} {kw('count')}({ident(rest.pop(0), q())}) > {int(rng.integers(1, 5))}"
        order = aliases[0] if aliases else ident(select_cols[0], q())
        sql += f" {kw('order by')} {order} {kw('desc') if rng.random() < 0.5 else kw('asc')}"
        if rng.random() < 0.5:
            sql += f" {kw('limit')} {int(rng.integers(1, 500))}"
        truth.append(frozenset(cols))
        unknown.append(mystery)
        lines.append(json.dumps({"id": f"s{i}", "ts": 1000 * (i + 1), "sql": sql}))
    return GeneratedLog(
        catalog=catalog,
        query_ids=tuple(f"s{i}" for i in range(m)),
        truth=tuple(truth),
        unknown=tuple(unknown),
        lines=tuple(lines),
    )
