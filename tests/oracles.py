"""Independent slow-path reimplementations used to cross-check the pipeline.

Everything here is deliberately naive: triple loops over index sets and
exact rational arithmetic, no numpy, and no calls into the package's own
math. If the fast path and these agree, both are probably right. The
object forms the package does not build live here too: a matrix file's
JSON object (json_obj), a usage set's (id, index set) pairs (usage_set,
usage_rows) and the QAUM's dense 0/1 grid (usage_from_cells, dense; these
two use numpy, as a grid of 10⁷ cells is too slow to walk in Python).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np

from attrscale import AttributeCatalog, UsageSet


def oracle_adm(rows: list[set[int]], n: int) -> tuple[list[list[int]], list[int]]:
    """Co-occurrence counts and per-row totals by direct enumeration."""
    counts = [[0] * n for _ in range(n)]
    for used in rows:
        for h in used:
            for k in used:
                if h != k:
                    counts[h][k] += 1
    return counts, [sum(row) for row in counts]


def oracle_pdm(counts: list[list[int]], tm: list[int]) -> list[list[Fraction | None]]:
    n = len(counts)
    return [
        [
            Fraction(counts[h][k], tm[h]) if h != k and counts[h][k] > 0 and tm[h] > 0 else None
            for k in range(n)
        ]
        for h in range(n)
    ]


def oracle_mvsd(counts: list[list[int]], pdm: list[list[Fraction | None]]):
    """Exact-rational mean and variance per row, plus the float SD."""
    means: list[Fraction | None] = []
    variances: list[Fraction | None] = []
    sds: list[float | None] = []
    for h, row in enumerate(pdm):
        cells = [(p, counts[h][k]) for k, p in enumerate(row) if p is not None]
        if not cells:
            means.append(None)
            variances.append(None)
            sds.append(None)
            continue
        mean = sum((p * x for p, x in cells), Fraction(0))
        var = sum((p * (x - mean) ** 2 for p, x in cells), Fraction(0))
        means.append(mean)
        variances.append(var)
        sds.append(math.sqrt(var))
    return means, variances, sds


def oracle_nsm(
    counts: list[list[int]], tm: list[int], sds: list[float | None]
) -> list[list[float | None]]:
    n = len(counts)
    out: list[list[float | None]] = [[None] * n for _ in range(n)]
    for h in range(n):
        for k in range(n):
            if h == k or counts[h][k] == 0 or tm[h] == 0:
                continue
            if sds[h] is None or sds[k] is None:
                continue
            out[h][k] = abs(sds[h] - sds[k]) / counts[h][k]
    return out


def oracle_nnsm(nsm: list[list[float | None]]) -> list[list[float | None]]:
    n = len(nsm)
    out: list[list[float | None]] = [[None] * n for _ in range(n)]
    for h in range(n):
        defined = [v for v in nsm[h] if v is not None]
        if not defined:
            continue
        peak = max(defined)
        for k, v in enumerate(nsm[h]):
            if v is not None:
                out[h][k] = (v / peak) * 10.0 if peak > 0 else 0.0
    return out


def oracle_rank_min(nnsm: list[list[float | None]], names: tuple[str, ...]):
    """Strongest-first unordered pairs: (score, a, b) with the same
    direction and tie-break rules the package documents."""
    n = len(names)
    entries = []
    for h in range(n):
        for k in range(h + 1, n):
            cells = []
            if nnsm[h][k] is not None:
                cells.append((nnsm[h][k], h, k))
            if nnsm[k][h] is not None:
                cells.append((nnsm[k][h], k, h))
            if not cells:
                continue
            score, a, b = min(cells)
            entries.append((score, names[a], names[b]))
    entries.sort()
    return entries


def oracle_rank_row(nnsm: list[list[float | None]], names: tuple[str, ...]):
    """Strongest-first directed cells: (score, a, b), ties broken by name pair."""
    n = len(names)
    entries = [
        (nnsm[h][k], names[h], names[k])
        for h in range(n)
        for k in range(n)
        if h != k and nnsm[h][k] is not None
    ]
    entries.sort()
    return entries


def _masked(cells: list, shown: list) -> list:
    """cells (a row, or nested rows) with None wherever shown is False."""
    return [_masked(c, s) if isinstance(c, list) else (c if s else None) for c, s in zip(cells, shown)]


def json_obj(matrix) -> dict:
    """The object a matrix's JSON file encodes: its kind, labels and grids, None at undefined cells.
    The reference the matrix writers are checked against."""
    kind = type(matrix).__name__
    if kind == "UsageSet":
        labels = list(matrix.catalog.attributes)
        return {"kind": "QAUM", "query_ids": list(matrix.query_ids), "attributes": labels, "cells": dense(matrix).tolist()}
    labels = list(matrix.attributes)
    if kind == "DependencyMatrix":
        off_diagonal = [[h != k for k in range(len(labels))] for h in range(len(labels))]
        return {
            "kind": "ADM",
            "attributes": labels,
            "counts": _masked(matrix.counts.tolist(), off_diagonal),
            "total_measure": matrix.total_measure.tolist(),
        }
    if kind == "StatsTable":
        shown = matrix.defined.tolist()
        stats = {name: _masked(getattr(matrix, name).tolist(), shown) for name in ("mean", "variance", "sd")}
        return {"kind": "MVSD", "attributes": labels, **stats}
    return {"kind": matrix.kind, "attributes": labels, "values": _masked(matrix.values.tolist(), matrix.defined.tolist())}


def usage_set(pairs, catalog, **reports):
    """The UsageSet of (id, index set) pairs, each set's indices sorted into its row of the CSR arrays;
    reports are its dropped and diagnostics entries."""
    pairs = tuple(pairs)
    rows = [sorted(indices) for _, indices in pairs]
    indptr = [0, *accumulate(map(len, rows))]
    return UsageSet(tuple(qid for qid, _ in pairs), catalog, indptr, [i for row in rows for i in row], **reports)


def usage_rows(usage) -> list[tuple[str, list[int]]]:
    """(id, ascending indices) of every kept query of a usage set, read from its CSR arrays."""
    flat, bounds = usage.indices.tolist(), usage.indptr.tolist()
    return [(qid, flat[lo:hi]) for qid, lo, hi in zip(usage.query_ids, bounds, bounds[1:])]


def usage_from_cells(cells, names, query_ids=None):
    """The UsageSet of a dense 0/1 grid over a catalog of names, row i being query query_ids[i] (q{i} by
    default); as build_usage_set does, only the rows that use an attribute are kept."""
    cells = np.asarray(cells, dtype=bool)
    ids = query_ids or [f"q{i}" for i in range(len(cells))]
    kept = np.flatnonzero(cells.any(axis=1))
    indptr = np.concatenate(([0], np.cumsum(cells[kept].sum(axis=1))))
    return UsageSet(tuple(ids[i] for i in kept.tolist()), AttributeCatalog(tuple(names)), indptr, np.nonzero(cells[kept])[1])


def dense(usage) -> np.ndarray:
    """The QAUM's dense uint8 0/1 grid of shape (m, n), from a usage set's CSR arrays."""
    cells = np.zeros((usage.query_count, usage.attribute_count), dtype=np.uint8)
    cells[np.repeat(np.arange(usage.query_count), np.diff(usage.indptr)), usage.indices] = 1
    return cells
