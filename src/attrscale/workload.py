"""Workload loading, query selection, and usage-set construction.

A workload is a JSON-lines file of queries, either with explicit attribute
lists (jsonl-attrs) or raw SQL (jsonl-sql). Selection picks the m queries to
analyze (all, seeded random sample, or timestamp interval); the usage
threshold then decides which attributes are frequent enough to keep. The
result is a UsageSet: per-query attribute index sets over a densely packed
catalog view, ready for the matrix pipeline.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import AttributeCatalog
from .errors import EmptyAnalysisError, SelectionError, WorkloadFormatError
from .sql_columns import extract_attributes

WORKLOAD_FORMATS = ("jsonl-attrs", "jsonl-sql")


@dataclass(frozen=True)
class QueryRecord:
    """One workload query; exactly one of sql/attrs is set."""

    id: str
    timestamp: int | None = None  # epoch milliseconds
    sql: str | None = None
    attrs: tuple[str, ...] | None = None

    def __post_init__(self):
        if (self.sql is None) == (self.attrs is None):
            raise WorkloadFormatError(f"query {self.id!r} must carry exactly one of sql/attrs")


@dataclass(frozen=True)
class SelectionSpec:
    """How to pick queries and which attributes are frequent enough to keep."""

    mode: str = "all"  # all | random | interval
    count: int | None = None
    seed: int | None = None
    start: int | None = None
    end: int | None = None
    usage_threshold: float = 0.0

    def __post_init__(self):
        if self.mode not in ("all", "random", "interval"):
            raise SelectionError(f"unknown selection mode {self.mode!r}")
        if self.mode == "random":
            if self.count is None or self.count < 1:
                raise SelectionError("random selection needs count >= 1")
            if self.seed is None:
                raise SelectionError("random selection needs an explicit seed")
        if self.mode == "interval":
            if self.start is None or self.end is None or self.start > self.end:
                raise SelectionError("interval selection needs start <= end")
        if not 0.0 <= self.usage_threshold <= 1.0:
            raise SelectionError(f"usage threshold must be in [0,1], got {self.usage_threshold}")


@dataclass(frozen=True)
class UsageSet:
    """Selected queries as attribute index sets over the surviving catalog.

    dropped holds one entry per query removed for an empty attribute set;
    diagnostics holds one entry per query with identifiers that matched no
    catalog attribute. Both are reporting-only and do not affect matrices.
    """

    queries: tuple[tuple[str, frozenset[int]], ...]
    catalog: AttributeCatalog
    dropped: tuple[dict, ...] = field(default_factory=tuple)
    diagnostics: tuple[dict, ...] = field(default_factory=tuple)

    def __post_init__(self):
        n = len(self.catalog)
        for qid, indices in self.queries:
            if not isinstance(qid, str):
                raise WorkloadFormatError(f"query id {qid!r} is not a string")
            if not indices:
                raise WorkloadFormatError(f"query {qid!r} has an empty attribute set")
            if any(i < 0 or i >= n for i in indices):
                raise WorkloadFormatError(f"query {qid!r} has an attribute index outside the catalog")

    @property
    def query_count(self) -> int:
        return len(self.queries)

    @property
    def attribute_count(self) -> int:
        return len(self.catalog)


def load_workload(path: str | Path, format: str) -> list[QueryRecord]:
    """Parse a JSON-lines workload file into records, preserving file order.

    Malformed lines raise WorkloadFormatError carrying the 1-based line
    number; duplicate query ids are rejected.
    """
    if format not in WORKLOAD_FORMATS:
        raise WorkloadFormatError(f"unknown workload format {format!r}")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise WorkloadFormatError(f"cannot read workload {path}: {exc.strerror or exc}") from exc

    body_key = "attrs" if format == "jsonl-attrs" else "sql"
    other_key = "sql" if body_key == "attrs" else "attrs"
    records: list[QueryRecord] = []
    seen_ids: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WorkloadFormatError(f"invalid JSON: {exc.msg}", lineno) from None
        if not isinstance(obj, dict):
            raise WorkloadFormatError("record must be a JSON object", lineno)
        qid = obj.get("id")
        if not isinstance(qid, str) or not qid:
            raise WorkloadFormatError("record needs a non-empty string id", lineno)
        if qid in seen_ids:
            raise WorkloadFormatError(f"duplicate query id {qid!r}", lineno)
        seen_ids.add(qid)
        ts = obj.get("ts")
        if ts is not None and (isinstance(ts, bool) or not isinstance(ts, int)):
            raise WorkloadFormatError(f"query {qid!r}: ts must be integer epoch milliseconds", lineno)
        if other_key in obj:
            raise WorkloadFormatError(f"query {qid!r}: unexpected {other_key!r} key in {format} input", lineno)
        body = obj.get(body_key)
        if body_key == "attrs":
            if not isinstance(body, list) or any(not isinstance(a, str) or not a for a in body):
                raise WorkloadFormatError(f"query {qid!r}: attrs must be a list of non-empty strings", lineno)
            records.append(QueryRecord(id=qid, timestamp=ts, attrs=tuple(body)))
        else:
            if not isinstance(body, str) or not body.strip():
                raise WorkloadFormatError(f"query {qid!r}: sql must be a non-empty string", lineno)
            records.append(QueryRecord(id=qid, timestamp=ts, sql=body))
    return records


def select_queries(records: list[QueryRecord], spec: SelectionSpec) -> list[QueryRecord]:
    """Apply the selection mode; output order always follows input order."""
    if spec.mode == "all":
        return list(records)
    if spec.mode == "random":
        k = min(spec.count, len(records))
        rng = random.Random(spec.seed)
        chosen = sorted(rng.sample(range(len(records)), k))
        return [records[i] for i in chosen]
    # interval
    for rec in records:
        if rec.timestamp is None:
            raise SelectionError(f"interval selection requires timestamps; query {rec.id!r} has none")
    return [r for r in records if spec.start <= r.timestamp <= spec.end]


def _record_indices(rec: QueryRecord, catalog: AttributeCatalog) -> tuple[set[int], list[str]]:
    """Attribute indices referenced by one record, plus unknown identifiers."""
    unknown: list[str] = []
    if rec.attrs is not None:
        indices: set[int] = set()
        for name in rec.attrs:
            idx = catalog.index_of(name)
            if idx is None:
                if name not in unknown:
                    unknown.append(name)
            else:
                indices.add(idx)
        return indices, unknown
    return extract_attributes(rec.sql, catalog, diagnostics=unknown), unknown


def build_usage_set(
    records: list[QueryRecord],
    catalog: AttributeCatalog,
    usage_threshold: float = 0.0,
) -> UsageSet:
    """Resolve attribute usage per query and apply the usage threshold.

    Usage ratio = (queries using the attribute) / (queries selected); the
    denominator is fixed before any query is dropped. Attributes with ratio
    < usage_threshold are removed everywhere and indices re-packed densely;
    queries whose sets end up empty are dropped into the drop log. Raises
    EmptyAnalysisError when no attribute or no query survives.
    """
    if not 0.0 <= usage_threshold <= 1.0:
        raise SelectionError(f"usage threshold must be in [0,1], got {usage_threshold}")
    if not records:
        raise EmptyAnalysisError("no queries selected")

    per_query: list[tuple[str, set[int]]] = []
    diagnostics: list[dict] = []
    uses = [0] * len(catalog)
    for rec in records:
        indices, unknown = _record_indices(rec, catalog)
        if unknown:
            diagnostics.append({"query_id": rec.id, "unknown_identifiers": unknown})
        per_query.append((rec.id, indices))
        for i in indices:
            uses[i] += 1

    denominator = len(records)
    keep = [i for i in range(len(catalog)) if uses[i] / denominator >= usage_threshold]
    if not keep:
        raise EmptyAnalysisError(
            f"usage threshold {usage_threshold} removes every attribute ({denominator} queries selected)"
        )
    remap = {old: new for new, old in enumerate(keep)}

    queries: list[tuple[str, frozenset[int]]] = []
    dropped: list[dict] = []
    for qid, indices in per_query:
        packed = frozenset(remap[i] for i in indices if i in remap)
        if packed:
            queries.append((qid, packed))
        else:
            dropped.append({"query_id": qid, "reason": "empty attribute set after filtering"})
    if not queries:
        raise EmptyAnalysisError("every query was dropped: no attribute usage to analyze")

    return UsageSet(
        queries=tuple(queries),
        catalog=catalog.subset(keep),
        dropped=tuple(dropped),
        diagnostics=tuple(diagnostics),
    )
