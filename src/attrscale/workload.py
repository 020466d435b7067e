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
from itertools import repeat
from pathlib import Path

from .catalog import AttributeCatalog, encodes_as_utf8, read_utf8
from .errors import EmptyAnalysisError, SelectionError, SqlSyntaxError, WorkloadFormatError
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
        used = {"all": (), "random": ("count", "seed"), "interval": ("start", "end")}.get(self.mode)
        if used is None:
            raise SelectionError(f"unknown selection mode {self.mode!r}")
        for name in ("count", "seed", "start", "end"):
            value = getattr(self, name)
            if value is None:
                continue
            if name not in used:
                raise SelectionError(f"{self.mode} selection takes no {name}, got {value!r}")
            if isinstance(value, bool) or not isinstance(value, int):
                raise SelectionError(f"selection {name} must be an integer, got {value!r}")
        if self.mode == "random":
            if self.count is None or self.count < 1:
                raise SelectionError("random selection needs count >= 1")
            if self.seed is None:
                raise SelectionError("random selection needs an explicit seed")
        if self.mode == "interval":
            if self.start is None or self.end is None or self.start > self.end:
                raise SelectionError("interval selection needs start <= end")
        if not isinstance(self.usage_threshold, float):  # a bool or an int is not what analyze writes
            raise SelectionError(f"usage threshold must be a float, got {self.usage_threshold!r}")
        if not 0.0 <= self.usage_threshold <= 1.0:
            raise SelectionError(f"usage threshold must be in [0,1], got {self.usage_threshold}")


@dataclass(frozen=True)
class UsageSet:
    """Selected queries as attribute index sets over the surviving catalog.

    Query ids are distinct non-empty strings. Every index is a Python int within the
    catalog; a bool, float, string or numpy integer is refused. dropped holds
    one {"query_id", "reason"} entry per query removed for an empty attribute
    set; diagnostics holds one {"query_id", "unknown_identifiers"} entry per
    query with identifiers that matched no catalog attribute. Both are
    reporting-only and do not affect matrices. Across fields, as
    build_usage_set writes them: a dropped id is non-empty, neither kept nor repeated,
    and a diagnostics id names a kept or dropped query, is not repeated and
    lists at least one identifier, none twice (an empty one and case variants pass).
    Each rule is written once, in one walk over each field, and the first offending query or entry is named.
    """

    queries: tuple[tuple[str, frozenset[int]], ...]
    catalog: AttributeCatalog
    dropped: tuple[dict, ...] = field(default_factory=tuple)
    diagnostics: tuple[dict, ...] = field(default_factory=tuple)

    def __post_init__(self):
        n = len(self.catalog)
        seen: set[str] = set()
        for qid, indices in self.queries:
            if not isinstance(qid, str):
                raise WorkloadFormatError(f"query id {qid!r} is not a string")
            if not qid:
                raise WorkloadFormatError("empty query id")
            if not encodes_as_utf8(qid):
                raise WorkloadFormatError(f"query id {qid!r} has no UTF-8 encoding")
            if qid in seen:
                raise WorkloadFormatError(f"duplicate query id {qid!r}")
            seen.add(qid)
            if not indices:
                raise WorkloadFormatError(f"query {qid!r} has an empty attribute set")
            if any(type(i) is not int or not 0 <= i < n for i in indices):
                raise WorkloadFormatError(f"query {qid!r} has an attribute index outside the catalog")
        # the entries build_usage_set writes, and nothing else: one per dropped query, and at most
        # one per kept or dropped query that had unknown identifiers
        dropped_ids: set[str] = set()
        for entry in self.dropped:
            if not (isinstance(entry, dict) and entry.keys() == {"query_id", "reason"}
                    and all(map(isinstance, entry.values(), repeat(str)))):
                raise WorkloadFormatError(f"dropped entry {entry!r} is not a query_id and a reason")
            qid = entry["query_id"]
            if not qid:
                raise WorkloadFormatError(f"dropped entry {entry!r} has an empty query id")
            if qid in seen:
                raise WorkloadFormatError(f"dropped query {qid!r} is also a kept query")
            if qid in dropped_ids:
                raise WorkloadFormatError(f"duplicate dropped query id {qid!r}")
            dropped_ids.add(qid)
        diagnosed: set[str] = set()
        for entry in self.diagnostics:
            if not (isinstance(entry, dict) and entry.keys() == {"query_id", "unknown_identifiers"}
                    and isinstance(entry["query_id"], str) and isinstance(entry["unknown_identifiers"], list)
                    and all(map(isinstance, entry["unknown_identifiers"], repeat(str)))):
                raise WorkloadFormatError(f"diagnostics entry {entry!r} is not a query_id and a list of identifiers")
            qid, identifiers = entry["query_id"], entry["unknown_identifiers"]
            if not identifiers:
                raise WorkloadFormatError(f"diagnostics entry for query {qid!r} lists no unknown identifiers")
            if len(set(identifiers)) != len(identifiers):
                raise WorkloadFormatError(f"diagnostics entry for query {qid!r} repeats an unknown identifier")
            if qid not in seen and qid not in dropped_ids:
                raise WorkloadFormatError(f"diagnostics entry names query {qid!r}, which is neither kept nor dropped")
            if qid in diagnosed:
                raise WorkloadFormatError(f"duplicate diagnostics query id {qid!r}")
            diagnosed.add(qid)

    @property
    def query_count(self) -> int:
        return len(self.queries)

    @property
    def attribute_count(self) -> int:
        return len(self.catalog)


def load_workload(path: str | Path, format: str) -> list[QueryRecord]:
    """Parse a JSON-lines workload file into records, preserving file order.

    Malformed lines raise WorkloadFormatError carrying the 1-based line
    number; duplicate query ids are rejected. A UTF-8 byte order mark is skipped.
    """
    if format not in WORKLOAD_FORMATS:
        raise WorkloadFormatError(f"unknown workload format {format!r}")
    text = read_utf8(path, "workload")

    body_key = "attrs" if format == "jsonl-attrs" else "sql"
    other_key = "sql" if body_key == "attrs" else "attrs"
    records: list[QueryRecord] = []
    seen_ids: set[str] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):  # not splitlines: U+2028 is legal raw in JSON
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, an over-long integer, or too deep a nesting
            raise WorkloadFormatError(f"invalid JSON: {getattr(exc, 'msg', exc)}", lineno) from None
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
    """Attribute indices referenced by one record, plus unknown identifiers (each once, in order)."""
    if rec.attrs is not None:
        resolved = {name: catalog.index_of(name) for name in rec.attrs}  # insertion-ordered, one entry per name
        return {i for i in resolved.values() if i is not None}, [name for name, i in resolved.items() if i is None]
    unknown: list[str] = []
    try:
        return extract_attributes(rec.sql, catalog, diagnostics=unknown), unknown
    except SqlSyntaxError as exc:
        raise type(exc)(exc.reason, exc.byte_offset, query_id=rec.id) from None


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
