"""Workload loading, query selection, and usage-set construction.

A workload is a JSON-lines file of queries, either with explicit attribute
lists (jsonl-attrs) or raw SQL (jsonl-sql). Selection picks the m queries to
analyze (all, seeded random sample, or timestamp interval); the usage
threshold then decides which attributes are frequent enough to keep. The
result is a UsageSet: each kept query's attribute indices over a densely
packed catalog view, held as the CSR arrays the matrix pipeline reads.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .catalog import AttributeCatalog, encodes_as_utf8, read_lines
from .errors import EmptyAnalysisError, SelectionError, SqlSyntaxError, WorkloadFormatError
from .matrices import qaum_csv_pieces, qaum_json_pieces
from .sql_columns import extract_attributes

WORKLOAD_FORMATS = ("jsonl-attrs", "jsonl-sql")
_DROPPED_KEYS = frozenset(("query_id", "reason"))  # a dropped entry's keys
_DIAGNOSTIC_KEYS = frozenset(("query_id", "unknown_identifiers"))  # a diagnostics entry's keys


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
        modes = {"all": (), "random": ("count", "seed"), "interval": ("start", "end")}
        used = modes.get(self.mode) if isinstance(self.mode, str) else None  # a list or a dict is unhashable
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


def _first_id_fault(query_ids: tuple) -> tuple[int, str | None, dict[str, None]]:
    """The position of the first query id that is not a distinct non-empty string with a UTF-8
    encoding and what is wrong with it, by the first rule it breaks (len(query_ids) and None when no
    id is); and the ids before that position, as the keys of a dict, which packs them tighter than a set."""
    seen: dict[str, None] = {}
    for position, qid in enumerate(query_ids):
        fault = (f"query id {qid!r} is not a string" if not isinstance(qid, str)
                 else "empty query id" if not qid
                 else f"query id {qid!r} has no UTF-8 encoding" if not encodes_as_utf8(qid)
                 else f"duplicate query id {qid!r}" if qid in seen
                 else None)
        if fault:
            return position, fault, seen
        seen[qid] = None
    return len(query_ids), None, seen


@dataclass(frozen=True, eq=False)
class UsageSet:
    """Selected queries as attribute index sets over the surviving catalog: the pipeline's QAUM.

    Kept queries are held as CSR arrays, the one form a usage set and the
    QAUM take: query q, named query_ids[q], uses the attributes
    indices[indptr[q]:indptr[q + 1]], strictly ascending; both arrays are
    stored as read-only int64, and arrays that do not hold integers are
    refused. Query ids are distinct non-empty strings, and every index lies
    within the catalog. dropped holds one {"query_id", "reason"} entry per
    query removed for an empty attribute set; diagnostics holds one
    {"query_id", "unknown_identifiers"} entry per query with identifiers that
    matched no catalog attribute. Both are reporting-only and do not affect
    matrices. Across fields, as build_usage_set writes them: a dropped id is
    non-empty, neither kept nor repeated, and a diagnostics id names a kept or
    dropped query, is not repeated and lists at least one identifier, none
    twice (an empty one and case variants pass). One walk over the ids
    (_first_id_fault) checks them and keeps them as a dict's keys, which the
    entry checks reuse; _check_queries finds the first query with an empty
    row, an index outside the catalog or one out of ascending order; one
    walk over each report field checks its entries. The first offending
    query or entry is named, by the first rule it breaks. csv_pieces and
    json_pieces render the QAUM's files from the arrays.
    """

    query_ids: tuple[str, ...]
    catalog: AttributeCatalog
    indptr: np.ndarray  # int64, shape (m + 1,): 0, then the end of each query's slice of indices
    indices: np.ndarray  # int64, shape (indptr[m],): each query's attribute indices, ascending
    dropped: tuple[dict, ...] = ()
    diagnostics: tuple[dict, ...] = ()

    def __post_init__(self):
        if not isinstance(self.catalog, AttributeCatalog):
            raise TypeError(f"a usage set needs an AttributeCatalog, got {self.catalog!r}")
        query_ids = tuple(self.query_ids)
        try:
            indptr, indices = np.asarray(self.indptr), np.asarray(self.indices)
        except ValueError as exc:  # a ragged list is no array
            raise WorkloadFormatError(f"usage set indptr and indices must be integer arrays: {exc}") from None
        if any(a.size and a.dtype.kind not in "iu" for a in (indptr, indices)):  # a bool or a float is no index
            raise WorkloadFormatError(
                f"usage set indptr and indices must be integers, got {indptr.dtype} and {indices.dtype}"
            )
        indptr, indices = indptr.astype(np.int64), indices.astype(np.int64)
        m = len(query_ids)
        if indptr.shape != (m + 1,) or indptr[0] != 0 or indices.shape != (indptr[-1],) or np.any(np.diff(indptr) < 0):
            raise WorkloadFormatError(
                "usage set indptr must run from 0 to len(indices), one step per query, never decreasing"
            )
        indptr.setflags(write=False)
        indices.setflags(write=False)
        for name, value in (("query_ids", query_ids), ("indptr", indptr), ("indices", indices),
                            ("dropped", tuple(self.dropped)), ("diagnostics", tuple(self.diagnostics))):
            object.__setattr__(self, name, value)
        self._check_entries(self._check_queries())

    def _check_queries(self) -> dict[str, None]:
        """The kept ids, as a dict's keys; else WorkloadFormatError names the first query that breaks a
        rule, by the first rule it breaks."""
        ids, indptr, indices = self.query_ids, self.indptr, self.indices
        m = len(ids)
        lengths = np.diff(indptr)
        outside = (indices < 0) | (indices >= len(self.catalog))
        unordered = indices[1:] <= indices[:-1]
        starts = indptr[1:-1]
        unordered[starts[(starts > 0) & (starts < indices.size)] - 1] = False  # a new row may start lower
        # the first query that breaks each rule; a mask's first entry lies in the row whose slice holds it
        # (entry i of unordered compares i with i + 1)
        id_first, fault, kept = _first_id_fault(ids)
        empty = int(np.argmin(lengths)) if m and not lengths.all() else m
        outside, unordered = (int(np.searchsorted(indptr, mask.argmax(), side="right")) - 1 if mask.any() else m
                              for mask in (outside, unordered))
        first = min(id_first, empty, outside, unordered)
        if first == m:
            return kept
        qid = ids[first]
        if first != id_first:
            fault = (f"query {qid!r} has an empty attribute set" if first == empty
                     else f"query {qid!r} has an attribute index outside the catalog" if first == outside
                     else f"query {qid!r} lists an attribute index twice or out of ascending order")
        raise WorkloadFormatError(fault)

    def _check_entries(self, kept: dict[str, None]) -> None:
        # the entries build_usage_set writes, and nothing else: one per dropped query, and at most
        # one per kept or dropped query that had unknown identifiers
        dropped_ids: set[str] = set()
        for entry in self.dropped:
            if not (isinstance(entry, dict) and entry.keys() == _DROPPED_KEYS
                    and all(map(isinstance, entry.values(), repeat(str)))):
                raise WorkloadFormatError(f"dropped entry {entry!r} is not a query_id and a reason")
            qid = entry["query_id"]
            if not qid:
                raise WorkloadFormatError(f"dropped entry {entry!r} has an empty query id")
            if qid in kept:
                raise WorkloadFormatError(f"dropped query {qid!r} is also a kept query")
            if qid in dropped_ids:
                raise WorkloadFormatError(f"duplicate dropped query id {qid!r}")
            dropped_ids.add(qid)
        diagnosed: set[str] = set()
        for entry in self.diagnostics:
            if not (isinstance(entry, dict) and entry.keys() == _DIAGNOSTIC_KEYS
                    and isinstance(qid := entry["query_id"], str)
                    and isinstance(identifiers := entry["unknown_identifiers"], list)
                    and all(map(isinstance, identifiers, repeat(str)))):
                raise WorkloadFormatError(f"diagnostics entry {entry!r} is not a query_id and a list of identifiers")
            if not identifiers:
                raise WorkloadFormatError(f"diagnostics entry for query {qid!r} lists no unknown identifiers")
            if len(identifiers) > 1 and len(set(identifiers)) != len(identifiers):  # one name never repeats
                raise WorkloadFormatError(f"diagnostics entry for query {qid!r} repeats an unknown identifier")
            if qid not in kept and qid not in dropped_ids:
                raise WorkloadFormatError(f"diagnostics entry names query {qid!r}, which is neither kept nor dropped")
            if qid in diagnosed:
                raise WorkloadFormatError(f"duplicate diagnostics query id {qid!r}")
            diagnosed.add(qid)

    def __eq__(self, other):
        """Equal when every field is: the arrays element by element, the rest as values."""
        if not isinstance(other, UsageSet):
            return NotImplemented
        return (self.query_ids == other.query_ids and self.catalog == other.catalog
                and np.array_equal(self.indptr, other.indptr) and np.array_equal(self.indices, other.indices)
                and self.dropped == other.dropped and self.diagnostics == other.diagnostics)

    def csv_pieces(self, precision: int | None = None) -> Iterator[str]:
        del precision  # binary cells, nothing to round
        return qaum_csv_pieces(self)

    def json_pieces(self) -> Iterator[str]:
        return qaum_json_pieces(self)

    @property
    def query_count(self) -> int:
        return len(self.query_ids)

    @property
    def attribute_count(self) -> int:
        return len(self.catalog)


def load_workload(path: str | Path, format: str) -> list[QueryRecord]:
    """Parse a JSON-lines workload file into records, preserving file order.

    The file is read a line at a time, never whole. Malformed lines raise
    WorkloadFormatError carrying the 1-based line number; duplicate query ids
    are rejected. A UTF-8 byte order mark is skipped.
    """
    if format not in WORKLOAD_FORMATS:
        raise WorkloadFormatError(f"unknown workload format {format!r}")

    body_key = "attrs" if format == "jsonl-attrs" else "sql"
    other_key = "sql" if body_key == "attrs" else "attrs"
    records: list[QueryRecord] = []
    seen_ids: dict[str, None] = {}  # a dict's keys pack tighter than a set
    names: dict[str, str] = {}  # one string per distinct attribute name, shared by every record naming it
    for lineno, raw in read_lines(path, "workload"):
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
        seen_ids[qid] = None
        ts = obj.get("ts")
        if ts is not None and (isinstance(ts, bool) or not isinstance(ts, int)):
            raise WorkloadFormatError(f"query {qid!r}: ts must be integer epoch milliseconds", lineno)
        if other_key in obj:
            raise WorkloadFormatError(f"query {qid!r}: unexpected {other_key!r} key in {format} input", lineno)
        body = obj.get(body_key)
        if body_key == "attrs":
            if not isinstance(body, list) or any(not isinstance(a, str) or not a for a in body):
                raise WorkloadFormatError(f"query {qid!r}: attrs must be a list of non-empty strings", lineno)
            records.append(QueryRecord(id=qid, timestamp=ts, attrs=tuple(map(names.setdefault, body, body))))
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

    ids: list[str] = []
    flat: list[int] = []  # every query's indices, each query's ascending, end to end
    lengths: list[int] = []
    diagnostics: list[dict] = []
    for rec in records:
        indices, unknown = _record_indices(rec, catalog)
        if unknown:
            diagnostics.append({"query_id": rec.id, "unknown_identifiers": unknown})
        ids.append(rec.id)
        flat += sorted(indices)
        lengths.append(len(indices))
    indices = np.array(flat, dtype=np.int64)
    del flat
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])

    denominator = len(records)
    uses = np.bincount(indices, minlength=len(catalog))
    keep = np.flatnonzero(uses / denominator >= usage_threshold)
    if not keep.size:
        raise EmptyAnalysisError(
            f"usage threshold {usage_threshold} removes every attribute ({denominator} queries selected)"
        )
    if keep.size < len(catalog):
        remap = np.full(len(catalog), -1, dtype=np.int64)  # old index -> new, -1 for a removed attribute
        remap[keep] = np.arange(keep.size)
        indices = remap[indices]  # remap ascends, so each query's indices still do
        used = indices >= 0
        indptr = np.concatenate(([0], np.cumsum(used)))[indptr]
        indices = indices[used]
    kept = indptr[1:] > indptr[:-1]
    if not kept.any():
        raise EmptyAnalysisError("every query was dropped: no attribute usage to analyze")
    dropped = [{"query_id": qid, "reason": "empty attribute set after filtering"}
               for qid in compress(ids, (~kept).tolist())]

    return UsageSet(
        query_ids=tuple(compress(ids, kept.tolist())),
        catalog=catalog.subset(keep.tolist()),
        indptr=np.concatenate(([0], indptr[1:][kept])),  # a dropped query's slice is empty
        indices=indices,
        dropped=tuple(dropped),
        diagnostics=tuple(diagnostics),
    )
