"""Workload parsing, query selection, and usage-set construction."""

from __future__ import annotations

import dataclasses
import json
import random
import re
import tracemalloc

import numpy as np
import pytest

from attrscale import (
    AttributeCatalog,
    EmptyAnalysisError,
    QueryRecord,
    SelectionError,
    SelectionSpec,
    SqlSyntaxError,
    UnsupportedSqlError,
    UsageSet,
    WorkloadFormatError,
    build_usage_set,
    load_catalog,
    load_workload,
    select_queries,
)

from attrscale.cli import EXIT_INPUT_ERROR, main
from oracles import usage_rows, usage_set
from reference_tables import USAGE_ROWS


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def unknown_identifier_log(path, m: int, n: int, seed: int):
    """A jsonl-attrs log of m queries over the attributes c0..c{n-1}: each query uses 1 to 8 of them,
    and every odd one also names one unknown identifier. Returns (path, catalog)."""
    rng = random.Random(seed)
    names = [f"c{k}" for k in range(n)]
    with open(path, "w", encoding="utf-8") as fh:
        for q in range(m):
            attrs = rng.sample(names, rng.randint(1, min(8, n))) + ([f"zz{q}"] if q % 2 else [])
            fh.write(json.dumps({"id": f"q{q:05d}", "attrs": attrs}) + "\n")
    return path, AttributeCatalog(tuple(names))


def test_load_attrs_fixture(data_dir):
    records = load_workload(data_dir / "reference_workload_attrs.jsonl", "jsonl-attrs")
    assert [r.id for r in records] == [qid for qid, _ in USAGE_ROWS]
    assert records[0].attrs == USAGE_ROWS[0][1]
    assert records[0].timestamp == 1000 and records[9].timestamp == 10000
    assert all(r.sql is None for r in records)


def test_sql_and_attrs_fixtures_agree(data_dir, catalog):
    attrs_usage = build_usage_set(load_workload(data_dir / "reference_workload_attrs.jsonl", "jsonl-attrs"), catalog)
    sql_usage = build_usage_set(load_workload(data_dir / "reference_workload_sql.jsonl", "jsonl-sql"), catalog)
    assert usage_rows(attrs_usage) == usage_rows(sql_usage)
    assert sql_usage.diagnostics == ()


def test_blank_lines_skipped(tmp_path):
    path = write_lines(tmp_path / "w.jsonl", ['{"id": "q1", "attrs": ["a"]}', "", '{"id": "q2", "attrs": ["b"]}'])
    assert [r.id for r in load_workload(path, "jsonl-attrs")] == ["q1", "q2"]


@pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"])
def test_records_split_on_newline_only(tmp_path, separator):
    # json.dumps(..., ensure_ascii=False) writes these raw inside strings, and str.splitlines splits on them
    sql = json.dumps({"id": "q1", "sql": f"SELECT a1 FROM t -- note{separator}WHERE a2 = 1"}, ensure_ascii=False)
    attrs = json.dumps({"id": "q2", "attrs": [f"a{separator}b"]}, ensure_ascii=False)
    assert separator in sql and separator in attrs
    path = write_lines(tmp_path / "w.jsonl", [sql, ""])
    assert load_workload(path, "jsonl-sql")[0].sql.endswith(f"note{separator}WHERE a2 = 1")
    path = write_lines(tmp_path / "w.jsonl", [attrs, '{"id": "q3", "attrs": ["c"]}'])
    assert [r.attrs for r in load_workload(path, "jsonl-attrs")] == [(f"a{separator}b",), ("c",)]
    # so a catalog can declare that name: its lines split on newline only too
    catalog = load_catalog(write_lines(tmp_path / "cat.txt", [f"a{separator}b", "c"]))
    assert catalog.attributes == (f"a{separator}b", "c")


def test_crlf_line_endings_are_stripped(tmp_path):
    path = tmp_path / "w.jsonl"
    path.write_bytes(b'{"id": "q1", "attrs": ["a"]}\r\n{"id": "q2", "attrs": ["b"]}\r\n')
    assert [r.id for r in load_workload(path, "jsonl-attrs")] == ["q1", "q2"]


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("not json", "invalid JSON"),
        ("[1, 2]", "must be a JSON object"),
        ('{"attrs": ["a"]}', "non-empty string id"),
        ('{"id": "", "attrs": ["a"]}', "non-empty string id"),
        ('{"id": "q1", "ts": true, "attrs": ["a"]}', "ts must be integer"),
        ('{"id": "q1", "ts": "soon", "attrs": ["a"]}', "ts must be integer"),
        ('{"id": "q1", "sql": "SELECT a FROM t"}', "unexpected 'sql'"),
        ('{"id": "q1", "attrs": "a"}', "list of non-empty strings"),
        ('{"id": "q1", "attrs": ["a", ""]}', "list of non-empty strings"),
        ('{"id": "q1"}', "list of non-empty strings"),
    ],
)
def test_malformed_attrs_lines(tmp_path, line, fragment):
    path = write_lines(tmp_path / "w.jsonl", ['{"id": "q0", "attrs": ["a"]}', line])
    with pytest.raises(WorkloadFormatError, match=fragment) as exc_info:
        load_workload(path, "jsonl-attrs")
    assert exc_info.value.line_number == 2


def test_sql_format_rejects_attrs_key(tmp_path):
    path = write_lines(tmp_path / "w.jsonl", ['{"id": "q1", "attrs": ["a"]}'])
    with pytest.raises(WorkloadFormatError, match="unexpected 'attrs'"):
        load_workload(path, "jsonl-sql")


def test_sql_body_must_be_nonempty(tmp_path):
    path = write_lines(tmp_path / "w.jsonl", ['{"id": "q1", "sql": "  "}'])
    with pytest.raises(WorkloadFormatError, match="non-empty string"):
        load_workload(path, "jsonl-sql")


def test_duplicate_ids_rejected(tmp_path):
    path = write_lines(
        tmp_path / "w.jsonl",
        ['{"id": "q1", "attrs": ["a"]}', '{"id": "q1", "attrs": ["b"]}'],
    )
    with pytest.raises(WorkloadFormatError, match="duplicate query id"):
        load_workload(path, "jsonl-attrs")


def test_unknown_format_and_missing_file(tmp_path):
    with pytest.raises(WorkloadFormatError, match="unknown workload format"):
        load_workload(tmp_path / "w.jsonl", "csv")
    with pytest.raises(WorkloadFormatError, match="cannot read workload"):
        load_workload(tmp_path / "absent.jsonl", "jsonl-attrs")
    with pytest.raises(WorkloadFormatError, match="^cannot read workload .*: Is a directory$"):
        load_workload(tmp_path, "jsonl-attrs")


def test_record_needs_exactly_one_body():
    with pytest.raises(WorkloadFormatError):
        QueryRecord(id="q1")
    with pytest.raises(WorkloadFormatError):
        QueryRecord(id="q1", sql="SELECT a FROM t", attrs=("a",))


def records(n):
    return [QueryRecord(id=f"q{i}", timestamp=i * 1000, attrs=("a",)) for i in range(1, n + 1)]


def test_select_all_preserves_order():
    recs = records(5)
    assert select_queries(recs, SelectionSpec(mode="all")) == recs


def test_select_random_is_seeded_and_order_preserving():
    recs = records(20)
    spec = SelectionSpec(mode="random", count=7, seed=42)
    first = select_queries(recs, spec)
    second = select_queries(recs, spec)
    assert first == second
    assert len(first) == 7
    positions = [recs.index(r) for r in first]
    assert positions == sorted(positions)
    other = select_queries(recs, SelectionSpec(mode="random", count=7, seed=43))
    assert len(other) == 7  # usually a different subset, always the same size


def test_select_random_count_above_population_takes_all():
    recs = records(3)
    assert select_queries(recs, SelectionSpec(mode="random", count=10, seed=1)) == recs


def test_select_interval_inclusive_bounds():
    recs = records(5)
    picked = select_queries(recs, SelectionSpec(mode="interval", start=2000, end=4000))
    assert [r.id for r in picked] == ["q2", "q3", "q4"]


def test_select_interval_requires_timestamps():
    recs = [QueryRecord(id="q1", attrs=("a",))]
    with pytest.raises(SelectionError, match="requires timestamps"):
        select_queries(recs, SelectionSpec(mode="interval", start=0, end=1))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "pick"},
        {"mode": "random"},
        {"mode": "random", "count": 0, "seed": 1},
        {"mode": "random", "count": 3},
        {"mode": "interval", "start": 5, "end": 1},
        {"mode": "interval"},
        {"mode": "all", "usage_threshold": 1.5},
        {"mode": "all", "usage_threshold": -0.1},
        {"mode": "random", "count": float("nan"), "seed": 1},
        {"mode": "random", "count": 3.0, "seed": 1},
        {"mode": "random", "count": True, "seed": 1},
        {"mode": "random", "count": 3, "seed": float("nan")},
        {"mode": "random", "count": 3, "seed": float("inf")},
        {"mode": "random", "count": 3, "seed": "1"},
        {"mode": "all", "seed": float("nan")},
        {"mode": "interval", "start": float("nan"), "end": 5},
        {"mode": "interval", "start": 1, "end": float("inf")},
        {"mode": "interval", "start": False, "end": 5},
        {"mode": "all", "usage_threshold": True},
        {"mode": "all", "usage_threshold": 1},
        {"mode": "all", "usage_threshold": 0},
        {"mode": "all", "count": 5},
        {"mode": "all", "start": 1},
        {"mode": "random", "count": 3, "seed": 1, "end": 5},
        {"mode": "interval", "start": 1, "end": 5, "seed": 1},
        {"mode": "interval", "start": 1, "end": 5, "count": 2},
    ],
)
def test_selection_spec_validation(kwargs):
    with pytest.raises(SelectionError):
        SelectionSpec(**kwargs)


def test_usage_threshold_drops_rare_attributes(data_dir, catalog):
    recs = load_workload(data_dir / "reference_workload_attrs.jsonl", "jsonl-attrs")
    usage = build_usage_set(recs, catalog, usage_threshold=0.5)
    # a4, a7, a8 sit at 4/10 < 0.5; everything else is used by >= 5 queries
    assert usage.catalog.attributes == ("a1", "a2", "a3", "a5", "a6", "a9", "a10")
    assert usage.query_count == 10  # every query keeps at least one attribute
    assert usage.dropped == ()


def test_usage_threshold_denominator_is_fixed_before_drops():
    catalog = AttributeCatalog(("a", "b", "c"))
    recs = [
        QueryRecord(id="q1", attrs=("a", "b")),
        QueryRecord(id="q2", attrs=("a", "b")),
        QueryRecord(id="q3", attrs=("c",)),
    ]
    usage = build_usage_set(recs, catalog, usage_threshold=0.5)
    assert usage.catalog.attributes == ("a", "b")
    assert usage.query_ids == ("q1", "q2")
    assert usage.dropped == ({"query_id": "q3", "reason": "empty attribute set after filtering"},)


def test_indices_repacked_densely():
    catalog = AttributeCatalog(("a", "b", "c", "d"))
    recs = [
        QueryRecord(id="q1", attrs=("a", "d")),
        QueryRecord(id="q2", attrs=("a", "d")),
        QueryRecord(id="q3", attrs=("b", "d")),
    ]
    usage = build_usage_set(recs, catalog, usage_threshold=0.6)
    assert usage.catalog.attributes == ("a", "d")
    assert usage_rows(usage) == [("q1", [0, 1]), ("q2", [0, 1]), ("q3", [1])]


def test_threshold_removing_everything_is_empty_analysis(data_dir, catalog):
    recs = load_workload(data_dir / "reference_workload_attrs.jsonl", "jsonl-attrs")
    with pytest.raises(EmptyAnalysisError, match="removes every attribute"):
        build_usage_set(recs, catalog, usage_threshold=1.0)


def test_no_queries_is_empty_analysis(catalog):
    with pytest.raises(EmptyAnalysisError, match="no queries selected"):
        build_usage_set([], catalog)


def test_unknown_attrs_become_diagnostics(catalog):
    recs = [QueryRecord(id="q1", attrs=("a1", "mystery", "mystery"))]
    usage = build_usage_set(recs, catalog)
    assert usage_rows(usage) == [("q1", [0])]
    assert usage.diagnostics == ({"query_id": "q1", "unknown_identifiers": ["mystery"]},)


def test_sql_errors_name_their_query(catalog):
    good = QueryRecord(id="q1", sql="select a1 from t")
    with pytest.raises(SqlSyntaxError) as exc_info:
        build_usage_set([good, QueryRecord(id="q2", sql="select (a1 from t")], catalog)
    assert str(exc_info.value) == "query 'q2': byte 16: unbalanced parenthesis"
    assert (exc_info.value.query_id, exc_info.value.byte_offset) == ("q2", 16)
    with pytest.raises(UnsupportedSqlError, match="^query 'q3': byte 17: .*UNION"):
        build_usage_set([good, QueryRecord(id="q3", sql="select a1 from t union select a2 from t")], catalog)


def test_attrs_names_are_case_insensitive(catalog):
    recs = [QueryRecord(id="q1", attrs=("A1", "a2"))]
    usage = build_usage_set(recs, catalog)
    assert usage_rows(usage) == [("q1", [0, 1])]


def test_usage_set_validation(catalog):
    ok = ("q0", frozenset({0, 1}))
    with pytest.raises(WorkloadFormatError, match="^query 'q1' has an empty attribute set$"):
        usage_set((ok, ("q1", frozenset())), catalog)
    with pytest.raises(WorkloadFormatError, match="^query 'q1' has an attribute index outside the catalog$"):
        usage_set((ok, ("q1", frozenset({99}))), catalog)
    with pytest.raises(WorkloadFormatError, match="^query id 7 is not a string$"):
        usage_set((ok, (7, frozenset({0}))), catalog)
    # the first offending query is named, whatever its fault and whatever follows it
    with pytest.raises(WorkloadFormatError, match="^query 'q1' has an empty attribute set$"):
        usage_set((ok, ("q1", frozenset()), ("q2", frozenset({99}))), catalog)
    with pytest.raises(WorkloadFormatError, match="^query 'q1' has an attribute index outside the catalog$"):
        usage_set((ok, ("q1", frozenset({-1})), (7, frozenset()), ("q3", frozenset({99}))), catalog)
    # a query that breaks two rules is named by the earlier one: its id before its row, and within
    # its row an index outside the catalog before one out of order
    with pytest.raises(WorkloadFormatError, match="^duplicate query id 'q0'$"):
        usage_set((ok, ("q0", frozenset({99}))), catalog)
    with pytest.raises(WorkloadFormatError, match="^query id 7 is not a string$"):
        usage_set((ok, (7, frozenset({99}))), catalog)
    with pytest.raises(WorkloadFormatError, match="^query 'q1' has an attribute index outside the catalog$"):
        UsageSet(catalog=catalog, query_ids=("q0", "q1"), indptr=[0, 2, 5], indices=[0, 1, 5, 99, 1])


def test_usage_set_refuses_repeated_ids_and_report_entries_build_usage_set_never_writes(catalog):
    ok = ("q0", frozenset({0, 1}))
    with pytest.raises(WorkloadFormatError, match="^duplicate query id 'q0'$"):
        usage_set((ok, ("q1", frozenset({0})), ("q0", frozenset({1}))), catalog)
    with pytest.raises(WorkloadFormatError, match="^empty query id$"):
        usage_set((ok, ("", frozenset({0}))), catalog)
    dropped = {"query_id": "q9", "reason": "empty attribute set after filtering"}
    diagnostic = {"query_id": "q0", "unknown_identifiers": ["zz"]}
    assert usage_set((ok,), catalog, dropped=(dropped,), diagnostics=(diagnostic,)).dropped == (dropped,)
    for entry in (5, "q9", {"query_id": "q9"}, {**dropped, "extra": 1}, {**dropped, "reason": None}):
        with pytest.raises(WorkloadFormatError, match="^dropped entry .* is not a query_id and a reason$"):
            usage_set((ok,), catalog, dropped=(entry,))
    for entry in (5, dropped, {**diagnostic, "unknown_identifiers": "zz"}, {**diagnostic, "unknown_identifiers": [5]},
                  {**diagnostic, "query_id": 0}, {**diagnostic, "extra": 1}):
        with pytest.raises(WorkloadFormatError, match="^diagnostics entry .* is not a query_id and a list of identifiers$"):
            usage_set((ok,), catalog, diagnostics=(entry,))
    # facts across fields: a dropped query is not kept and is dropped once; a diagnostics entry names a
    # kept or dropped query, once, with at least one identifier and none twice; analyze writes an empty
    # identifier (for SELECT "") and case variants, so they pass
    assert usage_set((ok,), catalog, dropped=(dropped,), diagnostics=({**diagnostic, "query_id": "q9"},))
    assert usage_set((ok,), catalog, diagnostics=({**diagnostic, "unknown_identifiers": ["", "zz", "ZZ"]},))
    unnamed = {**dropped, "query_id": ""}
    for dropped_entries, diagnostics_entries, message in (
        (({**dropped, "query_id": "q0"},), (), "dropped query 'q0' is also a kept query"),
        ((dropped, dropped), (), "duplicate dropped query id 'q9'"),
        ((), ({**diagnostic, "query_id": "q9"},), "diagnostics entry names query 'q9', which is neither kept nor dropped"),
        ((dropped,), (diagnostic, diagnostic), "duplicate diagnostics query id 'q0'"),
        ((), ({**diagnostic, "unknown_identifiers": []},), "diagnostics entry for query 'q0' lists no unknown identifiers"),
        ((unnamed,), (), f"dropped entry {unnamed!r} has an empty query id"),
        ((), ({**diagnostic, "unknown_identifiers": ["x", "x"]},),
         "diagnostics entry for query 'q0' repeats an unknown identifier"),
    ):
        with pytest.raises(WorkloadFormatError, match=f"^{re.escape(message)}$"):
            usage_set((ok,), catalog, dropped=dropped_entries, diagnostics=diagnostics_entries)


def test_catalog_loading(tmp_path):
    path = write_lines(tmp_path / "cat.txt", ["M=50", "alpha", "", "beta.gamma"])
    catalog = load_catalog(path)
    assert catalog.attributes == ("alpha", "beta.gamma")
    assert len(catalog) == 2


def test_catalog_header_is_the_first_non_blank_line(tmp_path):
    catalog = load_catalog(write_lines(tmp_path / "cat.txt", ["", "  ", "M=3", "a1", "b", "c"]))
    assert catalog.attributes == ("a1", "b", "c")
    assert load_catalog(write_lines(tmp_path / "late.txt", ["a1", "M=1"])).attributes == ("a1", "M=1")  # not a header


@pytest.mark.parametrize("lines", [["a1", "b"], ["M=3", "a1", "b"]])
def test_catalog_skips_a_byte_order_mark(tmp_path, lines):
    catalog = load_catalog(write_lines(tmp_path / "cat.txt", ["\ufeff" + lines[0], *lines[1:]]))
    assert catalog.attributes == ("a1", "b")
    assert catalog.index_of("a1") == 0


def test_workload_skips_a_byte_order_mark(tmp_path):
    path = write_lines(tmp_path / "w.jsonl", ['\ufeff{"id": "q1", "attrs": ["a"]}', '{"id": "q2", "attrs": ["b"]}'])
    assert [r.id for r in load_workload(path, "jsonl-attrs")] == ["q1", "q2"]
    # only where it opens the file
    path = write_lines(tmp_path / "w.jsonl", ['{"id": "q1", "attrs": ["a"]}', '\ufeff{"id": "q2", "attrs": ["b"]}'])
    with pytest.raises(WorkloadFormatError, match="^line 2: invalid JSON: Unexpected UTF-8 BOM"):
        load_workload(path, "jsonl-attrs")


def test_files_that_are_not_utf8_name_the_line(tmp_path):
    workload = tmp_path / "w.jsonl"
    workload.write_bytes(b'{"id": "q1", "attrs": ["a"]}\n\n{"id": "q\xff", "attrs": ["a"]}\n')
    with pytest.raises(WorkloadFormatError, match=f"^line 3: workload {re.escape(str(workload))} is not UTF-8: invalid start byte$"):
        load_workload(workload, "jsonl-attrs")
    catalog = tmp_path / "cat.txt"
    catalog.write_bytes(b"\xef\xbb\xbfM=3\na\nb\xc3\n")  # after a byte order mark
    with pytest.raises(WorkloadFormatError, match=f"^line 3: catalog {re.escape(str(catalog))} is not UTF-8: invalid continuation byte$"):
        load_catalog(catalog)


def test_a_byte_that_is_not_utf8_past_the_first_read_buffer_names_its_line(tmp_path, capsys):
    # the file is read a line at a time: line 3000 sits well past the first 64 KiB
    lines = [json.dumps({"id": f"q{q}", "attrs": ["a1", "a2"]}).encode() for q in range(1, 4001)]
    lines[2999] = b'{"id": "q3000", "attrs": ["a\xff"]}'
    workload = tmp_path / "w.jsonl"
    workload.write_bytes(b"\n".join(lines) + b"\n")
    assert len(b"\n".join(lines[:2999])) > 65536
    with pytest.raises(WorkloadFormatError, match=f"^line 3000: workload {re.escape(str(workload))} is not UTF-8: invalid start byte$"):
        load_workload(workload, "jsonl-attrs")
    catalog = write_lines(tmp_path / "cat.txt", ["a1", "a2"])
    argv = ["analyze", "--input", str(workload), "--input-format", "jsonl-attrs", "--catalog", str(catalog),
            "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: line 3000: workload {workload} is not UTF-8: invalid start byte\n"
    assert not (tmp_path / "out").exists()


def test_usage_set_csr_arrays(catalog):
    # the CSR arrays are the one form: a frozen dataclass of these fields, frozen as read-only int64
    assert [f.name for f in dataclasses.fields(UsageSet)] == [
        "query_ids", "catalog", "indptr", "indices", "dropped", "diagnostics",
    ]
    indptr, indices = np.array([0, 2, 3], dtype=np.int32), [0, 2, 1]
    usage = UsageSet(["q0", "q1"], catalog, indptr, indices)
    assert usage.query_ids == ("q0", "q1") and usage.dropped == usage.diagnostics == ()
    assert usage.indptr.tolist() == [0, 2, 3] and usage.indices.tolist() == [0, 2, 1]
    assert usage.indptr.dtype == usage.indices.dtype == np.int64
    assert not usage.indptr.flags.writeable and not usage.indices.flags.writeable
    assert indptr.flags.writeable  # the caller's array is copied, not frozen
    with pytest.raises(dataclasses.FrozenInstanceError):
        usage.query_ids = ("q9",)
    with pytest.raises(TypeError, match="^a usage set needs an AttributeCatalog, got"):
        UsageSet(("q0", "q1"), catalog.attributes, indptr, indices)
    with pytest.raises(TypeError, match="missing 2 required positional arguments: 'indptr' and 'indices'"):
        UsageSet(catalog=catalog, query_ids=("q0", "q1"))
    again = UsageSet(catalog=catalog, query_ids=usage.query_ids, indptr=usage.indptr, indices=usage.indices)
    assert usage_rows(again) == usage_rows(usage) == [("q0", [0, 2]), ("q1", [1])]
    # equal by value; any field that differs makes it unequal
    assert again == usage and again is not usage
    assert usage == usage_set((("q0", {0, 2}), ("q1", {1})), catalog)
    entry = ({"query_id": "q1", "unknown_identifiers": ["zz"]},)
    for other in (usage_set((("q0", {0, 2}), ("q2", {1})), catalog), usage_set((("q0", {0, 1}), ("q1", {2})), catalog),
                  usage_set((("q0", {0}), ("q1", {1, 2})), catalog),
                  usage_set(usage_rows(usage), catalog, diagnostics=entry)):
        assert other != usage
    # the arrays must hold each query's indices strictly ascending, and indptr must bound them
    for indices in ([2, 0, 1], [0, 0, 1]):
        with pytest.raises(WorkloadFormatError, match="^query 'q0' lists an attribute index twice or out of ascending order$"):
            UsageSet(catalog=catalog, query_ids=("q0", "q1"), indptr=[0, 2, 3], indices=indices)
    for indptr, indices in (([0, 2], [0, 2, 1]), ([0, 2, 3, 3], [0, 2, 1]), ([1, 2, 3], [0, 2, 1]),
                            ([-1, 2, 3], [0, 2, 1]), ([0, 3, 2], [0, 2, 1]), ([0, 2, 4], [0, 2, 1]),
                            ([0, 2, 2], [0, 2, 1]), ([[0, 2, 3]], [0, 2, 1]), ([0, 2, 3], [[0, 2, 1]]),
                            ([0, 1, 2], [[0], [2]])):
        # short, long, not from 0, decreasing, past or before the end of indices, and arrays that are not flat
        with pytest.raises(WorkloadFormatError, match="^usage set indptr must run from 0 to len"):
            UsageSet(catalog=catalog, query_ids=("q0", "q1"), indptr=indptr, indices=indices)
    for indptr, indices in (([0, 2, 3], [False, True, True]), ([0, 2, 3], [0.0, 1.9, 1.0]), ([0.0, 2.0, 3.0], [0, 2, 1]),
                            ([0, 2, 3], ["a", "b", "c"]), ([0, 1, 2], [[0], [1, 2]])):  # the last is ragged
        with pytest.raises(WorkloadFormatError, match="^usage set indptr and indices must be integer"):
            UsageSet(catalog=catalog, query_ids=("q0", "q1"), indptr=indptr, indices=indices)


def test_usage_set_refuses_the_first_csr_row_with_a_planted_fault(catalog):
    # valid distinct ids and non-empty rows, each ascending, so that most rows restart below the end
    # of the row before them, which a usage set accepts; a case plants one fault, an index outside the
    # catalog, a repeated one or a descending pair, in one or more rows
    rng = random.Random(2503)
    n = len(catalog)
    refused = {"outside": 0, "repeated": 0, "descending": 0}
    restarts = 0
    for case in range(600):
        rows = [sorted(rng.sample(range(n), rng.randint(1, 4))) for _ in range(rng.randint(1, 8))]
        restarts += sum(low[0] <= high[-1] for high, low in zip(rows, rows[1:]))
        fault = rng.choice([None, *refused])
        planted = sorted(rng.sample(range(len(rows)), rng.randint(1, len(rows)))) if fault else []
        for r in planted:
            row = rows[r]
            if fault == "outside":
                row[rng.randrange(len(row))] = rng.choice([-1, n, n + 7])
            elif fault == "repeated":
                at = rng.randrange(len(row))
                row.insert(at, row[at])
            elif len(row) > 1:  # two neighbours swapped
                at = rng.randrange(len(row) - 1)
                row[at], row[at + 1] = row[at + 1], row[at]
            else:  # a second index below the only one
                row[:] = [max(row[0], 1), max(row[0], 1) - 1]
        ids = tuple(f"q{q}" for q in range(len(rows)))
        indptr = np.cumsum([0, *map(len, rows)])
        indices = np.array([i for row in rows for i in row], dtype=np.int64)
        try:
            UsageSet(catalog=catalog, query_ids=ids, indptr=indptr, indices=indices)
            usage_set = None
        except WorkloadFormatError as exc:
            usage_set = str(exc)
        if fault is None:
            assert usage_set is None, (case, rows)
            continue
        refused[fault] += 1
        first = ids[planted[0]]
        if fault == "outside":
            assert usage_set == f"query {first!r} has an attribute index outside the catalog", (case, rows)
        else:
            assert usage_set == f"query {first!r} lists an attribute index twice or out of ascending order", (case, rows)
    assert min(refused.values()) > 100 and restarts > 500, (refused, restarts)


def test_intake_memory_stays_below_twenty_times_the_log(tmp_path):
    # the usage set keeps flat index arrays, not a set and a frozenset per query; the log is read a
    # line at a time, not as one text and its list of lines. The seed's peak was 30 times the log
    path, catalog = unknown_identifier_log(tmp_path / "w.jsonl", 20000, 20, 5)
    tracemalloc.start()
    try:
        usage = build_usage_set(load_workload(path, "jsonl-attrs"), catalog)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert usage.query_count == 20000 and len(usage.diagnostics) == 10000
    size = path.stat().st_size
    assert peak < 20 * size, f"peak {peak / 1e6:.2f} MB against a {size / 1e6:.2f} MB log"


def test_names_without_a_utf8_encoding_are_refused(catalog):
    # a JSON \ud800 escape decodes to a lone surrogate, which no UTF-8 output file can hold
    with pytest.raises(WorkloadFormatError, match=r"^query id 'q\\ud800' has no UTF-8 encoding$"):
        usage_set((("q0", frozenset({0})), ("q\ud800", frozenset({1}))), catalog)
    with pytest.raises(WorkloadFormatError, match=r"^attribute name 'b\\udfff' has no UTF-8 encoding$"):
        AttributeCatalog(("a", "b\udfff"))
    assert AttributeCatalog(("\U0001f600", "\u2028")).attributes == ("\U0001f600", "\u2028")


def test_catalog_refuses_a_name_that_is_not_a_string():
    # a resealed snapshot's catalog can hold any JSON value; the name is refused before any other rule
    for names in (("a", 5), ("a", None), ("", ["b"]), (7, "a", "A")):
        bad = next(name for name in names if not isinstance(name, str))
        with pytest.raises(WorkloadFormatError, match=f"^attribute name {re.escape(repr(bad))} is not a string$"):
            AttributeCatalog(names)


def test_jsonl_attrs_records_share_one_string_per_name(tmp_path):
    # json.loads builds a new string for every value it reads; the records keep one per distinct name
    path = write_lines(tmp_path / "w.jsonl", ['{"id": "q1", "attrs": ["a1", "b2"]}', '{"id": "q2", "attrs": ["b2", "a1"]}'])
    first, second = load_workload(path, "jsonl-attrs")
    assert (first.attrs, second.attrs) == (("a1", "b2"), ("b2", "a1"))
    assert first.attrs[0] is second.attrs[1] and first.attrs[1] is second.attrs[0]


def test_catalog_errors(tmp_path):
    with pytest.raises(WorkloadFormatError, match="cannot read catalog"):
        load_catalog(tmp_path / "absent.txt")
    with pytest.raises(WorkloadFormatError, match="bad M= header"):
        load_catalog(write_lines(tmp_path / "c1.txt", ["M=many", "a"]))
    with pytest.raises(WorkloadFormatError, match="no attributes"):
        load_catalog(write_lines(tmp_path / "c2.txt", ["M=3"]))
    with pytest.raises(WorkloadFormatError, match="M must be non-negative"):
        load_catalog(write_lines(tmp_path / "c3.txt", ["M=-1", "a"]))
    with pytest.raises(WorkloadFormatError, match="duplicate attribute"):
        AttributeCatalog(("a", "A"))
    with pytest.raises(WorkloadFormatError, match="M=1"):
        load_catalog(write_lines(tmp_path / "c4.txt", ["M=1", "a", "b"]))
