"""Workload parsing, query selection, and usage-set construction."""

from __future__ import annotations

import pytest

from attrscale import (
    AttributeCatalog,
    EmptyAnalysisError,
    QueryRecord,
    SelectionError,
    SelectionSpec,
    UsageSet,
    WorkloadFormatError,
    build_usage_set,
    load_catalog,
    load_workload,
    select_queries,
)

from reference_tables import USAGE_ROWS


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_load_attrs_fixture(data_dir):
    records = load_workload(data_dir / "reference_workload_attrs.jsonl", "jsonl-attrs")
    assert [r.id for r in records] == [qid for qid, _ in USAGE_ROWS]
    assert records[0].attrs == USAGE_ROWS[0][1]
    assert records[0].timestamp == 1000 and records[9].timestamp == 10000
    assert all(r.sql is None for r in records)


def test_sql_and_attrs_fixtures_agree(data_dir, catalog):
    attrs_usage = build_usage_set(load_workload(data_dir / "reference_workload_attrs.jsonl", "jsonl-attrs"), catalog)
    sql_usage = build_usage_set(load_workload(data_dir / "reference_workload_sql.jsonl", "jsonl-sql"), catalog)
    assert attrs_usage.queries == sql_usage.queries
    assert sql_usage.diagnostics == ()


def test_blank_lines_skipped(tmp_path):
    path = write_lines(tmp_path / "w.jsonl", ['{"id": "q1", "attrs": ["a"]}', "", '{"id": "q2", "attrs": ["b"]}'])
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
    assert [qid for qid, _ in usage.queries] == ["q1", "q2"]
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
    assert usage.queries == (("q1", frozenset({0, 1})), ("q2", frozenset({0, 1})), ("q3", frozenset({1})))


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
    assert usage.queries == (("q1", frozenset({0})),)
    assert usage.diagnostics == ({"query_id": "q1", "unknown_identifiers": ["mystery"]},)


def test_attrs_names_are_case_insensitive(catalog):
    recs = [QueryRecord(id="q1", attrs=("A1", "a2"))]
    usage = build_usage_set(recs, catalog)
    assert usage.queries == (("q1", frozenset({0, 1})),)


def test_usage_set_validation(catalog):
    with pytest.raises(WorkloadFormatError, match="empty attribute set"):
        UsageSet(queries=(("q1", frozenset()),), catalog=catalog)
    with pytest.raises(WorkloadFormatError, match="outside the catalog"):
        UsageSet(queries=(("q1", frozenset({99})),), catalog=catalog)
    with pytest.raises(WorkloadFormatError, match="not a string"):
        UsageSet(queries=((7, frozenset({0})),), catalog=catalog)


def test_catalog_loading(tmp_path):
    path = write_lines(tmp_path / "cat.txt", ["M=50", "alpha", "", "beta.gamma"])
    catalog = load_catalog(path)
    assert catalog.attributes == ("alpha", "beta.gamma")
    assert catalog.database_attribute_count == 50
    assert len(catalog) == 2


def test_catalog_errors(tmp_path):
    with pytest.raises(WorkloadFormatError, match="cannot read catalog"):
        load_catalog(tmp_path / "absent.txt")
    with pytest.raises(WorkloadFormatError, match="bad M= header"):
        load_catalog(write_lines(tmp_path / "c1.txt", ["M=many", "a"]))
    with pytest.raises(WorkloadFormatError, match="no attributes"):
        load_catalog(write_lines(tmp_path / "c2.txt", ["M=3"]))
    with pytest.raises(WorkloadFormatError, match="duplicate attribute"):
        AttributeCatalog(("a", "A"))
    with pytest.raises(WorkloadFormatError, match="M=1"):
        AttributeCatalog(("a", "b"), database_attribute_count=1)
