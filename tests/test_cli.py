"""Command-line behavior: analyze, rank, explain, diff, and exit codes."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import attrscale
from attrscale import (
    AttributeCatalog,
    DependencyMatrix,
    MaskedRealMatrix,
    load_snapshot,
    rank_pairs,
    run_pipeline,
)
from attrscale.analytics import RANK_KEYS
from attrscale.cli import _BLOCK_ROWS, EXIT_EMPTY_ANALYSIS, EXIT_INPUT_ERROR, EXIT_OK, main
from attrscale.matrices import UNDEFINED_CSV, format_value
from attrscale.snapshot import MATRIX_BASENAMES, _content_hash, _sha256, write_outputs
from test_acceptance import synthetic_usage

import oracles

# child processes import the same attrscale as this one, whether installed or not
PACKAGE_ROOT = str(Path(attrscale.__file__).parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (PACKAGE_ROOT, os.environ.get("PYTHONPATH"))))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analyze_args(data_dir, out_dir, **overrides):
    args = {
        "--input": str(data_dir / "reference_workload_attrs.jsonl"),
        "--input-format": "jsonl-attrs",
        "--catalog": str(data_dir / "reference_catalog.txt"),
        "--out": str(out_dir),
    }
    args.update(overrides)
    flat = ["analyze"]
    for key, value in args.items():
        if value is not None:
            flat.extend([key, value])
    return flat


def test_analyze_writes_outputs_and_summary(capsys, data_dir, tmp_path):
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, *analyze_args(data_dir, out))
    assert code == EXIT_OK
    assert "queries analyzed (m): 10" in stdout
    assert "attributes analyzed (n): 10" in stdout
    assert (out / "snapshot.json").exists() and (out / "nnsm.csv").exists()
    assert len(list(out.iterdir())) == 15  # 6 csv + 6 json + snapshot, warnings, diagnostics


def test_analyze_sql_input_produces_same_bundle(capsys, data_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, *analyze_args(data_dir, out_a))[0] == EXIT_OK
    sql_args = analyze_args(
        data_dir, out_b,
        **{"--input": str(data_dir / "reference_workload_sql.jsonl"), "--input-format": "jsonl-sql"},
    )
    assert run_cli(capsys, *sql_args)[0] == EXIT_OK
    for name in MATRIX_BASENAMES:
        assert (out_a / f"{name}.json").read_bytes() == (out_b / f"{name}.json").read_bytes()
    assert (out_a / "warnings.json").read_bytes() == (out_b / "warnings.json").read_bytes()


def test_reloaded_snapshot_re_exports_every_file_byte_identically(capsys, data_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli(capsys, *analyze_args(data_dir, out))[0] == EXIT_OK
    again = tmp_path / "again"
    write_outputs(load_snapshot(out / "snapshot.json"), again)
    assert {p.name: p.read_bytes() for p in again.iterdir()} == {p.name: p.read_bytes() for p in out.iterdir()}


def per_cell_csv(header: list[str], labels, grid: np.ndarray, defined: np.ndarray, precision: int) -> str:
    """A CSV rendered one cell at a time through format_value: the reference for the bulk renderer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for label, row, mask in zip(labels, grid.tolist(), defined.tolist()):
        writer.writerow([label, *(format_value(v, precision) if ok else UNDEFINED_CSV for v, ok in zip(row, mask))])
    return buf.getvalue()


@pytest.mark.parametrize("precision", [0, 10])
def test_real_csvs_match_a_per_cell_rendering_at_other_precisions(capsys, data_dir, tmp_path, precision):
    out = tmp_path / "out"
    assert run_cli(capsys, *analyze_args(data_dir, out, **{"--precision": str(precision)}))[0] == EXIT_OK
    bundle = load_snapshot(out / "snapshot.json").bundle
    header = ["attribute", *bundle.attributes]
    for name in ("pdm", "nsm", "nnsm"):
        stage = getattr(bundle, name)
        expected = per_cell_csv(header, bundle.attributes, stage.values, stage.defined, precision)
        assert (out / f"{name}.csv").read_text(encoding="utf-8") == expected, name
    mvsd = bundle.mvsd
    grid = np.stack([mvsd.mean, mvsd.variance, mvsd.sd])
    defined = np.broadcast_to(mvsd.defined, grid.shape)
    expected = per_cell_csv(["statistic", *bundle.attributes], ("mean", "variance", "sd"), grid, defined, precision)
    assert (out / "mvsd.csv").read_text(encoding="utf-8") == expected


def test_analyze_format_csv_skips_json_matrices(capsys, data_dir, tmp_path):
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, *analyze_args(data_dir, out, **{"--format": "csv"}))
    assert code == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert "pdm.csv" in names and "pdm.json" not in names
    assert {"snapshot.json", "warnings.json", "diagnostics.jsonl"} <= names


def test_csv_rerun_removes_json_matrices_of_an_earlier_run(capsys, data_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli(capsys, *analyze_args(data_dir, out, **{"--format": "both"}))[0] == EXIT_OK
    assert run_cli(capsys, *analyze_args(data_dir, out, **{"--format": "csv"}))[0] == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert not {f"{name}.json" for name in MATRIX_BASENAMES} & names
    assert {f"{name}.csv" for name in MATRIX_BASENAMES} <= names


def test_out_dir_env_default_and_flag_priority(capsys, data_dir, tmp_path, monkeypatch):
    env_out = tmp_path / "from-env"
    monkeypatch.setenv("ATTRSCALE_OUT", str(env_out))
    argv = analyze_args(data_dir, None)
    argv = [a for a in argv if a != "--out" and a != "None"]
    assert run_cli(capsys, *argv)[0] == EXIT_OK
    assert (env_out / "snapshot.json").exists()

    flag_out = tmp_path / "from-flag"
    assert run_cli(capsys, *analyze_args(data_dir, flag_out))[0] == EXIT_OK
    assert (flag_out / "snapshot.json").exists()


def test_analyze_without_out_anywhere_fails(capsys, data_dir, monkeypatch):
    monkeypatch.delenv("ATTRSCALE_OUT", raising=False)
    argv = [a for a in analyze_args(data_dir, None) if a != "--out" and a != "None"]
    code, _, stderr = run_cli(capsys, *argv)
    assert code == EXIT_INPUT_ERROR
    assert "--out is required" in stderr


def test_selection_flags(capsys, data_dir, tmp_path):
    out = tmp_path / "out"
    argv = analyze_args(data_dir, out, **{"--select": "random:4", "--seed": "11"})
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert "queries analyzed (m): 4" in stdout
    snap = load_snapshot(out / "snapshot.json")
    assert snap.config.selection.mode == "random"
    assert snap.config.selection.seed == 11

    argv = analyze_args(data_dir, out, **{"--select": "interval:1000..3000"})
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert "queries analyzed (m): 3" in stdout


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"--select": "random:4"}, "requires --seed"),
        ({"--select": "random:many", "--seed": "1"}, "integer count"),
        ({"--select": "interval:10"}, "start..end"),
        ({"--select": "interval:a..b"}, "bounds must be integers"),
        ({"--select": "latest"}, "bad --select"),
        ({"--threshold": "1.5"}, "usage threshold"),
        ({"--input": "absent.jsonl"}, "cannot read workload"),
        ({"--catalog": "absent.txt"}, "cannot read catalog"),
        ({"--seed": "1"}, "all selection takes no seed, got 1"),
        ({"--select": "interval:1000..3000", "--seed": "1"}, "interval selection takes no seed, got 1"),
    ],
)
def test_analyze_input_errors_exit_1(capsys, data_dir, tmp_path, overrides, fragment):
    code, _, stderr = run_cli(capsys, *analyze_args(data_dir, tmp_path / "out", **overrides))
    assert code == EXIT_INPUT_ERROR
    assert fragment in stderr
    assert not (tmp_path / "out").exists()  # failed runs leave no outputs


def test_sql_error_names_the_query(capsys, tmp_path):
    (tmp_path / "catalog.txt").write_text("a\nb\n", encoding="utf-8")
    lines = [{"id": "q1", "sql": "select a, b from t"}, {"id": "q2", "sql": "select (a from t"}]
    (tmp_path / "w.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    argv = ["analyze", "--input", str(tmp_path / "w.jsonl"), "--input-format", "jsonl-sql"]
    code, _, stderr = run_cli(capsys, *argv, "--catalog", str(tmp_path / "catalog.txt"), "--out", str(tmp_path / "out"))
    assert code == EXIT_INPUT_ERROR
    assert stderr == "error: query 'q2': byte 15: unbalanced parenthesis\n"
    assert not (tmp_path / "out").exists()


def test_threshold_removing_everything_exits_2(capsys, data_dir, tmp_path):
    code, _, stderr = run_cli(capsys, *analyze_args(data_dir, tmp_path / "out", **{"--threshold": "1.0"}))
    assert code == EXIT_EMPTY_ANALYSIS
    assert "empty analysis" in stderr


def test_usage_errors_exit_1_not_2(capsys, data_dir, tmp_path):
    # argparse defaults to exit code 2, which is reserved for empty analyses
    assert run_cli(capsys, "analyze", "--input", "w")[0] == EXIT_INPUT_ERROR
    assert run_cli(capsys, "scan")[0] == EXIT_INPUT_ERROR
    assert run_cli(capsys)[0] == EXIT_INPUT_ERROR
    argv = analyze_args(data_dir, tmp_path / "out", **{"--format": "yaml"})
    assert run_cli(capsys, *argv)[0] == EXIT_INPUT_ERROR


@pytest.fixture()
def reference_snapshot(capsys, data_dir, tmp_path):
    out = tmp_path / "ref-out"
    assert main(analyze_args(data_dir, out)) == EXIT_OK
    capsys.readouterr()
    return out / "snapshot.json"


def test_rank_top_listing(capsys, reference_snapshot):
    code, stdout, _ = run_cli(capsys, "rank", "--snapshot", str(reference_snapshot), "--top", "3")
    assert code == EXIT_OK
    lines = stdout.splitlines()
    assert lines[0].startswith("key: nnsm-min  pairs ranked: 44  showing: 3")
    assert lines[2].startswith("1") and "a1,a3" in lines[2] and "0.00" in lines[2]
    assert len(lines) == 5  # header, column row, three entries


def test_rank_row_key_and_zero_top(capsys, reference_snapshot):
    code, stdout, _ = run_cli(capsys, "rank", "--snapshot", str(reference_snapshot), "--key", "nnsm-row", "--top", "0")
    assert code == EXIT_OK
    assert "pairs ranked: 88  showing: 0" in stdout
    code, _, stderr = run_cli(capsys, "rank", "--snapshot", str(reference_snapshot), "--top", "-1")
    assert code == EXIT_INPUT_ERROR and "--top" in stderr


def test_rank_missing_snapshot_exits_1(capsys, tmp_path):
    code, _, stderr = run_cli(capsys, "rank", "--snapshot", str(tmp_path / "nope.json"))
    assert code == EXIT_INPUT_ERROR
    assert "cannot read" in stderr


def test_rank_tampered_snapshot_exits_1(capsys, reference_snapshot, tmp_path):
    obj = json.loads(reference_snapshot.read_text())
    obj["warnings"] = [{"code": "planted"}]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    code, _, stderr = run_cli(capsys, "rank", "--snapshot", str(bad))
    assert code == EXIT_INPUT_ERROR
    assert "content hash" in stderr


def test_explain_pair_output(capsys, reference_snapshot):
    code, stdout, _ = run_cli(capsys, "explain", "--snapshot", str(reference_snapshot), "--pair", "a1,a2")
    assert code == EXIT_OK
    assert "pair: a1, a2" in stdout
    assert "co-occurring queries (3): q1, q7, q8" in stdout
    assert "adm count: 3" in stdout
    assert "total measure: a1=26, a2=23" in stdout


def test_explain_errors(capsys, reference_snapshot):
    code, _, stderr = run_cli(capsys, "explain", "--snapshot", str(reference_snapshot), "--pair", "a1")
    assert code == EXIT_INPUT_ERROR and "expected A,B" in stderr
    code, _, stderr = run_cli(capsys, "explain", "--snapshot", str(reference_snapshot), "--pair", "a1,a1")
    assert code == EXIT_INPUT_ERROR and "diagonal" in stderr
    code, _, stderr = run_cli(capsys, "explain", "--snapshot", str(reference_snapshot), "--pair", "a1,zz")
    assert code == EXIT_INPUT_ERROR and "unknown attribute" in stderr
    assert "threshold" not in stderr  # no threshold ran, so no hint


def test_explain_names_the_threshold_that_may_have_removed_an_attribute(capsys, data_dir, tmp_path):
    out = tmp_path / "out"
    # a4, a7 and a8 are each used by 4 of the 10 queries, below the 0.45 usage ratio
    assert run_cli(capsys, *analyze_args(data_dir, out, **{"--threshold": "0.45"}))[0] == EXIT_OK
    code, stdout, stderr = run_cli(capsys, "explain", "--snapshot", str(out / "snapshot.json"), "--pair", "a1,a4")
    assert code == EXIT_INPUT_ERROR and stdout == ""
    assert stderr == (
        "error: unknown attribute: 'a4' (not among the 7 analyzed attributes; "
        "the usage threshold 0.45 may have removed it)\n"
    )


def write_window_fixture(tmp_path):
    """Two analysis windows over one workload of two-attribute queries.

    Rows x and y keep the same co-occurrence count multisets in both
    windows, so their SDs are bit-identical across windows while the (x, y)
    count doubles from 1 to 2: the (x, y) scale value halves exactly.
    """
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("".join(f"{name}\n" for name in ("x", "y", "u", "w", "v", "t")))
    window_a = [("x", "y")] + [("x", "u")] * 2 + [("x", "w")] * 5 + [("y", "v")] * 2 + [("y", "t")] * 7
    window_b = [("x", "y")] * 2 + [("x", "u")] + [("x", "w")] * 5 + [("y", "v")] + [("y", "t")] * 7
    lines = []
    for i, attrs in enumerate(window_a):
        lines.append(json.dumps({"id": f"a{i:02d}", "ts": 1000 * (i + 1), "attrs": list(attrs)}))
    for i, attrs in enumerate(window_b):
        lines.append(json.dumps({"id": f"b{i:02d}", "ts": 100000 + 1000 * (i + 1), "attrs": list(attrs)}))
    workload = tmp_path / "windows.jsonl"
    workload.write_text("".join(line + "\n" for line in lines))
    return workload, catalog, (1000, 1000 * len(window_a)), (101000, 100000 + 1000 * len(window_b))


def test_diff_reports_shifted_pair(capsys, tmp_path):
    workload, catalog, (a_lo, a_hi), (b_lo, b_hi) = write_window_fixture(tmp_path)
    out_a, out_b = tmp_path / "wa", tmp_path / "wb"
    base = ["analyze", "--input", str(workload), "--input-format", "jsonl-attrs", "--catalog", str(catalog)]
    assert main(base + ["--select", f"interval:{a_lo}..{a_hi}", "--out", str(out_a)]) == EXIT_OK
    assert main(base + ["--select", f"interval:{b_lo}..{b_hi}", "--out", str(out_b)]) == EXIT_OK
    capsys.readouterr()

    old = load_snapshot(out_a / "snapshot.json")
    new = load_snapshot(out_b / "snapshot.json")
    x = old.bundle.attributes.index("x")
    y = old.bundle.attributes.index("y")
    assert old.bundle.mvsd.sd[x] == new.bundle.mvsd.sd[x]  # multiset preserved
    assert new.bundle.nsm.cell(x, y) == old.bundle.nsm.cell(x, y) / 2  # count doubled

    code, stdout, _ = run_cli(
        capsys, "diff", "--old", str(out_a / "snapshot.json"), "--new", str(out_b / "snapshot.json")
    )
    assert code == EXIT_OK
    lines = stdout.splitlines()
    assert lines[0] == "shared attributes: 6"
    assert lines[1] == "pairs compared: 5  appeared: 0  disappeared: 0"
    top = lines[3]  # largest absolute movement comes first
    assert top.startswith("x,y")
    assert "-4.99" in top
    assert "3->2" in top


def test_self_diff_ranks_are_rank_output_positions(capsys, tmp_path):
    # the analyze-wide benchmark's cells: many pairs tie at 0.0 and 10.0
    usage = synthetic_usage(200, 2000, seed=7)
    catalog = tmp_path / "catalog.txt"
    names = usage.catalog.attributes
    catalog.write_text("".join(f"{name}\n" for name in names))
    workload = tmp_path / "wide.jsonl"
    workload.write_text("".join(
        json.dumps({"id": qid, "attrs": [names[k] for k in indices]}) + "\n" for qid, indices in oracles.usage_rows(usage)
    ))
    out = tmp_path / "wide"
    assert main([
        "analyze", "--input", str(workload), "--input-format", "jsonl-attrs",
        "--catalog", str(catalog), "--out", str(out),
    ]) == EXIT_OK
    capsys.readouterr()
    snapshot = str(out / "snapshot.json")

    code, stdout, _ = run_cli(capsys, "rank", "--snapshot", snapshot, "--top", "100000")
    assert code == EXIT_OK
    position = {}
    for line in stdout.splitlines()[2:]:
        pos, pair = line.split()[:2]
        position[tuple(sorted(pair.split(",")))] = int(pos)

    code, stdout, _ = run_cli(capsys, "diff", "--old", snapshot, "--new", snapshot)
    assert code == EXIT_OK
    rows = stdout.splitlines()[3:]
    assert len(rows) == len(position)
    wrong = [row for row in rows if row.split()[-1] != "{0}->{0}".format(position[tuple(row.split()[0].split(","))])]
    assert not wrong


def test_diff_matches_attribute_names_case_insensitively(capsys, tmp_path):
    workload = tmp_path / "w.jsonl"
    workload.write_text("".join(
        json.dumps({"id": f"q{i}", "attrs": list(attrs)}) + "\n"
        for i, attrs in enumerate([("a", "b")] * 3 + [("a", "c")] * 2 + [("b", "c")] + [("a", "b", "c")])
    ))
    snapshots = {}
    for spelling in ("A", "a"):
        catalog = tmp_path / f"catalog-{spelling}.txt"
        catalog.write_text(f"{spelling}\nb\nc\n")
        out = tmp_path / f"out-{spelling}"
        assert main([
            "analyze", "--input", str(workload), "--input-format", "jsonl-attrs",
            "--catalog", str(catalog), "--out", str(out),
        ]) == EXIT_OK
        snapshots[spelling] = str(out / "snapshot.json")
    capsys.readouterr()
    for old, new in (("A", "a"), ("a", "A")):
        code, stdout, _ = run_cli(capsys, "diff", "--old", snapshots[old], "--new", snapshots[new])
        assert code == EXIT_OK
        lines = stdout.splitlines()
        assert lines[:2] == ["shared attributes: 3", "pairs compared: 3  appeared: 0  disappeared: 0"]
        assert sorted(line.split()[0] for line in lines[3:]) == [f"{new},b", f"{new},c", "b,c"]  # the new spelling


def reference_diff(old, new, precision: int) -> str:
    """diff's stdout for two bundles by the row-at-a-time algorithm: rank_pairs rows
    re-keyed by name pair in dicts, then format_value on every value."""
    old_names = {name.casefold() for name in old.attributes}
    spelling = {name.casefold(): name for name in new.attributes if name.casefold() in old_names}

    def scores(bundle):
        ranking = rank_pairs(bundle)
        shown = [spelling.get(name.casefold()) for name in ranking.attributes]
        pairs = [(shown[a], shown[b]) for a, b in ranking.entries.tolist()]
        entries = ((pair, score) for pair, score in zip(pairs, ranking.nnsm.tolist()) if None not in pair)
        return {tuple(sorted(pair)): (score, pos) for pos, (pair, score) in enumerate(entries, start=1)}

    def fmt(value):
        return format_value(value, precision)

    old_scores, new_scores = scores(old), scores(new)
    common = sorted(set(old_scores) & set(new_scores))
    added = sorted(set(new_scores) - set(old_scores))
    removed = sorted(set(old_scores) - set(new_scores))
    lines = [
        f"shared attributes: {len(spelling)}",
        f"pairs compared: {len(common)}  appeared: {len(added)}  disappeared: {len(removed)}",
    ]
    if common:
        lines.append("pair                      old         new         delta       rank old->new")
        for pair in sorted(common, key=lambda pair: (-abs(new_scores[pair][0] - old_scores[pair][0]), pair)):
            (was, old_rank), (now, new_rank) = old_scores[pair], new_scores[pair]
            label = f"{pair[0]},{pair[1]}"
            lines.append(f"{label:<25} {fmt(was):<11} {fmt(now):<11} {fmt(now - was):<11} {old_rank}->{new_rank}")
    lines += [f"appeared: {a},{b} at {fmt(new_scores[a, b][0])}" for a, b in added]
    lines += [f"disappeared: {a},{b} was {fmt(old_scores[a, b][0])}" for a, b in removed]
    return "".join(line + "\n" for line in lines)


def analyzed(tmp_path, name, queries, catalog_names, precision=2):
    """The snapshot of `analyze` over jsonl-attrs queries (lists of names) and a catalog."""
    workload, catalog = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.txt"
    workload.write_text("".join(json.dumps({"id": f"q{i}", "attrs": q}) + "\n" for i, q in enumerate(queries)))
    catalog.write_text("".join(f"{attr}\n" for attr in catalog_names))
    out = tmp_path / name
    assert main([
        "analyze", "--input", str(workload), "--input-format", "jsonl-attrs", "--catalog", str(catalog),
        "--out", str(out), "--precision", str(precision),
    ]) == EXIT_OK
    return str(out / "snapshot.json")


def test_diff_of_analyzed_snapshots_matches_the_reference_byte_for_byte(capsys, tmp_path):
    workload, catalog, (a_lo, a_hi), (b_lo, b_hi) = write_window_fixture(tmp_path)
    base = ["analyze", "--input", str(workload), "--input-format", "jsonl-attrs", "--catalog", str(catalog)]
    windows = []
    for lo, hi in ((a_lo, a_hi), (b_lo, b_hi)):
        out = tmp_path / f"window-{lo}"
        assert main(base + ["--select", f"interval:{lo}..{hi}", "--out", str(out)]) == EXIT_OK
        windows.append(str(out / "snapshot.json"))
    # two sparse random windows over catalogs that differ in case and in members: pairs appear and disappear
    rng = random.Random(13)
    names = [f"{c}{i}" for i in range(6) for c in "aB"]
    snapshots = [
        analyzed(tmp_path, f"sparse-{k}", [rng.sample(names, rng.randint(1, 3)) for _ in range(25)], catalog_names, p)
        for k, (catalog_names, p) in enumerate([
            (names, 2),
            ([name.swapcase() for name in names[:10]] + ["extra"], 0),
            ([name.upper() for name in names[2:]], 10),
        ])
    ]
    capsys.readouterr()
    pairs = [(windows[0], windows[1]), (windows[1], windows[0])]
    pairs += [(old, new) for old in snapshots for new in snapshots]
    printed = {}
    for old, new in pairs:
        code, printed[old, new], _ = run_cli(capsys, "diff", "--old", old, "--new", new)
        new_snap = load_snapshot(new)
        assert code == EXIT_OK
        want = reference_diff(load_snapshot(old).bundle, new_snap.bundle, new_snap.config.precision)
        assert printed[old, new] == want
    moved = printed[snapshots[0], snapshots[2]]
    assert "\nappeared: " in moved and "\ndisappeared: " in moved


def nnsm_bundle(names, values, defined):
    """A bundle over names whose NNSM is given; diff reads no other matrix."""
    base = run_pipeline(oracles.usage_set((("q", {0}),), AttributeCatalog(tuple(names))))
    nnsm = MaskedRealMatrix(kind="NNSM", attributes=tuple(names), values=values, defined=defined)
    return dataclasses.replace(base, nnsm=nnsm)


def diff_stdout(capsys, monkeypatch, old, new, precision):
    """diff's stdout for two bundles, with the new one's display precision."""
    snaps = {
        "old": SimpleNamespace(bundle=old, config=SimpleNamespace(precision=None)),
        "new": SimpleNamespace(bundle=new, config=SimpleNamespace(precision=precision)),
    }
    monkeypatch.setattr("attrscale.cli.load_snapshot", snaps.__getitem__)
    code, stdout, _ = run_cli(capsys, "diff", "--old", "old", "--new", "new")
    assert code == EXIT_OK
    return stdout


def scored_bundle(names, score):
    """A bundle whose NNSM defines only the (row, column) cells given, at their values."""
    values, defined = np.zeros((len(names),) * 2), np.zeros((len(names),) * 2, dtype=bool)
    for (h, k), value in score.items():
        values[h, k], defined[h, k] = value, True
    return nnsm_bundle(names, values, defined)


def test_diff_rounds_an_exact_negative_tie_half_up(capsys, monkeypatch):
    old, new = scored_bundle("xyz", {(0, 1): 0.25}), scored_bundle("xyz", {(0, 1): 0.125})
    assert diff_stdout(capsys, monkeypatch, old, new, 2) == reference_diff(old, new, 2) == (
        "shared attributes: 3\n"
        "pairs compared: 1  appeared: 0  disappeared: 0\n"
        "pair                      old         new         delta       rank old->new\n"
        "x,y                       0.25        0.13        -0.13       1->1\n"
    )


def test_diff_breaks_equal_movements_by_the_new_spelling(capsys, monkeypatch):
    # casefolded, the pairs would sort a,b < a,c < b,c; in the new spelling "B" sorts before "a"
    old = scored_bundle(("A", "b", "c"), {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0})
    new = scored_bundle(("a", "B", "c"), {(0, 1): 1.5, (0, 2): 1.5, (1, 2): 3.5})
    stdout = diff_stdout(capsys, monkeypatch, old, new, 1)
    assert stdout == reference_diff(old, new, 1)
    assert [line.split()[0] for line in stdout.splitlines()[3:]] == ["B,a", "B,c", "a,c"]


@pytest.mark.parametrize("seed", range(6))
def test_diff_of_random_scales_matches_the_reference_byte_for_byte(capsys, monkeypatch, seed):
    # scores in eighths: exact rounding ties at low precision, equal scores and equal movements
    rng = np.random.default_rng(seed)
    pool = [f"n{i}" for i in range(14)]

    def bundle(size):
        names = [name.upper() if rng.random() < 0.5 else name for name in rng.choice(pool, size, replace=False)]
        defined = rng.random((size, size)) < 0.4
        np.fill_diagonal(defined, False)
        return nnsm_bundle(names, rng.integers(0, 81, (size, size)) / 8, defined)

    old, new = bundle(int(rng.integers(2, 14))), bundle(int(rng.integers(2, 14)))
    for precision in (0, 2, 10):
        assert diff_stdout(capsys, monkeypatch, old, new, precision) == reference_diff(old, new, precision)


def test_diff_rows_crossing_a_block_boundary_match_the_reference_byte_for_byte(capsys, monkeypatch):
    # diff writes _BLOCK_ROWS lines at a time: the compared and the appeared pairs each run one row
    # into a second block, the disappeared ones fill part of one
    rng = np.random.default_rng(8)
    names = [f"n{i}" for i in range(70)]
    upper = [(h, k) for h in range(70) for k in range(h + 1, 70)]
    common, appeared, disappeared = np.split(rng.permutation(len(upper)), [_BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 2])
    assert len(disappeared) > 0

    def bundle(pairs):
        return scored_bundle(names, {upper[i]: rng.integers(0, 81) / 8 for i in pairs.tolist()})

    old, new = bundle(np.concatenate((common, disappeared))), bundle(np.concatenate((common, appeared)))
    stdout = diff_stdout(capsys, monkeypatch, old, new, 2)
    assert stdout == reference_diff(old, new, 2)
    assert stdout.count("\nappeared: ") == _BLOCK_ROWS + 1


def reference_rank(bundle, key: str, top: int, precision: int) -> tuple[str, str]:
    """rank's stdout and stderr by the pair-at-a-time algorithm: the oracles' order (score, then
    name pair), then format_value on every score and one print per line."""
    names = bundle.attributes
    nnsm = [[bundle.nnsm.cell(h, k) for k in range(len(names))] for h in range(len(names))]
    ranked = (oracles.oracle_rank_min if key == "nnsm-min" else oracles.oracle_rank_row)(nnsm, names)
    lines = [f"key: {key}  pairs ranked: {len(ranked)}  showing: {len(ranked[:top])}"]
    if ranked[:top]:
        lines.append("rank  pair                      nnsm        nsm         adm")
    for pos, (score, a, b) in enumerate(ranked[:top], start=1):
        h, k = names.index(a), names.index(b)
        pair, nnsm, nsm = f"{a},{b}", format_value(score, precision), format_value(bundle.nsm.values[h, k], precision)
        lines.append(f"{pos:<5} {pair:<25} {nnsm:<11} {nsm:<11} {int(bundle.adm.counts[h, k])}")
    warning = "" if ranked else "warning: every scale cell is undefined; nothing to rank\n"
    return "".join(line + "\n" for line in lines), warning


RANK_LISTINGS = [(key, top) for key in ("nnsm-min", "nnsm-row") for top in (0, 3, 10**6)]


def rank_output(capsys, monkeypatch, bundle, precision, key, top):
    """rank's stdout and stderr for a bundle, at a display precision."""
    snap = SimpleNamespace(bundle=bundle, config=SimpleNamespace(precision=precision))
    monkeypatch.setattr("attrscale.cli.load_snapshot", lambda path: snap)
    code, stdout, stderr = run_cli(capsys, "rank", "--snapshot", "snap", "--key", key, "--top", str(top))
    assert code == EXIT_OK
    return stdout, stderr


@pytest.mark.parametrize("precision", [0, 2, 10])
def test_rank_of_the_reference_run_matches_the_reference_byte_for_byte(capsys, data_dir, tmp_path, precision):
    out = tmp_path / "out"
    assert main(analyze_args(data_dir, out, **{"--precision": str(precision)})) == EXIT_OK
    bundle = load_snapshot(out / "snapshot.json").bundle
    capsys.readouterr()
    for key, top in RANK_LISTINGS:
        argv = ["rank", "--snapshot", str(out / "snapshot.json"), "--key", key, "--top", str(top)]
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert (stdout, stderr) == reference_rank(bundle, key, top, precision)


def ranked_bundle(rng, size, density, pool_size=14):
    """A bundle over mixed-case names, drawn from pool_size names, whose NNSM and NSM share one random
    mask, scores in eighths (exact rounding ties, equal scores) and counts drawn at random; rank reads
    only these three."""
    pool = rng.choice([f"n{i}" for i in range(pool_size)], size, replace=False)
    names = [name.upper() if rng.random() < 0.5 else name for name in pool]
    defined = rng.random((size, size)) < density
    np.fill_diagonal(defined, False)
    counts = rng.integers(0, 9, (size, size))
    np.fill_diagonal(counts, 0)
    nsm_values = rng.integers(-80, 81, (size, size)) / 8
    nsm = MaskedRealMatrix(kind="NSM", attributes=tuple(names), values=nsm_values, defined=defined)
    bundle = nnsm_bundle(names, rng.integers(0, 81, (size, size)) / 8, defined)
    return dataclasses.replace(bundle, nsm=nsm, adm=DependencyMatrix(tuple(names), counts, counts.sum(axis=1)))


@pytest.mark.parametrize("seed, density", [(seed, 0.5) for seed in range(6)] + [(6, 0.0)])  # 0.0: nothing to rank
def test_rank_of_random_scales_matches_the_reference_byte_for_byte(capsys, monkeypatch, seed, density):
    rng = np.random.default_rng(seed)
    bundle = ranked_bundle(rng, int(rng.integers(2, 14)), density)
    for precision in (0, 2, 10):
        for key, top in RANK_LISTINGS:
            want = reference_rank(bundle, key, top, precision)
            assert rank_output(capsys, monkeypatch, bundle, precision, key, top) == want


def test_rank_rows_crossing_a_block_boundary_match_the_reference_byte_for_byte(capsys, monkeypatch):
    # rank writes _BLOCK_ROWS lines at a time; one row more than a block runs into a second
    bundle = ranked_bundle(np.random.default_rng(7), 50, 1.0, pool_size=50)
    for key in RANK_KEYS:
        want = reference_rank(bundle, key, _BLOCK_ROWS + 1, 2)
        assert want[0].count("\n") == 2 + _BLOCK_ROWS + 1
        assert rank_output(capsys, monkeypatch, bundle, 2, key, _BLOCK_ROWS + 1) == want


def traced_peak(argv, stdout_path) -> int:
    """The tracemalloc peak of one in-process command, its stdout sent to a file so that captured text
    is not counted."""
    with open(stdout_path, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_diff_peak_memory_stays_below_one_and_a_half_times_rank(tmp_path):
    # diff frees the old bundle before the new one is built and writes its report a block of rows at a
    # time. Holding both bundles and every report line took this self-diff to 2.6 times rank's peak;
    # it is 1.1 times now. Every one of the 3,160 pairs is defined, so the report outweighs a bundle
    rng = random.Random(3)
    names = [f"attr{i:02d}" for i in range(80)]
    snap = analyzed(tmp_path, "dense", [rng.sample(names, 20) for _ in range(200)], names)
    stdout = tmp_path / "stdout.txt"
    traced_peak(["rank", "--snapshot", snap], stdout)  # lazy imports and first-call caches load here
    rank = traced_peak(["rank", "--snapshot", snap, "--top", "10"], stdout)
    diff = traced_peak(["diff", "--old", snap, "--new", snap], stdout)
    assert stdout.read_text(encoding="utf-8").count("\n") == 3 + 3160
    assert diff < 1.5 * rank, f"diff peak {diff / 1e6:.2f} MB against rank's {rank / 1e6:.2f} MB"


def test_rank_with_no_defined_cell_warns_and_exits_0(capsys, tmp_path):
    workload = tmp_path / "w.jsonl"
    workload.write_text("".join(json.dumps({"id": f"q{i}", "attrs": [name]}) + "\n" for i, name in enumerate("abc")))
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("a\nb\nc\n")
    out = tmp_path / "out"
    assert main([
        "analyze", "--input", str(workload), "--input-format", "jsonl-attrs", "--catalog", str(catalog), "--out", str(out),
    ]) == EXIT_OK
    capsys.readouterr()
    code, stdout, stderr = run_cli(capsys, "rank", "--snapshot", str(out / "snapshot.json"))
    assert code == EXIT_OK
    assert stdout == "key: nnsm-min  pairs ranked: 0  showing: 0\n"
    assert stderr == "warning: every scale cell is undefined; nothing to rank\n"


def test_diff_disjoint_catalogs_exit_1(capsys, data_dir, tmp_path):
    out_ref = tmp_path / "ref"
    assert main(analyze_args(data_dir, out_ref)) == EXIT_OK
    workload, catalog, (a_lo, a_hi), _ = write_window_fixture(tmp_path)
    out_win = tmp_path / "win"
    assert main([
        "analyze", "--input", str(workload), "--input-format", "jsonl-attrs",
        "--catalog", str(catalog), "--select", f"interval:{a_lo}..{a_hi}", "--out", str(out_win),
    ]) == EXIT_OK
    capsys.readouterr()
    code, _, stderr = run_cli(
        capsys, "diff", "--old", str(out_ref / "snapshot.json"), "--new", str(out_win / "snapshot.json")
    )
    assert code == EXIT_INPUT_ERROR
    assert "disjoint" in stderr


def test_console_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "attrscale.cli", "--help"], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout and "diff" in proc.stdout


# json.loads raises RecursionError past the interpreter's nesting limit, and ValueError
# past 4,300 integer digits; both are a file the loader cannot read, not a crash
UNPARSABLE_JSON = {"deep-nesting": "[" * 100_000, "long-integer": "1" * 5_000}


def run_cli_child(*argv):
    # a child process, so an uncaught exception shows as a traceback on stderr
    proc = subprocess.run([sys.executable, "-m", "attrscale.cli", *argv], capture_output=True, text=True, env=CHILD_ENV)
    return proc.returncode, proc.stderr


def test_rerun_in_processes_with_other_string_hash_seeds_is_byte_identical(tmp_path):
    # set and dict orders of strings differ between the two processes; no output may depend on them
    rng = random.Random(31)
    names = [f"c{i}" for i in range(12)] + ["rare"]
    (tmp_path / "catalog.txt").write_text("".join(name + "\n" for name in names))
    statements = ["SELECT f.rare, d.c0 FROM facts f JOIN dims d ON f.c1 = d.c2"]
    for i in range(60):
        a, b, c, d = rng.sample(names[:-1], 4)
        statements.append(rng.choice([
            f"SELECT f.{a}, d.{b} FROM facts f INNER JOIN dims d ON f.{c} = d.{d} WHERE f.{a} > {i}",
            f"SELECT t.{a}, {b} FROM tbl t WHERE t.{c} < 10 GROUP BY t.{a}",
            f"select {a}, mystery{i % 4}, ghost from t where {b} = 1 order by {c}",
        ]))
    (tmp_path / "w.jsonl").write_text("".join(
        json.dumps({"id": f"q{i}", "ts": i, "sql": sql}) + "\n" for i, sql in enumerate(statements)
    ))
    out = tmp_path / "out"
    argv = [
        sys.executable, "-m", "attrscale.cli", "analyze", "--input", str(tmp_path / "w.jsonl"),
        "--input-format", "jsonl-sql", "--catalog", str(tmp_path / "catalog.txt"),
        "--select", "random:50", "--seed", "3", "--threshold", "0.05", "--out", str(out),
    ]
    runs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(argv, capture_output=True, text=True, env={**CHILD_ENV, "PYTHONHASHSEED": hash_seed})
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        runs.append((proc.stdout, {path.name: path.read_bytes() for path in out.iterdir()}))
    assert runs[0] == runs[1]
    stdout, files = runs[0]
    assert len(files) == 15
    assert f"attributes analyzed (n): {len(names) - 1}" in stdout  # the threshold dropped "rare"
    assert b"mystery" in files["diagnostics.jsonl"]  # unknown identifiers were recorded


@pytest.mark.parametrize("value", UNPARSABLE_JSON.values(), ids=UNPARSABLE_JSON)
def test_analyze_unparsable_workload_line_exits_1(data_dir, tmp_path, value):
    workload = tmp_path / "w.jsonl"
    workload.write_text('{"id": "q0", "attrs": ["a1"]}\n{"id": "q1", "ts": ' + value + ', "attrs": ["a1"]}\n')
    code, stderr = run_cli_child(*analyze_args(data_dir, tmp_path / "out", **{"--input": str(workload)}))
    assert code == EXIT_INPUT_ERROR
    assert stderr.startswith("error: line 2: invalid JSON: ") and stderr.count("\n") == 1
    assert "Traceback" not in stderr


@pytest.mark.parametrize("value", UNPARSABLE_JSON.values(), ids=UNPARSABLE_JSON)
def test_rank_unparsable_snapshot_exits_1(tmp_path, value):
    snapshot = tmp_path / "snapshot.json"
    snapshot.write_text('{"format_version": ' + value + "}\n")
    code, stderr = run_cli_child("rank", "--snapshot", str(snapshot))
    assert code == EXIT_INPUT_ERROR
    assert stderr.startswith(f"error: snapshot {snapshot} is not valid JSON: ") and stderr.count("\n") == 1
    assert "Traceback" not in stderr


@pytest.mark.parametrize("flag, kind, source", [
    ("--input", "workload", "reference_workload_attrs.jsonl"),
    ("--catalog", "catalog", "reference_catalog.txt"),
], ids=["workload", "catalog"])
def test_analyze_input_that_is_not_utf8_exits_1(data_dir, tmp_path, flag, kind, source):
    lines = (data_dir / source).read_bytes().split(b"\n")
    bad = tmp_path / source
    bad.write_bytes(b"\n".join([*lines[:2], lines[2] + b"\xff", *lines[3:]]))
    code, stderr = run_cli_child(*analyze_args(data_dir, tmp_path / "out", **{flag: str(bad)}))
    assert code == EXIT_INPUT_ERROR
    assert stderr == f"error: line 3: {kind} {bad} is not UTF-8: invalid start byte\n"
    assert not (tmp_path / "out").exists()


# a \ud800 escape is legal JSON, but the code point it decodes to has no UTF-8 encoding; the SQL text
# before a syntax error is measured in bytes, where the surrogate counts 3
@pytest.mark.parametrize("input_format, record, error", [
    ("jsonl-attrs", '{"id": "q\\ud800", "attrs": ["a1"]}', "query id 'q\\ud800' has no UTF-8 encoding"),
    ("jsonl-sql", '{"id": "q1", "sql": "SELECT a1 FROM t WHERE a1 = \'\\ud800\' @"}', "query 'q1': byte 34: unexpected character '@'"),
], ids=["query-id", "sql-text"])
def test_lone_surrogate_in_a_workload_exits_1(data_dir, tmp_path, input_format, record, error):
    workload = tmp_path / "w.jsonl"
    workload.write_text(record + "\n")
    code, stderr = run_cli_child(*analyze_args(data_dir, tmp_path / "out", **{"--input": str(workload), "--input-format": input_format}))
    assert code == EXIT_INPUT_ERROR
    assert stderr == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, argv", [
    ("query id", ["explain", "--pair", "a1,a2"]),
    ("attribute name", ["rank", "--top", "100"]),
], ids=["explain-query-id", "rank-attribute-name"])
def test_resealed_snapshot_with_a_lone_surrogate_exits_1(reference_snapshot, tmp_path, field, argv):
    obj = json.loads(reference_snapshot.read_text())
    del obj["content_hash"]
    if field == "query id":
        obj["usage"]["queries"][0][0] += "\ud800"  # q1, which uses a1 and a2
    else:
        obj["catalog"]["attributes"][0] += "\ud800"
    obj["content_hash"] = _content_hash(obj)
    bad = tmp_path / "resealed.json"
    bad.write_text(json.dumps(obj))
    code, stderr = run_cli_child(*argv, "--snapshot", str(bad))
    assert code == EXIT_INPUT_ERROR
    assert stderr.startswith(f"error: snapshot {bad} is malformed: {field} ") and stderr.count("\n") == 1, stderr
    assert "has no UTF-8 encoding" in stderr


# Python's json reads and writes NaN and Infinity, but they are not JSON: a resealed snapshot holding one
# must be refused, not loaded and written back into a re-exported snapshot.json
@pytest.mark.parametrize("constant", ["NaN", "Infinity"])
def test_resealed_snapshot_with_a_non_json_constant_exits_1(reference_snapshot, tmp_path, constant):
    obj = json.loads(reference_snapshot.read_text())
    del obj["content_hash"]
    if constant == "NaN":
        obj["config"]["selection"]["seed"] = float("nan")
    else:
        obj["usage"]["dropped"].append({"query_id": "qx", "reason": float("inf")})
    obj["content_hash"] = _content_hash(obj)
    bad = tmp_path / "resealed.json"
    bad.write_text(json.dumps(obj))
    assert constant in bad.read_text()
    code, stderr = run_cli_child("rank", "--snapshot", str(bad))
    assert code == EXIT_INPUT_ERROR
    assert stderr == f"error: snapshot {bad} is not valid JSON: {constant} is not a JSON number\n"


@pytest.mark.parametrize("command", ["rank", "diff"])
def test_closed_stdout_pipe_exits_0_without_error(capsys, tmp_path, command):
    rng = random.Random(0)
    names = [f"attr{i:02d}" for i in range(80)]
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("".join(name + "\n" for name in names))
    workload = tmp_path / "wide.jsonl"
    workload.write_text("".join(
        json.dumps({"id": f"q{i}", "ts": i, "attrs": rng.sample(names, 20)}) + "\n" for i in range(200)
    ))
    out = tmp_path / "out"
    base = ["analyze", "--input", str(workload), "--input-format", "jsonl-attrs", "--catalog", str(catalog)]
    assert main(base + ["--out", str(out)]) == EXIT_OK
    snap = str(out / "snapshot.json")
    argv = ["rank", "--snapshot", snap, "--top", "5000"] if command == "rank" else ["diff", "--old", snap, "--new", snap]
    capsys.readouterr()
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK and len(stdout) > 64 * 1024  # more than a pipe buffer holds

    # a reader that stops after one line, like `| head -1`; run apart so stdout is a real pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "attrscale.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=60)
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert first == stdout.splitlines(keepends=True)[0].encode()
    assert (code, stderr) == (EXIT_OK, b"")


def test_no_command_loads_openssl(data_dir, tmp_path):
    # a snapshot is hashed with CPython's built-in SHA-256: hashlib's OpenSSL one maps libcrypto,
    # 3.5 MB of every command's peak. A child process, so no module this one loaded counts
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256, so snapshots hash through hashlib")
    assert _sha256.__module__ in ("_sha2", "_sha256")
    snap = str(tmp_path / "out" / "snapshot.json")
    commands = [analyze_args(data_dir, tmp_path / "out"), ["rank", "--snapshot", snap], ["diff", "--old", snap, "--new", snap]]
    child = (
        "import json, sys\n"
        "import numpy\n"
        "by_numpy = '_hashlib' in sys.modules\n"
        "from attrscale.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, by_numpy, '_hashlib' in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, json.dumps(commands)], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    codes, by_numpy, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [EXIT_OK] * 3
    if by_numpy:
        # numpy 1.x imports numpy.random with numpy, and numpy.random loads OpenSSL through secrets and hmac
        pytest.skip(f"import numpy {np.__version__} alone loads OpenSSL")
    assert not loaded


def test_precision_flag_controls_csv_rendering(capsys, data_dir, tmp_path):
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, *analyze_args(data_dir, out, **{"--precision": "4"}))
    assert code == EXIT_OK
    pdm_line = (out / "pdm.csv").read_text().splitlines()[1]
    assert "0.1154" in pdm_line  # 3/26 at four decimals
