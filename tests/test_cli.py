"""Command-line behavior: analyze, rank, explain, diff, and exit codes."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import attrscale
from attrscale import load_snapshot
from attrscale.cli import EXIT_EMPTY_ANALYSIS, EXIT_INPUT_ERROR, EXIT_OK, main
from attrscale.snapshot import MATRIX_BASENAMES, render_outputs
from test_acceptance import synthetic_usage

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
    written = {p.name: p.read_text(encoding="utf-8") for p in out.iterdir()}
    assert render_outputs(load_snapshot(out / "snapshot.json")) == written


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
    catalog.write_text("".join(f"{name}\n" for name in usage.attributes))
    workload = tmp_path / "wide.jsonl"
    workload.write_text("".join(
        json.dumps({"id": qid, "attrs": [usage.attributes[k] for k in np.flatnonzero(row)]}) + "\n"
        for qid, row in zip(usage.query_ids, usage.cells)
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


def test_precision_flag_controls_csv_rendering(capsys, data_dir, tmp_path):
    out = tmp_path / "out"
    code, _, _ = run_cli(capsys, *analyze_args(data_dir, out, **{"--precision": "4"}))
    assert code == EXIT_OK
    pdm_line = (out / "pdm.csv").read_text().splitlines()[1]
    assert "0.1154" in pdm_line  # 3/26 at four decimals
