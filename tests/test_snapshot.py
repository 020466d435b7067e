"""Snapshot persistence, content hashing, and deterministic exports."""

from __future__ import annotations

import json
import random

import pytest

from attrscale import (
    MaskedRealMatrix,
    RunConfig,
    SelectionSpec,
    Snapshot,
    SnapshotError,
    load_snapshot,
    run_pipeline,
    save_snapshot,
)
from attrscale.snapshot import _content_hash, render_outputs, snapshot_to_obj, snapshot_to_text, write_outputs


@pytest.fixture()
def snap(reference_usage, reference_bundle, tmp_path):
    config = RunConfig(
        input_path="workload.jsonl",
        input_format="jsonl-attrs",
        catalog_path="catalog.txt",
        selection=SelectionSpec(mode="all"),
        out_dir=str(tmp_path / "out"),
    )
    return Snapshot(config=config, usage=reference_usage, bundle=reference_bundle)


def test_config_validation(tmp_path):
    with pytest.raises(SnapshotError, match="export format"):
        RunConfig("w", "jsonl-attrs", "c", SelectionSpec(), str(tmp_path), export_format="xml")
    with pytest.raises(SnapshotError, match="precision"):
        RunConfig("w", "jsonl-attrs", "c", SelectionSpec(), str(tmp_path), precision=11)
    with pytest.raises(SnapshotError, match="precision"):
        RunConfig("w", "jsonl-attrs", "c", SelectionSpec(), str(tmp_path), precision=2.0)


def test_save_load_round_trip(snap, tmp_path):
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, path)
    again = load_snapshot(path)
    assert snapshot_to_obj(again) == snapshot_to_obj(snap)
    assert again.config == snap.config
    assert again.usage.queries == snap.usage.queries
    assert again.bundle.warnings == snap.bundle.warnings


def test_export_reload_export_is_byte_identical(snap, tmp_path):
    first = tmp_path / "first.json"
    save_snapshot(snap, first)
    second = tmp_path / "second.json"
    save_snapshot(load_snapshot(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_snapshot_text_is_reproducible(reference_usage, snap):
    rebuilt = Snapshot(config=snap.config, usage=reference_usage, bundle=run_pipeline(reference_usage))
    assert snapshot_to_text(rebuilt) == snapshot_to_text(snap)


def test_tampered_snapshot_fails_hash_check(snap, tmp_path):
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, path)
    obj = json.loads(path.read_text())
    obj["usage"]["queries"][0][1].append(9)
    path.write_text(json.dumps(obj))
    with pytest.raises(SnapshotError, match="content hash"):
        load_snapshot(path)


@pytest.mark.parametrize("version", [1, 99])
def test_unsupported_version_rejected(snap, tmp_path, version):
    path = tmp_path / "snapshot.json"
    obj = snapshot_to_obj(snap)
    obj["format_version"] = version
    path.write_text(json.dumps(obj))
    with pytest.raises(SnapshotError, match="format version"):
        load_snapshot(path)


def test_malformed_snapshot_with_valid_hash_rejected(snap, tmp_path):
    obj = snapshot_to_obj(snap)
    del obj["content_hash"], obj["config"]
    obj["content_hash"] = _content_hash(obj)
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SnapshotError, match="malformed"):
        load_snapshot(path)


def test_snapshot_holds_only_the_run_inputs(snap):
    assert sorted(snapshot_to_obj(snap)) == ["catalog", "config", "content_hash", "format_version", "generator", "usage"]


def _paths(node, path=()):
    """Every position in a JSON tree, as key/index tuples from the root."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*path, key))


FUZZ_VALUES = (
    None, True, False, 0, -1, 7, 2**70, 0.5, float("inf"), float("nan"), "", "a1", "A1",
    [], [0], [[]], ["q1", [0]], [[0, 1]], {}, {"mode": "all"},
)


def test_resealed_edits_raise_only_snapshot_error(snap, tmp_path):
    rng = random.Random(20121206)
    base = snapshot_to_obj(snap)
    del base["content_hash"]
    path = tmp_path / "snapshot.json"
    for _ in range(400):
        obj = json.loads(json.dumps(base))
        target = rng.choice([p for p in _paths(obj) if p and p[0] != "format_version"])
        parent = obj
        for key in target[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.2:
            del parent[target[-1]]
        else:
            parent[target[-1]] = rng.choice(FUZZ_VALUES)
        obj["content_hash"] = _content_hash(obj)
        path.write_text(json.dumps(obj))
        try:
            loaded = load_snapshot(path)
        except SnapshotError:
            continue
        render_outputs(loaded)  # an edit that loads must also export


def test_unreadable_and_invalid_files(tmp_path):
    with pytest.raises(SnapshotError, match="cannot read"):
        load_snapshot(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SnapshotError, match="not valid JSON"):
        load_snapshot(bad)
    array = tmp_path / "array.json"
    array.write_text("[]")
    with pytest.raises(SnapshotError, match="not a JSON object"):
        load_snapshot(array)


def test_render_outputs_file_sets(snap):
    both = render_outputs(snap)
    assert sorted(both) == sorted(
        [f"{name}.{ext}" for name in ("qaum", "adm", "pdm", "mvsd", "nsm", "nnsm") for ext in ("csv", "json")]
        + ["warnings.json", "diagnostics.jsonl", "snapshot.json"]
    )
    csv_only = render_outputs(Snapshot(config=RunConfig(
        "w", "jsonl-attrs", "c", SelectionSpec(), snap.config.out_dir, export_format="csv",
    ), usage=snap.usage, bundle=snap.bundle))
    assert sorted(n for n in csv_only if n.endswith(".csv")) == [
        "adm.csv", "mvsd.csv", "nnsm.csv", "nsm.csv", "pdm.csv", "qaum.csv",
    ]
    assert "pdm.json" not in csv_only and "snapshot.json" in csv_only


def test_csv_uses_display_precision_and_json_full_precision(snap):
    files = render_outputs(snap)
    assert "0.12" in files["pdm.csv"].splitlines()[1]  # 3/26 displayed at 2 decimals
    pdm = json.loads(files["pdm.json"])
    assert pdm["values"][0][1] == 3 / 26  # untouched double
    assert files["snapshot.json"] == snapshot_to_text(snap)


def test_write_outputs_creates_files_atomically(snap, tmp_path):
    out = tmp_path / "out"
    written = write_outputs(snap, out)
    assert sorted(p.name for p in written) == sorted(render_outputs(snap))
    assert not [p for p in out.iterdir() if p.name.startswith(".attrscale-stage-")]
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    write_outputs(snap, out)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after  # reruns are byte-identical


def test_write_outputs_failure_leaves_nothing_behind(snap, tmp_path, monkeypatch):
    out = tmp_path / "out"

    def boom(self, precision=None):
        raise RuntimeError("render failure")

    monkeypatch.setattr(MaskedRealMatrix, "to_csv", boom)
    with pytest.raises(RuntimeError):
        write_outputs(snap, out)
    assert not out.exists()
