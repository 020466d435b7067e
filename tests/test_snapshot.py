"""Snapshot persistence, content hashing, and deterministic exports."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from attrscale import (
    AttributeCatalog,
    MaskedRealMatrix,
    QueryRecord,
    RunConfig,
    SelectionSpec,
    Snapshot,
    SnapshotError,
    UsageSet,
    build_usage_set,
    load_snapshot,
    load_workload,
)
from attrscale import matrices, snapshot
from attrscale.cli import EXIT_INPUT_ERROR, main
from attrscale.snapshot import _BLOCK_ENTRIES, FORMAT_VERSION, _content_hash, _snapshot_pieces, write_outputs
from test_acceptance import synthetic_usage
from test_workload import unknown_identifier_log

import oracles


def snapshot_text(snap: Snapshot) -> str:
    """The snapshot file as write_outputs writes it."""
    return "".join(_snapshot_pieces(snap))


def snapshot_obj(snap: Snapshot) -> dict:
    """The snapshot file's JSON value, content hash included."""
    return json.loads(snapshot_text(snap))


@pytest.fixture()
def snap(reference_usage, tmp_path):
    config = RunConfig(
        input_path="workload.jsonl",
        input_format="jsonl-attrs",
        catalog_path="catalog.txt",
        selection=SelectionSpec(mode="all"),
        out_dir=str(tmp_path / "out"),
    )
    return Snapshot(config=config, usage=reference_usage)


def test_config_validation(tmp_path):
    with pytest.raises(SnapshotError, match="export format"):
        RunConfig("w", "jsonl-attrs", "c", SelectionSpec(), str(tmp_path), export_format="xml")
    with pytest.raises(SnapshotError, match="precision"):
        RunConfig("w", "jsonl-attrs", "c", SelectionSpec(), str(tmp_path), precision=11)
    with pytest.raises(SnapshotError, match="precision"):
        RunConfig("w", "jsonl-attrs", "c", SelectionSpec(), str(tmp_path), precision=2.0)
    with pytest.raises(SnapshotError, match="^unknown input format 'xml'$"):
        RunConfig("w", "xml", "c", SelectionSpec(), str(tmp_path))
    with pytest.raises(SnapshotError, match="^input_path must be a string, got 5$"):
        RunConfig(5, "jsonl-attrs", "c", SelectionSpec(), str(tmp_path))
    with pytest.raises(SnapshotError, match="^catalog_path must be a string, got None$"):
        RunConfig("w", "jsonl-attrs", None, SelectionSpec(), str(tmp_path))
    with pytest.raises(SnapshotError, match=r"^out_dir must be a string, got \['x'\]$"):
        RunConfig("w", "jsonl-attrs", "c", SelectionSpec(), ["x"])


def test_snapshot_holds_only_the_run_inputs_and_derives_its_bundle(snap, reference_bundle):
    assert [f.name for f in dataclasses.fields(Snapshot)] == ["config", "usage"]
    assert snap.bundle is snap.bundle  # the pipeline runs once, on the first read
    assert snap.bundle.warnings == reference_bundle.warnings
    assert np.array_equal(snap.bundle.nnsm.values, reference_bundle.nnsm.values, equal_nan=True)


def test_save_load_round_trip(snap, tmp_path):
    path = tmp_path / "snapshot.json"
    path.write_text(snapshot_text(snap))
    again = load_snapshot(path)
    assert snapshot_obj(again) == snapshot_obj(snap)
    assert again.config == snap.config
    assert oracles.usage_rows(again.usage) == oracles.usage_rows(snap.usage)
    assert again.bundle.warnings == snap.bundle.warnings


def test_export_reload_export_is_byte_identical(snap, tmp_path):
    first = tmp_path / "first.json"
    first.write_text(snapshot_text(snap))
    second = tmp_path / "second.json"
    second.write_text(snapshot_text(load_snapshot(first)))
    assert first.read_bytes() == second.read_bytes()


def test_snapshot_text_is_reproducible(reference_usage, snap):
    rebuilt = Snapshot(config=snap.config, usage=reference_usage)
    assert snapshot_text(rebuilt) == snapshot_text(snap)


def test_tampered_snapshot_fails_hash_check(snap, tmp_path):
    path = tmp_path / "snapshot.json"
    path.write_text(snapshot_text(snap))
    obj = json.loads(path.read_text())
    obj["usage"]["queries"][0][1].append(9)
    path.write_text(json.dumps(obj))
    with pytest.raises(SnapshotError, match="content hash"):
        load_snapshot(path)


@pytest.mark.parametrize("version", [1, 2, 99, 3.0])
def test_unsupported_version_rejected(snap, tmp_path, version):
    path = tmp_path / "snapshot.json"
    obj = snapshot_obj(snap)
    obj["format_version"] = version
    path.write_text(json.dumps(obj))
    with pytest.raises(SnapshotError, match=f"^unsupported snapshot format version {version}$"):
        load_snapshot(path)


def test_malformed_snapshot_with_valid_hash_rejected(snap, tmp_path):
    obj = snapshot_obj(snap)
    del obj["content_hash"], obj["config"]
    obj["content_hash"] = _content_hash(obj)
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SnapshotError, match="malformed"):
        load_snapshot(path)


def test_snapshot_holds_only_the_run_inputs(snap):
    assert sorted(snapshot_obj(snap)) == ["catalog", "config", "content_hash", "format_version", "generator", "usage"]


def test_indented_files_load_and_config_keys_must_match(snap, tmp_path):
    # whitespace is not part of the format: an indented v2 file loads like the compact one
    path = tmp_path / "snapshot.json"
    obj = snapshot_obj(snap)
    assert snapshot_text(snap) == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    path.write_text(json.dumps(obj, sort_keys=True, indent=2))
    assert load_snapshot(path).config == snap.config
    # a resealed config missing a defaulted field, or carrying an extra one, is rejected
    config = snapshot_obj(snap)["config"]
    edits = [{**config, "extra": 1}, {**config, "selection": {**config["selection"], "extra": 1}}]
    edits += [{k: v for k, v in config.items() if k != key} for key in ("precision", "export_format")]
    edits += [{**config, "selection": {k: v for k, v in config["selection"].items() if k != "usage_threshold"}}]
    for edited in edits:
        del obj["content_hash"]
        obj["config"] = edited
        obj["content_hash"] = _content_hash(obj)
        path.write_text(json.dumps(obj))
        # an extra key fails the constructor; a missing one would load as its default, so it fails the
        # check that the rebuilt inputs re-export as the file's payload
        with pytest.raises(SnapshotError, match="malformed: (.*unexpected keyword argument 'extra'|it is not what)"):
            load_snapshot(path)


def _fail_re_encode(payload):
    raise AssertionError("the payload was re-encoded")


def test_canonical_file_is_checked_over_its_bytes(snap, tmp_path, monkeypatch):
    # the file analyze writes is its payload's canonical encoding, so its own bytes are hashed, and the
    # payload is never re-encoded
    path = tmp_path / "snapshot.json"
    path.write_text(snapshot_text(snap), encoding="utf-8")
    monkeypatch.setattr(snapshot, "_content_hash", _fail_re_encode)
    assert load_snapshot(path) == snap


def test_the_built_in_sha256_gives_hashlib_digests():
    # snapshot hashes with CPython's built-in SHA-256, which maps no OpenSSL; its digests are hashlib's
    pieces = ["", '{"a":', "1" * 100_000, "", "}"]
    assert snapshot._digest(pieces) == "sha256:" + hashlib.sha256("".join(pieces).encode("ascii")).hexdigest()
    assert snapshot._digest([]) == snapshot._digest([""]) == "sha256:" + hashlib.sha256(b"").hexdigest()
    data = bytes(range(256)) * 400
    with memoryview(data) as view:
        for lo, hi in ((0, 0), (5, 5), (0, len(data)), (7, 70_001), (len(data) - 1, len(data))):
            assert snapshot._sha256(view[lo:hi]).hexdigest() == hashlib.sha256(data[lo:hi]).hexdigest()


def _moved_after_usage(text: str) -> str:
    """A canonical snapshot file with its content_hash member moved to the end of the object."""
    obj = json.loads(text)
    stored = obj.pop("content_hash")
    return canonical(obj)[:-1] + f',"content_hash":"{stored}"}}\n'


@pytest.mark.parametrize(
    "form, re_encodes",
    [
        (lambda text: json.dumps(json.loads(text), sort_keys=True, indent=2), 1),
        (lambda text: text.removesuffix("\n"), 1),
        # less its content_hash member, this file is still the canonical encoding, so its bytes are hashed
        (_moved_after_usage, 0),
    ],
    ids=["indented", "no-final-newline", "hash-after-usage"],
)
def test_files_in_another_form_load(snap, tmp_path, monkeypatch, form, re_encodes):
    path = tmp_path / "snapshot.json"
    path.write_text(form(snapshot_text(snap)), encoding="utf-8")
    calls = []
    monkeypatch.setattr(snapshot, "_content_hash", lambda payload: calls.append(1) or _content_hash(payload))
    assert load_snapshot(path) == snap
    assert len(calls) == re_encodes


def _index_changed(text: str) -> str:
    """A canonical snapshot file with the first kept query's first index changed, its hash kept."""
    obj = json.loads(text)
    indices = obj["usage"]["queries"][0][1]
    indices[0] = 1 - indices[0]
    return canonical(obj) + "\n"


@pytest.mark.parametrize(
    "edit",
    [
        _index_changed,
        lambda text: canonical({**json.loads(text), "content_hash": 7}) + "\n",
        lambda text: canonical({**json.loads(text), "content_hash": None}) + "\n",
    ],
    ids=["index-changed", "hash-a-number", "hash-null"],
)
def test_canonical_file_edited_fails_the_hash_check(snap, tmp_path, edit):
    path = tmp_path / "snapshot.json"
    path.write_text(edit(snapshot_text(snap)), encoding="utf-8")
    with pytest.raises(SnapshotError) as refused:
        load_snapshot(path)
    assert str(refused.value) == f"snapshot {path} failed its content hash check (corrupt or edited)"


def _resealed_edits():
    """(id, edit) pairs: each edit changes a payload in place into one this version never writes."""
    yield "extra-top-level-key", lambda obj: obj.update(extra_top=1)
    yield "extra-catalog-key", lambda obj: obj["catalog"].update(database_attribute_count=10)
    yield "extra-usage-key", lambda obj: obj["usage"].update(extra=[])
    yield "foreign-generator", lambda obj: obj.update(generator="other-tool")
    yield "unsorted-indices", lambda obj: obj["usage"]["queries"][0][1].reverse()
    yield "repeated-index", lambda obj: obj["usage"]["queries"][0][1].append(obj["usage"]["queries"][0][1][0])
    # fields the constructors refuse, each a value analyze never writes
    yield "bool-threshold", lambda obj: obj["config"]["selection"].update(usage_threshold=True)
    yield "int-threshold-1", lambda obj: obj["config"]["selection"].update(usage_threshold=1)
    yield "int-threshold-0", lambda obj: obj["config"]["selection"].update(usage_threshold=0)
    yield "count-on-mode-all", lambda obj: obj["config"]["selection"].update(count=5)
    yield "unknown-input-format", lambda obj: obj["config"].update(input_format="xml")
    yield "int-input-path", lambda obj: obj["config"].update(input_path=5)
    yield "list-out-dir", lambda obj: obj["config"].update(out_dir=["x"])
    yield "repeated-query-id", lambda obj: obj["usage"]["queries"][1].__setitem__(0, obj["usage"]["queries"][0][0])
    yield "int-dropped-entry", lambda obj: obj["usage"]["dropped"].append(5)
    yield "string-unknown-identifiers", lambda obj: obj["usage"]["diagnostics"].append(
        {"query_id": obj["usage"]["queries"][0][0], "unknown_identifiers": "zz"}
    )
    # facts across fields that build_usage_set never writes
    yield "dropped-id-also-kept", lambda obj: obj["usage"]["dropped"].append(
        {"query_id": obj["usage"]["queries"][0][0], "reason": "empty attribute set after filtering"}
    )
    yield "repeated-dropped-id", lambda obj: obj["usage"]["dropped"].extend(
        2 * [{"query_id": "q-dropped", "reason": "empty attribute set after filtering"}]
    )
    yield "diagnostics-id-names-no-query", lambda obj: obj["usage"]["diagnostics"].append(
        {"query_id": "q-nowhere", "unknown_identifiers": ["zz"]}
    )
    yield "repeated-diagnostics-id", lambda obj: obj["usage"]["diagnostics"].extend(
        2 * [{"query_id": obj["usage"]["queries"][0][0], "unknown_identifiers": ["zz"]}]
    )
    yield "empty-unknown-identifiers", lambda obj: obj["usage"]["diagnostics"].append(
        {"query_id": obj["usage"]["queries"][0][0], "unknown_identifiers": []}
    )
    yield "empty-query-id", lambda obj: obj["usage"]["queries"][0].__setitem__(0, "")
    yield "empty-dropped-id", lambda obj: obj["usage"]["dropped"].append(
        {"query_id": "", "reason": "empty attribute set after filtering"}
    )
    yield "repeated-unknown-identifier", lambda obj: obj["usage"]["diagnostics"].append(
        {"query_id": obj["usage"]["queries"][0][0], "unknown_identifiers": ["x", "x"]}
    )
    yield "int-attribute-name", lambda obj: obj["catalog"]["attributes"].__setitem__(0, 5)
    # analyze exits 2 on a run that keeps no query, so it never writes an empty usage set
    yield "no-kept-query", lambda obj: obj["usage"]["queries"].clear()


RESEALED_EDITS = dict(_resealed_edits())


@pytest.mark.parametrize("edit", RESEALED_EDITS.values(), ids=RESEALED_EDITS)
def test_resealed_payload_this_version_never_writes_exits_1(snap, tmp_path, capsys, edit):
    # each edit rebuilds the same inputs, but re-exporting them would give other bytes
    obj = snapshot_obj(snap)
    del obj["content_hash"]
    edit(obj)
    obj["content_hash"] = _content_hash(obj)
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(obj))
    assert main(["rank", "--snapshot", str(path)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: snapshot {path} is malformed: ") and captured.err.count("\n") == 1


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
    base = snapshot_obj(snap)
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
        write_outputs(loaded, tmp_path / "export")  # an edit that loads must also export


@pytest.mark.parametrize("index", [0.5, 1.0, True, "1", 2**70, -1, "len(catalog)"])
def test_resealed_non_catalog_index_raises_snapshot_error(snap, tmp_path, index):
    # json.loads gives back 1.0 as a float and true as a bool; neither may pass as an index
    obj = snapshot_obj(snap)
    del obj["content_hash"]
    qid, indices = obj["usage"]["queries"][1]
    indices.append(len(obj["catalog"]["attributes"]) if index == "len(catalog)" else index)
    obj["content_hash"] = _content_hash(obj)
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SnapshotError, match=f"malformed: query '{qid}' has an attribute index outside the catalog$"):
        load_snapshot(path)


@pytest.mark.parametrize(
    "edit, fault",
    [
        (lambda obj: obj["usage"]["queries"][0].append([]), "usage row 0 is not an [id, indices] pair"),
        (lambda obj: obj["usage"]["queries"].__setitem__(1, 5), "usage row 1 is not an [id, indices] pair"),
        (lambda obj: obj["usage"]["queries"][0].__setitem__(1, 5), "usage row 0 is not an [id, indices] pair"),
        (lambda obj: obj["usage"]["queries"][0].pop(), "usage row 0 is not an [id, indices] pair"),
        (lambda obj: obj["usage"]["queries"].clear(), "usage holds no query"),
        (lambda obj: obj["catalog"].update(attributes=5), "catalog.attributes is not a JSON array"),
        (lambda obj: obj["catalog"].pop("attributes"), "catalog.attributes is missing"),
        (lambda obj: obj.update(catalog=5), "catalog is not a JSON object"),
        (lambda obj: obj.pop("config"), "config is missing"),
        (lambda obj: obj.update(config=["x"]), "config is not a JSON object"),
        (lambda obj: obj["config"].update(selection="all"), "config.selection is not a JSON object"),
        (lambda obj: obj["config"].pop("selection"), "config.selection is missing"),
        (lambda obj: obj["config"]["selection"].update(mode=["all"]), "unknown selection mode ['all']"),
        (lambda obj: obj["config"]["selection"].update(mode={"all": 1}), "unknown selection mode {'all': 1}"),
        (lambda obj: obj.pop("usage"), "usage is missing"),
        (lambda obj: obj.update(usage=[]), "usage is not a JSON object"),
        (lambda obj: obj["usage"].update(queries=5), "usage.queries is not a JSON array"),
        (lambda obj: obj["usage"].pop("dropped"), "usage.dropped is missing"),
        (lambda obj: obj["usage"].update(diagnostics={}), "usage.diagnostics is not a JSON array"),
    ],
    ids=[
        "row-of-three", "row-is-a-number", "indices-are-a-number", "row-of-one", "no-query", "attributes-a-number",
        "no-attributes", "catalog-a-number", "no-config", "config-a-list", "selection-a-string", "no-selection",
        "mode-a-list", "mode-an-object", "no-usage", "usage-a-list", "queries-a-number", "no-dropped",
        "diagnostics-an-object",
    ],
)
def test_resealed_field_of_the_wrong_shape_is_named(snap, tmp_path, edit, fault):
    obj = snapshot_obj(snap)
    del obj["content_hash"]
    edit(obj)
    obj["content_hash"] = _content_hash(obj)
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SnapshotError) as refused:
        load_snapshot(path)
    assert str(refused.value) == f"snapshot {path} is malformed: {fault}"


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


def test_undecodable_file_is_not_valid_json(snap, tmp_path):
    # the bytes are decoded strictly as UTF-8, so a stray byte is named where it sits
    path = tmp_path / "snapshot.json"
    text = snapshot_text(snap).encode("ascii")
    path.write_bytes(text[:-2] + b"\xff" + text[-2:])
    with pytest.raises(SnapshotError) as refused:
        load_snapshot(path)
    assert str(refused.value) == (
        f"snapshot {path} is not valid JSON: 'utf-8' codec can't decode byte 0xff in position {len(text) - 2}: "
        "invalid start byte"
    )


ALL_FILES = sorted(
    [f"{name}.{ext}" for name in ("qaum", "adm", "pdm", "mvsd", "nsm", "nnsm") for ext in ("csv", "json")]
    + ["warnings.json", "diagnostics.jsonl", "snapshot.json"]
)


def test_render_outputs_file_sets(snap, tmp_path):
    assert sorted(p.name for p in write_outputs(snap, tmp_path / "both")) == ALL_FILES
    csv_only = {p.name for p in write_outputs(Snapshot(config=RunConfig(
        "w", "jsonl-attrs", "c", SelectionSpec(), snap.config.out_dir, export_format="csv",
    ), usage=snap.usage), tmp_path / "csv")}
    assert sorted(n for n in csv_only if n.endswith(".csv")) == [
        "adm.csv", "mvsd.csv", "nnsm.csv", "nsm.csv", "pdm.csv", "qaum.csv",
    ]
    assert "pdm.json" not in csv_only and "snapshot.json" in csv_only


def test_csv_uses_display_precision_and_json_full_precision(snap, tmp_path):
    out = tmp_path / "out"
    write_outputs(snap, out)
    assert "0.12" in (out / "pdm.csv").read_text(encoding="utf-8").splitlines()[1]  # 3/26 displayed at 2 decimals
    pdm = json.loads((out / "pdm.json").read_bytes())
    assert pdm["values"][0][1] == 3 / 26  # untouched double
    assert (out / "snapshot.json").read_bytes() == snapshot_text(snap).encode("ascii")


def test_write_outputs_creates_files_atomically(snap, tmp_path):
    out = tmp_path / "out"
    written = write_outputs(snap, out)
    assert sorted(p.name for p in written) == ALL_FILES
    assert not [p for p in out.iterdir() if p.name.startswith(".attrscale-stage-")]
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    write_outputs(snap, out)
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after  # reruns are byte-identical


def test_write_outputs_failure_leaves_nothing_behind(snap, tmp_path, monkeypatch):
    out = tmp_path / "out"

    def boom(self, precision=None):
        raise RuntimeError("render failure")

    monkeypatch.setattr(MaskedRealMatrix, "csv_pieces", boom)
    with pytest.raises(RuntimeError):
        write_outputs(snap, out)
    assert not out.exists()


def test_failure_while_a_file_streams_keeps_the_previous_run(snap, tmp_path, monkeypatch):
    out = tmp_path / "out"
    write_outputs(snap, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(matrices, "_BLOCK_CELLS", len(snap.bundle.attributes))  # one QAUM row per block
    whole = UsageSet.json_pieces
    staged = []

    def fails_after_some_blocks(self):
        for piece in islice(whole(self), 8):  # the object's head and key, then rows
            yield piece
            staged.extend(out.glob(".attrscale-stage-*/qaum.json"))
        raise RuntimeError("write failure")

    monkeypatch.setattr(UsageSet, "json_pieces", fails_after_some_blocks)
    with pytest.raises(RuntimeError, match="write failure"):
        write_outputs(snap, out)
    assert staged  # the failure came while qaum.json was being staged
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert not list(out.glob(".attrscale-stage-*"))


def test_write_outputs_memory_stays_below_a_quarter_of_the_qaum_file(tmp_path):
    """Files are streamed in blocks of rows: rendering never holds a whole file, nor a whole grid's texts."""
    config = RunConfig("w", "jsonl-attrs", "c", SelectionSpec(), str(tmp_path / "out"))
    snap = Snapshot(config=config, usage=synthetic_usage(400, 5000, seed=11))
    snap.bundle  # the pipeline runs outside the measured region: only rendering is measured
    tracemalloc.start()
    try:
        write_outputs(snap, tmp_path / "out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    qaum_bytes = (tmp_path / "out" / "qaum.json").stat().st_size
    assert peak < qaum_bytes / 4, f"peak {peak / 1e6:.2f} MB against a {qaum_bytes / 1e6:.2f} MB qaum.json"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def test_snapshot_json_written_in_blocks_is_the_canonical_encoding(tmp_path):
    # kept queries span four blocks, diagnostics end on a block edge, dropped entries pass one by one
    kept, dropped = 3 * _BLOCK_ENTRIES + 5, _BLOCK_ENTRIES + 1
    records = []
    for q in range(kept):
        attrs = ["c0"] + ["c1"] * (q % 2) + ["c2"] * (q % 5 == 0) + [f"zz{q}"] * (q < 2 * _BLOCK_ENTRIES)
        records.append(QueryRecord(f"q{q}", attrs=tuple(attrs)))
    for q in range(dropped):
        records.append(QueryRecord(f"d{q}", attrs=("rare", "yy") if q < 3 else ("rare",)))
    # c2 (0.15) and rare (0.25) fall below the threshold; c0 and c1 stay
    usage = build_usage_set(records, AttributeCatalog(("c0", "rare", "c1", "c2")), 0.3)
    assert usage.catalog.attributes == ("c0", "c1")
    assert (usage.query_count, len(usage.dropped), len(usage.diagnostics)) == (kept, dropped, 2 * _BLOCK_ENTRIES + 3)
    config = RunConfig("w.jsonl", "jsonl-attrs", "c.txt", SelectionSpec(usage_threshold=0.3), str(tmp_path / "out"))
    write_outputs(Snapshot(config=config, usage=usage), tmp_path / "out")
    payload = {
        "format_version": FORMAT_VERSION,
        "generator": "attrscale",
        "config": dataclasses.asdict(config),
        "catalog": {"attributes": list(usage.catalog.attributes)},
        "usage": {
            "queries": [[qid, indices] for qid, indices in oracles.usage_rows(usage)],
            "dropped": list(usage.dropped),
            "diagnostics": list(usage.diagnostics),
        },
    }
    sealed = {**payload, "content_hash": "sha256:" + hashlib.sha256(canonical(payload).encode("ascii")).hexdigest()}
    written, expected = (tmp_path / "out" / "snapshot.json").read_text(encoding="utf-8"), canonical(sealed) + "\n"
    same = written == expected  # not compared inside the assert: a diff of two long lines takes minutes to show
    assert same, f"first difference at character {next(i for i, (a, b) in enumerate(zip(written, expected)) if a != b)}"
    reloaded = load_snapshot(tmp_path / "out" / "snapshot.json")
    assert reloaded == Snapshot(config=config, usage=usage)  # snapshots and usage sets compare by value
    write_outputs(reloaded, tmp_path / "again")
    for path in sorted((tmp_path / "out").iterdir()):
        same = (tmp_path / "again" / path.name).read_bytes() == path.read_bytes()
        assert same, f"{path.name} differs after a reload"


def test_write_outputs_memory_stays_below_twice_the_snapshot(tmp_path):
    # snapshot.json is encoded a block of usage entries at a time, twice (for its hash, then for the
    # file), and never held whole as JSON values or text. The seed's peak was 7 times the file
    path, catalog = unknown_identifier_log(tmp_path / "w.jsonl", 20000, 20, 5)
    usage = build_usage_set(load_workload(path, "jsonl-attrs"), catalog)
    snap = Snapshot(RunConfig(str(path), "jsonl-attrs", "c.txt", SelectionSpec(), str(tmp_path / "out")), usage)
    snap.bundle  # the pipeline runs outside the measured region
    tracemalloc.start()
    try:
        write_outputs(snap, tmp_path / "out")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "out" / "snapshot.json").stat().st_size
    assert size > 1_000_000
    assert peak < 2 * size, f"peak {peak / 1e6:.2f} MB against a {size / 1e6:.2f} MB snapshot.json"


def test_load_snapshot_memory_stays_below_twelve_times_the_file(tmp_path):
    # a snapshot shaped like a SQL run's: 4,000 kept queries of about 5 attributes, each with one unknown
    # identifier. The file's own bytes are hashed, so the payload is never re-encoded: re-encoding it
    # took the peak to 16.7 times the file, against 9.7 without
    rng = random.Random(7)
    names = [f"col_{k:02d}" for k in range(80)]
    records = [
        QueryRecord(f"s{q}", attrs=(*rng.sample(names, rng.randint(3, 7)), f"zz_legacy_{rng.randrange(60)}"))
        for q in range(4000)
    ]
    usage = build_usage_set(records, AttributeCatalog(tuple(names)))
    assert len(usage.diagnostics) == usage.query_count == 4000
    path = tmp_path / "snapshot.json"
    snap = Snapshot(RunConfig("w", "jsonl-attrs", "c", SelectionSpec(), "out"), usage)
    path.write_text(snapshot_text(snap), encoding="utf-8")
    tracemalloc.start()
    try:
        load_snapshot(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert peak < 12 * size, f"peak {peak / 1e6:.2f} MB against a {size / 1e6:.2f} MB snapshot.json"
