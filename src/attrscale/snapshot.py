"""Run persistence: the single-file snapshot and the exported matrix files.

A snapshot is a versioned, self-describing JSON container holding the run's
inputs: its configuration (including any random seed), the catalog, and the
usage set, sealed with a content hash. Every pipeline matrix and warning
derives from the usage set, so none is stored: loading reruns the pipeline.
Counts are exact integers and every later stage is a fixed sequence of IEEE
operations, so the rebuilt bundle is bit-identical to the original run's.
Reloading a snapshot and re-exporting yields byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from .catalog import AttributeCatalog
from .errors import AttrScaleError, SnapshotError
from .pipeline import ScaleBundle, run_pipeline
from .workload import SelectionSpec, UsageSet

FORMAT_VERSION = 2  # v1 also stored every stage; it is rejected, not read
EXPORT_FORMATS = ("csv", "json", "both")
MATRIX_BASENAMES = ("qaum", "adm", "pdm", "mvsd", "nsm", "nnsm")


@dataclass(frozen=True)
class RunConfig:
    input_path: str
    input_format: str
    catalog_path: str
    selection: SelectionSpec
    out_dir: str
    export_format: str = "both"
    precision: int = 2

    def __post_init__(self):
        if self.export_format not in EXPORT_FORMATS:
            raise SnapshotError(f"unknown export format {self.export_format!r}")
        if isinstance(self.precision, bool) or not isinstance(self.precision, int) or not 0 <= self.precision <= 10:
            raise SnapshotError(f"display precision must be an integer in [0..10], got {self.precision!r}")


@dataclass(frozen=True)
class Snapshot:
    config: RunConfig
    usage: UsageSet
    bundle: ScaleBundle
    format_version: int = FORMAT_VERSION


def _canonical_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode("utf-8")


def _content_hash(payload: dict) -> str:
    return "sha256:" + hashlib.sha256(_canonical_bytes(payload)).hexdigest()


def snapshot_to_obj(snap: Snapshot) -> dict:
    """Full JSON form of the run's inputs, including the content hash."""
    payload = {
        "format_version": snap.format_version,
        "generator": "attrscale",
        "config": {
            "input_path": snap.config.input_path,
            "input_format": snap.config.input_format,
            "catalog_path": snap.config.catalog_path,
            "selection": asdict(snap.config.selection),
            "out_dir": snap.config.out_dir,
            "export_format": snap.config.export_format,
            "precision": snap.config.precision,
        },
        "catalog": {
            "attributes": list(snap.usage.catalog.attributes),
            "database_attribute_count": snap.usage.catalog.database_attribute_count,
        },
        "usage": {
            "queries": [[qid, sorted(indices)] for qid, indices in snap.usage.queries],
            "dropped": list(snap.usage.dropped),
            "diagnostics": list(snap.usage.diagnostics),
        },
    }
    payload["content_hash"] = _content_hash(payload)
    return payload


def snapshot_to_text(snap: Snapshot) -> str:
    return json.dumps(snapshot_to_obj(snap), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def save_snapshot(snap: Snapshot, path: str | Path) -> None:
    Path(path).write_text(snapshot_to_text(snap), encoding="utf-8")


def load_snapshot(path: str | Path) -> Snapshot:
    """Parse, verify the content hash, rebuild the inputs, and rerun the pipeline over them."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot {path} is not valid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise SnapshotError(f"snapshot {path} is not a JSON object")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(f"unsupported snapshot format version {version!r}")
    stored_hash = obj.get("content_hash")
    payload = {k: v for k, v in obj.items() if k != "content_hash"}
    if stored_hash != _content_hash(payload):
        raise SnapshotError(f"snapshot {path} failed its content hash check (corrupt or edited)")
    try:
        cfg = obj["config"]
        config = RunConfig(
            input_path=cfg["input_path"],
            input_format=cfg["input_format"],
            catalog_path=cfg["catalog_path"],
            selection=SelectionSpec(**cfg["selection"]),
            out_dir=cfg["out_dir"],
            export_format=cfg["export_format"],
            precision=cfg["precision"],
        )
        catalog = AttributeCatalog(
            attributes=tuple(obj["catalog"]["attributes"]),
            database_attribute_count=obj["catalog"]["database_attribute_count"],
        )
        usage = UsageSet(
            queries=tuple((qid, frozenset(indices)) for qid, indices in obj["usage"]["queries"]),
            catalog=catalog,
            dropped=tuple(obj["usage"]["dropped"]),
            diagnostics=tuple(obj["usage"]["diagnostics"]),
        )
        bundle = run_pipeline(usage)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, AttrScaleError) as exc:
        # a resealed edit can put any JSON value in any field
        raise SnapshotError(f"snapshot {path} is malformed: {exc}") from exc
    return Snapshot(config=config, usage=usage, bundle=bundle, format_version=version)


def render_outputs(snap: Snapshot) -> dict[str, str]:
    """Every output file of a run as name -> content, deterministically."""
    bundle = snap.bundle
    files: dict[str, str] = {}
    fmt = snap.config.export_format
    for name in MATRIX_BASENAMES:
        stage = getattr(bundle, name)
        if fmt in ("csv", "both"):
            files[f"{name}.csv"] = stage.to_csv(precision=snap.config.precision)
        if fmt in ("json", "both"):
            files[f"{name}.json"] = json.dumps(stage.to_json_obj(), indent=2, ensure_ascii=True) + "\n"
    files["warnings.json"] = json.dumps(list(bundle.warnings), indent=2, ensure_ascii=True) + "\n"
    diag_lines = [json.dumps(entry, sort_keys=True, ensure_ascii=True) for entry in (*snap.usage.dropped, *snap.usage.diagnostics)]
    files["diagnostics.jsonl"] = "".join(line + "\n" for line in diag_lines)
    files["snapshot.json"] = snapshot_to_text(snap)
    return files


def write_outputs(snap: Snapshot, out_dir: str | Path) -> list[Path]:
    """Write all outputs atomically: stage into a temp dir, rename on success.

    Nothing lands in out_dir unless every file rendered and wrote cleanly,
    so a failing run leaves no partial outputs behind. Matrix files an
    earlier run wrote in a format this run does not export are removed, so
    the directory never mixes matrices from two runs.
    """
    out = Path(out_dir)
    files = render_outputs(snap)  # render first: any failure aborts before touching disk
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".attrscale-stage-", dir=out))
    try:
        for name, content in files.items():
            (staging / name).write_text(content, encoding="utf-8")
        written = []
        for name in files:
            target = out / name
            os.replace(staging / name, target)
            written.append(target)
        for name in MATRIX_BASENAMES:
            for ext in ("csv", "json"):
                if f"{name}.{ext}" not in files:
                    (out / f"{name}.{ext}").unlink(missing_ok=True)
        return written
    finally:
        shutil.rmtree(staging, ignore_errors=True)
