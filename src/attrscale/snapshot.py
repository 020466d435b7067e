"""Run persistence: the single-file snapshot and the exported matrix files.

A snapshot is a versioned, self-describing JSON container holding the run's
inputs: its configuration (including any random seed), the catalog, and the
usage set, sealed with a content hash. The hash covers the payload's
canonical encoding, which is the written file less its content_hash member
and final newline, so load_snapshot checks such a file over its own bytes
and re-encodes the payload only for a file in another form, such as one
re-indented. Every pipeline matrix and warning derives from the usage set,
so none is stored: Snapshot.bundle runs the pipeline on first read. Counts
are exact integers and every later stage is a fixed sequence of IEEE
operations, so the bundle is bit-identical to the run's. Reloading a
snapshot and re-exporting yields byte-identical files: a file loads only if
it holds exactly what this version writes for the inputs it rebuilds, so an
extra, missing or foreign key, or an unsorted or repeated attribute index,
is refused as malformed.

The hash is taken with CPython's built-in SHA-256 (_sha2 from 3.12, _sha256
before), not hashlib's, which maps and initialises OpenSSL's libcrypto
(about 3.5 MB resident on Linux x86-64) for this one digest. Only an
interpreter built without the built-in hashes falls back to hashlib. Either
gives the same digests. The saving needs a numpy that loads no OpenSSL
itself: numpy 1.x imports numpy.random with numpy, and numpy.random loads
OpenSSL through secrets and hmac; numpy 2.4 imports it on first use.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .catalog import AttributeCatalog
from .errors import AttrScaleError, SnapshotError
from .matrices import json_text
from .pipeline import ScaleBundle, run_pipeline
from .workload import WORKLOAD_FORMATS, SelectionSpec, UsageSet

try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10, 3.11
    except ImportError:  # built without the built-in hashes
        from hashlib import sha256 as _sha256

FORMAT_VERSION = 3  # v1 also stored every stage, v2 the catalog's M=; both are rejected, not read
EXPORT_FORMATS = ("csv", "json", "both")
MATRIX_BASENAMES = ("qaum", "adm", "pdm", "mvsd", "nsm", "nnsm")
_DIAGNOSTIC_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=True)  # one line of diagnostics.jsonl
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)  # snapshot.json
_BLOCK_ENTRIES = 1 << 10  # usage entries encoded at once: snapshot.json is hashed and written a block at a time


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
        for name in ("input_path", "catalog_path", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise SnapshotError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.input_format not in WORKLOAD_FORMATS:
            raise SnapshotError(f"unknown input format {self.input_format!r}")
        if self.export_format not in EXPORT_FORMATS:
            raise SnapshotError(f"unknown export format {self.export_format!r}")
        if isinstance(self.precision, bool) or not isinstance(self.precision, int) or not 0 <= self.precision <= 10:
            raise SnapshotError(f"display precision must be an integer in [0..10], got {self.precision!r}")


@dataclass(frozen=True)
class Snapshot:
    """One run's inputs; everything else derives from them."""

    config: RunConfig
    usage: UsageSet

    @cached_property
    def bundle(self) -> ScaleBundle:
        return run_pipeline(self.usage)


def _digest(pieces: Iterable[str]) -> str:
    """The content hash, "sha256:" and a hex digest, of text given in ASCII pieces."""
    sha = _sha256()
    for piece in pieces:
        sha.update(piece.encode("ascii"))
    return "sha256:" + sha.hexdigest()


def _content_hash(payload: dict) -> str:
    """sha256 of the payload's canonical encoding: compact, with sorted keys and ASCII escapes."""
    return _digest((_CANONICAL_ENCODER.encode(payload),))


def _head(snap: Snapshot) -> dict:
    """The hashed part of the snapshot but its usage set: the run's other inputs as JSON values."""
    return {
        "format_version": FORMAT_VERSION,
        "generator": "attrscale",
        "config": asdict(snap.config),
        "catalog": {"attributes": list(snap.usage.catalog.attributes)},
    }


def _blocks(count: int) -> Iterator[slice]:
    """range(count) cut into consecutive slices of _BLOCK_ENTRIES entries, the last one shorter."""
    return (slice(start, start + _BLOCK_ENTRIES) for start in range(0, count, _BLOCK_ENTRIES))


def _query_rows(usage: UsageSet) -> Iterator[list]:
    """The [id, indices] row of every kept query, a block of rows per list."""
    for rows in _blocks(usage.query_count):
        bounds = usage.indptr[rows.start : rows.stop + 1]
        flat, ends = usage.indices[bounds[0] : bounds[-1]].tolist(), (bounds - bounds[0]).tolist()
        yield [[qid, flat[lo:hi]] for qid, lo, hi in zip(usage.query_ids[rows], ends, ends[1:])]


def _elements(blocks: Iterable) -> Iterator[str]:
    """The canonical encoding of the concatenated non-empty lists in blocks, less its brackets, one
    block per piece."""
    for i, block in enumerate(blocks):
        yield ("," if i else "") + _CANONICAL_ENCODER.encode(block)[1:-1]


def _payload_pieces(snap: Snapshot, **members) -> Iterator[str]:
    """The canonical encoding of the payload with members added, in pieces of at most a block of
    usage entries. "usage" sorts after every other top-level key, so the head's encoding, less its
    closing brace, opens it, and the usage set's lists follow in their keys' sorted order."""
    usage = snap.usage
    yield _CANONICAL_ENCODER.encode({**_head(snap), **members})[:-1] + ',"usage":{"diagnostics":['
    yield from _elements(map(usage.diagnostics.__getitem__, _blocks(len(usage.diagnostics))))
    yield '],"dropped":['
    yield from _elements(map(usage.dropped.__getitem__, _blocks(len(usage.dropped))))
    yield '],"queries":['
    yield from _elements(_query_rows(usage))
    yield "]}}"


def _snapshot_pieces(snap: Snapshot) -> Iterator[str]:
    """The snapshot file: the canonical encoding of the payload with its content hash added, then a
    newline. The payload's pieces are made twice, once for the hash and once for the file, so neither
    the payload's JSON values nor its text is ever whole in memory."""
    yield from _payload_pieces(snap, content_hash=_digest(_payload_pieces(snap)))
    yield "\n"


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _field(parent: dict, name: str, kind: type):
    """The value of a dotted field name's last key in parent, when that key is present and holds kind
    (dict or list), the JSON type this version writes there; else ValueError names the field."""
    key = name.rpartition(".")[2]
    if key not in parent:
        raise ValueError(f"{name} is missing")
    if type(parent[key]) is not kind:
        raise ValueError(f"{name} is not a JSON {'object' if kind is dict else 'array'}")
    return parent[key]


def _csr(rows: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """indptr and indices of a snapshot's rows of attribute indices, each row's in its own order. Only a
    Python int within [0, n) is an index: any other JSON value (a bool, a float, a string, 2**70) is
    stored as -1, so the usage set names its query, and no array is built from what it cannot hold."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    np.cumsum(indptr, out=indptr)
    flat = [i if type(i) is int and 0 <= i < n else -1 for i in chain.from_iterable(rows)]
    return indptr, np.array(flat, dtype=np.int64)


def _file_digest(data: bytes, stored_hash: str) -> str | None:
    """The content hash of a snapshot file's own bytes, less its first ',"content_hash":' member
    holding stored_hash and its final newline; None when it has no such member or no final newline.
    The bytes are hashed as views, so the file is never copied. The file analyze writes is the
    payload's canonical encoding with that member and a newline added, so for it this is the
    payload's hash, found without re-encoding the payload."""
    member = b',"content_hash":' + _CANONICAL_ENCODER.encode(stored_hash).encode("ascii")
    start = data.find(member)
    if start < 0 or not data.endswith(b"\n"):
        return None
    with memoryview(data) as view:
        sha = _sha256(view[:start])
        sha.update(view[start + len(member) : -1])
    return "sha256:" + sha.hexdigest()


def load_snapshot(path: str | Path) -> Snapshot:
    """Parse, verify the content hash, rebuild the inputs, and check that they re-export as the
    file's payload. The pipeline runs on the first read of the snapshot's bundle.

    This version writes the canonical (hashed) encoding plus a newline, so the hash of such a file is
    checked over its own bytes, less the content_hash member and the newline. Whitespace and key order
    are not part of the format: a file in another form, say re-indented, is checked by re-encoding its
    payload canonically. NaN, Infinity and -Infinity are not JSON, so a file holding one is refused.
    """
    try:
        data = Path(path).read_bytes()
        obj = json.loads(data.decode("utf-8"), parse_constant=_refuse_constant)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, JSONDecodeError, an over-long integer, too deep a nesting
        raise SnapshotError(f"snapshot {path} is not valid JSON: {getattr(exc, 'msg', exc)}") from None
    if not isinstance(obj, dict):
        raise SnapshotError(f"snapshot {path} is not a JSON object")
    version = obj.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # 3.0 == 3, but the format writes 3
        raise SnapshotError(f"unsupported snapshot format version {version!r}")
    stored_hash = obj.get("content_hash")
    # a file as this version writes it is checked over its bytes; any other (re-indented, reordered or
    # edited) through the canonical re-encoding of its payload, which never has the bytes beside it
    matched = isinstance(stored_hash, str) and _file_digest(data, stored_hash) == stored_hash
    del data
    payload = {k: v for k, v in obj.items() if k != "content_hash"}
    if not matched and stored_hash != _content_hash(payload):
        raise SnapshotError(f"snapshot {path} failed its content hash check (corrupt or edited)")
    try:
        cfg = _field(obj, "config", dict)
        config = RunConfig(**{**cfg, "selection": SelectionSpec(**_field(cfg, "config.selection", dict))})
        catalog = AttributeCatalog(tuple(_field(_field(obj, "catalog", dict), "catalog.attributes", list)))
        stored = _field(obj, "usage", dict)
        rows, dropped, diagnostics = (
            _field(stored, f"usage.{key}", list) for key in ("queries", "dropped", "diagnostics")
        )
        for r, row in enumerate(rows):
            if type(row) is not list or len(row) != 2 or type(row[1]) is not list:
                raise ValueError(f"usage row {r} is not an [id, indices] pair")
        if not rows:  # analyze refuses a run that keeps no query, so it never writes one
            raise ValueError("usage holds no query")
        indptr, indices = _csr([indices for _, indices in rows], len(catalog))
        usage = UsageSet(
            catalog=catalog,
            query_ids=tuple(qid for qid, _ in rows),
            indptr=indptr,
            indices=indices,
            dropped=tuple(dropped),
            diagnostics=tuple(diagnostics),
        )
        snap = Snapshot(config=config, usage=usage)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, AttrScaleError) as exc:
        # a resealed edit can put any JSON value in any field
        raise SnapshotError(f"snapshot {path} is malformed: {exc}") from exc
    # a missing key (loaded as its default), an extra or foreign one, or an unsorted or repeated
    # index would re-export as other bytes: only what this version writes for its inputs loads. The
    # rows are compared as read, not rebuilt: each is an [id, indices] pair, and the usage set has
    # checked its id and indices
    written = {**_head(snap), "usage": {
        "queries": rows, "dropped": list(usage.dropped), "diagnostics": list(usage.diagnostics),
    }}
    if written != payload:
        raise SnapshotError(f"snapshot {path} is malformed: it is not what this version writes for its inputs")
    return snap


def _output_files(snap: Snapshot) -> Iterator[tuple[str, Iterable[str]]]:
    """Every output file of a run as (name, its text in pieces), deterministically; each file is
    rendered only as its pieces are read."""
    bundle = snap.bundle
    fmt = snap.config.export_format
    for name in MATRIX_BASENAMES:
        stage = getattr(bundle, name)
        if fmt in ("csv", "both"):
            yield f"{name}.csv", stage.csv_pieces(snap.config.precision)
        if fmt in ("json", "both"):
            yield f"{name}.json", stage.json_pieces()
    yield "warnings.json", (json_text(list(bundle.warnings)), "\n")
    entries = (*snap.usage.dropped, *snap.usage.diagnostics)
    yield "diagnostics.jsonl", (_DIAGNOSTIC_ENCODER.encode(entry) + "\n" for entry in entries)
    yield "snapshot.json", _snapshot_pieces(snap)


def write_outputs(snap: Snapshot, out_dir: str | Path) -> list[Path]:
    """Render every output into a temp dir inside out_dir, then move each file in.

    Each file is written into staging as it renders, in pieces of at most
    a block of rows, so no whole file is held in memory. Every file is
    staged before any moves, so a failure while rendering or staging lands
    nothing: the staging directory is removed, and so is out_dir if this
    call created it. Each file is then replaced atomically with os.replace,
    one at a time. The set is not atomic: a process killed while the files
    move can leave files from two runs, and one killed after staging began
    leaves its `.attrscale-stage-*` directory behind. Matrix files an
    earlier run wrote in a format this run does not export are removed.
    """
    out = Path(out_dir)
    created = next((p for p in (*reversed(out.parents), out) if not p.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".attrscale-stage-", dir=out))
    try:
        names = []
        for name, pieces in _output_files(snap):
            with open(staging / name, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
            names.append(name)
    except BaseException:
        shutil.rmtree(created or staging, ignore_errors=True)
        raise
    try:
        written = []
        for name in names:
            target = out / name
            os.replace(staging / name, target)
            written.append(target)
        for name in MATRIX_BASENAMES:
            for ext in ("csv", "json"):
                if f"{name}.{ext}" not in names:
                    (out / f"{name}.{ext}").unlink(missing_ok=True)
        return written
    finally:
        shutil.rmtree(staging, ignore_errors=True)
