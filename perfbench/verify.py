"""Output verification against an independent numpy recomputation.

The reference is built from the generator's ground truth (the catalog indices
each query uses), never from the program's own matrices. Only the random
selection is taken from the program's output, and it is checked separately
for input order and count. JSON is parsed rather than pinned byte for byte,
so the file layout may change without failing the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

from gen import GeneratedLog
from spans import KINDS

REL_TOL = 1e-9
DISPLAY_QUANTUM = Decimal("0.01")  # analyze's default --precision 2, which the workloads keep


# the files analyze writes with --format both
OUTPUT_FILES = frozenset(
    (*(f"{kind}.{ext}" for kind in KINDS for ext in ("csv", "json")), "warnings.json", "diagnostics.jsonl", "snapshot.json")
)


def close(got, want) -> bool:
    """Every value within REL_TOL relative; values below 1 are held to REL_TOL absolute (the scale runs 0..10)."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return bool(np.all(np.abs(got - want) <= REL_TOL * np.maximum(np.abs(want), 1.0)))


def display(value: float) -> str:
    return str(Decimal(float(value)).quantize(DISPLAY_QUANTUM, rounding=ROUND_HALF_UP))


def displays(value: float) -> set[str]:
    """The displayed forms of every value within REL_TOL of `value`: one, or two at a rounding boundary."""
    slack = REL_TOL * max(abs(value), 1.0)
    return {display(value - slack), display(value + slack)}


class Checker:
    """Counts checks and keeps the message of every one that failed."""

    def __init__(self) -> None:
        self.count = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.count += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)


@dataclass(frozen=True)
class Reference:
    """What one analyze run must produce, recomputed from ground truth."""

    attributes: tuple[str, ...]
    query_ids: tuple[str, ...]  # queries kept, input order
    dropped: tuple[str, ...]  # queries left empty by the threshold
    unknown: tuple[tuple[str, tuple[str, ...]], ...]  # (query id, unknown identifiers)
    adm: np.ndarray  # int64 n×n, diagonal 0
    pdm: np.ndarray  # float64 n×n, NaN where undefined (as nsm and nnsm)
    stats: dict[str, np.ndarray]  # mean, variance, sd per attribute; NaN where undefined
    nsm: np.ndarray
    nnsm: np.ndarray
    warnings: tuple[tuple[str, str], ...]  # (code, attribute) in the order the pipeline records them
    rows: tuple[tuple[int, ...], ...]  # packed attribute indices per kept query

    @property
    def defined(self) -> np.ndarray:
        """Where PDM, NSM and NNSM are defined: off-diagonal cells with a positive count."""
        return self.adm > 0

    @property
    def qaum(self) -> np.ndarray:
        cells = np.zeros((len(self.query_ids), len(self.attributes)), dtype=np.int64)
        for r, packed in enumerate(self.rows):
            cells[r, list(packed)] = 1
        return cells

    def pair_scores(self, names: set[str] | None = None) -> dict[tuple[str, str], tuple[float, str, str]]:
        """nnsm-min score per unordered pair: (score, stronger direction a, b), keyed by sorted names."""
        out = {}
        hs, ks = np.nonzero(np.triu(self.defined, 1))
        for h, k in zip(hs.tolist(), ks.tolist()):
            a, b = self.attributes[h], self.attributes[k]
            if names is not None and (a not in names or b not in names):
                continue
            ab, ba = float(self.nnsm[h, k]), float(self.nnsm[k, h])
            direction = (a, b) if ab <= ba else (b, a)
            out[tuple(sorted((a, b)))] = (min(ab, ba), *direction)
        return out

    def strongest_pair(self) -> tuple[str, str]:
        score, a, b = min(self.pair_scores().values())
        return a, b


def reference(log: GeneratedLog, selected: list[int], threshold: float) -> Reference:
    """Recompute the kept set, ADM and NNSM for the selected queries of a log."""
    n = len(log.catalog)
    uses = np.zeros(n, dtype=np.int64)
    for i in selected:
        for k in log.truth[i]:
            uses[k] += 1
    # the ratio is defined as a float division against the selection size
    keep = np.flatnonzero(uses.astype(np.float64) / len(selected) >= threshold)
    remap = {int(old): new for new, old in enumerate(keep)}
    kept_ids, dropped, unknown, rows = [], [], [], []
    for i in selected:
        qid = log.query_ids[i]
        if log.unknown[i] is not None:
            unknown.append((qid, (log.unknown[i],)))
        packed = tuple(sorted(remap[k] for k in log.truth[i] if k in remap))
        if packed:
            kept_ids.append(qid)
            rows.append(packed)
        else:
            dropped.append(qid)
    size = len(keep)
    a_idx, b_idx = [], []
    for packed in rows:
        for x in packed:
            for y in packed:
                if x != y:
                    a_idx.append(x)
                    b_idx.append(y)
    adm = np.zeros((size, size), dtype=np.int64)
    np.add.at(adm, (np.array(a_idx, dtype=np.intp), np.array(b_idx, dtype=np.intp)), 1)
    defined = adm > 0
    x = adm.astype(np.float64)
    tm = x.sum(axis=1)
    p = np.divide(x, tm[:, None], out=np.zeros_like(x), where=defined)
    mean = np.einsum("ij,ij->i", p, x)
    variance = np.einsum("ij,ij->i", p, (x - mean[:, None]) ** 2)
    sd = np.sqrt(variance)
    nsm = np.divide(np.abs(sd[:, None] - sd[None, :]), x, out=np.full_like(x, np.nan), where=defined)
    row_max = np.where(defined, nsm, -np.inf).max(axis=1, initial=-np.inf)
    scale = np.where(row_max > 0, row_max, 1.0)
    nnsm = np.where(defined, np.where(row_max[:, None] > 0, nsm / scale[:, None] * 10.0, 0.0), np.nan)
    attributes = tuple(log.catalog[k] for k in keep)
    has_stats = defined.any(axis=1)
    isolated = [("isolated_attribute", attributes[h]) for h in np.flatnonzero(tm == 0)]
    ties = [("degenerate_tie", attributes[h]) for h in np.flatnonzero(has_stats & (row_max == 0))]
    return Reference(
        attributes=attributes,
        query_ids=tuple(kept_ids),
        dropped=tuple(dropped),
        unknown=tuple(unknown),
        adm=adm,
        pdm=np.where(defined, p, np.nan),
        stats={name: np.where(has_stats, v, np.nan) for name, v in (("mean", mean), ("variance", variance), ("sd", sd))},
        nsm=nsm,
        nnsm=nnsm,
        warnings=tuple(isolated + ties),
        rows=tuple(rows),
    )


def output_hashes(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir()) if p.is_file()}


def check_random_selection(chk: Checker, out_dir: Path, log: GeneratedLog, count: int) -> list[int]:
    """Input positions of the queries the program selected (kept in qaum.json plus dropped).

    Checks that they come from the input, keep its order, and number `count`.
    """
    position = {qid: i for i, qid in enumerate(log.query_ids)}
    kept = [position.get(q, -1) for q in json.loads((out_dir / "qaum.json").read_text(encoding="utf-8"))["query_ids"]]
    diagnostics = (json.loads(line) for line in (out_dir / "diagnostics.jsonl").read_text(encoding="utf-8").splitlines())
    dropped = [position.get(d["query_id"], -1) for d in diagnostics if "reason" in d]
    selected = sorted(kept + dropped)
    chk.check(-1 not in selected, "selected query ids all come from the input")
    chk.check(kept == sorted(kept), "selected queries keep input order")
    chk.check(len(set(selected)) == len(selected) == count, f"selection has the requested {count} queries")
    return selected


def _floats(rows: list[list]) -> np.ndarray:
    return np.array([[np.nan if v is None else v for v in row] for row in rows], dtype=np.float64)


def _check_values(chk: Checker, what: str, got: list[list], want: np.ndarray) -> None:
    """JSON cells: null exactly where `want` is NaN, elsewhere within REL_TOL of it."""
    vals, defined = _floats(got), ~np.isnan(want)
    if chk.check(vals.shape == want.shape and np.array_equal(~np.isnan(vals), defined), f"{what} defined mask exact"):
        chk.check(close(vals[defined], want[defined]), f"{what} values within 1e-9 relative")


def _check_displayed(chk: Checker, what: str, cells: np.ndarray, want: np.ndarray, exact: bool = False) -> None:
    """CSV cells: "#" exactly where `want` is NaN, elsewhere `want` rounded half-up to the display precision.

    With `exact`, `want` is bit-identical to the program's value (a single
    division of the same integers), so a tie must round up.
    """
    defined = ~np.isnan(want)
    if chk.check(np.array_equal(cells == "#", ~defined), f"{what} '#' cells exactly where undefined"):
        forms = (lambda value: {display(value)}) if exact else displays
        shown = zip(cells[defined].tolist(), want[defined].tolist())
        chk.check(all(cell in forms(value) for cell, value in shown), f"{what} values at display precision")


def _check_json(chk: Checker, ref: Reference, out_dir: Path) -> None:
    def load(kind: str) -> dict:
        obj = json.loads((out_dir / f"{kind}.json").read_text(encoding="utf-8"))
        chk.check(tuple(obj["attributes"]) == ref.attributes, f"{kind}.json attributes")
        return obj

    qaum = load("qaum")
    chk.check(tuple(qaum["query_ids"]) == ref.query_ids, "qaum.json query ids")
    cells = ref.qaum
    got = np.array(qaum["cells"], dtype=np.int64)
    chk.check(got.shape == cells.shape and np.array_equal(got, cells), "qaum.json cells")

    adm = load("adm")
    counts, n = _floats(adm["counts"]), len(ref.attributes)
    want = np.where(np.eye(n, dtype=bool), np.nan, ref.adm)
    chk.check(counts.shape == want.shape and np.array_equal(counts, want, equal_nan=True), "adm.json counts exact")
    chk.check(np.array_equal(np.array(adm["total_measure"], dtype=np.int64), ref.adm.sum(axis=1)), "adm.json total measure")

    for kind in ("pdm", "nsm", "nnsm"):
        _check_values(chk, f"{kind}.json", load(kind)["values"], getattr(ref, kind))
    mvsd = load("mvsd")
    for stat, want in ref.stats.items():
        _check_values(chk, f"mvsd.json {stat}", [mvsd[stat]], want[None, :])


def _check_csv(chk: Checker, ref: Reference, out_dir: Path) -> None:
    def grid(kind: str, corner: str, row_labels: tuple[str, ...], col_labels: tuple[str, ...]) -> np.ndarray | None:
        """The cells of one CSV file below its header and right of its label column, if the labels are right."""
        with open(out_dir / f"{kind}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        labelled = (
            bool(rows)
            and rows[0] == [corner, *col_labels]
            and [row[:1] for row in rows[1:]] == [[label] for label in row_labels]
            and all(len(row) == len(col_labels) + 1 for row in rows[1:])
        )
        if not chk.check(labelled, f"{kind}.csv header, row labels and width"):
            return None
        return np.array([row[1:] for row in rows[1:]], dtype=str).reshape(len(row_labels), len(col_labels))

    n = len(ref.attributes)
    qaum = grid("qaum", "query", ref.query_ids, ref.attributes)
    if qaum is not None:
        chk.check(np.array_equal(qaum, ref.qaum.astype(str)), "qaum.csv cells")
    adm = grid("adm", "attribute", ref.attributes, (*ref.attributes, "total_measure"))
    if adm is not None:
        want = np.where(np.eye(n, dtype=bool), "#", ref.adm.astype(str))
        chk.check(np.array_equal(adm[:, :n], want), "adm.csv counts exact, '#' on the diagonal")
        chk.check(np.array_equal(adm[:, n], ref.adm.sum(axis=1).astype(str)), "adm.csv total measure")
    for kind in ("pdm", "nsm", "nnsm"):
        cells = grid(kind, "attribute", ref.attributes, ref.attributes)
        if cells is not None:
            _check_displayed(chk, f"{kind}.csv", cells, getattr(ref, kind), exact=kind == "pdm")
    mvsd = grid("mvsd", "statistic", tuple(ref.stats), ref.attributes)
    if mvsd is not None:
        _check_displayed(chk, "mvsd.csv", mvsd, np.stack(list(ref.stats.values())))


def check_analyze(chk: Checker, ref: Reference, out_dir: Path, stdout: bytes) -> bool:
    """Every output of one analyze run against the reference.

    snapshot.json is checked only for its catalog here: its layout may change,
    and the query commands check the bundle it holds.
    """
    before = len(chk.failures)
    names = {p.name for p in out_dir.iterdir() if p.is_file()}
    chk.check(names == OUTPUT_FILES, f"output files {sorted(names ^ OUTPUT_FILES)} differ from the expected set")
    text = stdout.decode("utf-8", errors="replace")
    chk.check(f"queries analyzed (m): {len(ref.query_ids)}\n" in text, "analyze reports m")
    chk.check(f"attributes analyzed (n): {len(ref.attributes)}\n" in text, "analyze reports n")
    if not names >= OUTPUT_FILES:
        return False
    _check_json(chk, ref, out_dir)
    _check_csv(chk, ref, out_dir)

    warnings = json.loads((out_dir / "warnings.json").read_text(encoding="utf-8"))
    chk.check(tuple((w["code"], w["attribute"]) for w in warnings) == ref.warnings, "warnings.json codes and attributes")
    diag = [json.loads(line) for line in (out_dir / "diagnostics.jsonl").read_text(encoding="utf-8").splitlines()]
    dropped = tuple(d["query_id"] for d in diag if "reason" in d)
    unknown = tuple((d["query_id"], tuple(d["unknown_identifiers"])) for d in diag if "unknown_identifiers" in d)
    chk.check(dropped == ref.dropped, "diagnostics.jsonl dropped queries")
    chk.check(unknown == ref.unknown, "diagnostics.jsonl unknown identifiers")

    snap = json.loads((out_dir / "snapshot.json").read_text(encoding="utf-8"))
    chk.check(tuple(snap["catalog"]["attributes"]) == ref.attributes, "snapshot.json catalog")
    return len(chk.failures) == before


_RANK_ROW = re.compile(r"^1\s+(\S+),(\S+)\s+(\S+)\s+(\S+)\s+(\d+)\s*$", re.M)


def check_rank(chk: Checker, ref: Reference, stdout: bytes) -> bool:
    """Header count and line 1 of `rank --top 10` (nnsm-min key)."""
    before = len(chk.failures)
    text = stdout.decode("utf-8", errors="replace")
    scores = ref.pair_scores()
    head = re.search(r"pairs ranked: (\d+)", text)
    chk.check(head is not None and int(head.group(1)) == len(scores), "rank pairs ranked")
    row = _RANK_ROW.search(text)
    if not chk.check(row is not None, "rank line 1 present"):
        return False
    a, b, shown, _, count = row.groups()
    best = min(s for s, _, _ in scores.values())
    entry = scores.get(tuple(sorted((a, b))))
    chk.check(entry is not None and close(entry[0], best), "rank line 1 is a strongest pair")
    if entry is not None:
        h, k = ref.attributes.index(a), ref.attributes.index(b)
        chk.check(int(count) == int(ref.adm[h, k]), "rank line 1 adm count")
        chk.check(shown in displays(entry[0]), "rank line 1 nnsm at display precision")
    return len(chk.failures) == before


def check_explain(chk: Checker, ref: Reference, pair: tuple[str, str], stdout: bytes) -> bool:
    before = len(chk.failures)
    text = stdout.decode("utf-8", errors="replace")
    h, k = ref.attributes.index(pair[0]), ref.attributes.index(pair[1])
    want = int(ref.adm[h, k])
    adm = re.search(r"^adm count: (\d+)$", text, re.M)
    co = re.search(r"^co-occurring queries \((\d+)\)", text, re.M)
    chk.check(adm is not None and int(adm.group(1)) == want, "explain adm count")
    chk.check(co is not None and int(co.group(1)) == want, "explain co-occurring query count")
    return len(chk.failures) == before


def check_diff(chk: Checker, old: Reference, new: Reference, stdout: bytes) -> bool:
    before = len(chk.failures)
    text = stdout.decode("utf-8", errors="replace")
    shared = set(old.attributes) & set(new.attributes)
    o, n = old.pair_scores(shared), new.pair_scores(shared)
    want = (len(o.keys() & n.keys()), len(n.keys() - o.keys()), len(o.keys() - n.keys()))
    got = re.search(r"^pairs compared: (\d+)  appeared: (\d+)  disappeared: (\d+)$", text, re.M)
    chk.check(got is not None and tuple(int(v) for v in got.groups()) == want, f"diff pair counts {want}")
    chk.check(f"shared attributes: {len(shared)}\n" in text, "diff shared attributes")
    return len(chk.failures) == before


def check_groups(chk: Checker, ref: Reference, stdout: bytes, cutoff: float, max_size: int) -> bool:
    """Structure and cohesion of suggest_groups output (one JSON line)."""
    before = len(chk.failures)
    try:
        groups = json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return chk.check(False, "groups output is JSON")
    members = [a for attrs, _ in groups for a in attrs]
    chk.check(len(members) == len(set(members)), "groups are disjoint")
    chk.check(bool(groups), "at least one group found")
    for attrs, cohesion in groups:
        idx = [ref.attributes.index(a) for a in attrs if a in ref.attributes]
        chk.check(len(idx) == len(attrs) and 2 <= len(idx) <= max_size, "group size and members")
        cells = [ref.nnsm[h, k] for h in idx for k in idx if h != k and ref.defined[h, k]]
        want = float(np.mean(cells)) if cells else float("nan")
        chk.check(bool(cells) and close(cohesion, want) and cohesion <= cutoff + REL_TOL, "group cohesion")
    return len(chk.failures) == before
