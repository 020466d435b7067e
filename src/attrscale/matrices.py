"""Matrix and statistics types shared by the pipeline, plus exchange formats.

All matrix types are immutable value objects over numpy storage. Cells that
carry no value (the diagonal, zero co-occurrence, isolated attributes) are an
explicit undefined state, rendered as the literal "#" in CSV and null in
JSON, never as a magic number. JSON always serializes values at full double
precision; CSV takes a display precision (decimal half-up, the convention the
reference tables use).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import AttrScaleError

UNDEFINED_CSV = "#"
SCALE_KINDS = ("PDM", "NSM", "NNSM")


def _frozen(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def format_value(value: float, precision: int | None) -> str:
    """Render one defined cell; None precision means full round-trip precision."""
    if precision is None:
        return repr(float(value))
    quantum = Decimal(1).scaleb(-precision)
    return str(Decimal(float(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True, eq=False)
class UsageMatrix:
    """Binary m×n query/attribute usage matrix (the pipeline's QAUM)."""

    query_ids: tuple[str, ...]
    attributes: tuple[str, ...]
    cells: np.ndarray  # uint8, shape (m, n)

    def __post_init__(self):
        cells = _frozen(self.cells, np.uint8)
        if cells.shape != (len(self.query_ids), len(self.attributes)):
            raise AttrScaleError("usage matrix shape does not match its labels")
        if cells.size and cells.max() > 1:
            raise AttrScaleError("usage matrix cells must be 0 or 1")
        object.__setattr__(self, "cells", cells)

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape

    def to_csv(self, precision: int | None = None) -> str:
        del precision  # binary cells, nothing to round
        rows = [["query", *self.attributes]]
        for qid, row in zip(self.query_ids, self.cells):
            rows.append([qid, *(str(int(v)) for v in row)])
        return _csv_text(rows)

    def to_json_obj(self) -> dict:
        return {
            "kind": "QAUM",
            "query_ids": list(self.query_ids),
            "attributes": list(self.attributes),
            "cells": [[int(v) for v in row] for row in self.cells],
        }


@dataclass(frozen=True, eq=False)
class DependencyMatrix:
    """n×n co-occurrence counts with per-row Total Measure.

    The diagonal is semantically undefined; it is stored as 0 and rendered
    as "#". total_measure[h] is the row sum excluding the diagonal.
    build_adm output is symmetric by construction; the constructor itself
    accepts asymmetric counts so externally published tables (which may
    carry printing errors) can be replayed through the later stages as-is.
    """

    attributes: tuple[str, ...]
    counts: np.ndarray  # int64, shape (n, n), diagonal 0
    total_measure: np.ndarray  # int64, shape (n,)

    def __post_init__(self):
        counts = _frozen(self.counts, np.int64)
        tm = _frozen(self.total_measure, np.int64)
        n = len(self.attributes)
        if counts.shape != (n, n) or tm.shape != (n,):
            raise AttrScaleError("dependency matrix shape does not match its labels")
        if counts.size:
            if counts.min() < 0:
                raise AttrScaleError("dependency counts must be non-negative")
            if np.any(np.diagonal(counts) != 0):
                raise AttrScaleError("dependency matrix diagonal must stay undefined")
            if not np.array_equal(tm, counts.sum(axis=1)):
                raise AttrScaleError("total measure must equal row sums")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total_measure", tm)

    def to_csv(self, precision: int | None = None) -> str:
        del precision
        rows = [["attribute", *self.attributes, "total_measure"]]
        for h, name in enumerate(self.attributes):
            cells = [UNDEFINED_CSV if h == k else str(int(self.counts[h, k])) for k in range(len(self.attributes))]
            rows.append([name, *cells, str(int(self.total_measure[h]))])
        return _csv_text(rows)

    def to_json_obj(self) -> dict:
        n = len(self.attributes)
        return {
            "kind": "ADM",
            "attributes": list(self.attributes),
            "counts": [[None if h == k else int(self.counts[h, k]) for k in range(n)] for h in range(n)],
            "total_measure": [int(v) for v in self.total_measure],
        }


@dataclass(frozen=True, eq=False)
class MaskedRealMatrix:
    """n×n real matrix where each cell is either defined or "#"."""

    kind: str  # PDM | NSM | NNSM
    attributes: tuple[str, ...]
    values: np.ndarray  # float64; NaN at undefined cells
    defined: np.ndarray  # bool

    def __post_init__(self):
        if self.kind not in SCALE_KINDS:
            raise AttrScaleError(f"unknown matrix kind {self.kind!r}")
        defined = _frozen(self.defined, bool)
        n = len(self.attributes)
        if defined.shape != (n, n):
            raise AttrScaleError("matrix shape does not match its labels")
        if np.any(np.diagonal(defined)):
            raise AttrScaleError("diagonal cells must stay undefined")
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.shape != (n, n):
            raise AttrScaleError("matrix shape does not match its labels")
        values[~defined] = np.nan  # canonical storage for undefined cells
        if not np.all(np.isfinite(values[defined])):
            raise AttrScaleError("defined cells must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "defined", defined)

    def cell(self, h: int, k: int) -> float | None:
        return float(self.values[h, k]) if self.defined[h, k] else None

    def to_csv(self, precision: int | None = None) -> str:
        rows = [["attribute", *self.attributes]]
        for h, name in enumerate(self.attributes):
            cells = [
                format_value(self.values[h, k], precision) if self.defined[h, k] else UNDEFINED_CSV
                for k in range(len(self.attributes))
            ]
            rows.append([name, *cells])
        return _csv_text(rows)

    def to_json_obj(self) -> dict:
        n = len(self.attributes)
        return {
            "kind": self.kind,
            "attributes": list(self.attributes),
            "values": [
                [float(self.values[h, k]) if self.defined[h, k] else None for k in range(n)] for h in range(n)
            ],
        }


@dataclass(frozen=True, eq=False)
class StatsTable:
    """Per-attribute mean, variance, and standard deviation rows."""

    attributes: tuple[str, ...]
    mean: np.ndarray
    variance: np.ndarray
    sd: np.ndarray
    defined: np.ndarray  # bool per attribute; False for isolated attributes

    def __post_init__(self):
        defined = _frozen(self.defined, bool)
        n = len(self.attributes)
        rows = {}
        for field_name in ("mean", "variance", "sd"):
            arr = np.array(getattr(self, field_name), dtype=np.float64, copy=True)
            if arr.shape != (n,):
                raise AttrScaleError("stats table shape does not match its labels")
            arr[~defined] = np.nan
            arr.setflags(write=False)
            rows[field_name] = arr
        if defined.shape != (n,):
            raise AttrScaleError("stats table shape does not match its labels")
        if np.any(rows["variance"][defined] < 0):
            raise AttrScaleError("variance must be non-negative")
        for field_name, arr in rows.items():
            object.__setattr__(self, field_name, arr)
        object.__setattr__(self, "defined", defined)

    def to_csv(self, precision: int | None = None) -> str:
        rows = [["statistic", *self.attributes]]
        for label, arr in (("mean", self.mean), ("variance", self.variance), ("sd", self.sd)):
            rows.append(
                [label, *(format_value(v, precision) if d else UNDEFINED_CSV for v, d in zip(arr, self.defined))]
            )
        return _csv_text(rows)

    def to_json_obj(self) -> dict:
        def row(arr: np.ndarray) -> list:
            return [float(v) if d else None for v, d in zip(arr, self.defined)]

        return {
            "kind": "MVSD",
            "attributes": list(self.attributes),
            "mean": row(self.mean),
            "variance": row(self.variance),
            "sd": row(self.sd),
        }
