"""Matrix and statistics types shared by the pipeline, plus exchange formats.

All matrix types are immutable value objects over numpy storage. Cells that
carry no value (the diagonal, zero co-occurrence, isolated attributes) are an
explicit undefined state, rendered as UNDEFINED_CSV in CSV and null in
JSON, never as a magic number. JSON always serializes values at full double
precision; CSV takes a display precision (decimal half-up, the convention the
reference tables use).

_frozen is the one intake path from caller input to stored arrays: every
constructor hands it each array to convert, shape-check and freeze.
"""

from __future__ import annotations

import csv
import io
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import partial

import numpy as np

from .errors import AttrScaleError

UNDEFINED_CSV = "#"
SCALE_KINDS = ("PDM", "NSM", "NNSM")


def _frozen(arr, dtype, shape: tuple[int, ...], defined: np.ndarray | None = None) -> np.ndarray:
    """A read-only copy of arr as dtype with the labels' shape, else AttrScaleError.

    A cast that changes a value is refused (compared only when the input dtype
    differs, so pipeline arrays pay for the copy alone). Given a defined mask,
    undefined cells are stored as NaN and every defined cell must be finite.
    """
    try:
        src = np.asarray(arr)
        with warnings.catch_warnings():  # a lossy cast may warn; the value comparison refuses it
            warnings.simplefilter("ignore")
            out = src.astype(dtype)
            lossy = src.dtype != out.dtype and not np.array_equal(out, src, equal_nan=True)
    except (TypeError, ValueError, OverflowError) as exc:
        raise AttrScaleError(f"cannot store input as {np.dtype(dtype)}: {exc}") from exc
    if lossy:
        raise AttrScaleError(f"casting {src.dtype} input to {out.dtype} would change its values")
    if out.shape != shape:
        raise AttrScaleError(f"array shape {out.shape} does not match its labels {shape}")
    if defined is not None:
        out[~defined] = np.nan  # canonical storage for undefined cells
        if not np.all(np.isfinite(out[defined])):
            raise AttrScaleError("defined cells must be finite")
    out.setflags(write=False)
    return out


def format_value(value: float, precision: int | None) -> str:
    """Render one defined cell; None precision means full round-trip precision."""
    if precision is None:
        return repr(float(value))
    quantum = Decimal(1).scaleb(-precision)
    return str(Decimal(float(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def _rows(values: np.ndarray, defined: np.ndarray | None = None) -> list[list]:
    """The grid as nested lists of Python numbers, None at undefined cells (the JSON form)."""
    if defined is None:
        return values.tolist()
    cells = values.astype(object)
    cells[~defined] = None
    return cells.tolist()


def _csv_text(header: list[str], labels: Iterable[str], rows: Iterable[list], fmt: Callable[..., str]) -> str:
    """One CSV row per label: fmt renders each defined cell, None renders as UNDEFINED_CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for label, row in zip(labels, rows):
        writer.writerow([label, *(UNDEFINED_CSV if v is None else fmt(v) for v in row)])
    return buf.getvalue()


@dataclass(frozen=True, eq=False)
class UsageMatrix:
    """Binary m×n query/attribute usage matrix (the pipeline's QAUM)."""

    query_ids: tuple[str, ...]
    attributes: tuple[str, ...]
    cells: np.ndarray  # uint8, shape (m, n)

    def __post_init__(self):
        cells = _frozen(self.cells, np.uint8, (len(self.query_ids), len(self.attributes)))
        if cells.size and cells.max() > 1:
            raise AttrScaleError("usage matrix cells must be 0 or 1")
        object.__setattr__(self, "cells", cells)

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape

    def to_csv(self, precision: int | None = None) -> str:
        del precision  # binary cells, nothing to round
        return _csv_text(["query", *self.attributes], self.query_ids, _rows(self.cells), str)

    def to_json_obj(self) -> dict:
        return {
            "kind": "QAUM",
            "query_ids": list(self.query_ids),
            "attributes": list(self.attributes),
            "cells": _rows(self.cells),
        }


@dataclass(frozen=True, eq=False)
class DependencyMatrix:
    """n×n co-occurrence counts with per-row Total Measure.

    The diagonal is semantically undefined; it is stored as 0 and rendered
    as undefined. total_measure[h] is the row sum excluding the diagonal.
    build_adm output is symmetric by construction; the constructor itself
    accepts asymmetric counts so externally published tables (which may
    carry printing errors) can be replayed through the later stages as-is.
    """

    attributes: tuple[str, ...]
    counts: np.ndarray  # int64, shape (n, n), diagonal 0
    total_measure: np.ndarray  # int64, shape (n,)

    def __post_init__(self):
        n = len(self.attributes)
        counts = _frozen(self.counts, np.int64, (n, n))
        tm = _frozen(self.total_measure, np.int64, (n,))
        if counts.size:
            if counts.min() < 0:
                raise AttrScaleError("dependency counts must be non-negative")
            if np.any(np.diagonal(counts) != 0):
                raise AttrScaleError("dependency matrix diagonal must stay undefined")
            if not np.array_equal(tm, counts.sum(axis=1)):
                raise AttrScaleError("total measure must equal row sums")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total_measure", tm)

    def _count_rows(self) -> list[list]:
        return _rows(self.counts, ~np.eye(len(self.attributes), dtype=bool))

    def to_csv(self, precision: int | None = None) -> str:
        del precision
        rows = [[*row, total] for row, total in zip(self._count_rows(), self.total_measure.tolist())]
        return _csv_text(["attribute", *self.attributes, "total_measure"], self.attributes, rows, str)

    def to_json_obj(self) -> dict:
        return {
            "kind": "ADM",
            "attributes": list(self.attributes),
            "counts": self._count_rows(),
            "total_measure": self.total_measure.tolist(),
        }


@dataclass(frozen=True, eq=False)
class MaskedRealMatrix:
    """n×n real matrix where each cell is either defined or undefined (NaN in storage)."""

    kind: str  # PDM | NSM | NNSM
    attributes: tuple[str, ...]
    values: np.ndarray  # float64; NaN at undefined cells
    defined: np.ndarray  # bool

    def __post_init__(self):
        if self.kind not in SCALE_KINDS:
            raise AttrScaleError(f"unknown matrix kind {self.kind!r}")
        shape = (len(self.attributes),) * 2
        defined = _frozen(self.defined, bool, shape)
        if np.any(np.diagonal(defined)):
            raise AttrScaleError("diagonal cells must stay undefined")
        object.__setattr__(self, "values", _frozen(self.values, np.float64, shape, defined))
        object.__setattr__(self, "defined", defined)

    def cell(self, h: int, k: int) -> float | None:
        return float(self.values[h, k]) if self.defined[h, k] else None

    def to_csv(self, precision: int | None = None) -> str:
        fmt = partial(format_value, precision=precision)
        return _csv_text(["attribute", *self.attributes], self.attributes, _rows(self.values, self.defined), fmt)

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "attributes": list(self.attributes),
            "values": _rows(self.values, self.defined),
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
        shape = (len(self.attributes),)
        defined = _frozen(self.defined, bool, shape)
        object.__setattr__(self, "mean", _frozen(self.mean, np.float64, shape, defined))
        object.__setattr__(self, "variance", _frozen(self.variance, np.float64, shape, defined))
        object.__setattr__(self, "sd", _frozen(self.sd, np.float64, shape, defined))
        object.__setattr__(self, "defined", defined)
        if np.any(self.variance[defined] < 0):
            raise AttrScaleError("variance must be non-negative")

    def _stat_rows(self) -> list[list]:
        grid = np.stack([self.mean, self.variance, self.sd])
        return _rows(grid, np.broadcast_to(self.defined, grid.shape))

    def to_csv(self, precision: int | None = None) -> str:
        fmt = partial(format_value, precision=precision)
        return _csv_text(["statistic", *self.attributes], ("mean", "variance", "sd"), self._stat_rows(), fmt)

    def to_json_obj(self) -> dict:
        mean, variance, sd = self._stat_rows()
        return {"kind": "MVSD", "attributes": list(self.attributes), "mean": mean, "variance": variance, "sd": sd}
