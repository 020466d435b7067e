"""Matrix and statistics types shared by the pipeline, plus exchange formats.

All matrix types are immutable value objects over numpy storage. Cells that
carry no value (the diagonal, zero co-occurrence, isolated attributes) are an
explicit undefined state, rendered as UNDEFINED_CSV in CSV and null in
JSON, never as a magic number. JSON always serializes values at full double
precision; CSV takes a display precision (decimal half-up, the convention the
reference tables use).

Rendering is near-linear in the cell count. json_text writes the
json.dumps(indent=2) layout with each row encoded in one call of the C
encoder. CSV cells are formatted as whole grids: "%.{p}f" (or repr at full
precision) formats every float cell, and format_value, the one definition
of the rounding, redoes only the cells where its Decimal text can differ:
exact binary ties. Every cell is fixed-point at every precision.

_frozen is the one intake path from caller input to stored arrays: every
constructor hands it each array to convert, shape-check and freeze.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from itertools import repeat

import numpy as np

from .errors import AttrScaleError

UNDEFINED_CSV = "#"
SCALE_KINDS = ("PDM", "NSM", "NNSM")
_BINARY_TEXT = np.array(["0", "1"], dtype=object)


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
    digits = Context(prec=309 + precision)  # a double has at most 309 integer digits
    return format(Decimal(float(value)).quantize(quantum, rounding=ROUND_HALF_UP, context=digits), "f")


def _rows(values: np.ndarray, defined: np.ndarray | None = None) -> list[list]:
    """The grid as nested lists of Python numbers, None at undefined cells (the JSON form)."""
    if defined is None:
        return values.tolist()
    cells = values.astype(object)
    cells[~defined] = None
    return cells.tolist()


def _float_texts(values: np.ndarray, precision: int | None) -> list[str]:
    """format_value of every cell of a 1-D float array, formatted in bulk."""
    if precision is None:
        return list(map(float.__repr__, values.tolist()))
    texts = list(map(format, values.tolist(), repeat(f".{precision}f")))
    # "%.{p}f" rounds half-even and Decimal half-up, so they differ only at exact ties: v·2·10^p
    # is an odd integer. As 5^p is odd, that holds iff v·2^(p+1) is one, a product that is exact
    # in binary; the float product v·2·10^p is not once v has over 53 - 2.3p significant bits.
    with np.errstate(over="ignore", invalid="ignore"):
        redo = np.abs(np.fmod(values * 2.0 ** (precision + 1), 2.0)) == 1.0
    for i in np.flatnonzero(redo).tolist():
        texts[i] = format_value(values[i], precision)
    return texts


def _text_grid(values: np.ndarray, defined: np.ndarray, precision: int | None = None) -> list[list[str]]:
    """The grid's CSV cells as rows of text: integers through str, floats as format_value
    renders them at precision, UNDEFINED_CSV at undefined cells."""
    shown = values[defined]
    texts = _float_texts(shown, precision) if values.dtype.kind == "f" else list(map(str, shown.tolist()))
    grid = np.full(values.shape, UNDEFINED_CSV, dtype=object)
    grid[defined] = texts
    return grid.tolist()


def _csv_text(header: list[str], labels: Iterable[str], rows: Iterable[list[str]]) -> str:
    """One CSV row per label, followed by that row's cell texts."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([label, *row] for label, row in zip(labels, rows))
    return buf.getvalue()


def json_text(obj, pad: str = "  ") -> str:
    """obj as json.dumps(obj, indent=2, ensure_ascii=True) writes it; dict keys must be str.

    indent= forces the pure-Python encoder, which holds one string per cell;
    here each list of scalars goes through the C encoder in one call, its
    item separator carrying the newline and indentation.
    """
    close = "\n" + pad[:-2]
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (json.dumps(key) + ": " + json_text(value, pad + "  ") for key, value in obj.items())
        return "{\n" + pad + (",\n" + pad).join(items) + close + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, obj))):
            body = (",\n" + pad).join(json_text(item, pad + "  ") for item in obj)
        else:
            body = json.dumps(obj, separators=(",\n" + pad, ": "), ensure_ascii=True)[1:-1]
        return "[\n" + pad + body + close + "]"
    return json.dumps(obj, ensure_ascii=True)


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
        return _csv_text(["query", *self.attributes], self.query_ids, _BINARY_TEXT[self.cells].tolist())

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

    def _off_diagonal(self) -> np.ndarray:
        return ~np.eye(len(self.attributes), dtype=bool)

    def to_csv(self, precision: int | None = None) -> str:
        del precision
        grid = np.column_stack([self.counts, self.total_measure])
        defined = np.column_stack([self._off_diagonal(), np.ones(len(self.attributes), dtype=bool)])
        header = ["attribute", *self.attributes, "total_measure"]
        return _csv_text(header, self.attributes, _text_grid(grid, defined))

    def to_json_obj(self) -> dict:
        return {
            "kind": "ADM",
            "attributes": list(self.attributes),
            "counts": _rows(self.counts, self._off_diagonal()),
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
        rows = _text_grid(self.values, self.defined, precision)
        return _csv_text(["attribute", *self.attributes], self.attributes, rows)

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

    def _grid(self) -> tuple[np.ndarray, np.ndarray]:
        grid = np.stack([self.mean, self.variance, self.sd])
        return grid, np.broadcast_to(self.defined, grid.shape)

    def to_csv(self, precision: int | None = None) -> str:
        rows = _text_grid(*self._grid(), precision)
        return _csv_text(["statistic", *self.attributes], ("mean", "variance", "sd"), rows)

    def to_json_obj(self) -> dict:
        mean, variance, sd = _rows(*self._grid())
        return {"kind": "MVSD", "attributes": list(self.attributes), "mean": mean, "variance": variance, "sd": sd}
