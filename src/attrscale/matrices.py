"""Matrix and statistics types shared by the pipeline, plus exchange formats.

The QAUM has no type here: it is the usage set itself (workload.UsageSet),
whose CSR arrays qaum_csv_pieces and qaum_json_pieces render. The other
matrix types are immutable value objects over numpy storage. Cells that
carry no value (the diagonal, zero co-occurrence, isolated attributes) are an
explicit undefined state, rendered as UNDEFINED_CSV in CSV and null in
JSON, never as a magic number. JSON always serializes values at full double
precision; CSV takes a display precision (decimal half-up, the convention the
reference tables use).

Each file is streamed: csv_pieces and json_pieces yield its text in row
blocks of at most _BLOCK_CELLS cells (one row at least), so no whole file
or whole grid of cell texts is held. Every matrix gives its file writer
the same thing, one list of row texts per block; _csv_pieces puts a label
field before each row and _joined_pieces frames the rows as a JSON list.
csv.writer and json.dumps see only the header and the labels, and rows are
joined with str.join. The QAUM's cells are single digits, so every row of
its files has a fixed width: a block's rows are cut from one uint8 byte
template of zeros, its ones written by one scatter from the block's slice of
the usage set's CSR arrays. Every other
block formats each distinct defined value once (_distinct over the float64
bit pattern, so -0.0 and 0.0 stay apart): integers through str, floats
through "%.{p}f" (or repr at full precision), and format_value, the one
definition of the rounding, redoes only the values where its Decimal text
can differ: exact binary ties. A value's text does not depend on the other
values, so the bytes do not depend on the block size. Undefined cells take
one constant text. Every cell is fixed-point at every precision. A JSON
file is an object of the matrix's kind, labels and grids (nested lists,
null at undefined cells) as json.dumps(indent=2, ensure_ascii=True) writes
it, then a newline. No Python object form of a file is built.

The ADM, PDM, NSM and NNSM store only their defined cells (cells.Cells:
row offsets, columns and values, row by row), since the scale is defined
only where two attributes co-occur. A dense grid given to a constructor
becomes cells at intake; the pipeline builds cells directly. The n×n grids
(counts, values, defined) are read-only views built on first read, for the
callers that want a grid; the files scatter each block of rows from the
cells.

_frozen is the one intake path from caller input to stored arrays: every
constructor hands it each array to convert, shape-check and freeze.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Context, Decimal
from functools import cached_property
from itertools import chain, islice, repeat
from types import SimpleNamespace

import numpy as np

from .cells import Cells, run_starts
from .errors import AttrScaleError

UNDEFINED_CSV = "#"
SCALE_KINDS = ("PDM", "NSM", "NNSM")
# (head, separator, tail, text when empty) of one row of cell texts in a file
_Layout = tuple[str, str, str, str]
_CSV_ROW = ("", ",", "\n", "\n")  # what follows a CSV row's label field and its comma


def _json_layout(depth: int, brackets: str = "[]") -> _Layout:
    """The json.dumps(indent=2) layout of a container nested depth levels deep."""
    pad = "\n" + "  " * depth
    return brackets[0] + pad + "  ", "," + pad + "  ", pad + brackets[1], brackets


_JSON_LIST = _json_layout(1)  # a list valued by a top-level key
_JSON_ROW = _json_layout(2)  # a list inside such a list
# cells rendered at once: a file is streamed in blocks of rows that hold at most this many (one row at
# least), so rendering memory stays flat as m and n grow, for the n×n grids as for the QAUM
_BLOCK_CELLS = 1 << 14


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


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_inverse=True) of a 1-D array, by its method (an argsort, then each run's
    rank scattered back), without the numpy.ma import (about 1 MB resident) that np.unique makes: the
    distinct entries, ascending, and each entry's position among them."""
    order = np.argsort(values)
    keys = values[order]
    first = run_starts(keys)
    inverse = np.empty(len(values), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return keys[first], inverse


def _cell_texts(values: np.ndarray, defined: np.ndarray, undefined: str, precision: int | None = None) -> list:
    """The cell texts of a grid, or of a block of its rows, as nested lists: each distinct defined
    value formatted once (integers through str, floats as format_value renders them at precision),
    undefined at undefined cells."""
    shown = values[defined]
    if values.dtype.kind == "f":
        keys, inverse = _distinct(shown.view(np.int64))  # -0.0 and 0.0 render apart
        texts = _float_texts(keys.view(np.float64), precision)
    else:
        keys, inverse = _distinct(shown)
        texts = list(map(str, keys.tolist()))
    index = np.full(values.shape, len(texts))  # the position of undefined in the text table
    index[defined] = inverse
    return np.array([*texts, undefined], dtype=object)[index].tolist()


def _blocks(rows: int, width: int) -> Iterator[slice]:
    """range(rows) cut into consecutive slices of as many rows of width cells as _BLOCK_CELLS holds,
    one row at least."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return (slice(start, min(start + step, rows)) for start in range(0, rows, step))


def _joined(texts: list[str], layout: _Layout) -> str:
    """One row of cell texts in a file's layout."""
    return "".join(_joined_pieces((texts,), layout))


def _joined_pieces(blocks: Iterable[list[str]], layout: _Layout) -> Iterator[str]:
    """_joined of the texts of every block together, in pieces of at most one block each."""
    head, sep, tail, empty = layout
    started = False
    for texts in blocks:
        if texts:
            yield sep if started else head
            yield sep.join(texts)
            started = True
    yield tail if started else empty


def _grid_rows(
    block: Callable[[slice], tuple[np.ndarray, np.ndarray]],
    shape: tuple[int, int],
    undefined: str,
    layout: _Layout,
    precision: int | None = None,
) -> Iterator[list[str]]:
    """Each row of a grid of shape (rows, width) as its cell texts joined in layout, one list per
    block of rows; block(rows) gives the values and the defined mask of a slice of rows."""
    for rows in _blocks(*shape):
        yield [_joined(row, layout) for row in _cell_texts(*block(rows), undefined, precision)]


def _digit_rows(lengths: np.ndarray, columns: np.ndarray, n: int, layout: _Layout) -> list[str]:
    """Each row of a block of a 0/1 grid of width n as _joined of its cell texts in layout, cut from
    one byte buffer: each row is a copy of one template of zeros, and one scatter writes the ones.
    Row r of the block has ones at the next lengths[r] of columns."""
    row = _joined(["0"] * n, layout)
    width = len(row)
    grid = np.empty((len(lengths), width), dtype=np.uint8)
    grid[:] = np.frombuffer(row.encode("ascii"), dtype=np.uint8)
    head, sep, _, _ = layout
    grid[np.repeat(np.arange(len(lengths)), lengths), len(head) + columns * (len(sep) + 1)] = ord("1")
    text = str(grid, "ascii")
    return [text[i : i + width] for i in range(0, len(text), width)]


def _csv_pieces(header: list[str], labels: Iterable[str], row_blocks: Iterable[list[str]]) -> Iterator[str]:
    """The header, then one line per label: its field as csv.writer writes it, then its row text; one
    piece per block of rows."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    writer.writerow(header)
    yield "".join(lines)
    labels = iter(labels)
    for rows in row_blocks:
        lines.clear()
        # a label is quoted as the first of several fields, where an empty one is written as nothing;
        # only a label alone on its line (no cells) is written as one field, '""' when it is empty
        writer.writerows((label, "") if len(header) > 1 else (label,) for label in islice(labels, len(rows)))
        # CPython's csv.writer makes one write call per row; pairing lines with rows relies on it
        if len(lines) != len(rows):
            raise AttrScaleError("csv.writer wrote a row in more than one piece")
        yield "".join(chain.from_iterable(zip([line[:-1] for line in lines], rows)))


def _json_object(fields: dict[str, str | Iterable[str]]) -> Iterator[str]:
    """A JSON file in pieces: a top-level object in the json.dumps(indent=2) layout, from each key's
    rendered value (one text, or its pieces), and a final newline."""
    head, sep, tail, _ = _json_layout(0, "{}")
    for i, (key, value) in enumerate(fields.items()):
        yield f"{sep if i else head}{json.dumps(key)}: "
        yield from (value,) if isinstance(value, str) else value
    yield tail + "\n"


def json_text(obj, depth: int = 0) -> str:
    """obj as json.dumps(obj, indent=2, ensure_ascii=True) writes it, nested depth levels deep. JSON
    escapes every newline inside a string, so each newline in the text is layout."""
    return json.dumps(obj, indent=2, ensure_ascii=True).replace("\n", "\n" + "  " * depth)


def _usage_rows(usage, layout: _Layout) -> Iterator[list[str]]:
    """Each row of the QAUM's 0/1 cells joined in layout, one list per block of rows, from that block's
    slice of a usage set's CSR arrays."""
    n = len(usage.catalog)
    for rows in _blocks(len(usage.query_ids), n):
        bounds = usage.indptr[rows.start : rows.stop + 1]
        yield _digit_rows(np.diff(bounds), usage.indices[bounds[0] : bounds[-1]], n, layout)


def qaum_csv_pieces(usage) -> Iterator[str]:
    """The QAUM's CSV file in pieces, from a usage set: one row per kept query, 1 at each attribute it uses."""
    return _csv_pieces(["query", *usage.catalog.attributes], usage.query_ids, _usage_rows(usage, _CSV_ROW))


def qaum_json_pieces(usage) -> Iterator[str]:
    """The QAUM's JSON file in pieces, from a usage set."""
    return _json_object({
        "kind": '"QAUM"',
        "query_ids": json_text(usage.query_ids, 1),
        "attributes": json_text(usage.catalog.attributes, 1),
        "cells": _joined_pieces(_usage_rows(usage, _JSON_ROW), _JSON_LIST),
    })


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, init=False)
class DependencyMatrix:
    """n×n co-occurrence counts with per-row Total Measure.

    The stored form is cells: the positive counts. The diagonal is
    semantically undefined and never a cell; counts, the n×n grid with 0 at
    every other cell, is a read-only view built on first read. total_measure
    is not an input: it is the row sums of the counts, stored read-only.
    build_adm output is symmetric by construction; the constructor itself
    accepts asymmetric counts so externally published tables (which may
    carry printing errors) can be replayed through the later stages as-is.
    """

    attributes: tuple[str, ...]
    cells: Cells  # int64: the positive counts
    total_measure: np.ndarray  # int64, shape (n,): the row sums

    def __init__(self, attributes: tuple[str, ...], counts):
        n = len(attributes)
        counts = _frozen(counts, np.int64, (n, n))
        if counts.size:
            if counts.min() < 0:
                raise AttrScaleError("dependency counts must be non-negative")
            if np.any(np.diagonal(counts) != 0):
                raise AttrScaleError("dependency matrix diagonal must stay undefined")
        self._store(attributes, Cells.of_grid(counts, counts > 0))

    @classmethod
    def _of_cells(cls, attributes: tuple[str, ...], cells: Cells) -> DependencyMatrix:
        """The matrix of positive int64 counts off the diagonal, given as cells (as build_adm makes them)."""
        adm = cls.__new__(cls)
        adm._store(attributes, cells)
        return adm

    def _store(self, attributes: tuple[str, ...], cells: Cells) -> None:
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "total_measure", _read_only(cells.reduce_rows(np.add, cells.values, 0)))

    @cached_property
    def counts(self) -> np.ndarray:
        """int64, shape (n, n), diagonal 0: the counts as a grid, built on first read."""
        return _read_only(self.cells.grid(0))

    def _off_diagonal(self, rows: slice, width: int) -> np.ndarray:
        """Which of the first width columns of these rows are off the diagonal (column n, the total, is)."""
        return np.arange(width) != np.arange(len(self.attributes))[rows, None]

    def csv_pieces(self, precision: int | None = None) -> Iterator[str]:
        del precision
        n = len(self.attributes)

        def block(rows: slice) -> tuple[np.ndarray, np.ndarray]:
            counts = np.column_stack([self.cells.grid(0, rows), self.total_measure[rows]])
            return counts, self._off_diagonal(rows, n + 1)

        header = ["attribute", *self.attributes, "total_measure"]
        return _csv_pieces(header, self.attributes, _grid_rows(block, (n, n + 1), UNDEFINED_CSV, _CSV_ROW))

    def json_pieces(self) -> Iterator[str]:
        n = len(self.attributes)
        total = _cell_texts(self.total_measure, np.ones(n, dtype=bool), "null")
        def block(rows: slice) -> tuple[np.ndarray, np.ndarray]:
            return self.cells.grid(0, rows), self._off_diagonal(rows, n)

        counts = _grid_rows(block, (n, n), "null", _JSON_ROW)
        return _json_object({
            "kind": '"ADM"',
            "attributes": json_text(self.attributes, 1),
            "counts": _joined_pieces(counts, _JSON_LIST),
            "total_measure": _joined(total, _JSON_LIST),
        })


@dataclass(frozen=True, eq=False, init=False)
class MaskedRealMatrix:
    """n×n real matrix where each cell is either defined or undefined.

    The stored form is cells: the defined ones, with finite float64 values.
    values (NaN at undefined cells) and defined (bool) are the n×n grids,
    read-only views built on first read.
    """

    kind: str  # PDM | NSM | NNSM
    attributes: tuple[str, ...]
    cells: Cells  # float64: the defined cells

    def __init__(self, kind: str, attributes: tuple[str, ...], values, defined):
        if kind not in SCALE_KINDS:
            raise AttrScaleError(f"unknown matrix kind {kind!r}")
        shape = (len(attributes),) * 2
        defined = _frozen(defined, bool, shape)
        if np.any(np.diagonal(defined)):
            raise AttrScaleError("diagonal cells must stay undefined")
        self._store(kind, attributes, Cells.of_grid(_frozen(values, np.float64, shape, defined), defined))

    @classmethod
    def _of_cells(cls, kind: str, attributes: tuple[str, ...], cells: Cells) -> MaskedRealMatrix:
        """The matrix of these finite float64 cells off the diagonal (as the pipeline's stages make them)."""
        matrix = cls.__new__(cls)
        matrix._store(kind, attributes, cells)
        return matrix

    def _store(self, kind: str, attributes: tuple[str, ...], cells: Cells) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "cells", cells)

    @cached_property
    def values(self) -> np.ndarray:
        """float64, shape (n, n), NaN at undefined cells: the values as a grid, built on first read."""
        return _read_only(self.cells.grid(np.nan))

    @cached_property
    def defined(self) -> np.ndarray:
        """bool, shape (n, n): which cells are defined, built on first read."""
        return _read_only(self.cells.grid(False, value=True))

    def cell(self, h: int, k: int) -> float | None:
        value = float(self.cells.lookup(h, k, np.nan))
        return None if np.isnan(value) else value

    def _block(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        values = self.cells.grid(np.nan, rows)
        return values, ~np.isnan(values)  # a defined cell is finite

    def _rows(self, undefined: str, layout: _Layout, precision: int | None = None) -> Iterator[list[str]]:
        """The grid's rows through _grid_rows, each block scattered from the cells."""
        return _grid_rows(self._block, (len(self.attributes),) * 2, undefined, layout, precision)

    def csv_pieces(self, precision: int | None = None) -> Iterator[str]:
        rows = self._rows(UNDEFINED_CSV, _CSV_ROW, precision)
        return _csv_pieces(["attribute", *self.attributes], self.attributes, rows)

    def json_pieces(self) -> Iterator[str]:
        return _json_object({
            "kind": json.dumps(self.kind),
            "attributes": json_text(self.attributes, 1),
            "values": _joined_pieces(self._rows("null", _JSON_ROW), _JSON_LIST),
        })


@dataclass(frozen=True, eq=False)
class StatsTable:
    """Per-attribute mean, variance, and standard deviation rows.

    sd is not an input: the constructor derives it as √variance once the
    variance is known to be non-negative, stored read-only and, like the
    other rows, NaN where undefined.
    """

    attributes: tuple[str, ...]
    mean: np.ndarray
    variance: np.ndarray
    sd: np.ndarray = field(init=False)
    defined: np.ndarray  # bool per attribute; False for isolated attributes

    def __post_init__(self):
        shape = (len(self.attributes),)
        defined = _frozen(self.defined, bool, shape)
        object.__setattr__(self, "mean", _frozen(self.mean, np.float64, shape, defined))
        object.__setattr__(self, "variance", _frozen(self.variance, np.float64, shape, defined))
        object.__setattr__(self, "defined", defined)
        if np.any(self.variance[defined] < 0):
            raise AttrScaleError("variance must be non-negative")
        sd = np.sqrt(self.variance)
        sd.setflags(write=False)
        object.__setattr__(self, "sd", sd)

    def _rows(self, undefined: str, layout: _Layout, precision: int | None = None) -> Iterator[list[str]]:
        """The mean, variance and sd rows through _grid_rows."""
        grid = np.stack([self.mean, self.variance, self.sd])
        defined = np.broadcast_to(self.defined, grid.shape)
        return _grid_rows(lambda rows: (grid[rows], defined[rows]), grid.shape, undefined, layout, precision)

    def csv_pieces(self, precision: int | None = None) -> Iterator[str]:
        rows = self._rows(UNDEFINED_CSV, _CSV_ROW, precision)
        return _csv_pieces(["statistic", *self.attributes], ("mean", "variance", "sd"), rows)

    def json_pieces(self) -> Iterator[str]:
        mean, variance, sd = chain.from_iterable(self._rows("null", _JSON_LIST))
        return _json_object({
            "kind": '"MVSD"',
            "attributes": json_text(self.attributes, 1),
            "mean": mean,
            "variance": variance,
            "sd": sd,
        })
