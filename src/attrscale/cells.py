"""The stored form of the ADM, PDM, NSM and NNSM: their defined cells, row by row.

The scale is defined only where two attributes co-occur, so each of these
matrices holds its defined cells in CSR form (row offsets, columns, values)
and the pipeline's stages compute on them one operation per cell. Row facts
(sums, maxima) reduce over each row's cells, a grid is scattered from them
a block of rows at a time, and single cells are found by a binary search
within their row, so no n×n array is built unless a caller asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _row_offsets(rows: np.ndarray, n: int) -> np.ndarray:
    """The CSR offsets of n rows from each cell's row: 0, then the end of each row's cells."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def run_starts(ascending: np.ndarray) -> np.ndarray:
    """Which entries of an ascending array differ from the entry before: the first of each run of equal
    ones."""
    first = np.ones(len(ascending), dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=first[1:])
    return first


@dataclass(frozen=True, eq=False)
class Cells:
    """The defined cells of an n×n matrix, row by row (CSR): row h's cells sit at positions
    indptr[h]:indptr[h+1], their columns ascending in cols and their values in values. The arrays
    are read-only, so matrices whose cells are the same share indptr and cols."""

    indptr: np.ndarray  # int64, shape (n + 1,)
    cols: np.ndarray  # int64, shape (d,)
    values: np.ndarray  # shape (d,)

    def __post_init__(self):
        for arr in (self.indptr, self.cols, self.values):
            arr.setflags(write=False)

    @classmethod
    def of_grid(cls, grid: np.ndarray, defined: np.ndarray) -> Cells:
        """The cells of an n×n grid where defined holds."""
        rows, cols = np.nonzero(defined)
        return cls(_row_offsets(rows, len(defined)), cols.astype(np.int64), grid[rows, cols])

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def per_cell(self, per_row: np.ndarray) -> np.ndarray:
        """Each cell's entry of an array of one entry per row."""
        return np.repeat(per_row, np.diff(self.indptr))

    def rows(self) -> np.ndarray:
        """Each cell's row."""
        return self.per_cell(np.arange(self.n, dtype=np.int64))

    def where(self, keep: np.ndarray, values: np.ndarray) -> Cells:
        """The cells where keep holds, holding their entries of values (keep and values: one per cell)."""
        if keep.all():
            return Cells(self.indptr, self.cols, values)
        return Cells(_row_offsets(self.rows()[keep], self.n), self.cols[keep], values[keep])

    def reduce_rows(self, ufunc: np.ufunc, values: np.ndarray, empty) -> np.ndarray:
        """ufunc reduced over each row's entries of values (one per cell); empty for a row with no cell."""
        out = np.full(self.n, empty, dtype=values.dtype)
        filled = np.flatnonzero(np.diff(self.indptr))
        if filled.size:  # a reduceat segment runs to the next filled row's start: empty rows hold no cell
            out[filled] = ufunc.reduceat(values, self.indptr[filled])
        return out

    def grid(self, fill, rows: slice = slice(None), value=None) -> np.ndarray:
        """These rows of the n×n grid: each cell's value (or value, given one), fill elsewhere."""
        start, stop, _ = rows.indices(self.n)
        lo, hi = self.indptr[start], self.indptr[stop]
        cells = self.values[lo:hi] if value is None else np.asarray(value)
        out = np.full((stop - start, self.n), fill, dtype=cells.dtype)
        out[np.repeat(np.arange(stop - start), np.diff(self.indptr[start : stop + 1])), self.cols[lo:hi]] = cells
        return out

    def lookup(self, h, k, fill) -> np.ndarray:
        """The values of the cells (h, k), element-wise over index arrays, and fill where no cell is: a
        binary search within each row h, all at once, so no array of every cell is built."""
        h, k = np.asarray(h, dtype=np.int64), np.asarray(k, dtype=np.int64)
        if not self.cols.size:
            return np.full(np.broadcast(h, k).shape, fill, dtype=self.values.dtype)
        lo, end = self.indptr[h], self.indptr[h + 1]
        hi = end
        while (active := lo < hi).any():  # the first of row h's cells whose column is not below k
            mid = (lo + hi) // 2
            right = active & (self.cols[np.where(active, mid, 0)] < k)
            lo, hi = np.where(right, mid + 1, lo), np.where(active & ~right, mid, hi)
        at = np.minimum(lo, self.cols.size - 1)
        return np.where((lo < end) & (self.cols[at] == k), self.values[at], fill)
