"""The six-step numeric scale pipeline.

Stages, in order: binary usage matrix (QAUM), co-occurrence counts with
Total Measure (ADM), row-normalized probabilities (PDM), per-attribute
mean/variance/SD (MVSD), the numeric scale |SD_h - SD_k| / ADM[h,k] (NSM),
and its row-wise normalization to [0,10] (NNSM). Lower scale values mean
stronger inter-attribute dependence; each row's weakest partner maps to 10.

The QAUM is the usage set itself: its CSR arrays are the matrix's rows, so
run_pipeline keeps it as the bundle's qaum, neither copied nor checked again.
Every later stage is defined only where a count is positive, so each one
computes over the defined cells (cells.Cells) and none builds an n×n or
an m×n array. Counts are exact int64, tallied from pair codes; the MVSD
comes from each row's exact integer moments, so no result depends on the
order of the catalog; every other value is one IEEE operation per cell at
full double precision, the same a dense grid would take. Undefined
cells propagate forward: a cell with no probability has no scale value.
Every stage is a pure function of its inputs; a bundle derives its
warnings from its own matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AttrScaleError
from .cells import Cells, run_starts
from .matrices import DependencyMatrix, MaskedRealMatrix, StatsTable
from .workload import UsageSet


@dataclass(frozen=True, eq=False)
class ScaleBundle:
    """Every intermediate of one pipeline run, retained for export and explanation."""

    qaum: UsageSet
    adm: DependencyMatrix
    pdm: MaskedRealMatrix
    mvsd: StatsTable
    nsm: MaskedRealMatrix
    nnsm: MaskedRealMatrix

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.adm.attributes

    @cached_property
    def warnings(self) -> tuple[dict, ...]:
        """The facts the matrices imply, each kind in catalog order: isolated attributes
        (total measure 0), then degenerate ties (NSM rows with defined cells, none positive)."""
        names, nsm = self.attributes, self.nsm.cells
        peak = nsm.reduce_rows(np.maximum, nsm.values, -np.inf)  # -inf only in a row with no cell
        kinds = (
            ("isolated_attribute", self.adm.total_measure == 0,
             "attribute {!r} never co-occurs (total measure 0); its scale rows are undefined"),
            ("degenerate_tie", (peak > -np.inf) & ~(peak > 0.0),
             "all defined scale cells of {!r} are zero; row normalized to zeros"),
        )
        return tuple(
            {"code": code, "attribute": names[h], "message": message.format(names[h])}
            for code, rows, message in kinds
            for h in np.flatnonzero(rows).tolist()
        )


def _pair_codes(bounds: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """The code h·n + k of every pair h < k of attributes one query uses, over the queries whose
    slices of indices the offsets bounds delimit; at most two arrays of codes are alive at once."""
    lo, hi = bounds[0], bounds[-1]
    later = np.repeat(bounds[1:], np.diff(bounds))  # each entry's query end, less the entry and
    later -= np.arange(lo + 1, hi + 1)  # itself: the entries after it in its ascending slice
    runs = np.flatnonzero(later)  # the entries with a later one; each has a run of codes
    count = later[runs]
    runs += lo
    # the later entries' positions, as a running sum: +1 within a run, and at a run's start a jump
    # from the last position of the run before (0 before the first) to the entry after its own
    jump = runs + 1
    jump[1:] -= (runs + count)[:-1]
    partner = np.ones(int(count.sum()), dtype=np.int64)
    partner[np.cumsum(count) - count] = jump
    np.cumsum(partner, out=partner)
    codes = indices[partner]
    del partner
    codes += np.repeat(indices[runs] * n, count)
    return codes


def _merged(codes: np.ndarray, counts: np.ndarray, more: np.ndarray, more_counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The union of two ascending arrays of distinct codes, each code's counts summed."""
    at = np.searchsorted(codes, more)
    seen = np.zeros(len(more), dtype=bool)
    inside = np.flatnonzero(at < len(codes))
    seen[inside] = codes[at[inside]] == more[inside]
    counts[at[seen]] += more_counts[seen]
    new = ~seen
    return np.insert(codes, at[new], more[new]), np.insert(counts, at[new], more_counts[new])


def build_adm(usage: UsageSet) -> DependencyMatrix:
    """Count, for every attribute pair, the kept queries of a usage set (the QAUM's rows) using both.

    Each query's pairs give the cell codes h·n + k of both directions. They
    are counted in exact int64 arithmetic by sorting, over chunks of
    consecutive queries whose codes and indices fit a budget of
    max(min(n², 2²²), 2¹⁶) (a query past it is a chunk of its own), and each
    chunk's distinct codes merge into the running ones, so the temporaries
    stay within O(budget + defined cells) however large m grows. The sorted
    codes are the cells row by row. Both directions of a pair count the same
    queries, so the counts are symmetric by construction. The diagonal is
    never counted and stays undefined, and Total Measure is the row sum.
    """
    n, m = len(usage.catalog), len(usage.query_ids)
    cost = np.diff(usage.indptr)
    cost *= cost  # a query's L(L-1) codes and its L indices
    before = np.concatenate(([0], np.cumsum(cost)))  # the cost of the queries before each one
    budget = max(min(n * n, 1 << 22), 1 << 16)

    def tally(start: int) -> tuple[np.ndarray, np.ndarray, int]:
        """The distinct cell codes, ascending, and their counts, of the queries from start on that fit the
        budget (one query at least), and where they stop."""
        stop = max(int(np.searchsorted(before, before[start] + budget, side="right")) - 1, min(start + 1, m))
        upper = _pair_codes(usage.indptr[start : stop + 1], usage.indices, n)
        # each pair h < k gives the cells h·n + k and k·n + h, the second built in place from h and k
        codes = np.empty(2 * len(upper), dtype=np.int64)
        codes[: len(upper)] = upper
        lower = codes[len(upper) :]
        np.floor_divide(upper, n, out=lower)  # h
        upper -= lower * n  # k
        upper *= n
        lower += upper
        del upper
        codes.sort()
        starts = np.flatnonzero(run_starts(codes))
        return codes[starts], np.diff(starts, append=len(codes)), stop

    codes, counts, stop = tally(0)  # a first chunk even when m = 0 gives the codes their type
    while stop < m:
        more, more_counts, stop = tally(stop)
        codes, counts = _merged(codes, counts, more, more_counts)
    indptr = np.searchsorted(codes, np.arange(n + 1, dtype=np.int64) * n)  # codes ascend row by row
    np.remainder(codes, n, out=codes)  # the columns
    return DependencyMatrix._of_cells(usage.catalog.attributes, Cells(indptr, codes, counts))


def build_pdm(adm: DependencyMatrix) -> MaskedRealMatrix:
    """Row-normalize counts into probabilities: PDM[h,k] = ADM[h,k] / TM[h].

    Defined at the ADM's cells (a positive count), so the diagonal and
    zero-count cells are undefined. A row with total measure 0 (isolated
    attribute) has no cell and is fully undefined.
    """
    cells = adm.cells
    values = cells.values.astype(np.float64)
    values /= cells.per_cell(adm.total_measure.astype(np.float64))
    return MaskedRealMatrix._of_cells("PDM", adm.attributes, Cells(cells.indptr, cells.cols, values))


_EXACT_CUBES = 2.0**62  # a row's Σx³ below this (with room for a float estimate's error) fits int64


def compute_mvsd(adm: DependencyMatrix) -> StatsTable:
    """Mean, variance, SD of each attribute's co-occurrence distribution, from the ADM alone.

    Over row h, with x the counts (the ADM's cells) and p = x / TM[h] their
    probabilities, mean = Σ p·x and variance = Σ p·(x - mean)². Both are
    ratios of the row's integer moments T = Σx (the total measure), S2 = Σx²
    and S3 = Σx³: mean = S2/T and variance = (T·S3 - S2²)/T², each one
    correctly rounded division of exact integers (int64 sums while Σx³ fits,
    Python integers past it). So the result is exact to the last bit and
    does not depend on the order of the row's cells. StatsTable derives
    SD = √var. A row with total measure 0 (isolated attribute) has undefined
    statistics.
    """
    cells = adm.cells
    x = cells.values
    power = x * x
    moments = [adm.total_measure.tolist(), cells.reduce_rows(np.add, power, 0).tolist()]
    power *= x  # wraps in a row past _EXACT_CUBES, whose moments are redone below
    moments.append(cells.reduce_rows(np.add, power, 0).tolist())
    del power
    # Σx³ <= Σx · max(x)², estimated in floats: a row this bound keeps below _EXACT_CUBES fits int64
    bound = cells.reduce_rows(np.maximum, x, 0).astype(np.float64) ** 2 * adm.total_measure
    for h in np.flatnonzero(bound >= _EXACT_CUBES).tolist():
        row = x[cells.indptr[h] : cells.indptr[h + 1]].tolist()
        for p, moment in enumerate(moments, start=1):
            moment[h] = sum(v**p for v in row)
    mean = [s2 / t if t else 0.0 for t, s2, _ in zip(*moments)]
    variance = [(t * s3 - s2 * s2) / (t * t) if t else 0.0 for t, s2, s3 in zip(*moments)]
    return StatsTable(attributes=adm.attributes, mean=mean, variance=variance, defined=adm.total_measure > 0)


def compute_nsm(adm: DependencyMatrix, stats: StatsTable) -> MaskedRealMatrix:
    """The scale itself: NSM[h,k] = |SD_h - SD_k| / ADM[h,k].

    Defined exactly where the probability matrix is defined (off-diagonal,
    positive count, both row statistics available). Lower = stronger.
    """
    cells = adm.cells
    keep = cells.per_cell(stats.defined)
    keep &= stats.defined[cells.cols]
    values = cells.per_cell(stats.sd)  # NaN in the cells of an undefined row, which keep drops
    values -= stats.sd[cells.cols]
    np.abs(values, out=values)
    values /= cells.values
    return MaskedRealMatrix._of_cells("NSM", adm.attributes, cells.where(keep, values))


def compute_nnsm(nsm: MaskedRealMatrix) -> MaskedRealMatrix:
    """Scale each row so its maximum maps to 10.

    Rows whose defined cells are all zero (a degenerate tie: every partner
    equally strong) map to all zeros; fully undefined rows have no cell and
    stay undefined. Uses full-precision inputs, never displayed values.
    """
    if nsm.kind != "NSM":
        raise AttrScaleError("compute_nnsm expects an NSM matrix")
    cells = nsm.cells
    row_max = cells.reduce_rows(np.maximum, cells.values, -np.inf)
    values = cells.per_cell(row_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        # divide before scaling: v/max <= 1 exactly, so cells never exceed 10
        np.divide(cells.values, values, out=values)
    values *= 10.0
    for h in np.flatnonzero((row_max > -np.inf) & ~(row_max > 0.0)).tolist():  # degenerate ties
        values[cells.indptr[h] : cells.indptr[h + 1]] = 0.0
    return MaskedRealMatrix._of_cells("NNSM", nsm.attributes, Cells(cells.indptr, cells.cols, values))


def run_pipeline(usage: UsageSet) -> ScaleBundle:
    """Run all six steps over a usage set, which is the bundle's QAUM."""
    adm = build_adm(usage)
    pdm = build_pdm(adm)
    mvsd = compute_mvsd(adm)
    nsm = compute_nsm(adm, mvsd)
    return ScaleBundle(qaum=usage, adm=adm, pdm=pdm, mvsd=mvsd, nsm=nsm, nnsm=compute_nnsm(nsm))
