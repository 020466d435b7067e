"""The six-step numeric scale pipeline.

Stages, in order: binary usage matrix (QAUM), co-occurrence counts with
Total Measure (ADM), row-normalized probabilities (PDM), per-attribute
mean/variance/SD (MVSD), the numeric scale |SD_h - SD_k| / ADM[h,k] (NSM),
and its row-wise normalization to [0,10] (NNSM). Lower scale values mean
stronger inter-attribute dependence; each row's weakest partner maps to 10.

The QAUM is the usage set itself: its CSR arrays are the matrix's rows, so
run_pipeline keeps it as the bundle's qaum, neither copied nor checked again.
All arithmetic runs at full double precision; counts are exact int64,
tallied from pair codes, and no stage builds a dense m×n array. Undefined
cells propagate forward: a cell with no probability has no scale value.
Every stage is a pure function of its inputs; a bundle derives its
warnings from its own matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AttrScaleError
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
        names, nsm = self.attributes, self.nsm
        positive = np.where(nsm.defined, nsm.values, 0.0) > 0.0
        kinds = (
            ("isolated_attribute", self.adm.total_measure == 0,
             "attribute {!r} never co-occurs (total measure 0); its scale rows are undefined"),
            ("degenerate_tie", nsm.defined.any(axis=1) & ~positive.any(axis=1),
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


_TILE = 256  # the side of the square tiles build_adm mirrors its counts in


def build_adm(usage: UsageSet) -> DependencyMatrix:
    """Count, for every attribute pair, the kept queries of a usage set (the QAUM's rows) using both.

    np.bincount counts the pair codes h·n + k (h < k) of every query in exact
    int64 arithmetic, over chunks of consecutive queries whose codes and
    indices fit a budget of max(n², 2¹⁶), so the temporaries stay within
    O(max(n², 2¹⁶)) however large m grows; the counts are then mirrored, so
    they are symmetric by construction. The diagonal is never counted and
    stays 0 (undefined), and Total Measure is the row sum.
    """
    n, m = len(usage.catalog), len(usage.query_ids)
    cost = np.diff(usage.indptr)
    cost *= cost + 1
    cost //= 2  # a query's L(L-1)/2 codes and its L indices
    before = np.concatenate(([0], np.cumsum(cost)))  # the cost of the queries before each one
    # a query costs at most n(n+1)/2, under the budget, so every chunk takes at least one query
    budget = max(n * n, 1 << 16)

    def tally(start: int) -> tuple[np.ndarray, int]:
        """The counts of the codes of the queries from start on that fit the budget, and where they stop."""
        stop = int(np.searchsorted(before, before[start] + budget, side="right")) - 1
        return np.bincount(_pair_codes(usage.indptr[start : stop + 1], usage.indices, n), minlength=n * n), stop

    counts, stop = tally(0)  # a first chunk even when m = 0 gives counts its size
    while stop < m:
        chunk, stop = tally(stop)
        counts += chunk
    counts = counts.reshape(n, n)
    # mirror the upper triangle onto the lower, whose cells are 0, a pair of tiles at a time: a
    # transposed read of the whole array strides across memory and grows faster than n²
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            counts[j : j + _TILE, i : i + _TILE] += counts[i : i + _TILE, j : j + _TILE].T
    return DependencyMatrix(attributes=usage.catalog.attributes, counts=counts)


def build_pdm(adm: DependencyMatrix) -> MaskedRealMatrix:
    """Row-normalize counts into probabilities: PDM[h,k] = ADM[h,k] / TM[h].

    Diagonal and zero-count cells are undefined. A row with total measure 0
    (isolated attribute) is fully undefined.
    """
    tm = adm.total_measure.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = adm.counts.astype(np.float64) / tm[:, None]
    # DependencyMatrix keeps the diagonal 0 and total measure as the row sum: a positive count is the whole mask
    return MaskedRealMatrix(kind="PDM", attributes=adm.attributes, values=values, defined=adm.counts > 0)


def compute_mvsd(adm: DependencyMatrix) -> StatsTable:
    """Mean, variance, SD of each attribute's co-occurrence distribution, from the ADM alone.

    Over row h, with x the counts and p = x / TM[h] their probabilities (the
    PDM's defined cells; the diagonal and zero counts add nothing): mean =
    Σ p·x, variance = Σ p·(x - mean)², and StatsTable derives SD = √var. A
    row with total measure 0 (isolated attribute) has undefined statistics.
    """
    x = adm.counts.astype(np.float64)
    with np.errstate(invalid="ignore"):  # 0/0 only in rows of total measure 0, stored as undefined
        p = x / adm.total_measure[:, None]
    mean = (p * x).sum(axis=1)
    variance = (p * (x - mean[:, None]) ** 2).sum(axis=1)
    return StatsTable(attributes=adm.attributes, mean=mean, variance=variance, defined=adm.total_measure > 0)


def compute_nsm(adm: DependencyMatrix, stats: StatsTable) -> MaskedRealMatrix:
    """The scale itself: NSM[h,k] = |SD_h - SD_k| / ADM[h,k].

    Defined exactly where the probability matrix is defined (off-diagonal,
    positive count, both row statistics available). Lower = stronger.
    """
    defined = (adm.counts > 0) & stats.defined[:, None] & stats.defined[None, :]
    gap = np.abs(stats.sd[:, None] - stats.sd[None, :])  # NaN only at cells left undefined
    with np.errstate(divide="ignore", invalid="ignore"):
        values = gap / adm.counts.astype(np.float64)
    return MaskedRealMatrix(kind="NSM", attributes=adm.attributes, values=values, defined=defined)


def compute_nnsm(nsm: MaskedRealMatrix) -> MaskedRealMatrix:
    """Scale each row so its maximum maps to 10.

    Rows whose defined cells are all zero (a degenerate tie: every partner
    equally strong) map to all zeros; fully undefined rows stay undefined, as
    the constructor stores NaN there. Uses full-precision inputs, never displayed values.
    """
    if nsm.kind != "NSM":
        raise AttrScaleError("compute_nnsm expects an NSM matrix")
    row_max = np.where(nsm.defined, nsm.values, -np.inf).max(axis=1, initial=-np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        # divide before scaling: v/max <= 1 exactly, so cells never exceed 10
        scaled = (nsm.values / row_max[:, None]) * 10.0
    values = np.where((row_max > 0.0)[:, None], scaled, 0.0)
    return MaskedRealMatrix(kind="NNSM", attributes=nsm.attributes, values=values, defined=nsm.defined)


def run_pipeline(usage: UsageSet) -> ScaleBundle:
    """Run all six steps over a usage set, which is the bundle's QAUM."""
    adm = build_adm(usage)
    pdm = build_pdm(adm)
    mvsd = compute_mvsd(adm)
    nsm = compute_nsm(adm, mvsd)
    return ScaleBundle(qaum=usage, adm=adm, pdm=pdm, mvsd=mvsd, nsm=nsm, nnsm=compute_nnsm(nsm))
