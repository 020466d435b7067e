"""Actionable outputs over a finished bundle: rankings, groups, explanations and diffs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AttrScaleError, DiagonalPairError, UnknownAttributeError
from .pipeline import ScaleBundle

RANK_KEYS = ("nnsm-min", "nnsm-row")


@dataclass(frozen=True, eq=False)
class AffinityRanking:
    """Ranked pairs as columns, ascending by scale value (strongest dependence first).

    A pair is one row of entries: two indices into attributes, named in the
    direction of its score. nnsm holds that score; a pair's other cells are
    read from the bundle in the same direction.
    """

    key: str
    attributes: tuple[str, ...]
    entries: np.ndarray  # int64, shape (k, 2)
    nnsm: np.ndarray  # float64, shape (k,)


@dataclass(frozen=True)
class PairExplanation:
    """Every intermediate the scale produced for one attribute pair."""

    a: str
    b: str
    co_occurring_queries: tuple[str, ...]
    adm: int
    total_measure_a: int
    total_measure_b: int
    pdm_ab: float | None
    pdm_ba: float | None
    sd_a: float | None
    sd_b: float | None
    nsm: float | None
    nnsm_ab: float | None
    nnsm_ba: float | None


@dataclass(frozen=True)
class AttributeGroup:
    """Candidate attribute cluster; cohesion = mean internal NNSM (lower = tighter)."""

    attributes: tuple[str, ...]
    cohesion: float

    def __post_init__(self):
        if len(self.attributes) < 2:
            raise AttrScaleError("a group needs at least 2 attributes")


@dataclass(frozen=True, eq=False)
class BundleDiff:
    """nnsm-min scores of the pairs of attributes two bundles share, as columns.

    diff_rankings makes it from the two bundles' nnsm-min rankings.
    attributes holds the shared attributes, matched case-insensitively and
    spelled as in the new bundle, in sorted order. A pair is one row of two
    indices into it, the smaller first, so pairs sort as their name pairs do.
    A pair is scored in a bundle when one of its cells is defined there; its
    rank is its 1-based position among the shared pairs in rank_pairs order.
    common pairs are scored in both bundles, ordered by |new - old|
    descending, then by pair; appeared pairs only in new and disappeared
    pairs only in old, each ordered by pair.
    """

    attributes: tuple[str, ...]
    common: np.ndarray  # int64, shape (k, 2)
    old_scores: np.ndarray  # float64, shape (k,)
    new_scores: np.ndarray
    old_ranks: np.ndarray  # int64, shape (k,)
    new_ranks: np.ndarray
    appeared: np.ndarray  # int64, shape (a, 2)
    appeared_scores: np.ndarray  # float64, shape (a,): the new scores
    disappeared: np.ndarray  # int64, shape (d, 2)
    disappeared_scores: np.ndarray  # float64, shape (d,): the old scores


def _index(bundle: ScaleBundle, name: str) -> int:
    # case-insensitive, the catalog convention; the catalog rejects casefold duplicates
    idx = {attr.casefold(): i for i, attr in enumerate(bundle.attributes)}.get(name.casefold())
    if idx is None:
        raise UnknownAttributeError(name)
    return idx


def rank_pairs(bundle: ScaleBundle, key: str = "nnsm-min") -> AffinityRanking:
    """Rank defined cells ascending: the strongest dependencies come first.

    nnsm-min scores each unordered pair once by the smaller of its two
    directed values, or by its one defined value, and names it in that
    direction; nnsm-row lists directed cells as-is. Ties break
    lexicographically by attribute-name pair, so output is total and stable.
    This is the one place that orders pairs.
    """
    if key not in RANK_KEYS:
        raise AttrScaleError(f"unknown ranking key {key!r}")
    nnsm = bundle.nnsm
    if key == "nnsm-row":
        a, b = np.nonzero(nnsm.defined)  # the diagonal is never defined
        score = nnsm.values[a, b]
    else:
        h, k = np.nonzero(np.triu(nnsm.defined | nnsm.defined.T, 1))  # a replayed ADM may define one direction
        filled = np.where(nnsm.defined, nnsm.values, np.inf)  # an undefined direction never wins
        ab, ba = filled[h, k], filled[k, h]
        keep = ab <= ba  # the pair is named in the direction of its smaller cell
        a, b = np.where(keep, h, k), np.where(keep, k, h)
        score = np.where(ba < ab, ba, ab)  # Python min(ab, ba)
    # Python sorts the names: numpy string sorts drop trailing NULs
    name_rank = {name: pos for pos, name in enumerate(sorted(bundle.attributes))}
    rank = np.array([name_rank[name] for name in bundle.attributes], dtype=np.int64)
    order = np.lexsort((rank[b], rank[a], score))
    return AffinityRanking(
        key=key, attributes=bundle.attributes, entries=np.column_stack((a[order], b[order])), nnsm=score[order]
    )


def _cohesion(bundle: ScaleBundle, members: list[int]) -> float:
    """Mean of defined internal NNSM cells, both directions; suggest_groups asks only about groups holding one."""
    total, cells = 0.0, 0
    for h in members:
        for k in members:
            if bundle.nnsm.defined[h, k]:
                total += float(bundle.nnsm.values[h, k])
                cells += 1
    return total / cells


def suggest_groups(bundle: ScaleBundle, cutoff: float, max_size: int) -> list[AttributeGroup]:
    """Greedy agglomeration of attributes into tight groups.

    Seeds from the strongest remaining pair (nnsm-min order), then keeps
    adding the attribute that minimizes the grown group's cohesion while it
    stays ≤ cutoff and the group ≤ max_size. Grouped attributes leave the
    pool; iteration continues until no seed pair qualifies. A candidate must
    share at least one defined cell with the group, so unrelated attributes
    never ride in on a tie.
    """
    if not 0.0 <= cutoff <= 10.0:
        raise AttrScaleError(f"cutoff must be in [0,10], got {cutoff}")
    if isinstance(max_size, bool) or not isinstance(max_size, int):
        raise AttrScaleError(f"max_size must be an integer, got {max_size!r}")
    if max_size < 2:
        raise AttrScaleError(f"max_size must be at least 2, got {max_size}")
    names = bundle.attributes
    linked = bundle.nnsm.defined | bundle.nnsm.defined.T
    available = np.ones(len(names), dtype=bool)
    groups: list[AttributeGroup] = []
    for a, b in rank_pairs(bundle).entries.tolist():
        if not (available[a] and available[b]):
            continue
        members = sorted((a, b))
        cohesion = _cohesion(bundle, members)
        if cohesion > cutoff:
            continue
        available[members] = False
        while len(members) < max_size:
            grown = ((_cohesion(bundle, members + [c]), names[c], c)
                     for c in np.flatnonzero(available & linked[members].any(axis=0)).tolist())
            best = min((cand for cand in grown if cand[0] <= cutoff), default=None)
            if best is None:
                break
            cohesion, _, c = best
            members.append(c)
            members.sort()
            available[c] = False
        groups.append(AttributeGroup(attributes=tuple(names[i] for i in members), cohesion=cohesion))
    return groups


def explain_pair(bundle: ScaleBundle, a: str, b: str) -> PairExplanation:
    """Trace one pair through every stage; numeric fields are copied from the bundle."""
    h, k = _index(bundle, a), _index(bundle, b)
    if h == k:
        raise DiagonalPairError(bundle.attributes[h])
    qaum = bundle.qaum

    def using(i: int) -> np.ndarray:  # the queries whose slices of qaum.indices hold i, ascending
        return np.searchsorted(qaum.indptr, np.flatnonzero(qaum.indices == i), side="right") - 1

    co_ids = tuple(qaum.query_ids[q] for q in np.intersect1d(using(h), using(k), assume_unique=True).tolist())
    return PairExplanation(
        a=bundle.attributes[h],
        b=bundle.attributes[k],
        co_occurring_queries=co_ids,
        adm=int(bundle.adm.counts[h, k]),
        total_measure_a=int(bundle.adm.total_measure[h]),
        total_measure_b=int(bundle.adm.total_measure[k]),
        pdm_ab=bundle.pdm.cell(h, k),
        pdm_ba=bundle.pdm.cell(k, h),
        sd_a=float(bundle.mvsd.sd[h]) if bundle.mvsd.defined[h] else None,
        sd_b=float(bundle.mvsd.sd[k]) if bundle.mvsd.defined[k] else None,
        nsm=bundle.nsm.cell(h, k),
        nnsm_ab=bundle.nnsm.cell(h, k),
        nnsm_ba=bundle.nnsm.cell(k, h),
    )


def _shared_pairs(ranking: AffinityRanking, shared: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Codes lo·len(shared) + hi and scores of the ranking's pairs whose two ends are shared, in rank
    order; shared maps a casefolded name to its shared index."""
    to_shared = np.array([shared.get(name.casefold(), -1) for name in ranking.attributes], dtype=np.int64)
    h, k = to_shared[ranking.entries].T
    keep = (h >= 0) & (k >= 0)
    h, k = h[keep], k[keep]
    return np.minimum(h, k) * len(shared) + np.maximum(h, k), ranking.nnsm[keep]


def diff_rankings(old: AffinityRanking, new: AffinityRanking) -> BundleDiff:
    """Compare two nnsm-min rankings over their shared attributes (see BundleDiff).

    A ranking holds all of a bundle that a diff reads, so a caller can rank
    the old bundle and free it before the new one is built.
    """
    for ranking in (old, new):
        if ranking.key != "nnsm-min":
            raise AttrScaleError(f"diff compares nnsm-min rankings, got a {ranking.key!r} ranking")
    old_names = {name.casefold() for name in old.attributes}
    names = sorted(name for name in new.attributes if name.casefold() in old_names)
    shared = {name.casefold(): i for i, name in enumerate(names)}
    old_code, old_score = _shared_pairs(old, shared)
    new_code, new_score = _shared_pairs(new, shared)
    code, o, w = np.intersect1d(old_code, new_code, assume_unique=True, return_indices=True)
    order = np.lexsort((code, -np.abs(new_score[w] - old_score[o])))
    o, w = o[order], w[order]
    appeared = np.flatnonzero(~np.isin(new_code, old_code))
    appeared = appeared[np.argsort(new_code[appeared])]
    disappeared = np.flatnonzero(~np.isin(old_code, new_code))
    disappeared = disappeared[np.argsort(old_code[disappeared])]
    return BundleDiff(
        attributes=tuple(names),
        common=np.column_stack(np.divmod(code[order], len(names))),
        old_scores=old_score[o],
        new_scores=new_score[w],
        old_ranks=o + 1,  # a shared pair's rank is its 1-based position among the shared pairs
        new_ranks=w + 1,
        appeared=np.column_stack(np.divmod(new_code[appeared], len(names))),
        appeared_scores=new_score[appeared],
        disappeared=np.column_stack(np.divmod(old_code[disappeared], len(names))),
        disappeared_scores=old_score[disappeared],
    )
