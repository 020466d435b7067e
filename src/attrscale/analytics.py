"""Actionable outputs over a finished bundle: rankings, partners, groups, explanations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AttrScaleError, DiagonalPairError, UnknownAttributeError
from .pipeline import ScaleBundle

RANK_KEYS = ("nnsm-min", "nnsm-row")


@dataclass(frozen=True)
class RankedPair:
    a: str
    b: str
    nnsm: float
    nsm: float
    adm: int


@dataclass(frozen=True)
class AffinityRanking:
    """Pairs sorted ascending by scale value (strongest dependence first)."""

    key: str
    entries: tuple[RankedPair, ...]
    warnings: tuple[dict, ...] = ()


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


def _index(bundle: ScaleBundle, name: str) -> int:
    # case-insensitive, the catalog convention; the catalog rejects casefold duplicates
    idx = {attr.casefold(): i for i, attr in enumerate(bundle.attributes)}.get(name.casefold())
    if idx is None:
        raise UnknownAttributeError(name)
    return idx


def _pair_order(bundle: ScaleBundle, key: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices, column indices and scores of the ranked cells in rank_pairs order; no other code sorts pairs."""
    if key not in RANK_KEYS:
        raise AttrScaleError(f"unknown ranking key {key!r}")
    nnsm = bundle.nnsm
    if key == "nnsm-row":
        h, k = np.nonzero(nnsm.defined)  # the diagonal is never defined
        a, b, score = h, k, nnsm.values[h, k]
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
    return a[order], b[order], score[order]


def rank_pairs(bundle: ScaleBundle, key: str = "nnsm-min") -> AffinityRanking:
    """Rank defined cells ascending: the strongest dependencies come first.

    nnsm-min scores each unordered pair once by the smaller of its two
    directed values, or by its one defined value, and names it in that
    direction; nnsm-row lists directed cells as-is. Ties break
    lexicographically by attribute-name pair, so output is total and stable.
    """
    a, b, score = _pair_order(bundle, key)
    names = bundle.attributes
    nsm, adm = bundle.nsm.values[a, b], bundle.adm.counts[a, b]
    entries = tuple(
        RankedPair(names[x], names[y], s, t, c)
        for x, y, s, t, c in zip(a.tolist(), b.tolist(), score.tolist(), nsm.tolist(), adm.tolist())
    )
    warnings: tuple[dict, ...] = ()
    if not entries:
        warnings = ({"code": "empty_ranking", "message": "every scale cell is undefined; nothing to rank"},)
    return AffinityRanking(key=key, entries=entries, warnings=warnings)


def strongest_partner(bundle: ScaleBundle, attribute: str) -> tuple[str, float]:
    """The defined partner with the smallest NNSM in the attribute's row."""
    h = _index(bundle, attribute)
    names = bundle.attributes
    partners = np.flatnonzero(bundle.nnsm.defined[h])
    if not partners.size:
        raise AttrScaleError(f"attribute {attribute!r} is isolated; its scale row is undefined")
    row = bundle.nnsm.values[h, partners]
    k = min(partners[row == row.min()].tolist(), key=names.__getitem__)  # equal values: smallest name
    return names[k], float(bundle.nnsm.values[h, k])


def _cohesion(bundle: ScaleBundle, members: list[int]) -> float | None:
    """Mean of defined internal NNSM cells, both directions; None if none defined."""
    total, cells = 0.0, 0
    for h in members:
        for k in members:
            if h != k and bundle.nnsm.defined[h, k]:
                total += float(bundle.nnsm.values[h, k])
                cells += 1
    return (total / cells) if cells else None


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
    if max_size < 2:
        raise AttrScaleError(f"max_size must be at least 2, got {max_size}")
    names = bundle.attributes
    seeds, partners, _ = _pair_order(bundle, "nnsm-min")
    linked = bundle.nnsm.defined | bundle.nnsm.defined.T
    available = np.ones(len(names), dtype=bool)
    groups: list[AttributeGroup] = []
    for a, b in zip(seeds.tolist(), partners.tolist()):
        if not (available[a] and available[b]):
            continue
        members = sorted((a, b))
        cohesion = _cohesion(bundle, members)
        if cohesion is None or cohesion > cutoff:
            continue
        available[members] = False
        while len(members) < max_size:
            best: tuple[float, str, int] | None = None
            for c in np.flatnonzero(available & linked[members].any(axis=0)).tolist():
                grown = _cohesion(bundle, members + [c])
                if grown is None or grown > cutoff:
                    continue
                cand = (grown, names[c], c)
                if best is None or cand < best:
                    best = cand
            if best is None:
                break
            members.append(best[2])
            members.sort()
            available[best[2]] = False
            cohesion = best[0]
        groups.append(AttributeGroup(attributes=tuple(names[i] for i in members), cohesion=cohesion))
    return groups


def explain_pair(bundle: ScaleBundle, a: str, b: str) -> PairExplanation:
    """Trace one pair through every stage; numeric fields are copied from the bundle."""
    h, k = _index(bundle, a), _index(bundle, b)
    if h == k:
        raise DiagonalPairError(bundle.attributes[h])
    qaum = bundle.qaum
    co_ids = tuple(qaum.query_ids[q] for q in np.flatnonzero(qaum.cells[:, h] & qaum.cells[:, k]).tolist())
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
