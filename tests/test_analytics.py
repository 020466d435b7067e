"""Rankings, groups, and pair explanations."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from attrscale import (
    AttributeCatalog,
    AttrScaleError,
    DependencyMatrix,
    DiagonalPairError,
    QueryRecord,
    ScaleBundle,
    UnknownAttributeError,
    build_adm,
    build_pdm,
    build_usage_set,
    compute_mvsd,
    compute_nnsm,
    compute_nsm,
    diff_rankings,
    explain_pair,
    rank_pairs,
    run_pipeline,
    suggest_groups,
)
from attrscale.analytics import AttributeGroup

import oracles


def bundle_of(*attr_sets, names):
    catalog = AttributeCatalog(tuple(names))
    records = [QueryRecord(id=f"q{i}", attrs=tuple(attrs)) for i, attrs in enumerate(attr_sets, start=1)]
    return run_pipeline(build_usage_set(records, catalog))


def random_bundles(count: int, seed: int):
    """Acceptance-8-style bundles: small, dense, tie-heavy; names c0..c19 sort unlike indices."""
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randint(1, 50), rng.randint(2, 20)
        cells = np.array([[rng.random() < 0.35 for _ in range(n)] for _ in range(m)], dtype=np.uint8)
        names = tuple(f"c{i}" for i in range(n))
        qaum = oracles.usage_from_cells(cells, names)
        adm = build_adm(qaum)
        pdm = build_pdm(adm)
        mvsd = compute_mvsd(adm, pdm)
        nsm = compute_nsm(adm, mvsd)
        yield ScaleBundle(qaum=qaum, adm=adm, pdm=pdm, mvsd=mvsd, nsm=nsm, nnsm=compute_nnsm(nsm))


def replayed_bundles(count: int, seed: int):
    """Bundles over random asymmetric counts, as a replayed published ADM gives: one-sided scale cells."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 13))
        counts = rng.integers(1, 4, size=(n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(counts, 0)
        names = tuple(f"c{i}" for i in range(n))
        adm = DependencyMatrix(names, counts, counts.sum(axis=1))
        pdm = build_pdm(adm)
        mvsd = compute_mvsd(adm, pdm)
        nsm = compute_nsm(adm, mvsd)
        qaum = oracles.usage_from_cells(np.zeros((0, n)), names)
        yield ScaleBundle(qaum=qaum, adm=adm, pdm=pdm, mvsd=mvsd, nsm=nsm, nnsm=compute_nnsm(nsm))


@pytest.fixture(scope="module")
def grouping_bundle():
    # {p,q} x4, {p,r} x4, {q,r} x4, {p,s}: q,r are a perfect tie (both SD 0)
    sets = [("p", "q")] * 4 + [("p", "r")] * 4 + [("q", "r")] * 4 + [("p", "s")]
    return bundle_of(*sets, names=("p", "q", "r", "s"))


def named(ranking):
    """(score, a, b) per ranked pair, the names read through attributes[entries]."""
    pairs = np.array(ranking.attributes, dtype=object)[ranking.entries].tolist()
    return [(score, a, b) for score, (a, b) in zip(ranking.nnsm.tolist(), pairs)]


def test_rank_min_matches_full_scan(reference_bundle):
    names = reference_bundle.attributes
    nnsm = [[reference_bundle.nnsm.cell(h, k) for k in range(len(names))] for h in range(len(names))]
    expected = oracles.oracle_rank_min(nnsm, names)
    ranking = rank_pairs(reference_bundle, "nnsm-min")
    assert named(ranking) == expected


def test_rankings_and_partners_match_oracles_on_random_bundles():
    for bundle in itertools.chain(random_bundles(300, seed=20260815), replayed_bundles(300, seed=20261018)):
        names = bundle.attributes
        n = len(names)
        nnsm = [[bundle.nnsm.cell(h, k) for k in range(n)] for h in range(n)]
        by_row = oracles.oracle_rank_row(nnsm, names)
        for key, expected in (("nnsm-min", oracles.oracle_rank_min(nnsm, names)), ("nnsm-row", by_row)):
            ranking = rank_pairs(bundle, key)
            assert ranking.key == key and ranking.attributes == names
            assert named(ranking) == expected
            count = len(expected)
            assert ranking.entries.dtype == np.int64 and ranking.entries.shape == (count, 2)
            assert ranking.nnsm.dtype == np.float64 and ranking.nnsm.shape == (count,)


def test_rank_min_scores_each_pair_once(reference_bundle):
    ranking = rank_pairs(reference_bundle, "nnsm-min")
    pairs = [frozenset((a, b)) for _, a, b in named(ranking)]
    assert len(pairs) == len(set(pairs)) == 44  # 45 pairs minus the zero-count one
    assert ranking.nnsm.tolist() == sorted(ranking.nnsm.tolist())


def test_rank_row_lists_directed_cells(reference_bundle):
    ranking = rank_pairs(reference_bundle, "nnsm-row")
    assert len(ranking.entries) == int(reference_bundle.nnsm.defined.sum())
    for i, (h, k) in enumerate(ranking.entries[:5].tolist()):
        assert ranking.nnsm[i] == reference_bundle.nnsm.cell(h, k)


def test_rank_rejects_unknown_key(reference_bundle):
    with pytest.raises(AttrScaleError, match="ranking key"):
        rank_pairs(reference_bundle, "adm-max")


def test_diff_rankings_refuses_a_ranking_by_another_key(reference_bundle):
    by_min, by_row = rank_pairs(reference_bundle), rank_pairs(reference_bundle, "nnsm-row")
    for old, new in ((by_min, by_row), (by_row, by_min)):
        with pytest.raises(AttrScaleError, match="diff compares nnsm-min rankings, got a 'nnsm-row' ranking"):
            diff_rankings(old, new)


def test_empty_ranking_carries_warning():
    bundle = bundle_of(("a",), ("b",), names=("a", "b"))
    ranking = rank_pairs(bundle, "nnsm-min")
    assert len(ranking.entries) == 0
    assert ranking.entries.shape == (0, 2) and len(ranking.nnsm) == 0


def test_explain_pair_reference_values(reference_bundle):
    info = explain_pair(reference_bundle, "a1", "a2")
    assert info.co_occurring_queries == ("q1", "q7", "q8")
    assert info.adm == 3
    assert (info.total_measure_a, info.total_measure_b) == (26, 23)
    assert info.pdm_ab == pytest.approx(3 / 26)
    assert info.pdm_ba == pytest.approx(3 / 23)
    assert info.nsm == reference_bundle.nsm.cell(0, 1)
    assert info.nnsm_ab == reference_bundle.nnsm.cell(0, 1)
    assert info.nnsm_ba == reference_bundle.nnsm.cell(1, 0)


def test_explain_pair_zero_count_pair():
    bundle = bundle_of(("a", "b"), ("b", "c"), names=("a", "b", "c"))
    info = explain_pair(bundle, "a", "c")
    assert info.co_occurring_queries == ()
    assert info.adm == 0
    assert info.nsm is None and info.nnsm_ab is None


def test_explain_pair_queries_equal_a_column_scan_on_a_seeded_bundle():
    rng = np.random.default_rng(12)
    names = tuple(f"c{k}" for k in range(25))
    rows = [(f"q{i}", frozenset(rng.choice(23, size=rng.integers(1, 6), replace=False).tolist())) for i in range(300)]
    bundle = run_pipeline(oracles.usage_set(rows, AttributeCatalog(names)))  # c23 and c24 are never used
    unused = 0
    for h, k in itertools.permutations(range(len(names)), 2):
        expected = tuple(qid for qid, used in rows if h in used and k in used)
        assert explain_pair(bundle, names[h], names[k]).co_occurring_queries == expected, (h, k)
        unused += not expected
    assert unused > 2 * 2 * 23  # zero-count pairs give (), the unused attributes' among them


def test_explain_pair_errors(reference_bundle):
    with pytest.raises(DiagonalPairError):
        explain_pair(reference_bundle, "a1", "A1")
    with pytest.raises(UnknownAttributeError):
        explain_pair(reference_bundle, "a1", "zz")


def test_suggest_groups_zero_cutoff_finds_the_exact_tie(reference_bundle):
    # a1 and a3 share identical co-occurrence count multisets, so their SDs
    # coincide exactly and their mutual scale value is 0
    groups = suggest_groups(reference_bundle, cutoff=0.0, max_size=4)
    assert [(g.attributes, g.cohesion) for g in groups] == [(("a1", "a3"), 0.0)]


def test_suggest_groups_growth_respects_cutoff(grouping_bundle):
    tight = suggest_groups(grouping_bundle, cutoff=3.0, max_size=3)
    assert [(g.attributes, g.cohesion) for g in tight] == [(("q", "r"), 0.0)]
    grown = suggest_groups(grouping_bundle, cutoff=5.0, max_size=3)
    assert [g.attributes for g in grown] == [("p", "q", "r")]
    assert grown[0].cohesion == pytest.approx(25 / 6)


def test_suggest_groups_max_size_bounds_growth(grouping_bundle):
    groups = suggest_groups(grouping_bundle, cutoff=5.0, max_size=2)
    assert [g.attributes for g in groups] == [("q", "r")]


def test_suggest_groups_breaks_a_growth_tie_by_name_before_index():
    # y and x are interchangeable, so either grows {p,q} to the same cohesion; x sorts first by name
    # but comes last by index
    sets = [("p", "q")] * 4 + [("p", "y"), ("q", "y"), ("p", "x"), ("q", "x")]
    bundle = bundle_of(*sets, names=("p", "q", "y", "x"))
    swap = [0, 1, 3, 2]
    assert np.array_equal(bundle.nnsm.values[np.ix_(swap, swap)], bundle.nnsm.values, equal_nan=True)
    groups = suggest_groups(bundle, cutoff=10.0, max_size=3)
    assert [(g.attributes, g.cohesion) for g in groups] == [(("p", "q", "x"), 20 / 3)]


def test_suggest_groups_is_deterministic(grouping_bundle):
    assert suggest_groups(grouping_bundle, 5.0, 3) == suggest_groups(grouping_bundle, 5.0, 3)


def test_suggest_groups_pinned_on_a_seeded_synthetic_bundle():
    rng = np.random.default_rng(7)
    used = rng.random((400, 40)) < 0.05
    names = tuple(f"c{i}" for i in range(40))
    records = [
        QueryRecord(id=f"q{q}", attrs=tuple(names[i] for i in np.flatnonzero(row)) or (names[q % 40],))
        for q, row in enumerate(used)
    ]
    bundle = run_pipeline(build_usage_set(records, AttributeCatalog(names)))
    groups = suggest_groups(bundle, 3.0, 4)
    assert [(g.attributes, g.cohesion) for g in groups] == [
        (("c19", "c20", "c25", "c32"), 0.286891796738202),
        (("c9", "c10", "c16", "c23"), 0.21255412637229895),
        (("c12", "c24", "c26", "c37"), 0.12032467687382495),
        (("c6", "c22", "c27", "c29"), 0.12960494143603488),
        (("c5", "c7", "c28", "c30"), 0.3626833726207173),
        (("c14", "c31", "c34", "c39"), 0.1683830798399414),
        (("c13", "c33", "c35", "c36"), 1.6930054634693514),
        (("c11", "c15", "c18", "c38"), 0.9377933762939729),
        (("c0", "c1", "c3", "c8"), 1.1485377406249235),
        (("c2", "c17"), 1.1307346230160173),
    ]


def test_suggest_groups_validation(reference_bundle):
    with pytest.raises(AttrScaleError, match="cutoff"):
        suggest_groups(reference_bundle, cutoff=11.0, max_size=3)
    with pytest.raises(AttrScaleError, match="max_size"):
        suggest_groups(reference_bundle, cutoff=5.0, max_size=1)
    # a float or a bool is no size: 2.5 would let a group grow to 3
    for max_size in (2.5, 3.0, True):
        with pytest.raises(AttrScaleError, match=f"^max_size must be an integer, got {max_size}$"):
            suggest_groups(reference_bundle, cutoff=10.0, max_size=max_size)


def test_group_needs_two_members():
    with pytest.raises(AttrScaleError, match="at least 2"):
        AttributeGroup(attributes=("solo",), cohesion=0.0)


def test_groups_partition_members(reference_bundle):
    groups = suggest_groups(reference_bundle, cutoff=10.0, max_size=3)
    seen: set[str] = set()
    for group in groups:
        assert len(group.attributes) <= 3
        assert not (seen & set(group.attributes))
        seen.update(group.attributes)
        internal = [
            reference_bundle.nnsm.cell(
                reference_bundle.attributes.index(a), reference_bundle.attributes.index(b)
            )
            for a in group.attributes
            for b in group.attributes
            if a != b
        ]
        cells = [v for v in internal if v is not None]
        assert group.cohesion == pytest.approx(float(np.mean(cells)))
