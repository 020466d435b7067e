"""Stage-by-stage pipeline behavior on small, hand-checkable workloads."""

from __future__ import annotations

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from attrscale import (
    AttrScaleError,
    AttributeCatalog,
    DependencyMatrix,
    QueryRecord,
    StatsTable,
    build_adm,
    build_pdm,
    build_usage_set,
    compute_mvsd,
    compute_nnsm,
    compute_nsm,
    run_pipeline,
)
from attrscale import pipeline

import oracles
from reference_tables import ATTRIBUTES, PRINTED_SD, PRINTED_TM, TRUE_TM, USAGE_ROWS, build_printed_adm, sd_fixture_stats


def usage_of(*attr_sets, names=("a", "b", "c")):
    catalog = AttributeCatalog(tuple(names))
    records = [QueryRecord(id=f"q{i}", attrs=tuple(attrs)) for i, attrs in enumerate(attr_sets, start=1)]
    return build_usage_set(records, catalog)


def test_run_pipeline_keeps_the_usage_set_as_its_qaum(reference_usage):
    # the usage set is the QAUM: the bundle holds it, neither copied nor rebuilt
    qaum = run_pipeline(reference_usage).qaum
    assert qaum is reference_usage
    assert qaum.query_ids == tuple(qid for qid, _ in USAGE_ROWS)
    assert qaum.catalog.attributes == ATTRIBUTES
    expected = np.zeros((10, 10), dtype=np.uint8)
    for row, (_, attrs) in enumerate(USAGE_ROWS):
        for name in attrs:
            expected[row, ATTRIBUTES.index(name)] = 1
    assert np.array_equal(oracles.dense(qaum), expected)


def qaum_by_rows(usage):
    """The QAUM cells filled one query at a time: the reference for the files' scatter of each block's ones."""
    cells = np.zeros((usage.query_count, usage.attribute_count), dtype=np.uint8)
    for row, (_, indices) in enumerate(oracles.usage_rows(usage)):
        cells[row, indices] = 1
    return cells


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_qaum_file_cells_equal_a_per_row_fill(seed):
    rng = np.random.default_rng(seed)
    unsorted = frozenset(range(0, 1000, 7)) | {1024, 2048, 4096}  # a hash table larger than its values
    assert list(unsorted) != sorted(unsorted)
    cases = [
        (1, [("solo", frozenset({0}))]),  # m = 1, n = 1
        (3, [("all", frozenset({2, 0, 1}))]),  # m = 1, every attribute
        (5000, [("wide", unsorted), ("one", frozenset({4999})), ("every", frozenset(range(5000)))]),
    ]
    for _ in range(4):
        n, m = int(rng.integers(1, 60)), int(rng.integers(1, 300))
        rows = [(f"q{i}", frozenset(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())) for i in range(m)]
        cases.append((n, rows))
    for n, rows in cases:
        usage = oracles.usage_set(rows, AttributeCatalog(tuple(f"c{k}" for k in range(n))))
        qaum = json.loads("".join(usage.json_pieces()))
        assert qaum["query_ids"] == [qid for qid, _ in rows]
        assert qaum["cells"] == qaum_by_rows(usage).tolist()


def test_build_adm_equals_recount_and_is_symmetric(reference_bundle):
    qaum = reference_bundle.qaum
    rows = [set(indices) for _, indices in oracles.usage_rows(qaum)]
    counts, tm = oracles.oracle_adm(rows, qaum.attribute_count)
    assert np.array_equal(reference_bundle.adm.counts, np.array(counts))
    assert np.array_equal(reference_bundle.adm.total_measure, np.array(tm))
    assert np.array_equal(reference_bundle.adm.counts, reference_bundle.adm.counts.T)
    assert tuple(int(v) for v in reference_bundle.adm.total_measure) == TRUE_TM


def test_build_adm_counts_across_chunks_equal_the_oracle(monkeypatch):
    # rows of several lengths, 1 and n among them, whose pair codes fill at least three chunks
    rng = np.random.default_rng(31)
    n = 60
    lengths = rng.choice([1, 2, 3, 7, 20, 45, n], size=700)
    rows = [(f"q{i}", frozenset(rng.choice(n, size=size, replace=False).tolist())) for i, size in enumerate(lengths)]
    chunks = []  # each chunk's codes and indices

    def recorded(bounds, indices, n):
        codes = pair_codes(bounds, indices, n)
        chunks.append((codes.size, int(bounds[-1] - bounds[0])))
        return codes

    pair_codes = pipeline._pair_codes
    monkeypatch.setattr(pipeline, "_pair_codes", recorded)
    adm = build_adm(oracles.usage_set(rows, AttributeCatalog(tuple(f"c{k}" for k in range(n)))))
    assert len(chunks) >= 3 and max(map(sum, chunks)) <= max(n * n, 1 << 16)
    assert sum(codes for codes, _ in chunks) == sum(size * (size - 1) // 2 for size in lengths.tolist())
    counts, tm = oracles.oracle_adm([set(used) for _, used in rows], n)
    assert np.array_equal(adm.counts, np.array(counts))
    assert np.array_equal(adm.total_measure, np.array(tm))


def test_run_pipeline_on_a_tall_log_allocates_less_than_a_dense_qaum():
    # m ≫ n: the m·n bytes of a dense uint8 QAUM alone exceed the pipeline's whole allocation peak
    rng = np.random.default_rng(5)
    n, m = 200, 40_000
    picks, sizes = rng.integers(0, n, size=(m, 4)).tolist(), rng.integers(1, 5, size=m).tolist()
    rows = tuple((f"q{i}", frozenset(row[:size])) for i, (row, size) in enumerate(zip(picks, sizes)))
    usage = oracles.usage_set(rows, AttributeCatalog(tuple(f"c{k}" for k in range(n))))
    tracemalloc.start()
    try:
        run_pipeline(usage)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * n, peak


def test_build_pdm_rows_are_distributions(reference_bundle):
    pdm = reference_bundle.pdm
    sums = np.where(pdm.defined, pdm.values, 0.0).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-9)
    assert not pdm.defined.diagonal().any()


def test_build_pdm_cell_values_are_exact_ratios(reference_bundle):
    adm, pdm = reference_bundle.adm, reference_bundle.pdm
    for h in range(10):
        for k in range(10):
            if pdm.defined[h, k]:
                assert pdm.values[h, k] == float(Fraction(int(adm.counts[h, k]), int(adm.total_measure[h])))


def test_isolated_attribute_rows_are_undefined_with_warning():
    # c appears only alone, so it never co-occurs
    usage = usage_of(("a", "b"), ("c",), ("a", "b"))
    bundle = run_pipeline(usage)
    c = usage.catalog.attributes.index("c")
    assert int(bundle.adm.total_measure[c]) == 0
    assert not bundle.pdm.defined[c].any() and not bundle.pdm.defined[:, c].any()
    assert not bundle.nnsm.defined[c].any()
    assert not bundle.mvsd.defined[c]
    codes = [w["code"] for w in bundle.warnings]
    assert codes.count("isolated_attribute") == 1
    assert any(w.get("attribute") == "c" for w in bundle.warnings)


def test_mvsd_matches_hand_computation():
    # queries {a,b} x2 and {a,c}: counts a->(b:2, c:1) with total 3
    usage = usage_of(("a", "b"), ("a", "b"), ("a", "c"), names=("a", "b", "c"))
    bundle = run_pipeline(usage)
    a = 0
    assert bundle.mvsd.mean[a] == pytest.approx(5 / 3, abs=1e-12)
    assert bundle.mvsd.variance[a] == pytest.approx(2 / 9, abs=1e-12)
    assert bundle.mvsd.sd[a] == pytest.approx((2 / 9) ** 0.5, abs=1e-12)


def test_mvsd_matches_exact_oracle(reference_bundle):
    adm = reference_bundle.adm
    counts = [[int(v) for v in row] for row in adm.counts]
    tm = [int(v) for v in adm.total_measure]
    means, variances, _ = oracles.oracle_mvsd(counts, oracles.oracle_pdm(counts, tm))
    for h in range(10):
        assert abs(reference_bundle.mvsd.mean[h] - float(means[h])) < 1e-12
        assert abs(reference_bundle.mvsd.variance[h] - float(variances[h])) < 1e-12


def test_nsm_definition_and_mask(reference_bundle):
    adm, mvsd, nsm = reference_bundle.adm, reference_bundle.mvsd, reference_bundle.nsm
    assert np.array_equal(nsm.defined, reference_bundle.pdm.defined)
    for h in range(10):
        for k in range(10):
            if nsm.defined[h, k]:
                gap = abs(float(mvsd.sd[h]) - float(mvsd.sd[k]))
                assert nsm.values[h, k] == gap / int(adm.counts[h, k])


def test_nnsm_each_defined_row_peaks_at_ten(reference_bundle):
    nnsm = reference_bundle.nnsm
    for h in range(10):
        row = nnsm.values[h][nnsm.defined[h]]
        assert row.size and abs(row.max() - 10.0) < 1e-9
        assert row.min() >= 0.0


def test_nnsm_degenerate_tie_rows_become_zeros():
    # two attributes always used together: both SDs are 0, every gap is 0
    usage = usage_of(("a", "b"), ("a", "b"), ("a", "b"), names=("a", "b"))
    bundle = run_pipeline(usage)
    assert bundle.nsm.cell(0, 1) == 0.0 and bundle.nsm.cell(1, 0) == 0.0
    assert bundle.nnsm.cell(0, 1) == 0.0 and bundle.nnsm.cell(1, 0) == 0.0
    codes = [w["code"] for w in bundle.warnings]
    assert codes.count("degenerate_tie") == 2


def test_nnsm_keeps_fully_undefined_rows_undefined():
    usage = usage_of(("a", "b"), ("c",), ("a", "b"))
    bundle = run_pipeline(usage)
    c = usage.catalog.attributes.index("c")
    assert not bundle.nnsm.defined[c].any()
    assert np.isnan(bundle.nnsm.values[c]).all()


def test_single_query_workload_runs_end_to_end():
    usage = usage_of(("a", "b", "c"), names=("a", "b", "c"))
    bundle = run_pipeline(usage)
    assert (bundle.qaum.query_count, bundle.qaum.attribute_count) == (1, 3)
    assert np.array_equal(bundle.adm.total_measure, np.array([2, 2, 2]))
    # every SD is 0, so the whole scale degenerates to zeros
    assert all(bundle.nnsm.cell(h, k) == 0.0 for h in range(3) for k in range(3) if h != k)
    assert {w["code"] for w in bundle.warnings} == {"degenerate_tie"}


def exact_mvsd(row: list[int]) -> tuple[float, float, float] | None:
    """A row's mean, variance and SD by exact rationals: the floats nearest S2/T and (T·S3 - S2²)/T²,
    and the square root of that variance; None for a row of total measure 0."""
    t, s2, s3 = (sum(x**power for x in row) for power in (1, 2, 3))
    if not t:
        return None
    variance = float(Fraction(t * s3 - s2 * s2, t * t))
    return float(Fraction(s2, t)), variance, math.sqrt(variance)


def test_compute_mvsd_equals_the_exact_moments_bit_for_bit():
    rng = np.random.default_rng(30)
    cases = []
    for _ in range(300):
        n = int(rng.integers(1, 16))
        counts = rng.integers(1, 6, (n, n)) * (rng.random((n, n)) < rng.random())  # asymmetric, as replayed
        counts[rng.random(n) < 0.2] = 0  # isolated rows: total measure 0
        cases.append(counts)
    # a planted row whose counts are near 2**21: its Σx³ passes 2**63, so int64 cannot hold it
    planted = rng.integers(0, 4, (6, 6))
    planted[2] = [2**21 - 1, 2**21, 0, 2**21 + 5, 3, 1]
    assert sum(x**3 for x in planted[2].tolist()) >= 2**63
    cases.append(planted)
    for counts in cases:
        np.fill_diagonal(counts, 0)
        mvsd = compute_mvsd(DependencyMatrix(tuple(f"c{i}" for i in range(len(counts))), counts))
        for h, row in enumerate(counts.tolist()):
            exact = exact_mvsd(row)
            assert bool(mvsd.defined[h]) == (exact is not None)
            got = (float(mvsd.mean[h]), float(mvsd.variance[h]), float(mvsd.sd[h]))
            assert exact is None or list(map(float.hex, got)) == list(map(float.hex, exact))


def dense_scale(counts: np.ndarray, sd: np.ndarray, sd_defined: np.ndarray) -> dict[str, np.ndarray]:
    """PDM, NSM and NNSM values over whole n×n grids, NaN where undefined: the reference for the
    stages' cells, one IEEE operation per cell as the cells take it."""
    x = counts.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        pdm = np.where(counts > 0, x / x.sum(axis=1)[:, None], np.nan)
        defined = (counts > 0) & sd_defined[:, None] & sd_defined[None, :]
        nsm = np.where(defined, np.abs(sd[:, None] - sd[None, :]) / x, np.nan)
        row_max = np.where(defined, nsm, -np.inf).max(axis=1, initial=-np.inf)
        nnsm = np.where(defined, np.where((row_max > 0.0)[:, None], (nsm / row_max[:, None]) * 10.0, 0.0), np.nan)
    return {"pdm": pdm, "nsm": nsm, "nnsm": nnsm}


def test_every_scale_cell_equals_a_dense_recomputation_bit_for_bit():
    rng = np.random.default_rng(31)
    adms = []
    for _ in range(200):  # asymmetric replayed counts with isolated rows: NSM drops the cells of undefined SDs
        n = int(rng.integers(1, 14))
        counts = rng.integers(1, 9, (n, n)) * (rng.random((n, n)) < rng.random())
        counts[rng.random(n) < 0.2] = 0
        np.fill_diagonal(counts, 0)
        adms.append(DependencyMatrix(tuple(f"c{i}" for i in range(n)), counts))
    for seed in (7, 8):
        names, rows = seeded_log(200, 2000, seed)
        adms.append(run_rows(rows, names).adm)
    for adm in adms:
        mvsd = compute_mvsd(adm)
        nsm = compute_nsm(adm, mvsd)
        stages = {"pdm": build_pdm(adm), "nsm": nsm, "nnsm": compute_nnsm(nsm)}
        for name, want in dense_scale(np.asarray(adm.counts), mvsd.sd, mvsd.defined).items():
            assert np.array_equal(stages[name].defined, ~np.isnan(want)), name
            assert stages[name].values.tobytes() == want.tobytes(), name


def test_derived_fields_are_not_inputs_and_stay_read_only(reference_bundle):
    adm, mvsd = reference_bundle.adm, reference_bundle.mvsd
    with pytest.raises(TypeError):
        DependencyMatrix(adm.attributes, adm.counts, total_measure=adm.total_measure)
    with pytest.raises(TypeError):
        StatsTable(mvsd.attributes, mvsd.mean, mvsd.variance, mvsd.defined, sd=mvsd.sd)
    with pytest.raises(TypeError):
        compute_mvsd(adm, reference_bundle.pdm)
    for arr, dtype in ((adm.total_measure, np.int64), (mvsd.sd, np.float64)):
        assert arr.dtype == dtype and not arr.flags.writeable


def test_the_transcribed_reference_tables_agree():
    # the printed total measure is the printed counts' row sums, and the printed SD row survives the
    # fixture's sd**2 variance exactly
    assert build_printed_adm().total_measure.tolist() == list(PRINTED_TM)
    assert sd_fixture_stats().sd.tolist() == list(PRINTED_SD)


def test_compute_nnsm_rejects_wrong_kind(reference_bundle):
    with pytest.raises(AttrScaleError, match="expects an NSM"):
        compute_nnsm(reference_bundle.pdm)


def test_stages_are_deterministic(reference_usage):
    one = run_pipeline(reference_usage)
    two = run_pipeline(reference_usage)
    assert one.nnsm.values.tobytes() == two.nnsm.values.tobytes()
    assert np.array_equal(one.nnsm.defined, two.nnsm.defined)
    assert one.warnings == two.warnings


# Metamorphic relations over the whole stage chain. They follow from the
# scale's definitions, so they need no oracle; each compares stored arrays
# bit for bit on seeded logs shaped like acceptance check 10's (1% dense).
STAGE_ARRAYS = {
    "adm": ("counts", "total_measure"),
    "pdm": ("values", "defined"),
    "mvsd": ("mean", "variance", "sd", "defined"),
    "nsm": ("values", "defined"),
    "nnsm": ("values", "defined"),
}


def seeded_log(n: int, m: int, seed: int) -> tuple[tuple[str, ...], list[tuple[str, frozenset[int]]]]:
    """Catalog c0..c{n-1} and m queries using each attribute with probability 1%, never none."""
    rng = np.random.default_rng(seed)
    cells = rng.random((m, n)) < 0.01
    empty = np.flatnonzero(~cells.any(axis=1))
    cells[empty, rng.integers(0, n, size=len(empty))] = True
    rows = [(f"q{i}", frozenset(np.flatnonzero(row).tolist())) for i, row in enumerate(cells)]
    return tuple(f"c{k}" for k in range(n)), rows


def run_rows(rows, names):
    return run_pipeline(oracles.usage_set(rows, AttributeCatalog(tuple(names))))


def stage_bytes(bundle, stages=tuple(STAGE_ARRAYS), at=None):
    """Every stored array of the stages as bytes; given at, only the rows and columns of those
    attributes, in at's order."""
    out = {}
    for stage in stages:
        for name in STAGE_ARRAYS[stage]:
            arr = getattr(getattr(bundle, stage), name)
            out[f"{stage}.{name}"] = (arr if at is None else arr[np.ix_(*(at,) * arr.ndim)]).tobytes()
    return out


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_replicating_the_log_leaves_the_scale_bit_identical(seed):
    # power-of-two scaling is exact through mean, variance, sqrt and the division
    names, rows = seeded_log(200, 2000, seed)
    base = stage_bytes(run_rows(rows, names), ("nsm", "nnsm"))
    for copies in (2, 4):
        replicated = [(f"{qid}.{c}", used) for c in range(copies) for qid, used in rows]
        assert stage_bytes(run_rows(replicated, names), ("nsm", "nnsm")) == base


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_permuting_the_queries_leaves_every_stage_bit_identical(seed):
    names, rows = seeded_log(200, 2000, seed)
    base = run_rows(rows, names)
    order = np.random.default_rng(seed).permutation(len(rows))
    shuffled = run_rows([rows[i] for i in order], names)
    assert shuffled.qaum.query_ids == tuple(base.qaum.query_ids[i] for i in order)
    assert np.array_equal(oracles.dense(shuffled.qaum), oracles.dense(base.qaum)[order])
    assert stage_bytes(shuffled) == stage_bytes(base)
    assert shuffled.warnings == base.warnings


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_an_unused_attribute_adds_one_undefined_row_and_changes_no_other_cell(seed):
    names, rows = seeded_log(200, 2000, seed)
    n = len(names)
    base = run_rows(rows, names)
    grown = run_rows(rows, names + ("unused",))
    assert stage_bytes(grown, at=np.arange(n)) == stage_bytes(base)
    assert not grown.mvsd.defined[n]
    for matrix in (grown.pdm, grown.nsm, grown.nnsm):
        assert not matrix.defined[n].any() and not matrix.defined[:, n].any()
    assert [w for w in grown.warnings if w["attribute"] != "unused"] == list(base.warnings)
    assert [w["code"] for w in grown.warnings if w["attribute"] == "unused"] == ["isolated_attribute"]

    # inserted mid-catalog instead, the attribute moves the later columns and changes no other cell
    mid = n // 2
    moved = [(qid, frozenset(k + (k >= mid) for k in used)) for qid, used in rows]
    inserted = run_rows(moved, names[:mid] + ("unused",) + names[mid:])
    assert stage_bytes(inserted, at=np.delete(np.arange(n + 1), mid)) == stage_bytes(base)
    assert not inserted.mvsd.defined[mid]


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_permuting_the_catalog_leaves_every_stage_bit_identical_once_unpermuted(seed):
    names, rows = seeded_log(200, 2000, seed)
    base = run_rows(rows, names)
    order = np.random.default_rng(seed).permutation(len(names))  # position i holds attribute order[i]
    at = np.argsort(order)  # attribute k's position
    position = at.tolist()
    permuted = run_rows([(qid, frozenset(position[k] for k in used)) for qid, used in rows], [names[k] for k in order])
    assert stage_bytes(permuted, at=at) == stage_bytes(base)
    assert sorted(map(str, permuted.warnings)) == sorted(map(str, base.warnings))


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_a_single_attribute_query_changes_no_adm_cell(seed):
    names, rows = seeded_log(200, 2000, seed)
    base = run_rows(rows, names)
    solo = int(np.random.default_rng(seed).integers(len(names)))
    assert stage_bytes(run_rows(rows + [("solo", frozenset({solo}))], names), ("adm",)) == stage_bytes(base, ("adm",))
