"""Release gate: eleven end-to-end checks with pinned tolerances.

Each test prints one verdict line (run pytest with -s to see them all).
Comparisons against two-decimal reference values carry a 1e-9 slack on top
of the stated tolerance because bounds like 0.005 are not exactly
representable in binary floats: |0.125 - 0.13| evaluates a hair above.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from attrscale import (
    AttributeCatalog,
    DependencyMatrix,
    QueryRecord,
    UsageSet,
    build_adm,
    build_pdm,
    build_usage_set,
    compute_mvsd,
    compute_nnsm,
    compute_nsm,
    load_catalog,
    load_snapshot,
    load_workload,
    run_pipeline,
    write_outputs,
)
from attrscale.cli import main as cli_main
from attrscale.matrices import format_value

import oracles
from reference_tables import (
    ADM_ERRATA,
    ATTRIBUTES,
    PRINTED_ADM,
    PRINTED_MEAN,
    PRINTED_NNSM,
    PRINTED_NSM,
    PRINTED_PDM,
    PRINTED_TM,
    PRINTED_VARIANCE,
    TRUE_TM,
    USAGE_ROWS,
    ZERO_COUNT_QUIRK,
    build_printed_adm,
    cell_index,
    sd_fixture_stats,
)

SLACK = 1e-9


@contextmanager
def check(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def usage_row_index_sets():
    return [{ATTRIBUTES.index(a) for a in attrs} for _, attrs in USAGE_ROWS]


def test_01_usage_matrix_exact_and_fast(data_dir):
    with check(1, "usage matrix"):
        t0 = time.perf_counter()
        catalog = load_catalog(data_dir / "reference_catalog.txt")
        records = load_workload(data_dir / "reference_workload_attrs.jsonl", "jsonl-attrs")
        qaum = build_usage_set(records, catalog)
        elapsed = time.perf_counter() - t0

        expected = np.zeros((10, 10), dtype=np.uint8)
        for row, (_, attrs) in enumerate(USAGE_ROWS):
            for name in attrs:
                expected[row, ATTRIBUTES.index(name)] = 1
        assert qaum.query_ids == tuple(qid for qid, _ in USAGE_ROWS)
        assert qaum.catalog.attributes == ATTRIBUTES
        assert np.array_equal(oracles.dense(qaum), expected)
        assert elapsed < 1.0

        # the statement-parsing path lands on the same matrix
        sql_records = load_workload(data_dir / "reference_workload_sql.jsonl", "jsonl-sql")
        sql_qaum = build_usage_set(sql_records, catalog)
        assert np.array_equal(oracles.dense(sql_qaum), expected)


def test_02_cooccurrence_counts_and_errata(reference_bundle):
    with check(2, "co-occurrence counts"):
        counts, tm = oracles.oracle_adm(usage_row_index_sets(), len(ATTRIBUTES))
        adm = reference_bundle.adm
        assert np.array_equal(adm.counts, np.array(counts, dtype=np.int64))
        assert np.array_equal(adm.counts, adm.counts.T)
        assert np.array_equal(adm.total_measure, np.array(tm, dtype=np.int64))
        assert tuple(int(v) for v in adm.total_measure) == TRUE_TM

        # the tabulated counts differ from a recount in exactly these cells
        diffs = {}
        for h, row_name in enumerate(ATTRIBUTES):
            for k, col_name in enumerate(ATTRIBUTES):
                if h != k and PRINTED_ADM[h][k] != counts[h][k]:
                    diffs[(row_name, col_name)] = (PRINTED_ADM[h][k], counts[h][k])
        assert diffs == ADM_ERRATA


def test_03_probability_matrix_within_half_cent():
    with check(3, "probability matrix"):
        pdm = build_pdm(build_printed_adm())
        for h in range(10):
            for k in range(10):
                if (ATTRIBUTES[h], ATTRIBUTES[k]) in ZERO_COUNT_QUIRK:
                    assert not pdm.defined[h, k]
                    continue
                printed = PRINTED_PDM[h][k]
                if printed is None:
                    assert not pdm.defined[h, k]
                else:
                    assert pdm.defined[h, k]
                    assert abs(pdm.values[h, k] - printed) <= 0.005 + SLACK
        sums = np.where(pdm.defined, pdm.values, 0.0).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)


def test_04_distribution_means():
    with check(4, "distribution means"):
        adm = build_printed_adm()
        stats = compute_mvsd(adm)
        assert stats.defined.all()
        for h, printed in enumerate(PRINTED_MEAN):
            assert abs(stats.mean[h] - printed) <= 0.01 + SLACK
        assert abs(stats.mean[cell_index("a1")] - 2.92) <= 0.01 + SLACK
        assert abs(stats.mean[cell_index("a9")] - 3.29) <= 0.01 + SLACK


def test_05_variance_and_sd_match_exact_arithmetic(reference_bundle):
    with check(5, "variance and standard deviation"):
        # replay of the tabulated counts against exact rational arithmetic
        adm = build_printed_adm()
        stats = compute_mvsd(adm)
        counts = [[0 if v is None else v for v in row] for row in PRINTED_ADM]
        means, variances, sds = oracles.oracle_mvsd(counts, oracles.oracle_pdm(counts, list(PRINTED_TM)))
        for h in range(10):
            assert abs(stats.mean[h] - float(means[h])) <= 1e-9
            assert abs(stats.variance[h] - float(variances[h])) <= 1e-9
            assert abs(stats.sd[h] - sds[h]) <= 1e-9
        a1 = cell_index("a1")
        assert variances[a1] == Fraction(71, 144)
        assert format_value(stats.variance[a1], 4) == "0.4931"
        # the tabulated variance row does not follow from the tabulated
        # counts and probabilities (transcription fault in the source
        # tables); fail loudly if that ever starts matching
        assert abs(stats.variance[a1] - PRINTED_VARIANCE[a1]) > 0.1

        # live path over the recounted matrix, same oracle
        lcounts, ltm = oracles.oracle_adm(usage_row_index_sets(), 10)
        _, lvars, lsds = oracles.oracle_mvsd(lcounts, oracles.oracle_pdm(lcounts, ltm))
        for h in range(10):
            assert abs(reference_bundle.mvsd.variance[h] - float(lvars[h])) <= 1e-9
            assert abs(reference_bundle.mvsd.sd[h] - lsds[h]) <= 1e-9


def test_06_scale_matrix_from_sd_row():
    with check(6, "scale matrix"):
        nsm = compute_nsm(build_printed_adm(), sd_fixture_stats())
        for h in range(10):
            for k in range(10):
                if (ATTRIBUTES[h], ATTRIBUTES[k]) in ZERO_COUNT_QUIRK:
                    assert not nsm.defined[h, k]
                    continue
                printed = PRINTED_NSM[h][k]
                if printed is None:
                    assert not nsm.defined[h, k]
                else:
                    assert nsm.defined[h, k]
                    assert abs(nsm.values[h, k] - printed) <= 0.01 + SLACK
        for (a, b), expected in ((("a1", "a2"), 0.30), (("a2", "a4"), 0.90), (("a9", "a10"), 0.02)):
            assert abs(nsm.cell(cell_index(a), cell_index(b)) - expected) <= 0.01 + SLACK


def test_07_normalized_scale():
    with check(7, "normalized scale"):
        nsm = compute_nsm(build_printed_adm(), sd_fixture_stats())
        nnsm = compute_nnsm(nsm)
        for h in range(10):
            row = nnsm.defined[h]
            assert row.any()
            assert abs(nnsm.values[h][row].max() - 10.0) <= 1e-9
            for k in range(10):
                printed = PRINTED_NNSM[h][k]
                if printed is None:
                    assert not nnsm.defined[h, k]
                else:
                    assert nnsm.defined[h, k]
                    assert abs(nnsm.values[h, k] - printed) <= 0.02 + SLACK
        anchors = ((("a1", "a8"), 10.0), (("a1", "a2"), 2.31), (("a3", "a1"), 6.48), (("a2", "a1"), 3.33))
        for (a, b), expected in anchors:
            assert abs(nnsm.cell(cell_index(a), cell_index(b)) - expected) <= 0.02 + SLACK
        # two-decimal rendering of the flagship cell
        assert format_value(nnsm.values[cell_index("a1"), cell_index("a2")], 2) == "2.31"


def stage_chain(qaum):
    adm = build_adm(qaum)
    pdm = build_pdm(adm)
    stats = compute_mvsd(adm)
    nsm = compute_nsm(adm, stats)
    return adm, pdm, stats, nsm, compute_nnsm(nsm)


def test_08_randomized_property_sweep():
    with check(8, "randomized property sweep"):
        rng = random.Random(20260815)
        decrease_checks = 0
        for _ in range(1000):
            m = rng.randint(1, 50)
            n = rng.randint(2, 20)
            cells = np.array(
                [[1 if rng.random() < 0.35 else 0 for _ in range(n)] for _ in range(m)], dtype=np.uint8
            )
            names = tuple(f"c{i}" for i in range(n))
            qaum = oracles.usage_from_cells(cells, names)  # the rows that use no attribute add no count
            adm, pdm, stats, nsm, nnsm = stage_chain(qaum)

            counts, tm = oracles.oracle_adm([set(np.flatnonzero(r)) for r in cells], n)
            assert np.array_equal(adm.counts, np.array(counts, dtype=np.int64))
            assert np.array_equal(adm.counts, adm.counts.T)
            assert np.array_equal(adm.total_measure, np.array(tm, dtype=np.int64))

            opdm = oracles.oracle_pdm(counts, tm)
            for h in range(n):
                for k in range(n):
                    if opdm[h][k] is None:
                        assert not pdm.defined[h, k]
                    else:
                        assert pdm.defined[h, k]
                        assert pdm.values[h, k] == float(opdm[h][k])
            defined_rows = pdm.defined.any(axis=1)
            sums = np.where(pdm.defined, pdm.values, 0.0).sum(axis=1)
            assert np.all(np.abs(sums[defined_rows] - 1.0) <= 1e-9)

            # variance identity Var = E[x^2] - mean^2
            x = adm.counts.astype(np.float64)
            p = np.where(pdm.defined, pdm.values, 0.0)
            ex2 = (p * x * x).sum(axis=1)
            assert np.all(np.abs((stats.variance - (ex2 - stats.mean**2))[defined_rows]) <= 1e-9)

            # undefined cells stay undefined through every later stage
            assert np.array_equal(nsm.defined, pdm.defined)
            assert np.array_equal(nnsm.defined, nsm.defined)

            if nnsm.defined.any():
                vals = nnsm.values[nnsm.defined]
                assert vals.min() >= 0.0 and vals.max() <= 10.0
            for h in range(n):
                if nnsm.defined[h].any():
                    peak = nnsm.values[h][nnsm.defined[h]].max()
                    assert peak == 0.0 or abs(peak - 10.0) <= 1e-9

            # one more shared query for a pair weakens that pair's scale
            # value when the row statistics are held fixed
            pairs = np.argwhere(np.triu(nsm.defined, k=1))
            if len(pairs):
                h, k = pairs[rng.randrange(len(pairs))]
                if abs(stats.sd[h] - stats.sd[k]) > 1e-12:
                    bumped = adm.counts.copy()
                    bumped[h, k] += 1
                    bumped[k, h] += 1
                    adm2 = DependencyMatrix(attributes=names, counts=bumped)
                    nsm2 = compute_nsm(adm2, stats)
                    assert nsm2.values[h, k] < nsm.values[h, k]
                    assert nsm2.values[k, h] < nsm.values[k, h]
                    decrease_checks += 1

            # identical input, bit-identical output
            _, _, _, _, nnsm_again = stage_chain(qaum)
            assert nnsm_again.values.tobytes() == nnsm.values.tobytes()
            assert nnsm_again.defined.tobytes() == nnsm.defined.tobytes()
        assert decrease_checks > 100


def test_09_degenerate_workloads():
    with check(9, "degenerate workloads"):
        catalog = AttributeCatalog(("a", "b", "c"))

        # an attribute that never co-occurs: rows undefined, warned once
        records = [
            QueryRecord(id="q1", attrs=("a", "b")),
            QueryRecord(id="q2", attrs=("c",)),
            QueryRecord(id="q3", attrs=("a", "b")),
        ]
        bundle = run_pipeline(build_usage_set(records, catalog))
        c = bundle.attributes.index("c")
        assert bundle.adm.total_measure[c] == 0
        assert not bundle.pdm.defined[c].any()
        assert not bundle.pdm.defined[:, c].any()
        assert not bundle.mvsd.defined[c]
        isolated = [w for w in bundle.warnings if w["code"] == "isolated_attribute"]
        assert [w["attribute"] for w in isolated] == ["c"]

        # every gap zero: rows normalize to zeros and say so
        pair = AttributeCatalog(("a", "b"))
        records = [QueryRecord(id=f"q{i}", attrs=("a", "b")) for i in range(3)]
        bundle = run_pipeline(build_usage_set(records, pair))
        assert np.all(bundle.nsm.values[bundle.nsm.defined] == 0.0)
        assert np.all(bundle.nnsm.values[bundle.nnsm.defined] == 0.0)
        ties = [w["attribute"] for w in bundle.warnings if w["code"] == "degenerate_tie"]
        assert ties == ["a", "b"]

        # a single query end to end
        bundle = run_pipeline(build_usage_set([QueryRecord(id="q1", attrs=("a", "b", "c"))], catalog))
        assert tuple(int(v) for v in bundle.adm.total_measure) == (2, 2, 2)
        assert np.all(bundle.nnsm.values[bundle.nnsm.defined] == 0.0)
        assert len([w for w in bundle.warnings if w["code"] == "degenerate_tie"]) == 3


def synthetic_usage(n: int, m: int, seed: int) -> UsageSet:
    rng = np.random.default_rng(seed)
    cells = (rng.random((m, n)) < 0.01).astype(np.uint8)
    empty = np.flatnonzero(cells.sum(axis=1) == 0)
    cells[empty, rng.integers(0, n, size=len(empty))] = 1
    return oracles.usage_from_cells(cells, tuple(f"c{i}" for i in range(n)))


def test_10_throughput_scaling():
    with check(10, "throughput scaling"):
        def timed(qaum):
            t0 = time.perf_counter()
            stage_chain(qaum)
            return time.perf_counter() - t0

        base = synthetic_usage(1000, 10000, seed=7)
        doubled = synthetic_usage(2000, 10000, seed=7)
        t_base = min(timed(base) for _ in range(3))
        t_doubled = min(timed(doubled) for _ in range(3))
        assert t_base < 60.0
        ratio = t_doubled / t_base
        assert 3.0 <= ratio <= 6.0, f"t_base={t_base:.3f}s t_doubled={t_doubled:.3f}s ratio={ratio:.2f}"


def test_11_command_line_contract(capsys, data_dir, tmp_path):
    with check(11, "command-line contract"):
        out = tmp_path / "out"
        argv = [
            "analyze",
            "--input", str(data_dir / "reference_workload_attrs.jsonl"),
            "--input-format", "jsonl-attrs",
            "--catalog", str(data_dir / "reference_catalog.txt"),
            "--out", str(out),
        ]
        assert cli_main(argv) == 0
        assert cli_main(argv[:2] + [str(tmp_path / "missing.jsonl")] + argv[3:]) == 1
        assert cli_main(argv + ["--threshold", "1.0"]) == 2

        # export -> reload -> export reproduces every byte
        snap = load_snapshot(out / "snapshot.json")
        out2 = tmp_path / "out2"
        write_outputs(snap, out2)
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

        capsys.readouterr()
        assert cli_main(["explain", "--snapshot", str(out / "snapshot.json"), "--pair", "a1,a2"]) == 0
        stdout = capsys.readouterr().out
        assert "q1, q7, q8" in stdout
