"""Matrix value objects: validation, undefined-cell handling, exchange formats."""

from __future__ import annotations

import numpy as np
import pytest

from attrscale import AttrScaleError, DependencyMatrix, MaskedRealMatrix, StatsTable, UsageMatrix
from attrscale.matrices import format_value


@pytest.mark.parametrize(
    "value, precision, rendered",
    [
        (0.125, 2, "0.13"),  # half-up, the reference tables' convention
        (5.625, 2, "5.63"),
        (0.1, 2, "0.10"),
        (10.0, 2, "10.00"),
        (2.31, 2, "2.31"),
        (0.818, 0, "1"),
        (-4.994347, 2, "-4.99"),
        (0.4930555, 4, "0.4931"),
    ],
)
def test_format_value_half_up(value, precision, rendered):
    assert format_value(value, precision) == rendered


def test_format_value_full_precision_round_trips():
    for value in (0.1153846153846153846, 2 / 3, 10.0):
        text = format_value(value, None)
        assert float(text) == float(value)


def small_usage():
    return UsageMatrix(
        query_ids=("q1", "q2"),
        attributes=("a", "b", "c"),
        cells=np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8),
    )


def test_usage_matrix_validation():
    with pytest.raises(AttrScaleError, match="shape"):
        UsageMatrix(("q1",), ("a",), np.zeros((2, 1), dtype=np.uint8))
    with pytest.raises(AttrScaleError, match="0 or 1"):
        UsageMatrix(("q1",), ("a",), np.array([[2]], dtype=np.uint8))
    with pytest.raises(AttrScaleError, match="change its values"):  # would wrap to 255
        UsageMatrix(("q1",), ("a",), [[-1]])
    with pytest.raises(AttrScaleError, match="change its values"):  # would truncate to 0
        UsageMatrix(("q1",), ("a",), np.array([[0.5]]))


def test_usage_matrix_csv_and_json():
    qaum = small_usage()
    assert qaum.to_csv() == "query,a,b,c\nq1,1,1,0\nq2,0,1,1\n"
    assert qaum.to_json_obj()["cells"] == [[1, 1, 0], [0, 1, 1]]


def test_usage_matrix_is_immutable():
    qaum = small_usage()
    with pytest.raises(ValueError):
        qaum.cells[0, 0] = 0


def small_dependency():
    counts = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]], dtype=np.int64)
    return DependencyMatrix(("a", "b", "c"), counts, counts.sum(axis=1))


def test_dependency_matrix_validation():
    good = np.array([[0, 1], [1, 0]], dtype=np.int64)
    with pytest.raises(AttrScaleError, match="diagonal"):
        DependencyMatrix(("a", "b"), np.array([[1, 1], [1, 0]]), np.array([2, 1]))
    with pytest.raises(AttrScaleError, match="row sums"):
        DependencyMatrix(("a", "b"), good, np.array([1, 2]))
    with pytest.raises(AttrScaleError, match="non-negative"):
        DependencyMatrix(("a", "b"), np.array([[0, -1], [1, 0]]), np.array([-1, 1]))
    with pytest.raises(AttrScaleError, match="change its values"):  # truncated counts would match [2, 2]
        DependencyMatrix(("a", "b"), np.array([[0, 2.5], [2.5, 0]]), np.array([2, 2]))
    with pytest.raises(AttrScaleError, match="change its values"):  # NaN has no int64 value; numpy warns on the cast
        DependencyMatrix(("a", "b"), np.array([[0, np.nan], [1, 0]]), np.array([1, 1]))


def test_dependency_matrix_accepts_asymmetric_replay():
    # replayed external tables may carry misprints; only row totals must agree
    counts = np.array([[0, 2], [3, 0]], dtype=np.int64)
    adm = DependencyMatrix(("a", "b"), counts, np.array([2, 3]))
    assert adm.counts[0, 1] == 2 and adm.counts[1, 0] == 3


def test_dependency_matrix_csv_and_json():
    adm = small_dependency()
    assert adm.to_csv() == (
        "attribute,a,b,c,total_measure\na,#,2,1,3\nb,2,#,0,2\nc,1,0,#,1\n"
    )
    obj = adm.to_json_obj()
    assert obj["counts"][0][0] is None and obj["counts"][0][1] == 2


def masked(values, defined, kind="PDM"):
    return MaskedRealMatrix(kind, ("a", "b"), np.array(values, dtype=np.float64), np.array(defined, dtype=bool))


def test_masked_matrix_validation():
    with pytest.raises(AttrScaleError, match="kind"):
        masked([[0, 1], [1, 0]], [[False, True], [True, False]], kind="ABC")
    with pytest.raises(AttrScaleError, match="diagonal"):
        masked([[0, 1], [1, 0]], [[True, True], [True, False]])
    with pytest.raises(AttrScaleError, match="finite"):
        masked([[0, np.inf], [1, 0]], [[False, True], [True, False]])
    with pytest.raises(AttrScaleError, match="cannot store"):
        MaskedRealMatrix("PDM", ("a", "b"), np.zeros((2, 2)), [[False, True], [True]])
    with pytest.raises(AttrScaleError, match="change its values"):  # numpy warns when it drops the imaginary part
        MaskedRealMatrix("PDM", ("a", "b"), np.zeros((2, 2)) + 1j, [[False, True], [True, False]])


def test_masked_matrix_canonicalizes_undefined():
    m = masked([[7.0, 0.25], [0.5, 7.0]], [[False, True], [True, False]])
    assert np.isnan(m.values[0, 0]) and np.isnan(m.values[1, 1])
    assert m.cell(0, 1) == 0.25 and m.cell(0, 0) is None


def test_masked_matrix_csv_precision_and_hash_mark():
    m = masked([[0, 0.125], [2.0 / 3.0, 0]], [[False, True], [True, False]])
    assert m.to_csv(precision=2) == "attribute,a,b\na,#,0.13\nb,0.67,#\n"
    # a label holding the delimiter is quoted in the header and in its row
    comma = MaskedRealMatrix("PDM", ("a,1", "b"), m.values, m.defined)
    assert comma.to_csv(precision=2) == 'attribute,"a,1",b\n"a,1",#,0.13\nb,0.67,#\n'


def test_masked_matrix_json_round_trip():
    m = masked([[0, 1.0 / 3.0], [0.5, 0]], [[False, True], [True, False]])
    obj = m.to_json_obj()
    assert obj["values"][0][0] is None
    assert obj["values"][0][1] == 1.0 / 3.0  # full precision, no display rounding


def stats(defined=(True, True)):
    return StatsTable(
        attributes=("a", "b"),
        mean=np.array([1.5, 2.0]),
        variance=np.array([0.25, 0.0]),
        sd=np.array([0.5, 0.0]),
        defined=np.array(defined, dtype=bool),
    )


def test_stats_table_validation():
    with pytest.raises(AttrScaleError, match="non-negative"):
        StatsTable(("a",), np.array([1.0]), np.array([-0.1]), np.array([0.1]), np.array([True]))
    with pytest.raises(AttrScaleError, match="shape"):
        StatsTable(("a", "b"), np.array([1.0]), np.array([1.0]), np.array([1.0]), np.array([True]))
    with pytest.raises(AttrScaleError, match="shape"):  # the mask is checked before it is used
        StatsTable(("a", "b"), np.ones(2), np.ones(2), np.ones(2), np.array([True]))


def test_stats_table_undefined_column_is_nan_and_hash():
    table = stats(defined=(True, False))
    assert np.isnan(table.mean[1]) and np.isnan(table.sd[1])
    assert table.to_csv(precision=2) == "statistic,a,b\nmean,1.50,#\nvariance,0.25,#\nsd,0.50,#\n"


def test_stats_table_json_round_trip():
    table = stats(defined=(True, False))
    obj = table.to_json_obj()
    assert obj["mean"] == [1.5, None]
