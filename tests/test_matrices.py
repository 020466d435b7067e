"""Matrix value objects: validation, undefined-cell handling, exchange formats."""

from __future__ import annotations

import csv
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from attrscale import AttrScaleError, DependencyMatrix, MaskedRealMatrix, StatsTable, UsageSet, run_pipeline
from attrscale import matrices
from attrscale.matrices import _float_texts, format_value, json_text
from attrscale.catalog import AttributeCatalog

import oracles


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


def test_format_value_renders_every_double_at_every_precision():
    assert format_value(1e22, 10) == "10000000000000000000000.0000000000"
    assert format_value(-1.7976931348623157e308, 0) == str(int(-1.7976931348623157e308))


def test_format_value_is_fixed_point_at_every_precision():
    assert format_value(0.0, 10) == "0.0000000000"
    assert format_value(-0.0, 7) == "-0.0000000"
    assert format_value(1.234e-7, 10) == "0.0000001234"
    assert format_value(9.9999999e-7, 7) == "0.0000010"  # rounds up across 1e-6
    for precision in range(16):
        for value in (0.0, 1e-300, 4.9e-7, 1.5e-7, -3e-9):
            assert "E" not in format_value(value, precision)


def test_format_value_full_precision_round_trips():
    for value in (0.1153846153846153846, 2 / 3, 10.0):
        text = format_value(value, None)
        assert float(text) == float(value)


def bulk_format_cases() -> np.ndarray:
    """Every k/8 and k/64 in [-10, 10) (ties at 2 and 5 decimals), edge values, and seeded normals."""
    rng = np.random.default_rng(20)
    normals = rng.standard_normal(3000)
    edges = [
        -0.0, 0.0, 5e-324, -5e-324, 1e15 + 0.5, 1e-7, 1e-6, 0.99999995e-6, -1.00000049e-6, 9.5e-7, 1e22,
        (2**52 + 1) / 2**11,  # a tie at 10 decimals whose float product v·2·10^10 rounds to even
    ]
    return np.concatenate([
        np.arange(-80, 80) / 8, np.arange(-640, 640) / 64, edges,
        normals, normals * 1e-6, normals * 1e4, np.round(normals, 3), np.round(normals * 1e-4, 9),
    ])


@pytest.mark.parametrize("precision", [None, *range(11)])
def test_bulk_float_formatting_equals_format_value(precision):
    values = bulk_format_cases()
    assert _float_texts(values, precision) == [format_value(v, precision) for v in values.tolist()]


def seeded_bundle(seed: int):
    """A run over a seeded random log with non-ASCII names, undefined cells and two isolated attributes."""
    rng = np.random.default_rng(seed)
    names = tuple(f"attr_{i}_\u00e9" for i in range(30))
    queries = tuple(
        (f"q{i}", frozenset(rng.choice(28, size=rng.integers(1, 6), replace=False).tolist())) for i in range(200)
    )
    return run_pipeline(oracles.usage_set(queries, AttributeCatalog(names)))


def test_json_text_equals_indent_2_on_every_matrix_kind(reference_bundle):
    for bundle in (reference_bundle, seeded_bundle(9)):
        for name in ("qaum", "adm", "pdm", "mvsd", "nsm", "nnsm"):
            obj = oracles.json_obj(getattr(bundle, name))
            assert json_text(obj) == json.dumps(obj, indent=2, ensure_ascii=True), name
        warnings = list(bundle.warnings)
        assert json_text(warnings) == json.dumps(warnings, indent=2, ensure_ascii=True)


MATRIX_NAMES = ("qaum", "adm", "pdm", "mvsd", "nsm", "nnsm")
ODD_LABELS = ("", "a,b", 'c"d', "new\nline", "cr\r")  # empty, and each kind csv quotes


def csv_file(matrix, precision=None) -> str:
    """The matrix's CSV file as write_outputs writes it: the pieces of csv_pieces, joined."""
    return "".join(matrix.csv_pieces(precision))


def json_file(matrix) -> str:
    """The matrix's JSON file as write_outputs writes it: the pieces of json_pieces, joined."""
    return "".join(matrix.json_pieces())


def csv_reference(matrix, precision) -> str:
    """The matrix's object form (oracles.json_obj) written cell by cell by csv.writer: ints through str,
    floats through format_value, undefined cells as '#'."""
    obj = oracles.json_obj(matrix)
    kind, names = obj["kind"], obj["attributes"]
    if kind == "QAUM":
        header, labels, rows = ["query", *names], obj["query_ids"], obj["cells"]
    elif kind == "ADM":
        header, labels = ["attribute", *names, "total_measure"], names
        rows = [[*counts, total] for counts, total in zip(obj["counts"], obj["total_measure"])]
    elif kind == "MVSD":
        header, labels, rows = ["statistic", *names], ["mean", "variance", "sd"], [obj["mean"], obj["variance"], obj["sd"]]
    else:
        header, labels, rows = ["attribute", *names], names, obj["values"]

    def cell(value):
        if value is None:
            return "#"
        return format_value(value, precision) if isinstance(value, float) else str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([label, *map(cell, row)] for label, row in zip(labels, rows))
    return buf.getvalue()


def labels(matrix) -> tuple[str, ...]:
    """The attribute names of a matrix's columns; a usage set's are its catalog's."""
    return matrix.catalog.attributes if isinstance(matrix, UsageSet) else matrix.attributes


def hand_built(names, counts, values, defined, stats_defined):
    """One matrix of each n×n type over the given labels."""
    n = len(names)
    counts = np.array(counts, dtype=np.int64).reshape(n, n)
    return {
        "adm": DependencyMatrix(names, counts),
        "pdm": MaskedRealMatrix("PDM", names, np.array(values, dtype=np.float64).reshape(n, n), np.array(defined, dtype=bool).reshape(n, n)),
        "mvsd": StatsTable(names, np.arange(n) * 0.125, np.full(n, 0.5), np.array(stats_defined, dtype=bool)),
    }


def render_cases():
    """(case id, matrix) pairs covering every matrix type, odd labels and degenerate shapes."""
    rng = np.random.default_rng(4)
    seeded = seeded_bundle(9)
    for name in MATRIX_NAMES:
        yield f"reference-{name}", name  # read from the reference_bundle fixture
        yield f"seeded9-{name}", getattr(seeded, name)
    # a QAUM's labels are query ids and catalog names, neither of which is ever empty
    yield "odd-labels-qaum", oracles.usage_from_cells(rng.integers(0, 2, size=(4, 4)), ODD_LABELS[1:], ODD_LABELS[1:])
    yield "n1-qaum", oracles.usage_from_cells([[1], [0], [1]], ("solo",), ("q1", "q2", "q3"))
    yield "m0-qaum", oracles.usage_from_cells(np.zeros((0, 3)), ("a", "b", "c"))
    odd = hand_built(
        ODD_LABELS,
        np.triu(rng.integers(0, 4, size=(5, 5)), 1) + np.triu(rng.integers(0, 4, size=(5, 5)), 1).T,
        rng.random((5, 5)),
        ~np.eye(5, dtype=bool) & (rng.random((5, 5)) < 0.7),
        [True, False, True, True, False],
    )
    one = hand_built(("solo",), [[0]], [[0.0]], [[False]], [True])
    empty = hand_built((), np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0)), [])
    for tag, matrices in (("odd-labels", odd), ("n1", one), ("n0", empty)):
        for name, matrix in matrices.items():
            yield f"{tag}-{name}", matrix
    pool = np.array([-0.0, 0.0, 5e-324, 1e16, 0.1, 2 / 3, 7.0])
    repeats = MaskedRealMatrix("NSM", tuple("abcdefgh"), rng.choice(pool, size=(8, 8)), ~np.eye(8, dtype=bool))
    yield "repeated-signed-zero", repeats
    ties = np.array([[0.0, 0.125, 0.5], [2.5, 0.0, -0.125], [0.375, -0.5, 0.0]])
    yield "exact-ties", MaskedRealMatrix("NNSM", ("x", "y", "z"), ties, ~np.eye(3, dtype=bool))


RENDER_CASES = dict(render_cases())


@pytest.fixture(params=list(RENDER_CASES), name="rendered")
def fixture_rendered(request, reference_bundle):
    matrix = RENDER_CASES[request.param]
    return getattr(reference_bundle, matrix) if isinstance(matrix, str) else matrix


def test_to_json_equals_indent_2_of_to_json_obj(rendered):
    # a whole file: the object form in the json.dumps(indent=2) layout, then a newline
    assert json_file(rendered) == json.dumps(oracles.json_obj(rendered), indent=2, ensure_ascii=True) + "\n"


@pytest.mark.parametrize("precision", [None, *range(11)])
def test_to_csv_equals_a_per_cell_csv_writer_rendering(rendered, precision):
    assert csv_file(rendered, precision) == csv_reference(rendered, precision)


BLOCK_ROWS = [1, 2, 7, None]  # None: the default block


def set_block_rows(monkeypatch, rows, width) -> int:
    """Make a block rows rows of width cells (leave the default when rows is None); return its rows.
    A file whose grid is wider (the ADM's CSV adds a total column) gets fewer rows per block."""
    if rows is not None:
        monkeypatch.setattr(matrices, "_BLOCK_CELLS", rows * max(width, 1))
    return max(1, matrices._BLOCK_CELLS // max(width, 1))


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_files_streamed_in_blocks_equal_the_references(rendered, block_rows, monkeypatch):
    set_block_rows(monkeypatch, block_rows, len(labels(rendered)))
    assert json_file(rendered) == json.dumps(oracles.json_obj(rendered), indent=2, ensure_ascii=True) + "\n"
    for precision in (None, 0, 2, 10):
        assert csv_file(rendered, precision) == csv_reference(rendered, precision)


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_qaum_rows_at_block_boundaries_equal_the_references(block_rows, monkeypatch):
    names = ("a", "b,c", 'd"e')
    block = set_block_rows(monkeypatch, block_rows, len(names))
    rng = np.random.default_rng(block)
    for m in sorted({0, 1, block - 1, block, block + 1}):
        ids = tuple(f"{ODD_LABELS[i % len(ODD_LABELS)]}{i}" for i in range(m))
        cells = rng.integers(0, 2, size=(m, len(names)))
        cells[np.arange(m), rng.integers(0, len(names), size=m)] = 1  # every query uses an attribute, so all m are kept
        qaum = oracles.usage_from_cells(cells, names, ids)
        assert json_file(qaum) == json.dumps(oracles.json_obj(qaum), indent=2, ensure_ascii=True) + "\n", m
        assert csv_file(qaum) == csv_reference(qaum, None), m
        assert len(list(qaum.csv_pieces())) == 1 + -(-m // block), m  # the header, then a piece per block


def test_rendering_pins_ties_signed_zero_and_odd_labels():
    ties = RENDER_CASES["exact-ties"]
    assert csv_file(ties, 2).splitlines()[1:] == ["x,#,0.13,0.50", "y,2.50,#,-0.13", "z,0.38,-0.50,#"]
    assert csv_file(ties, 0).splitlines()[1:] == ["x,#,0,1", "y,3,#,-0", "z,0,-1,#"]
    zeros = MaskedRealMatrix("PDM", ("a", "b", "c"), np.array([[0, -0.0, 0.0], [0.0, 0, -0.0], [5e-324, 1e16, 0]]), ~np.eye(3, dtype=bool))
    assert csv_file(zeros, 1) == "attribute,a,b,c\na,#,-0.0,0.0\nb,0.0,#,-0.0\nc,0.0,10000000000000000.0,#\n"
    assert '"values": [\n    [\n      null,\n      -0.0,\n      0.0\n    ],' in json_file(zeros)
    qaum = oracles.usage_from_cells([[1, 0], [0, 1]], ("a", "b,c"), ("new\nline", 'c"d'))
    assert csv_file(qaum) == 'query,a,"b,c"\n"new\nline",1,0\n"c""d",0,1\n'


def test_csv_rows_written_in_pieces_fail_loudly(monkeypatch):
    """Label fields are paired with row texts by csv.writer's one write per row; a writer that
    splits its writes must fail, not shift labels onto other rows."""
    whole = csv.writer

    def piecewise(file, **kwargs):
        return whole(SimpleNamespace(write=lambda text: [file.write(text[:1]), file.write(text[1:])]), **kwargs)

    monkeypatch.setattr(csv, "writer", piecewise)
    for name in ("qaum", "pdm"):
        with pytest.raises(AttrScaleError, match="more than one piece"):
            csv_file(RENDER_CASES[f"odd-labels-{name}"])


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        [[]],
        None,
        "naïve",
        {"rows": [[], [1, None], []], "empty": [], "nested": {}, "deep": {"x": {"y": [[]]}}},
        {"values": [-0.0, 1e-7, 1e22, None, 0.1, 2 / 3, -5e-324, True, False, 10**20]},
        {"labels": ["é", "日本", "a\"b\\c\n\t", "\u2028", "😀"], "kind": "PDM"},
        [[-0.0, None], [1e-7, 1e22], []],
        [1, [2, [3, []]], {"k": []}, "s", None],  # scalars mixed with containers
        ({"a": (1, 2)}, (), [()]),  # tuples encode as lists
    ],
)
def test_json_text_equals_indent_2_on_hand_built_objects(obj):
    # at depth d, json_text(obj, d) is obj's text inside d dicts {"k": ...}: the re-indent of every line
    for depth in (0, 1, 2):
        wrapped, text = obj, json_text(obj, depth)
        for level in reversed(range(depth)):
            wrapped, text = {"k": wrapped}, "{\n" + "  " * (level + 1) + '"k": ' + text + "\n" + "  " * level + "}"
        assert text == json.dumps(wrapped, indent=2, ensure_ascii=True), depth


def test_usage_matrix_csv_and_json():
    qaum = oracles.usage_from_cells([[1, 1, 0], [0, 1, 1]], ("a", "b", "c"), ("q1", "q2"))
    assert csv_file(qaum) == "query,a,b,c\nq1,1,1,0\nq2,0,1,1\n"
    assert json.loads(json_file(qaum))["cells"] == [[1, 1, 0], [0, 1, 1]]


def small_dependency():
    counts = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]], dtype=np.int64)
    return DependencyMatrix(("a", "b", "c"), counts)


def test_dependency_matrix_validation():
    with pytest.raises(AttrScaleError, match="diagonal"):
        DependencyMatrix(("a", "b"), np.array([[1, 1], [1, 0]]))
    with pytest.raises(AttrScaleError, match="non-negative"):
        DependencyMatrix(("a", "b"), np.array([[0, -1], [1, 0]]))
    with pytest.raises(AttrScaleError, match="change its values"):  # truncation would store counts of 2
        DependencyMatrix(("a", "b"), np.array([[0, 2.5], [2.5, 0]]))
    with pytest.raises(AttrScaleError, match="change its values"):  # NaN has no int64 value; numpy warns on the cast
        DependencyMatrix(("a", "b"), np.array([[0, np.nan], [1, 0]]))


def test_dependency_matrix_accepts_asymmetric_replay():
    # replayed external tables may carry misprints; the total measure is their row sums
    counts = np.array([[0, 2], [3, 0]], dtype=np.int64)
    adm = DependencyMatrix(("a", "b"), counts)
    assert adm.counts[0, 1] == 2 and adm.counts[1, 0] == 3
    assert adm.total_measure.tolist() == [2, 3]


def test_dependency_matrix_csv_and_json():
    adm = small_dependency()
    assert csv_file(adm) == (
        "attribute,a,b,c,total_measure\na,#,2,1,3\nb,2,#,0,2\nc,1,0,#,1\n"
    )
    obj = json.loads(json_file(adm))
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
    assert csv_file(m, precision=2) == "attribute,a,b\na,#,0.13\nb,0.67,#\n"
    # a label holding the delimiter is quoted in the header and in its row
    comma = MaskedRealMatrix("PDM", ("a,1", "b"), m.values, m.defined)
    assert csv_file(comma, precision=2) == 'attribute,"a,1",b\n"a,1",#,0.13\nb,0.67,#\n'


def test_masked_matrix_json_round_trip():
    m = masked([[0, 1.0 / 3.0], [0.5, 0]], [[False, True], [True, False]])
    obj = json.loads(json_file(m))
    assert obj["values"][0][0] is None
    assert obj["values"][0][1] == 1.0 / 3.0  # full precision, no display rounding


def stats(defined=(True, True)):
    return StatsTable(
        attributes=("a", "b"),
        mean=np.array([1.5, 2.0]),
        variance=np.array([0.25, 0.0]),
        defined=np.array(defined, dtype=bool),
    )


def test_stats_table_validation():
    with pytest.raises(AttrScaleError, match="non-negative"):
        StatsTable(("a",), np.array([1.0]), np.array([-0.1]), np.array([True]))
    with pytest.raises(AttrScaleError, match="shape"):
        StatsTable(("a", "b"), np.array([1.0]), np.array([1.0]), np.array([True]))
    with pytest.raises(AttrScaleError, match="shape"):  # the mask is checked before it is used
        StatsTable(("a", "b"), np.ones(2), np.ones(2), np.array([True]))


def test_stats_table_undefined_column_is_nan_and_hash():
    table = stats(defined=(True, False))
    assert np.isnan(table.mean[1]) and np.isnan(table.sd[1])
    assert csv_file(table, precision=2) == "statistic,a,b\nmean,1.50,#\nvariance,0.25,#\nsd,0.50,#\n"


def test_stats_table_json_round_trip():
    table = stats(defined=(True, False))
    obj = json.loads(json_file(table))
    assert obj["mean"] == [1.5, None]
