"""The reference worked example, frozen for the test suite.

A ten-query, ten-attribute workload and the stage tables it is documented
to produce. The PRINTED_* constants transcribe the reference tables exactly
as they appear, including their internal misprints; ADM_ERRATA lists every
cell where an honest recount of the usage rows disagrees with the printed
co-occurrence table. Stage-fixture tests feed the printed tables into one
stage at a time, so the misprints upstream never contaminate the check of
the stage under test.
"""

from __future__ import annotations

import numpy as np

from attrscale import DependencyMatrix, StatsTable

ATTRIBUTES = ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10")

# Query id -> attributes used, in workload order.
USAGE_ROWS = (
    ("q1", ("a1", "a2", "a3", "a4", "a5", "a9")),
    ("q2", ("a1", "a4", "a6", "a7")),
    ("q3", ("a3", "a5", "a6", "a7", "a8")),
    ("q4", ("a1", "a5", "a6", "a9", "a10")),
    ("q5", ("a2", "a7", "a8", "a9", "a10")),
    ("q6", ("a3", "a4", "a6", "a10")),
    ("q7", ("a1", "a2", "a3", "a6", "a8", "a9")),
    ("q8", ("a1", "a2", "a3", "a5", "a10")),
    ("q9", ("a2", "a3", "a5", "a8", "a9", "a10")),
    ("q10", ("a1", "a4", "a6", "a7", "a9", "a10")),
)

# Co-occurrence counts as printed (None = diagonal). Not symmetric: several
# cells are misprinted, but each row still sums to its printed Total Measure.
PRINTED_ADM = (
    (None, 3, 3, 3, 2, 3, 2, 1, 4, 3),
    (3, None, 4, 1, 3, 2, 1, 3, 4, 3),
    (3, 4, None, 2, 4, 3, 2, 3, 3, 2),
    (3, 1, 2, None, 1, 3, 2, 0, 2, 2),
    (3, 2, 4, 1, None, 2, 1, 2, 3, 3),
    (3, 2, 3, 3, 2, None, 3, 2, 3, 3),
    (2, 1, 2, 2, 1, 3, None, 2, 2, 2),
    (1, 3, 3, 0, 2, 2, 2, None, 3, 2),
    (4, 4, 3, 2, 3, 3, 2, 3, None, 4),
    (3, 3, 2, 2, 3, 3, 2, 2, 4, None),
)
PRINTED_TM = (24, 24, 26, 16, 21, 24, 17, 18, 28, 24)

# Recount of USAGE_ROWS: row sums of the true co-occurrence matrix.
TRUE_TM = (26, 23, 26, 16, 22, 24, 16, 18, 28, 25)

# (row, col) -> (printed count, recounted count). Every printed cell not
# listed here matches the recount.
ADM_ERRATA = {
    ("a1", "a5"): (2, 3),
    ("a5", "a2"): (2, 3),
    ("a1", "a6"): (3, 4),
    ("a6", "a1"): (3, 4),
    ("a2", "a6"): (2, 1),
    ("a6", "a2"): (2, 1),
    ("a3", "a7"): (2, 1),
    ("a7", "a3"): (2, 1),
    ("a3", "a10"): (2, 3),
    ("a10", "a3"): (2, 3),
}

# Probabilities as printed, 2 decimals. (a8, a4) is printed as 0.00 even
# though its count is 0; the pipeline treats that cell as undefined, the
# same way (a4, a8) is printed.
PRINTED_PDM = (
    (None, 0.13, 0.13, 0.13, 0.08, 0.13, 0.08, 0.04, 0.17, 0.13),
    (0.13, None, 0.17, 0.04, 0.13, 0.08, 0.04, 0.13, 0.17, 0.13),
    (0.12, 0.15, None, 0.08, 0.15, 0.12, 0.08, 0.12, 0.12, 0.08),
    (0.19, 0.06, 0.13, None, 0.06, 0.19, 0.13, None, 0.13, 0.13),
    (0.14, 0.10, 0.19, 0.05, None, 0.10, 0.05, 0.10, 0.14, 0.14),
    (0.13, 0.08, 0.13, 0.13, 0.08, None, 0.13, 0.08, 0.13, 0.13),
    (0.12, 0.06, 0.12, 0.12, 0.06, 0.18, None, 0.12, 0.12, 0.12),
    (0.06, 0.17, 0.17, 0.00, 0.11, 0.11, 0.11, None, 0.17, 0.11),
    (0.14, 0.14, 0.11, 0.07, 0.11, 0.11, 0.07, 0.11, None, 0.14),
    (0.13, 0.13, 0.08, 0.08, 0.13, 0.13, 0.08, 0.08, 0.17, None),
)

PRINTED_MEAN = (2.92, 3.08, 3.08, 2.25, 2.71, 2.75, 2.06, 2.44, 3.29, 2.83)
# The printed variance/SD rows do not follow from the printed counts and
# probabilities (documented misprint); kept for the SD stage fixture only.
PRINTED_VARIANCE = (0.30, 2.09, 2.61, 5.54, 3.95, 3.82, 3.46, 3.41, 6.98, 7.38)
PRINTED_SD = (0.55, 1.45, 1.62, 2.35, 1.99, 1.95, 1.86, 1.85, 2.64, 2.72)

# Scale values as printed. Same 0.00-vs-# inconsistency at (a8, a4).
PRINTED_NSM = (
    (None, 0.30, 0.36, 0.60, 0.72, 0.47, 0.66, 1.30, 0.52, 0.72),
    (0.30, None, 0.04, 0.90, 0.18, 0.25, 0.41, 0.13, 0.30, 0.42),
    (0.36, 0.04, None, 0.37, 0.09, 0.11, 0.12, 0.08, 0.34, 0.55),
    (0.60, 0.90, 0.37, None, 0.36, 0.13, 0.25, None, 0.15, 0.19),
    (0.48, 0.27, 0.09, 0.36, None, 0.02, 0.13, 0.07, 0.22, 0.24),
    (0.47, 0.25, 0.11, 0.13, 0.02, None, 0.03, 0.05, 0.23, 0.26),
    (0.66, 0.41, 0.12, 0.25, 0.13, 0.03, None, 0.01, 0.39, 0.43),
    (1.30, 0.13, 0.08, 0.00, 0.07, 0.05, 0.01, None, 0.26, 0.44),
    (0.52, 0.30, 0.34, 0.15, 0.22, 0.23, 0.39, 0.26, None, 0.02),
    (0.72, 0.42, 0.55, 0.19, 0.24, 0.26, 0.43, 0.44, 0.02, None),
)

# Normalized scale as printed; here both (a4, a8) and (a8, a4) show '#'.
PRINTED_NNSM = (
    (None, 2.31, 2.74, 4.62, 5.54, 3.59, 5.04, 10.0, 4.02, 5.56),
    (3.33, None, 0.47, 10.0, 2.00, 2.78, 4.56, 1.48, 3.31, 4.70),
    (6.48, 0.77, None, 6.64, 1.68, 2.00, 2.18, 1.39, 6.18, 10.0),
    (6.67, 10.0, 4.06, None, 4.00, 1.48, 2.72, None, 1.61, 2.06),
    (10.0, 5.63, 1.93, 7.50, None, 0.42, 2.71, 1.46, 4.51, 5.07),
    (10.0, 5.36, 2.36, 2.86, 0.43, None, 0.64, 1.07, 4.93, 5.50),
    (10.0, 6.26, 1.83, 3.74, 1.98, 0.46, None, 0.08, 5.95, 6.56),
    (10.0, 1.03, 0.59, None, 0.54, 0.38, 0.04, None, 2.03, 3.35),
    (10.0, 5.69, 6.51, 2.78, 4.15, 4.40, 7.46, 5.04, None, 0.38),
    (10.0, 5.85, 7.60, 2.56, 3.36, 3.55, 5.94, 6.01, 0.28, None),
)

# Cells the NSM/PDM comparisons must skip: printed as a number on one side
# of the diagonal and '#' on the other, undefined in the pipeline (count 0).
ZERO_COUNT_QUIRK = (("a8", "a4"), ("a4", "a8"))


def build_printed_adm() -> DependencyMatrix:
    """The printed co-occurrence table as a stage input, misprints included."""
    counts = np.array([[0 if v is None else v for v in row] for row in PRINTED_ADM], dtype=np.int64)
    return DependencyMatrix(attributes=ATTRIBUTES, counts=counts)


def sd_fixture_stats() -> StatsTable:
    """Stats carrying the printed SD row, for driving the scale stage alone.

    The variance slot holds sd**2 rather than the printed variance row so the
    table is internally consistent; only the SD row feeds the next stage.
    """
    sd = np.array(PRINTED_SD, dtype=np.float64)
    return StatsTable(
        attributes=ATTRIBUTES,
        mean=np.array(PRINTED_MEAN, dtype=np.float64),
        variance=sd * sd,
        defined=np.ones(len(ATTRIBUTES), dtype=bool),
    )


def cell_index(name: str) -> int:
    return ATTRIBUTES.index(name)
