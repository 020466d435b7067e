"""Acceptance check 10's timing ratio t(2n)/t(n), timed with that test's own stage chain and inputs.

Run with the package importable; prints one JSON object with both times and the ratio.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_acceptance import stage_chain, synthetic_usage  # noqa: E402


def timed(qaum) -> float:
    t0 = time.perf_counter()
    stage_chain(qaum)
    return time.perf_counter() - t0


if __name__ == "__main__":
    base = synthetic_usage(1000, 10000, seed=7)
    doubled = synthetic_usage(2000, 10000, seed=7)
    t_base = min(timed(base) for _ in range(3))
    t_doubled = min(timed(doubled) for _ in range(3))
    print(json.dumps({"t_base_s": t_base, "t_doubled_s": t_doubled, "ratio": t_doubled / t_base}))
