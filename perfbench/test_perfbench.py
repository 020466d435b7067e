"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from attrscale import AttributeCatalog, extract_attributes  # noqa: E402
from attrscale.cli import main as cli_main  # noqa: E402

import numpy as np  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
from gen import attrs_log, sql_log  # noqa: E402
from verify import Checker, check_analyze, check_rank, reference  # noqa: E402


def cli(args: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(args) == 0
    return buf.getvalue().encode()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for make in (lambda s: attrs_log(50, 300, s), lambda s: sql_log(30, 200, s)):
            self.assertEqual(make(3).lines, make(3).lines)
            self.assertEqual(make(3).truth, make(3).truth)
            self.assertNotEqual(make(3).lines, make(4).lines)

    def test_sql_ground_truth_is_what_the_extractor_finds(self):
        log = sql_log(40, 300, seed=11)
        catalog = AttributeCatalog(log.catalog)
        for line, truth, unknown in zip(log.lines, log.truth, log.unknown):
            diagnostics: list[str] = []
            found = extract_attributes(json.loads(line)["sql"], catalog, diagnostics=diagnostics)
            self.assertEqual(found, set(truth), line)
            self.assertEqual(diagnostics, [unknown], line)


class VerifierTest(unittest.TestCase):
    def setUp(self):
        self.work = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.work)
        self.log = attrs_log(30, 400, seed=5)
        self.log.write(self.work / "workload.jsonl", self.work / "catalog.txt")
        w = str(self.work)
        args = ["analyze", "--input", f"{w}/workload.jsonl", "--input-format", "jsonl-attrs", "--catalog", f"{w}/catalog.txt", "--out", f"{w}/out"]
        self.stdout = cli(args)
        self.ref = reference(self.log, list(range(400)), 0.0)

    def rank(self) -> bytes:
        return cli(["rank", "--snapshot", str(self.work / "out" / "snapshot.json"), "--top", "10"])

    def test_accepts_genuine_outputs(self):
        chk = Checker()
        self.assertTrue(check_analyze(chk, self.ref, self.work / "out", self.stdout), chk.failures)
        rank = self.rank()
        self.assertTrue(check_rank(chk, self.ref, rank), chk.failures)
        self.assertGreater(chk.count, 10)

    def test_rejects_corrupted_adm(self):
        path = self.work / "out" / "adm.json"
        adm = json.loads(path.read_text())
        adm["counts"][0][1] = (adm["counts"][0][1] or 0) + 1
        path.write_text(json.dumps(adm))
        chk = Checker()
        self.assertFalse(check_analyze(chk, self.ref, self.work / "out", self.stdout))
        self.assertIn("adm.json counts exact", chk.failures)

    def test_rejects_blank_csv(self):
        for kind in ("qaum", "adm", "nnsm"):
            with self.subTest(kind=kind):
                path = self.work / "out" / f"{kind}.csv"
                original = path.read_text()
                path.write_text("")
                chk = Checker()
                self.assertFalse(check_analyze(chk, self.ref, self.work / "out", self.stdout))
                self.assertEqual(chk.failures, [f"{kind}.csv header, row labels and width"])
                path.write_text(original)

    def test_rejects_csv_rounded_wrongly(self):
        path = self.work / "out" / "nnsm.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        r, c = next((r, c) for r in range(1, len(rows)) for c in range(1, len(rows[r])) if rows[r][c] != "#")
        rows[r][c] = f"{float(rows[r][c]) + 0.01:.2f}"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        chk = Checker()
        self.assertFalse(check_analyze(chk, self.ref, self.work / "out", self.stdout))
        self.assertEqual(chk.failures, ["nnsm.csv values at display precision"])

    def test_rejects_moved_undefined_cell(self):
        path = self.work / "out" / "pdm.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        r, c = next((r, c) for r in range(1, len(rows)) for c in range(1, len(rows[r])) if rows[r][c] != "#")
        rows[r][c] = "#"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        chk = Checker()
        self.assertFalse(check_analyze(chk, self.ref, self.work / "out", self.stdout))
        self.assertEqual(chk.failures, ["pdm.csv '#' cells exactly where undefined"])

    def test_exact_tie_rounds_half_up(self):
        chk = Checker()
        verify._check_displayed(chk, "pdm.csv", np.array([["0.13", "#"]]), np.array([[0.125, np.nan]]), exact=True)
        verify._check_displayed(chk, "pdm.csv", np.array([["0.12", "#"]]), np.array([[0.125, np.nan]]), exact=True)
        self.assertEqual(chk.failures, ["pdm.csv values at display precision"])

    def test_rejects_wrong_rank_line(self):
        lines = self.rank().decode().splitlines()
        scores = self.ref.pair_scores()
        weakest, strongest = max(scores.values()), min(scores.values())
        self.assertGreater(weakest[0], strongest[0])
        _, a, b = weakest
        count = self.ref.adm[self.ref.attributes.index(a), self.ref.attributes.index(b)]
        wrong = f"1     {a},{b}  {weakest[0]:.2f}  0.00  {count}"
        chk = Checker()
        self.assertTrue(check_rank(chk, self.ref, "\n".join(lines).encode()))
        self.assertFalse(check_rank(chk, self.ref, "\n".join([*lines[:2], wrong, *lines[3:]]).encode()))
        self.assertEqual(chk.failures, ["rank line 1 is a strongest pair"])


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        tree = [
            {"id": 0, "parent": None, "name": "cmd", "start": 0.0, "end": 10.0, "run": "r"},
            {"id": 1, "parent": 0, "name": "load", "start": 1.0, "end": 4.0, "run": "r"},
            {"id": 2, "parent": 1, "name": "parse", "start": 1.5, "end": 3.0, "run": "r"},
            {"id": 3, "parent": 0, "name": "render", "start": 5.0, "end": 9.0, "run": "r"},
            {"id": 4, "parent": 3, "name": "row", "start": 5.0, "end": 6.0, "run": "r"},
            {"id": 5, "parent": 3, "name": "row", "start": 7.0, "end": 8.5, "run": "r"},
        ]
        own = spans.self_times(tree)
        self.assertEqual(own, {0: 3.0, 1: 1.5, 2: 1.5, 3: 1.5, 4: 1.0, 5: 1.5})
        self.assertAlmostEqual(sum(own.values()), 10.0)
        times, calls, _ = spans.per_process([{"spans": tree, "counts": {}}])
        self.assertEqual((times["row"], calls["row"]), ([2.5], [2]))

    def test_overlapping_children_count_once(self):
        tree = [
            {"id": 0, "parent": None, "name": "a", "start": 0.0, "end": 4.0, "run": "r"},
            {"id": 1, "parent": 0, "name": "b", "start": 1.0, "end": 3.0, "run": "r"},
            {"id": 2, "parent": 0, "name": "c", "start": 2.0, "end": 5.0, "run": "r"},
        ]
        self.assertEqual(spans.self_times(tree)[0], 1.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_py_reports(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())


if __name__ == "__main__":
    unittest.main()
