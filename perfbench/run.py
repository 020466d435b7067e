#!/usr/bin/env python3
"""attrscale benchmark: seeded workloads run through the real CLI, one process at a time.

    python3 perfbench/run.py --workload analyze-wide --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Every workload is a closed loop of CLI commands, each a fresh process started
only after the previous one exited. --trace 0 reports the end-to-end metrics;
--trace 1 runs the same commands through perfbench/spans.py and reports the
per-layer metrics. Every command's output is verified against a recomputation
from the generator's ground truth. The last line of stdout is the result JSON;
.perfbench-work/<workload>/ keeps result.json (machine facts, samples, failed
checks) and, after a traced run, spans.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import proc
import spans
from gen import GeneratedLog, attrs_log, sql_log
from verify import (
    Checker,
    Reference,
    check_analyze,
    check_diff,
    check_explain,
    check_groups,
    check_rank,
    check_random_selection,
    output_hashes,
    reference,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
MB = 1024.0 * 1024.0

# Sizes are scaled so a run holds several closed-loop cycles on a 2-core
# machine while each workload keeps the property it is for.
WIDE_N, WIDE_M = 200, 2000
SQL_N, SQL_M, SQL_SELECT, SQL_THRESHOLD = 80, 5000, 4000, 0.005
OUT = "out"  # analyze's output directory, relative to the work directory
NEW_SNAPSHOT = f"{OUT}/snapshot.json"
OLD_SNAPSHOT = "ref/snapshot.json"  # a copy of the first analyze's snapshot, which every diff compares against


@dataclass(frozen=True)
class Analysis:
    """The `attrscale analyze` invocation a workload repeats over its generated log."""

    select: str  # --select value
    threshold: float = 0.0
    seeded: bool = False  # pass the benchmark seed as --seed (random selection)

    def argv(self, input_format: str, seed: int) -> list[str]:
        args = ["analyze", "--input", "workload.jsonl", "--input-format", input_format, "--catalog", "catalog.txt"]
        args += ["--out", OUT, "--select", self.select, "--format", "both"]
        if self.seeded:
            args += ["--seed", str(seed)]
        if self.threshold:
            args += ["--threshold", repr(self.threshold)]
        return args


@dataclass(frozen=True)
class Workload:
    log: Callable[[int], GeneratedLog]
    input_format: str
    analysis: Analysis
    setup_reps: int


WORKLOADS = {
    # rendering and persistence dominate analyze; SQL extraction is never called
    "analyze-wide": Workload(
        log=lambda seed: attrs_log(WIDE_N, WIDE_M, seed),
        input_format="jsonl-attrs",
        analysis=Analysis("all"),
        setup_reps=9,
    ),
    # SQL extraction dominates analyze; the n×n matrices stay small; selection and threshold run
    "analyze-sql": Workload(
        log=lambda seed: sql_log(SQL_N, SQL_M, seed),
        input_format="jsonl-sql",
        analysis=Analysis(f"random:{SQL_SELECT}", threshold=SQL_THRESHOLD, seeded=True),
        setup_reps=5,
    ),
}
QUERY_COMMANDS = ("rank", "explain", "diff", "groups")

END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "analyze_peak_rss_mb": "MB",
    "output_mb": "MB",
    "snapshot_mb": "MB",
    "rank_s": "s",
    "explain_s": "s",
    "diff_s": "s",
    "groups_s": "s",
    "query_peak_rss_mb": "MB",
    "ok_ops_frac": "ratio",
}

# Which end-to-end metric each layer should move, and where the prediction is "no change":
#   workload.*      analyze_s, analyze_peak_rss_mb on analyze-sql; little on analyze-wide.
#   catalog.*       a floor under every command; expected to stay negligible.
#   sql_columns.*   analyze_s on analyze-sql; zero calls elsewhere, so no change there.
#   pipeline.*      analyze_peak_rss_mb on analyze-wide (build_adm makes a dense float64
#                   m×n copy). The six stages take ~1% of traced analyze time, below the
#                   noise of analyze_s: a stage speed-up cannot be claimed on analyze_s
#                   until rendering shrinks.
#   matrices.*      analyze_s, output_mb, analyze_peak_rss_mb on analyze-wide; on
#                   analyze-sql only qaum matters.
#   snapshot write  analyze_s, snapshot_mb on both workloads.
#   snapshot read   rank_s, explain_s, groups_s, diff_s (two loads), query_peak_rss_mb on
#                   analyze-wide, whose snapshot is the larger; less on analyze-sql.
#   analytics.*     rank_s and groups_s (suggest_groups calls rank_pairs) on both workloads.
#   cli.diff_self_s diff_s; cli.import_s is a floor under every *_s.
# per-layer self-time metric -> span name
LAYER_TIMES = {
    "workload.load_workload_s": "workload.load_workload",
    "workload.select_queries_s": "workload.select_queries",
    "workload.build_usage_set_s": "workload.build_usage_set",
    "catalog.load_catalog_s": "catalog.load_catalog",
    "sql_columns.extract_attributes_s": "sql_columns.extract_attributes",
    **{f"pipeline.{stage}_s": f"pipeline.{stage}" for stage in ("build_qaum", "build_adm", "build_pdm", "compute_mvsd", "compute_nsm", "compute_nnsm")},
    **{f"matrices.to_csv_s.{kind}": f"matrices.to_csv.{kind}" for kind in spans.KINDS},
    **{f"matrices.to_json_obj_s.{kind}": f"matrices.to_json_obj.{kind}" for kind in spans.KINDS},
    "snapshot.snapshot_to_text_s": "snapshot.snapshot_to_text",
    "snapshot.render_outputs_s": "snapshot.render_outputs",
    "snapshot.write_outputs_io_s": "snapshot.write_outputs",
    "snapshot.load_snapshot_s": "snapshot.load_snapshot",
    "snapshot.from_json_obj_s": "snapshot.from_json_obj",
    "analytics.rank_pairs_s": "analytics.rank_pairs",
    "analytics.explain_pair_s": "analytics.explain_pair",
    "analytics.suggest_groups_s": "analytics.suggest_groups",
    "cli.diff_self_s": "cli.diff",
}
LAYER_COUNTS = (
    "workload.records",
    "workload.queries_kept",
    "workload.queries_dropped",
    "workload.attributes_kept",
    "workload.unknown_identifier_queries",
    "pipeline.defined_cells",
    "pipeline.warnings",
    "matrices.csv_bytes",
    "matrices.json_bytes",
    "snapshot.bytes",
    "analytics.pairs_ranked",
    "analytics.groups_found",
)
RSS_SPANS = (
    "import",
    "workload.load_workload",
    "workload.build_usage_set",
    "pipeline.run_pipeline",
    "snapshot.write_outputs",
    "cli.analyze",
    "snapshot.load_snapshot",
    "analytics.rank_pairs",
    "analytics.explain_pair",
    "analytics.suggest_groups",
    "cli.diff",
)
COMMANDS = ("analyze", *QUERY_COMMANDS)


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in LAYER_TIMES}
    units |= {name: ("bytes" if name.endswith("bytes") else "count") for name in LAYER_COUNTS}
    units |= {
        "sql_columns.statements": "count",
        "sql_columns.errors": "count",
        "sql_columns.us_per_statement": "us",
        "pipeline.stage_chain_ratio": "ratio",
        "cli.import_s": "s",
        "trace.overhead_ratio": "ratio",
    }
    units |= {f"cli.stdout_bytes.{cmd}": "bytes" for cmd in COMMANDS}
    units |= {f"process.rss_high_water_mb.{name}": "MB" for name in RSS_SPANS}
    return units


def median(values: list[float]) -> float:
    """Median, or 0.0 when there are no samples: a layer that never ran, or a failed run (then marked incorrect)."""
    return float(statistics.median(values)) if values else 0.0


def mean(values: list[float]) -> float:
    """Mean, or 0.0 when there are no samples (a failed run, then marked incorrect).

    The command timings of a run are averaged rather than taken at their median. On a
    shared host the CPU can switch between a fast and a slow phase for seconds to
    minutes, so a run's samples fall into two groups whose shares vary from run to run.
    The median jumps from one group to the other as those shares cross one half; the
    mean moves in proportion to them.
    """
    return float(statistics.fmean(values)) if values else 0.0


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def machine_facts(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    commit = "unknown"  # a checkout without .git (as the benchmark is often run) has no commit to report
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=False)
            commit = git.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "git_commit": commit,
        "seed": seed,
    }


class Bench:
    """One benchmark run: its processes, their verification, and the samples they yield."""

    def __init__(self, name: str, seed: int) -> None:
        self.seed = seed
        self.wl = WORKLOADS[name]
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "spans").mkdir(parents=True)
        self.launcher = proc.Launcher(proc.program_env(ROOT))
        self.chk = Checker()
        self.attempted = self.failed = 0
        self.log: GeneratedLog | None = None
        self.ref: Reference | None = None  # set once the first analyze has verified
        self.expected_files: dict[str, str] = {}  # SHA-256 of each output file of the first analyze
        self.expected_stdout: dict[str, str] = {}  # SHA-256 of each command's first stdout
        self.samples: dict[str, list[proc.ProcResult]] = defaultdict(list)  # passed commands, by kind
        self.sizes: dict[str, list[int]] = defaultdict(list)  # analyze output and snapshot bytes
        self.traces: list[dict] = []

    # --- running ---------------------------------------------------------------------------

    def _run(self, argv: list[str], verify: Callable[[proc.ProcResult], bool]) -> tuple[proc.ProcResult, bool]:
        """Run one process; it passes if it exits 0 and its outputs verify."""
        res = self.launcher.run(argv, self.work)
        self.attempted += 1
        passed = self.chk.check(res.ok, f"{' '.join(argv[-6:])} exited {res.returncode}: {res.stderr[-300:]}")
        if passed:
            try:
                passed = verify(res)
            except (OSError, ValueError, KeyError, TypeError) as exc:  # outputs missing or malformed
                passed = self.chk.check(False, f"{' '.join(argv[-6:])}: unreadable output: {exc!r}")
        if not passed:
            self.failed += 1
        return res, passed

    def command(self, command: str, args: list[str], traced: bool, verify: Callable[[proc.ProcResult], bool]) -> tuple[proc.ProcResult, bool]:
        """Run one program command, plainly or through the tracer, and verify it."""
        py = sys.executable
        if traced:
            span_file = self.work / "spans" / f"{len(self.traces)}.json"
            mode = ["groups"] if command == "groups" else ["cli"]
            res, passed = self._run([py, str(BENCH / "spans.py"), str(span_file), str(len(self.traces)), *mode, *args], verify)
            if span_file.exists():
                trace = json.loads(span_file.read_text(encoding="utf-8"))
                trace.update(command=command, stdout_bytes=len(res.stdout), wall_s=res.wall_s)
                self.traces.append(trace)
                span_file.unlink()
        elif command == "groups":
            res, passed = self._run([py, "-c", proc.GROUPS_ENTRY, *args], verify)
        else:
            res, passed = self._run([py, "-c", proc.CLI_ENTRY, *args], verify)
        if passed:
            self.samples[f"traced_{command}" if traced and command == "analyze" else command].append(res)
        return res, passed

    def analyze(self, traced: bool) -> proc.ProcResult:
        argv = self.wl.analysis.argv(self.wl.input_format, self.seed)
        res, passed = self.command("analyze", argv, traced, self.verify_analyze)
        if passed:
            out = self.work / OUT
            self.sizes["output"].append(dir_bytes(out))
            self.sizes["snapshot"].append((out / "snapshot.json").stat().st_size)
        return res

    def query(self, command: str, traced: bool) -> proc.ProcResult | None:
        if self.ref is None:  # the first analyze failed: nothing to query
            self.attempted += 1
            self.failed += 1
            self.chk.check(False, f"{command}: not run, no analyze output to query")
            return None
        args = {
            "rank": ["rank", "--snapshot", NEW_SNAPSHOT, "--top", "10"],
            "explain": ["explain", "--snapshot", NEW_SNAPSHOT, "--pair", ",".join(self.ref.strongest_pair())],
            "diff": ["diff", "--old", OLD_SNAPSHOT, "--new", NEW_SNAPSHOT],
            "groups": [NEW_SNAPSHOT],
        }[command]
        return self.command(command, args, traced, lambda r: self.verify_query(command, r))[0]

    def generate(self) -> None:
        self.log = self.wl.log(self.seed)
        self.log.write(self.work / "workload.jsonl", self.work / "catalog.txt")

    # --- verification ----------------------------------------------------------------------

    def selection(self) -> list[int]:
        kind, _, spec = self.wl.analysis.select.partition(":")
        if kind == "all":
            return list(range(len(self.log.query_ids)))
        return check_random_selection(self.chk, self.work / OUT, self.log, int(spec))

    def verify_analyze(self, res: proc.ProcResult) -> bool:
        out = self.work / OUT
        if self.ref is None:
            ref = reference(self.log, self.selection(), self.wl.analysis.threshold)
            if not check_analyze(self.chk, ref, out, res.stdout):
                return False
            self.ref = ref
            self.expected_files = output_hashes(out)
            self.expected_stdout["analyze"] = sha(res.stdout)
            (self.work / OLD_SNAPSHOT).parent.mkdir(exist_ok=True)
            shutil.copyfile(out / "snapshot.json", self.work / OLD_SNAPSHOT)
            return True
        same_files = self.chk.check(output_hashes(out) == self.expected_files, "analyze rerun is bit-identical")
        same_stdout = self.chk.check(sha(res.stdout) == self.expected_stdout["analyze"], "analyze summary repeats")
        return same_files and same_stdout

    def verify_query(self, command: str, res: proc.ProcResult) -> bool:
        if command in self.expected_stdout:
            return self.chk.check(sha(res.stdout) == self.expected_stdout[command], f"{command}: output repeats")
        if command == "rank":
            ok = check_rank(self.chk, self.ref, res.stdout)
        elif command == "explain":
            ok = check_explain(self.chk, self.ref, self.ref.strongest_pair(), res.stdout)
        elif command == "diff":  # the copy of the first snapshot against the latest: the same bundle
            ok = check_diff(self.chk, self.ref, self.ref, res.stdout)
        else:
            ok = check_groups(self.chk, self.ref, res.stdout, proc.GROUPS_CUTOFF, proc.GROUPS_MAX_SIZE)
        self.expected_stdout[command] = sha(res.stdout)
        return ok

    # --- the two kinds of run --------------------------------------------------------------

    def import_once(self) -> proc.ProcResult:
        return self._run([sys.executable, "-c", "import attrscale"], lambda r: True)[0]

    def loop(
        self, seconds: float, traced: bool, between_cycles: Callable[[float], None] = lambda ran: None
    ) -> list[dict[str, proc.ProcResult | None]]:
        """Closed loop of whole cycles (at least one); stop starting commands once `seconds` of them have run.

        between_cycles runs after each cycle with the seconds of commands run so far; its
        own time does not count toward `seconds`.
        """
        deadline = time.perf_counter() + seconds
        cycles = []
        while not cycles or time.perf_counter() < deadline:
            done = {}
            for command in ("analyze", *QUERY_COMMANDS):
                if cycles and time.perf_counter() >= deadline:
                    break
                if command == "analyze":
                    if traced:  # an untraced twin right before, for the tracing overhead
                        self.analyze(traced=False)
                    done[command] = self.analyze(traced)
                else:
                    done[command] = self.query(command, traced)
            cycles.append(done)
            t0 = time.perf_counter()
            between_cycles(seconds - (deadline - t0))
            deadline += time.perf_counter() - t0
        return cycles

    def setup_once(self) -> float:
        """Generate the inputs, the same bytes every time."""
        t0 = time.perf_counter()
        self.generate()
        return time.perf_counter() - t0

    def end_to_end(self, seconds: float) -> dict[str, float]:
        self.import_once()  # page cache and bytecode warm before anything is timed
        # The set-up repetitions are spread evenly over the run, so that a phase of the
        # machine running faster or slower does not set their median.
        reps = self.wl.setup_reps
        setup = [self.setup_once()]

        def between_cycles(ran: float) -> None:
            while len(setup) < min(reps, 1 + (reps - 1) * ran / seconds):
                setup.append(self.setup_once())

        cycles = self.loop(seconds, traced=False, between_cycles=between_cycles)
        setup += [self.setup_once() for _ in range(reps - len(setup))]
        # the highest peak among the query processes of each whole cycle
        whole = [c for c in cycles if all(c.get(cmd) and c[cmd].ok for cmd in QUERY_COMMANDS)]
        query_rss = [max(c[cmd].peak_rss_mb for cmd in QUERY_COMMANDS) for c in whole]
        metrics = {
            "setup_s": median(setup),
            "analyze_s": mean([r.wall_s for r in self.samples["analyze"]]),
            "analyze_peak_rss_mb": median([r.peak_rss_mb for r in self.samples["analyze"]]),
            "output_mb": median(self.sizes["output"]) / MB,
            "snapshot_mb": median(self.sizes["snapshot"]) / MB,
            **{f"{cmd}_s": mean([r.wall_s for r in self.samples[cmd]]) for cmd in QUERY_COMMANDS},
            "query_peak_rss_mb": median(query_rss),
        }
        return metrics

    def per_layer(self, seconds: float) -> dict[str, float]:
        self.import_once()
        imports = [self.import_once().wall_s for _ in range(3)]
        self.generate()
        self.loop(seconds, traced=True)
        chain, passed = self._run([sys.executable, str(BENCH / "stage_chain.py")], lambda r: json.loads(r.stdout)["ratio"] > 0)
        ratio = json.loads(chain.stdout)["ratio"] if passed else 0.0

        times, calls, counts = spans.per_process(self.traces)
        m = {name: median(times[span]) for name, span in LAYER_TIMES.items()}
        m |= {name: median(counts[name]) for name in LAYER_COUNTS}
        extract = "sql_columns.extract_attributes"
        m["sql_columns.statements"] = median(calls[extract])
        m["sql_columns.errors"] = median(counts[f"{extract}.errors"])
        m["sql_columns.us_per_statement"] = median([t / c * 1e6 for t, c in zip(times[extract], calls[extract])])
        m["pipeline.stage_chain_ratio"] = ratio
        m["cli.import_s"] = median(imports)
        plain = median([r.wall_s for r in self.samples["analyze"]])
        m["trace.overhead_ratio"] = median([r.wall_s for r in self.samples["traced_analyze"]]) / plain if plain else 0.0
        for cmd in COMMANDS:
            m[f"cli.stdout_bytes.{cmd}"] = median([t["stdout_bytes"] for t in self.traces if t["command"] == cmd])
        for name in RSS_SPANS:
            m[f"process.rss_high_water_mb.{name}"] = median([t["rss_mb"][name] for t in self.traces if name in t["rss_mb"]])
        return m

    def isolation(self, m: dict[str, float]) -> dict:
        """The shares that show which layers a workload exercises, from the traced commands."""
        render_persist, rank_load = [], []
        for trace in self.traces:
            own = spans.self_times(trace["spans"])
            by_name = defaultdict(float)
            for s in trace["spans"]:
                by_name[s["name"]] += own[s["id"]]
            if trace["command"] == "analyze":
                total = sum(by_name.values())
                render_persist.append(sum(v for k, v in by_name.items() if k.startswith(("matrices.", "snapshot."))) / total)
            elif trace["command"] == "rank":
                rank_load.append((by_name["snapshot.load_snapshot"] + by_name["snapshot.from_json_obj"]) / trace["wall_s"])
        layers = {k: v for k, v in m.items() if k in LAYER_TIMES and not k.startswith("cli.")}
        largest = max(layers, key=layers.get)
        rank_wall = median([r.wall_s for r in self.samples["rank"]])
        return {
            "analyze_matrices_snapshot_share": median(render_persist),
            "largest_layer": [largest, layers[largest]],
            "rank_load_share": median(rank_load),
            "rank_import_share": m["cli.import_s"] / rank_wall if rank_wall else 0.0,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "attrscale" / "__init__.py").is_file():
        print(f"error: no attrscale package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            values, units = bench.per_layer(args.seconds), per_layer_units()
        else:
            values, units = bench.end_to_end(args.seconds), dict(END_TO_END)
            values["ok_ops_frac"] = (bench.attempted - bench.failed) / bench.attempted
    finally:
        bench.launcher.close()
    facts = machine_facts(args.seed)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": facts,
        "run_wall_s": time.perf_counter() - t0,
        "checks": bench.chk.count,
        "failed_checks": bench.chk.failures[:50],
        "samples_s": {k: [r.wall_s for r in v] for k, v in bench.samples.items()},
        "samples_cpu_s": {k: [r.cpu_s for r in v] for k, v in bench.samples.items()},
        "samples_rss_mb": {k: [r.peak_rss_mb for r in v] for k, v in bench.samples.items()},
        "sizes": bench.sizes,
        "metrics": values,
    }
    if bench.traces:
        report["isolation"] = bench.isolation(values)
    (bench.work / "result.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if bench.traces:
        (bench.work / "spans.json").write_text(json.dumps(bench.traces), encoding="utf-8")
    for path in bench.work.iterdir():  # keep only the reports; inputs and outputs are large
        if path.name not in ("result.json", "spans.json"):
            shutil.rmtree(path) if path.is_dir() else path.unlink()

    summary = {k: report[k] for k in ("machine", "checks", "run_wall_s", "isolation") if k in report}
    summary["samples"] = {k: len(v) for k, v in bench.samples.items()}
    print(json.dumps(summary))
    for failure in bench.chk.failures[:10]:
        print(f"failed check: {failure}")
    result = {
        "correct": bench.failed == 0 and not bench.chk.failures and bench.chk.count > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
