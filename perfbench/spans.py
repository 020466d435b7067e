"""Tracing from outside the package: spans around its public functions.

A traced command runs in a fresh process, as the CLI does:

    python3 perfbench/spans.py SPANS_OUT RUN_ID cli analyze --input ...
    python3 perfbench/spans.py SPANS_OUT RUN_ID groups SNAPSHOT

It imports attrscale, replaces the public functions the command calls with
wrappers that record a span (id, parent, name, start, end, run) each, runs
the command exactly as `attrscale` or the groups snippet would, and writes
the spans, the counts taken at the same boundaries, and the RSS high-water
mark after each top-level span to SPANS_OUT when the command ends. The span
record is plain data so that a stage timer inside the program can emit the
same format later.

The functions here that turn span files into per-layer metrics are imported
by run.py.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict

KINDS = ("qaum", "adm", "pdm", "mvsd", "nsm", "nnsm")
_CLASS_KIND = {"UsageMatrix": "qaum", "DependencyMatrix": "adm", "StatsTable": "mvsd"}

# (module, attribute, span name): module-level names looked up by their callers
FUNCTIONS = (
    ("attrscale.cli", "load_catalog", "catalog.load_catalog"),
    ("attrscale.cli", "load_workload", "workload.load_workload"),
    ("attrscale.cli", "select_queries", "workload.select_queries"),
    ("attrscale.cli", "build_usage_set", "workload.build_usage_set"),
    ("attrscale.workload", "extract_attributes", "sql_columns.extract_attributes"),
    ("attrscale.cli", "run_pipeline", "pipeline.run_pipeline"),
    ("attrscale.pipeline", "build_qaum", "pipeline.build_qaum"),
    ("attrscale.pipeline", "build_adm", "pipeline.build_adm"),
    ("attrscale.pipeline", "build_pdm", "pipeline.build_pdm"),
    ("attrscale.pipeline", "compute_mvsd", "pipeline.compute_mvsd"),
    ("attrscale.pipeline", "compute_nsm", "pipeline.compute_nsm"),
    ("attrscale.pipeline", "compute_nnsm", "pipeline.compute_nnsm"),
    ("attrscale.cli", "write_outputs", "snapshot.write_outputs"),
    ("attrscale.snapshot", "render_outputs", "snapshot.render_outputs"),
    ("attrscale.snapshot", "snapshot_to_text", "snapshot.snapshot_to_text"),
    ("attrscale.cli", "load_snapshot", "snapshot.load_snapshot"),
    ("attrscale", "load_snapshot", "snapshot.load_snapshot"),
    ("attrscale.cli", "rank_pairs", "analytics.rank_pairs"),
    ("attrscale.analytics", "rank_pairs", "analytics.rank_pairs"),
    ("attrscale.cli", "explain_pair", "analytics.explain_pair"),
    ("attrscale", "suggest_groups", "analytics.suggest_groups"),
)
MATRIX_CLASSES = ("UsageMatrix", "DependencyMatrix", "MaskedRealMatrix", "StatsTable")

# counts taken from a traced function's result
RESULT_COUNTS = {
    "workload.load_workload": lambda r: {"workload.records": len(r)},
    "workload.build_usage_set": lambda r: {
        "workload.queries_kept": r.query_count,
        "workload.queries_dropped": len(r.dropped),
        "workload.attributes_kept": r.attribute_count,
        "workload.unknown_identifier_queries": len(r.diagnostics),
    },
    "pipeline.run_pipeline": lambda r: {"pipeline.defined_cells": int(r.nnsm.defined.sum()), "pipeline.warnings": len(r.warnings)},
    "snapshot.render_outputs": lambda r: {
        "matrices.csv_bytes": sum(len(v.encode()) for k, v in r.items() if k.endswith(".csv")),
        "matrices.json_bytes": sum(len(v.encode()) for k, v in r.items() if k.split(".")[0] in KINDS and k.endswith(".json")),
        "snapshot.bytes": len(r.get("snapshot.json", "").encode()),
    },
    "analytics.rank_pairs": lambda r: {"analytics.pairs_ranked": len(r.entries)},
    "analytics.suggest_groups": lambda r: {"analytics.groups_found": len(r)},
}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans and counts of one process, kept in memory until the process ends."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.rss_mb: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None, "name": name, "run": self.run}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        except Exception:
            self.counts[f"{name}.errors"] += 1
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if len(self._stack) <= 1:  # the command span and its direct children
                self.rss_mb[name] = max(self.rss_mb.get(name, 0.0), _rss_mb())

    def wrap(self, fn, name_of):
        """fn with a span around every call; name_of(args) names the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args)
            with self.span(name):
                result = fn(*args, **kwargs)
            for key, value in RESULT_COUNTS.get(name, lambda r: {})(result).items():
                self.counts[key] += value
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "rss_mb": self.rss_mb}


def _kind(obj) -> str:
    return _CLASS_KIND.get(type(obj).__name__) or str(obj.kind).lower()


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced function that exists in this version of the package; restore on exit."""
    undo = []
    for module_name, attr, name in FUNCTIONS:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            undo.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(getattr(module, attr), lambda args, name=name: name))
    matrices = importlib.import_module("attrscale.matrices")
    for cls_name in MATRIX_CLASSES:
        cls = getattr(matrices, cls_name, None)
        if cls is None:
            continue
        for method in ("to_csv", "to_json_obj"):
            if method in cls.__dict__:
                undo.append((cls, method, cls.__dict__[method]))
                setattr(cls, method, tracer.wrap(cls.__dict__[method], lambda args, m=method: f"matrices.{m}.{_kind(args[0])}"))
        if isinstance(cls.__dict__.get("from_json_obj"), classmethod):
            undo.append((cls, "from_json_obj", cls.__dict__["from_json_obj"]))
            traced = tracer.wrap(cls.__dict__["from_json_obj"].__func__, lambda args: "snapshot.from_json_obj")
            setattr(cls, "from_json_obj", classmethod(traced))
    try:
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# --- turning span files into per-layer metrics -------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that its child spans cover."""
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def per_process(traces: list[dict]) -> tuple[dict[str, list[float]], dict[str, list[int]], dict[str, list[float]]]:
    """Per layer, one value per traced process that ran it: self-time sums, call counts, and counts."""
    times: dict[str, list[float]] = defaultdict(list)
    calls: dict[str, list[int]] = defaultdict(list)
    counts: dict[str, list[float]] = defaultdict(list)
    for trace in traces:
        own = self_times(trace["spans"])
        total: dict[str, float] = defaultdict(float)
        n: dict[str, int] = defaultdict(int)
        for s in trace["spans"]:
            total[s["name"]] += own[s["id"]]
            n[s["name"]] += 1
        for name in total:
            times[name].append(total[name])
            calls[name].append(n[name])
        for name, value in trace["counts"].items():
            counts[name].append(value)
    return times, calls, counts


def main(argv: list[str]) -> int:
    out_path, run, mode, *rest = argv
    import attrscale
    import attrscale.cli

    tracer = Tracer(run)
    tracer.rss_mb["import"] = _rss_mb()
    code = 0
    with installed(tracer):
        if mode == "cli":
            with tracer.span(f"cli.{rest[0]}"):
                code = attrscale.cli.main(rest)
        elif mode == "groups":
            from proc import GROUPS_ENTRY

            sys.argv = ["-c", *rest]
            with tracer.span("api.groups"):
                exec(compile(GROUPS_ENTRY, "<groups>", "exec"), {"__name__": "__main__"})
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
