"""Command-line front end: analyze, rank, explain, diff.

Each command calls the library (a Snapshot's bundle, which runs the
pipeline, rank_pairs, explain_pair, diff_rankings) and only formats what it
returns. rank and diff receive numpy columns and write their rows through
_write_rows, a block of rows per sys.stdout.write, with each score column of
a block rounded by one matrices._float_texts call, so no command holds its
whole report. rank gathers the NSM and ADM cells of only the rows it shows,
from the bundle. diff ranks the old snapshot's bundle and frees it before
the new snapshot's pipeline runs, so it holds one bundle at a time. explain
rounds its few values one at a time with matrices.format_value, which
_float_texts agrees with.

Exit codes: 0 success (warnings allowed, or a reader that closed stdout
early), 1 input/parse error, 2 empty analysis. One command per process; no
state survives an invocation.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analytics import RANK_KEYS, diff_rankings, explain_pair, rank_pairs
from .catalog import load_catalog
from .errors import AttrScaleError, EmptyAnalysisError, UnknownAttributeError
from .matrices import UNDEFINED_CSV, _float_texts, format_value
from .snapshot import EXPORT_FORMATS, RunConfig, Snapshot, load_snapshot, write_outputs
from .workload import WORKLOAD_FORMATS, SelectionSpec, build_usage_set, load_workload, select_queries

OUT_DIR_ENV = "ATTRSCALE_OUT"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_EMPTY_ANALYSIS = 2

_BLOCK_ROWS = 1 << 10  # report rows formatted and written at once


class _UsageError(AttrScaleError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 is reserved for empty analysis here
    def error(self, message):
        raise _UsageError(message)


def _parse_selection(select: str, seed: int | None, threshold: float) -> SelectionSpec:
    if select == "all":
        return SelectionSpec(mode="all", seed=seed, usage_threshold=threshold)
    if select.startswith("random:"):
        try:
            count = int(select.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad --select value {select!r}: random needs an integer count") from None
        if seed is None:
            raise _UsageError("--select random:K requires --seed")
        return SelectionSpec(mode="random", count=count, seed=seed, usage_threshold=threshold)
    if select.startswith("interval:"):
        bounds = select.split(":", 1)[1]
        if ".." not in bounds:
            raise _UsageError(f"bad --select value {select!r}: interval needs start..end")
        lo, hi = bounds.split("..", 1)
        try:
            start, end = int(lo), int(hi)
        except ValueError:
            raise _UsageError(f"bad --select value {select!r}: interval bounds must be integers") from None
        return SelectionSpec(mode="interval", start=start, end=end, seed=seed, usage_threshold=threshold)
    raise _UsageError(f"bad --select value {select!r} (expected all, random:K, or interval:T1..T2)")


def _fmt(value: float | None, precision: int) -> str:
    return UNDEFINED_CSV if value is None else format_value(value, precision)


def _texts(column: np.ndarray, names: tuple[str, ...], precision: int) -> list:
    """The field values of a report column: rows of two indices into names as "a,b" name pairs,
    floats as format_value shows them at precision, integers as themselves."""
    if column.ndim == 2:
        return [f"{names[a]},{names[b]}" for a, b in column.tolist()]
    if column.dtype.kind == "f":
        return _float_texts(column, precision)
    return column.tolist()


def _write_rows(template: str, names: tuple[str, ...], precision: int, *columns: np.ndarray) -> None:
    """Write one line of template per row of the equally long columns, formatted by _texts, with one
    sys.stdout.write per block of _BLOCK_ROWS lines."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        sys.stdout.write("".join(map(template.format, *(_texts(c[rows], names, precision) for c in columns))))


def cmd_analyze(args: argparse.Namespace) -> int:
    out_dir = args.out or os.environ.get(OUT_DIR_ENV)
    if not out_dir:
        raise _UsageError(f"--out is required (or set {OUT_DIR_ENV})")
    selection = _parse_selection(args.select, args.seed, args.threshold)
    config = RunConfig(
        input_path=args.input,
        input_format=args.input_format,
        catalog_path=args.catalog,
        selection=selection,
        out_dir=str(out_dir),
        export_format=args.format,
        precision=args.precision,
    )
    catalog = load_catalog(config.catalog_path)
    # nested, so the records and the selection are freed as soon as the call that reads each returns
    usage = build_usage_set(
        select_queries(load_workload(config.input_path, config.input_format), selection),
        catalog,
        selection.usage_threshold,
    )
    snap = Snapshot(config=config, usage=usage)
    bundle = snap.bundle  # the pipeline runs before anything is created on disk
    write_outputs(snap, out_dir)

    isolated = sum(1 for w in bundle.warnings if w.get("code") == "isolated_attribute")
    print(f"queries analyzed (m): {usage.query_count}")
    print(f"attributes analyzed (n): {usage.attribute_count}")
    print(f"dropped queries: {len(usage.dropped)}")
    print(f"isolated attributes: {isolated}")
    if bundle.warnings:
        print(f"warnings: {len(bundle.warnings)} (see warnings.json)")
    print(f"outputs written to: {out_dir}")
    return EXIT_OK


def cmd_rank(args: argparse.Namespace) -> int:
    if args.top < 0:
        raise _UsageError(f"--top must be non-negative, got {args.top}")
    snap = load_snapshot(args.snapshot)
    bundle = snap.bundle
    ranking = rank_pairs(bundle, args.key)
    shown = ranking.entries[: args.top]
    sys.stdout.write(f"key: {ranking.key}  pairs ranked: {len(ranking.entries)}  showing: {len(shown)}\n")
    if len(shown):
        a, b = shown.T
        sys.stdout.write("rank  pair                      nnsm        nsm         adm\n")
        _write_rows(
            "{:<5} {:<25} {:<11} {:<11} {}\n",
            ranking.attributes,
            snap.config.precision,
            np.arange(1, len(shown) + 1),
            shown,
            ranking.nnsm[: args.top],
            bundle.nsm.values[a, b],
            bundle.adm.counts[a, b],
        )
    if not len(ranking.entries):
        print("warning: every scale cell is undefined; nothing to rank", file=sys.stderr)
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    if "," not in args.pair:
        raise _UsageError(f"bad --pair value {args.pair!r} (expected A,B)")
    name_a, name_b = (part.strip() for part in args.pair.split(",", 1))
    if not name_a or not name_b:
        raise _UsageError(f"bad --pair value {args.pair!r} (expected A,B)")
    snap = load_snapshot(args.snapshot)
    try:
        info = explain_pair(snap.bundle, name_a, name_b)
    except UnknownAttributeError as exc:
        threshold = snap.config.selection.usage_threshold
        if threshold <= 0:
            raise
        raise AttrScaleError(
            f"{exc} (not among the {len(snap.bundle.attributes)} analyzed attributes; "
            f"the usage threshold {threshold!r} may have removed it)"
        ) from exc
    p = snap.config.precision
    ids = ", ".join(info.co_occurring_queries) if info.co_occurring_queries else "(none)"
    print(f"pair: {info.a}, {info.b}")
    print(f"co-occurring queries ({len(info.co_occurring_queries)}): {ids}")
    print(f"adm count: {info.adm}")
    print(f"total measure: {info.a}={info.total_measure_a}, {info.b}={info.total_measure_b}")
    print(f"pdm: {info.a}->{info.b} {_fmt(info.pdm_ab, p)}, {info.b}->{info.a} {_fmt(info.pdm_ba, p)}")
    print(f"sd: {info.a}={_fmt(info.sd_a, p)}, {info.b}={_fmt(info.sd_b, p)}")
    print(f"nsm: {_fmt(info.nsm, p)}")
    print(f"nnsm: {info.a}->{info.b} {_fmt(info.nnsm_ab, p)}, {info.b}->{info.a} {_fmt(info.nnsm_ba, p)}")
    return EXIT_OK


def cmd_diff(args: argparse.Namespace) -> int:
    old = rank_pairs(load_snapshot(args.old).bundle)  # the old bundle is freed before the new one is built
    new = load_snapshot(args.new)
    p = new.config.precision
    diff = diff_rankings(old, rank_pairs(new.bundle))
    del old, new  # the report is written from diff alone
    names = diff.attributes
    if not names:
        raise AttrScaleError("snapshots have disjoint catalogs; nothing to compare")
    sys.stdout.write(
        f"shared attributes: {len(names)}\n"
        f"pairs compared: {len(diff.common)}  appeared: {len(diff.appeared)}  disappeared: {len(diff.disappeared)}\n"
    )
    if len(diff.common):
        sys.stdout.write("pair                      old         new         delta       rank old->new\n")
        _write_rows(
            "{:<25} {:<11} {:<11} {:<11} {}->{}\n",
            names,
            p,
            diff.common,
            diff.old_scores,
            diff.new_scores,
            diff.new_scores - diff.old_scores,
            diff.old_ranks,
            diff.new_ranks,
        )
    _write_rows("appeared: {} at {}\n", names, p, diff.appeared, diff.appeared_scores)
    _write_rows("disappeared: {} was {}\n", names, p, diff.disappeared, diff.disappeared_scores)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="attrscale", description="Numeric scale of inter-attribute dependency from query workloads")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run the full pipeline over a workload")
    p_analyze.add_argument("--input", required=True, help="workload file (JSON lines)")
    p_analyze.add_argument("--input-format", required=True, choices=WORKLOAD_FORMATS)
    p_analyze.add_argument("--catalog", required=True, help="attribute catalog file")
    p_analyze.add_argument("--select", default="all", help="all | random:K | interval:T1..T2")
    p_analyze.add_argument("--seed", type=int, default=None, help="seed for random selection")
    p_analyze.add_argument("--threshold", type=float, default=0.0, help="minimum usage ratio to keep an attribute")
    p_analyze.add_argument("--out", default=None, help=f"output directory (default: ${OUT_DIR_ENV})")
    p_analyze.add_argument("--format", default="both", choices=EXPORT_FORMATS)
    p_analyze.add_argument("--precision", type=int, default=2, help="display decimals for CSV and reports")
    p_analyze.set_defaults(func=cmd_analyze)

    p_rank = sub.add_parser("rank", help="rank attribute pairs from a snapshot")
    p_rank.add_argument("--snapshot", required=True)
    p_rank.add_argument("--key", default="nnsm-min", choices=RANK_KEYS)
    p_rank.add_argument("--top", type=int, default=10)
    p_rank.set_defaults(func=cmd_rank)

    p_explain = sub.add_parser("explain", help="trace one attribute pair through every stage")
    p_explain.add_argument("--snapshot", required=True)
    p_explain.add_argument("--pair", required=True, help="two attribute names: A,B")
    p_explain.set_defaults(func=cmd_explain)

    p_diff = sub.add_parser("diff", help="compare two snapshots over their shared attributes")
    p_diff.add_argument("--old", required=True)
    p_diff.add_argument("--new", required=True)
    p_diff.set_defaults(func=cmd_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (e.g. `| head`); that is not an input error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the final flush cannot raise
        return EXIT_OK
    except EmptyAnalysisError as exc:
        print(f"empty analysis: {exc}", file=sys.stderr)
        return EXIT_EMPTY_ANALYSIS
    except AttrScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
