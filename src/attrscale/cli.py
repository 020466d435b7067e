"""Command-line front end: analyze, rank, explain, diff.

Exit codes: 0 success (warnings allowed, or a reader that closed stdout
early), 1 input/parse error, 2 empty analysis. One command per process; no
state survives an invocation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analytics import RANK_KEYS, explain_pair, rank_pairs
from .catalog import load_catalog
from .errors import AttrScaleError, EmptyAnalysisError
from .matrices import UNDEFINED_CSV, format_value
from .pipeline import ScaleBundle, run_pipeline
from .snapshot import EXPORT_FORMATS, RunConfig, Snapshot, load_snapshot, write_outputs
from .workload import WORKLOAD_FORMATS, SelectionSpec, build_usage_set, load_workload, select_queries

OUT_DIR_ENV = "ATTRSCALE_OUT"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_EMPTY_ANALYSIS = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 is reserved for empty analysis here
    def error(self, message):
        raise _UsageError(message)


def _parse_selection(select: str, seed: int | None, threshold: float) -> SelectionSpec:
    if select == "all":
        return SelectionSpec(mode="all", usage_threshold=threshold)
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
        return SelectionSpec(mode="interval", start=start, end=end, usage_threshold=threshold)
    raise _UsageError(f"bad --select value {select!r} (expected all, random:K, or interval:T1..T2)")


def _fmt(value: float | None, precision: int) -> str:
    return UNDEFINED_CSV if value is None else format_value(value, precision)


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
    records = load_workload(config.input_path, config.input_format)
    selected = select_queries(records, selection)
    usage = build_usage_set(selected, catalog, selection.usage_threshold)
    bundle = run_pipeline(usage)
    snap = Snapshot(config=config, usage=usage, bundle=bundle)
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
    ranking = rank_pairs(snap.bundle, args.key)
    precision = snap.config.precision
    entries = ranking.entries[: args.top]
    print(f"key: {ranking.key}  pairs ranked: {len(ranking.entries)}  showing: {len(entries)}")
    if entries:
        print("rank  pair                      nnsm        nsm         adm")
        for pos, e in enumerate(entries, start=1):
            pair = f"{e.a},{e.b}"
            print(
                f"{pos:<5} {pair:<25} {_fmt(e.nnsm, precision):<11} {_fmt(e.nsm, precision):<11} {e.adm}"
            )
    for warning in ranking.warnings:
        print(f"warning: {warning['message']}", file=sys.stderr)
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    if "," not in args.pair:
        raise _UsageError(f"bad --pair value {args.pair!r} (expected A,B)")
    name_a, name_b = (part.strip() for part in args.pair.split(",", 1))
    if not name_a or not name_b:
        raise _UsageError(f"bad --pair value {args.pair!r} (expected A,B)")
    snap = load_snapshot(args.snapshot)
    info = explain_pair(snap.bundle, name_a, name_b)
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


def _pair_scores(bundle: ScaleBundle, shared: set[str]) -> dict[tuple[str, str], tuple[float, int]]:
    """(nnsm-min score, rank) per unordered shared pair with at least one defined cell.

    The rank is the pair's position among the shared pairs in rank_pairs order.
    """
    entries = (e for e in rank_pairs(bundle).entries if e.a in shared and e.b in shared)
    return {tuple(sorted((e.a, e.b))): (e.nnsm, pos) for pos, e in enumerate(entries, start=1)}


def cmd_diff(args: argparse.Namespace) -> int:
    old = load_snapshot(args.old)
    new = load_snapshot(args.new)
    shared = set(old.bundle.attributes) & set(new.bundle.attributes)
    if not shared:
        raise AttrScaleError("snapshots have disjoint catalogs; nothing to compare")
    old_scores = _pair_scores(old.bundle, shared)
    new_scores = _pair_scores(new.bundle, shared)
    common = sorted(set(old_scores) & set(new_scores))
    added = sorted(set(new_scores) - set(old_scores))
    removed = sorted(set(old_scores) - set(new_scores))
    p = new.config.precision

    print(f"shared attributes: {len(shared)}")
    print(f"pairs compared: {len(common)}  appeared: {len(added)}  disappeared: {len(removed)}")
    if common:
        rows = sorted(common, key=lambda pair: (-abs(new_scores[pair][0] - old_scores[pair][0]), pair))
        print("pair                      old         new         delta       rank old->new")
        for pair in rows:
            (was, old_rank), (now, new_rank) = old_scores[pair], new_scores[pair]
            label = f"{pair[0]},{pair[1]}"
            print(
                f"{label:<25} {_fmt(was, p):<11} {_fmt(now, p):<11} {_fmt(now - was, p):<11} "
                f"{old_rank}->{new_rank}"
            )
    for pair in added:
        print(f"appeared: {pair[0]},{pair[1]} at {_fmt(new_scores[pair][0], p)}")
    for pair in removed:
        print(f"disappeared: {pair[0]},{pair[1]} was {_fmt(old_scores[pair][0], p)}")
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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
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
