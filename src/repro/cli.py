"""Command-line interface.

Subcommands:

* ``generate`` — generate a synthetic trace and write it to disk.
* ``analyze``  — run the clustering pipeline over a trace file and
  print the per-metric structure summary.
* ``experiment`` — run one (or all) of the registered paper
  experiments and print its rows/series.
* ``validate`` — generate a trace and score the detector against the
  planted ground truth.
* ``report`` — write a one-shot markdown report of a workload's
  problem structure.
* ``remedies`` — suggest remedial actions for the detected critical
  clusters and optionally evaluate them by re-generation.

* ``sweep`` — analyze a trace under several config variants at once,
  building the shared substrate (pack + cluster index) only once.
* ``shard`` — build or inspect an epoch-range shard store; ``analyze``,
  ``sweep`` and ``report`` then accept ``--shard-dir`` to run
  out-of-core over the store (bounded parent memory, bit-identical
  results).
* ``cache`` — inspect or prune a ``--result-cache`` directory: the
  content-addressed store of per-(shard, config) analysis results that
  makes warm sharded re-runs pure load + merge.
* ``obs`` — trace analytics and run-history tooling: render a recorded
  span tree (``view``), compare two runs or a run against its journal
  baseline (``diff``), browse the append-only run journal
  (``journal list/show/trend``), summarize a collapsed-stack profile
  (``flame``), and export a run's metrics in Prometheus text format
  (``export-prom``). Instrumented commands take ``--journal [DIR]`` to
  record themselves and ``--profile [HZ]`` to sample a flamegraph.

Examples::

    repro-video-quality generate --workload tiny --seed 7 -o trace.npz
    repro-video-quality analyze trace.npz
    repro-video-quality sweep trace.npz --threshold-scales 0.5,1.0,2.0
    repro-video-quality shard build trace.npz -o trace.shards
    repro-video-quality analyze --shard-dir trace.shards --workers auto
    repro-video-quality analyze --shard-dir trace.shards --result-cache rc/
    repro-video-quality cache info rc/
    repro-video-quality cache prune rc/ --max-bytes 256M
    repro-video-quality analyze trace.npz --trace-out run.json --journal
    repro-video-quality analyze trace.npz --trace-out run.json --profile 97
    repro-video-quality obs view run.json
    repro-video-quality obs diff run1.json run2.json
    repro-video-quality obs diff --baseline 5 latest
    repro-video-quality obs journal list
    repro-video-quality obs flame run.flame.txt
    repro-video-quality obs export-prom run.json
    repro-video-quality experiment tab1 --workload small
    repro-video-quality validate --workload tiny
    repro-video-quality report --workload small -o report.md
    repro-video-quality remedies --workload tiny --evaluate
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro.analysis.render import render_table
from repro.core.pipeline import analyze_trace
from repro.experiments.context import ExperimentContext
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.io.binary import read_sessions_npz, write_sessions_npz
from repro.io.traceio import (
    read_sessions_csv,
    read_sessions_jsonl,
    write_sessions_csv,
    write_sessions_jsonl,
)
from repro.trace.generator import generate_trace
from repro.trace.workloads import StandardWorkloads

WORKLOAD_NAMES = (
    "tiny",
    "tiny_with_region",
    "small",
    "week",
    "two_weeks",
    "mechanistic_tiny",
    "mechanistic_day",
    "mechanistic_week",
)


def _parse_workers(value: str) -> int | str:
    """Parse a ``--workers`` value: a non-negative int or 'auto'."""
    if value == "auto":
        return "auto"
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer or 'auto', got {value!r}"
        ) from None
    if workers < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be non-negative, got {workers}"
        )
    return workers


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_parse_workers, default=0, metavar="N|auto",
        help="analysis worker processes: 0/1 serial (default), "
        "'auto' one per CPU, N explicit; results are identical "
        "at any worker count",
    )


def _add_substrate_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--substrate-cache", metavar="PATH", default=None,
        help="persistent substrate snapshot: load PATH when it exists "
        "(mmap, milliseconds) instead of re-packing and re-indexing "
        "the trace, otherwise build once and save to PATH; stale or "
        "corrupt snapshots are rebuilt and overwritten; results are "
        "identical either way",
    )


def _add_trace_out_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None, dest="trace_out",
        help="write the run's span tree and metrics as JSON to PATH, "
        "plus a machine-readable run manifest next to it "
        "(<stem>.manifest.json)",
    )


def _add_timings_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timings", action="store_true",
        help="print per-phase pipeline timings (and, when collectors "
        "are installed, the span tree and histogram summaries)",
    )


def _add_journal_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--journal", metavar="DIR", nargs="?", const=".repro-journal",
        default=None, dest="journal",
        help="record this run in the append-only run journal at DIR "
        "(bare flag: .repro-journal); the record combines the run "
        "manifest, per-phase span aggregation, critical path, metrics, "
        "config digest and git SHA, and feeds 'obs diff --baseline' "
        "and 'obs journal'",
    )


def _add_profile_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", metavar="HZ", nargs="?", const=97.0, type=float,
        default=None, dest="profile",
        help="sample the run with the SIGPROF statistical profiler at "
        "HZ (bare flag: 97 Hz) and write the collapsed-stack "
        "flamegraph next to --trace-out as <stem>.flame.txt "
        "(requires --trace-out)",
    )


def _add_shard_dir_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shard-dir", metavar="DIR", default=None, dest="shard_dir",
        help="run out-of-core over an epoch-range shard store (built "
        "with 'shard build'): shards are analyzed independently — "
        "mmap-loaded one at a time (or per pool worker) so peak "
        "memory stays bounded by the largest shard — and merged "
        "exactly; results are identical to the in-memory path",
    )


def _add_result_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--result-cache", metavar="DIR", default=None, dest="result_cache",
        help="content-addressed cache of per-(shard, config) analysis "
        "results (requires --shard-dir): hits skip recomputation "
        "entirely, misses are computed and stored, and any change to "
        "shard bytes or result-affecting config misses automatically; "
        "results are identical either way",
    )


def _parse_size(value: str) -> int:
    """Parse a byte size: plain int or with a K/M/G suffix (powers of
    1024)."""
    multipliers = {"K": 1024, "M": 1024**2, "G": 1024**3}
    raw, mult = value.strip(), 1
    if raw and raw[-1].upper() in multipliers:
        mult = multipliers[raw[-1].upper()]
        raw = raw[:-1]
    try:
        size = int(raw) * mult
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a byte size like 1048576, 512K, 256M or 1G, "
            f"got {value!r}"
        ) from None
    if size < 0:
        raise argparse.ArgumentTypeError(
            f"size must be non-negative, got {value!r}"
        )
    return size


def _peak_rss_line() -> str | None:
    """The ``--timings`` peak-RSS read-out (None where unavailable)."""
    from repro.obs import peak_rss_bytes

    peak = peak_rss_bytes()
    if peak is None:  # pragma: no cover - non-POSIX platforms
        return None
    return f"  peak RSS                 : {peak / 1e6:9.1f} MB"


def _print_timings(timings) -> None:
    print()
    print(timings.render())
    line = _peak_rss_line()
    if line is not None:
        print(line)


def _parse_float_list(value: str) -> list[float]:
    try:
        return [float(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {value!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-video-quality",
        description="Reproduction of 'Shedding Light on the Structure of "
        "Internet Video Quality Problems in the Wild' (CoNEXT 2013)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic session trace")
    gen.add_argument("--workload", choices=WORKLOAD_NAMES, default="tiny")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("-o", "--output", required=True,
                     help="output path (.jsonl, .csv or .npz)")
    gen.add_argument(
        "--no-compress", action="store_true",
        help="write .npz traces uncompressed (faster to write and "
        "re-read; larger files)",
    )
    gen.add_argument(
        "--sim", choices=("auto", "scalar", "batch"), default="auto",
        help="mechanistic-engine execution path: the vectorized batch "
        "kernel ('auto'/'batch') or the reference per-session loop "
        "('scalar'); the paths are bit-identical, so this only matters "
        "for timing comparisons (ignored by statistical workloads)",
    )
    _add_trace_out_arg(gen)
    _add_timings_arg(gen)
    _add_journal_arg(gen)
    _add_profile_arg(gen)

    ana = sub.add_parser("analyze", help="analyze a trace file")
    ana.add_argument("trace", nargs="?", default=None,
                     help="trace path (.jsonl, .csv or .npz); omit when "
                     "--shard-dir is given")
    _add_workers_arg(ana)
    _add_substrate_cache_arg(ana)
    _add_shard_dir_arg(ana)
    _add_result_cache_arg(ana)
    _add_trace_out_arg(ana)
    _add_timings_arg(ana)
    _add_journal_arg(ana)
    _add_profile_arg(ana)

    swp = sub.add_parser(
        "sweep",
        help="analyze a trace under several config variants, sharing one "
        "substrate build",
    )
    swp.add_argument("trace", nargs="?", default=None,
                     help="trace path (.jsonl, .csv or .npz); omit when "
                     "--shard-dir is given")
    swp.add_argument(
        "--ratio-multipliers", type=_parse_float_list, default=None,
        metavar="X,Y,...",
        help="problem-ratio multipliers to sweep (e.g. 1.25,1.5,2.0)",
    )
    swp.add_argument(
        "--threshold-scales", type=_parse_float_list, default=None,
        metavar="X,Y,...",
        help="metric-threshold scale factors to sweep (e.g. 0.5,1.0,2.0)",
    )
    swp.add_argument(
        "--epoch-seconds", type=_parse_float_list, default=None,
        metavar="S,T,...",
        help="epoch lengths in seconds to sweep (e.g. 1800,3600,7200)",
    )
    _add_workers_arg(swp)
    _add_substrate_cache_arg(swp)
    _add_shard_dir_arg(swp)
    _add_result_cache_arg(swp)
    _add_trace_out_arg(swp)
    swp.add_argument("--timings", action="store_true",
                     help="print per-variant pipeline timings")
    _add_journal_arg(swp)
    _add_profile_arg(swp)

    exp = sub.add_parser("experiment", help="run a registered experiment")
    exp.add_argument(
        "experiment_id",
        help=f"experiment id or 'all' (known: {', '.join(sorted(EXPERIMENTS))})",
    )
    exp.add_argument("--workload", choices=WORKLOAD_NAMES, default="small")
    exp.add_argument("--seed", type=int, default=42)
    _add_workers_arg(exp)

    val = sub.add_parser("validate", help="score detector vs planted ground truth")
    val.add_argument("--workload", choices=WORKLOAD_NAMES, default="tiny")
    val.add_argument("--seed", type=int, default=42)

    rep = sub.add_parser("report", help="write a full markdown analysis report")
    rep.add_argument("--workload", choices=WORKLOAD_NAMES, default="small")
    rep.add_argument("--seed", type=int, default=42)
    rep.add_argument("-o", "--output", required=True, help="markdown path")
    _add_workers_arg(rep)
    _add_substrate_cache_arg(rep)
    _add_shard_dir_arg(rep)
    _add_result_cache_arg(rep)
    _add_trace_out_arg(rep)
    _add_timings_arg(rep)
    _add_journal_arg(rep)

    shard = sub.add_parser(
        "shard", help="build or inspect an epoch-range shard store"
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)
    shb = shard_sub.add_parser(
        "build",
        help="partition a trace into epoch-range substrate shards on disk",
    )
    shb.add_argument("trace", help="trace path (.jsonl, .csv or .npz)")
    shb.add_argument("-o", "--output", required=True,
                     help="shard store directory (created if missing)")
    shb.add_argument(
        "--epochs-per-shard", type=int, default=None, metavar="N",
        help="fixed shard width in epochs (ragged last shard; "
        "default 24 when --shards is not given)",
    )
    shb.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="near-equal split into K shards (alternative to "
        "--epochs-per-shard)",
    )
    shb.add_argument(
        "--epoch-seconds", type=float, default=3600.0,
        help="epoch length in seconds (default 3600)",
    )
    _add_trace_out_arg(shb)
    _add_timings_arg(shb)
    _add_journal_arg(shb)
    shi = shard_sub.add_parser("info", help="print a shard store's manifest")
    shi.add_argument("store", help="shard store directory")

    cache = sub.add_parser(
        "cache", help="inspect or prune a --result-cache directory"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cin = cache_sub.add_parser(
        "info", help="print entry count and total bytes of a result cache"
    )
    cin.add_argument("cache_dir", help="result cache directory")
    cpr = cache_sub.add_parser(
        "prune",
        help="evict least-recently-used entries until the cache fits "
        "--max-bytes",
    )
    cpr.add_argument("cache_dir", help="result cache directory")
    cpr.add_argument(
        "--max-bytes", type=_parse_size, required=True, metavar="SIZE",
        help="target cache size (e.g. 1048576, 512K, 256M, 1G); 0 "
        "empties the cache",
    )
    _add_trace_out_arg(cpr)
    _add_timings_arg(cpr)
    _add_journal_arg(cpr)

    obs = sub.add_parser(
        "obs", help="trace analytics, run journal and regression diffs"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    def _add_obs_journal_dir_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--journal", metavar="DIR", default=".repro-journal",
            dest="journal_dir",
            help="run journal directory (default .repro-journal)",
        )

    ovw = obs_sub.add_parser(
        "view",
        help="render a recorded trace JSON: span tree, hotspots, "
        "critical path",
    )
    ovw.add_argument("trace_json", help="a --trace-out JSON file")
    ovw.add_argument("--depth", type=int, default=6, metavar="N",
                     help="maximum span-tree depth to render (default 6)")
    ovw.add_argument("--top", type=int, default=10, metavar="N",
                     help="hotspot rows to show (default 10)")

    odf = obs_sub.add_parser(
        "diff",
        help="compare two runs (or a run vs its journal baseline) with "
        "typed regressed/improved/neutral verdicts",
    )
    odf.add_argument(
        "before",
        help="trace JSON path or journal run id ('latest' for the most "
        "recent record); with --baseline this is the run under test",
    )
    odf.add_argument(
        "after", nargs="?", default=None,
        help="second run to compare against; omit with --baseline",
    )
    odf.add_argument(
        "--baseline", type=int, default=None, metavar="K",
        help="diff the run against the mean of its last K matching "
        "journal runs (same command and config digest) instead of a "
        "second run",
    )
    _add_obs_journal_dir_arg(odf)
    odf.add_argument(
        "--rel", type=float, default=0.25, metavar="FRAC",
        help="relative-change threshold (default 0.25); a phase only "
        "leaves 'neutral' past both this and the absolute floor",
    )
    odf.add_argument(
        "--abs", type=float, default=0.25, metavar="SECONDS", dest="abs_s",
        help="absolute floor in seconds for time-valued changes "
        "(default 0.25)",
    )
    odf.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 3 when any phase or resource regressed",
    )

    ojo = obs_sub.add_parser("journal", help="browse the run journal")
    ojo_sub = ojo.add_subparsers(dest="journal_command", required=True)
    ojl = ojo_sub.add_parser("list", help="list journal records")
    _add_obs_journal_dir_arg(ojl)
    ojl.add_argument("--command", default=None, dest="filter_command",
                     metavar="CMD", help="only records of this command")
    ojl.add_argument("--last", type=int, default=20, metavar="N",
                     help="show only the most recent N records (default 20)")
    ojs = ojo_sub.add_parser("show", help="print one record as JSON")
    ojs.add_argument("run_id", help="run id, unique prefix, or 'latest'")
    _add_obs_journal_dir_arg(ojs)
    ojt = ojo_sub.add_parser(
        "trend",
        help="duration trend across matching records (with per-phase "
        "drill-down via --phase)",
    )
    _add_obs_journal_dir_arg(ojt)
    ojt.add_argument("--command", default=None, dest="filter_command",
                     metavar="CMD", help="only records of this command")
    ojt.add_argument("--phase", default=None, metavar="NAME",
                     help="also track one span name's total time")
    ojt.add_argument("--last", type=int, default=20, metavar="N",
                     help="most recent N records (default 20)")

    ofl = obs_sub.add_parser(
        "flame", help="summarize a collapsed-stack profile (<stem>.flame.txt)"
    )
    ofl.add_argument("flame_file", help="collapsed-stack file")
    ofl.add_argument("--top", type=int, default=10, metavar="N",
                     help="stacks/spans to show (default 10)")

    opr = obs_sub.add_parser(
        "export-prom",
        help="export a trace JSON's metrics snapshot in Prometheus "
        "text format",
    )
    opr.add_argument("trace_json", help="a --trace-out JSON file")

    rem = sub.add_parser(
        "remedies", help="suggest and evaluate remedies for a workload"
    )
    rem.add_argument("--workload", choices=WORKLOAD_NAMES, default="tiny")
    rem.add_argument("--seed", type=int, default=42)
    rem.add_argument("--evaluate", action="store_true",
                     help="re-generate with remedies applied and compare")

    sub.add_parser("list", help="list registered experiments")
    return parser


def _resolve_substrate(args: argparse.Namespace, table=None):
    """Load-or-build for ``--substrate-cache``: returns ``(table, substrate)``.

    Cache hit: the snapshot is mmapped in milliseconds and — when no
    ``table`` was supplied — the trace file is not read at all. Before
    loading, the snapshot's recorded source provenance (trace path,
    size, mtime) is checked against the trace on disk; a stale,
    corrupt, or mismatched snapshot is rebuilt and overwritten rather
    than trusted or fatal. Without ``--substrate-cache`` this reduces
    to ``(_read_trace(args.trace), None)``.
    """
    import os

    path = getattr(args, "substrate_cache", None)
    if path is None:
        return (table if table is not None else _read_trace(args.trace)), None
    from repro.core.substrate import AnalysisSubstrate
    from repro.io.snapshot import (
        load_substrate,
        save_substrate,
        snapshot_staleness,
    )
    from repro.obs import record_degradation

    source = getattr(args, "trace", None)
    if os.path.exists(path):
        reason = snapshot_staleness(path, source)
        substrate = None
        if reason is None:
            try:
                substrate = load_substrate(path)
            except (ValueError, OSError) as exc:
                reason = f"snapshot failed to load ({exc})"
        if substrate is not None:
            if table is None or (
                len(substrate.table) == len(table)
                and np.array_equal(substrate.table.start_time, table.start_time)
            ):
                print(
                    f"substrate cache: loaded {path} "
                    f"({len(substrate.table)} sessions; delete the file to "
                    "rebuild)"
                )
                return substrate.table, substrate
            reason = "snapshot does not match this trace"
        record_degradation("snapshot_rebuild", f"substrate cache {path}: {reason}")
        print(f"substrate cache: {path}: {reason}; rebuilding")
    if table is None:
        table = _read_trace(args.trace)
    substrate = AnalysisSubstrate.build(table)
    save_substrate(substrate, path, source=source)
    print(f"substrate cache: built and saved {path}")
    return table, substrate


def _read_trace(path: str):
    # Chunked column-wise decode: bit-identical to the row-wise reader,
    # much faster on week-scale traces.
    if path.endswith(".jsonl"):
        return read_sessions_jsonl(path, chunked=True)
    if path.endswith(".csv"):
        return read_sessions_csv(path, chunked=True)
    if path.endswith(".npz"):
        return read_sessions_npz(path)
    raise ValueError(
        f"unsupported trace extension: {path} (use .jsonl, .csv or .npz)"
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    import dataclasses

    spec = StandardWorkloads.by_name(args.workload, seed=args.seed)
    if args.sim != spec.sim:
        spec = dataclasses.replace(spec, sim=args.sim)
    trace = generate_trace(spec)
    if args.output.endswith(".jsonl"):
        n = write_sessions_jsonl(trace.table, args.output)
    elif args.output.endswith(".csv"):
        n = write_sessions_csv(trace.table, args.output)
    elif args.output.endswith(".npz"):
        n = write_sessions_npz(
            trace.table, args.output, compress=not args.no_compress
        )
    else:
        raise ValueError("output must end in .jsonl, .csv or .npz")
    print(
        f"wrote {n} sessions ({spec.n_epochs} epochs, "
        f"{len(trace.catalog)} planted events) to {args.output}"
    )
    return 0


def _open_shard_store(args: argparse.Namespace):
    """Validate ``--shard-dir`` flag combinations and open the store."""
    if getattr(args, "substrate_cache", None) is not None:
        raise ValueError(
            "--shard-dir and --substrate-cache are mutually exclusive "
            "(a shard store already persists its substrates)"
        )
    if getattr(args, "trace", None) is not None:
        raise ValueError(
            "give either a trace path or --shard-dir, not both"
        )
    from repro.core.shards import ShardStore

    return ShardStore.open(args.shard_dir)


def _open_result_cache(args: argparse.Namespace):
    """``--result-cache`` flag: a ResultCache, or None when not given.

    The cache memoizes per-shard partials, so it only applies to
    sharded runs; requiring ``--shard-dir`` keeps a silently-ignored
    flag from masquerading as a warm cache.
    """
    path = getattr(args, "result_cache", None)
    if path is None:
        return None
    if getattr(args, "shard_dir", None) is None:
        raise ValueError(
            "--result-cache requires --shard-dir (it memoizes per-shard "
            "results; in-memory runs have no shards to key on)"
        )
    from repro.core.resultcache import ResultCache

    return ResultCache(path)


def _cmd_analyze(args: argparse.Namespace) -> int:
    result_cache = _open_result_cache(args)
    if args.shard_dir is not None:
        from repro.core.shards import analyze_shards

        store = _open_shard_store(args)
        analysis = analyze_shards(
            store, workers=args.workers, result_cache=result_cache,
        )
        n_sessions, source = store.total_sessions, args.shard_dir
    else:
        if args.trace is None:
            raise ValueError("a trace path or --shard-dir is required")
        table, substrate = _resolve_substrate(args)
        analysis = analyze_trace(
            table, workers=args.workers, substrate=substrate
        )
        n_sessions, source = len(table), args.trace
    rows = []
    for name, ma in analysis.metrics.items():
        rows.append(
            [
                name,
                float(ma.problem_ratio_series.mean()),
                ma.mean_problem_clusters,
                ma.mean_critical_clusters,
                ma.mean_critical_cluster_coverage,
            ]
        )
    print(
        render_table(
            ["Metric", "Problem ratio", "Problem clusters", "Critical clusters",
             "Critical coverage"],
            rows,
            title=f"Analysis of {source} "
            f"({n_sessions} sessions, {analysis.grid.n_epochs} epochs)",
        )
    )
    if args.timings:
        _print_timings(analysis.timings)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import dataclasses

    result_cache = _open_result_cache(args)

    from repro.core.metrics import MetricThresholds
    from repro.core.pipeline import AnalysisConfig
    from repro.core.problems import ProblemClusterConfig
    from repro.core.substrate import analyze_sweep

    base = AnalysisConfig()
    variants: list[tuple[str, AnalysisConfig]] = []
    for mult in args.ratio_multipliers or ():
        variants.append((
            f"ratio x{mult:g}",
            dataclasses.replace(
                base,
                problem_config=ProblemClusterConfig(ratio_multiplier=mult),
            ),
        ))
    for scale in args.threshold_scales or ():
        variants.append((
            f"thresholds x{scale:g}",
            dataclasses.replace(
                base, thresholds=MetricThresholds().scaled(scale)
            ),
        ))
    for seconds in args.epoch_seconds or ():
        variants.append((
            f"epoch {seconds:g}s",
            dataclasses.replace(base, epoch_seconds=seconds),
        ))
    if not variants:
        variants = [("baseline", base)]

    if args.shard_dir is not None:
        from repro.core.shards import sweep_shards

        store = _open_shard_store(args)
        analyses = sweep_shards(
            store, [config for _, config in variants], workers=args.workers,
            result_cache=result_cache,
        )
        n_sessions, source = store.total_sessions, args.shard_dir
    else:
        if args.trace is None:
            raise ValueError("a trace path or --shard-dir is required")
        table, substrate = _resolve_substrate(args)
        analyses = analyze_sweep(
            table,
            [config for _, config in variants],
            substrate=substrate,
            workers=args.workers,
        )
        n_sessions, source = len(table), args.trace
    rows = []
    for (label, _), analysis in zip(variants, analyses):
        for name, ma in analysis.metrics.items():
            rows.append(
                [
                    label,
                    name,
                    analysis.grid.n_epochs,
                    ma.mean_problem_clusters,
                    ma.mean_critical_clusters,
                    ma.mean_critical_cluster_coverage,
                ]
            )
    print(
        render_table(
            ["Variant", "Metric", "Epochs", "Problem clusters",
             "Critical clusters", "Critical coverage"],
            rows,
            title=f"Config sweep over {source} ({n_sessions} sessions, "
            f"{len(variants)} variants, one substrate build)",
        )
    )
    if args.timings:
        for (label, _), analysis in zip(variants, analyses):
            print()
            print(f"-- {label} --")
            print(analysis.timings.render())
        line = _peak_rss_line()
        if line is not None:
            print(line)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    ctx = ExperimentContext.generate(
        workload=args.workload, seed=args.seed, workers=args.workers
    )
    ids = sorted(EXPERIMENTS) if args.experiment_id == "all" else [args.experiment_id]
    for experiment_id in ids:
        experiment = get_experiment(experiment_id)
        result = experiment.run(ctx)
        print(f"== {experiment.paper_ref}: {experiment.title} ==")
        print(result.text)
        print()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.runners import run_validation

    ctx = ExperimentContext.generate(workload=args.workload, seed=args.seed)
    print(run_validation(ctx).text)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import write_report
    from repro.core.pipeline import analyze_trace as _analyze

    spec = StandardWorkloads.by_name(args.workload, seed=args.seed)
    trace = generate_trace(spec)
    result_cache = _open_result_cache(args)
    if args.shard_dir is not None:
        analysis = _report_analyze_sharded(args, trace, result_cache)
    else:
        _, substrate = _resolve_substrate(args, table=trace.table)
        analysis = _analyze(
            trace.table, grid=trace.grid, workers=args.workers,
            substrate=substrate,
        )
    path = write_report(
        args.output, trace.table, analysis, catalog=trace.catalog,
        title=f"Problem-structure report — workload {args.workload}, "
        f"seed {args.seed}",
    )
    print(f"wrote report to {path}")
    if args.timings:
        _print_timings(analysis.timings)
    return 0


def _report_analyze_sharded(args: argparse.Namespace, trace, result_cache=None):
    """``report --shard-dir``: reuse a matching store or (re)build one.

    The report workload is generated, not read from disk, so the store
    acts as a cache for the generated trace: an existing store is only
    trusted when its grid matches the workload's.
    """
    import os

    from repro.core.shards import ShardStore, analyze_shards, build_shard_store

    if getattr(args, "substrate_cache", None) is not None:
        raise ValueError(
            "--shard-dir and --substrate-cache are mutually exclusive "
            "(a shard store already persists its substrates)"
        )
    store = None
    if os.path.exists(os.path.join(args.shard_dir, "manifest.json")):
        store = ShardStore.open(args.shard_dir)
        if store.grid != trace.grid or store.total_sessions != len(trace.table):
            print(
                f"shard store: {args.shard_dir} does not match this "
                "workload; rebuilding"
            )
            store = None
    if store is None:
        store = build_shard_store(
            trace.table, args.shard_dir, epochs_per_shard=24, grid=trace.grid
        )
        print(
            f"shard store: built {args.shard_dir} "
            f"({len(store.shards)} shards, {store.total_sessions} sessions)"
        )
    return analyze_shards(
        store, workers=args.workers, result_cache=result_cache
    )


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.core.shards import ShardStore, build_shard_store

    if args.shard_command == "build":
        epochs_per_shard, n_shards = args.epochs_per_shard, args.shards
        if epochs_per_shard is None and n_shards is None:
            epochs_per_shard = 24
        table = _read_trace(args.trace)
        store = build_shard_store(
            table,
            args.output,
            epochs_per_shard=epochs_per_shard,
            n_shards=n_shards,
            epoch_seconds=args.epoch_seconds,
        )
        widths = [s.n_epochs for s in store.shards]
        print(
            f"wrote {len(store.shards)} shards "
            f"({store.total_sessions} sessions, {store.grid.n_epochs} "
            f"epochs, {min(widths)}-{max(widths)} epochs/shard) "
            f"to {args.output}"
        )
        return 0

    store = ShardStore.open(args.store)
    sizes = [store.shard_path(i).stat().st_size for i in range(len(store.shards))]
    print(
        f"shard store {args.store}: {len(store.shards)} shards, "
        f"{store.total_sessions} sessions, {store.grid.n_epochs} epochs "
        f"of {store.grid.epoch_seconds:g}s, {_format_bytes(sum(sizes))} "
        f"on disk, schema {store.schema_digest[:12]}"
    )
    print(
        render_table(
            ["Shard", "File", "Epochs", "Sessions", "Bytes"],
            [
                [i, s.file, f"[{s.epoch_lo}, {s.epoch_hi})", s.sessions,
                 _format_bytes(size)]
                for i, (s, size) in enumerate(zip(store.shards, sizes))
            ],
        )
    )
    return 0


def _format_bytes(n: int) -> str:
    """Human byte count (powers of 1024, one decimal above KiB)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            return f"{int(value)} {unit}" if unit == "B" else f"{value:.1f} {unit}"
        value /= 1024
    raise AssertionError("unreachable")


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.core.resultcache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.cache_command == "prune":
        evicted = cache.evict_to(args.max_bytes)
        stats = cache.stats()
        print(
            f"evicted {len(evicted)} entr{'y' if len(evicted) == 1 else 'ies'}; "
            f"{stats.entries} left, {_format_bytes(stats.total_bytes)} "
            f"(cap {_format_bytes(args.max_bytes)})"
        )
        return 0
    stats = cache.stats()
    print(
        f"result cache {args.cache_dir}: {stats.entries} entries, "
        f"{_format_bytes(stats.total_bytes)}"
    )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    handlers = {
        "view": _cmd_obs_view,
        "diff": _cmd_obs_diff,
        "journal": _cmd_obs_journal,
        "flame": _cmd_obs_flame,
        "export-prom": _cmd_obs_export_prom,
    }
    return handlers[args.obs_command](args)


def _cmd_obs_view(args: argparse.Namespace) -> int:
    from repro.obs.analyze import (
        critical_path,
        load_trace_json,
        render_critical_path,
        render_tree,
        top_spans,
    )

    payload = load_trace_json(args.trace_json)
    tree = payload["trace"]
    print(
        f"trace {args.trace_json}: {tree['name']} "
        f"({float(tree.get('duration_s', 0.0)):.4f} s)"
    )
    print()
    print(render_tree(tree, max_depth=args.depth))
    top = top_spans(tree, n=args.top)
    if top:
        print()
        print(
            render_table(
                ["Span", "Count", "Total s", "Self s", "Max s"],
                [[s.name, s.count, s.total_s, s.self_s, s.max_s]
                 for s in top],
                title=f"Top {len(top)} spans by self time",
            )
        )
    print()
    print("critical path:")
    print(render_critical_path(critical_path(tree)))
    return 0


def _resolve_run(ref: str, journal) -> dict:
    """A diffable record from a trace-JSON path or a journal run id."""
    import os

    from repro.obs.diff import record_from_trace

    if os.path.isfile(ref):
        return record_from_trace(ref)
    if ref == "latest":
        record = journal.latest()
        if record is None:
            raise ValueError(
                f"journal {journal.file} is empty ('latest' resolves "
                "nothing)"
            )
        return record
    record = journal.get(ref)
    if record is None:
        raise ValueError(
            f"{ref!r} is neither a trace JSON file nor a run id in "
            f"{journal.file}"
        )
    return record


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import DiffThresholds, diff_records
    from repro.obs.journal import RunJournal

    thresholds = DiffThresholds(rel=args.rel, abs_s=args.abs_s)
    journal = RunJournal(args.journal_dir)
    record = _resolve_run(args.before, journal)
    if args.baseline is not None:
        if args.after is not None:
            raise ValueError(
                "--baseline compares one run against journal history; "
                "drop the second argument"
            )
        baseline = journal.baseline(record, k=args.baseline)
        if baseline is None:
            raise ValueError(
                f"journal {journal.file} has no other runs matching "
                f"{record.get('run_id')} (command + config digest) to "
                "build a baseline from"
            )
        result = diff_records(baseline, record, thresholds)
    else:
        if args.after is None:
            raise ValueError(
                "obs diff needs two runs, or one run with --baseline K"
            )
        result = diff_records(
            record, _resolve_run(args.after, journal), thresholds
        )
    print(result.render())
    if args.fail_on_regression and result.has_regressions:
        return 3
    return 0


def _format_unix(ts) -> str:
    import datetime

    if ts is None:
        return "-"
    return datetime.datetime.fromtimestamp(
        float(ts), tz=datetime.timezone.utc
    ).strftime("%Y-%m-%d %H:%M:%S")


def _cmd_obs_journal(args: argparse.Namespace) -> int:
    import json

    from repro.obs.journal import RunJournal

    journal = RunJournal(args.journal_dir)
    if args.journal_command == "show":
        if args.run_id == "latest":
            record = journal.latest()
            if record is None:
                raise ValueError(f"journal {journal.file} is empty")
        else:
            record = journal.get(args.run_id)
            if record is None:
                raise ValueError(
                    f"no record {args.run_id!r} in {journal.file}"
                )
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0

    records = journal.records(command=args.filter_command, last=args.last)
    if not records:
        print(f"journal {journal.file}: no matching records")
        return 0
    if args.journal_command == "list":
        print(
            render_table(
                ["Run", "Recorded (UTC)", "Command", "Duration s", "Exit",
                 "Git", "Degraded"],
                [
                    [
                        r.get("run_id", "-"),
                        _format_unix(r.get("recorded_unix")),
                        r.get("command", "-"),
                        f"{float(r.get('duration_s') or 0.0):.4f}",
                        r.get("exit_code"),
                        (r.get("git_sha") or "-")[:10],
                        len(r.get("degradations") or []),
                    ]
                    for r in records
                ],
                title=f"journal {journal.file}: {len(records)} records",
            )
        )
        return 0

    # trend: duration (and optionally one phase) across the records,
    # each with its change relative to the previous matching run.
    headers = ["Run", "Recorded (UTC)", "Command", "Duration s", "Change"]
    if args.phase:
        headers.append(f"{args.phase} s")
    rows = []
    prev = None
    for r in records:
        duration = float(r.get("duration_s") or 0.0)
        change = (
            "-" if not prev else f"{100.0 * (duration - prev) / prev:+.1f}%"
        )
        row = [
            r.get("run_id", "-"),
            _format_unix(r.get("recorded_unix")),
            r.get("command", "-"),
            f"{duration:.4f}",
            change,
        ]
        if args.phase:
            stats = (r.get("phases") or {}).get(args.phase)
            row.append(
                "-" if stats is None
                else f"{float(stats.get('total_s', 0.0)):.4f}"
            )
        rows.append(row)
        if duration > 0:
            prev = duration
    print(
        render_table(
            headers, rows,
            title=f"journal {journal.file}: duration trend "
            f"({len(records)} records)",
        )
    )
    return 0


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    from repro.obs.profile import read_collapsed

    stacks = read_collapsed(args.flame_file)
    if not stacks:
        print(f"{args.flame_file}: no samples")
        return 0
    total = sum(count for _, count in stacks)
    top_n = max(0, args.top)
    ranked = sorted(stacks, key=lambda item: (-item[1], item[0]))[:top_n]
    print(
        render_table(
            ["Stack", "Samples", "Share"],
            [
                [";".join(path), count, f"{100.0 * count / total:.1f}%"]
                for path, count in ranked
            ],
            title=f"{args.flame_file}: {total} samples, "
            f"{len(stacks)} unique stacks",
        )
    )
    leaves: dict[str, int] = {}
    for path, count in stacks:
        leaves[path[-1]] = leaves.get(path[-1], 0) + count
    print()
    print(
        render_table(
            ["Innermost span", "Samples", "Share"],
            [
                [name, count, f"{100.0 * count / total:.1f}%"]
                for name, count in sorted(
                    leaves.items(), key=lambda item: (-item[1], item[0])
                )[:top_n]
            ],
        )
    )
    return 0


def _cmd_obs_export_prom(args: argparse.Namespace) -> int:
    from repro.obs.analyze import load_trace_json
    from repro.obs.prom import render_prometheus

    payload = load_trace_json(args.trace_json)
    metrics = payload.get("metrics")
    if not metrics:
        raise ValueError(
            f"{args.trace_json} carries no metrics snapshot to export "
            "(was the run instrumented?)"
        )
    sys.stdout.write(render_prometheus(metrics))
    return 0


def _cmd_remedies(args: argparse.Namespace) -> int:
    from repro.core.pipeline import analyze_trace as _analyze
    from repro.remedies import evaluate_remedies, suggest_remedies

    spec = StandardWorkloads.by_name(args.workload, seed=args.seed)
    trace = generate_trace(spec)
    analysis = _analyze(trace.table, grid=trace.grid)
    suggestions = {}
    for name, ma in analysis.metrics.items():
        for s in suggest_remedies(trace.world, ma, top_k=4):
            suggestions.setdefault(s.remedy.name, s)
    if not suggestions:
        print("no remedies suggested (no actionable critical clusters)")
        return 0
    print(render_table(
        ["Remedy", "Triggered by", "Rationale"],
        [[s.remedy.name, f"{s.metric} {s.cluster.label()}", s.rationale]
         for s in suggestions.values()],
        title="Suggested remedies",
    ))
    if args.evaluate:
        evaluation = evaluate_remedies(
            spec, [s.remedy for s in suggestions.values()], baseline=trace
        )
        print()
        print(evaluation.render())
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    rows = [
        [e.experiment_id, e.paper_ref, e.title, e.workload]
        for e in EXPERIMENTS.values()
    ]
    print(render_table(["Id", "Paper ref", "Title", "Workload"], rows))
    return 0


def _run_command(args: argparse.Namespace) -> int:
    """Dispatch to the subcommand handler, mapping expected failures
    (bad inputs, unreadable files) to exit code 2 with a one-line
    stderr message. Programming errors still raise."""
    handlers = {
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
        "experiment": _cmd_experiment,
        "validate": _cmd_validate,
        "report": _cmd_report,
        "shard": _cmd_shard,
        "cache": _cmd_cache,
        "obs": _cmd_obs,
        "remedies": _cmd_remedies,
        "list": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    journal_dir = getattr(args, "journal", None)
    profile_hz = getattr(args, "profile", None)
    wants_timings = getattr(args, "timings", False)
    instrumented = (
        trace_out is not None
        or journal_dir is not None
        or profile_hz is not None
        or wants_timings
    )
    if not instrumented:
        return _run_command(args)
    if profile_hz is not None and trace_out is None:
        print(
            "error: --profile requires --trace-out (the collapsed-stack "
            "flamegraph is written next to it)",
            file=sys.stderr,
        )
        return 2
    if profile_hz is not None and profile_hz <= 0:
        print(
            f"error: --profile frequency must be positive, got "
            f"{profile_hz:g}",
            file=sys.stderr,
        )
        return 2

    from repro.obs import (
        MetricsRegistry,
        Tracer,
        build_run_manifest,
        manifest_path_for,
        render_histograms,
        use_metrics,
        use_tracer,
        write_run_manifest,
        write_trace_json,
    )

    tracer = Tracer(name=args.command)
    metrics = MetricsRegistry()
    profiler = None
    with use_tracer(tracer), use_metrics(metrics):
        if profile_hz is not None:
            from repro.obs.profile import SamplingProfiler, profiler_available

            if profiler_available():
                profiler = SamplingProfiler(tracer, hz=profile_hz)
                profiler.start()
            else:  # pragma: no cover - non-POSIX platforms
                from repro.obs import record_degradation

                record_degradation(
                    "profiler_unavailable",
                    "no SIGPROF/setitimer on this platform; "
                    "--profile ignored",
                )
        try:
            code = _run_command(args)
        finally:
            if profiler is not None:
                profiler.stop()
    tracer.finish()
    if profiler is not None:
        metrics.inc("profile.samples", profiler.n_samples)
        metrics.gauge("profile.hz", profiler.hz)
    if wants_timings and code == 0:
        print()
        print(tracer.render())
        histograms = render_histograms(metrics)
        if histograms:
            print()
            print(histograms)
    manifest = build_run_manifest(
        args.command,
        list(argv) if argv is not None else None,
        tracer,
        metrics=metrics,
        args={k: v for k, v in vars(args).items() if k != "command"},
        outputs=[str(trace_out)] if trace_out is not None else [],
        exit_code=code,
    )
    if trace_out is not None:
        write_trace_json(trace_out, tracer, metrics)
        manifest_path = write_run_manifest(
            manifest_path_for(trace_out),
            command=args.command,
            argv=None,
            tracer=tracer,
            manifest=manifest,
        )
        print(f"wrote trace to {trace_out} (run manifest: {manifest_path})")
        if profiler is not None:
            from repro.obs.profile import flame_path_for

            flame_path = profiler.write_collapsed(flame_path_for(trace_out))
            print(
                f"wrote profile to {flame_path} "
                f"({profiler.n_samples} samples at {profiler.hz:g} Hz)"
            )
    if journal_dir is not None:
        from repro.obs.journal import RunJournal

        try:
            record = RunJournal(journal_dir).ingest(
                manifest, trace=tracer.as_dict()
            )
            print(f"journal: recorded {record['run_id']} in {journal_dir}")
        except (OSError, ValueError) as exc:
            print(f"error: journal ingestion failed: {exc}", file=sys.stderr)
            if code == 0:
                code = 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
