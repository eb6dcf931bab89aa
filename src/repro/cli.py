"""Command-line entry point: ``python -m repro`` / the ``repro`` script.

Commands
--------
``repro list``
    Show every registered experiment with its paper artifact.
``repro run <id> [--scale S] [--seed N]``
    Run one experiment and print its tables.
``repro run all [--scale S] [--seed N]``
    Run the full suite in registry order.
``repro trace export <manifest> --format chrome|prometheus``
    Export a recorded manifest as a Chrome/Perfetto trace or a
    Prometheus scrape.
``repro trace diff <baseline> <candidate>``
    Compare two manifests phase-by-phase; exit 1 on regression.
``repro trace coverage <manifest>``
    Report how much of each phase's wall time its child spans explain.
"""
# The CLI is the terminal surface: stdout IS its output channel, so
# bare print() is the sanctioned sink here.
# repro-lint: disable=RL007

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ReproError
from repro.experiments import EXPERIMENTS, run_experiment
from repro.obs import format_spans

__all__ = [
    "build_parser",
    "main",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Density-biased sampling reproduction "
        "(Kollios et al., ICDE 2001)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    guide = sub.add_parser(
        "guide", help="print the practitioner's-guide settings for a task"
    )
    guide.add_argument(
        "task",
        choices=("dense-clusters", "small-clusters", "outliers", "coverage"),
    )
    guide.add_argument(
        "--noise", type=float, default=0.0,
        help="expected noise fraction in the dataset (default 0)",
    )

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from `repro list`")
    run.add_argument(
        "--scale",
        type=float,
        default=0.2,
        help="dataset-size multiplier vs the paper's setup (default 0.2; "
        "1.0 reproduces paper-scale workloads and can take a while)",
    )
    run.add_argument("--seed", type=int, default=0, help="base random seed")
    run.add_argument(
        "--plot",
        action="store_true",
        help="also render sweep tables as ASCII line plots",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="print the recorded phase/span tree and counters to stderr",
    )
    run.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="append each run's manifest (counters, timers, span tree) "
        "to PATH as one JSON line",
    )
    run.add_argument(
        "--n-jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker count for parallel passes (-1 = all cores; "
        "default: the REPRO_N_JOBS environment variable, else serial). "
        "Results are byte-identical for any value.",
    )
    run.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="S",
        help="split each fit/eval/gather pass into S row-range shards "
        "fanned out through the parallel backend (default: the "
        "REPRO_SHARDS environment variable, else the worker count). "
        "Results are byte-identical for any value.",
    )
    run.add_argument(
        "--density-backend",
        choices=("kde", "tree"),
        default=None,
        help="density-estimator family for every default-built "
        "estimator in the run: kde (the paper's kernel sum) or tree "
        "(random-partition forest; coarser estimates, much faster "
        "lookups). Default: the REPRO_DENSITY_BACKEND environment "
        "variable, else kde.",
    )
    run.add_argument(
        "--fault-policy",
        choices=("strict", "quarantine", "repair"),
        default=None,
        help="how streams handle invalid (NaN/Inf) rows: strict raises "
        "a typed error naming pass and chunk offset (default), "
        "quarantine drops and counts them, repair imputes from chunk "
        "statistics; counts land in the run manifest",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="profile every traced phase (cProfile, scoped per span); "
        "per-function tables attach to the spans and the manifest",
    )
    run.add_argument(
        "--memory",
        action="store_true",
        help="trace allocations (tracemalloc); every span gains a "
        "bytes_alloc attribute",
    )

    trace = sub.add_parser(
        "trace", help="export, diff or analyse recorded run manifests"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    export = trace_sub.add_parser(
        "export", help="export a manifest as a trace/scrape file"
    )
    export.add_argument("manifest", help="manifest file (.jsonl or .json)")
    export.add_argument(
        "--format",
        choices=("chrome", "prometheus"),
        default="chrome",
        help="chrome: Perfetto-loadable trace-event JSON; "
        "prometheus: text exposition (default: chrome)",
    )
    export.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="output file (default: stdout)",
    )
    export.add_argument(
        "--run",
        metavar="NAME",
        default=None,
        help="when the file holds several manifests, pick this run name "
        "(default: the first manifest)",
    )
    export.add_argument(
        "--validate",
        action="store_true",
        help="validate the export (Chrome: B/E pairing and event shape; "
        "Prometheus: round-trip through the minimal parser) and fail "
        "on any problem",
    )

    diff = trace_sub.add_parser(
        "diff", help="compare two manifests phase-by-phase"
    )
    diff.add_argument("baseline", help="baseline manifest file")
    diff.add_argument("candidate", help="candidate manifest file")
    diff.add_argument(
        "--budget",
        type=float,
        default=2.0,
        help="timing noise budget: a phase regresses only beyond this "
        "slowdown factor (default 2.0)",
    )
    diff.add_argument(
        "--counters-only",
        action="store_true",
        help="compare deterministic counters only (exit 1 on any "
        "difference), ignoring wall-clock",
    )
    diff.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="PATTERN",
        help="exclude counters matching this fnmatch pattern from the "
        "comparison (repeatable); e.g. --ignore 'shard*' when diffing "
        "a sharded run against a serial baseline",
    )

    coverage = trace_sub.add_parser(
        "coverage", help="span-tree attribution report for a manifest"
    )
    coverage.add_argument("manifest", help="manifest file (.jsonl or .json)")
    coverage.add_argument(
        "--min",
        type=float,
        default=None,
        metavar="FRACTION",
        dest="min_coverage",
        help="fail (exit 1) if any phase attributes less than FRACTION "
        "of its wall time to child spans",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "trace":
        return _trace_main(args)
    if args.command == "guide":
        from repro.core import recommend_settings

        rec = recommend_settings(args.task, noise_level=args.noise)
        print(f"task: {args.task} (noise {args.noise:.0%})")
        print(f"  exponent a            : {rec.exponent}")
        print(f"  kernels               : {rec.n_kernels}")
        print(f"  sample fraction       : {rec.sample_fraction:.1%}")
        print(f"  density floor fraction: {rec.density_floor_fraction}")
        print(f"  why: {rec.rationale}")
        return 0

    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            spec = EXPERIMENTS[name]
            print(f"{name.ljust(width)}  [{spec.paper_artifact}] "
                  f"{spec.description}")
        return 0

    names = (
        sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    try:
        for name in names:
            result = run_experiment(name, scale=args.scale, seed=args.seed,
                                    plot=args.plot,
                                    metrics_out=args.metrics_out,
                                    n_jobs=args.n_jobs,
                                    shards=args.shards,
                                    density_backend=args.density_backend,
                                    fault_policy=args.fault_policy,
                                    profile=args.profile,
                                    memory=args.memory)
            if args.trace and result.manifest is not None:
                manifest = result.manifest
                print(f"[trace] {name}", file=sys.stderr)
                print(format_spans(manifest.spans), file=sys.stderr)
                counters = "  ".join(
                    f"{key}={value:g}"
                    for key, value in sorted(manifest.counters.items())
                )
                print(f"[trace] counters: {counters}", file=sys.stderr)
            print()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _load_one_manifest(path: str, run: str | None = None):
    """Load one manifest from ``path`` (exits 2 on any load problem)."""
    from repro.obs import load_manifests

    try:
        manifests = load_manifests(path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    if run is not None:
        manifests = [m for m in manifests if m.name == run]
    if not manifests:
        qualifier = f" for run {run!r}" if run is not None else ""
        print(f"error: no manifest{qualifier} in {path}", file=sys.stderr)
        raise SystemExit(2)
    return manifests[-1]


def _trace_main(args) -> int:
    from repro.obs import (
        diff_manifests,
        parse_prometheus,
        span_coverage,
        to_chrome_trace,
        to_prometheus,
        validate_chrome_trace,
    )

    if args.trace_command == "export":
        import json

        manifest = _load_one_manifest(args.manifest, args.run)
        if args.format == "chrome":
            trace = to_chrome_trace(manifest)
            if args.validate:
                problems = validate_chrome_trace(trace)
                if problems:
                    for problem in problems:
                        print(f"invalid trace: {problem}", file=sys.stderr)
                    return 1
            text = json.dumps(trace, indent=2) + "\n"
        else:
            text = to_prometheus(manifest)
            if args.validate:
                try:
                    parse_prometheus(text)
                except ValueError as exc:
                    print(f"invalid exposition: {exc}", file=sys.stderr)
                    return 1
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {args.format} export to {args.output}")
        return 0

    if args.trace_command == "diff":
        baseline = _load_one_manifest(args.baseline)
        candidate = _load_one_manifest(args.candidate)
        try:
            result = diff_manifests(
                baseline,
                candidate,
                budget=args.budget,
                counters_only=args.counters_only,
                ignore=tuple(args.ignore),
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.format())
        return result.exit_code

    manifest = _load_one_manifest(args.manifest)
    coverage = span_coverage(manifest)
    if not coverage:
        print("no phase ran long enough to attribute (all spans are "
              "leaves or sub-5ms)")
        return 0
    failed = False
    for name in sorted(coverage):
        fraction = coverage[name]
        flag = ""
        if args.min_coverage is not None and fraction < args.min_coverage:
            flag = "  [BELOW MIN]"
            failed = True
        print(f"{name:<28} {fraction:6.1%}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    raise SystemExit(main())
