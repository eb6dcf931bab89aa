"""Benchmark of the sample-then-mine jobs, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cluster-kde --seed 1 --seconds 25 --trace 0

One client runs jobs in a closed loop: the next job starts only when
the previous one has finished. The first job of the process is the cold
job; the steady-state loop then runs for ``--seconds`` (at least
``MIN_STEADY_JOBS`` jobs). Every output is checked; a job that raises
or fails a check is counted in ``failed`` and the run goes on.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced jobs on the same ``random_state`` and prints the
per-layer metrics of the traced job with the median wall time; each
traced job must reproduce its untraced twin byte for byte, and its
per-layer self times must sum to its root span.

The last line of stdout is the result object; the line before it
records the environment. Metric names and units are read from
``BENCHMARK.json``.
"""
# The result line on stdout is the benchmark's interface, so bare
# print() is the sanctioned sink here.
# repro-lint: disable=RL007

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

__all__ = ["main"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("cluster-kde", "cluster-tree-ooc", "outliers")
SETUP_REPEATS = 5
MIN_STEADY_JOBS = 3
#: Start no job past this many seconds, so the run ends well inside 180 s.
LAST_START_S = 120.0

#: Counters read from the job's repro.obs recorder, by per-layer metric.
COUNTER_METRICS = {
    "density.kernel_evals": "kernel_evals",
    "density.tree_lookups": "tree_lookups",
    "density.tree_nodes_built": "tree_nodes_built",
    "core.sample_rows": "sample_size",
    "streams.rows_read": "points_seen",
    "streams.passes": "data_passes",
    "sharding.shard_rows": "shard_rows",
    "sharding.shard_merges": "shard_merges",
}
#: Span name -> per-layer self-time metric. Every span the benchmark
#: opens is listed, so the self times account for the whole root span.
SELF_TIME_METRICS = {
    "job": "job.self_s",
    "streams.open": "streams.open_s",
    "streams.read": "streams.read_s",
    "density.fit": "density.fit_s",
    "density.evaluate": "density.evaluate_s",
    "core.sample": "core.sample_s",
    "clustering.cure_fit": "clustering.cure_fit_s",
    "pipeline.fit": "pipeline.self_s",
    "outliers.detect": "outliers.detect_self_s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-child", metavar="DIR",
        help="internal: import, generate the inputs into DIR, report timings",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def pin_threads() -> None:
    """One BLAS thread, so ``n_jobs`` x BLAS threads <= nproc for every
    workload; thread backend for ``n_jobs`` > 1. Set before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_PARALLEL_BACKEND"] = "thread"
    for var in ("REPRO_N_JOBS", "REPRO_SHARDS", "REPRO_DENSITY_BACKEND"):
        os.environ.pop(var, None)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(1, path)


def setup_child(args) -> int:
    """Interpreter start + ``import repro`` + input generation, once."""
    start = time.perf_counter()
    import workloads

    imported = time.perf_counter()
    workloads.make_inputs(
        workloads.WORKLOADS[args.workload], args.seed, args.setup_child
    )
    done = time.perf_counter()
    print(json.dumps({
        "import_s": imported - start,
        "inputs_s": done - imported,
    }))
    return 0


def measure_setup(args, workdir: Path) -> dict:
    """Median of ``SETUP_REPEATS`` fresh set-ups, each in its own
    interpreter: wall time seen from here, and the child's own split."""
    walls, imports, inputs = [], [], []
    for repeat in range(SETUP_REPEATS):
        childdir = workdir / f"setup-{repeat}"
        childdir.mkdir()
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--setup-child", str(childdir),
        ]
        start = time.perf_counter()
        child = subprocess.run(
            command, capture_output=True, text=True, timeout=120, cwd=ROOT
        )
        walls.append(time.perf_counter() - start)
        if child.returncode != 0:
            raise RuntimeError(
                f"set-up failed (exit {child.returncode}):\n{child.stderr}"
            )
        report = json.loads(child.stdout.strip().splitlines()[-1])
        imports.append(report["import_s"])
        inputs.append(report["inputs_s"])
        shutil.rmtree(childdir)
    return {
        "setup_s": statistics.median(walls),
        "setup.import_s": statistics.median(imports),
        "setup.inputs_s": statistics.median(inputs),
    }


def environment(args, workload, inputs) -> dict:
    import numpy as np

    from tools.bench_gate import calibrate

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        cwd=ROOT, timeout=30,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "n_jobs": workload.n_jobs,
        "shards": workload.shards,
        "density_backend": workload.density_backend,
        "git_sha": git.stdout.strip() if git.returncode == 0 else "unknown",
        "input_shape": list(inputs.points.shape),
        "calibration_s": calibrate(),
    }


class Run:
    """Jobs of one benchmark run: attempts, failures, measurements."""

    def __init__(self, args, workload, inputs) -> None:
        import workloads

        self.wl = workloads
        self.args = args
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.scores: list[dict] = []
        self.passes: list[int] = []

    def job(self, k: int, tracer=None):
        """Run and check job ``k``; ``None`` when it failed."""
        self.attempted += 1
        # Collect the previous job's garbage now, not inside this job.
        gc.collect()
        try:
            output = self.wl.run_job(
                self.workload,
                self.inputs,
                self.wl.job_random_state(self.args.seed, k),
                tracer,
            )
            problems = self.wl.check_output(
                self.workload, self.inputs.points.shape[0], output
            )
        except Exception:  # a failed job is counted, never fatal
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            print(f"job {k} failed: {problems}", file=sys.stderr)
            self.failed += 1
            return None
        self.passes.append(output.result.n_passes)
        self.scores.append(self.wl.score(self.workload, self.inputs, output))
        return output

    def reject(self, k: int, problem: str) -> None:
        """Count a job that ran but whose trace or twin check failed."""
        print(f"job {k} failed: {problem}", file=sys.stderr)
        self.failed += 1

    def quality(self) -> dict:
        """Mean score over the run's jobs: each job draws its own sample,
        so one job's score is a coin toss the mean smooths out."""
        names = ("ari", "found_frac", "precision")
        if not self.scores:
            return dict.fromkeys(names, 0.0)
        return {
            name: statistics.fmean(s[name] for s in self.scores)
            for name in names
        }


def keep_going(loop_start, process_start, seconds, done, last_wall) -> bool:
    now = time.perf_counter()
    if now - process_start + last_wall > LAST_START_S:
        return False
    return now - loop_start < seconds or done < MIN_STEADY_JOBS


def measure(args, run: Run, process_start: float) -> dict:
    """End-to-end metrics: cold job, then the steady-state loop."""
    cold = run.job(0)
    walls = []
    k, last = 1, cold.wall_s if cold else 0.0
    loop_start = time.perf_counter()
    while keep_going(loop_start, process_start, args.seconds, k - 1, last):
        output = run.job(k)
        k += 1
        if output is not None:
            walls.append(output.wall_s)
            last = output.wall_s
    wall = statistics.median(walls) if walls else 0.0
    print(
        f"steady jobs: {len(walls)}, wall_s median {wall:.4f} "
        f"min {min(walls, default=0):.4f} max {max(walls, default=0):.4f}",
        file=sys.stderr,
    )
    return {
        "wall_s": wall,
        "cold_wall_s": cold.wall_s if cold else 0.0,
        "rows_per_s": run.inputs.points.shape[0] / wall if wall else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "data_passes": statistics.median(run.passes) if run.passes else 0,
        **run.quality(),
    }


def layer_metrics(output) -> tuple[dict, list[str]]:
    """Per-layer numbers of one traced job, and any accounting problem."""
    from spans import self_times

    tracer = output.tracer
    owned = self_times(tracer.spans, tracer.main_thread)
    root = [s for s in tracer.spans if s.name == "job"]
    root_s = root[0].end - root[0].start
    problems = [
        f"span {name!r} has no metric"
        for name in owned
        if name not in SELF_TIME_METRICS
    ]
    if abs(sum(owned.values()) - root_s) > 1e-6 * root_s:
        problems.append(
            f"self times sum to {sum(owned.values())}, root is {root_s}"
        )
    metrics = {
        metric: owned.get(name, 0.0)
        for name, metric in SELF_TIME_METRICS.items()
    }
    metrics.update({
        metric: output.counters.get(counter, 0)
        for metric, counter in COUNTER_METRICS.items()
    })
    rows = tracer.total("density.evaluate", "rows")
    metrics.update({
        "job.traced_wall_s": root_s,
        "density.evaluate_rows": rows,
        "density.evaluate_ns_per_row": (
            1e9 * metrics["density.evaluate_s"] / rows if rows else 0.0
        ),
        "clustering.cure_input_rows": tracer.total(
            "clustering.cure_fit", "rows"
        ),
        "clustering.distance_evals": tracer.total(
            "clustering.cure_fit", "distance_evals"
        ),
        "outliers.candidates": getattr(output.result, "n_candidates", 0),
        "outliers.distance_evals": tracer.total(
            "outliers.detect", "distance_evals"
        ),
    })
    return metrics, problems


def measure_traced(args, run: Run, process_start: float) -> dict:
    """Per-layer metrics: untraced/traced twins on one random_state."""
    from spans import Tracer

    cold = run.job(0)
    untraced, traced = [], []
    k, last = 1, 2 * cold.wall_s if cold else 0.0
    loop_start = time.perf_counter()
    while keep_going(loop_start, process_start, args.seconds, k - 1, last):
        # Alternate which twin runs first, so warm-up favours neither.
        order = (False, True) if k % 2 else (True, False)
        twins = {
            with_trace: run.job(k, Tracer() if with_trace else None)
            for with_trace in order
        }
        plain, with_spans = twins[False], twins[True]
        if plain is not None and with_spans is not None:
            fingerprint = run.wl.fingerprint
            metrics, problems = layer_metrics(with_spans)
            if fingerprint(plain) != fingerprint(with_spans):
                problems.append("traced output differs from untraced")
            if problems:
                run.reject(k, "; ".join(problems))
            else:
                untraced.append(plain.wall_s)
                traced.append((with_spans.wall_s, metrics))
                last = plain.wall_s + with_spans.wall_s
        k += 1
    if not traced:
        return {}
    traced.sort(key=lambda item: item[0])
    _, metrics = traced[(len(traced) - 1) // 2]
    metrics["obs.trace_overhead_frac"] = (
        statistics.median(w for w, _ in traced) / statistics.median(untraced)
        - 1.0
    )
    table = "\n".join(
        f"  {name:<30} {value:.6g}" for name, value in sorted(metrics.items())
    )
    print(f"traced job (median of {len(traced)}):\n{table}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    process_start = time.perf_counter()
    args = parse_args(argv)
    pin_threads()
    if args.setup_child:
        return setup_child(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        setup = measure_setup(args, workdir)
        import workloads

        workload = workloads.WORKLOADS[args.workload]
        inputs = workloads.make_inputs(workload, args.seed, str(workdir))
        run = Run(args, workload, inputs)
        if args.trace:
            values = measure_traced(args, run, process_start)
        else:
            values = measure(args, run, process_start)
        values.update(setup)
        env = environment(args, workload, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it, or it is not empty
            pass

    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"no measurement for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
