"""The three benchmark workloads: inputs, one job, output checks, scores.

A job is one complete request to the program: it receives the generated
array (or the path of the ``.npy`` file holding it) and a
``random_state``, builds a fresh estimator, sampler and clusterer or
detector, and returns the finished result. Nothing fitted carries over
from one job to the next.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from repro import (
    ApproximateClusteringPipeline,
    ApproximateOutlierDetector,
    CureClustering,
    KernelDensityEstimator,
)
from repro.core import recommend_settings
from repro.datasets.cure_dataset import cure_dataset1
from repro.datasets.outlier_data import make_outlier_dataset
from repro.density import use_density_backend
from repro.evaluation.agreement import adjusted_rand_index
from repro.evaluation.cluster_match import count_found_clusters
from repro.evaluation.metrics import outlier_precision_recall
from repro.obs import Recorder, use_recorder
from repro.parallel import use_n_jobs
from repro.sharding import use_shards
from repro.utils.filestreams import NpyFileStream
from repro.utils.streams import DataStream

from spans import (
    TimedDataStream,
    TimedNpyFileStream,
    Tracer,
    trace_calls,
    traced_shard_map,
)

__all__ = [
    "WORKLOADS",
    "Workload",
    "Inputs",
    "JobOutput",
    "make_inputs",
    "job_random_state",
    "fingerprint",
    "run_job",
    "check_output",
    "score",
]

N_CLUSTERS = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and the configuration it runs under."""

    name: str
    kind: str  # "cluster" or "outliers"
    n_points: int
    density_backend: str
    shards: int
    n_jobs: int
    on_disk: bool
    #: Dataset passes the configuration declares; any other count fails
    #: the job (KDE pipeline 4, tree pipeline 5 with its 2-pass fit,
    #: detector 3).
    declared_passes: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cluster-kde", "cluster", 100_000, "kde", 1, 1, False, 4),
        Workload(
            "cluster-tree-ooc", "cluster", 250_000, "tree", 2, 2, True, 5
        ),
        Workload("outliers", "outliers", 100_000, "kde", 1, 1, False, 3),
    )
}


@dataclass
class Inputs:
    """Generated inputs plus the ground truth the outputs are scored on."""

    points: np.ndarray
    #: Cluster label per row (-1 noise), or the planted outlier rows.
    truth: np.ndarray
    shapes: list
    radius: float
    path: str | None


def make_inputs(workload: Workload, seed: int, workdir: str) -> Inputs:
    """Generate the workload's inputs from ``seed`` (same seed, same
    inputs); on-disk workloads also write ``input.npy`` under
    ``workdir``."""
    if workload.kind == "cluster":
        data = cure_dataset1(n_points=workload.n_points, random_state=seed)
        inputs = Inputs(data.points, data.labels, data.clusters, 0.0, None)
    else:
        data = make_outlier_dataset(
            n_points=workload.n_points,
            n_dims=2,
            n_outliers=30,
            random_state=seed,
        )
        inputs = Inputs(
            data.points, data.outlier_indices, [], data.guaranteed_radius,
            None,
        )
    if workload.on_disk:
        inputs.path = os.path.join(workdir, "input.npy")
        np.save(inputs.path, inputs.points)
    return inputs


def job_random_state(seed: int, k: int) -> int:
    """The ``random_state`` of job ``k`` in a run with ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


@dataclass
class JobOutput:
    """What one job returned, with the job's wall time and counters."""

    result: object
    wall_s: float
    counters: dict
    tracer: Tracer | None = None


def run_job(
    workload: Workload,
    inputs: Inputs,
    random_state: int,
    tracer: Tracer | None = None,
) -> JobOutput:
    """Run one job; with a ``tracer``, every layer call is a span.

    Both modes install a live :class:`repro.obs.Recorder` (the pipeline
    installs one of its own when none is live, so this costs the
    untraced job nothing extra) and read its counters afterwards.
    """
    recorder = Recorder()
    with ExitStack() as stack:
        stack.enter_context(use_recorder(recorder))
        stack.enter_context(use_n_jobs(workload.n_jobs))
        stack.enter_context(use_shards(workload.shards))
        stack.enter_context(use_density_backend(workload.density_backend))
        if tracer is not None:
            stack.enter_context(traced_shard_map(tracer))
        start = time.perf_counter()
        if tracer is None:
            result = _job(workload, inputs, random_state, None)
        else:
            with tracer.span("job"):
                result = _job(workload, inputs, random_state, tracer)
        wall = time.perf_counter() - start
    return JobOutput(result, wall, dict(recorder.counters), tracer)


def _job(workload, inputs, random_state, tracer):
    source = inputs.path if workload.on_disk else inputs.points
    if tracer is None:
        stream = (NpyFileStream if workload.on_disk else DataStream)(source)
    else:
        with tracer.span("streams.open"):
            timed = TimedNpyFileStream if workload.on_disk else TimedDataStream
            stream = timed(tracer, source)

    if workload.kind == "cluster":
        sampler = recommend_settings("dense-clusters").make_sampler(
            len(stream), random_state=random_state
        )
        estimator = sampler.estimator
        clusterer = CureClustering(n_clusters=N_CLUSTERS + 3)
        program = ApproximateClusteringPipeline(
            n_clusters=N_CLUSTERS,
            sampler=sampler,
            clusterer=clusterer,
            n_jobs=workload.n_jobs,
        )
        method = "fit"
    else:
        estimator = KernelDensityEstimator(
            n_kernels=1000, random_state=random_state
        )
        program = ApproximateOutlierDetector(
            k=inputs.radius, p=0, estimator=estimator,
            random_state=random_state,
        )
        method = "detect"

    if tracer is not None:
        trace_calls(tracer, estimator, "fit", "density.fit")
        trace_calls(tracer, estimator, "evaluate", "density.evaluate", rows=True)
        if workload.kind == "cluster":
            trace_calls(tracer, sampler, "sample", "core.sample")
            trace_calls(
                tracer, clusterer, "fit", "clustering.cure_fit", rows=True,
                counters=("distance_evals",),
            )
            trace_calls(tracer, program, "fit", "pipeline.fit")
        else:
            trace_calls(
                tracer, program, "detect", "outliers.detect",
                counters=("distance_evals",),
            )
    return getattr(program, method)(None, stream=stream)


def check_output(
    workload: Workload, n_rows: int, output: JobOutput
) -> list[str]:
    """Problems with one job's result over ``n_rows`` input rows; an
    empty list means it passed."""
    result = output.result
    problems = []
    if result.n_passes != workload.declared_passes:
        problems.append(
            f"n_passes={result.n_passes}, declared "
            f"{workload.declared_passes}"
        )
    if workload.kind == "cluster":
        labels = np.asarray(result.labels)
        if labels.shape != (n_rows,):
            problems.append(f"labels have shape {labels.shape}")
        elif labels.size and (
            labels.min() < 0 or labels.max() >= N_CLUSTERS
        ):
            problems.append(
                f"labels outside [0, {N_CLUSTERS}): "
                f"[{labels.min()}, {labels.max()}]"
            )
    else:
        indices = np.asarray(result.indices)
        if np.unique(indices).size != indices.size:
            problems.append("outlier indices repeat")
        if indices.size and (indices.min() < 0 or indices.max() >= n_rows):
            problems.append("outlier indices out of range")
    return problems


def fingerprint(output: JobOutput) -> tuple:
    """What a traced job must reproduce byte for byte from its untraced
    twin: the labels or outlier indices, ``n_passes``, ``shard_rows``."""
    result = output.result
    values = getattr(result, "labels", None)
    if values is None:
        values = result.indices
    return (
        np.asarray(values).tobytes(),
        result.n_passes,
        output.counters.get("shard_rows", 0),
    )


def score(workload: Workload, inputs: Inputs, output: JobOutput) -> dict:
    """Quality of one result against the ground truth.

    ``ari``: adjusted Rand index against the truth (clustering: on the
    non-noise rows; outliers: of the outlier/inlier split).
    ``found_frac``: share of the truth found (true clusters found by the
    paper's criterion; planted outliers reported).
    ``precision``: share of what was reported that is real (reported
    clusters whose representatives claim a true cluster; reported
    outliers that were planted).
    """
    result = output.result
    if workload.kind == "cluster":
        clustering = result.clustering
        claimed = sum(
            any(shape.contains(reps).mean() >= 0.9 for shape in inputs.shapes)
            for reps in clustering.representatives
            if reps.shape[0]
        )
        return {
            "ari": adjusted_rand_index(inputs.truth, result.labels),
            "found_frac": count_found_clusters(clustering, inputs.shapes)
            / len(inputs.shapes),
            "precision": claimed / max(1, len(clustering.representatives)),
        }
    n_rows = inputs.points.shape[0]
    truth = np.zeros(n_rows, dtype=np.int64)
    truth[inputs.truth] = 1
    predicted = np.zeros(n_rows, dtype=np.int64)
    predicted[result.indices] = 1
    precision, recall = outlier_precision_recall(result.indices, inputs.truth)
    return {
        "ari": adjusted_rand_index(truth, predicted),
        "found_frac": recall,
        "precision": precision,
    }
