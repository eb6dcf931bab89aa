"""Shard fan-out execution: dispatch, pass bookkeeping, folding.

Every fit/eval/gather dataset pass runs here: one *logical* scan is
executed as ``S`` shard tasks fanned out through the existing
:mod:`repro.parallel` backends, and ``S = 1`` is the serial scan. The
coordinator owns the pass bookkeeping (one ``passes`` bump and one
``data_passes`` count per logical scan); shard workers own only the
per-chunk effects (``points_seen``, ``stream_chunk_rows``,
fault-policy counters), which the parallel harness records on worker
recorders and merges back in submission — i.e. shard — order. The
shard partials themselves are folded with a deterministic left fold
(:func:`repro.sharding.partials.merge_partials`), which is what makes
every scan byte-identical for any ``S`` and any ``n_jobs``.

Workers here are deliberately generator-free: all randomness stays on
the coordinator (reservoir acceptance is pre-planned by
:meth:`repro.density.reservoir.ReservoirSampler.plan`, Bernoulli draws
happen against the reassembled probability array), so shard results
cannot depend on worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataValidationError
from repro.obs import get_recorder
from repro.parallel import parallel_map_chunks
from repro.sharding.context import configured_shards
from repro.sharding.partials import (
    BoundsShard,
    GatherShard,
    NormalizerShard,
    ShardFitState,
    TreeCountShard,
    merge_partials,
)
from repro.sharding.plan import ShardPlan, ShardView

__all__ = [
    "SHARD_EVAL_PHASE",
    "SHARD_FIT_PHASE",
    "SHARD_GATHER_PHASE",
    "bounds_shards",
    "eval_shards",
    "fit_shards",
    "shard_map",
    "sharded_gather",
    "tree_count_shards",
]

#: Span labels for the three scan kinds. They are module constants
#: passed *by parameter* into :func:`shard_map` so every scan opens its
#: span under the same label while each call site stays free of a
#: literal phase string: an audited entry then attributes its one scan
#: to the caller's phase, which is what the declared ``__n_passes__``
#: tables describe.
SHARD_FIT_PHASE = "shard_fit"
SHARD_EVAL_PHASE = "shard_eval"
SHARD_GATHER_PHASE = "shard_gather"


@dataclass(frozen=True)
class _FitTask:
    """One shard of a fit scan: a view plus its planned row fetches."""

    view: ShardView
    wanted: np.ndarray


@dataclass(frozen=True)
class _EvalTask:
    """One shard of a density-evaluation scan."""

    view: ShardView
    evaluate: object


@dataclass(frozen=True)
class _GatherTask:
    """One shard of a masked gather scan; ``mask`` is shard-local."""

    view: ShardView
    mask: np.ndarray


def _counts_shards() -> bool:
    """Whether scans record the ``shard*`` counters.

    Only under a configured shard count (``--shards``, ``use_shards``,
    ``REPRO_SHARDS``): the default split, one shard per worker, is an
    execution detail like ``n_jobs`` and leaves the counters as they
    are for any worker count.
    """
    return configured_shards() is not None


def _scan(plan: ShardPlan, worker, tasks, empty, *, n_jobs, phase):
    """Run one logical scan over ``plan`` and fold its shard partials.

    Records what one pass records at pass granularity (per-chunk
    effects land on the worker recorders via ``iter_chunk_range``),
    plus the ``shard*`` counters when :func:`_counts_shards`. The fold
    starts from ``empty``, the partial of a scan that saw no rows.
    """
    plan.stream.passes += 1
    recorder = get_recorder()
    recorder.count("data_passes")
    counted = _counts_shards()
    if counted:
        recorder.count("shard_rows", plan.n_rows)
    partials = shard_map(worker, tasks, n_jobs=n_jobs, phase=phase)
    if counted and len(partials) > 1:
        recorder.count("shard_merges", len(partials) - 1)
    return merge_partials([empty, *partials])


def shard_map(worker, tasks, *, n_jobs=None, phase=SHARD_FIT_PHASE):
    """Fan shard ``tasks`` out to ``worker`` under a ``phase`` span.

    A shard fan-out reads each row of the plan's stream exactly once:
    the tasks partition the chunk sequence, so the dispatch costs one
    dataset pass in total regardless of ``S`` or ``n_jobs``. Results
    come back in task (shard) order.
    """
    recorder = get_recorder()
    with recorder.phase(phase):
        return parallel_map_chunks(worker, list(tasks), n_jobs=n_jobs)


def _fit_shard_worker(task: _FitTask) -> ShardFitState:
    """Per-chunk moment statistics plus planned reservoir row fetches.

    Generator-free: which rows to fetch was decided up front by the
    coordinator's acceptance plan, and the moment statistics are raw
    per-chunk triples — the Welford fold (not FP-associative) happens
    once, on the coordinator, in global chunk order.
    """
    from repro.density.kde import chunk_moment_stats

    state = ShardFitState()
    wanted = task.wanted
    for offset, chunk in task.view.chunks():
        count, mean, m2 = chunk_moment_stats(chunk)
        state.add_chunk(count, mean, m2)
        lo = int(np.searchsorted(wanted, offset))
        hi = int(np.searchsorted(wanted, offset + chunk.shape[0]))
        if hi > lo:
            state.add_rows(wanted[lo:hi], chunk[wanted[lo:hi] - offset])
    return state


def fit_shards(plan: ShardPlan, wanted_indices, *, n_jobs=None) -> ShardFitState:
    """Run one fit scan over ``plan`` and fold the shard partials.

    ``wanted_indices`` are the sorted absolute row indices the
    reservoir acceptance plan needs fetched; each shard receives only
    the slice that falls inside its row range.
    """
    wanted = np.asarray(wanted_indices, dtype=np.int64)
    tasks = []
    for view in plan.views():
        lo = int(np.searchsorted(wanted, view.spec.row_start))
        hi = int(np.searchsorted(wanted, view.spec.row_stop))
        tasks.append(_FitTask(view=view, wanted=wanted[lo:hi]))
    if _counts_shards():
        get_recorder().count("shards_fitted", len(tasks))
    return _scan(
        plan, _fit_shard_worker, tasks, ShardFitState(),
        n_jobs=n_jobs, phase=SHARD_FIT_PHASE,
    )


@dataclass(frozen=True)
class _BoundsTask:
    """One shard of a bounding-box scan."""

    view: ShardView


@dataclass(frozen=True)
class _TreeCountTask:
    """One shard of a tree leaf-counting scan."""

    view: ShardView
    count: object


def _bounds_shard_worker(task: _BoundsTask) -> BoundsShard:
    """Per-shard bounding box. Min/max is exact, so pre-reducing across
    the shard's chunks is byte-identical for any shard count."""
    shard = BoundsShard()
    for _offset, chunk in task.view.chunks():
        shard.observe_chunk(chunk)
    return shard


def bounds_shards(plan: ShardPlan, *, n_jobs=None) -> BoundsShard:
    """Run one bounding-box scan over ``plan`` and fold the partials."""
    tasks = [_BoundsTask(view=view) for view in plan.views()]
    return _scan(
        plan, _bounds_shard_worker, tasks, BoundsShard(),
        n_jobs=n_jobs, phase=SHARD_FIT_PHASE,
    )


def _tree_count_worker(task: _TreeCountTask) -> TreeCountShard:
    """Per-shard integer leaf-occupancy counts (exactly mergeable)."""
    shard = TreeCountShard()
    for _offset, chunk in task.view.chunks():
        shard.add_counts(task.count(chunk), chunk.shape[0])
    return shard


def tree_count_shards(plan: ShardPlan, count, *, n_jobs=None) -> TreeCountShard:
    """Run one tree-counting scan over ``plan`` and fold the partials.

    ``count`` maps a chunk to its ``(n_trees, n_leaves)`` integer leaf
    occupancy (typically a bound estimator method routing through the
    coordinator-built forest, so all randomness stayed there); each
    shard counts its own row range and the integer tables fold
    exactly.
    """
    tasks = [_TreeCountTask(view=view, count=count) for view in plan.views()]
    if _counts_shards():
        get_recorder().count("shards_fitted", len(tasks))
    return _scan(
        plan, _tree_count_worker, tasks, TreeCountShard(),
        n_jobs=n_jobs, phase=SHARD_FIT_PHASE,
    )


def _eval_shard_worker(task: _EvalTask) -> NormalizerShard:
    """Evaluate one shard's chunks, keeping slices in stream order."""
    shard = NormalizerShard(row_start=task.view.spec.row_start)
    for _offset, chunk in task.view.chunks():
        shard.add_values(task.evaluate(chunk))
    return shard


def eval_shards(plan: ShardPlan, evaluate, *, n_jobs=None) -> NormalizerShard:
    """Run one evaluation scan over ``plan`` and fold the partials.

    ``evaluate`` maps a chunk to its per-row values (typically a bound
    ``estimator.evaluate``); the folded result reassembles the full
    per-point array in stream order.
    """
    tasks = [_EvalTask(view=view, evaluate=evaluate) for view in plan.views()]
    return _scan(
        plan, _eval_shard_worker, tasks, NormalizerShard(row_start=0),
        n_jobs=n_jobs, phase=SHARD_EVAL_PHASE,
    )


def _gather_shard_worker(task: _GatherTask) -> GatherShard:
    """Collect one shard's masked rows, in stream order."""
    shard = GatherShard()
    row_start = task.view.spec.row_start
    for offset, chunk in task.view.chunks():
        local = task.mask[
            offset - row_start : offset - row_start + chunk.shape[0]
        ]
        shard.add_chunk(chunk, local)
    return shard


def sharded_gather(source, mask, *, n_shards=None, n_jobs=None) -> np.ndarray:
    """Masked row gather in one scan, byte-identical for any shard count.

    The mask is precomputed by the coordinator (all randomness stays
    there); each shard slices its own window. The shard count resolves
    through :meth:`ShardPlan.for_stream`. Raises
    :class:`DataValidationError` when the scanned row count disagrees
    with the mask length.
    """
    plan = ShardPlan.for_stream(source, n_shards, n_jobs=n_jobs)
    mask = np.asarray(mask)
    tasks = [
        _GatherTask(
            view=view,
            mask=np.ascontiguousarray(
                mask[view.spec.row_start : view.spec.row_stop]
            ),
        )
        for view in plan.views()
    ]
    folded = _scan(
        plan, _gather_shard_worker, tasks, GatherShard(),
        n_jobs=n_jobs, phase=SHARD_GATHER_PHASE,
    )
    if folded.seen != mask.shape[0]:
        raise DataValidationError(
            f"stream yielded {folded.seen} rows in the gather pass but the "
            f"selection mask covers {mask.shape[0]}; passes disagree "
            "on the surviving-row count."
        )
    if not folded.parts:
        return np.empty((0, source.n_dims))
    return np.vstack(folded.parts)
