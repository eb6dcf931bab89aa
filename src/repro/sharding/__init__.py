"""Sharded out-of-core scans: plans, mergeable partials, fan-out.

Every fit/eval/gather dataset pass runs through this package. It
splits the pass into ``S`` contiguous row-range shards
(:class:`ShardPlan`), runs each shard through the existing
:mod:`repro.parallel` backends (:func:`shard_map` and the scan helpers
:func:`fit_shards` / :func:`eval_shards` / :func:`sharded_gather`),
and folds the mergeable shard partials with a deterministic left fold
(:func:`merge_partials`). ``S = 1`` is the serial pass, and results
are byte-identical for any shard count and any worker count — see
DESIGN.md §13 for the merge contracts and the determinism argument.

The shard count is configured like the worker count: ``repro run
--shards S``, :func:`use_shards`, or the ``REPRO_SHARDS`` environment
variable. When none is set, a scan uses one shard per worker
(:func:`resolve_shards`).
"""

from repro.sharding.context import SHARDS_ENV, resolve_shards, use_shards
from repro.sharding.partials import (
    BoundsShard,
    GatherShard,
    NormalizerShard,
    ShardFitState,
    TreeCountShard,
    merge_partials,
)
from repro.sharding.plan import ShardPlan, ShardSpec, ShardView
from repro.sharding.runner import (
    SHARD_EVAL_PHASE,
    SHARD_FIT_PHASE,
    SHARD_GATHER_PHASE,
    bounds_shards,
    eval_shards,
    fit_shards,
    shard_map,
    sharded_gather,
    tree_count_shards,
)

__all__ = [
    "SHARD_EVAL_PHASE",
    "SHARD_FIT_PHASE",
    "SHARD_GATHER_PHASE",
    "SHARDS_ENV",
    "BoundsShard",
    "GatherShard",
    "NormalizerShard",
    "ShardFitState",
    "ShardPlan",
    "ShardSpec",
    "ShardView",
    "TreeCountShard",
    "bounds_shards",
    "eval_shards",
    "fit_shards",
    "merge_partials",
    "resolve_shards",
    "shard_map",
    "sharded_gather",
    "tree_count_shards",
    "use_shards",
]
