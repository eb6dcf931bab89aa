"""Mergeable partial-fit states shipped back from shard workers.

Every class here follows the merge algebra the observability layer
already uses for worker counters (and RA007 audits): a worker builds
its partial in isolation, and the coordinator folds the partials with
a deterministic *left fold* in shard order —
``p1.merge(p2).merge(p3)...`` — which equals the one-shard result because
each partial carries its data in stream order and ``merge`` is
order-preserving concatenation, not commutative aggregation. Floating
point is not associative, so no partial pre-reduces across chunks:
reductions (Welford moment folds, normaliser sums) happen once, on the
coordinator, in global chunk order. The two *exact* algebras are the
sanctioned exception — elementwise min/max (:class:`BoundsShard`) and
integer addition (:class:`TreeCountShard`) are associative bit for
bit, so those partials may pre-reduce and merge commutatively.

Memory: O(shard output) per partial — chunk moment statistics are one
``(count, mean, m2)`` triple per chunk, fetched reservoir rows are
bounded by the acceptance plan, gathered rows by the selection mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BoundsShard",
    "GatherShard",
    "NormalizerShard",
    "ShardFitState",
    "TreeCountShard",
    "merge_partials",
]


@dataclass
class ShardFitState:
    """Partial estimator-fit state from one shard of the fit scan.

    Carries per-chunk moment statistics (in stream order, unreduced)
    plus the rows the reservoir acceptance plan wants from this
    shard's row range. ``KernelDensityEstimator.fit_from_partials``
    consumes the left-fold of these.
    """

    chunk_stats: list = field(default_factory=list)
    indices: list = field(default_factory=list)
    rows: list = field(default_factory=list)

    def add_chunk(self, count: int, mean: np.ndarray, m2: np.ndarray) -> None:
        """Record one chunk's moment statistics, in stream order."""
        self.chunk_stats.append((int(count), mean, m2))

    def add_rows(self, indices: np.ndarray, rows: np.ndarray) -> None:
        """Record one chunk's planned reservoir row fetches as a block."""
        self.indices.append(np.asarray(indices, dtype=np.int64))
        self.rows.append(np.asarray(rows, dtype=np.float64))

    def merge(self, other: "ShardFitState") -> "ShardFitState":
        """Left-fold combiner: append ``other``'s shard after this one."""
        self.chunk_stats.extend(other.chunk_stats)
        self.indices.extend(other.indices)
        self.rows.extend(other.rows)
        return self

    def fetched_rows(self) -> dict:
        """The planned row fetches as ``{absolute index: row}``."""
        if not self.indices:
            return {}
        return dict(
            zip(np.concatenate(self.indices).tolist(), np.vstack(self.rows))
        )


@dataclass
class NormalizerShard:
    """Partial density-evaluation state from one shard of the eval scan.

    Holds the per-chunk density slices of one row range, in stream
    order. The fold reassembles the full per-point density array
    byte-identically for any shard count, so the normaliser
    ``k = sum f^a`` and the Horvitz-Thompson inclusion probabilities
    derived from it are exact — they are computed once, on the
    coordinator, from the reassembled array.
    """

    row_start: int
    parts: list = field(default_factory=list)
    seen: int = 0

    def add_values(self, values: np.ndarray) -> None:
        """Record one chunk's density values, in stream order."""
        self.parts.append(np.asarray(values, dtype=np.float64))
        self.seen += int(values.shape[0])

    def merge(self, other: "NormalizerShard") -> "NormalizerShard":
        """Left-fold combiner; shards must be range-adjacent."""
        if other.row_start != self.row_start + self.seen:
            raise ValueError(
                f"cannot merge normalizer shards: right shard starts at "
                f"row {other.row_start}, left shard ends at "
                f"{self.row_start + self.seen}."
            )
        self.parts.extend(other.parts)
        self.seen += other.seen
        return self

    def fill(self, out: np.ndarray) -> None:
        """Write the slices into the preallocated full array."""
        offset = self.row_start
        for values in self.parts:
            out[offset : offset + values.shape[0]] = values
            offset += values.shape[0]


@dataclass
class GatherShard:
    """Partial gather state from one shard of a masked gather scan.

    ``parts`` holds the selected rows of each chunk, in stream order;
    ``seen`` counts every row the shard scanned (selected or not), so
    the coordinator can check the scan against the mask length.
    """

    parts: list = field(default_factory=list)
    seen: int = 0

    def add_chunk(self, chunk: np.ndarray, local_mask: np.ndarray) -> None:
        """Record one chunk's selected rows, in stream order."""
        self.seen += int(chunk.shape[0])
        if local_mask.any():
            self.parts.append(chunk[local_mask])

    def merge(self, other: "GatherShard") -> "GatherShard":
        """Left-fold combiner: append ``other``'s rows after this one."""
        self.parts.extend(other.parts)
        self.seen += other.seen
        return self


@dataclass
class BoundsShard:
    """Partial bounding-box state from one shard of a box-finding scan.

    Elementwise min/max is exactly associative and commutative, so —
    unlike the FP folds above — this partial may pre-reduce across its
    own chunks: the fold over shards equals the one-shard box bit for
    bit.
    """

    mins: np.ndarray | None = None
    maxs: np.ndarray | None = None
    seen: int = 0

    def observe_chunk(self, chunk: np.ndarray) -> None:
        """Fold one chunk's extrema into the shard's running box."""
        self.seen += int(chunk.shape[0])
        lo = chunk.min(axis=0)
        hi = chunk.max(axis=0)
        if self.mins is None:
            self.mins, self.maxs = lo, hi
        else:
            self.mins = np.minimum(self.mins, lo)
            self.maxs = np.maximum(self.maxs, hi)

    def merge(self, other: "BoundsShard") -> "BoundsShard":
        """Left-fold combiner: join the two boxes (exact)."""
        if other.mins is not None:
            if self.mins is None:
                self.mins, self.maxs = other.mins, other.maxs
            else:
                self.mins = np.minimum(self.mins, other.mins)
                self.maxs = np.maximum(self.maxs, other.maxs)
        self.seen += other.seen
        return self


@dataclass
class TreeCountShard:
    """Partial leaf-occupancy counts from one shard of a tree count scan.

    ``counts`` is the ``(n_trees, n_leaves)`` integer occupancy table of
    one row range. Integer addition is exactly associative, so the fold
    over shards equals the one-shard counting scan bit for bit — no
    coordinator-side replay is needed (contrast ``ShardFitState``).
    """

    counts: np.ndarray | None = None
    seen: int = 0

    def add_counts(self, chunk_counts: np.ndarray, rows: int) -> None:
        """Fold one chunk's integer leaf counts into the shard total."""
        self.seen += int(rows)
        if self.counts is None:
            self.counts = np.asarray(chunk_counts, dtype=np.int64)
        else:
            self.counts = self.counts + chunk_counts

    def merge(self, other: "TreeCountShard") -> "TreeCountShard":
        """Left-fold combiner: add the occupancy tables (exact)."""
        if other.counts is not None:
            if self.counts is None:
                self.counts = other.counts
            else:
                self.counts = self.counts + other.counts
        self.seen += other.seen
        return self


def merge_partials(partials):
    """Deterministic left fold of shard partials, in shard order.

    Returns the folded first partial (mutated in place). Raises on an
    empty list — there is no partial to fold into; scans fold from an
    explicit empty partial instead (see :mod:`repro.sharding.runner`).
    """
    partials = list(partials)
    if not partials:
        raise ValueError("no shard partials to merge.")
    folded = partials[0]
    for part in partials[1:]:
        folded = folded.merge(part)
    return folded
