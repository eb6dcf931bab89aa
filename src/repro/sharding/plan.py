"""Shard plans: splitting one stream pass into row-range shards.

A :class:`ShardPlan` partitions the *chunk sequence* of a stream pass
into ``S`` contiguous ranges. Splitting on chunk boundaries (never
inside a chunk) is what keeps a scan byte-identical for every shard
count: every downstream consumer — moment accumulators, policy
application, density evaluation — sees exactly the chunks the
one-shard (serial) scan sees, in the same order, merely grouped by
shard.

A :class:`ShardView` is one shard's window onto the parent stream. It
is deliberately *not* a ``DataStream`` subclass: a view is not a
re-iterable pass-counted dataset, it is a single-use reader whose pass
bookkeeping belongs to the coordinating scan (see
:mod:`repro.sharding.runner`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ParameterError
from repro.sharding.context import resolve_shards

__all__ = [
    "ShardPlan",
    "ShardSpec",
    "ShardView",
]


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the chunk sequence.

    Attributes
    ----------
    index:
        Shard position in plan order.
    chunk_lo / chunk_hi:
        Half-open chunk-index range ``[chunk_lo, chunk_hi)``.
    row_start / row_stop:
        Half-open surviving-row range the chunks cover.
    """

    index: int
    chunk_lo: int
    chunk_hi: int
    row_start: int
    row_stop: int

    @property
    def n_rows(self) -> int:
        return self.row_stop - self.row_start

    @property
    def n_chunks(self) -> int:
        return self.chunk_hi - self.chunk_lo


@dataclass(frozen=True)
class ShardView:
    """Single-use reader for one shard's chunk range.

    ``chunks()`` yields ``(absolute surviving-row offset, chunk)``
    pairs byte-identical to the corresponding slice of the parent's
    ``iter_with_offsets()``; per-chunk recorder effects land on the
    ambient (worker) recorder and merge back through the parallel
    harness.
    """

    parent: object
    spec: ShardSpec

    def chunks(self):
        return self.parent.iter_chunk_range(
            self.spec.chunk_lo, self.spec.chunk_hi
        )

    def __reduce__(self):
        # Crossing a process boundary, ship the parent's shard window
        # (an in-memory stream's own rows) instead of the whole parent.
        window = self.parent.shard_window(self.spec.chunk_lo, self.spec.chunk_hi)
        return (ShardView, (window, self.spec))


class ShardPlan:
    """A chunk-aligned split of one stream pass into ``S`` shards.

    Parameters
    ----------
    stream:
        Any stream exposing the shard-support API (``chunk_sizes()``
        and ``iter_chunk_range()``): every ``DataStream`` qualifies.
    n_shards:
        Number of row-range shards. More shards than chunks simply
        leaves the surplus shards empty (they dispatch no work).
    """

    def __init__(self, stream, n_shards: int) -> None:
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ParameterError(f"n_shards must be >= 1; got {n_shards}.")
        sizes = getattr(stream, "chunk_sizes", None)
        if sizes is None:
            raise ParameterError(
                f"{type(stream).__name__} does not expose chunk_sizes(); "
                "it cannot be sharded."
            )
        self.stream = stream
        self.n_shards = n_shards
        self.chunk_sizes: tuple[int, ...] = tuple(int(s) for s in sizes())
        self.n_rows = sum(self.chunk_sizes)
        self.specs: tuple[ShardSpec, ...] = self._split()

    @classmethod
    def for_stream(
        cls, stream, n_shards: int | None = None, *, n_jobs: int | None = None
    ) -> "ShardPlan":
        """Plan one scan of ``stream`` under the resolved shard count.

        The one place a scan's shard count is decided: ``n_shards``,
        else the configured default (:func:`repro.sharding.use_shards`
        / ``REPRO_SHARDS``), else one shard per worker of ``n_jobs``
        (see :func:`repro.sharding.resolve_shards`).
        """
        return cls(stream, resolve_shards(n_shards, n_jobs=n_jobs))

    def _split(self) -> tuple[ShardSpec, ...]:
        n_chunks = len(self.chunk_sizes)
        base, extra = divmod(n_chunks, self.n_shards)
        specs = []
        chunk_lo = 0
        row_start = 0
        for index in range(self.n_shards):
            take = base + (1 if index < extra else 0)
            chunk_hi = chunk_lo + take
            rows = sum(self.chunk_sizes[chunk_lo:chunk_hi])
            specs.append(
                ShardSpec(
                    index=index,
                    chunk_lo=chunk_lo,
                    chunk_hi=chunk_hi,
                    row_start=row_start,
                    row_stop=row_start + rows,
                )
            )
            chunk_lo = chunk_hi
            row_start += rows
        return tuple(specs)

    def views(self) -> list[ShardView]:
        """One :class:`ShardView` per non-empty shard, in plan order."""
        return [
            ShardView(parent=self.stream, spec=spec)
            for spec in self.specs
            if spec.n_chunks
        ]
