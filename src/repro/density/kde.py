"""Kernel density estimation fit in one dataset pass.

This is the estimator the paper builds its sampler on (section 2.2,
following Gunopulos et al. SIGMOD 2000): kernel centers are a uniform
random sample of the dataset — collected with reservoir sampling during
the same pass that accumulates the streaming moments used by the
bandwidth rule — and the estimate is a product-kernel sum scaled so it
integrates to ``n`` over the data domain:

``f(x) = (n / m) * sum_{i=1..m} prod_j K((x_j - c_ij) / h_j) / h_j``

where ``m`` is the number of kernels, ``c_i`` the centers and ``h_j`` the
per-attribute bandwidths.
"""

from __future__ import annotations

import numpy as np

from repro.density.bandwidth import resolve_bandwidth
from repro.density.base import DensityEstimator
from repro.density.kernels import get_kernel
from repro.density.reservoir import ReservoirSampler
from repro.exceptions import ParameterError
from repro.obs import get_recorder
from repro.parallel import parallel_map_chunks
from repro.sharding import ShardPlan, fit_shards, merge_partials
from repro.utils.streams import DataStream
from repro.utils.validation import check_random_state

__all__ = ["KernelDensityEstimator", "chunk_moment_stats"]

#: Scratch budget (elements) for one row tile of the blocked kernel
#: sum: three ``(tile, m)`` float64 buffers of this many elements stay
#: around 1.5 MB total, inside a typical per-core L2 working set.
_EVAL_TILE_ELEMENTS = 65536


def chunk_moment_stats(chunk: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """One chunk's ``(count, mean, m2)`` moment statistics.

    This is the per-chunk half of the Welford update, split out so
    shard workers can compute it remotely: the fold half
    (:meth:`_StreamingMoments.merge_stats`) is not FP-associative and
    must run on the coordinator in global chunk order to stay
    byte-identical for any shard count.
    """
    mean_b = chunk.mean(axis=0)
    m2_b = ((chunk - mean_b) ** 2).sum(axis=0)
    return chunk.shape[0], mean_b, m2_b


class _StreamingMoments:
    """Chunk-merged Welford accumulator for per-attribute mean/variance."""

    def __init__(self) -> None:
        self.count = 0
        self.mean: np.ndarray | None = None
        self.m2: np.ndarray | None = None

    def merge_stats(self, count: int, mean: np.ndarray, m2: np.ndarray) -> None:
        """Fold one chunk's ``(count, mean, m2)`` into the running state.

        Fits replay it with the per-chunk statistics in global chunk
        order, whatever the shard count, so the fitted moments are
        byte-identical.
        """
        if count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = count, mean, m2
            return
        delta = mean - self.mean
        total = self.count + count
        self.mean = self.mean + delta * (count / total)
        self.m2 = self.m2 + m2 + delta**2 * (self.count * count / total)
        self.count = total

    @property
    def std(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros_like(self.mean)
        return np.sqrt(self.m2 / (self.count - 1))


class KernelDensityEstimator(DensityEstimator):
    """Product-kernel density estimator with reservoir-sampled centers.

    Dataset passes: 1 — centers (reservoir) and bandwidth moments are
    both collected in the single fit scan.

    Memory: O(m) — the reservoir of ``n_kernels`` centers plus
    per-attribute moment vectors; evaluation works block by block.

    Parameters
    ----------
    n_kernels:
        Number of kernel centers (the paper recommends 1000; Figure 7
        sweeps 100-1200).
    kernel:
        Kernel name or instance; the paper uses ``"epanechnikov"``.
    bandwidth:
        ``"scott"`` (default), ``"silverman"``, a positive scalar, or a
        per-attribute vector of widths.
    random_state:
        Seed for the reservoir that picks the centers.
    n_jobs:
        Worker count for the fit scan and for :meth:`evaluate`'s
        chunked block evaluation (``None`` defers to the ambient
        default / ``REPRO_N_JOBS``; see :mod:`repro.parallel`). Results
        are byte-identical for any value.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> data = rng.normal(size=(5000, 2))
    >>> kde = KernelDensityEstimator(n_kernels=200, random_state=0).fit(data)
    >>> float(kde.evaluate([[0.0, 0.0]])[0]) > float(kde.evaluate([[4.0, 4.0]])[0])
    True
    """

    __n_passes__ = 1

    #: Peak working-memory bound of fit()/evaluate() (audited by RA005).
    __space__ = "O(m)"

    def __init__(
        self,
        n_kernels: int = 1000,
        kernel: str = "epanechnikov",
        bandwidth="scott",
        random_state=None,
        n_jobs: int | None = None,
    ) -> None:
        if n_kernels < 1:
            raise ParameterError(f"n_kernels must be >= 1; got {n_kernels}.")
        self.n_kernels = int(n_kernels)
        self.kernel = get_kernel(kernel)
        self.bandwidth = bandwidth
        self.random_state = random_state
        self.n_jobs = n_jobs
        # Fitted state
        self.centers_: np.ndarray | None = None
        self.bandwidths_: np.ndarray | None = None
        self.n_points_: int | None = None
        self.n_dims_: int | None = None

    # -- fitting ---------------------------------------------------------------

    def fit(self, data=None, *, stream: DataStream | None = None):
        """Fit in a single pass: reservoir centers + streaming moments.

        The pass is a shard fan-out (:mod:`repro.sharding`; one shard
        per worker unless a shard count is set). The coordinator draws
        the data-free reservoir acceptance plan, consuming the
        generator exactly as streaming the rows through
        :meth:`ReservoirSampler.extend` would, so downstream draws are
        unaffected; shard workers fetch the planned rows and per-chunk
        moment statistics, and :meth:`fit_from_partials` assembles
        them. Byte-identical for any shard count (DESIGN.md §13).
        """
        source = self._as_stream(data, stream)
        rng = check_random_state(self.random_state)
        reservoir = ReservoirSampler(self.n_kernels, random_state=rng)
        plan = ShardPlan.for_stream(source, n_jobs=self.n_jobs)
        accept_plan = reservoir.plan(plan.n_rows)
        state = fit_shards(
            plan, accept_plan.wanted_indices(), n_jobs=self.n_jobs
        )
        get_recorder().count("reservoir_accepts", accept_plan.accepts)
        return self.fit_from_partials([state], accept_plan)

    def fit_from_partials(self, partials, plan):
        """Assemble a fitted estimator from shard partial-fit states.

        Parameters
        ----------
        partials:
            ``ShardFitState`` partials in shard (stream) order — one
            per shard, or a single already-folded state.
        plan:
            The :class:`~repro.density.reservoir.ReservoirPlan` the
            shard row fetches were planned against.
        """
        state = merge_partials(list(partials))
        moments = _StreamingMoments()
        for count, mean, m2 in state.chunk_stats:
            moments.merge_stats(count, mean, m2)
        if moments.count == 0:
            raise ParameterError("cannot fit a density estimator on no data.")
        if moments.count != plan.n_rows:
            raise ParameterError(
                f"shard partials cover {moments.count} row(s) but the "
                f"reservoir plan was drawn for {plan.n_rows}; the plan "
                "must be drawn against the same stream the shards read."
            )
        self.n_points_ = moments.count
        self.centers_ = plan.assemble(state.fetched_rows())
        self.n_dims_ = self.centers_.shape[1]
        self.bandwidths_ = resolve_bandwidth(
            self.bandwidth,
            moments.std,
            self.n_points_,
            self.n_dims_,
            self.kernel,
            scale=float(np.abs(moments.mean).max()),
        )
        return self

    def fit_from_centers(self, centers, n_points: int, bandwidths, std=None):
        """Construct a fitted estimator from precomputed pieces.

        Useful for tests and for transplanting an estimator between
        processes without refitting.

        Parameters
        ----------
        centers:
            Kernel centers, shape ``(m, d)``.
        n_points:
            Dataset size the estimator represents.
        bandwidths:
            Numeric bandwidths (scalar or per-attribute vector), or a
            rule name (``"scott"`` / ``"silverman"``) — the latter only
            together with ``std``: a rule resolved against fabricated
            unit spreads would silently produce wrong widths.
        std:
            Per-attribute standard deviations of the *dataset* (not of
            the centers), required when ``bandwidths`` is a rule name.
        """
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        self.centers_ = centers
        self.n_points_ = int(n_points)
        self.n_dims_ = centers.shape[1]
        if isinstance(bandwidths, str) and std is None:
            raise ParameterError(
                f"bandwidth rule {bandwidths!r} needs the dataset's "
                "per-attribute standard deviations; pass std= or give "
                "numeric bandwidths."
            )
        self.bandwidths_ = resolve_bandwidth(
            bandwidths,
            np.ones(self.n_dims_) if std is None else np.asarray(
                std, dtype=np.float64
            ),
            self.n_points_,
            self.n_dims_,
            self.kernel,
        )
        return self

    # -- evaluation --------------------------------------------------------------

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        # Chunk queries so the (chunk, n_centers) work array stays small.
        chunk_rows = max(1, int(2_000_000 / max(1, self.centers_.shape[0])))
        if points.shape[0] <= chunk_rows:
            return self._evaluate_block(points)
        blocks = [
            points[start : start + chunk_rows]
            for start in range(0, points.shape[0], chunk_rows)
        ]
        # Each block is deterministic, so the ordered slice-fill is
        # byte-identical to the serial loop for any n_jobs. The output
        # length is known up front — fill a preallocated array instead
        # of concatenating the block results (RA006).
        out = np.empty(points.shape[0], dtype=np.float64)
        offset = 0
        for values in parallel_map_chunks(
            self._evaluate_block, blocks, n_jobs=self.n_jobs
        ):
            out[offset : offset + values.shape[0]] = values
            offset += values.shape[0]
        return out

    def _evaluate_block(self, block: np.ndarray) -> np.ndarray:
        m = self.centers_.shape[0]
        rows = int(block.shape[0])
        recorder = get_recorder()
        # One kernel evaluation = one (query point, center) pair.
        recorder.count("kernel_evals", rows * m)
        # Row-tile size: keep the three (tile, m) scratch arrays inside
        # the L2 working set. Tiling over rows only preserves the exact
        # per-row arithmetic (each row's product chain and its axis-1
        # pairwise sum are row-local), so the output is byte-identical
        # to an untiled evaluation.
        tile = max(1, min(rows, int(_EVAL_TILE_ELEMENTS / max(1, m))))
        u = np.empty((tile, m))
        prof = np.empty((tile, m))
        weights = np.empty((tile, m))
        densities = np.empty(rows)
        scale = self.n_points_ / m
        with recorder.phase("kde_eval_block") as span:
            span.set(rows=rows, centers=m)
            for start in range(0, rows, tile):
                stop = min(rows, start + tile)
                r = stop - start
                uu, pp, ww = u[:r], prof[:r], weights[:r]
                # Accumulate the product over dimensions one attribute
                # at a time to avoid materialising a (rows, m, d)
                # tensor; all three scratch buffers are reused across
                # tiles, so the loop allocates nothing per tile. The
                # first factor is written into ``ww`` directly: the
                # product 1.0 * x it stands for equals x bit for bit.
                for j in range(self.n_dims_):
                    h = self.bandwidths_[j]
                    np.subtract(
                        block[start:stop, j, None],
                        self.centers_[None, :, j],
                        out=uu,
                    )
                    uu /= h
                    factor = ww if j == 0 else pp
                    self.kernel.profile(uu, out=factor)
                    factor /= h
                    if j:
                        ww *= pp
                np.sum(ww, axis=1, out=densities[start:stop])
                densities[start:stop] *= scale
        if recorder.enabled:
            recorder.observe("kde_eval_chunk_seconds", span.elapsed)
            if span.elapsed > 0:
                recorder.observe(
                    "kde_eval_rows_per_second", rows / span.elapsed
                )
        return densities

    def ball_mass(self, centers, radius, *, n_mc: int = 256, random_state=None):
        """See :meth:`DensityEstimator.ball_mass` (Monte-Carlo over the ball)."""
        return super().ball_mass(
            centers, radius, n_mc=n_mc, random_state=random_state
        )
