"""Random-partition forest density estimator (tree backend).

The KDE hot path costs ``points x centers`` kernel evaluations per
query chunk. Following Wells & Ting ("A simple efficient density
estimator that enables fast systematic search"), this module trades the
kernel sum for ``T`` random axis-aligned partition trees built over the
data bounding box: each tree splits every box at a uniformly drawn
fraction of a uniformly drawn attribute, down to a fixed depth, and the
density at ``x`` is the average over trees of ``count(leaf(x)) /
volume(leaf(x))``. Routing a row to its leaf costs ``T`` table gathers
through a per-tree cell overlay (``T x depth`` comparisons on the
descent fallback) instead of O(m·d) kernel products, and the estimate
still integrates to ``n`` over the domain, which is the normalisation
the paper's biased-sampling algebra needs (section 2.1).

Tree *structure* is drawn once, on the coordinator, from the seeded
generator; the counting scan is pure integer accumulation. Integer
addition is exactly associative, so the counting scan's shard
partials merge byte-identically for any shard count (DESIGN.md §14) —
unlike the FP moment folds of the KDE fit, no ordering discipline is
needed.
"""

from __future__ import annotations

import numpy as np

from repro.density.base import DensityEstimator
from repro.exceptions import ParameterError
from repro.obs import get_recorder
from repro.sharding import ShardPlan, bounds_shards, tree_count_shards
from repro.utils.streams import DataStream
from repro.utils.validation import check_random_state

__all__ = ["TreeDensityEstimator", "tree_leaf_indices"]

#: Rows routed per block, when counting and when evaluating, by the
#: descent: keeps its (trees, rows) state and gather temporaries small.
#: Each row's leaf path is independent, so the per-row results are
#: byte-identical for any blocking.
_EVAL_BLOCK_ROWS = 8192

#: Rows routed per block through the overlay. Its state is a handful
#: of per-row buffers (about 2 MB at this size, inside a per-core L2),
#: and a larger block spreads the per-call cost of the ``trees x dims``
#: table gathers over more rows.
_OVERLAY_BLOCK_ROWS = 32768

#: Uniform quantization bins per dimension for the O(1) lookup tables
#: built at fit time. Bin assignment is monotone in the coordinate, so
#: the table lookup resolves to the exact descent leaf for any bin
#: count; finer bins only shrink the (exactly handled) fraction of
#: queries that fall into a bin holding two or more thresholds.
_EVAL_BINS = 4096

#: Ceiling on overlay cells per tree (product over dimensions of
#: thresholds + 1). Above it — high-dimensional forests where the
#: per-dim threshold grid's cross product explodes — counting and
#: evaluation fall back to the level-by-level descent.
_EVAL_CELL_CAP = 1 << 17

#: Split fractions are drawn from [_SPLIT_LO, 1 - _SPLIT_LO] of the
#: parent box width, so every child keeps at least a quarter of the
#: parent's extent and leaf volumes are bounded away from zero.
_SPLIT_LO = 0.25


def tree_leaf_indices(
    points: np.ndarray, features: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Leaf index of each query row in each tree, shape ``(T, rows)``.

    ``features`` / ``thresholds`` hold the forest in heap order — node
    ``i``'s children are ``2i+1`` (left, ``value <= threshold``) and
    ``2i+2`` — with shape ``(T, n_leaves - 1)``. The descent is
    vectorised level by level across all trees and rows at once; points
    outside the fitted box follow the comparisons to the nearest edge
    leaf, mirroring the grid estimator's clamp semantics.

    This is the routing fallback above ``_EVAL_CELL_CAP`` and the
    reference the overlay route is tested against.
    """
    n_internal = features.shape[1]
    depth = int(n_internal + 1).bit_length() - 1
    rows = points.shape[0]
    node = np.zeros((features.shape[0], rows), dtype=np.int64)
    cols = points.T
    col_ids = np.arange(rows)[None, :]
    for _level in range(depth):
        feat = np.take_along_axis(features, node, axis=1)
        thr = np.take_along_axis(thresholds, node, axis=1)
        node = 2 * node + 1 + (cols[feat, col_ids] > thr)
    return node - n_internal


class TreeDensityEstimator(DensityEstimator):
    """Forest of random axis-aligned partitions with O(1) leaf lookups.

    Dataset passes: 2 — one scan finds the bounding box, one counts
    leaf occupancies (the box scan is skipped when ``bounds`` is given;
    see Notes).

    Memory: O(m) — the forest structure, its leaf-count table
    (``n_trees * 2^max_depth`` cells) and the per-tree overlay tables
    (at most ``_EVAL_CELL_CAP`` cells each); chunks are routed and
    discarded as the scan advances.

    Parameters
    ----------
    n_trees:
        Number of independent random partition trees averaged into the
        estimate. More trees smooth the piecewise-constant surface.
    max_depth:
        Levels of splits per tree; each tree has ``2^max_depth`` leaves.
        Depth trades bias (shallow = blurry) against variance (deep =
        sparse leaves).
    bounds:
        Optional ``(mins, maxs)`` bounding box; when given, fitting
        skips the box-finding pass (see Notes).
    random_state:
        Seed for the generator that draws split attributes and split
        fractions. Trees are drawn once, on the coordinator, so fitted
        state is byte-identical for any ``n_jobs`` / shard count.

    Notes
    -----
    Fitting takes *two* passes when the bounding box is unknown (one to
    find the box, one to count); pass ``bounds=(mins, maxs)`` to fit in
    a single pass like the paper's kernel estimator. Both scans run as
    shard fan-outs whose partials merge exactly: elementwise min/max
    for the box, integer leaf-count addition for the occupancies.

    Counting and evaluation share one router: the overlay tables are
    built as soon as the trees are drawn, each tree's cell table maps a
    cell to its leaf id, the count scan bincounts those leaf ids, and
    the rate per cell is derived from the counts afterwards. Forests
    whose per-tree cell grid exceeds ``_EVAL_CELL_CAP`` (high ``d``)
    route through the level-by-level descent instead; both routes give
    the same leaf for every row.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> data = rng.normal(size=(5000, 2))
    >>> est = TreeDensityEstimator(random_state=0).fit(data)
    >>> float(est.evaluate([[0.0, 0.0]])[0]) > float(est.evaluate([[4.0, 4.0]])[0])
    True
    """

    __n_passes__ = 2

    #: Peak working-memory bound of fit()/evaluate() (audited by RA005).
    __space__ = "O(m)"

    def __init__(
        self,
        n_trees: int = 64,
        max_depth: int = 8,
        bounds=None,
        random_state=None,
    ) -> None:
        if n_trees < 1:
            raise ParameterError(f"n_trees must be >= 1; got {n_trees}.")
        if max_depth < 1:
            raise ParameterError(f"max_depth must be >= 1; got {max_depth}.")
        self.n_trees = int(n_trees)
        self.max_depth = int(max_depth)
        self.bounds = bounds
        self.random_state = random_state
        # Fitted state
        self.features_: np.ndarray | None = None
        self.thresholds_: np.ndarray | None = None
        self.leaf_volumes_: np.ndarray | None = None
        self.counts_: np.ndarray | None = None
        self.rate_: np.ndarray | None = None
        self.mins_: np.ndarray | None = None
        self.maxs_: np.ndarray | None = None
        self.n_points_: int | None = None
        self.n_dims_: int | None = None
        # Leaf bounding boxes, kept from the build for the lookup-table
        # construction; shape (n_trees, n_leaves, n_dims).
        self._leaf_lo: np.ndarray | None = None
        self._leaf_hi: np.ndarray | None = None
        # O(1)-lookup overlay tables (None when the cell cap is hit).
        self._tables: dict | None = None

    @property
    def n_leaves_(self) -> int:
        """Leaves per tree (``2^max_depth``)."""
        return 1 << self.max_depth

    # -- fitting ---------------------------------------------------------------

    def fit(self, data=None, *, stream: DataStream | None = None):
        """Fit in two scans: bounding box, then integer leaf counts.

        Both scans are shard fan-outs (:mod:`repro.sharding`; one shard
        per worker unless a shard count is set). The box partials fold
        with elementwise min/max and the count partials with integer
        addition — both exactly associative, so the fit is
        byte-identical for any shard count (DESIGN.md §14). Tree
        structure and its overlay tables are built once, on the
        coordinator, between the two scans; the count scan routes rows
        through them.
        """
        source = self._as_stream(data, stream)
        plan = ShardPlan.for_stream(source)
        if self.bounds is not None:
            mins, maxs = self._explicit_bounds()
        else:
            box = bounds_shards(plan)
            if box.seen == 0:
                raise ParameterError(
                    "cannot fit a density estimator on no data."
                )
            mins, maxs = box.mins, box.maxs
        self._build_trees(mins, maxs)
        self._build_eval_tables()
        state = tree_count_shards(plan, self._count_leaves)
        if state.seen == 0:
            raise ParameterError("cannot fit a density estimator on no data.")
        self._finalize(state.counts, state.seen)
        return self

    def _explicit_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        mins = np.atleast_1d(np.asarray(self.bounds[0], dtype=np.float64))
        maxs = np.atleast_1d(np.asarray(self.bounds[1], dtype=np.float64))
        if mins.shape != maxs.shape or (maxs < mins).any():
            raise ParameterError(
                "bounds must be (mins, maxs) arrays of equal shape with "
                "maxs >= mins."
            )
        return mins, maxs

    def _build_trees(self, mins: np.ndarray, maxs: np.ndarray) -> None:
        """Draw the forest structure for the box ``[mins, maxs]``.

        All randomness happens here, on the coordinator, from the
        seeded generator: one attribute draw and one split-fraction
        draw per internal node, level by level across every tree at
        once. Degenerate (constant) attributes are padded to unit width
        so leaf volumes stay positive, mirroring the grid estimator's
        scaler convention.
        """
        mins = np.asarray(mins, dtype=np.float64)
        maxs = np.asarray(maxs, dtype=np.float64)
        degenerate = (maxs - mins) <= np.finfo(np.float64).tiny
        mins = np.where(degenerate, mins - 0.5, mins)
        maxs = np.where(degenerate, maxs + 0.5, maxs)
        rng = check_random_state(self.random_state)
        n_dims = mins.shape[0]
        n_leaves = 1 << self.max_depth
        n_internal = n_leaves - 1
        features = np.zeros((self.n_trees, n_internal), dtype=np.int64)
        thresholds = np.zeros((self.n_trees, n_internal), dtype=np.float64)
        lo = np.broadcast_to(mins, (self.n_trees, 1, n_dims)).copy()
        hi = np.broadcast_to(maxs, (self.n_trees, 1, n_dims)).copy()
        for level in range(self.max_depth):
            width = 1 << level
            start = width - 1
            feat = rng.integers(0, n_dims, size=(self.n_trees, width))
            frac = rng.uniform(
                _SPLIT_LO, 1.0 - _SPLIT_LO, size=(self.n_trees, width)
            )
            lo_f = np.take_along_axis(lo, feat[:, :, None], axis=2)[:, :, 0]
            hi_f = np.take_along_axis(hi, feat[:, :, None], axis=2)[:, :, 0]
            thr = lo_f + frac * (hi_f - lo_f)
            features[:, start : start + width] = feat
            thresholds[:, start : start + width] = thr
            # Children boxes in heap order: node (level, i) has children
            # (level+1, 2i) and (level+1, 2i+1).
            lo = np.repeat(lo, 2, axis=1)
            hi = np.repeat(hi, 2, axis=1)
            tree_ids = np.arange(self.n_trees)[:, None]
            child = 2 * np.arange(width)[None, :]
            hi[tree_ids, child, feat] = thr
            lo[tree_ids, child + 1, feat] = thr
        self.features_ = features
        self.thresholds_ = thresholds
        self.leaf_volumes_ = np.prod(hi - lo, axis=2)
        self._leaf_lo = lo
        self._leaf_hi = hi
        self.mins_ = mins
        self.maxs_ = maxs
        self.n_dims_ = int(n_dims)
        get_recorder().count("tree_nodes_built", self.n_trees * n_internal)

    def _finalize(self, counts: np.ndarray, n: int) -> None:
        """Freeze fitted state: counts plus the precomputed density table.

        ``rate_[t, leaf] = counts[t, leaf] / volume[t, leaf]`` makes one
        evaluation a gather plus a mean over trees; each tree's rates
        integrate to ``n`` over the box, so the average does too —
        densities integrate to ``n``, the paper's normalisation. The
        overlay's per-cell rates are one gather of ``rate_`` through
        each tree's cell→leaf table.
        """
        self.counts_ = np.asarray(counts, dtype=np.int64)
        self.n_points_ = int(n)
        self.rate_ = self.counts_ / self.leaf_volumes_
        if self._tables is not None:
            self._tables["rates"] = [
                self.rate_[t][leaves]
                for t, leaves in enumerate(self._tables["leaves"])
            ]

    def _build_eval_tables(self) -> None:
        """Precompute the O(1)-lookup overlay for counting and evaluation.

        Each tree's leaves induce, per dimension, a sorted grid ``g`` of
        the thresholds splitting that dimension; the leaf of a query is
        fully determined by its per-dim cell index ``#{g < x}``. Two
        structures make that index a constant-time gather:

        * per tree and dimension, tables over ``_EVAL_BINS`` uniform
          bins spanning the fitted box — ``base[u]`` (thresholds in
          bins before ``u``), ``cut[u]`` (the single threshold inside
          bin ``u``, ``+inf`` when empty) and ``amb[u]`` (bin holds two
          or more thresholds, resolved by exact binary search);
        * per tree, a dense cell table mapping the cross product of
          per-dim cells straight to a leaf id — filled by slicing each
          leaf's bounding box into the grid.

        Bin assignment is monotone in the coordinate, so ``base[u] +
        (cut[u] < x)`` equals ``#{g < x}`` exactly — the table route is
        bit-identical to the descent. Only the thresholds are needed,
        so the tables exist before the count scan. Trees whose cell
        cross product exceeds ``_EVAL_CELL_CAP`` (high-dimensional
        forests) disable the overlay and routing keeps the descent.
        """
        self._tables = None
        n_dims = self.n_dims_
        grids = [
            [
                np.unique(self.thresholds_[t][self.features_[t] == j])
                for j in range(n_dims)
            ]
            for t in range(self.n_trees)
        ]
        shapes = [
            tuple(grid.size + 1 for grid in per_dim) for per_dim in grids
        ]
        if max(int(np.prod(s)) for s in shapes) > _EVAL_CELL_CAP:
            return
        scale = _EVAL_BINS / (self.maxs_ - self.mins_)
        base = np.zeros((self.n_trees, n_dims, _EVAL_BINS), dtype=np.int64)
        cut = np.full((self.n_trees, n_dims, _EVAL_BINS), np.inf)
        amb = np.zeros((self.n_trees, n_dims, _EVAL_BINS), dtype=bool)
        for t in range(self.n_trees):
            for j in range(n_dims):
                grid = grids[t][j]
                if grid.size == 0:
                    continue
                bins = self._bin_of(grid, j, scale)
                counts = np.bincount(bins, minlength=_EVAL_BINS)
                base[t, j, 1:] = np.cumsum(counts)[:-1]
                cut[t, j, bins] = grid
                amb[t, j] = counts >= 2
                cut[t, j, amb[t, j]] = np.inf
        leaves = []
        for t in range(self.n_trees):
            starts = [
                np.searchsorted(
                    grids[t][j], self._leaf_lo[t][:, j], side="right"
                )
                for j in range(n_dims)
            ]
            ends = [
                np.searchsorted(
                    grids[t][j], self._leaf_hi[t][:, j], side="left"
                )
                + 1
                for j in range(n_dims)
            ]
            # Paint every leaf's block of cells into the row-major
            # table, one dimension at a time: each (leaf, partial cell)
            # pair expands into one pair per cell of the leaf's range on
            # the next dimension.
            owner = np.arange(self.n_leaves_)
            flat = np.zeros(self.n_leaves_, dtype=np.int64)
            for j in range(n_dims):
                width = (ends[j] - starts[j])[owner]
                pair = np.repeat(np.arange(owner.size), width)
                step = np.arange(pair.size) - (np.cumsum(width) - width)[pair]
                owner = owner[pair]
                flat = flat[pair] * shapes[t][j] + starts[j][owner] + step
            table = np.empty(int(np.prod(shapes[t])), dtype=np.int64)
            table[flat] = owner
            leaves.append(table)
        self._tables = {
            "scale": scale,
            "base": base,
            "cut": cut,
            "amb": amb,
            "amb_any": amb.any(axis=2),
            "amb_union": amb.any(axis=0),
            "grids": grids,
            "shapes": shapes,
            "leaves": leaves,
        }

    def _bin_of(
        self, values: np.ndarray, dim: int, scale: np.ndarray
    ) -> np.ndarray:
        """Uniform bin of each value along ``dim`` (monotone, clamped).

        The same expression quantizes thresholds at build time and
        queries at lookup time; sharing it is what makes the table
        route exact for any rounding behaviour.
        """
        offsets = (values - self.mins_[dim]) * scale[dim]
        return np.clip(offsets, 0.0, _EVAL_BINS - 1.0).astype(np.int64)

    # -- routing ---------------------------------------------------------------

    @property
    def _block_rows(self) -> int:
        """Rows per routed block: the overlay's, or the descent's."""
        return _EVAL_BLOCK_ROWS if self._tables is None else _OVERLAY_BLOCK_ROWS

    def _route(self, block: np.ndarray):
        """Yield ``(t, index)`` for each tree: where ``block``'s rows land.

        With the overlay, ``index`` is each row's cell in tree ``t``'s
        cell tables (see _build_eval_tables): per dimension one gather
        plus one comparison, with rows landing in a bin that holds
        several thresholds — a handful per block — re-resolved by exact
        binary search over that tree's per-dim threshold grid. Without
        it, ``index`` is the leaf from the level-by-level descent. Both
        name the same leaf for every row. The overlay reuses one index
        buffer across trees, so a caller consumes ``index`` before
        advancing.
        """
        tables = self._tables
        if tables is None:
            yield from enumerate(
                tree_leaf_indices(block, self.features_, self.thresholds_)
            )
            return
        rows = block.shape[0]
        n_dims = self.n_dims_
        cols = [
            np.ascontiguousarray(block[:, j], dtype=np.float64)
            for j in range(n_dims)
        ]
        bins = [
            self._bin_of(cols[j], j, tables["scale"])
            for j in range(n_dims)
        ]
        # Rows in a bin that is ambiguous in any tree, found once per
        # block and dimension; each tree then re-resolves only those of
        # them that its own ambiguous bins hold.
        amb_rows = [
            np.flatnonzero(tables["amb_union"][j][bins[j]])
            for j in range(n_dims)
        ]
        amb_bins = [bins[j][amb_rows[j]] for j in range(n_dims)]
        amb_cols = [cols[j][amb_rows[j]] for j in range(n_dims)]
        idx = np.empty(rows, dtype=np.int64)
        part = np.empty(rows, dtype=np.int64)
        cutg = np.empty(rows, dtype=np.float64)
        right = np.empty(rows, dtype=bool)
        for t in range(self.n_trees):
            shape = tables["shapes"][t]
            for j in range(n_dims):
                target = part if j else idx
                # The bins are clamped into range, so "clip" never
                # clips; unlike the default "raise" it writes straight
                # into ``out`` without buffering.
                np.take(
                    tables["base"][t, j], bins[j], out=target, mode="clip"
                )
                np.take(
                    tables["cut"][t, j], bins[j], out=cutg, mode="clip"
                )
                np.less(cutg, cols[j], out=right)
                target += right
                if tables["amb_any"][t, j] and amb_rows[j].size:
                    hit = np.flatnonzero(tables["amb"][t, j][amb_bins[j]])
                    if hit.size:
                        target[amb_rows[j][hit]] = np.searchsorted(
                            tables["grids"][t][j],
                            amb_cols[j][hit],
                            side="left",
                        )
                if j:
                    idx *= shape[j]
                    idx += part
            yield t, idx

    def _count_leaves(self, points: np.ndarray) -> np.ndarray:
        """Leaf occupancy of ``points``, shape ``(n_trees, n_leaves)``.

        The count scan's per-chunk kernel: rows are routed block by
        block and each tree's leaf ids are tallied with one
        ``bincount``. Integer counts, so any chunking or sharding of
        the rows sums to the same table.
        """
        leaves_of = None if self._tables is None else self._tables["leaves"]
        n_leaves = self.n_leaves_
        counts = np.zeros((self.n_trees, n_leaves), dtype=np.int64)
        step = self._block_rows
        for begin in range(0, points.shape[0], step):
            block = points[begin : begin + step]
            for t, index in self._route(block):
                leaves = index if leaves_of is None else leaves_of[t][index]
                counts[t] += np.bincount(leaves, minlength=n_leaves)
        return counts

    # -- evaluation --------------------------------------------------------------

    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        recorder = get_recorder()
        rows = int(points.shape[0])
        # One lookup = one query row routed through one tree.
        recorder.count("tree_lookups", rows * self.n_trees)
        out = np.empty(rows, dtype=np.float64)
        with recorder.phase("tree_eval_block") as span:
            span.set(rows=rows, trees=self.n_trees, depth=self.max_depth)
            step = self._block_rows
            for begin in range(0, rows, step):
                block = points[begin : begin + step]
                out[begin : begin + block.shape[0]] = (
                    self._evaluate_cells(block)
                )
        return out

    def _evaluate_cells(self, block: np.ndarray) -> np.ndarray:
        """Mean over trees of each row's routed rate (see _route).

        One gather per tree: from the overlay's per-cell rates, or from
        ``rate_`` when the descent routes.
        """
        rates = self.rate_ if self._tables is None else self._tables["rates"]
        acc = np.zeros(block.shape[0])
        gathered = np.empty(block.shape[0], dtype=np.float64)
        for t, index in self._route(block):
            # Cell and leaf ids are in range by construction (see
            # _route on "clip").
            np.take(rates[t], index, out=gathered, mode="clip")
            acc += gathered
        acc /= self.n_trees
        return acc
