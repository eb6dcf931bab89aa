"""Statistical-oracle and determinism suite for the tree estimator.

Two layers:

* **Oracle** — on the paper's fig. 3 (CURE dataset 1) and fig. 5
  mixtures, the forest's density field must agree with the *exact* KDE
  (every dataset point a kernel center): relative L1 error within a
  fixed bound and Spearman rank correlation of the density orderings
  at or above 0.95. The exact KDE is the right reference — a
  subsampled 1000-center KDE carries sampling noise of its own (two
  such KDEs with different seeds agree at only ~0.89 on fig. 3).
* **Determinism** — fits and evaluations are byte-identical across
  worker counts and shard counts, because every fold in the fit is
  exact integer/min/max algebra.
"""

import numpy as np
import pytest

from repro.datasets.cure_dataset import cure_dataset1
from repro.datasets.synthetic import make_fig5_dataset
from repro.density import KernelDensityEstimator, TreeDensityEstimator
from repro.density.tree import tree_leaf_indices
from repro.exceptions import (
    DataValidationError,
    NotFittedError,
    ParameterError,
)
from repro.obs import Recorder, RunManifest, use_recorder
from repro.parallel import use_n_jobs
from repro.sharding import use_shards
from repro.utils.streams import DataStream

N_ORACLE = 20_000
N_QUERIES = 4_000
RANK_CORR_FLOOR = 0.95
L1_CEILING = 0.25


def _rank_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation of two density orderings."""
    ranks_a = np.argsort(np.argsort(a))
    ranks_b = np.argsort(np.argsort(b))
    return float(np.corrcoef(ranks_a, ranks_b)[0, 1])


def _oracle_case(points: np.ndarray) -> dict:
    rng = np.random.default_rng(7)
    queries = points[
        rng.choice(points.shape[0], N_QUERIES, replace=False)
    ]
    exact = KernelDensityEstimator(
        n_kernels=points.shape[0], random_state=0
    ).fit(points)
    tree = TreeDensityEstimator(random_state=0).fit(points)
    return {
        "points": points,
        "queries": queries,
        "exact": exact.evaluate(queries),
        "tree": tree.evaluate(queries),
    }


@pytest.fixture(scope="module")
def fig3_case():
    return _oracle_case(
        cure_dataset1(n_points=N_ORACLE, random_state=0).points
    )


@pytest.fixture(scope="module")
def fig5_case():
    return _oracle_case(
        make_fig5_dataset(n_points=N_ORACLE, random_state=0).points
    )


class TestStatisticalOracle:
    def test_fig3_rank_correlation(self, fig3_case):
        corr = _rank_correlation(fig3_case["tree"], fig3_case["exact"])
        assert corr >= RANK_CORR_FLOOR

    def test_fig5_rank_correlation(self, fig5_case):
        corr = _rank_correlation(fig5_case["tree"], fig5_case["exact"])
        assert corr >= RANK_CORR_FLOOR

    def test_fig3_l1_error(self, fig3_case):
        exact = fig3_case["exact"]
        err = np.abs(fig3_case["tree"] - exact).sum() / exact.sum()
        assert err <= L1_CEILING

    def test_fig5_l1_error(self, fig5_case):
        exact = fig5_case["exact"]
        err = np.abs(fig5_case["tree"] - exact).sum() / exact.sum()
        assert err <= L1_CEILING

    def test_densities_nonnegative_and_finite(self, fig3_case):
        values = fig3_case["tree"]
        assert np.isfinite(values).all()
        assert (values >= 0.0).all()

    def test_total_mass_matches_dataset(self, fig3_case):
        # Densities integrate to n over the domain: summing
        # rate * leaf_volume over any one tree recovers n exactly.
        est = TreeDensityEstimator(random_state=0).fit(
            fig3_case["points"]
        )
        masses = (est.rate_ * est.leaf_volumes_).sum(axis=1)
        assert masses == pytest.approx(
            np.full(est.n_trees, est.n_points_)
        )


def _fit_eval(points, queries, n_jobs, shards, **params):
    with use_n_jobs(n_jobs), use_shards(shards):
        estimator = TreeDensityEstimator(random_state=0, **params)
        estimator.fit(stream=DataStream(points, chunk_size=1024))
        return estimator, estimator.evaluate(queries)


def _on_threshold_rows(rng, box, params):
    """Rows on, just beside and between one forest's split thresholds.

    With explicit bounds the forest depends only on the box and the
    seed, so a probe fit yields the thresholds the real fit will use.
    Midpoints of neighbouring thresholds land in bins that hold two or
    more of them, where routing falls back to binary search.
    """
    probe = TreeDensityEstimator(random_state=0, **params).fit(
        np.asarray(box)
    )
    rows = []
    for t in range(0, probe.n_trees, 8):
        for j in range(probe.n_dims_):
            grid = np.unique(probe.thresholds_[t][probe.features_[t] == j])
            values = np.concatenate(
                [
                    grid,
                    np.nextafter(grid, -np.inf),
                    np.nextafter(grid, np.inf),
                    (grid[1:] + grid[:-1]) / 2.0,
                ]
            )
            block = rng.uniform(box[0], box[1], size=(values.size, len(box[0])))
            block[:, j] = values
            rows.append(block)
    return np.vstack(rows)


#: Routing layouts of the byte-equivalence and reference tests.
_LAYOUTS = ("normal_3d", "narrow_bounds", "on_thresholds")


def _equivalence_case(layout):
    """``(points, queries, params)`` for one routing layout.

    * ``normal_3d``: the default fit at d=3, whose per-tree cell grid
      is above ``_EVAL_CELL_CAP``, so counting and evaluation take the
      descent fallback;
    * ``narrow_bounds``: explicit bounds inside the data, so many rows
      lie outside the box and are clamped to edge leaves;
    * ``on_thresholds``: rows exactly on split thresholds and inside
      bins holding two or more thresholds.
    """
    rng = np.random.default_rng(3)
    if layout == "normal_3d":
        return rng.normal(size=(8_000, 3)), rng.normal(size=(500, 3)), {}
    if layout == "narrow_bounds":
        params = {"bounds": ([-0.5, -1.0], [1.0, 0.5])}
        return rng.normal(size=(8_000, 2)), rng.normal(size=(500, 2)), params
    box = ([0.0, 0.0], [1.0, 1.0])
    params = {"bounds": box, "max_depth": 9}
    points = np.vstack(
        [_on_threshold_rows(rng, box, params), rng.random((2_000, 2))]
    )
    return points, points[::7], params


def _equivalence_params(n_jobs_values):
    """``(layout, shards, n_jobs)`` cases; ``normal_3d`` takes bare
    ``shards-n_jobs`` ids so its test ids stay stable."""
    return [
        pytest.param(
            layout,
            shards,
            n_jobs,
            id=(
                f"{shards}-{n_jobs}"
                if layout == "normal_3d"
                else f"{layout}-{shards}-{n_jobs}"
            ),
        )
        for layout in _LAYOUTS
        for shards in (1, 3)
        for n_jobs in n_jobs_values
    ]


class TestByteEquivalence:
    """Same bytes for every (n_jobs, shards) execution shape."""

    @pytest.fixture(scope="class")
    def cases(self):
        cases = {}
        for layout in _LAYOUTS:
            points, queries, params = _equivalence_case(layout)
            baseline, densities = _fit_eval(points, queries, 1, 1, **params)
            # Each layout exercises the route it is named for.
            assert (baseline._tables is None) == (layout == "normal_3d")
            if layout == "narrow_bounds":
                lo, hi = params["bounds"]
                assert ((points < lo) | (points > hi)).any(axis=1).mean() > 0.3
            if layout == "on_thresholds":
                assert baseline._tables["amb"].any()
                assert np.isin(points, baseline.thresholds_).any()
            cases[layout] = (points, queries, params, baseline, densities)
        return cases

    @pytest.fixture(scope="class")
    def case(self, cases):
        points, queries, _params, baseline, densities = cases["normal_3d"]
        return points, queries, baseline, densities

    @pytest.mark.parametrize("layout, shards, n_jobs", _equivalence_params([1, 2, 4]))
    def test_fit_and_eval_bytes(self, cases, layout, shards, n_jobs):
        points, queries, params, baseline, densities = cases[layout]
        estimator, values = _fit_eval(
            points, queries, n_jobs, shards, **params
        )
        assert (
            estimator.thresholds_.tobytes()
            == baseline.thresholds_.tobytes()
        )
        assert estimator.counts_.tobytes() == baseline.counts_.tobytes()
        assert values.tobytes() == densities.tobytes()

    @pytest.mark.parametrize("layout, shards, n_jobs", _equivalence_params([1, 2]))
    def test_fit_matches_plain_numpy_reference(
        self, cases, layout, shards, n_jobs
    ):
        # Box and leaf counts straight from the array — no stream, no
        # ShardPlan, no overlay — so the fit's routing is checked
        # against the descent, not trusted.
        points, _queries, params, _baseline, _densities = cases[layout]
        estimator, _ = _fit_eval(points, points[:1], n_jobs, shards, **params)
        lo, hi = params.get("bounds", (points.min(axis=0), points.max(axis=0)))
        np.testing.assert_array_equal(estimator.mins_, lo)
        np.testing.assert_array_equal(estimator.maxs_, hi)
        leaves = tree_leaf_indices(
            points, estimator.features_, estimator.thresholds_
        )
        counts = np.stack(
            [
                np.bincount(row, minlength=estimator.n_leaves_)
                for row in leaves
            ]
        )
        np.testing.assert_array_equal(estimator.counts_, counts)
        assert estimator.n_points_ == points.shape[0]

    def test_seed_determinism(self, case):
        points, queries, baseline, _ = case
        again = TreeDensityEstimator(random_state=0).fit(points)
        assert again.counts_.tobytes() == baseline.counts_.tobytes()
        other = TreeDensityEstimator(random_state=1).fit(points)
        assert (
            other.thresholds_.tobytes() != baseline.thresholds_.tobytes()
        )


class TestFitting:
    def test_two_passes_by_default(self):
        stream = DataStream(np.random.default_rng(0).random((500, 2)))
        TreeDensityEstimator(random_state=0).fit(stream=stream)
        assert stream.passes == 2

    def test_explicit_bounds_skip_the_bounds_pass(self):
        stream = DataStream(np.random.default_rng(0).random((500, 2)))
        TreeDensityEstimator(
            bounds=([0.0, 0.0], [1.0, 1.0]), random_state=0
        ).fit(stream=stream)
        assert stream.passes == 1

    def test_empty_stream_raises(self):
        with pytest.raises(DataValidationError, match="at least 1"):
            TreeDensityEstimator(random_state=0).fit(
                np.empty((0, 2))
            )

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            TreeDensityEstimator().evaluate([[0.0, 0.0]])

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError, match="n_trees"):
            TreeDensityEstimator(n_trees=0)
        with pytest.raises(ParameterError, match="max_depth"):
            TreeDensityEstimator(max_depth=0)

    def test_degenerate_dimension_survives(self):
        # A constant column would produce zero-volume leaves without
        # the build-time padding; densities must stay finite.
        rng = np.random.default_rng(2)
        data = np.column_stack(
            [rng.normal(size=400), np.full(400, 3.5)]
        )
        estimator = TreeDensityEstimator(random_state=0).fit(data)
        values = estimator.evaluate(data[:50])
        assert np.isfinite(values).all()

    def test_leaf_volumes_positive(self):
        rng = np.random.default_rng(4)
        estimator = TreeDensityEstimator(random_state=0).fit(
            rng.normal(size=(2_000, 2))
        )
        assert (estimator.leaf_volumes_ > 0.0).all()

    def test_counts_cover_every_point(self):
        rng = np.random.default_rng(5)
        estimator = TreeDensityEstimator(random_state=0).fit(
            rng.normal(size=(1_500, 2))
        )
        assert (estimator.counts_.sum(axis=1) == 1_500).all()


class TestLeafRouting:
    def test_routes_match_manual_descent(self):
        rng = np.random.default_rng(6)
        estimator = TreeDensityEstimator(
            n_trees=4, max_depth=3, random_state=0
        ).fit(rng.normal(size=(1_000, 2)))
        points = rng.normal(size=(32, 2))
        leaves = tree_leaf_indices(
            points, estimator.features_, estimator.thresholds_
        )
        n_internal = estimator.features_.shape[1]
        for t in range(4):
            for i, x in enumerate(points):
                node = 0
                while node < n_internal:
                    feature = estimator.features_[t, node]
                    threshold = estimator.thresholds_[t, node]
                    node = 2 * node + 1 + int(x[feature] > threshold)
                assert leaves[t, i] == node - n_internal


class TestOverlayTables:
    """The O(1) lookup tables route bit-identically to the descent."""

    def test_table_route_matches_descent_bytes(self):
        rng = np.random.default_rng(11)
        est = TreeDensityEstimator(random_state=0).fit(
            rng.normal(size=(5_000, 2))
        )
        assert est._tables is not None
        queries = rng.normal(scale=2.0, size=(3_000, 2))
        # Queries exactly on split thresholds exercise the tie-routing
        # corner (<= goes left) the bin tables must reproduce.
        queries[:64, 0] = est.thresholds_[0][:64]
        leaves = tree_leaf_indices(
            queries, est.features_, est.thresholds_
        )
        expected = np.zeros(queries.shape[0])
        for t in range(est.n_trees):
            expected += est.rate_[t][leaves[t]]
        expected /= est.n_trees
        actual = est._evaluate_cells(queries)
        assert actual.tobytes() == expected.tobytes()

    def test_high_dim_falls_back_to_descent(self):
        # At d=4 the per-dim threshold cross product blows past the
        # cell cap; the overlay is skipped and eval uses the descent.
        rng = np.random.default_rng(12)
        est = TreeDensityEstimator(random_state=0).fit(
            rng.normal(size=(2_000, 4))
        )
        assert est._tables is None
        values = est.evaluate(rng.normal(size=(100, 4)))
        assert np.isfinite(values).all()
        assert (values >= 0.0).all()


class TestObservability:
    def test_counters(self):
        rng = np.random.default_rng(8)
        recorder = Recorder()
        with use_recorder(recorder):
            estimator = TreeDensityEstimator(
                n_trees=8, max_depth=4, random_state=0
            ).fit(rng.normal(size=(1_000, 2)))
            estimator.evaluate(rng.normal(size=(300, 2)))
        assert recorder.counters["tree_nodes_built"] == 8 * (2**4 - 1)
        assert recorder.counters["tree_lookups"] == 300 * 8
        assert recorder.counters["data_passes"] == 2

    @pytest.mark.parametrize("n_dims", [2, 3])
    def test_fit_records_no_tree_lookups(self, n_dims):
        # tree_lookups is evaluation work: the fit's count scan routes
        # every row through the same router (overlay at d=2, descent at
        # d=3) without counting it there.
        rng = np.random.default_rng(9)
        recorder = Recorder()
        with use_recorder(recorder), use_shards(3):
            TreeDensityEstimator(random_state=0).fit(
                rng.normal(size=(2_000, n_dims))
            )
        manifest = RunManifest.from_recorder(recorder, name="tree-fit")
        assert "tree_lookups" not in manifest.counters
        assert manifest.counters["tree_nodes_built"] == 64 * (2**8 - 1)
        assert manifest.counters["data_passes"] == 2
