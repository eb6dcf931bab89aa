"""Property tests: the blocked KDE hot path is bit-for-bit stable.

``KernelDensityEstimator._evaluate_block`` was rewritten as a
cache-blocked loop over row tiles with reusable scratch buffers and
``out=``-capable kernel profiles. These tests pin the *pre-blocking*
implementation — the straightforward allocating formulation it
replaced — as an in-test oracle and require byte identity across
random tile sizes, query dtypes, shapes and kernels. Any reassociation
of the arithmetic (a changed operation order, a fused multiply, a
different reduction) shows up here as a one-ulp diff.

The second half pins the whole ``evaluate`` (the profiles' branch-free
support clamps and the product chain that writes its first factor in
place) against the same plain full-matrix formulation: centers exactly
on the support edge and a few ulps either side, duplicates, constant
attributes, out-of-box and non-finite queries, parallel backends and
refits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_clustered_dataset
from repro.density import KernelDensityEstimator, get_kernel
from repro.density import kde as kde_module
from repro.obs import Recorder, use_recorder
from repro.parallel import use_n_jobs
from repro.sharding import use_shards
from repro.utils.streams import DataStream

KERNEL_NAMES = (
    "epanechnikov",
    "gaussian",
    "uniform",
    "triangular",
    "biweight",
)


def _reference_profile(name: str, u: np.ndarray) -> np.ndarray:
    """The pre-``out=`` kernel profiles, verbatim."""
    if name == "epanechnikov":
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    if name == "gaussian":
        norm = 1.0 / np.sqrt(2.0 * np.pi)
        return norm * np.exp(-0.5 * u * u)
    if name == "uniform":
        return np.where(np.abs(u) <= 1.0, 0.5, 0.0)
    if name == "triangular":
        out = 1.0 - np.abs(u)
        return np.where(out > 0.0, out, 0.0)
    if name == "biweight":
        w = 1.0 - u * u
        return np.where(np.abs(u) <= 1.0, (15.0 / 16.0) * w * w, 0.0)
    raise AssertionError(name)


def _reference_evaluate_block(estimator, block, name):
    """The pre-blocking ``_evaluate_block`` body, verbatim."""
    m = estimator.centers_.shape[0]
    weights = np.ones((block.shape[0], m))
    for j in range(estimator.n_dims_):
        h = estimator.bandwidths_[j]
        u = (block[:, j, None] - estimator.centers_[None, :, j]) / h
        weights *= _reference_profile(name, u) / h
    return (estimator.n_points_ / m) * weights.sum(axis=1)


def _make_estimator(kernel, m, d, seed):
    rng = np.random.default_rng(seed)
    estimator = KernelDensityEstimator(kernel=kernel)
    estimator.fit_from_centers(
        rng.normal(size=(m, d)),
        n_points=10_000,
        bandwidths=rng.uniform(0.05, 2.0, size=d),
    )
    return estimator


@settings(deadline=None, max_examples=120)
@given(
    rows=st.integers(1, 200),
    m=st.integers(1, 64),
    d=st.integers(1, 4),
    kernel=st.sampled_from(KERNEL_NAMES),
    tile_elements=st.integers(1, 4_096),
    dtype=st.sampled_from(("float64", "float32")),
    seed=st.integers(0, 2**31 - 1),
)
def test_blocked_evaluate_matches_pre_blocking_oracle(
    rows, m, d, kernel, tile_elements, seed, dtype
):
    estimator = _make_estimator(kernel, m, d, seed)
    rng = np.random.default_rng(seed + 1)
    block = rng.normal(scale=2.0, size=(rows, d)).astype(dtype)
    expected = _reference_evaluate_block(estimator, block, kernel)
    original = kde_module._EVAL_TILE_ELEMENTS
    kde_module._EVAL_TILE_ELEMENTS = tile_elements
    try:
        actual = estimator._evaluate_block(block)
    finally:
        kde_module._EVAL_TILE_ELEMENTS = original
    assert actual.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=80)
@given(
    kernel=st.sampled_from(KERNEL_NAMES),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from((0.1, 1.0, 10.0)),
)
def test_profile_out_matches_allocating_path(kernel, seed, scale):
    u = np.random.default_rng(seed).normal(scale=scale, size=257)
    u[::41] = np.nan
    u[::43] = np.inf
    u[::47] = -np.inf
    u[0] = 1.0
    u[1] = -1.0
    resolved = get_kernel(kernel)
    expected = _reference_profile(kernel, u)
    scratch = np.full_like(u, -99.0)
    actual = resolved.profile(u, out=scratch)
    assert actual is scratch
    assert actual.tobytes() == expected.tobytes()
    assert resolved.profile(u).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_jobs", [1, 2, 4])
def test_chunked_parallel_evaluate_is_byte_stable(n_jobs):
    """The full evaluate (chunk fan-out over the blocked body) returns
    the same bytes for every worker count."""
    rng = np.random.default_rng(0)
    data = rng.normal(size=(30_000, 2))
    queries = rng.normal(size=(9_000, 2))
    baseline = (
        KernelDensityEstimator(n_kernels=400, random_state=0)
        .fit(data)
        .evaluate(queries)
    )
    estimator = KernelDensityEstimator(
        n_kernels=400, random_state=0, n_jobs=n_jobs
    ).fit(data)
    assert estimator.evaluate(queries).tobytes() == baseline.tobytes()


def _reference_evaluate(estimator, points):
    """Plain full-matrix evaluation of every (row, center) pair.

    Rows are independent, so the reference runs in slices of rows to
    keep its ``(rows, m)`` temporaries small.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    name = estimator.kernel.name
    with np.errstate(invalid="ignore", over="ignore"):
        return np.concatenate(
            [
                _reference_evaluate_block(estimator, points[i : i + 1024], name)
                for i in range(0, points.shape[0], 1024)
            ]
        )


def _assert_matches_reference(estimator, queries):
    expected = _reference_evaluate(estimator, queries)
    with np.errstate(invalid="ignore", over="ignore"):
        actual = estimator.evaluate(queries)
    assert actual.tobytes() == expected.tobytes()


def _ulp_steps(value, steps):
    """``value`` moved ``steps`` representable doubles up (or down)."""
    direction = np.inf if steps > 0 else -np.inf
    for _ in range(abs(steps)):
        value = np.nextafter(value, direction)
    return value


def _edge_estimator(kernel, d, seed, n_queries=48):
    """Queries plus centers on each query's support edge ``x_j ± h_j``,
    exactly and up to two ulps either side, other attributes at the
    query's own coordinates (well inside their support)."""
    rng = np.random.default_rng(seed)
    bandwidths = rng.uniform(0.05, 2.0, size=d)
    queries = rng.uniform(-10.0, 10.0, size=(n_queries, d))
    centers = []
    for x in queries:
        for j in range(d):
            for sign in (-1.0, 1.0):
                for steps in range(-2, 3):
                    center = x.copy()
                    center[j] = _ulp_steps(x[j] + sign * bandwidths[j], steps)
                    centers.append(center)
    estimator = KernelDensityEstimator(kernel=kernel)
    estimator.fit_from_centers(
        np.asarray(centers), n_points=5_000, bandwidths=bandwidths
    )
    return estimator, queries


class TestEvaluateMatchesReference:
    """``evaluate`` is byte-identical to the full-matrix reference."""

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_random_centers_and_out_of_box_queries(self, kernel, d):
        rng = np.random.default_rng(d)
        estimator = KernelDensityEstimator(kernel=kernel)
        estimator.fit_from_centers(
            rng.normal(size=(300, d)),
            n_points=20_000,
            bandwidths=rng.uniform(0.1, 0.8, size=d),
        )
        queries = np.vstack(
            [
                rng.normal(scale=1.5, size=(700, d)),
                rng.uniform(-60.0, 60.0, size=(50, d)),
            ]
        )
        _assert_matches_reference(estimator, queries)

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_centers_on_the_support_edge(self, kernel, d):
        estimator, queries = _edge_estimator(kernel, d, seed=10 + d)
        h = estimator.bandwidths_
        u = (queries[:, None, :] - estimator.centers_[None, :, :]) / h
        # The case reaches |u| == 1 exactly and the ulps around it.
        assert (np.abs(u) == 1.0).any()
        assert ((np.abs(u) > 1.0) & (np.abs(u) < 1.0 + 1e-12)).any()
        _assert_matches_reference(estimator, queries)
        # One row at a time: a one-row tile.
        for row in queries:
            _assert_matches_reference(estimator, row)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_duplicates_and_constant_attribute(self, kernel):
        rng = np.random.default_rng(3)
        centers = np.column_stack(
            [
                np.round(rng.normal(size=400) * 4) / 4,
                np.full(400, 3.0),
                rng.normal(size=400),
            ]
        )
        estimator = KernelDensityEstimator(kernel=kernel)
        estimator.fit_from_centers(
            centers, n_points=1_000, bandwidths=[0.25, 0.5, 0.4]
        )
        queries = np.column_stack(
            [
                np.round(rng.normal(size=300) * 4) / 4,
                rng.choice([2.5, 3.0, 3.5], size=300),
                rng.normal(size=300),
            ]
        )
        _assert_matches_reference(estimator, queries)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_identical_centers_and_single_center(self, kernel):
        same = KernelDensityEstimator(kernel=kernel)
        same.fit_from_centers(
            np.tile([[1.0, -2.0]], (50, 1)), n_points=50, bandwidths=0.5
        )
        single = KernelDensityEstimator(kernel=kernel)
        single.fit_from_centers([[0.0, 0.0]], n_points=10, bandwidths=1.0)
        queries = np.random.default_rng(4).normal(size=(200, 2))
        for estimator in (same, single):
            _assert_matches_reference(estimator, queries)
            _assert_matches_reference(estimator, queries[0])

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_non_finite_queries(self, kernel):
        rng = np.random.default_rng(5)
        estimator = KernelDensityEstimator(kernel=kernel)
        estimator.fit_from_centers(
            rng.normal(size=(200, 2)), n_points=1_000, bandwidths=[0.3, 0.6]
        )
        special = np.array(
            [
                [np.nan, 0.0],
                [0.0, np.nan],
                [np.nan, np.nan],
                [np.inf, 0.0],
                [-np.inf, 0.0],
                [0.0, np.inf],
                [np.inf, -np.inf],
                [np.nan, np.inf],
            ]
        )
        queries = np.vstack([rng.normal(size=(300, 2)), special])
        rng.shuffle(queries)
        _assert_matches_reference(estimator, queries)
        # Whole tiles of NaN or inf rows, and each row on its own.
        _assert_matches_reference(estimator, np.repeat(special, 40, axis=0))
        for row in special:
            _assert_matches_reference(estimator, row)
        if estimator.kernel.support == 1.0:
            with np.errstate(invalid="ignore"):
                got = estimator.evaluate(special[:3])
            assert got.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_parallel_blocks(self, n_jobs, backend, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", backend)
        rng = np.random.default_rng(6)
        estimator = KernelDensityEstimator(n_jobs=n_jobs)
        estimator.fit_from_centers(
            rng.normal(size=(400, 2)), n_points=50_000, bandwidths=[0.2, 0.3]
        )
        # 2,000,000 / 400 = 5,000 rows per block: three blocks.
        queries = rng.normal(size=(12_000, 2))
        _assert_matches_reference(estimator, queries)

    def test_refit_on_other_data(self):
        rng = np.random.default_rng(7)
        normal, uniform = rng.normal(size=4_000), rng.uniform(size=4_000)
        wide_x = np.column_stack([normal, uniform])
        wide_y = np.column_stack([uniform, normal])
        estimator = KernelDensityEstimator(n_kernels=200, random_state=0)
        estimator.fit(wide_x)
        _assert_matches_reference(estimator, wide_x[:500])
        estimator.fit(wide_y)
        _assert_matches_reference(estimator, wide_y[:500])
        _assert_matches_reference(estimator, wide_x[:500])
        estimator.fit_from_centers(wide_x[:300], 4_000, [2.0, 0.05])
        _assert_matches_reference(estimator, wide_x[:500])


class TestKernelEvalsCounter:
    """``kernel_evals`` counts every (row, center) pair: rows x centers
    per evaluate, and the same for any shard count and worker count."""

    @staticmethod
    def _sample_counters(data, shards, n_jobs):
        from repro.core import DensityBiasedSampler

        recorder = Recorder()
        with use_recorder(recorder), use_shards(shards), use_n_jobs(n_jobs):
            DensityBiasedSampler(
                sample_size=200,
                exponent=1.0,
                estimator=KernelDensityEstimator(
                    n_kernels=300, random_state=0
                ),
                random_state=1,
            ).sample(stream=DataStream(data, chunk_size=700))
        return {
            name: value
            for name, value in recorder.counters.items()
            if not name.startswith("shard")
        }

    def test_counts_every_pair(self):
        data = make_clustered_dataset(
            n_points=6_000, n_clusters=5, random_state=0
        ).points
        estimator = KernelDensityEstimator(n_kernels=300, random_state=0)
        estimator.fit(data)
        recorder = Recorder()
        with use_recorder(recorder):
            estimator.evaluate(data)
        assert recorder.counters["kernel_evals"] == data.shape[0] * 300

        counters = {
            (shards, n_jobs): self._sample_counters(data, shards, n_jobs)
            for shards in (1, 3)
            for n_jobs in (1, 2)
        }
        base = counters[(1, 1)]
        assert base["kernel_evals"] > 0
        for got in counters.values():
            assert got == base
