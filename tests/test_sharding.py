"""Tests for sharded out-of-core fitting (repro.sharding).

The headline contract: a sharded fit is *byte-identical* to the serial
fit — samples, weights, density values and merged counters all exact —
for any shard count, any worker count, any stream type and any fault
policy. DESIGN.md §13 explains why; these tests pin it.
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.biased import DensityBiasedSampler
from repro.core.onepass import OnePassBiasedSampler
from repro.core.uniform import UniformSampler
from repro.density.kde import KernelDensityEstimator
from repro.density.tree import TreeDensityEstimator
from repro.exceptions import ParameterError
from repro.obs import Recorder, use_recorder
from repro.parallel import use_n_jobs
from repro.sharding import (
    GatherShard,
    NormalizerShard,
    ShardPlan,
    ShardView,
    merge_partials,
    resolve_shards,
    use_shards,
)
from repro.utils.filestreams import CsvFileStream, NpyFileStream
from repro.utils.streams import DataStream


@pytest.fixture
def array():
    return np.random.default_rng(7).normal(size=(611, 3))


@pytest.fixture
def npy_path(array, tmp_path):
    path = os.path.join(tmp_path, "data.npy")
    np.save(path, array)
    return path


@pytest.fixture
def csv_path(array, tmp_path):
    path = os.path.join(tmp_path, "data.csv")
    np.savetxt(path, array, delimiter=",")
    return path


def _counters_sans_shard(recorder):
    """Counters minus the shard bookkeeping (`shard*` exists only on
    sharded runs, by construction — see DESIGN.md §13)."""
    return {
        name: value
        for name, value in recorder.counters.items()
        if not name.startswith("shard")
    }


# ---------------------------------------------------------------------------
# Plan / context units
# ---------------------------------------------------------------------------


class TestResolveShards:
    def test_default_is_unsharded(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        assert resolve_shards(None) == 1

    def test_default_is_one_shard_per_worker(self, monkeypatch, array):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert resolve_shards(None, n_jobs=3) == 3
        with use_n_jobs(2):
            assert resolve_shards(None) == 2
            plan = ShardPlan.for_stream(DataStream(array, chunk_size=89))
        assert plan.n_shards == 2
        with use_shards(1):
            assert resolve_shards(None, n_jobs=3) == 1
            plan = ShardPlan.for_stream(DataStream(array), n_jobs=3)
        assert plan.n_shards == 1

    def test_derived_split_leaves_counters_alone(self, monkeypatch, array):
        # The worker-count split is an execution detail: an unsharded
        # run records the same counters, and no shard* ones, for any
        # n_jobs.
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        make = SAMPLERS["density"]
        runs = []
        for n_jobs in (1, 2, 3):
            with use_n_jobs(n_jobs):
                runs.append(
                    _run_sampler(
                        make, lambda: DataStream(array, chunk_size=89), None
                    )
                )
        (base, rec0), *others = runs
        assert not any(name.startswith("shard") for name in rec0.counters)
        for got, rec in others:
            np.testing.assert_array_equal(base.points, got.points)
            assert rec.counters == rec0.counters

    def test_explicit_wins(self):
        with use_shards(4):
            assert resolve_shards(2) == 2
            assert resolve_shards(None) == 4

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "5")
        assert resolve_shards(None) == 5

    def test_env_garbage_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "lots")
        with pytest.raises(ParameterError, match="REPRO_SHARDS"):
            resolve_shards(None)

    def test_rejects_non_positive(self):
        with pytest.raises(ParameterError, match="shards"):
            resolve_shards(0)
        with pytest.raises(ParameterError, match="shards"):
            with use_shards(-1):
                pass


class TestShardPlan:
    def test_specs_partition_the_chunk_sequence(self, array):
        stream = DataStream(array, chunk_size=100)
        plan = ShardPlan(stream, 3)
        assert plan.n_rows == len(stream)
        assert plan.specs[0].chunk_lo == 0
        assert plan.specs[-1].chunk_hi == len(plan.chunk_sizes)
        for left, right in zip(plan.specs, plan.specs[1:]):
            assert right.chunk_lo == left.chunk_hi
            assert right.row_start == left.row_stop
        assert sum(spec.n_rows for spec in plan.specs) == plan.n_rows

    def test_views_replay_the_serial_pass(self, array):
        stream = DataStream(array, chunk_size=97)
        plan = ShardPlan(stream, 4)
        serial = list(stream.iter_with_offsets())
        sharded = [
            pair for view in plan.views() for pair in view.chunks()
        ]
        assert [s for s, _ in sharded] == [s for s, _ in serial]
        for (_, expected), (_, actual) in zip(serial, sharded):
            np.testing.assert_array_equal(expected, actual)

    def test_more_shards_than_chunks_leaves_surplus_empty(self, array):
        stream = DataStream(array, chunk_size=400)  # 2 chunks
        plan = ShardPlan(stream, 7)
        views = plan.views()
        assert len(views) == 2
        assert all(isinstance(view, ShardView) for view in views)
        assert sum(spec.n_chunks == 0 for spec in plan.specs) == 5

    def test_rejects_unshardable_stream(self):
        with pytest.raises(ParameterError, match="chunk_sizes"):
            ShardPlan(object(), 2)

    def test_rejects_non_positive_shards(self, array):
        with pytest.raises(ParameterError, match="n_shards"):
            ShardPlan(DataStream(array), 0)


class TestPartials:
    def test_merge_partials_left_folds_in_order(self):
        a = NormalizerShard(row_start=0)
        a.add_values(np.array([1.0, 2.0]))
        b = NormalizerShard(row_start=2)
        b.add_values(np.array([3.0]))
        folded = merge_partials([a, b])
        out = np.empty(3)
        folded.fill(out)
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_merge_partials_rejects_empty(self):
        with pytest.raises(ValueError, match="no shard partials"):
            merge_partials([])

    def test_normalizer_shards_must_be_adjacent(self):
        a = NormalizerShard(row_start=0)
        a.add_values(np.array([1.0]))
        b = NormalizerShard(row_start=5)
        with pytest.raises(ValueError, match="adjacent|starts at"):
            a.merge(b)

    def test_gather_shard_counts_all_rows_keeps_selected(self):
        shard = GatherShard()
        chunk = np.arange(8, dtype=float).reshape(4, 2)
        shard.add_chunk(chunk, np.array([True, False, False, True]))
        shard.add_chunk(chunk, np.zeros(4, dtype=bool))
        assert shard.seen == 8
        np.testing.assert_array_equal(
            np.vstack(shard.parts), chunk[[0, 3]]
        )


# ---------------------------------------------------------------------------
# Byte-identity: sharded vs serial
# ---------------------------------------------------------------------------


SAMPLERS = {
    "density": lambda: DensityBiasedSampler(
        sample_size=80,
        exponent=-0.5,
        estimator=KernelDensityEstimator(n_kernels=64, random_state=5),
        random_state=13,
    ),
    "onepass": lambda: OnePassBiasedSampler(
        sample_size=80,
        exponent=-0.5,
        estimator=KernelDensityEstimator(n_kernels=64, random_state=5),
        random_state=13,
    ),
    "uniform": lambda: UniformSampler(sample_size=80, random_state=13),
}


def _run_sampler(make_sampler, make_stream, shards):
    recorder = Recorder()
    with use_recorder(recorder), use_shards(shards):
        result = make_sampler().sample(stream=make_stream())
    return result, recorder


class TestShardedEquivalence:
    @pytest.mark.parametrize("sampler_key", sorted(SAMPLERS))
    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_samplers_byte_identical_in_memory(
        self, array, sampler_key, shards
    ):
        make = SAMPLERS[sampler_key]
        base, rec0 = _run_sampler(
            make, lambda: DataStream(array, chunk_size=89), 1
        )
        got, rec1 = _run_sampler(
            make, lambda: DataStream(array, chunk_size=89), shards
        )
        np.testing.assert_array_equal(base.points, got.points)
        np.testing.assert_array_equal(base.indices, got.indices)
        np.testing.assert_array_equal(base.probabilities, got.probabilities)
        np.testing.assert_array_equal(base.weights, got.weights)
        assert _counters_sans_shard(rec0) == _counters_sans_shard(rec1)

    @pytest.mark.parametrize("kind", ["npy", "csv"])
    def test_samplers_byte_identical_on_files(
        self, kind, npy_path, csv_path
    ):
        path = npy_path if kind == "npy" else csv_path
        cls = NpyFileStream if kind == "npy" else CsvFileStream
        make = SAMPLERS["density"]
        base, rec0 = _run_sampler(make, lambda: cls(path, chunk_size=89), 1)
        for shards in (2, 3, 7):
            got, rec1 = _run_sampler(
                make, lambda: cls(path, chunk_size=89), shards
            )
            np.testing.assert_array_equal(base.points, got.points)
            np.testing.assert_array_equal(
                base.probabilities, got.probabilities
            )
            assert _counters_sans_shard(rec0) == _counters_sans_shard(rec1)

    @pytest.mark.parametrize("shards", [2, 3, 7])
    def test_kde_fit_byte_identical(self, array, shards):
        def fit(n_shards):
            with use_shards(n_shards):
                return KernelDensityEstimator(
                    n_kernels=64, random_state=3
                ).fit(DataStream(array, chunk_size=89))

        base, got = fit(1), fit(shards)
        np.testing.assert_array_equal(base.centers_, got.centers_)
        np.testing.assert_array_equal(base.bandwidths_, got.bandwidths_)
        assert base.n_points_ == got.n_points_
        grid = np.random.default_rng(0).normal(size=(50, 3))
        np.testing.assert_array_equal(base.evaluate(grid), got.evaluate(grid))

    def test_sharding_composes_with_worker_processes(self, array):
        make = SAMPLERS["density"]
        base, rec0 = _run_sampler(
            make, lambda: DataStream(array, chunk_size=89), 1
        )
        with use_n_jobs(2):
            got, rec1 = _run_sampler(
                make, lambda: DataStream(array, chunk_size=89), 3
            )
        np.testing.assert_array_equal(base.points, got.points)
        assert _counters_sans_shard(rec0) == _counters_sans_shard(rec1)

    def test_sharding_composes_with_process_workers(self, array, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        make = SAMPLERS["density"]
        base, rec0 = _run_sampler(
            make, lambda: DataStream(array, chunk_size=89), 1
        )
        with use_n_jobs(2):
            got, rec1 = _run_sampler(
                make, lambda: DataStream(array, chunk_size=89), 3
            )
        np.testing.assert_array_equal(base.points, got.points)
        np.testing.assert_array_equal(base.probabilities, got.probabilities)
        assert _counters_sans_shard(rec0) == _counters_sans_shard(rec1)

    @pytest.mark.parametrize("n_dims", [2, 3])
    def test_tree_fit_composes_with_process_workers(
        self, array, monkeypatch, n_dims
    ):
        # The count scan ships a bound estimator method to the workers;
        # d=2 counts through the overlay, d=3 through the descent.
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        data = array[:, :n_dims]

        def fit(n_shards):
            with use_shards(n_shards):
                return TreeDensityEstimator(random_state=3).fit(
                    stream=DataStream(data, chunk_size=89)
                )

        base = fit(1)
        with use_n_jobs(2):
            got = fit(3)
        assert (base._tables is None) == (n_dims == 3)
        assert got.counts_.tobytes() == base.counts_.tobytes()
        assert got.rate_.tobytes() == base.rate_.tobytes()
        assert got.evaluate(data).tobytes() == base.evaluate(data).tobytes()

    def test_pickled_view_carries_only_its_rows(self, array):
        view = ShardPlan(DataStream(array, chunk_size=89), 3).views()[1]
        payload = pickle.dumps(view)
        assert len(payload) < array.nbytes // 2
        shipped = pickle.loads(payload)
        for (o1, c1), (o2, c2) in zip(view.chunks(), shipped.chunks()):
            assert o1 == o2
            np.testing.assert_array_equal(c1, c2)
        assert len(list(shipped.chunks())) == view.spec.n_chunks

    def test_shard_counters_record_the_fanout(self, array):
        _, recorder = _run_sampler(
            SAMPLERS["density"], lambda: DataStream(array, chunk_size=89), 3
        )
        counters = recorder.counters
        assert counters["shards_fitted"] == 3
        assert counters["shard_merges"] > 0
        # Three sharded scans (fit, eval, gather) over 611 rows each.
        assert counters["shard_rows"] == 3 * len(array)


# ---------------------------------------------------------------------------
# Plain-numpy references: no stream, no ShardPlan
# ---------------------------------------------------------------------------


def _reference_kde_fit(array, chunk_size, n_kernels, seed):
    """Centers and bandwidths of a KDE fit, straight from the array:
    reservoir sampling chunk by chunk plus a chunked Welford fold."""
    from repro.density.bandwidth import resolve_bandwidth
    from repro.density.kernels import get_kernel
    from repro.density.reservoir import ReservoirSampler

    reservoir = ReservoirSampler(n_kernels, random_state=seed)
    count, mean, m2 = 0, None, None
    for start in range(0, array.shape[0], chunk_size):
        chunk = array[start : start + chunk_size]
        reservoir.extend(chunk)
        count_b = chunk.shape[0]
        mean_b = chunk.mean(axis=0)
        m2_b = ((chunk - mean_b) ** 2).sum(axis=0)
        if count == 0:
            count, mean, m2 = count_b, mean_b, m2_b
            continue
        delta = mean_b - mean
        total = count + count_b
        mean = mean + delta * (count_b / total)
        m2 = m2 + m2_b + delta**2 * (count * count_b / total)
        count = total
    bandwidths = resolve_bandwidth(
        "scott",
        np.sqrt(m2 / (count - 1)),
        count,
        array.shape[1],
        get_kernel("epanechnikov"),
        scale=float(np.abs(mean).max()),
    )
    return reservoir.sample, bandwidths


class TestPlainNumpyReferences:
    """Every pass checked against numpy over the materialised array,
    so the one-shard run is checked too, not used as the baseline."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_kde_fit_matches_reference(self, array, shards, n_jobs):
        centers, bandwidths = _reference_kde_fit(array, 89, 64, 3)
        with use_n_jobs(n_jobs), use_shards(shards):
            kde = KernelDensityEstimator(n_kernels=64, random_state=3).fit(
                DataStream(array, chunk_size=89)
            )
        np.testing.assert_array_equal(kde.centers_, centers)
        np.testing.assert_array_equal(kde.bandwidths_, bandwidths)
        assert kde.n_points_ == len(array)

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_density_pass_and_gather_match_reference(
        self, array, shards, n_jobs
    ):
        estimator = KernelDensityEstimator(n_kernels=64, random_state=5).fit(
            array
        )
        densities = estimator.evaluate(array)
        sampler = DensityBiasedSampler(
            sample_size=80, exponent=-0.5, estimator=estimator,
            random_state=13,
        )
        with use_n_jobs(n_jobs), use_shards(shards):
            result = sampler.sample(stream=DataStream(array, chunk_size=89))
        expected = DensityBiasedSampler(
            sample_size=80, exponent=-0.5, random_state=13
        ).compute_probabilities(densities)
        np.testing.assert_array_equal(sampler.probabilities_, expected)
        np.testing.assert_array_equal(
            result.densities, densities[result.indices]
        )
        np.testing.assert_array_equal(result.points, array[result.indices])

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("exact_size", [False, True])
    def test_uniform_gather_matches_reference(
        self, array, shards, exact_size
    ):
        with use_shards(shards):
            result = UniformSampler(
                sample_size=80, exact_size=exact_size, random_state=13
            ).sample(stream=DataStream(array, chunk_size=89))
        mask = np.zeros(len(array), dtype=bool)
        mask[result.indices] = True
        np.testing.assert_array_equal(result.points, array[mask])


# ---------------------------------------------------------------------------
# Property: random streams x shard counts x fault policies
# ---------------------------------------------------------------------------


class TestShardedEquivalenceProperty:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    @given(
        n_rows=st.integers(min_value=30, max_value=300),
        chunk_size=st.integers(min_value=7, max_value=101),
        shards=st.sampled_from([1, 2, 3, 7]),
        policy=st.sampled_from(["strict", "quarantine", "repair"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_sharded_fit_equals_serial(
        self, tmp_path, n_rows, chunk_size, shards, policy, seed
    ):
        data = np.random.default_rng(seed).normal(size=(n_rows, 2))
        if policy != "strict":
            data[n_rows // 3, 0] = np.nan  # policy has work to do
        path = os.path.join(tmp_path, f"h{seed}_{n_rows}_{chunk_size}.npy")
        np.save(path, data)

        def run(n_shards):
            recorder = Recorder()
            sampler = DensityBiasedSampler(
                sample_size=min(25, n_rows),
                exponent=-0.5,
                estimator=KernelDensityEstimator(
                    n_kernels=16, random_state=2
                ),
                random_state=seed,
            )
            stream = NpyFileStream(
                path, chunk_size=chunk_size, fault_policy=policy
            )
            with use_recorder(recorder), use_shards(n_shards):
                return sampler.sample(stream=stream), recorder

        base, rec0 = run(1)
        got, rec1 = run(shards)
        np.testing.assert_array_equal(base.points, got.points)
        np.testing.assert_array_equal(base.indices, got.indices)
        np.testing.assert_array_equal(base.probabilities, got.probabilities)
        np.testing.assert_array_equal(base.weights, got.weights)
        np.testing.assert_array_equal(base.densities, got.densities)
        assert _counters_sans_shard(rec0) == _counters_sans_shard(rec1)


# ---------------------------------------------------------------------------
# fit_from_partials / runner integration
# ---------------------------------------------------------------------------


class TestFitFromPartials:
    def test_partials_fold_matches_direct_fit(self, array):
        from repro.density.reservoir import ReservoirSampler
        from repro.sharding import fit_shards

        stream = DataStream(array, chunk_size=89)
        planner = ReservoirSampler(32, random_state=11)
        plan = ShardPlan(stream, 3)
        accept_plan = planner.plan(plan.n_rows)
        state = fit_shards(plan, accept_plan.wanted_indices())
        kde = KernelDensityEstimator(
            n_kernels=32, random_state=11
        ).fit_from_partials([state], accept_plan)
        serial = KernelDensityEstimator(n_kernels=32, random_state=11).fit(
            DataStream(array, chunk_size=89)
        )
        np.testing.assert_array_equal(kde.centers_, serial.centers_)
        np.testing.assert_array_equal(kde.bandwidths_, serial.bandwidths_)

    def test_row_count_mismatch_raises(self, array):
        from repro.density.reservoir import ReservoirSampler
        from repro.sharding import fit_shards

        stream = DataStream(array, chunk_size=89)
        planner = ReservoirSampler(8, random_state=0)
        wrong_plan = planner.plan(len(array) + 5)
        state = fit_shards(
            ShardPlan(stream, 2),
            wrong_plan.wanted_indices(),
        )
        with pytest.raises(ParameterError, match="reservoir plan"):
            KernelDensityEstimator(n_kernels=8).fit_from_partials(
                [state], wrong_plan
            )


class TestRunExperimentShards:
    def test_shards_param_recorded_and_equivalent(self):
        from repro.experiments.runner import run_experiment

        serial = run_experiment(
            "lemma1", scale=0.05, seed=0, verbose=False
        )
        sharded = run_experiment(
            "lemma1", scale=0.05, seed=0, verbose=False, shards=3
        )
        assert sharded.manifest.params["shards"] == 3
        base = {
            k: v
            for k, v in serial.manifest.counters.items()
            if not k.startswith("shard")
        }
        got = {
            k: v
            for k, v in sharded.manifest.counters.items()
            if not k.startswith("shard")
        }
        assert base == got
