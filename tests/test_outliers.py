"""Tests for DB(p, k) outlier detection (exact and approximate)."""

import heapq
import tracemalloc

import numpy as np
import pytest

from repro.datasets import make_outlier_dataset
from repro.density import KernelDensityEstimator
from repro.exceptions import ParameterError
from repro.obs import Recorder, use_recorder
from repro.outliers import (
    ApproximateOutlierDetector,
    CellBasedOutlierDetector,
    IndexedOutlierDetector,
    NestedLoopOutlierDetector,
    is_db_outlier_count,
)
from repro.outliers.base import resolve_p
from repro.utils import NpyFileStream
from repro.utils.streams import DataStream


@pytest.fixture
def simple_case():
    """A tight blob plus two isolated points: unambiguous outliers."""
    rng = np.random.default_rng(0)
    blob = rng.normal(0.0, 0.05, size=(300, 2))
    outliers = np.array([[3.0, 3.0], [-3.0, 2.0]])
    return np.vstack([blob, outliers]), {300, 301}


def _reference_counts(candidates, data, k):
    """Brute-force verify counts from direct coordinate differences."""
    within = ((candidates[:, None] - data[None]) ** 2).sum(-1) <= k * k
    return within.sum(axis=1) - 1


class TestDefinitions:
    def test_predicate(self):
        assert is_db_outlier_count(0, p=0)
        assert is_db_outlier_count(5, p=5)
        assert not is_db_outlier_count(6, p=5)

    def test_resolve_p_exclusive_args(self):
        with pytest.raises(ParameterError, match="exactly one"):
            resolve_p(None, None, 100)
        with pytest.raises(ParameterError, match="exactly one"):
            resolve_p(3, 0.1, 100)

    def test_resolve_fraction(self):
        assert resolve_p(None, 0.05, 200) == 10

    def test_resolve_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            resolve_p(-1, None, 100)
        with pytest.raises(ParameterError):
            resolve_p(None, 1.0, 100)


class TestExactDetectors:
    def test_nested_loop_finds_isolated(self, simple_case):
        data, truth = simple_case
        result = NestedLoopOutlierDetector(k=0.5, p=0).detect(data)
        assert set(result.indices.tolist()) == truth

    def test_indexed_finds_isolated(self, simple_case):
        data, truth = simple_case
        result = IndexedOutlierDetector(k=0.5, p=0).detect(data)
        assert set(result.indices.tolist()) == truth

    def test_detectors_agree(self):
        rng = np.random.default_rng(1)
        data = rng.random((500, 3))
        for k, p in ((0.1, 2), (0.2, 5), (0.05, 0)):
            nested = NestedLoopOutlierDetector(k=k, p=p).detect(data)
            indexed = IndexedOutlierDetector(k=k, p=p).detect(data)
            np.testing.assert_array_equal(nested.indices, indexed.indices)
            np.testing.assert_array_equal(
                nested.neighbor_counts, indexed.neighbor_counts
            )

    def test_small_blocks_equal_big_blocks(self, simple_case):
        data, _ = simple_case
        small = NestedLoopOutlierDetector(k=0.5, p=0, block_size=7).detect(
            data
        )
        big = NestedLoopOutlierDetector(k=0.5, p=0, block_size=100_000).detect(
            data
        )
        np.testing.assert_array_equal(small.indices, big.indices)

    def test_self_not_counted(self):
        data = np.array([[0.0, 0.0], [10.0, 0.0]])
        result = IndexedOutlierDetector(k=1.0, p=0).detect(data)
        # Both points have zero neighbours within k=1: both are outliers.
        assert len(result) == 2
        assert (result.neighbor_counts == 0).all()

    def test_fraction_parameterisation(self, simple_case):
        data, truth = simple_case
        result = IndexedOutlierDetector(k=0.5, fraction=0.001).detect(data)
        assert set(result.indices.tolist()) == truth

    def test_p_large_makes_everything_outlier(self):
        data = np.random.default_rng(2).random((50, 2))
        result = IndexedOutlierDetector(k=0.1, p=50).detect(data)
        assert len(result) == 50

    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            NestedLoopOutlierDetector(k=0.0, p=1)


class TestApproximateDetector:
    def test_matches_exact_on_planted(self):
        data = make_outlier_dataset(
            n_points=4000, n_outliers=12, random_state=1
        )
        k = data.guaranteed_radius
        approx = ApproximateOutlierDetector(k=k, p=0, random_state=0).detect(
            data.points
        )
        exact = IndexedOutlierDetector(k=k, p=0).detect(data.points)
        assert set(approx.indices.tolist()) == set(exact.indices.tolist())

    def test_verification_guarantees_precision(self, simple_case):
        """Everything reported must truly satisfy the DB predicate."""
        data, _ = simple_case
        result = ApproximateOutlierDetector(
            k=0.5, p=0, random_state=0
        ).detect(data)
        exact = IndexedOutlierDetector(k=0.5, p=0).detect(data)
        assert set(result.indices.tolist()) <= set(exact.indices.tolist())

    def test_pass_budget(self, simple_case):
        """Fit + screen + verify <= 3 passes (the paper's budget)."""
        data, _ = simple_case
        stream = DataStream(data)
        ApproximateOutlierDetector(k=0.5, p=0, random_state=0).detect(
            None, stream=stream
        )
        assert stream.passes <= 3

    def test_screening_shrinks_candidates(self):
        data = make_outlier_dataset(
            n_points=5000, n_outliers=10, random_state=2
        )
        result = ApproximateOutlierDetector(
            k=data.guaranteed_radius, p=0, random_state=0
        ).detect(data.points)
        assert result.n_candidates < data.n_points * 0.05

    def test_montecarlo_screen(self, simple_case):
        data, truth = simple_case
        result = ApproximateOutlierDetector(
            k=0.5, p=0, screen="montecarlo", n_mc=64, random_state=0
        ).detect(data)
        assert set(result.indices.tolist()) == truth

    def test_count_estimate_in_right_ballpark(self):
        data = make_outlier_dataset(
            n_points=5000, n_outliers=25, random_state=3
        )
        estimate = ApproximateOutlierDetector(
            k=data.guaranteed_radius, p=0, random_state=0
        ).estimate_outlier_count(data.points)
        assert 5 <= estimate <= 250  # one-pass estimate, order of magnitude

    def test_no_outliers_case(self):
        data = np.random.default_rng(4).normal(0, 0.05, size=(500, 2))
        result = ApproximateOutlierDetector(
            k=1.0, p=0, random_state=0
        ).detect(data)
        assert len(result) == 0

    def test_rejects_bad_screen(self):
        with pytest.raises(ParameterError, match="screen"):
            ApproximateOutlierDetector(k=0.1, p=0, screen="exact")

    def test_neighbor_counts_verified(self, simple_case):
        data, _ = simple_case
        result = ApproximateOutlierDetector(
            k=0.5, p=0, random_state=0
        ).detect(data)
        exact = IndexedOutlierDetector(k=0.5, p=0).detect(data)
        exact_counts = dict(zip(exact.indices.tolist(),
                                exact.neighbor_counts.tolist()))
        for idx, count in zip(result.indices.tolist(),
                              result.neighbor_counts.tolist()):
            assert exact_counts[idx] == count

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("shift", [0.0, 2.0**20, 2.0**30, 2.0**40])
    def test_translation_and_column_swap_invariant(self, shift, swap):
        """Dyadic data moves exactly, so every count must stay put,
        for the screened detector and for every exact one."""
        rng = np.random.default_rng(0)
        base = np.round(rng.random((400, 2)) * 64) / 64
        moved = base + shift
        if swap:
            moved = moved[:, ::-1]

        def detect(data):
            return ApproximateOutlierDetector(
                k=5 / 64, p=1, candidate_quantile=1.0, random_state=0
            ).detect(data)

        reference = detect(base)
        assert len(reference) == 6
        for other in (
            detect(moved),
            IndexedOutlierDetector(k=5 / 64, p=1).detect(moved),
            NestedLoopOutlierDetector(k=5 / 64, p=1).detect(moved),
            CellBasedOutlierDetector(k=5 / 64, p=1).detect(moved),
        ):
            np.testing.assert_array_equal(other.indices, reference.indices)
            np.testing.assert_array_equal(
                other.neighbor_counts, reference.neighbor_counts
            )


class TestVerifyCounts:
    """The verify pass against brute-force direct-difference counts."""

    @staticmethod
    def _verify(stream, candidates, k):
        return ApproximateOutlierDetector(k=k, p=0)._verify(
            stream, candidates
        )

    def test_radius_is_inclusive(self):
        data = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -0.5], [0.6, 0.0]])
        counts = self._verify(DataStream(data), data[:1], 0.5)
        assert counts.tolist() == [2]
        np.testing.assert_array_equal(
            counts, _reference_counts(data[:1], data, 0.5)
        )

    def test_duplicated_candidate(self):
        rng = np.random.default_rng(5)
        data = rng.random((60, 2))
        data = np.vstack([data, data[:3]])
        candidates = data[[0, 1, 2, 10]]
        np.testing.assert_array_equal(
            self._verify(DataStream(data), candidates, 0.2),
            _reference_counts(candidates, data, 0.2),
        )

    def test_chunking_with_one_row_tail(self):
        rng = np.random.default_rng(6)
        data = rng.random((71, 2))  # 10 chunks of 7 and a 1-row tail
        candidates = data[::5]
        chunked_rec, whole_rec = Recorder(), Recorder()
        with use_recorder(chunked_rec):
            chunked = self._verify(
                DataStream(data, chunk_size=7), candidates, 0.15
            )
        with use_recorder(whole_rec):
            whole = self._verify(
                DataStream(data, chunk_size=71), candidates, 0.15
            )
        np.testing.assert_array_equal(chunked, whole)
        # The work counter is the in-radius pairs, not chunk geometry.
        assert (
            chunked_rec.counters["neighbor_pairs"]
            == whole_rec.counters["neighbor_pairs"]
            == int((chunked + 1).sum())
        )
        assert "distance_evals" not in chunked_rec.counters
        np.testing.assert_array_equal(
            chunked, _reference_counts(candidates, data, 0.15)
        )

    def test_zero_candidates(self):
        data = np.random.default_rng(7).random((30, 2))
        counts = self._verify(DataStream(data), np.empty((0, 2)), 0.1)
        assert counts.shape == (0,)

    @pytest.mark.parametrize("n_dims", [1, 5])
    def test_dimensions(self, n_dims):
        rng = np.random.default_rng(n_dims)
        data = rng.random((200, n_dims))
        candidates = data[::7]
        np.testing.assert_array_equal(
            self._verify(DataStream(data, chunk_size=64), candidates, 0.3),
            _reference_counts(candidates, data, 0.3),
        )

    def test_npy_file_stream(self, tmp_path):
        data = np.random.default_rng(8).random((150, 3))
        path = str(tmp_path / "data.npy")
        np.save(path, data)
        candidates = data[::9]
        np.testing.assert_array_equal(
            self._verify(NpyFileStream(path, chunk_size=40), candidates, 0.25),
            _reference_counts(candidates, data, 0.25),
        )

    def test_quarantine_counts_survivors_only(self):
        rng = np.random.default_rng(9)
        data = rng.random((120, 2))
        dirty = data.copy()
        dirty[[3, 40, 41, 99]] = np.nan
        survivors = dirty[np.isfinite(dirty).all(axis=1)]
        stream = DataStream(dirty, chunk_size=32, fault_policy="quarantine")
        candidates = survivors[::6]
        np.testing.assert_array_equal(
            self._verify(stream, candidates, 0.2),
            _reference_counts(candidates, survivors, 0.2),
        )

    def test_memory_is_not_candidates_by_chunk(self):
        """2,000 candidates over a 16,384-row chunk: a dense distance
        matrix alone would be about 262 MB."""
        rng = np.random.default_rng(10)
        data = rng.random((16_384, 2))
        candidates = rng.random((2_000, 2))
        stream = DataStream(data, chunk_size=16_384)
        tracemalloc.start()
        try:
            self._verify(stream, candidates, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _reference_screen(detector, source, estimator, p):
    """The screen's row-by-row quantile-heap loop, visiting every row."""
    threshold = detector.slack * (p + 1)
    quota = int(np.ceil(detector.candidate_quantile * len(source)))
    below, sparsest, pushes = {}, [], 0
    for start, chunk in source.iter_with_offsets():
        expected = detector._expected_neighbors(chunk, estimator)
        for keep_local in np.nonzero(expected <= threshold)[0]:
            below[start + int(keep_local)] = chunk[keep_local]
        if quota:
            for local, value in enumerate(expected):
                entry = (-float(value), start + local, chunk[local])
                if len(sparsest) < quota:
                    heapq.heappush(sparsest, entry)
                    pushes += 1
                elif value < -sparsest[0][0]:
                    heapq.heapreplace(sparsest, entry)
                    pushes += 1
    for _, idx, point in sparsest:
        below.setdefault(idx, point)
    indices = np.array(sorted(below), dtype=np.int64)
    return indices, np.vstack([below[int(i)] for i in indices]), pushes


class TestScreenHeap:
    """The screen's skip of rows that cannot enter the quantile heap
    leaves its candidates and its ``heap_pushes`` count unchanged."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = np.random.default_rng(11)
        blob = rng.normal(0.0, 0.3, size=(1_500, 2))
        # Far rows get an exact-zero KDE density (no center within the
        # support); repeated rows tie at one nonzero density.
        far = rng.uniform(20.0, 40.0, size=(300, 2))
        ties = np.repeat(blob[:4] * 3.0, 60, axis=0)
        data = np.vstack([blob, far, ties])
        rng.shuffle(data)
        estimator = KernelDensityEstimator()
        estimator.fit_from_centers(blob[::3], len(data), bandwidths=0.4)
        return data, estimator

    @pytest.mark.parametrize("chunk_size", [97, 1_000, 4_096])
    @pytest.mark.parametrize("quota", [1, 150, 299, 300, 301, 420, 2_000])
    def test_matches_row_by_row_loop(self, case, chunk_size, quota):
        data, estimator = case
        detector = ApproximateOutlierDetector(
            k=0.05,
            p=0,
            estimator=estimator,
            slack=1e-3,
            candidate_quantile=quota / len(data),
        )
        assert int(np.ceil(detector.candidate_quantile * len(data))) == quota
        expected = detector._expected_neighbors(data, estimator)
        # The quota boundary falls inside the zero or the nonzero ties.
        assert (expected == 0.0).sum() == 300
        recorder = Recorder()
        with use_recorder(recorder):
            indices, points = detector._screen(
                DataStream(data, chunk_size=chunk_size), estimator, 0
            )
        ref_indices, ref_points, pushes = _reference_screen(
            detector, DataStream(data, chunk_size=chunk_size), estimator, 0
        )
        np.testing.assert_array_equal(indices, ref_indices)
        assert points.tobytes() == ref_points.tobytes()
        assert recorder.counters["heap_pushes"] == pushes
