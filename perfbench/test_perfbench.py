"""Tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""
# A test module exports nothing.
# repro-lint: disable=RL004

import dataclasses
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import workloads
from run import SELF_TIME_METRICS, layer_metrics
from spans import Span, Tracer, self_times

MAIN = 1


def _span(name, start, end, depth=0, thread=MAIN):
    return Span(name=name, thread=thread, start=start, end=end, depth=depth)


class TestSelfTimes:
    def test_nested_spans_subtract_their_children(self):
        spans = [
            _span("root", 0.0, 10.0),
            _span("a", 1.0, 4.0, depth=1),
            _span("b", 2.0, 3.0, depth=2),
            _span("c", 5.0, 9.0, depth=1),
        ]
        owned = self_times(spans, MAIN)
        assert owned == pytest.approx({"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0})
        assert sum(owned.values()) == pytest.approx(10.0)

    def test_same_name_nested_is_counted_once(self):
        spans = [
            _span("root", 0.0, 4.0),
            _span("eval", 0.0, 4.0, depth=1),
            _span("eval", 1.0, 3.0, depth=2),
        ]
        assert self_times(spans, MAIN) == pytest.approx({"eval": 4.0})

    def test_spans_outside_the_main_thread_tree_are_ignored(self):
        spans = [_span("root", 1.0, 2.0), _span("w", 0.0, 3.0, thread=2)]
        assert self_times(spans, MAIN) == pytest.approx({"w": 1.0})

    def test_worker_spans_share_the_waiting_main_thread(self):
        spans = [
            _span("root", 0.0, 10.0),
            _span("m", 1.0, 9.0, depth=1),
            _span("w", 2.0, 6.0, thread=2),
            _span("w2", 4.0, 8.0, thread=3),
        ]
        owned = self_times(spans, MAIN)
        # [2,4] w alone, [4,6] w and w2 half each, [6,8] w2 alone.
        assert owned == pytest.approx({"root": 2.0, "m": 2.0, "w": 3.0, "w2": 3.0})
        assert sum(owned.values()) == pytest.approx(10.0)

    def test_tracer_marks_nested_and_records_rows(self):
        tracer = Tracer()

        def worker():
            with tracer.span("density.evaluate", rows=7):
                pass

        with tracer.span("job"):
            with tracer.span("density.evaluate", rows=10):
                with tracer.span("density.evaluate", rows=4):
                    pass
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert tracer.total("density.evaluate", "rows") == 17
        owned = self_times(tracer.spans, tracer.main_thread)
        root = next(s for s in tracer.spans if s.name == "job")
        assert sum(owned.values()) == pytest.approx(root.end - root.start)


def _output(**result):
    return workloads.JobOutput(SimpleNamespace(**result), 1.0, {})


class TestOutputChecks:
    cluster = workloads.WORKLOADS["cluster-kde"]
    outliers = workloads.WORKLOADS["outliers"]

    def test_well_formed_results_pass(self):
        labels = np.arange(10) % workloads.N_CLUSTERS
        assert workloads.check_output(
            self.cluster, 10, _output(labels=labels, n_passes=4)
        ) == []
        assert workloads.check_output(
            self.outliers, 10, _output(indices=np.array([1, 5]), n_passes=3)
        ) == []

    @pytest.mark.parametrize(
        "labels, n_passes",
        [
            (np.zeros(9, dtype=int), 4),  # wrong length
            (np.full(10, workloads.N_CLUSTERS), 4),  # label out of range
            (np.full(10, -1), 4),  # noise label leaked to the full data
            (np.zeros(10, dtype=int), 5),  # undeclared pass
        ],
    )
    def test_malformed_clustering_fails(self, labels, n_passes):
        problems = workloads.check_output(
            self.cluster, 10, _output(labels=labels, n_passes=n_passes)
        )
        assert problems

    @pytest.mark.parametrize(
        "indices", [np.array([1, 1]), np.array([10]), np.array([-1])]
    )
    def test_malformed_outliers_fail(self, indices):
        problems = workloads.check_output(
            self.outliers, 10, _output(indices=indices, n_passes=3)
        )
        assert problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_does_not_change_the_result(name, tmp_path):
    """A small copy of each workload: the traced job reproduces the
    untraced one byte for byte and its self times sum to the root."""
    workload = dataclasses.replace(
        workloads.WORKLOADS[name], n_points=4000
    )
    inputs = workloads.make_inputs(workload, 3, str(tmp_path))
    plain = workloads.run_job(workload, inputs, 11)
    traced = workloads.run_job(workload, inputs, 11, Tracer())
    n_rows = inputs.points.shape[0]
    assert workloads.check_output(workload, n_rows, plain) == []
    assert workloads.fingerprint(plain) == workloads.fingerprint(traced)
    metrics, problems = layer_metrics(traced)
    assert problems == []
    layer_sum = sum(metrics[m] for m in SELF_TIME_METRICS.values())
    assert layer_sum == pytest.approx(metrics["job.traced_wall_s"])
