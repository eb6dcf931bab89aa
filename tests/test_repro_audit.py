"""Tests for tools/repro_audit: every rule positive + negative +
suppression, why-traces, the SARIF reporter (validated against an
embedded SARIF 2.1.0 subset schema), the CLI exit codes, and the tier
gates that pin ``src/repro`` audit-clean and the samplers' static pass
counts."""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.astkit import build_model, collect_python_files  # noqa: E402
from tools.repro_audit import audit_paths, iter_rules  # noqa: E402
from tools.repro_audit.__main__ import main  # noqa: E402
from tools.repro_audit.graph import CallGraph  # noqa: E402
from tools.repro_audit.reporting import render_json, render_sarif  # noqa: E402
from tools.repro_audit.rules_passes import entry_pass_counts  # noqa: E402
from tools.repro_audit.rules_space import (  # noqa: E402
    B,
    CHUNK,
    CONST,
    M,
    N,
    UNBOUNDED,
    entry_space_bounds,
    parse_bound,
)


def audit_snippet(tmp_path: Path, source: str, *, select=None, name="mod.py"):
    """Write ``source`` to a scratch module and audit it."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return audit_paths([path], select=select)


def codes(findings) -> list[str]:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# RA001 — pass-count audit
# ---------------------------------------------------------------------------


ONE_SCAN_SAMPLER = """
    class GoodSampler:
        '''One-scan sampler.

        Dataset passes: 1

        Memory: O(n)
        '''

        __n_passes__ = 1
        __space__ = "O(n)"

        def sample(self, data=None, *, stream=None):
            out = []
            for chunk in stream:
                out.append(chunk)
            return out
    """


class TestRA001:
    def test_declared_matching_scan_count_clean(self, tmp_path):
        assert audit_snippet(tmp_path, ONE_SCAN_SAMPLER, select=["RA001"]) == []

    def test_mismatched_declaration_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class DoubleScan:
                '''Dataset passes: 1'''

                __n_passes__ = 1

                def sample(self, data=None, *, stream=None):
                    for chunk in stream:
                        pass
                    for chunk in stream:
                        pass
            """,
            select=["RA001"],
        )
        assert codes(found) == ["RA001"]
        assert "__n_passes__ declares 1" in found[0].message
        assert "2" in found[0].message

    def test_missing_declaration_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Undeclared:
                def sample(self, data=None, *, stream=None):
                    for chunk in stream:
                        pass
            """,
            select=["RA001"],
        )
        assert codes(found) == ["RA001"]
        assert "no __n_passes__" in found[0].message

    def test_scan_inside_loop_unbounded(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Rescanner:
                '''Dataset passes: 1'''

                __n_passes__ = 1

                def sample(self, data=None, *, stream=None):
                    while True:
                        for chunk in stream:
                            pass
            """,
            select=["RA001"],
        )
        assert any("unbounded" in f.message for f in found)

    def test_cross_function_scan_carries_why_trace(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _drain(source):
                for chunk in source:
                    pass

            class Delegating:
                '''Dataset passes: 1'''

                __n_passes__ = 1

                def sample(self, data=None, *, stream=None):
                    _drain(stream)
                    _drain(stream)
            """,
            select=["RA001"],
        )
        assert codes(found) == ["RA001"]
        # The mismatch finding explains *where* the scans are via the
        # call-graph trace: the hops reach the helper's scan on line 3.
        assert found[0].trace
        assert any("mod.py:3" in hop for hop in found[0].trace)

    def test_docstring_drift_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Drifted:
                '''Dataset passes: 2'''

                __n_passes__ = 1

                def sample(self, data=None, *, stream=None):
                    for chunk in stream:
                        pass
            """,
            select=["RA001"],
        )
        assert codes(found) == ["RA001"]
        assert "Dataset passes: 2" in found[0].message
        assert found[0].anchor.endswith("__doc__")

    def test_branches_take_max_not_sum(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Either:
                '''Dataset passes: 1'''

                __n_passes__ = 1

                def sample(self, data=None, *, stream=None, fast=True):
                    if fast:
                        for chunk in stream:
                            pass
                    else:
                        for chunk in stream:
                            pass
            """,
            select=["RA001"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA002 — parallel-determinism audit
# ---------------------------------------------------------------------------


class TestRA002:
    def test_rng_in_worker_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            import numpy as np

            def _worker(chunk):
                rng = np.random.default_rng()
                return rng.random(3)

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA002"],
        )
        assert "RA002" in codes(found)
        assert any("default_rng" in f.message for f in found)
        # The trace walks from the dispatch site into the worker.
        flagged = [f for f in found if "default_rng" in f.message][0]
        assert any("dispatched by" in hop for hop in flagged.trace)

    def test_pure_worker_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _worker(chunk):
                return chunk.sum()

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA002"],
        )
        assert found == []

    def test_context_installer_in_worker_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _worker(chunk):
                use_recorder(None)
                return chunk

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA002"],
        )
        assert codes(found) == ["RA002"]
        assert "use_recorder" in found[0].message

    def test_rng_outside_worker_not_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            import numpy as np

            def _worker(chunk):
                return chunk.sum()

            def run(chunks, seed):
                rng = np.random.default_rng(seed)
                order = rng.permutation(len(chunks))
                return parallel_map_chunks(_worker, [chunks[i] for i in order])
            """,
            select=["RA002"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA003 — exception-contract audit
# ---------------------------------------------------------------------------


class TestRA003:
    def test_give_up_inheriting_oserror_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class StreamReadError(OSError):
                pass
            """,
            select=["RA003"],
        )
        assert codes(found) == ["RA003"]
        assert "OSError" in found[0].message

    def test_give_up_outside_os_hierarchy_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class StreamReadError(Exception):
                pass
            """,
            select=["RA003"],
        )
        assert found == []

    def test_except_oserror_wrapping_give_up_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class StreamReadError(Exception):
                pass

            def read_all(path):
                try:
                    raise StreamReadError("retries exhausted")
                except OSError:
                    return None
            """,
            select=["RA003"],
        )
        assert codes(found) == ["RA003"]
        assert "except OSError" in found[0].message

    def test_except_oserror_around_plain_io_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class StreamReadError(Exception):
                pass

            def read_all(path):
                try:
                    return open(path).read()
                except OSError:
                    return None
            """,
            select=["RA003"],
        )
        assert found == []

    def test_swallowed_give_up_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class StreamReadError(Exception):
                pass

            def read_all(path):
                try:
                    raise StreamReadError("retries exhausted")
                except StreamReadError:
                    return None
            """,
            select=["RA003"],
        )
        assert codes(found) == ["RA003"]
        assert "swallow" in found[0].message

    def test_reraised_give_up_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class StreamReadError(Exception):
                pass

            def read_all(path):
                try:
                    raise StreamReadError("retries exhausted")
                except StreamReadError:
                    raise
            """,
            select=["RA003"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA004 — counter-schema audit
# ---------------------------------------------------------------------------


class TestRA004:
    def test_unregistered_increment_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            COUNTER_SCHEMA = {"rows_seen": None}

            def f(rec):
                rec.count("rows_seen", 1)
                rec.count("mystery_counter", 1)
            """,
            select=["RA004"],
        )
        assert codes(found) == ["RA004"]
        assert "mystery_counter" in found[0].message
        assert found[0].anchor == "mystery_counter"
        assert found[0].trace  # names the incrementing function

    def test_dead_registry_entry_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            COUNTER_SCHEMA = {"rows_seen": None, "never_bumped": None}

            def f(rec):
                rec.count("rows_seen", 1)
            """,
            select=["RA004"],
        )
        assert codes(found) == ["RA004"]
        assert "never_bumped" in found[0].message

    def test_missing_registry_flagged_once(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def f(rec):
                rec.count("rows_seen", 1)
                rec.count("cols_seen", 1)
            """,
            select=["RA004"],
        )
        assert codes(found) == ["RA004"]
        assert "no COUNTER_SCHEMA" in found[0].message

    def test_annotated_registry_binding_recognised(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            COUNTER_SCHEMA: dict = {"rows_seen": None}

            def f(rec):
                rec.count("rows_seen", 1)
            """,
            select=["RA004"],
        )
        assert found == []

    def test_str_count_lookalike_ignored(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            COUNTER_SCHEMA = {"rows_seen": None}

            def f(rec, text):
                rec.count("rows_seen", 1)
                return "abc".count("a") + [1, 2].count(1)
            """,
            select=["RA004"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA008 — histogram-schema audit
# ---------------------------------------------------------------------------


class TestRA008:
    def test_unregistered_observation_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            HISTOGRAM_SCHEMA = {"chunk_seconds": None}

            def f(rec):
                rec.observe("chunk_seconds", 0.1)
                rec.observe("mystery_histogram", 0.1)
            """,
            select=["RA008"],
        )
        assert codes(found) == ["RA008"]
        assert "mystery_histogram" in found[0].message
        assert found[0].anchor == "mystery_histogram"
        assert found[0].trace  # names the observing function

    def test_dead_registry_entry_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            HISTOGRAM_SCHEMA = {"chunk_seconds": None, "never_observed": None}

            def f(rec):
                rec.observe("chunk_seconds", 0.1)
            """,
            select=["RA008"],
        )
        assert codes(found) == ["RA008"]
        assert "never_observed" in found[0].message

    def test_missing_registry_flagged_once(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def f(rec):
                rec.observe("chunk_seconds", 0.1)
                rec.observe("chunk_rows", 4)
            """,
            select=["RA008"],
        )
        assert codes(found) == ["RA008"]
        assert "no HISTOGRAM_SCHEMA" in found[0].message

    def test_registered_observation_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            HISTOGRAM_SCHEMA = {"chunk_seconds": None}

            def f(rec):
                rec.observe("chunk_seconds", 0.1)
            """,
            select=["RA008"],
        )
        assert found == []

    def test_suppression_comment_honoured(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # repro-audit: disable=RA008
            HISTOGRAM_SCHEMA = {"chunk_seconds": None}

            def f(rec):
                rec.observe("off_the_books", 0.1)
            """,
            select=["RA008"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA005 — space-complexity audit
# ---------------------------------------------------------------------------


class TestParseBound:
    def test_components_join_to_max(self):
        assert parse_bound("O(1)") == CONST
        assert parse_bound("O(b)") == B
        assert parse_bound("O(b + m)") == M
        assert parse_bound("O(m + chunk)") == CHUNK
        assert parse_bound("O(n)") == N
        assert parse_bound("unbounded") == UNBOUNDED

    def test_unknown_component_is_none(self):
        assert parse_bound("O(n log n)") is None
        assert parse_bound("linear") is None


class TestRA005:
    def test_declared_matching_bound_clean(self, tmp_path):
        assert (
            audit_snippet(tmp_path, ONE_SCAN_SAMPLER, select=["RA005"]) == []
        )

    def test_missing_declaration_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Undeclared:
                '''Dataset passes: 1'''

                __n_passes__ = 1

                def sample(self, data=None, *, stream=None):
                    return stream.materialize()
            """,
            select=["RA005"],
        )
        assert codes(found) == ["RA005"]
        assert "no __space__ declaration" in found[0].message
        # The message carries the statically propagated bound so the
        # fix is copy-pasteable.
        assert "O(n)" in found[0].message

    def test_overclaimed_bound_flagged_with_alloc_trace(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Overclaiming:
                '''Memory: O(b)'''

                __space__ = "O(b)"

                def sample(self, data=None, *, stream=None):
                    return stream.materialize()
            """,
            select=["RA005"],
        )
        assert codes(found) == ["RA005"]
        assert "declares O(b)" in found[0].message
        assert any("materialize" in hop for hop in found[0].trace)

    def test_per_phase_dict_declaration_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class PhasedSampler:
                '''Phased sampler.

                Memory: O(n)
                '''

                __space__ = {"fit": "O(m)", "draw": "O(n)"}

                def sample(self, data=None, *, stream=None):
                    recorder = get_recorder()
                    with recorder.phase("fit"):
                        table = np.zeros(self.n_buckets)
                        for chunk in stream:
                            pass
                    with recorder.phase("draw"):
                        rows = stream.materialize()
                    return rows
            """,
            select=["RA005"],
        )
        assert found == []

    def test_per_phase_dict_mismatch_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class PhasedSampler:
                '''Memory: O(m)'''

                __space__ = {"fit": "O(m)", "draw": "O(m)"}

                def sample(self, data=None, *, stream=None):
                    recorder = get_recorder()
                    with recorder.phase("fit"):
                        table = np.zeros(self.n_buckets)
                    with recorder.phase("draw"):
                        rows = stream.materialize()
                    return rows
            """,
            select=["RA005"],
        )
        assert codes(found) == ["RA005"]
        assert "draw=O(m)" in found[0].message

    def test_masked_selection_charged_expected_size(self, tmp_path):
        # The expected-size rule: accumulating chunk[keep] where keep is
        # a boolean mask is O(b), so the whole draw stays O(b + chunk).
        found = audit_snippet(
            tmp_path,
            """
            class Bernoulli:
                '''Memory: O(b + chunk)'''

                __space__ = "O(b + chunk)"

                def sample(self, data=None, *, stream=None):
                    parts = []
                    for chunk in stream:
                        probs = rng.random(chunk.shape[0])
                        keep = probs < 0.5
                        parts.append(chunk[keep])
                    return np.vstack(parts)
            """,
            select=["RA005"],
        )
        assert found == []

    def test_docstring_memory_line_required(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class NoDocLine:
                '''A sampler with no memory line.'''

                __space__ = "O(n)"

                def sample(self, data=None, *, stream=None):
                    return stream.materialize()
            """,
            select=["RA005"],
        )
        assert codes(found) == ["RA005"]
        assert 'a "Memory: O(n)" line' in found[0].message

    def test_docstring_drift_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Drifted:
                '''Memory: O(b)'''

                __space__ = "O(n)"

                def sample(self, data=None, *, stream=None):
                    return stream.materialize()
            """,
            select=["RA005"],
        )
        assert codes(found) == ["RA005"]
        assert "__space__ joins to O(n)" in found[0].message

    def test_malformed_declaration_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Malformed:
                '''Memory: O(n)'''

                __space__ = "whatever fits"

                def sample(self, data=None, *, stream=None):
                    return stream.materialize()
            """,
            select=["RA005"],
        )
        assert codes(found) == ["RA005"]
        assert 'must be an "O(...)" bound' in found[0].message

    def test_suppression(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # justified: fixture exercises the auditor itself
            # repro-audit: disable=RA005
            class Undeclared:
                def sample(self, data=None, *, stream=None):
                    return stream.materialize()
            """,
            select=["RA005"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA006 — quadratic-growth allocation audit
# ---------------------------------------------------------------------------


class TestRA006:
    def test_self_growing_concatenate_in_loop_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def grow(chunks):
                out = np.empty(0)
                for chunk in chunks:
                    out = np.concatenate([out, chunk])
                return out
            """,
            select=["RA006"],
        )
        assert codes(found) == ["RA006"]
        assert "grows its own operand 'out'" in found[0].message

    def test_vstack_in_stream_loop_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class S:
                def sample(self, data=None, *, stream=None):
                    parts = []
                    for chunk in stream:
                        parts = np.vstack([parts, chunk])
                    return parts
            """,
            select=["RA006"],
        )
        assert codes(found) == ["RA006"]

    def test_concat_wrapping_dispatch_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def collect(blocks):
                return np.concatenate(parallel_map_chunks(f, blocks))
            """,
            select=["RA006"],
        )
        assert codes(found) == ["RA006"]
        assert "preallocat" in found[0].message

    def test_single_post_loop_concat_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class S:
                '''Memory: O(n)'''

                __space__ = "O(n)"

                def sample(self, data=None, *, stream=None):
                    parts = []
                    for chunk in stream:
                        parts.append(chunk)
                    return np.vstack(parts)
            """,
            select=["RA006"],
        )
        assert found == []

    def test_list_append_lookalike_not_flagged(self, tmp_path):
        # ``parts.append(x)`` is amortised O(1) list growth, not the
        # two-argument np.append reallocation idiom.
        found = audit_snippet(
            tmp_path,
            """
            def gather(chunks):
                parts = []
                for chunk in chunks:
                    parts.append(chunk[chunk > 0])
                return parts
            """,
            select=["RA006"],
        )
        assert found == []

    def test_suppression(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # justified: fixture exercises the auditor itself
            # repro-audit: disable=RA006
            def grow(chunks):
                out = np.empty(0)
                for chunk in chunks:
                    out = np.concatenate([out, chunk])
                return out
            """,
            select=["RA006"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA007 — merge-safety contract audit
# ---------------------------------------------------------------------------


class TestRA007:
    def test_worker_mutation_without_combiner_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Estimator:
                def evaluate(self, chunk):
                    self.last_ = chunk
                    return chunk

            def run(est, blocks):
                return parallel_map_chunks(est.evaluate, blocks)
            """,
            select=["RA007"],
        )
        assert codes(found) == ["RA007"]
        assert "no merge-style combiner" in found[0].message
        assert "self.last_" in found[0].message

    def test_uncalled_combiner_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Estimator:
                def evaluate(self, chunk):
                    self.seen_ = chunk
                    return chunk

                def merge(self, other):
                    self.seen_ = self.seen_ + other.seen_

            def run(est, blocks):
                return parallel_map_chunks(est.evaluate, blocks)
            """,
            select=["RA007"],
        )
        assert codes(found) == ["RA007"]
        assert "never called" in found[0].message

    def test_called_combiner_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Estimator:
                def evaluate(self, chunk):
                    self.seen_ = chunk
                    return chunk

                def merge(self, other):
                    self.seen_ = self.seen_ + other.seen_

            def run(est, blocks):
                results = parallel_map_chunks(est.evaluate, blocks)
                for shard in results:
                    est.merge(shard)
                return est
            """,
            select=["RA007"],
        )
        assert found == []

    def test_pure_worker_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Estimator:
                def evaluate(self, chunk):
                    return chunk * 2.0

            def run(est, blocks):
                return parallel_map_chunks(est.evaluate, blocks)
            """,
            select=["RA007"],
        )
        assert found == []

    def test_dynamic_counter_name_in_worker_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Worker:
                def evaluate(self, chunk):
                    get_recorder().count(self.counter_name, chunk.shape[0])
                    return chunk

            def run(w, blocks):
                return parallel_map_chunks(w.evaluate, blocks)
            """,
            select=["RA007"],
        )
        assert codes(found) == ["RA007"]
        assert "dynamic name" in found[0].message

    def test_literal_counter_name_in_worker_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Worker:
                def evaluate(self, chunk):
                    get_recorder().count("kernel_evals", chunk.shape[0])
                    return chunk

            def run(w, blocks):
                return parallel_map_chunks(w.evaluate, blocks)
            """,
            select=["RA007"],
        )
        assert found == []

    def test_no_dispatch_sites_no_findings(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Estimator:
                def evaluate(self, chunk):
                    self.seen_ = chunk
                    return chunk
            """,
            select=["RA007"],
        )
        assert found == []

    def test_suppression(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # justified: fixture exercises the auditor itself
            # repro-audit: disable=RA007
            class Estimator:
                def evaluate(self, chunk):
                    self.last_ = chunk
                    return chunk

            def run(est, blocks):
                return parallel_map_chunks(est.evaluate, blocks)
            """,
            select=["RA007"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA009 — shared-state race audit
# ---------------------------------------------------------------------------


class TestRA009:
    def test_module_global_mutation_in_worker_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            RESULTS = []

            def _worker(chunk):
                RESULTS.append(chunk.sum())
                return chunk

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA009"],
        )
        assert codes(found) == ["RA009"]
        assert "RESULTS" in found[0].message
        assert any("dispatched by" in hop for hop in found[0].trace)

    def test_global_rebinding_in_worker_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            TOTAL = 0.0

            def _worker(chunk):
                global TOTAL
                TOTAL = TOTAL + chunk.sum()
                return chunk

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA009"],
        )
        assert codes(found) == ["RA009"]
        assert "TOTAL" in found[0].message

    def test_mutable_default_mutation_in_worker_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _worker(chunk, cache={}):
                cache[id(chunk)] = chunk.sum()
                return chunk

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA009"],
        )
        assert codes(found) == ["RA009"]
        assert "cache" in found[0].message

    def test_local_state_in_worker_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _worker(chunk):
                out = []
                out.append(chunk.sum())
                return out

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA009"],
        )
        assert found == []

    def test_coordinator_side_mutation_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            RESULTS = []

            def _worker(chunk):
                return chunk.sum()

            def run(chunks):
                for part in parallel_map_chunks(_worker, chunks):
                    RESULTS.append(part)
                return RESULTS
            """,
            select=["RA009"],
        )
        assert found == []

    def test_suppression(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # justified: fixture exercises the auditor itself
            # repro-audit: disable=RA009
            RESULTS = []

            def _worker(chunk):
                RESULTS.append(chunk.sum())
                return chunk

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA009"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA010 — RNG consumption-order audit
# ---------------------------------------------------------------------------


class TestRA010:
    def test_worker_draw_reachable_from_entry_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            import numpy as np

            def _worker(chunk):
                rng = np.random.default_rng(0)
                return rng.random(3)

            class Estimator:
                def fit(self, chunks):
                    return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA010"],
        )
        assert "RA010" in codes(found)
        assert any("fit" in f.message for f in found)

    def test_draw_under_nondeterministic_iteration_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            import os

            def draw(rng, root):
                out = []
                for name in os.listdir(root):
                    out.append(rng.random())
                return out
            """,
            select=["RA010"],
        )
        assert "RA010" in codes(found)
        assert any("listdir" in f.message for f in found)

    def test_draw_over_set_literal_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def sample(rng):
                return [rng.random() for mode in {"a", "b"}]
            """,
            select=["RA010"],
        )
        assert "RA010" in codes(found)

    def test_coordinator_draw_over_ordered_iterable_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _worker(chunk):
                return chunk.sum()

            def fit(rng, chunks):
                parts = parallel_map_chunks(_worker, chunks)
                return [rng.random() for part in parts]
            """,
            select=["RA010"],
        )
        assert found == []

    def test_suppression(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # justified: fixture exercises the auditor itself
            # repro-audit: disable=RA010
            import os

            def draw(rng, root):
                return [rng.random() for name in os.listdir(root)]
            """,
            select=["RA010"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA011 — must-release lifecycle audit
# ---------------------------------------------------------------------------


class TestRA011:
    def test_never_released_handle_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def read_all(path):
                f = open(path)
                data = f.read()
                return data
            """,
            select=["RA011"],
        )
        assert codes(found) == ["RA011"]
        assert "never closed" in found[0].message

    def test_exception_path_leak_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def read_all(path, limit):
                f = open(path)
                data = f.read(limit)
                f.close()
                return data
            """,
            select=["RA011"],
        )
        assert codes(found) == ["RA011"]
        assert "skips its release" in found[0].message

    def test_try_finally_release_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def read_all(path, limit):
                f = open(path)
                try:
                    return f.read(limit)
                finally:
                    f.close()
            """,
            select=["RA011"],
        )
        assert found == []

    def test_with_managed_acquire_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def read_all(path):
                with open(path) as f:
                    return f.read()
            """,
            select=["RA011"],
        )
        assert found == []

    def test_returned_handle_transfers_ownership(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def acquire(path):
                f = open(path)
                return f
            """,
            select=["RA011"],
        )
        assert found == []

    def test_park_on_releasing_owner_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Owner:
                def __init__(self, path):
                    f = open(path)
                    self._handle = f

                def close(self):
                    self._handle.close()
            """,
            select=["RA011"],
        )
        assert found == []

    def test_park_without_release_method_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Hoarder:
                def __init__(self, path):
                    f = open(path)
                    self._handle = f
            """,
            select=["RA011"],
        )
        assert codes(found) == ["RA011"]
        assert "no release" in found[0].message

    def test_suppression(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # justified: fixture exercises the auditor itself
            # repro-audit: disable=RA011
            def read_all(path):
                f = open(path)
                return f.read()
            """,
            select=["RA011"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# Suppression + syntax handling
# ---------------------------------------------------------------------------


class TestRunner:
    def test_file_level_suppression(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # justified: fixture exercises the auditor itself
            # repro-audit: disable=RA001
            class Undeclared:
                def sample(self, data=None, *, stream=None):
                    for chunk in stream:
                        pass
            """,
            select=["RA001"],
        )
        assert found == []

    def test_suppression_is_per_rule(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # repro-audit: disable=RA004
            class StreamReadError(OSError):
                pass
            """,
            select=["RA003"],
        )
        assert codes(found) == ["RA003"]

    def test_syntax_error_reported_not_fatal(self, tmp_path):
        found = audit_snippet(tmp_path, "def broken(:\n    pass\n")
        assert codes(found) == ["RA000"]


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


#: Subset of the SARIF 2.1.0 schema: the structural properties GitHub
#: code scanning requires of an upload. Embedded so validation needs no
#: network access.
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message", "locations"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": [
                                                    "artifactLocation",
                                                    "region",
                                                ],
                                            }
                                        },
                                    },
                                },
                                "codeFlows": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["threadFlows"],
                                    },
                                },
                                "partialFingerprints": {"type": "object"},
                            },
                        },
                    },
                },
            },
        },
    },
}


def _sample_findings(tmp_path):
    return audit_snippet(
        tmp_path,
        """
        class Undeclared:
            def sample(self, data=None, *, stream=None):
                for chunk in stream:
                    pass
        """,
        select=["RA001"],
    )


class TestReporters:
    def test_json_roundtrip(self, tmp_path):
        found = _sample_findings(tmp_path)
        payload = json.loads(render_json(found))
        assert payload["count"] == len(found) > 0
        assert payload["findings"][0]["rule"] == "RA001"

    def test_sarif_validates_against_subset_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        found = _sample_findings(tmp_path)
        log = json.loads(render_sarif(found, iter_rules()))
        jsonschema.validate(log, SARIF_SUBSET_SCHEMA)

    def test_sarif_carries_fingerprints_and_rule_ids(self, tmp_path):
        found = _sample_findings(tmp_path)
        log = json.loads(render_sarif(found, iter_rules()))
        run = log["runs"][0]
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} >= {
            "RA001",
            "RA002",
            "RA003",
            "RA004",
            "RA005",
            "RA006",
            "RA007",
            "RA008",
            "RA009",
            "RA010",
            "RA011",
        }
        result = run["results"][0]
        assert result["ruleId"] == "RA001"
        assert "reproAudit/v1" in result["partialFingerprints"]

    def test_sarif_code_flow_mirrors_trace(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _drain(source):
                for chunk in source:
                    pass

            class Delegating:
                '''Dataset passes: 1'''

                __n_passes__ = 1

                def sample(self, data=None, *, stream=None):
                    _drain(stream)
                    _drain(stream)
            """,
            select=["RA001"],
        )
        log = json.loads(render_sarif(found, iter_rules()))
        result = log["runs"][0]["results"][0]
        locations = result["codeFlows"][0]["threadFlows"][0]["locations"]
        # One location per trace hop plus the terminal finding location.
        assert len(locations) == len(found[0].trace) + 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text(textwrap.dedent(ONE_SCAN_SAMPLER))
        assert main([str(path), "--no-baseline"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("class StreamReadError(OSError):\n    pass\n")
        assert main([str(path), "--no-baseline"]) == 1
        assert "RA003" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text("x = 1\n")
        assert main([str(path), "--select", "RA999"]) == 2

    def test_missing_path_exits_two(self, tmp_path):
        assert main([str(tmp_path / "absent.py")]) == 2

    def test_baseline_accepts_existing_findings(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("class StreamReadError(OSError):\n    pass\n")
        baseline = tmp_path / "baseline.txt"
        assert main([str(path), "--baseline", str(baseline), "--write-baseline"]) == 0
        capsys.readouterr()
        assert main([str(path), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_sarif_output_to_file(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("class StreamReadError(OSError):\n    pass\n")
        out = tmp_path / "audit.sarif"
        assert (
            main(
                [
                    str(path),
                    "--no-baseline",
                    "--format",
                    "sarif",
                    "--output",
                    str(out),
                ]
            )
            == 1
        )
        assert json.loads(out.read_text())["version"] == "2.1.0"


# ---------------------------------------------------------------------------
# Tier gates on the real tree
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def src_graph():
    project, issues = build_model(
        collect_python_files([REPO_ROOT / "src" / "repro"]),
        tool="repro-audit",
    )
    assert issues == []
    return CallGraph(project)


class TestSrcRepro:
    def test_src_repro_is_audit_clean(self):
        assert audit_paths([REPO_ROOT / "src" / "repro"]) == []

    def test_one_pass_sampler_fit_is_statically_one_scan(self, src_graph):
        counts = entry_pass_counts(src_graph, "OnePassBiasedSampler")
        assert counts["fit_density"] == 1
        assert counts == {
            "fit_density": 1,
            "estimate_normalizer": 1,
            "draw": 1,
        }

    def test_two_pass_sampler_totals_three_scans(self, src_graph):
        # The pipeline's documented data_passes == 4 is these three
        # sampler scans plus the full-dataset cluster-assignment pass
        # (pinned at runtime in tests/test_obs.py).
        counts = entry_pass_counts(src_graph, "DensityBiasedSampler")
        assert sum(counts.values()) == 3

    def test_kde_fit_is_one_scan(self, src_graph):
        assert entry_pass_counts(src_graph, "KernelDensityEstimator") == {
            None: 1
        }

    def test_tree_fit_is_two_scans(self, src_graph):
        # Bounds pass + counting pass, exactly as the estimator's
        # docstring declares (and RA001 cross-checks).
        assert entry_pass_counts(src_graph, "TreeDensityEstimator") == {
            None: 2
        }

    def test_one_pass_sampler_fit_state_is_b_plus_m(self, src_graph):
        # The paper's memory claim, proven statically: the fit phases of
        # OnePassBiasedSampler.sample() allocate only O(b + m) state —
        # no O(n) node is reachable from them.
        bounds = entry_space_bounds(src_graph, "OnePassBiasedSampler")
        assert bounds["fit_density"] <= M
        assert bounds["estimate_normalizer"] <= M

    def test_one_pass_sampler_never_materialises_the_stream(self, src_graph):
        # Even the draw scan stays at one bounded window of chunks (the
        # draw_window sub-phase carries the estimator's O(m) state into
        # its parallel workers).
        bounds = entry_space_bounds(src_graph, "OnePassBiasedSampler")
        assert {k: v for k, v in bounds.items() if v > CONST} == {
            "fit_density": M,
            "estimate_normalizer": M,
            "draw": CHUNK,
            "draw_window": M,
        }
        assert max(bounds.values()) < N

    def test_two_pass_sampler_is_linear_by_design(self, src_graph):
        # The exact-normaliser baseline keeps every density: O(n), and
        # the analyzer sees it.
        bounds = entry_space_bounds(src_graph, "DensityBiasedSampler")
        assert bounds["eval_density"] == N

    def test_estimators_fit_in_summary_space(self, src_graph):
        for cls in (
            "KernelDensityEstimator",
            "GridDensityEstimator",
            "KnnDensityEstimator",
            "DctDensityEstimator",
            "WaveletDensityEstimator",
            "TreeDensityEstimator",
        ):
            bounds = entry_space_bounds(src_graph, cls)
            assert max(bounds.values()) == M, cls
