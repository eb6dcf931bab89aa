"""The benchmark's own tracing: spans around calls into repro's layers.

Spans are opened by the benchmark, never by the library: the traced job
wraps the objects it hands to the program (stream, estimator, sampler,
clusterer, detector, pipeline) and the one module-level fan-out
(``repro.sharding.runner.shard_map``), and times each call. The library
runs unchanged: wrapped objects keep their type, their attributes and
their fitted state, and the stream wrapper is a subclass, so every
duck-type test inside repro sees what it would see untraced.

Per-layer time is *self time*: :func:`self_times` walks the job's wall
clock once and gives each instant to exactly one span, so the self
times of a job sum to its root span.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs import get_recorder
from repro.utils.filestreams import NpyFileStream
from repro.utils.streams import DataStream

__all__ = [
    "Span",
    "Tracer",
    "TimedDataStream",
    "TimedNpyFileStream",
    "self_times",
    "trace_calls",
    "traced_shard_map",
]


@dataclass
class Span:
    """One timed call: layer name, thread, start/end (perf_counter s)."""

    name: str
    thread: int
    start: float
    end: float = float("nan")
    #: Spans already open on this thread when this one opened.
    depth: int = 0
    #: True when a span of the same name is already open on this thread.
    nested: bool = False
    #: Free per-span numbers: ``rows`` passed in, counter deltas.
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from every thread; one tracer per traced job."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.main_thread = threading.get_ident()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """Name of the innermost span open on the calling thread."""
        stack = self._stack()
        return stack[-1].name if stack else None

    @contextmanager
    def span(self, name: str, counters: tuple[str, ...] = (), **attrs):
        """Time a block; ``counters`` are read as before/after deltas of
        the calling thread's ambient :mod:`repro.obs` recorder."""
        stack = self._stack()
        recorder = get_recorder()
        before = {c: recorder.counters.get(c, 0) for c in counters}
        span = Span(
            name=name,
            thread=threading.get_ident(),
            start=time.perf_counter(),
            depth=len(stack),
            nested=any(open_span.name == name for open_span in stack),
            attrs=dict(attrs),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            for c in counters:
                span.attrs[c] = recorder.counters.get(c, 0) - before[c]
            self.spans.append(span)

    def total(self, name: str, attr: str) -> float:
        """Sum of ``attr`` over the outermost spans called ``name``."""
        return sum(
            s.attrs.get(attr, 0)
            for s in self.spans
            if s.name == name and not s.nested
        )


def self_times(spans: list[Span], main_thread: int) -> dict[str, float]:
    """Seconds of wall clock owned by each span name.

    One sweep over the span boundaries. Each instant goes to the
    innermost span open on the main thread, unless spans are open on
    worker threads: then the instant is shared equally among the
    innermost span of each such worker (the main thread is waiting on
    them). Instants outside every main-thread span are ignored, so for
    spans under one main-thread root the values sum to the root's
    duration.
    """
    events = []
    for index, span in enumerate(spans):
        # Sort key: time, then ends before starts, then outer spans
        # open first and close last.
        events.append((span.start, 1, span.depth, index))
        events.append((span.end, 0, -span.depth, index))
    events.sort()
    stacks: dict[int, list[Span]] = defaultdict(list)
    owned: dict[str, float] = defaultdict(float)
    previous = None
    for moment, is_start, _depth, index in events:
        if previous is not None and moment > previous:
            _attribute(moment - previous, stacks, main_thread, owned)
        previous = moment
        span = spans[index]
        if is_start:
            stacks[span.thread].append(span)
        else:
            stacks[span.thread].remove(span)
    return dict(owned)


def _attribute(dt, stacks, main_thread, owned) -> None:
    if not stacks[main_thread]:
        return
    workers = [
        stack[-1]
        for thread, stack in stacks.items()
        if thread != main_thread and stack
    ]
    if workers:
        for span in workers:
            owned[span.name] += dt / len(workers)
    else:
        owned[stacks[main_thread][-1].name] += dt


def trace_calls(
    tracer: Tracer,
    obj,
    method: str,
    name: str,
    *,
    rows: bool = False,
    counters: tuple[str, ...] = (),
) -> None:
    """Time every call of ``obj.method`` as a span called ``name``.

    Installs the wrapper as an instance attribute, so the object keeps
    its class, its state and every other attribute; internal
    ``self.method(...)`` calls are timed too (as nested spans). With
    ``rows``, the span records the row count of the first argument.
    """
    inner = getattr(obj, method)

    @functools.wraps(inner)
    def traced(*args, **kwargs):
        attrs = {}
        if rows and args and hasattr(args[0], "__len__"):
            attrs["rows"] = len(args[0])
        with tracer.span(name, counters=counters, **attrs):
            return inner(*args, **kwargs)

    setattr(obj, method, traced)


class _TimedReads:
    """Stream mixin: time spent producing each chunk is a ``streams.read``
    span, on whichever thread pulls the chunk."""

    tracer: Tracer

    def _timed(self, chunks):
        try:
            while True:
                with self.tracer.span("streams.read"):
                    try:
                        item = next(chunks)
                    except StopIteration:
                        return
                yield item
        finally:
            chunks.close()

    def __iter__(self):
        return self._timed(super().__iter__())

    def iter_with_offsets(self):
        return self._timed(super().iter_with_offsets())

    def iter_chunk_range(self, lo: int, hi: int):
        return self._timed(super().iter_chunk_range(lo, hi))

    def materialize(self):
        with self.tracer.span("streams.read"):
            return super().materialize()


class TimedDataStream(_TimedReads, DataStream):
    """In-memory :class:`DataStream` whose reads are timed."""

    def __init__(self, tracer: Tracer, data) -> None:
        self.tracer = tracer
        super().__init__(data)


class TimedNpyFileStream(_TimedReads, NpyFileStream):
    """:class:`NpyFileStream` whose reads are timed."""

    def __init__(self, tracer: Tracer, path: str) -> None:
        self.tracer = tracer
        super().__init__(path)


@contextmanager
def traced_shard_map(tracer: Tracer):
    """Time shard tasks on their worker threads.

    Each task span is named after the span that was innermost on the
    dispatching thread (the layer that fanned out, e.g. ``density.fit``
    for the tree's counting pass), so worker time is charged to that
    layer and nested reads/evaluations still show as their own layers.
    """
    from repro.sharding import runner

    original = runner.shard_map

    def shard_map(worker, tasks, **kwargs):
        layer = tracer.current() or "sharding"

        def traced_worker(task):
            with tracer.span(layer):
                return worker(task)

        return original(traced_worker, tasks, **kwargs)

    runner.shard_map = shard_map
    try:
        yield
    finally:
        runner.shard_map = original
