"""Execution backends: serial, thread pool, process pool.

The paper's pipeline is dominated by embarrassingly parallel passes —
density evaluation over dataset chunks, the nested-loop detector's
outer block scan — and this module decides *how* those passes execute.
Callers never touch ``concurrent.futures`` directly (repro-lint rule
RL008 forbids it outside this package); they ask for a backend by
worker count and kind and hand it an ordered list of tasks.

Worker-count resolution is layered so one knob reaches every hot path:

1. an explicit ``n_jobs`` argument on the estimator / sampler /
   detector wins;
2. otherwise the ambient default installed by :func:`use_n_jobs`
   (what ``repro run --n-jobs`` and the pipelines set) applies;
3. otherwise the ``REPRO_N_JOBS`` environment variable;
4. otherwise ``1`` — the serial path.

Negative values count from the machine size (``-1`` = all cores). The
backend *kind* defaults to threads — NumPy releases the GIL inside the
kernels that dominate these passes, and threads share the dataset with
zero copying — and can be switched to processes with the
``REPRO_PARALLEL_BACKEND`` environment variable or an explicit
``backend=`` argument for workloads that are genuinely
Python-bound.
"""

from __future__ import annotations

import multiprocessing.util
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Sequence, TypeVar

from repro.exceptions import ParameterError

__all__ = [
    "BACKEND_ENV",
    "N_JOBS_ENV",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "get_backend",
    "resolve_n_jobs",
    "use_n_jobs",
]

#: Environment variable overriding the default worker count.
N_JOBS_ENV = "REPRO_N_JOBS"

#: Environment variable overriding the default backend kind.
BACKEND_ENV = "REPRO_PARALLEL_BACKEND"

_T = TypeVar("_T")
_R = TypeVar("_R")

_DEFAULT_N_JOBS: ContextVar[int | None] = ContextVar(
    "repro_parallel_default_n_jobs", default=None
)


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Resolve an ``n_jobs`` request to a concrete worker count.

    Parameters
    ----------
    n_jobs:
        Explicit request: a positive count, a negative count relative
        to the machine (``-1`` = all cores), or ``None`` to defer to
        the ambient default (:func:`use_n_jobs`), then the
        ``REPRO_N_JOBS`` environment variable, then ``1``.

    Returns
    -------
    int
        A worker count ``>= 1``.
    """
    if n_jobs is None:
        n_jobs = _DEFAULT_N_JOBS.get()
    if n_jobs is None:
        raw = os.environ.get(N_JOBS_ENV, "").strip()
        if raw:
            try:
                n_jobs = int(raw)
            except ValueError:
                raise ParameterError(
                    f"{N_JOBS_ENV} must be an integer; got {raw!r}."
                ) from None
        else:
            n_jobs = 1
    n_jobs = int(n_jobs)
    if n_jobs < 0:
        n_jobs = max(1, (os.cpu_count() or 1) + 1 + n_jobs)
    if n_jobs == 0:
        raise ParameterError(
            "n_jobs must be >= 1, or negative to count from the machine "
            "size (-1 = all cores); got 0."
        )
    return n_jobs


@contextmanager
def use_n_jobs(n_jobs: int | None) -> Iterator[None]:
    """Install ``n_jobs`` as the ambient default for a ``with`` block.

    Everything inside the block that resolves ``n_jobs=None`` — the
    default of every estimator, sampler and detector — picks this value
    up, which is how one ``--n-jobs`` flag reaches each hot path of an
    experiment without threading a parameter through every constructor.
    Built on a context variable, so concurrent threads and tasks never
    observe each other's defaults; worker tasks run under
    ``use_n_jobs(1)`` so parallelism never nests by accident.

    Parameters
    ----------
    n_jobs:
        The default worker count to install (``None`` reverts to the
        environment/serial resolution).
    """
    token = _DEFAULT_N_JOBS.set(n_jobs)
    try:
        yield
    finally:
        _DEFAULT_N_JOBS.reset(token)


class ExecutionBackend:
    """Maps a function over an ordered task list; results keep order."""

    kind: str = "abstract"
    n_jobs: int = 1

    def map(
        self, func: Callable[[_T], _R], items: Sequence[_T]
    ) -> list[_R]:
        """Apply ``func`` to every item, returning results in order.

        Parameters
        ----------
        func:
            The task function. For the process backend it must be
            picklable (a module-level function, a ``functools.partial``
            of one, or a bound method of a picklable object).
        items:
            The ordered task inputs.
        """
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-caller execution: a plain loop, no worker machinery at all."""

    kind = "serial"
    n_jobs = 1

    def map(self, func, items):
        return [func(item) for item in items]


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution: shared memory, no pickling.

    The default parallel backend. NumPy's inner loops (the kernel-sum
    in density evaluation, the pairwise-distance blocks of the outlier
    detector) release the GIL, so threads scale on multicore machines
    while sharing the dataset for free.

    Parameters
    ----------
    n_jobs:
        Maximum number of worker threads.
    """

    kind = "thread"

    def __init__(self, n_jobs: int) -> None:
        self.n_jobs = int(n_jobs)

    def map(self, func, items):
        items = list(items)
        if len(items) <= 1:
            return [func(item) for item in items]
        workers = min(self.n_jobs, len(items))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(func, items))


#: Live process pools by (owning pid, worker count). Every dataset pass
#: is a fan-out, and starting a pool costs more than a cheap pass, so
#: pools outlive a map; one whose worker died is dropped and rebuilt.
_PROCESS_POOLS: dict[tuple[int, int], ProcessPoolExecutor] = {}
_PROCESS_POOLS_LOCK = threading.Lock()

#: Exit priority of a pool's shutdown: above the priority (10) of its
#: own queues' finalizers, so the shutdown sentinels still reach the
#: workers. A worker process that made a pool (an estimator with an
#: explicit ``n_jobs`` inside a task) runs these finalizers and then
#: joins its children before its thread exit hooks ever run.
_POOL_EXIT_PRIORITY = 100


def _process_pool(workers: int) -> ProcessPoolExecutor:
    key = (os.getpid(), workers)
    with _PROCESS_POOLS_LOCK:
        pool = _PROCESS_POOLS.get(key)
        if pool is None:
            pool = _PROCESS_POOLS[key] = ProcessPoolExecutor(workers)
            multiprocessing.util.Finalize(
                pool, pool.shutdown, exitpriority=_POOL_EXIT_PRIORITY
            )
        return pool


def _drop_process_pool(workers: int, pool: ProcessPoolExecutor) -> None:
    key = (os.getpid(), workers)
    with _PROCESS_POOLS_LOCK:
        if _PROCESS_POOLS.get(key) is pool:
            del _PROCESS_POOLS[key]
    pool.shutdown(wait=False)


class ProcessBackend(ExecutionBackend):
    """Process-pool execution: true CPU parallelism, pickled tasks.

    For passes that are Python-bound rather than NumPy-bound. Each task
    ships its function and arguments to the worker by pickling — for
    chunk maps that includes the chunk — so prefer the thread backend
    unless profiling says otherwise. Worker processes are reused across
    maps of the same width (a pool is started once per process, not
    once per pass).

    Parameters
    ----------
    n_jobs:
        Maximum number of worker processes.
    """

    kind = "process"

    def __init__(self, n_jobs: int) -> None:
        self.n_jobs = int(n_jobs)

    def map(self, func, items):
        items = list(items)
        if len(items) <= 1:
            return [func(item) for item in items]
        workers = min(self.n_jobs, len(items))
        pool = _process_pool(workers)
        try:
            return list(pool.map(func, items))
        except BrokenProcessPool:
            _drop_process_pool(workers, pool)
            raise


_BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def get_backend(
    n_jobs: int | None = None, backend: str | None = None
) -> ExecutionBackend:
    """Pick the execution backend for a resolved worker count.

    Parameters
    ----------
    n_jobs:
        Worker-count request, resolved via :func:`resolve_n_jobs`.
        A resolved count of ``1`` always yields the serial backend.
    backend:
        Backend kind (``"serial"``, ``"thread"``, ``"process"``);
        defaults to the ``REPRO_PARALLEL_BACKEND`` environment variable
        or, failing that, ``"thread"``.
    """
    count = resolve_n_jobs(n_jobs)
    kind = backend or os.environ.get(BACKEND_ENV, "").strip() or "thread"
    if kind not in _BACKENDS:
        raise ParameterError(
            f"unknown parallel backend {kind!r}; "
            f"choose from {sorted(_BACKENDS)}."
        )
    if count == 1 or kind == "serial":
        return SerialBackend()
    return _BACKENDS[kind](count)
