"""Ambient shard-count resolution.

Mirrors the worker-count knob of :mod:`repro.parallel.backend`: one
``--shards`` flag (or ``REPRO_SHARDS`` environment variable) reaches
every fit/eval/gather scan without threading a parameter through each
constructor. Resolution order:

1. an explicit ``shards`` argument wins;
2. otherwise the ambient default installed by :func:`use_shards`
   (what ``repro run --shards`` sets);
3. otherwise the ``REPRO_SHARDS`` environment variable;
4. otherwise one shard per resolved worker
   (:func:`repro.parallel.resolve_n_jobs`), so an unsharded scan with
   ``n_jobs`` workers still keeps every worker busy.

Steps 1-3 *configure* a shard count; step 4 *derives* one. Every scan
runs through the same shard fan-out either way, and ``S = 1`` is the
serial scan.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.exceptions import ParameterError
from repro.parallel import resolve_n_jobs

__all__ = [
    "SHARDS_ENV",
    "configured_shards",
    "resolve_shards",
    "use_shards",
]

#: Environment variable overriding the default shard count.
SHARDS_ENV = "REPRO_SHARDS"

_DEFAULT_SHARDS: ContextVar[int | None] = ContextVar(
    "repro_sharding_default_shards", default=None
)


def _check(shards: int) -> int:
    shards = int(shards)
    if shards < 1:
        raise ParameterError(f"shards must be >= 1; got {shards}.")
    return shards


def configured_shards(shards: int | None = None) -> int | None:
    """The configured shard count, or ``None`` when none is set.

    Parameters
    ----------
    shards:
        Explicit request, or ``None`` to defer to the ambient default
        (:func:`use_shards`), then the ``REPRO_SHARDS`` environment
        variable.
    """
    if shards is None:
        shards = _DEFAULT_SHARDS.get()
    if shards is None:
        raw = os.environ.get(SHARDS_ENV, "").strip()
        if not raw:
            return None
        try:
            shards = int(raw)
        except ValueError:
            raise ParameterError(
                f"{SHARDS_ENV} must be an integer; got {raw!r}."
            ) from None
    return _check(shards)


def resolve_shards(shards: int | None = None, *, n_jobs: int | None = None) -> int:
    """Resolve a ``shards`` request to a concrete shard count ``>= 1``.

    Parameters
    ----------
    shards:
        Explicit request, or ``None`` to defer to the ambient default
        (:func:`use_shards`), then the ``REPRO_SHARDS`` environment
        variable, then the worker count.
    n_jobs:
        Worker-count request of the scan, resolved by
        :func:`repro.parallel.resolve_n_jobs` when no shard count is
        configured: the default is one shard per worker.
    """
    configured = configured_shards(shards)
    return configured if configured is not None else resolve_n_jobs(n_jobs)


@contextmanager
def use_shards(shards: int | None) -> Iterator[None]:
    """Install ``shards`` as the ambient default for a ``with`` block.

    Every scan inside the block that resolves ``shards=None`` — the
    estimator fits, the density-evaluation pass and the gather passes
    — splits into this many shards; ``None`` reverts to the
    environment variable, then to one shard per worker. Built on a
    context variable, so concurrent threads and tasks never observe
    each other's defaults. Results are byte-identical for any value
    (see :mod:`repro.sharding`).
    """
    if shards is not None:
        shards = _check(shards)
    token = _DEFAULT_SHARDS.set(shards)
    try:
        yield
    finally:
        _DEFAULT_SHARDS.reset(token)
