"""File-backed data streams: sequential passes over on-disk datasets.

The in-memory :class:`~repro.utils.streams.DataStream` models the
pass-based access pattern; these classes make it literal for datasets
that live in files, so the one-pass estimators and two-pass samplers
run out-of-core unchanged. Both expose the same iteration contract
(``__iter__`` yields chunks, ``iter_with_offsets`` adds row offsets,
``passes`` counts traversals) and the same hardening contract as the
in-memory stream:

* every chunk is validated per pass and routed through the stream's
  :class:`repro.faults.RowQuarantine` policy — NaN/Inf rows on disk no
  longer reach the samplers unchecked (strict raises a typed error
  naming the pass and chunk offset; quarantine drops and counts;
  repair imputes from chunk statistics);
* chunk reads go through a :class:`repro.faults.RetryPolicy`, so
  transient ``OSError``/``TransientIOError`` failures are retried with
  a deterministic backoff schedule before the run is abandoned with a
  :class:`repro.exceptions.StreamReadError`;
* under the quarantine policy a construction-time pre-scan counts the
  invalid rows, so ``n_points`` equals the surviving-row count before
  the first pass — the invariant offset-keyed consumers rely on. The
  pre-scan is bookkeeping, not an algorithmic pass: it is not counted
  in ``passes`` or the ``data_passes`` counter.
"""

from __future__ import annotations

import os

import numpy as np

from repro.exceptions import DataValidationError
from repro.obs import get_recorder
from repro.utils.streams import DataStream

__all__ = [
    "NpyFileStream",
    "CsvFileStream",
]


class NpyFileStream(DataStream):
    """Chunked passes over a ``.npy`` array via memory mapping.

    The file is memory-mapped read-only; each chunk is copied out, so
    downstream code never holds references into the map.

    Parameters
    ----------
    path:
        Location of the 2-D ``.npy`` file.
    chunk_size:
        Rows delivered per chunk (the last chunk may be smaller).
    fault_policy:
        Invalid-row handling: a mode name, a
        :class:`repro.faults.RowQuarantine`, or ``None`` for the
        ambient policy (default strict).
    retry_policy:
        Retry budget for chunk reads; ``None`` uses the shared
        sleepless 3-retry default.
    """

    def __init__(
        self,
        path: str,
        chunk_size: int = 65536,
        fault_policy=None,
        retry_policy=None,
    ) -> None:
        from repro.faults.policy import resolve_fault_policy
        from repro.faults.retry import DEFAULT_RETRY_POLICY

        if not os.path.exists(path):
            raise DataValidationError(f"no data file at {path!r}.")
        mapped = np.load(path, mmap_mode="r")
        if mapped.ndim != 2:
            raise DataValidationError(
                f"{path!r} must hold a 2-D array; got ndim={mapped.ndim}."
            )
        self._mapped = mapped
        self.path = path
        self.chunk_size = int(chunk_size)
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1; got {chunk_size}.")
        self.fault_policy = resolve_fault_policy(fault_policy)
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self._n_raw = mapped.shape[0]
        self.n_dims = mapped.shape[1]
        self.n_points = self._n_raw
        self._chunk_invalid: tuple[int, ...] | None = None
        if self.fault_policy.mode == "quarantine":
            self._chunk_invalid = self._prescan_invalid_rows()
            self.n_points = self._n_raw - sum(self._chunk_invalid)
            if self.n_points == 0:
                raise DataValidationError(
                    f"every row of {path!r} was quarantined; the file holds "
                    "no valid rows under the configured fault policy."
                )
        self.passes = 0

    def _prescan_invalid_rows(self) -> tuple[int, ...]:
        """Per-chunk invalid-row counts (no recorder effects)."""
        counts = []
        for start in range(0, self._n_raw, self.chunk_size):
            chunk = np.asarray(
                self._mapped[start : start + self.chunk_size],
                dtype=np.float64,
            )
            counts.append(self.fault_policy.count_invalid_rows(chunk))
        return tuple(counts)

    def _read_chunk(self, start: int) -> np.ndarray:
        stop = min(start + self.chunk_size, self._n_raw)
        return self.retry_policy.call(
            lambda attempt: np.asarray(
                self._mapped[start:stop], dtype=np.float64
            ),
            describe=f"read of rows [{start}, {stop}) from {self.path!r}",
        )

    def _iterate(self):
        self.passes += 1
        recorder = get_recorder()
        recorder.count("data_passes")
        out = 0
        for start in range(0, self._n_raw, self.chunk_size):
            clean = self.fault_policy.apply(
                self._read_chunk(start),
                origin=self.path,
                pass_index=self.passes,
                start=start,
            )
            recorder.count("points_seen", clean.shape[0])
            if clean.shape[0]:
                recorder.observe("stream_chunk_rows", clean.shape[0])
                yield out, clean
                out += clean.shape[0]

    def __iter__(self):
        for _, chunk in self._iterate():
            yield chunk

    def iter_with_offsets(self):
        """Yield (surviving-row offset, hardened chunk) per chunk."""
        yield from self._iterate()

    def materialize(self) -> np.ndarray:
        """All surviving rows as one array (counts as one pass)."""
        parts = [chunk for _, chunk in self._iterate()]
        if not parts:
            return np.empty((0, self.n_dims))
        return np.vstack(parts)

    # -- shard support (see repro.sharding) ----------------------------------

    def chunk_sizes(self) -> tuple[int, ...]:
        """Surviving-row count of every chunk one pass would yield.

        Bookkeeping, not a scan: under quarantine the counts come from
        the construction-time pre-scan; otherwise every raw row
        survives (strict raises mid-pass instead of dropping).
        """
        raw = [
            min(self.chunk_size, self._n_raw - start)
            for start in range(0, self._n_raw, self.chunk_size)
        ]
        if self._chunk_invalid is not None:
            return tuple(
                size - bad for size, bad in zip(raw, self._chunk_invalid)
            )
        return tuple(raw)

    def iter_chunk_range(self, lo: int, hi: int):
        """Yield ``(offset, chunk)`` for raw chunk indices ``[lo, hi)``.

        Byte-identical to the corresponding slice of
        :meth:`iter_with_offsets` — same policy application, same
        surviving-row offsets, same per-chunk recorder effects — but
        the pass bookkeeping (``passes``, ``data_passes``) is owned by
        the coordinating shard scan (see :mod:`repro.sharding`).
        """
        recorder = get_recorder()
        sizes = self.chunk_sizes()
        out = sum(sizes[:lo])
        for index in range(lo, min(hi, len(sizes))):
            start = index * self.chunk_size
            clean = self.fault_policy.apply(
                self._read_chunk(start),
                origin=self.path,
                pass_index=self.passes,
                start=start,
            )
            recorder.count("points_seen", clean.shape[0])
            if clean.shape[0]:
                recorder.observe("stream_chunk_rows", clean.shape[0])
                yield out, clean
                out += clean.shape[0]

    def shard_window(self, lo: int, hi: int) -> "NpyFileStream":
        """The stream itself: a worker reads its chunks from the file."""
        return self

    # -- pickling (process-backend shard workers) ----------------------------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_mapped"] = None  # memory maps do not pickle; reopen
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._mapped = np.load(self.path, mmap_mode="r")


class CsvFileStream(DataStream):
    """Chunked passes over a headerless numeric CSV file.

    Rows are parsed lazily per pass; the whole file is never resident.
    A pre-pass at construction counts rows and validates the column
    count (analogous to a database knowing its cardinality). Under the
    quarantine policy the pre-pass additionally parses the file once to
    count invalid rows, so ``n_points`` is exact up front.

    Non-numeric cells are a fatal, typed error under the strict policy
    (as they always were); under quarantine/repair they are treated as
    missing values (NaN) and handled by the policy like any other
    invalid cell.

    Parameters
    ----------
    path:
        Location of the CSV file.
    chunk_size:
        Rows delivered per chunk (the last chunk may be smaller).
    delimiter:
        Cell separator.
    fault_policy:
        Invalid-row handling: a mode name, a
        :class:`repro.faults.RowQuarantine`, or ``None`` for the
        ambient policy (default strict).
    retry_policy:
        Retry budget for opening the file at the start of each pass;
        ``None`` uses the shared sleepless 3-retry default.
    """

    def __init__(
        self,
        path: str,
        chunk_size: int = 65536,
        delimiter: str = ",",
        fault_policy=None,
        retry_policy=None,
    ) -> None:
        from repro.faults.policy import resolve_fault_policy
        from repro.faults.retry import DEFAULT_RETRY_POLICY

        if not os.path.exists(path):
            raise DataValidationError(f"no data file at {path!r}.")
        self.path = path
        self.delimiter = delimiter
        self.chunk_size = int(chunk_size)
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1; got {chunk_size}.")
        self.fault_policy = resolve_fault_policy(fault_policy)
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        n_points = 0
        n_dims = None
        with self._open() as handle:
            for line in handle:
                if not line.strip():
                    continue
                width = line.count(delimiter) + 1
                if n_dims is None:
                    n_dims = width
                elif width != n_dims:
                    raise DataValidationError(
                        f"ragged CSV: row {n_points} has {width} columns, "
                        f"expected {n_dims}."
                    )
                n_points += 1
        if n_points == 0:
            raise DataValidationError(f"{path!r} holds no data rows.")
        self._n_raw = n_points
        self.n_dims = n_dims
        self.n_points = n_points
        self.passes = 0
        self._chunk_invalid: tuple[int, ...] | None = None
        if self.fault_policy.mode == "quarantine":
            self._chunk_invalid = tuple(
                self.fault_policy.count_invalid_rows(chunk)
                for _, chunk in self._raw_chunks()
            )
            self.n_points = n_points - sum(self._chunk_invalid)
            if self.n_points == 0:
                raise DataValidationError(
                    f"every row of {path!r} was quarantined; the file holds "
                    "no valid rows under the configured fault policy."
                )

    def _open(self):
        return self.retry_policy.call(
            lambda attempt: open(self.path),
            describe=f"open of {self.path!r}",
        )

    def _raw_chunks(self):
        """(raw row offset, parsed chunk) pairs for one file traversal."""
        buffer: list[str] = []
        start = 0
        with self._open() as handle:
            for line in handle:
                if not line.strip():
                    continue
                buffer.append(line)
                if len(buffer) == self.chunk_size:
                    yield start, self._parse(buffer)
                    start += len(buffer)
                    buffer = []
        if buffer:
            yield start, self._parse(buffer)

    def _parse(self, lines: list[str]) -> np.ndarray:
        try:
            return np.array(
                [
                    [float(cell) for cell in line.split(self.delimiter)]
                    for line in lines
                ]
            )
        except ValueError as exc:
            if self.fault_policy.mode == "strict":
                raise DataValidationError(
                    f"non-numeric cell in {self.path!r}: {exc}"
                ) from exc
            # Tolerant path: unparseable cells become NaN and are then
            # quarantined or repaired by the policy like any bad value.
            return np.array(
                [
                    [_float_or_nan(cell) for cell in line.split(self.delimiter)]
                    for line in lines
                ]
            )

    def _iterate(self):
        self.passes += 1
        recorder = get_recorder()
        recorder.count("data_passes")
        out = 0
        for start, chunk in self._raw_chunks():
            clean = self.fault_policy.apply(
                chunk,
                origin=self.path,
                pass_index=self.passes,
                start=start,
            )
            recorder.count("points_seen", clean.shape[0])
            if clean.shape[0]:
                recorder.observe("stream_chunk_rows", clean.shape[0])
                yield out, clean
                out += clean.shape[0]

    def __iter__(self):
        for _, chunk in self._iterate():
            yield chunk

    def iter_with_offsets(self):
        """Yield (surviving-row offset, hardened chunk) per chunk."""
        yield from self._iterate()

    def materialize(self) -> np.ndarray:
        """All surviving rows as one array (counts as one pass)."""
        parts = [chunk for _, chunk in self._iterate()]
        if not parts:
            return np.empty((0, self.n_dims))
        return np.vstack(parts)

    # -- shard support (see repro.sharding) ----------------------------------

    def chunk_sizes(self) -> tuple[int, ...]:
        """Surviving-row count of every chunk one pass would yield.

        Bookkeeping, not a scan: derived from the construction-time
        pre-pass (row count, and per-chunk invalid counts under
        quarantine), so no file traversal happens here.
        """
        raw = [
            min(self.chunk_size, self._n_raw - start)
            for start in range(0, self._n_raw, self.chunk_size)
        ]
        if self._chunk_invalid is not None:
            return tuple(
                size - bad for size, bad in zip(raw, self._chunk_invalid)
            )
        return tuple(raw)

    def iter_chunk_range(self, lo: int, hi: int):
        """Yield ``(offset, chunk)`` for raw chunk indices ``[lo, hi)``.

        Byte-identical to the corresponding slice of
        :meth:`iter_with_offsets`; the pass bookkeeping is owned by the
        coordinating shard scan (see :mod:`repro.sharding`). Text files
        have no row index, so reaching chunk ``lo`` still reads the
        file prefix — sharding a CSV is correctness-first; convert to
        ``.npy`` for seek-free shard reads.
        """
        recorder = get_recorder()
        sizes = self.chunk_sizes()
        out = sum(sizes[:lo])
        for index, (start, chunk) in enumerate(self._raw_chunks()):
            if index >= hi:
                break
            if index < lo:
                continue
            clean = self.fault_policy.apply(
                chunk,
                origin=self.path,
                pass_index=self.passes,
                start=start,
            )
            recorder.count("points_seen", clean.shape[0])
            if clean.shape[0]:
                recorder.observe("stream_chunk_rows", clean.shape[0])
                yield out, clean
                out += clean.shape[0]

    def shard_window(self, lo: int, hi: int) -> "CsvFileStream":
        """The stream itself: a worker reads its chunks from the file."""
        return self


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return float("nan")
