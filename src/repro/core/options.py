"""Centralized validation for executor and planner options.

Every executor in :mod:`repro.exec` — :class:`~repro.exec.parallel.
ParallelJoin`, :class:`~repro.exec.resilient.ResilientParallelJoin`,
:class:`~repro.exec.disk.DiskPartitionedJoin` and
:class:`~repro.exec.sharded.ShardedJoin` — accepts the same small
vocabulary of knobs (worker count, chunk/shard count, start method,
memory budget, timeout).  Historically each validated them independently, with
slightly different wording; this module is now the single source of truth,
shared by the executors *and* by :class:`repro.planner.Planner` when it
validates a :class:`~repro.planner.Workload` hint, so one option always
fails with one message wherever it is passed.

All validators raise subclasses of :class:`ValueError`
(:class:`~repro.errors.AlgorithmError` for in-memory executor options,
:class:`~repro.errors.ExternalMemoryError` for disk-join sizing), so
callers may catch either the precise domain error or plain ``ValueError``.
"""

from __future__ import annotations

import multiprocessing

from repro.errors import AlgorithmError, ExternalMemoryError

__all__ = [
    "validate_workers",
    "validate_chunks",
    "validate_shards",
    "validate_start_method",
    "validate_timeout_seconds",
    "validate_deadline_seconds",
    "validate_max_memory_bytes",
    "validate_max_tuples",
    "validate_probe_batches",
]

def _require_positive(name: str, value: float, error: type[ValueError]) -> None:
    if value <= 0:
        raise error(f"{name} must be positive, got {value}")


def validate_workers(workers: int) -> int:
    """Worker process count: a positive integer."""
    _require_positive("workers", workers, AlgorithmError)
    return workers


def validate_chunks(chunks: int | None) -> int | None:
    """Probe chunk count: ``None`` (derive from workers) or positive."""
    if chunks is not None:
        _require_positive("chunks", chunks, AlgorithmError)
    return chunks


def validate_shards(shards: int | None) -> int | None:
    """S-shard count: ``None`` (derive from workers) or positive."""
    if shards is not None:
        _require_positive("shards", shards, AlgorithmError)
    return shards


def validate_start_method(start_method: str | None) -> str | None:
    """Multiprocessing start method: ``None`` or a platform-supported name."""
    if start_method is not None and start_method not in multiprocessing.get_all_start_methods():
        raise AlgorithmError(
            f"unknown start method {start_method!r}; available: "
            f"{multiprocessing.get_all_start_methods()}"
        )
    return start_method


def validate_timeout_seconds(timeout_seconds: float | None) -> float | None:
    """**Per-chunk** wall-clock budget: ``None`` (disabled) or positive.

    The budget applies to each probe chunk (or shard task) independently;
    an over-budget chunk is abandoned and completed in-process while the
    join as a whole keeps running.  The **whole-join** bound is
    ``deadline_seconds`` (:func:`validate_deadline_seconds`), which stops
    build *and* probe work across every executor at the next governance
    poll.  The two compose: a join may carry both.
    """
    if timeout_seconds is not None:
        _require_positive("timeout_seconds", timeout_seconds, AlgorithmError)
    return timeout_seconds


def validate_deadline_seconds(deadline_seconds: float | None) -> float | None:
    """**Whole-join** wall-clock budget: ``None`` (disabled) or positive.

    Unlike the per-chunk ``timeout_seconds``
    (:func:`validate_timeout_seconds`), the deadline bounds the entire
    join — planning, index build, and every probe — and breaching it
    raises :class:`~repro.errors.DeadlineExceededError` rather than
    degrading a single chunk.
    """
    if deadline_seconds is not None:
        _require_positive("deadline_seconds", deadline_seconds, AlgorithmError)
    return deadline_seconds


def validate_max_memory_bytes(max_memory_bytes: int | None) -> int | None:
    """Index-build byte budget: ``None`` (disabled) or positive."""
    if max_memory_bytes is not None:
        _require_positive("max_memory_bytes", max_memory_bytes, AlgorithmError)
    return max_memory_bytes


def validate_max_tuples(max_tuples: int) -> int:
    """Disk-join memory budget (largest in-memory partition): positive."""
    _require_positive("max_tuples", max_tuples, ExternalMemoryError)
    return max_tuples


def validate_probe_batches(probe_batches: int) -> int:
    """Expected probe batches in a prepare-once workload: positive."""
    _require_positive("probe_batches", probe_batches, AlgorithmError)
    return probe_batches
