"""Deterministic fault injection for the parallel-join executors.

The resilient executor's recovery paths (retry, slot restart, timeout
fallback, corrupt-result rejection) all involve *worker processes*, so
plain ``monkeypatch``-style injection cannot reach them — the fault has
to travel with the prepared index into the worker.  This module provides
picklable :class:`~repro.core.base.PreparedIndex` proxies that misbehave
on command:

* :class:`CrashingIndex` — raises
  :class:`~repro.errors.InjectedFaultError` from ``probe_many``
  (a recoverable worker exception);
* :class:`DyingIndex` — kills its process with ``os._exit`` (hard worker
  death: EOF on the slot's pipe, which the supervisor reports as a
  :class:`~repro.errors.WorkerError` naming the exit code and recovers
  by restarting that slot's child);
* :class:`SleepingIndex` — sleeps through the probe (simulates a hang,
  triggers the timeout path);
* :class:`CorruptingIndex` — returns pairs referencing tuples that were
  never probed (a lying worker).

Determinism without shared memory: a :class:`FaultTrigger` claims flag
*files* in a scratch directory with ``O_EXCL`` creation, so "fire
exactly N times" holds across any mix of processes and start methods
(``fork`` and ``spawn`` alike), and across the parent's own fallback
probes.  A fault that has fired its quota becomes a no-op, which is what
makes "crash on the first attempt, succeed on the retry" a *repeatable*
scenario rather than a race.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Iterator

from repro.core.base import JoinResult, JoinStats, PreparedIndex
from repro.errors import InjectedFaultError
from repro.relations.relation import Relation, SetRecord

__all__ = [
    "FaultTrigger",
    "FaultyIndex",
    "IndexFault",
    "CrashingIndex",
    "DyingIndex",
    "SleepingIndex",
    "CorruptingIndex",
    "SkewedClock",
    "CountdownCancelToken",
    "SteppingSampler",
]


class FaultTrigger:
    """Fire at most ``times`` times, across every process that asks.

    Each firing atomically claims one flag file in ``state_dir`` (created
    with ``O_EXCL``, so two processes can never claim the same slot).
    Instances are picklable — they hold only paths — and survive both
    ``fork`` and ``spawn`` worker transfer.

    Args:
        state_dir: Scratch directory for the flag files (created if
            missing); use a per-test ``tmp_path``.
        name: Distinguishes triggers sharing one directory.
        times: Total firings allowed across all processes.
    """

    def __init__(self, state_dir: str | Path, name: str = "fault", times: int = 1) -> None:
        self.state_dir = Path(state_dir)
        self.name = name
        self.times = times
        self.state_dir.mkdir(parents=True, exist_ok=True)

    def _flag(self, slot: int) -> Path:
        return self.state_dir / f"{self.name}.{slot}.fired"

    def fire(self) -> bool:
        """Claim the next slot; True while the quota is not yet spent."""
        for slot in range(self.times):
            try:
                self._flag(slot).touch(exist_ok=False)
                return True
            except FileExistsError:
                continue
        return False

    def fired(self) -> int:
        """How many times this trigger has fired so far (any process)."""
        return sum(1 for slot in range(self.times) if self._flag(slot).exists())

    def reset(self) -> None:
        """Forget all firings (idempotent)."""
        for slot in range(self.times):
            self._flag(slot).unlink(missing_ok=True)


class FaultyIndex(PreparedIndex):
    """Delegating proxy around a real prepared index.

    Subclasses override :meth:`_interfere` (called before every
    ``probe_many``) and/or :meth:`_tamper` (called on each result) to
    inject their failure.  Everything else — probing, statistics,
    introspection — defers to the wrapped index, so a fault whose trigger
    is spent behaves bit-identically to the real thing.
    """

    def __init__(self, inner: PreparedIndex, trigger: FaultTrigger) -> None:
        super().__init__(inner.algorithm, inner.relation)
        self.inner = inner
        self.trigger = trigger
        self.build_seconds = inner.build_seconds
        self.index_nodes = inner.index_nodes
        self.signature_bits = inner.signature_bits
        self.build_extras = dict(inner.build_extras)

    def probe(self, record: SetRecord, stats: JoinStats | None = None) -> Iterator[int]:
        return self.inner.probe(record, stats)

    def probe_many(self, r: Relation) -> JoinResult:
        self._interfere(r)
        return self._tamper(self.inner.probe_many(r))

    def _interfere(self, r: Relation) -> None:
        """Hook: act before the real probe (raise, die, sleep...)."""

    def _tamper(self, result: JoinResult) -> JoinResult:
        """Hook: act on the real probe's result (corrupt it...)."""
        return result

    def join_stats(self) -> JoinStats:
        return self.inner.join_stats()

    def memory_objects(self, probe_relation: Relation | None = None):
        return self.inner.memory_objects(probe_relation)


class IndexFault:
    """Picklable ``index_transform`` factory for the sharded executor.

    The sharded executor builds each shard's index *inside* the worker
    and applies ``index_transform`` there, so the transform itself must
    cross the process boundary.  ``IndexFault`` carries a fault class,
    a trigger, and keyword arguments; calling it wraps the freshly built
    index.  It captures the constructing process's pid so pid-guarded
    faults (:class:`DyingIndex`) still treat the *parent* — not the
    worker that happens to run the wrap — as the process to spare.

    >>> # transform = IndexFault(CrashingIndex, trigger)
    >>> # ShardedJoin(index_transform=transform, ...)
    """

    def __init__(
        self, fault: type[FaultyIndex], trigger: FaultTrigger, **kwargs: object
    ) -> None:
        self.fault = fault
        self.trigger = trigger
        self.kwargs = dict(kwargs)
        self.parent_pid = os.getpid()

    def __call__(self, inner: PreparedIndex) -> PreparedIndex:
        kwargs = dict(self.kwargs)
        if issubclass(self.fault, DyingIndex):
            kwargs.setdefault("parent_pid", self.parent_pid)
        return self.fault(inner, self.trigger, **kwargs)


class CrashingIndex(FaultyIndex):
    """Raise :class:`~repro.errors.InjectedFaultError` while armed.

    The exception propagates out of the worker as an ordinary task
    failure — the recoverable kind the retry policy exists for.
    """

    def _interfere(self, r: Relation) -> None:
        if self.trigger.fire():
            raise InjectedFaultError(
                f"injected crash probing {len(r)} records (pid {os.getpid()})"
            )


class DyingIndex(FaultyIndex):
    """Kill the probing process outright while armed.

    ``os._exit`` skips all cleanup, exactly like a segfault or an OOM
    kill; the supervisor sees EOF on the dead child's pipe.  Never fires in
    the parent process (``parent_pid``), so the parent's own slot, its
    in-process fallback and ``workers=1`` runs survive it.

    Args:
        parent_pid: The process that must survive; defaults to the
            constructing process.  Pass it explicitly when the wrapper is
            built *inside* a worker (the sharded executor applies its
            transform per shard in the worker) — otherwise the worker
            would register itself as the parent and never die.  Use
            :class:`IndexFault`, which captures it automatically.
    """

    def __init__(
        self,
        inner: PreparedIndex,
        trigger: FaultTrigger,
        exit_code: int = 3,
        parent_pid: int | None = None,
    ) -> None:
        super().__init__(inner, trigger)
        self.exit_code = exit_code
        self.parent_pid = os.getpid() if parent_pid is None else parent_pid

    def _interfere(self, r: Relation) -> None:
        if os.getpid() != self.parent_pid and self.trigger.fire():
            os._exit(self.exit_code)


class SleepingIndex(FaultyIndex):
    """Sleep before probing while armed (simulates a hung worker)."""

    def __init__(
        self, inner: PreparedIndex, trigger: FaultTrigger, sleep_seconds: float = 1.5
    ) -> None:
        super().__init__(inner, trigger)
        self.sleep_seconds = sleep_seconds

    def _interfere(self, r: Relation) -> None:
        if self.trigger.fire():
            time.sleep(self.sleep_seconds)


class CorruptingIndex(FaultyIndex):
    """Return pairs referencing a tuple that was never probed while armed.

    Emulates a worker with scrambled state: the result *looks* healthy
    (right shape, plausible ids) but joins tuples the chunk does not
    contain — precisely what result validation must catch.
    """

    def __init__(
        self, inner: PreparedIndex, trigger: FaultTrigger, alien_id: int = -1
    ) -> None:
        super().__init__(inner, trigger)
        self.alien_id = alien_id

    def _tamper(self, result: JoinResult) -> JoinResult:
        if self.trigger.fire():
            result.pairs.append((self.alien_id, self.alien_id))
        return result


# ----------------------------------------------------------------------
# Governance fault hooks (docs/ROBUSTNESS.md, chaos drills)
# ----------------------------------------------------------------------
class SkewedClock:
    """A monotonic clock reading ``offset_seconds`` into the future.

    Deterministic clock skew for :class:`~repro.governance.deadline.
    Deadline`: a deadline evaluated against a clock skewed past it is
    *already expired*, so drills can prove expiry handling without
    sleeping.  Instances hold only a float and are picklable, so a
    skewed deadline travels into pool workers under both ``fork`` and
    ``spawn``.
    """

    def __init__(self, offset_seconds: float) -> None:
        self.offset_seconds = offset_seconds

    def __call__(self) -> float:
        from repro.obs.clock import monotonic

        return monotonic() + self.offset_seconds


class CountdownCancelToken:
    """A :class:`~repro.governance.deadline.CancelToken` tripping itself.

    Reports cancelled once it has been *asked* ``after_checks`` times —
    a deterministic stand-in for "the user hits Ctrl-C mid-build" that
    needs no timing, no threads and no signals.  The check count is
    per-process state (it does not travel through pickle), so a token
    armed with ``after_checks=N`` trips on the N-th poll of whichever
    process is asking; combine with ``flag_dir`` to make the trip
    visible across processes.
    """

    def __init__(
        self,
        after_checks: int,
        flag_dir: str | Path | None = None,
        name: str = "countdown",
    ) -> None:
        from repro.governance.deadline import CancelToken

        self._base = CancelToken(flag_dir=flag_dir, name=name)
        self.after_checks = after_checks
        self.checks = 0

    @property
    def reason(self) -> str | None:
        return self._base.reason

    def cancel(self, reason: str = "cancel requested") -> None:
        self._base.cancel(reason)

    def cancelled(self) -> bool:
        self.checks += 1
        if self.checks >= self.after_checks and not self._base.cancelled():
            self._base.cancel(f"countdown tripped after {self.checks} checks")
        return self._base.cancelled()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["checks"] = 0  # per-process countdown
        return state


class SteppingSampler:
    """A scripted memory sampler: returns each reading in turn.

    Replaces the tracemalloc default through
    ``GovernancePolicy(memory_sampler=...)`` so budget-trip drills are
    exact: the governor's base sample consumes the first reading, each
    poll consumes the next, and the final reading repeats forever.
    Intentionally *not* shipped to workers
    (:meth:`~repro.governance.policy.GovernancePolicy.worker_policy`
    strips custom samplers), so use it for parent-side build paths.
    """

    def __init__(self, readings: tuple[int, ...] | list[int]) -> None:
        if not readings:
            raise ValueError("SteppingSampler needs at least one reading")
        self.readings = tuple(int(b) for b in readings)
        self.calls = 0

    def __call__(self) -> int:
        reading = self.readings[min(self.calls, len(self.readings) - 1)]
        self.calls += 1
        return reading
