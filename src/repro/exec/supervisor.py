"""One recovery supervisor for the pooled executors that degrade instead of failing.

:class:`~repro.exec.resilient.ResilientParallelJoin` (probe chunks over a
shared index) and :class:`~repro.exec.sharded.ShardedJoin` (S-index
shards built in their workers) recover from worker faults the same way.
Each produces a list of :class:`Task` records and subclasses
:class:`Supervisor` with the few hooks that differ; this module owns the
recovery ladder itself, once:

* **Retry** — a failed task is resubmitted up to
  :attr:`RetryPolicy.max_attempts` times with deterministic (jitter-free)
  exponential backoff, so tests can assert exact schedules.
* **Timeout** — a pooled task that exceeds ``timeout_seconds`` is
  abandoned (its worker may be hung) and completed by the parent's last
  resort; the abandoned worker is terminated at shutdown rather than
  awaited.
* **Worker death** — a worker that dies hard (segfault, ``os._exit``)
  breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`; the
  pool is re-created and every in-flight task resubmitted.
* **Corrupt results** — each result is checked against the task's own
  probe ids and the S ids it owns; a worker returning alien pairs is
  treated as failed and retried.
* **Fallback** — a task whose retries are exhausted is completed in the
  parent (on a known-good index, never the fault-wrapped one).  Only if
  ``fallback`` is off does the join raise
  :class:`~repro.errors.RetryExhaustedError` or
  :class:`~repro.errors.JoinTimeoutError`.
* **Governance** — the parent polls the ambient deadline/cancel bounds
  once per scheduling round, with its wait capped so it wakes to poll.  A
  :class:`~repro.errors.GovernanceError` is terminal: never retried,
  never completed by the fallback, and the tasks it strands are counted
  in ``stats.extras["cancelled_chunks"]``.

With ``workers == 1`` the tasks run in-process; retry and fallback still
apply, timeouts do not (an in-process attempt cannot be pre-empted).
Degradation is observable: ``stats.extras`` always carries the five
:func:`recovery_extras` counters, all zero on a clean run.  See
``docs/ROBUSTNESS.md`` for the full semantics.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import ClassVar, Protocol

from repro.core.base import JoinResult, JoinStats
from repro.errors import (
    AlgorithmError,
    GovernanceError,
    JoinTimeoutError,
    RetryExhaustedError,
    WorkerError,
)
from repro.exec.merge import merge_stats
from repro.governance.policy import GovernancePolicy, current_policy, governor
from repro.obs.clock import monotonic
from repro.obs.tracer import current_tracer
from repro.relations.relation import Relation

__all__ = ["RetryPolicy", "Supervisor", "Task", "recovery_extras", "worker_policy"]

#: One task's result: its pairs and the stats its probe (or build) reported.
Outcome = tuple[list[tuple[int, int]], JoinStats]


def recovery_extras(noun: str) -> tuple[str, ...]:
    """The stats extras a supervised join over ``noun`` tasks always reports."""
    return ("retries", "timeouts", f"fallback_{noun}s", "pool_restarts", f"corrupt_{noun}s")


def worker_policy() -> GovernancePolicy | None:
    """The ambient governance policy as shipped to pool workers, or None."""
    policy = current_policy()
    return policy.worker_policy() if policy is not None else None


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How often and how patiently a failed task is retried.

    The schedule is fully deterministic — exponential backoff with *no*
    jitter — so recovery tests can run without flaky timing assertions.
    Production deployments that need jitter can subclass and override
    :meth:`delay`.

    Attributes:
        max_attempts: Total attempts per task (first try included), >= 1.
        backoff_seconds: Delay before the first retry; 0 disables sleeping.
        backoff_multiplier: Factor applied per further retry.
        backoff_cap_seconds: Upper bound on any single delay.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0
    backoff_cap_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise AlgorithmError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_seconds < 0 or self.backoff_cap_seconds < 0:
            raise AlgorithmError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise AlgorithmError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )

    def delay(self, retry: int) -> float:
        """Seconds to wait before retry number ``retry`` (1-based)."""
        if retry < 1 or self.backoff_seconds == 0.0:
            return 0.0
        raw = self.backoff_seconds * self.backoff_multiplier ** (retry - 1)
        return min(raw, self.backoff_cap_seconds)

    def schedule(self) -> list[float]:
        """Every retry delay this policy can produce, in order."""
        return [self.delay(i) for i in range(1, self.max_attempts)]


class Task:
    """Book-keeping for one task's journey through the supervisor.

    Attributes:
        position: Index in the task list; outcomes merge in this order.
        label: The number errors name (``chunk N`` / ``shard N``).
        probes: The probe records this task owns.
        s_ids: The S ids its pairs may reference.
        attempts: Attempts started so far.
        deadline: Monotonic instant the running attempt times out, if any.
    """

    __slots__ = ("position", "label", "probes", "s_ids", "attempts", "deadline")

    def __init__(self, position: int, label: int, probes: Relation, s_ids: frozenset[int]) -> None:
        self.position = position
        self.label = label
        self.probes = probes
        self.s_ids = s_ids
        self.attempts = 0
        self.deadline: float | None = None


class RecoveryOptions(Protocol):
    """The executor settings a :class:`Supervisor` reads."""

    workers: int
    start_method: str | None
    retry_policy: RetryPolicy
    timeout_seconds: float | None
    fallback: bool
    validate_results: bool


class Supervisor:
    """Run one join's tasks to completion through the recovery ladder.

    Subclasses supply what differs between executors: :meth:`new_pool`,
    :meth:`send` (which submits a module-level worker entry point, so it
    pickles under ``spawn``), :meth:`attempt` (one in-process try),
    :meth:`last_resort` (the parent's fallback) and :meth:`record` (the
    span a pooled result adds to the parent's trace), plus the nouns that
    name tasks in extras and error messages.

    Args:
        options: The executor whose recovery settings apply.
        tasks: The join's tasks, in merge order.
    """

    #: Task noun for extras keys and messages (``fallback_chunks``, ``chunk 3``).
    noun: ClassVar[str]
    #: What a worker was doing to a task, for the worker-death message.
    verb: ClassVar[str]
    #: Where a task's valid ids come from, for the corrupt-result message.
    sources: ClassVar[str]

    def __init__(self, options: RecoveryOptions, tasks: list[Task]) -> None:
        self.tasks = tasks
        self.workers = options.workers
        self.retry_policy = options.retry_policy
        self.timeout_seconds = options.timeout_seconds
        self.fallback = options.fallback
        self.validate_results = options.validate_results
        self.context = (
            multiprocessing.get_context(options.start_method)
            if options.start_method is not None
            else None
        )

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def new_pool(self) -> ProcessPoolExecutor:
        """A fresh worker pool (also called after a pool breaks)."""
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def send(self, pool: ProcessPoolExecutor, task: Task) -> Future[Outcome]:
        """Submit one attempt at ``task`` to ``pool``."""
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def attempt(self, task: Task) -> Outcome:
        """One in-process attempt at ``task`` (``workers == 1``)."""
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def last_resort(self, task: Task) -> Outcome:
        """Complete ``task`` in the parent on known-good state."""
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def record(self, task: Task, task_stats: JoinStats) -> None:
        """Fold a worker-measured result into the parent's span tree."""
        raise NotImplementedError  # pragma: no cover - subclasses implement

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self, stats: JoinStats) -> JoinResult:
        """Run every task, then fold the outcomes in task order into ``stats``."""
        for key in recovery_extras(self.noun):
            stats.extras[key] = 0
        if self.workers == 1:
            outcomes = [self._run_inline(task, stats) for task in self.tasks]
        else:
            outcomes = self._run_pooled(stats)
        pairs: list[tuple[int, int]] = []
        for task_pairs, task_stats in outcomes:
            pairs.extend(task_pairs)
            merge_stats(stats, task_stats)
        return JoinResult(pairs, stats)

    def check(self, task: Task, pairs: list[tuple[int, int]], stats: JoinStats) -> None:
        """Reject output referencing tuples the task never held."""
        if not self.validate_results:
            return
        probe_ids = frozenset(rec.rid for rec in task.probes)
        for r_id, s_id in pairs:
            if r_id not in probe_ids or s_id not in task.s_ids:
                stats.extras[f"corrupt_{self.noun}s"] += 1
                raise WorkerError(
                    f"{self.noun} {task.label} returned corrupt pair ({r_id}, {s_id}): "
                    f"ids do not belong to {self.sources}"
                )

    def _run_inline(self, task: Task, stats: JoinStats) -> Outcome:
        """Run one task in-process, retrying per the policy."""
        while True:
            task.attempts += 1
            try:
                outcome = self.attempt(task)
                self.check(task, outcome[0], stats)
                return outcome
            except GovernanceError:
                # Deadline/cancel/budget bounds are terminal by design:
                # retrying cannot buy back elapsed wall time.
                raise
            except Exception as exc:  # noqa: BLE001 - any task fault is retryable
                last_error = exc
            if task.attempts >= self.retry_policy.max_attempts:
                return self._exhausted(task, stats, last_error)
            self._backoff(task, stats)

    def _run_pooled(self, stats: JoinStats) -> list[Outcome]:
        """Drive every task through a worker pool, recovering failures."""
        results: list[Outcome | None] = [None] * len(self.tasks)
        pool = self.new_pool()
        pending: dict[Future[Outcome], Task] = {}
        abandoned = False
        completed = False
        gov = governor("probe", stats)
        try:
            for task in self.tasks:
                self._submit(pool, task, pending)
            while pending:
                # The parent re-checks the bounds once per scheduling round:
                # even if every worker is wedged (so no task ever reports a
                # governance error itself), _wait_round's bounded sleep plus
                # this poll stops the join within one poll interval.
                if gov is not None:
                    gov.poll()
                pool_broken = False
                for future in self._wait_round(pending):
                    task = pending.pop(future)
                    try:
                        outcome = future.result()
                        self.check(task, outcome[0], stats)
                    except BrokenProcessPool:
                        # Resubmitted by the pool restart below.
                        pool_broken = True
                        pending[future] = task
                        continue
                    except GovernanceError:
                        # A worker hit the deadline/cancel bound: terminal,
                        # never retried, never completed via fallback.
                        raise
                    except Exception as exc:  # noqa: BLE001 - retryable worker fault
                        self._retry(pool, task, pending, results, stats, exc)
                        continue
                    self.record(task, outcome[1])
                    results[task.position] = outcome
                if pool_broken:
                    pool = self._restart_pool(pool, pending, results, stats)
                abandoned |= self._expire_overdue(pending, results, stats)
            completed = True
        except GovernanceError:
            # Record how many tasks the abort stranded before the finally
            # block force-terminates their workers.  tracer.record survives
            # the raise, so the span tree stays balanced and still shows
            # the abort.
            cancelled = sum(1 for outcome in results if outcome is None)
            stats.extras["cancelled_chunks"] = (
                stats.extras.get("cancelled_chunks", 0) + cancelled
            )
            current_tracer().record("governance", 0.0, {"cancelled_chunks": cancelled})
            raise
        finally:
            # An abnormal exit may leave hung workers behind; terminate
            # them rather than letting shutdown await a process that will
            # never finish.
            _shutdown(pool, force=abandoned or not completed)
        assert all(outcome is not None for outcome in results)
        return results  # type: ignore[return-value]

    def _submit(
        self, pool: ProcessPoolExecutor, task: Task, pending: dict[Future[Outcome], Task]
    ) -> None:
        """Submit one attempt for ``task`` and start its timeout clock."""
        task.attempts += 1
        future = self.send(pool, task)
        if self.timeout_seconds is not None:
            task.deadline = monotonic() + self.timeout_seconds
        pending[future] = task

    def _wait_round(self, pending: dict[Future[Outcome], Task]) -> set[Future[Outcome]]:
        """Block until a future completes or the nearest bound passes.

        The wait is additionally capped by the governance policy so the
        blocked parent wakes to poll: at the join deadline's remaining
        time, and at 50ms whenever a cancel token is armed (a token has
        no absolute instant to sleep until).
        """
        wait_timeout: float | None = None
        if self.timeout_seconds is not None:
            nearest = min(task.deadline for task in pending.values() if task.deadline)
            wait_timeout = max(0.0, nearest - monotonic())
        policy = current_policy()
        if policy is not None:
            if policy.cancel is not None:
                wait_timeout = 0.05 if wait_timeout is None else min(wait_timeout, 0.05)
            if policy.deadline is not None:
                remaining = max(0.0, policy.deadline.remaining())
                wait_timeout = (
                    remaining if wait_timeout is None else min(wait_timeout, remaining)
                )
        done, _ = wait(set(pending), timeout=wait_timeout, return_when=FIRST_COMPLETED)
        return done

    def _backoff(self, task: Task, stats: JoinStats) -> None:
        """Count one retry of ``task`` and sleep its scheduled delay."""
        stats.extras["retries"] += 1
        delay = self.retry_policy.delay(task.attempts)
        current_tracer().record("retry", delay, {"retries": 1})
        time.sleep(delay)

    def _retry(
        self,
        pool: ProcessPoolExecutor,
        task: Task,
        pending: dict[Future[Outcome], Task],
        results: list[Outcome | None],
        stats: JoinStats,
        error: Exception,
    ) -> None:
        """Resubmit a failed task after its backoff, or finish it as exhausted."""
        if task.attempts < self.retry_policy.max_attempts:
            self._backoff(task, stats)
            self._submit(pool, task, pending)
        else:
            results[task.position] = self._exhausted(task, stats, error)

    def _restart_pool(
        self,
        pool: ProcessPoolExecutor,
        pending: dict[Future[Outcome], Task],
        results: list[Outcome | None],
        stats: JoinStats,
    ) -> ProcessPoolExecutor:
        """Replace a broken pool and resubmit every in-flight task."""
        stats.extras["pool_restarts"] += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("pool_restarts")
        stranded = list(pending.values())
        pending.clear()
        _shutdown(pool, force=True)
        pool = self.new_pool()
        for task in stranded:
            died = WorkerError(f"worker died while {self.verb} {self.noun} {task.label}")
            self._retry(pool, task, pending, results, stats, died)
        return pool

    def _expire_overdue(
        self,
        pending: dict[Future[Outcome], Task],
        results: list[Outcome | None],
        stats: JoinStats,
    ) -> bool:
        """Abandon tasks past their deadline; complete them in the parent.

        The worker serving an overdue task may be hung, and
        :class:`~concurrent.futures.ProcessPoolExecutor` cannot cancel a
        *running* task.  The future is dropped, never cancelled: its
        eventual result, if any, is discarded, and :func:`_shutdown`
        terminates its worker.  Returns True when anything was abandoned.
        """
        if self.timeout_seconds is None:
            return False
        now = monotonic()
        overdue = [
            future
            for future, task in pending.items()
            if not future.done() and task.deadline is not None and task.deadline <= now
        ]
        for future in overdue:
            task = pending.pop(future)
            stats.extras["timeouts"] += 1
            current_tracer().record("timeout", 0.0, {"timeouts": 1})
            if not self.fallback:
                raise JoinTimeoutError(
                    f"{self.noun} {task.label} exceeded its {self.timeout_seconds}s budget "
                    f"on attempt {task.attempts} and fallback is disabled"
                )
            results[task.position] = self._fallback(task, stats)
        return bool(overdue)

    # ------------------------------------------------------------------
    # Last resorts
    # ------------------------------------------------------------------
    def _exhausted(self, task: Task, stats: JoinStats, last_error: Exception) -> Outcome:
        """Retries used up: fall back in the parent or raise."""
        if not self.fallback:
            raise RetryExhaustedError(
                f"{self.noun} {task.label} failed all {task.attempts} attempts: {last_error}",
                attempts=task.attempts,
            ) from last_error
        return self._fallback(task, stats)

    def _fallback(self, task: Task, stats: JoinStats) -> Outcome:
        """Complete ``task`` via :meth:`last_resort`, counting the fallback.

        The last resort runs in-process under the active tracer (so it
        opens its own spans); a zero-duration ``fallback`` marker span
        carries the count without double-charging its time.
        """
        key = f"fallback_{self.noun}s"
        stats.extras[key] += 1
        current_tracer().record("fallback", 0.0, {key: 1})
        return self.last_resort(task)


def _shutdown(pool: ProcessPoolExecutor, force: bool) -> None:
    """Shut ``pool`` down; with ``force``, terminate its workers first.

    Futures are never cancelled here or anywhere in the supervisor.  On
    Python 3.11 the pool's manager thread marks every pending future
    failed once its workers die, and a future that was already cancelled
    makes that thread die with ``InvalidStateError``.  Terminated workers
    instead let the manager thread fail what is left and exit, which
    ``wait=True`` then joins.
    """
    if force:
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            proc.terminate()
    pool.shutdown(wait=True)
