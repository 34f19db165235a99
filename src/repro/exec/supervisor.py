"""One supervisor for every pooled executor: child-per-slot pipes plus a recovery ladder.

The parallel, resilient and sharded executors are three configurations
of :class:`Supervisor`.  Each produces a list of :class:`Task` records
and supplies the few hooks that differ; this module owns the worker
transport and the recovery ladder, once.

**Transport.**  Tasks are dealt round-robin to ``min(workers, len(tasks))``
slots.  Slot 0 is the parent, which runs its tasks in-process; every
other slot is one child process started for this join alone with its
tasks' calls as ``Process`` arguments (inherited under ``fork``, pickled
once under ``spawn``/``forkserver``).  A child replies once per task down
a one-way pipe — the pairs as two ``array('q')`` columns plus the task's
:class:`~repro.core.base.JoinStats`, or the exception the task raised,
after which it exits.  The parent waits on the pipes with
:func:`multiprocessing.connection.wait`, starts no thread, and reaps every
child before :meth:`Supervisor.run` returns or raises.  With
``timeout_seconds`` set and ``workers > 1`` every slot is a child and the
parent only supervises: an in-process attempt cannot be pre-empted.

**Recovery is per slot.**  A child that sends an error reply, dies (EOF
on its pipe, counted in ``pool_restarts``), returns pairs with ids its
task never held, or runs past its task's deadline is terminated if still
alive and reaped, and a fresh child takes over the slot's unfinished
tasks; sibling slots are untouched.  The failed task is retried after the
rest of its slot, up to :attr:`RetryPolicy.max_attempts` times with
deterministic backoff.  An overdue task (its clock starts when its child
starts it) and a task whose retries are exhausted are completed by the
parent's last resort on known-good state — or, without ``fallback``,
raise :class:`~repro.errors.JoinTimeoutError` /
:class:`~repro.errors.RetryExhaustedError`, and with a single attempt
the task's own error as is (the fail-fast configuration).  A
:class:`~repro.errors.GovernanceError` is terminal: the parent polls the
ambient bounds once per round, with its wait capped so it wakes to poll,
and counts the tasks an abort strands in ``extras["cancelled_chunks"]``.

``stats.extras`` always carries the five :func:`recovery_extras`
counters, all zero on a clean run.  See ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import multiprocessing
import time
from array import array
from dataclasses import dataclass
from multiprocessing.connection import wait
from operator import itemgetter
from typing import Any, Callable, ClassVar, Iterable, Protocol, Sequence

from repro.core.base import JoinResult, JoinStats
from repro.errors import (
    AlgorithmError,
    GovernanceError,
    JoinTimeoutError,
    RetryExhaustedError,
    WorkerError,
)
from repro.exec.merge import merge_stats
from repro.governance.policy import GovernancePolicy, current_policy, governor, set_policy
from repro.obs.clock import monotonic
from repro.obs.tracer import NullTracer, current_tracer, set_tracer
from repro.relations.relation import Relation

__all__ = ["RetryPolicy", "Supervisor", "Task", "recovery_extras"]

#: One task's result: its pairs and the stats its probe (or build) reported.
Outcome = tuple[list[tuple[int, int]], JoinStats]

#: One attempt at one task as a picklable zero-argument call.
Work = Callable[[], Outcome]


def recovery_extras(noun: str) -> tuple[str, ...]:
    """The stats extras a supervised join over ``noun`` tasks always reports."""
    return ("retries", "timeouts", f"fallback_{noun}s", "pool_restarts", f"corrupt_{noun}s")


def _columns(pairs: list[tuple[int, int]]) -> tuple[Sequence[int], Sequence[int]]:
    """Split pairs into an r-id and an s-id column for the trip home.

    Two ``array('q')`` buffers pickle as raw bytes, far cheaper than a
    list of tuples.  Ids beyond int64 travel as plain lists instead.
    """
    try:
        return array("q", map(itemgetter(0), pairs)), array("q", map(itemgetter(1), pairs))
    except OverflowError:
        return [p[0] for p in pairs], [p[1] for p in pairs]


def _serve_slot(calls: list[Work], policy: GovernancePolicy | None, conn: Any) -> None:
    """Child entry point (module-level so it pickles): run each call, reply per task.

    The parent's governance policy (deadline/cancel token) arrives as an
    argument, so the child's loops poll the *parent's* bounds — the
    deadline is an absolute monotonic instant (system-wide on POSIX) and
    the token can be flag-file backed, so both read identically here.
    The child traces nothing: its times travel home in each task's
    stats, and the parent records them.
    """
    set_tracer(NullTracer())
    set_policy(policy)
    for call in calls:
        try:
            pairs, stats = call()
            reply: tuple[str, Any] = ("ok", (*_columns(pairs), stats))
        except Exception as exc:  # noqa: BLE001 - re-raised or retried in the parent
            reply = ("error", exc)
        # A reply that fails to pickle kills the child, which the parent
        # sees as a worker death with exit code 1.
        conn.send(reply)
        if reply[0] == "error":
            break
    conn.close()


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


def _overdue(task: Task) -> bool:
    """Whether ``task``'s running attempt is past its deadline."""
    return task.deadline is not None and task.deadline <= monotonic()


class _Slot:
    """One child process and the tasks it still owes, in reply order."""

    __slots__ = ("number", "tasks", "proc", "conn")

    def __init__(self, number: int, tasks: list[Task]) -> None:
        self.number = number
        self.tasks = tasks
        self.proc: Any = None
        self.conn: Any = None

    def stop(self) -> None:
        """Terminate the child if it is still alive, reap it, close its pipe."""
        if self.conn is not None:
            self.conn.close()
        proc = self.proc
        if proc is not None and proc.pid is not None:  # pid is None if start() failed
            if proc.is_alive():
                proc.terminate()
            proc.join()
        self.proc = self.conn = None


class RecoveryOptions(Protocol):
    """The executor settings a :class:`Supervisor` reads."""

    workers: int
    start_method: str | None
    retry_policy: RetryPolicy
    timeout_seconds: float | None
    fallback: bool
    validate_results: bool


class Supervisor:
    """Run one join's tasks to completion over child-per-slot pipes.

    Subclasses supply what differs between executors: :meth:`work` (one
    attempt as a picklable call, run in the parent and in children
    alike), :meth:`last_resort` (the parent's fallback) and
    :meth:`record` (the span a child's result adds to the parent's
    trace), plus the nouns that name tasks in extras and error messages.

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
        self.context = multiprocessing.get_context(options.start_method)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def work(self, task: Task) -> Work:
        """One attempt at ``task`` as a picklable call.

        Build it with ``functools.partial`` over a module-level function:
        children receive it as a ``Process`` argument.
        """
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def last_resort(self, task: Task) -> Outcome:
        """Complete ``task`` in the parent on known-good state."""
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def record(self, task: Task, task_stats: JoinStats) -> None:
        """Fold a child-measured result into the parent's span tree."""
        raise NotImplementedError  # pragma: no cover - subclasses implement

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def run(self, stats: JoinStats) -> JoinResult:
        """Run every task, then fold the outcomes in task order into ``stats``."""
        for key in recovery_extras(self.noun):
            stats.extras[key] = 0
        results: list[Outcome | None] = [None] * len(self.tasks)
        slots = min(self.workers, len(self.tasks))
        dealt = [self.tasks[number::slots] for number in range(slots)]
        in_parent = self.timeout_seconds is None or self.workers == 1
        children = [
            _Slot(number, tasks) for number, tasks in enumerate(dealt) if number or not in_parent
        ]
        gov = governor("probe", stats)
        try:
            for slot in children:
                self._start(slot)
            if in_parent and dealt:
                self._run_local(dealt[0], results, stats)
            busy = [slot for slot in children if slot.tasks]
            while busy:
                # The parent re-checks the bounds once per round: even if
                # every child is wedged (so no task ever reports a
                # governance error itself), the capped wait plus this poll
                # stops the join within one poll interval.
                if gov is not None:
                    gov.poll()
                ready = wait([slot.conn for slot in busy], timeout=self._wait_timeout(busy))
                for slot in busy:
                    if slot.conn in ready:
                        self._receive(slot, results, stats)
                    elif _overdue(slot.tasks[0]):
                        self._expire(slot, results, stats)
                busy = [slot for slot in busy if slot.tasks]
        except GovernanceError:
            # Record how many tasks the abort stranded before the finally
            # block terminates their children.  tracer.record survives the
            # raise, so the span tree stays balanced and still shows the
            # abort.
            cancelled = sum(1 for outcome in results if outcome is None)
            stats.extras["cancelled_chunks"] = (
                stats.extras.get("cancelled_chunks", 0) + cancelled
            )
            current_tracer().record("governance", 0.0, {"cancelled_chunks": cancelled})
            raise
        finally:
            for slot in children:
                slot.stop()
        pairs: list[tuple[int, int]] = []
        for outcome in results:
            assert outcome is not None
            task_pairs, task_stats = outcome
            pairs.extend(task_pairs)
            merge_stats(stats, task_stats)
        return JoinResult(pairs, stats)

    def check(self, task: Task, pairs: Iterable[tuple[int, int]], stats: JoinStats) -> None:
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

    def _run_local(
        self, tasks: list[Task], results: list[Outcome | None], stats: JoinStats
    ) -> None:
        """Run the parent's own slot in-process, retrying per the policy."""
        while tasks:
            task = tasks.pop(0)
            task.attempts += 1
            try:
                outcome = self.work(task)()
                self.check(task, outcome[0], stats)
            except GovernanceError:
                # Deadline/cancel/budget bounds are terminal by design:
                # retrying cannot buy back elapsed wall time.
                raise
            except Exception as exc:  # noqa: BLE001 - any task fault is retryable
                self._retry(task, tasks, results, stats, exc)
                continue
            results[task.position] = outcome

    def _retry(
        self,
        task: Task,
        slot_tasks: list[Task],
        results: list[Outcome | None],
        stats: JoinStats,
        error: Exception,
    ) -> None:
        """Re-queue a failed task after the rest of its slot, or finish it as exhausted.

        Retrying after its slot-mates means one task cannot use up the
        retries of a fault that strikes once per task.
        """
        if task.attempts < self.retry_policy.max_attempts:
            self._backoff(task, stats)
            slot_tasks.append(task)
        else:
            results[task.position] = self._exhausted(task, stats, error)

    # ------------------------------------------------------------------
    # Children
    # ------------------------------------------------------------------
    def _start(self, slot: _Slot) -> None:
        """Start a child for the slot's unfinished tasks; its first attempt begins."""
        recv_conn, send_conn = self.context.Pipe(duplex=False)
        policy = current_policy()
        slot.conn = recv_conn
        slot.proc = self.context.Process(
            target=_serve_slot,
            args=(
                [self.work(task) for task in slot.tasks],
                policy.worker_policy() if policy is not None else None,
                send_conn,
            ),
            daemon=True,
        )
        try:
            slot.proc.start()
        finally:
            # Only the child may hold the send end: once it dies, the
            # parent's recv() then sees EOF instead of blocking forever.
            send_conn.close()
        self._begin(slot.tasks[0])

    def _begin(self, task: Task) -> None:
        """Count one child attempt at ``task`` and start its timeout clock."""
        task.attempts += 1
        if self.timeout_seconds is not None:
            task.deadline = monotonic() + self.timeout_seconds

    def _wait_timeout(self, busy: list[_Slot]) -> float | None:
        """How long the parent may block before a bound needs it.

        The nearest task deadline caps the wait, and the governance
        policy caps it further so the blocked parent wakes to poll: at
        the join deadline's remaining time, and at 50ms whenever a cancel
        token is armed (a token has no absolute instant to sleep until).
        """
        caps: list[float] = []
        if self.timeout_seconds is not None:
            nearest = min(slot.tasks[0].deadline or 0.0 for slot in busy)
            caps.append(nearest - monotonic())
        policy = current_policy()
        if policy is not None and policy.cancel is not None:
            caps.append(0.05)
        if policy is not None and policy.deadline is not None:
            caps.append(policy.deadline.remaining())
        return max(0.0, min(caps)) if caps else None

    def _receive(self, slot: _Slot, results: list[Outcome | None], stats: JoinStats) -> None:
        """Read the reply to the slot's current task and act on it."""
        task = slot.tasks[0]
        try:
            status, payload = slot.conn.recv()
        except EOFError:
            # Reap before stop(): terminating a child that is already
            # exiting would overwrite its exit code.
            slot.proc.join()
            stats.extras["pool_restarts"] += 1
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count("pool_restarts")
            status, payload = "error", WorkerError(
                f"worker slot {slot.number} (pid {slot.proc.pid}) exited with code "
                f"{slot.proc.exitcode} while {self.verb} {self.noun} {task.label}"
            )
        if status == "ok":
            r_ids, s_ids, task_stats = payload
            pairs = list(zip(r_ids, s_ids))
            try:
                self.check(task, pairs, stats)
            except WorkerError as corrupt:
                payload = corrupt
            else:
                self.record(task, task_stats)
                results[task.position] = (pairs, task_stats)
                slot.tasks.pop(0)
                if slot.tasks:
                    self._begin(slot.tasks[0])
                return
        elif isinstance(payload, GovernanceError):
            # A child hit the deadline/cancel bound: terminal, never
            # retried, never completed via fallback.
            raise payload
        # The task failed and its child goes with it; a fresh child takes
        # over whatever the slot still owes.
        slot.stop()
        self._retry(slot.tasks.pop(0), slot.tasks, results, stats, payload)
        if slot.tasks:
            self._start(slot)

    def _expire(self, slot: _Slot, results: list[Outcome | None], stats: JoinStats) -> None:
        """Abandon the slot's overdue task with its child; finish it in the parent."""
        task = slot.tasks.pop(0)
        slot.stop()
        stats.extras["timeouts"] += 1
        current_tracer().record("timeout", 0.0, {"timeouts": 1})
        if not self.fallback:
            raise JoinTimeoutError(
                f"{self.noun} {task.label} exceeded its {self.timeout_seconds}s budget "
                f"on attempt {task.attempts} and fallback is disabled"
            )
        results[task.position] = self._fallback(task, stats)
        if slot.tasks:
            self._start(slot)

    # ------------------------------------------------------------------
    # Last resorts
    # ------------------------------------------------------------------
    def _backoff(self, task: Task, stats: JoinStats) -> None:
        """Count one retry of ``task`` and sleep its scheduled delay."""
        stats.extras["retries"] += 1
        delay = self.retry_policy.delay(task.attempts)
        current_tracer().record("retry", delay, {"retries": 1})
        time.sleep(delay)

    def _exhausted(self, task: Task, stats: JoinStats, last_error: Exception) -> Outcome:
        """Retries used up: fall back in the parent or raise.

        With a single attempt and no fallback (the fail-fast
        configuration) the task's own error is raised as is.
        """
        if not self.fallback:
            if self.retry_policy.max_attempts == 1:
                raise last_error
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
