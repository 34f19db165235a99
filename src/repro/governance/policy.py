"""The governance policy and the poll loop that enforces it.

A :class:`GovernancePolicy` bundles the three bounds a join can carry —
a whole-join :class:`~repro.governance.deadline.Deadline`, a cooperative
:class:`~repro.governance.deadline.CancelToken`, and an index-build byte
budget — plus the poll cadence.  It is installed *ambiently*, exactly
like the tracer (:mod:`repro.obs.tracer`): ``with govern(policy): ...``
in the owning process, :func:`set_policy` in pool-worker initializers.
Algorithms never take a policy parameter; their loops ask
:func:`governor` for a cursor and tick it.

The hot-path contract is strict.  With no policy installed,
:func:`governor` returns ``None`` and a governed loop pays one
``is not None`` test per record — that is the whole governance-off cost,
and the bench gate holds it under 5%.  With a policy installed, a
:class:`Governor` counts ticks and *polls* every ``poll_interval`` of
them; only a poll touches the clock, the token or the memory sampler.
Breaches raise the typed errors from :mod:`repro.errors`, so "terminates
within one poll interval of the bound" is the enforced guarantee.

Lint rule ``RPR009`` (:mod:`repro.analysis.rules.governance`) closes the
loop statically: relation-sized loops in ``repro.core`` / ``repro.exec``
must tick a governor or carry an explained waiver.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.core.options import validate_max_memory_bytes
from repro.errors import (
    AlgorithmError,
    BudgetExceededError,
    CancelledError,
    DeadlineExceededError,
)
from repro.governance.deadline import CancelToken, Deadline
from repro.governance.memory import build_base, default_sampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import JoinStats

__all__ = [
    "DEFAULT_POLL_INTERVAL",
    "GovernancePolicy",
    "Governor",
    "current_policy",
    "govern",
    "governor",
    "set_policy",
]

#: Records between governance polls.  Coarse enough that the clock read /
#: token check / memory sample vanish against per-record join work, fine
#: enough that a breached bound stops the loop within a few milliseconds.
DEFAULT_POLL_INTERVAL = 1024


@dataclass(frozen=True)
class GovernancePolicy:
    """Immutable bundle of join bounds, carried ambiently per thread.

    Attributes:
        deadline: Whole-join absolute deadline, or ``None``.
        cancel: Cooperative cancel token, or ``None``.
        memory_budget_bytes: Index-build byte budget, or ``None``.
        poll_interval: Ticks between polls (records/nodes per check).
        memory_sampler: Optional ``() -> int`` byte reading (test seam);
            ``None`` uses the tracemalloc default, armed by
            :func:`repro.governance.memory.traced_build`.
    """

    deadline: Deadline | None = None
    cancel: CancelToken | None = None
    memory_budget_bytes: int | None = None
    poll_interval: int = DEFAULT_POLL_INTERVAL
    memory_sampler: Callable[[], int] | None = None

    def __post_init__(self) -> None:
        validate_max_memory_bytes(self.memory_budget_bytes)
        if self.poll_interval <= 0:
            raise AlgorithmError(
                f"poll_interval must be positive, got {self.poll_interval}"
            )

    @property
    def active(self) -> bool:
        """Whether any bound is actually set."""
        return (
            self.deadline is not None
            or self.cancel is not None
            or self.memory_budget_bytes is not None
        )

    def worker_policy(self) -> "GovernancePolicy":
        """The copy shipped to worker children.

        The deadline and token travel as-is (both pickle; the token's
        flag file makes parent-side cancels visible).  A custom sampler
        does not — it may close over parent state — so workers fall back
        to the tracemalloc default.
        """
        if self.memory_sampler is None:
            return self
        return replace(self, memory_sampler=None)


# Thread-local ambient policy, mirroring the tracer's storage.  Worker
# children install the copy they are started with in their main thread;
# the join server's request threads each install a
# per-request policy (deadline/budget from the request) without
# clobbering the policies of concurrently-running requests.
_STATE = threading.local()


def current_policy() -> GovernancePolicy | None:
    """The ambient policy for this thread, or ``None``."""
    policy: Optional[GovernancePolicy] = getattr(_STATE, "policy", None)
    return policy


def set_policy(policy: GovernancePolicy | None) -> GovernancePolicy | None:
    """Install ``policy`` ambiently for this thread; returns the previous one."""
    previous = current_policy()
    _STATE.policy = policy
    return previous


@contextmanager
def govern(policy: GovernancePolicy | None) -> Iterator[GovernancePolicy | None]:
    """Scope ``policy`` as the ambient policy; restores the previous one."""
    previous = set_policy(policy)
    try:
        yield policy
    finally:
        set_policy(previous)


class Governor:
    """A polling cursor for one governed loop.

    Hoisted once per loop (``gov = governor(phase, stats)``), ticked once
    per record/node.  ``tick`` is a decrement and a compare until the
    countdown hits zero; ``poll`` then re-arms it, counts itself in
    ``stats.extras["deadline_polls"]`` and checks each configured bound.

    The *first* tick always polls: a pre-expired deadline or an
    already-tripped token must stop the loop on record one, even when
    the whole relation is smaller than ``poll_interval`` (otherwise a
    small join would never observe its bounds at all).
    """

    __slots__ = ("policy", "phase", "stats", "ticks", "_countdown", "_sampler", "_base_bytes")

    def __init__(self, policy: GovernancePolicy, phase: str, stats: "JoinStats | None") -> None:
        self.policy = policy
        self.phase = phase
        self.stats = stats
        self.ticks = 0
        self._countdown = 1
        if policy.memory_budget_bytes is not None and phase == "build":
            self._sampler = policy.memory_sampler or default_sampler
            # Inside a traced_build scope every governor shares the
            # scope's base reading — the loop governor and the build-
            # boundary governor must measure the same delta.
            base = build_base()
            self._base_bytes = base if base is not None else self._sampler()
        else:
            self._sampler = None
            self._base_bytes = 0

    def tick(self) -> None:
        """Count one record/node; polls every ``poll_interval`` ticks."""
        self.ticks += 1
        self._countdown -= 1
        if self._countdown <= 0:
            self.poll()

    def poll(self) -> None:
        """Check every configured bound now; raises the typed error on breach."""
        self._countdown = self.policy.poll_interval
        stats = self.stats
        if stats is not None:
            stats.extras["deadline_polls"] = stats.extras.get("deadline_polls", 0) + 1
        cancel = self.policy.cancel
        if cancel is not None and cancel.cancelled():
            reason = cancel.reason or "cancel token tripped"
            raise CancelledError(f"join cancelled during {self.phase}: {reason}")
        deadline = self.policy.deadline
        if deadline is not None:
            overdue = -deadline.remaining()
            if overdue >= 0.0:
                raise DeadlineExceededError(
                    f"deadline of {deadline.seconds:g}s exceeded during "
                    f"{self.phase} ({overdue:.3f}s over)"
                )
        if self._sampler is not None:
            used = self._sampler() - self._base_bytes
            budget = self.policy.memory_budget_bytes
            assert budget is not None  # _sampler is only armed with a budget
            if used > budget:
                raise BudgetExceededError(
                    f"index build used {used} bytes of a {budget}-byte budget "
                    f"after ~{self.ticks} records",
                    budget_bytes=budget,
                    used_bytes=used,
                    records_indexed=self.ticks,
                )


def governor(phase: str, stats: "JoinStats | None" = None) -> Governor | None:
    """A :class:`Governor` for the ambient policy, or ``None`` if ungoverned.

    The ``None`` return is the governance-off fast path: loops hoist the
    result and guard each tick with ``if gov is not None``.
    """
    policy = current_policy()
    if policy is None or not policy.active:
        return None
    return Governor(policy, phase, stats)
