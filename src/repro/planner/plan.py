"""Plan data model: workload hints, costed decisions, and EXPLAIN rendering.

A :class:`Plan` is the planner's output contract: an immutable, serializable
description of *how* one join (or prepare-once/probe-many workload) will be
executed — chosen algorithm, signature parameterisation, executor and
chunking — where every decision carries the cost estimates that justified
it and the alternatives that were rejected, so :meth:`Plan.explain` can
render an EXPLAIN-style tree and benchmarks can measure planner regret
afterwards.

Plans deliberately separate *decision* from *execution*: building one
touches only :class:`~repro.relations.stats.RelationStats` (never the
records), and :func:`repro.planner.executor.execute_plan` is the single
place a plan turns into actual work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import PlanError

__all__ = [
    "Workload",
    "CostEstimate",
    "Alternative",
    "Decision",
    "Plan",
    "EXECUTORS",
    "WORKLOAD_MODES",
]

#: Executors a plan may select (see ``docs/PLANNER.md`` for the mapping).
EXECUTORS = ("inline", "parallel", "resilient", "disk", "sharded")

#: Workload shapes the planner distinguishes.
WORKLOAD_MODES = ("oneshot", "probe_many")


@dataclass(frozen=True)
class Workload:
    """Caller-supplied hints about how the join will be used.

    Attributes:
        mode: ``"oneshot"`` (classic ``join(r, s)``) or ``"probe_many"``
            (prepare the index once, probe it repeatedly).
        probe_batches: Expected probe batches for ``probe_many`` workloads;
            amortises the build cost in the planner's estimates.
        memory_budget_tuples: Largest relation slice that fits in memory,
            in tuples; ``None`` means unconstrained.  When the inputs
            exceed it, the planner selects the disk-partitioned executor.
        workers: Available worker processes; above 1 the planner considers
            the partition-parallel executors.
        fault_tolerance: Prefer the resilient executor (per-chunk retry,
            timeout, fallback) whenever a worker pool is used.
        shards: Requested S-shard count for the scale-out executor;
            ``None`` (default) lets the planner decide whether sharding
            pays off at all.  Setting it selects the sharded executor for
            one-shot workloads.
        deadline_seconds: Whole-join wall-clock bound.  The planner
            rejects plans whose cost estimate cannot finish inside it
            (EXPLAIN-visible), and ``execute_plan`` derives a
            :class:`~repro.governance.Deadline` from it so every
            build/probe loop polls.  Distinct from the executors'
            per-chunk ``timeout_seconds`` — see ``docs/ROBUSTNESS.md``.
        max_memory_bytes: Index-build memory budget in bytes, enforced by
            the tracemalloc-backed governor; a breach raises
            :class:`~repro.errors.BudgetExceededError` (or degrades, on
            the resilient path).
    """

    mode: str = "oneshot"
    probe_batches: int = 1
    memory_budget_tuples: int | None = None
    workers: int = 1
    fault_tolerance: bool = False
    shards: int | None = None
    deadline_seconds: float | None = None
    max_memory_bytes: int | None = None

    def __post_init__(self) -> None:
        from repro.core.options import (
            validate_deadline_seconds,
            validate_max_memory_bytes,
            validate_max_tuples,
            validate_probe_batches,
            validate_shards,
            validate_workers,
        )

        if self.mode not in WORKLOAD_MODES:
            raise PlanError(f"unknown workload mode {self.mode!r}; expected one of {WORKLOAD_MODES}")
        validate_probe_batches(self.probe_batches)
        validate_workers(self.workers)
        validate_shards(self.shards)
        if self.memory_budget_tuples is not None:
            validate_max_tuples(self.memory_budget_tuples)
        validate_deadline_seconds(self.deadline_seconds)
        validate_max_memory_bytes(self.max_memory_bytes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "probe_batches": self.probe_batches,
            "memory_budget_tuples": self.memory_budget_tuples,
            "workers": self.workers,
            "fault_tolerance": self.fault_tolerance,
            "shards": self.shards,
            "deadline_seconds": self.deadline_seconds,
            "max_memory_bytes": self.max_memory_bytes,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Workload":
        return cls(**dict(payload))


@dataclass(frozen=True)
class CostEstimate:
    """One configuration's cost breakdown in model units (Sec. III-C style).

    *Model units* count expected elementary operations, not seconds; they
    are comparable across configurations of one algorithm and — with the
    calibration caveats spelled out in ``docs/PLANNER.md`` — indicative
    across algorithms.
    """

    build: float
    probe: float

    @property
    def total(self) -> float:
        return self.build + self.probe

    def to_dict(self) -> dict[str, float]:
        return {"build": self.build, "probe": self.probe, "total": self.total}

    @classmethod
    def from_dict(cls, payload: Mapping[str, float]) -> "CostEstimate":
        return cls(build=payload["build"], probe=payload["probe"])


@dataclass(frozen=True)
class Alternative:
    """A rejected option of one decision, kept for explainability.

    Attributes:
        choice: What was considered (an algorithm name, ``"bits=512"``, an
            executor name, ...).
        reason: Why it lost.
        cost: Its estimated cost at this workload, when the planner has a
            model for it (``None`` for options rejected on principle).
    """

    choice: str
    reason: str
    cost: CostEstimate | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "choice": self.choice,
            "reason": self.reason,
            "cost": self.cost.to_dict() if self.cost is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Alternative":
        cost = payload.get("cost")
        return cls(
            choice=payload["choice"],
            reason=payload["reason"],
            cost=CostEstimate.from_dict(cost) if cost else None,
        )


@dataclass(frozen=True)
class Decision:
    """One planner decision: what was chosen, why, and what was not.

    Attributes:
        name: Decision slot (``algorithm``, ``signature``, ``executor``,
            ``chunking``).
        choice: The selected option.
        reason: Human-readable justification (rendered by ``explain``).
        cost: Cost estimate of the chosen option, when modelled.
        rejected: The alternatives that lost, each with its own estimate.
        detail: Extra key/value annotations (numbers the decision used).
    """

    name: str
    choice: str
    reason: str
    cost: CostEstimate | None = None
    rejected: tuple[Alternative, ...] = ()
    detail: tuple[tuple[str, Any], ...] = ()

    def detail_dict(self) -> dict[str, Any]:
        return dict(self.detail)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "choice": self.choice,
            "reason": self.reason,
            "cost": self.cost.to_dict() if self.cost is not None else None,
            "rejected": [alt.to_dict() for alt in self.rejected],
            # List-of-pairs, not a dict: survives sort_keys serialization
            # with the decision's own ordering intact.
            "detail": [[key, value] for key, value in self.detail],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Decision":
        cost = payload.get("cost")
        return cls(
            name=payload["name"],
            choice=payload["choice"],
            reason=payload["reason"],
            cost=CostEstimate.from_dict(cost) if cost else None,
            rejected=tuple(Alternative.from_dict(alt) for alt in payload.get("rejected", ())),
            detail=tuple((key, value) for key, value in payload.get("detail", ())),
        )


def _fmt_cost(cost: CostEstimate | None) -> str:
    if cost is None:
        return ""
    return f"cost={cost.total:.3g} (build {cost.build:.3g} + probe {cost.probe:.3g})"


@dataclass(frozen=True)
class Plan:
    """An immutable, executable description of one planned join.

    Produced by :class:`repro.planner.Planner` (or pre-pinned by the
    registry when the caller names an algorithm explicitly) and consumed
    by :func:`repro.planner.executor.execute_plan`.

    Attributes:
        algorithm: Registry name of the in-memory algorithm.
        algorithm_kwargs: Constructor arguments for the algorithm, exactly
            as the caller supplied them (pinned plans forward these
            verbatim so explicit-algorithm runs stay bit-for-bit equal).
        executor: One of :data:`EXECUTORS`.
        executor_options: Keyword arguments for the executor class
            (``workers``/``chunks`` for the parallel executors,
            ``workers``/``shards`` for sharded,
            ``max_tuples`` for disk; empty for inline).
        workload: The hints the plan was made for.
        decisions: Every decision with its costs and rejected alternatives.
        pinned: True when the caller chose the algorithm explicitly; the
            planner then records the choice without second-guessing it.
    """

    algorithm: str
    algorithm_kwargs: tuple[tuple[str, Any], ...] = ()
    executor: str = "inline"
    executor_options: tuple[tuple[str, Any], ...] = ()
    workload: Workload = field(default_factory=Workload)
    decisions: tuple[Decision, ...] = ()
    pinned: bool = False

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise PlanError(f"unknown executor {self.executor!r}; expected one of {EXECUTORS}")
        # Normalise mapping-like inputs into hashable item tuples so plans
        # stay frozen end to end.
        for attr in ("algorithm_kwargs", "executor_options"):
            value = getattr(self, attr)
            if isinstance(value, Mapping):
                object.__setattr__(self, attr, tuple(value.items()))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def kwargs(self) -> dict[str, Any]:
        """The algorithm constructor kwargs as a fresh dict."""
        return dict(self.algorithm_kwargs)

    def options(self) -> dict[str, Any]:
        """The executor options as a fresh dict."""
        return dict(self.executor_options)

    def decision(self, name: str) -> Decision | None:
        """The decision named ``name``, or ``None``."""
        for decision in self.decisions:
            if decision.name == name:
                return decision
        return None

    @property
    def estimated_cost(self) -> float | None:
        """Model-unit cost of the chosen algorithm, when estimated."""
        decision = self.decision("algorithm")
        if decision is None or decision.cost is None:
            return None
        return decision.cost.total

    @property
    def kernel_backend(self) -> str | None:
        """The kernel backend the plan was made against, when recorded.

        ``None`` for plans predating the kernel layer (e.g. deserialized
        from old JSON) — executors then run on the process default.
        """
        decision = self.decision("kernel")
        return decision.choice if decision is not None else None

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            # Item-pair lists, not dicts: round-trips keep insertion order
            # even under sort_keys serialization.
            "algorithm_kwargs": [[k, v] for k, v in self.algorithm_kwargs],
            "executor": self.executor,
            "executor_options": [[k, v] for k, v in self.executor_options],
            "workload": self.workload.to_dict(),
            "decisions": [decision.to_dict() for decision in self.decisions],
            "pinned": self.pinned,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Plan":
        kwargs = payload.get("algorithm_kwargs", ())
        options = payload.get("executor_options", ())
        return cls(
            algorithm=payload["algorithm"],
            algorithm_kwargs=tuple(
                (k, v) for k, v in
                (kwargs.items() if isinstance(kwargs, Mapping) else kwargs)
            ),
            executor=payload.get("executor", "inline"),
            executor_options=tuple(
                (k, v) for k, v in
                (options.items() if isinstance(options, Mapping) else options)
            ),
            workload=Workload.from_dict(payload.get("workload", {})),
            decisions=tuple(Decision.from_dict(d) for d in payload.get("decisions", ())),
            pinned=bool(payload.get("pinned", False)),
        )

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # EXPLAIN rendering
    # ------------------------------------------------------------------
    def explain(self) -> str:
        """Render the plan as an EXPLAIN-style decision tree.

        Every decision is one branch; its cost estimate (when modelled)
        and every rejected alternative — with *its* estimate — are listed
        beneath it, so "why not X?" is answerable from the output alone.
        """
        mode = self.workload.mode
        header = f"Plan: {self.algorithm} via {self.executor} executor [{mode}]"
        if self.pinned:
            header += " (pinned)"
        lines = [header]
        for i, decision in enumerate(self.decisions):
            last = i == len(self.decisions) - 1
            branch = "└─" if last else "├─"
            stem = "   " if last else "│  "
            cost = _fmt_cost(decision.cost)
            suffix = f"  {cost}" if cost else ""
            lines.append(f"{branch} {decision.name} = {decision.choice}{suffix}")
            lines.append(f"{stem}   {decision.reason}")
            for key, value in decision.detail:
                lines.append(f"{stem}   {key} = {value}")
            for alt in decision.rejected:
                alt_cost = _fmt_cost(alt.cost)
                alt_suffix = f"  {alt_cost}" if alt_cost else ""
                lines.append(f"{stem}   rejected: {alt.choice}{alt_suffix}  — {alt.reason}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<Plan {self.algorithm} executor={self.executor} "
            f"mode={self.workload.mode} pinned={self.pinned}>"
        )
