"""Algorithm registry and the top-level plan → execute join entry points.

``set_containment_join(r, s, algorithm="auto")`` is the public one-call
API.  Since the planner refactor it is a thin composition of two halves
that are also public on their own:

* :func:`plan` — run the cost-based planner
  (:class:`repro.planner.Planner`) over both relations' statistics and
  the workload hints, producing an immutable, explainable
  :class:`~repro.planner.plan.Plan`;
* :func:`execute_plan` — run that plan.

``"auto"`` applies the paper's guidance (Sec. V-C3/V-C5): PRETTI+ for
low set-cardinality data, PTSJ otherwise, decided on the *median*
cardinality because skewed cardinality distributions make the average
misleading (Sec. V-C5).  The rule lives in one place, the planner's
algorithm decision, and every entry point that resolves ``"auto"`` —
the one-shot join, :func:`prepare_index`, the join server and the CLI —
takes its algorithm from a :func:`plan`, with the full cost-model
evidence attached.  Naming an algorithm explicitly produces a *pinned*
plan whose execution path is byte-for-byte the classic
``make_algorithm(name, **kwargs).join(r, s)``, so explicit calls keep
bit-for-bit identical results and :class:`~repro.core.base.JoinStats`.

Algorithm classes are resolved lazily (by module path) so that baseline
modules — which depend on :mod:`repro.core.base` — can be imported in any
order without cycles.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable

from repro.core.base import JoinResult, PreparedIndex, SetContainmentJoin
from repro.errors import AlgorithmError
from repro.planner.executor import execute_plan as _execute_plan
from repro.planner.executor import prepare_from_plan
from repro.planner.plan import Plan, Workload
from repro.planner.planner import Planner
from repro.planner.profiles import COST_PROFILES, CostProfile
from repro.relations.relation import Relation
from repro.relations.stats import compute_stats

__all__ = [
    "ALGORITHMS",
    "make_algorithm",
    "available_algorithms",
    "canonical_name",
    "cost_profile",
    "plan",
    "execute_plan",
    "set_containment_join",
    "prepare_index",
]

#: Registry of algorithms: public name -> ``(module path, class name)``.
ALGORITHMS: dict[str, tuple[str, str]] = {
    "ptsj": ("repro.core.ptsj", "PTSJ"),
    "pretti+": ("repro.core.pretti_plus", "PRETTIPlus"),
    "shj": ("repro.baselines.shj", "SHJ"),
    "pretti": ("repro.baselines.pretti", "PRETTI"),
    "tsj": ("repro.baselines.tsj", "TSJ"),
    "nested-loop": ("repro.baselines.nested_loop", "NestedLoopJoin"),
}

#: Aliases accepted by :func:`make_algorithm`.
_ALIASES: dict[str, str] = {
    "prettiplus": "pretti+",
    "pretti_plus": "pretti+",
    "nl": "nested-loop",
    "nested_loop": "nested-loop",
}


def available_algorithms() -> tuple[str, ...]:
    """Names accepted by :func:`set_containment_join` (aliases excluded)."""
    return tuple(ALGORITHMS)


def canonical_name(name: str) -> str:
    """Resolve a (case-insensitive) name or alias to its registry name.

    Raises:
        AlgorithmError: For an unknown name.
    """
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in ALGORITHMS:
        raise AlgorithmError(
            f"unknown algorithm {name!r}; available: {', '.join(ALGORITHMS)}"
        )
    return key


def algorithm_class(name: str) -> Callable[..., SetContainmentJoin]:
    """Resolve a registry name or alias to its algorithm class.

    Raises:
        AlgorithmError: For an unknown name.
    """
    module_path, class_name = ALGORITHMS[canonical_name(name)]
    return getattr(import_module(module_path), class_name)


def make_algorithm(name: str, **kwargs: Any) -> SetContainmentJoin:
    """Construct an algorithm by (case-insensitive) name or alias.

    Raises:
        AlgorithmError: For an unknown name.
    """
    return algorithm_class(name)(**kwargs)


def cost_profile(name: str) -> CostProfile:
    """The planner's :class:`~repro.planner.profiles.CostProfile` for ``name``.

    Accepts the same names and aliases as :func:`make_algorithm`.

    Raises:
        AlgorithmError: For an unknown name.
    """
    return COST_PROFILES[canonical_name(name)]


def plan(
    r: Relation | None,
    s: Relation,
    algorithm: str = "auto",
    workload: Workload | None = None,
    **kwargs: Any,
) -> Plan:
    """Plan (without running) the join ``R ⋈⊇ S``.

    Args:
        r: The probe relation; ``None`` for a prepare-only workload with
            no probe sample yet.
        s: The indexed relation.
        algorithm: ``"auto"`` lets the planner choose (regime-gated cost
            selection between PTSJ and PRETTI+); any registry name or
            alias pins the plan to that algorithm.
        workload: Usage hints (:class:`~repro.planner.plan.Workload`);
            defaults to a one-shot in-process join.
        **kwargs: Algorithm constructor arguments, recorded on the plan
            and forwarded verbatim at execution time.

    Returns:
        An immutable :class:`~repro.planner.plan.Plan`; render its
        reasoning with ``plan.explain()`` or serialize it with
        ``plan.to_json()``.

    Raises:
        AlgorithmError: For an unknown algorithm name.
        PlanError: For invalid workload hints.
    """
    pinned = None if algorithm.strip().lower() == "auto" else canonical_name(algorithm)
    r_stats = compute_stats(r) if r is not None else None
    return Planner().plan(
        r_stats,
        compute_stats(s),
        workload=workload,
        algorithm=pinned,
        algorithm_kwargs=kwargs,
    )


def execute_plan(query_plan: Plan, r: Relation, s: Relation) -> JoinResult:
    """Run a previously produced (or deserialized) plan.

    Thin alias of :func:`repro.planner.executor.execute_plan`, re-exported
    here so planning and execution live behind one import.
    """
    return _execute_plan(query_plan, r, s)


def set_containment_join(
    r: Relation,
    s: Relation,
    algorithm: str = "auto",
    workload: Workload | None = None,
    **kwargs: Any,
) -> JoinResult:
    """Compute ``R ⋈⊇ S``: all pairs with ``r.set ⊇ s.set``.

    Every call is planned first and then executed —
    ``execute_plan(plan(r, s, ...), r, s)`` — so the same decisions are
    available for inspection via :func:`plan` without running anything.

    Args:
        r: The probe relation (containing side).
        s: The indexed relation (contained side).
        algorithm: ``"auto"`` (planner; regime rule Sec. V-C3/V-C5), or
            one of :func:`available_algorithms` / their aliases, which
            pins the plan and executes exactly the classic path.
        workload: Optional usage hints; memory budgets or worker counts
            here route execution through the disk-partitioned or
            partition-parallel executors.
        **kwargs: Forwarded to the algorithm constructor (e.g. ``bits=512``
            for PTSJ).

    Returns:
        A :class:`~repro.core.base.JoinResult` of ``(r_id, s_id)`` pairs
        plus execution statistics.

    Raises:
        AlgorithmError: For an unknown algorithm name.

    Example:
        >>> from repro.relations import Relation
        >>> r = Relation.from_sets([{1, 2, 3}, {2, 4}])
        >>> s = Relation.from_sets([{2}, {1, 3}, {4, 5}])
        >>> sorted(set_containment_join(r, s, algorithm="ptsj").pairs)
        [(0, 0), (0, 1), (1, 0)]
    """
    query_plan = plan(r, s, algorithm=algorithm, workload=workload, **kwargs)
    return _execute_plan(query_plan, r, s)


def prepare_index(
    s: Relation,
    algorithm: str = "auto",
    probe_hint: Relation | None = None,
    **kwargs: Any,
) -> PreparedIndex:
    """Build a reusable containment index over ``S`` — the probe-many API.

    Prefer this over :func:`set_containment_join` whenever the same
    indexed relation is probed more than once: the index is built exactly
    once, and each :meth:`~repro.core.base.PreparedIndex.probe_many` call
    (or streaming :meth:`~repro.core.base.PreparedIndex.probe`) reuses it.
    Internally this plans a ``probe_many`` workload and materializes the
    plan's index via :func:`repro.planner.executor.prepare_from_plan`.

    Args:
        s: The relation to index (contained side).
        algorithm: ``"auto"`` (paper's regime rule on ``S``), or one of
            :func:`available_algorithms` / their aliases.
        probe_hint: Optional sample of the future probe workload; signature
            algorithms use its cardinalities when sizing signatures, exactly
            as the one-shot ``join(r, s)`` would.
        **kwargs: Forwarded to the algorithm constructor.

    Returns:
        A :class:`~repro.core.base.PreparedIndex` over ``s``.

    Raises:
        AlgorithmError: For an unknown algorithm name.

    Example:
        >>> from repro.relations import Relation
        >>> s = Relation.from_sets([{2}, {1, 3}, {4, 5}])
        >>> index = prepare_index(s, algorithm="ptsj")
        >>> r = Relation.from_sets([{1, 2, 3}, {2, 4}])
        >>> sorted(index.probe_many(r).pairs)
        [(0, 0), (0, 1), (1, 0)]
    """
    query_plan = plan(
        probe_hint, s, algorithm=algorithm, workload=Workload(mode="probe_many"), **kwargs
    )
    return prepare_from_plan(query_plan, s, probe_hint=probe_hint)
