"""Cost-based query planner: one plan → execute path for every join.

The planner separates *deciding* how a set-containment join should run
from *running* it:

* :class:`Planner` consumes :class:`~repro.relations.stats.RelationStats`
  plus a :class:`Workload` hint and emits an immutable, serializable
  :class:`Plan` — chosen algorithm, signature length, executor and
  chunking, each decision carrying cost estimates and the rejected
  alternatives, so :meth:`Plan.explain` renders an EXPLAIN-style tree;
* :func:`execute_plan` / :func:`prepare_from_plan` turn a plan into work.

The registry's :func:`~repro.core.registry.set_containment_join` and
:func:`~repro.core.registry.prepare_index` are implemented on top of this
package; see ``docs/PLANNER.md`` for the decision table and cost model.
"""

from repro.planner.executor import execute_plan, policy_from_workload, prepare_from_plan
from repro.planner.plan import (
    EXECUTORS,
    WORKLOAD_MODES,
    Alternative,
    CostEstimate,
    Decision,
    Plan,
    Workload,
)
from repro.planner.planner import AUTO_CANDIDATES, Planner
from repro.planner.profiles import (
    COST_PROFILES,
    CostProfile,
    cost_profile,
    estimate_cost,
)

__all__ = [
    "Planner",
    "Plan",
    "Workload",
    "Decision",
    "Alternative",
    "CostEstimate",
    "CostProfile",
    "COST_PROFILES",
    "AUTO_CANDIDATES",
    "EXECUTORS",
    "WORKLOAD_MODES",
    "cost_profile",
    "estimate_cost",
    "execute_plan",
    "policy_from_workload",
    "prepare_from_plan",
]
