"""repro — trie-based set-containment joins (Luo et al., ICDE 2015).

A complete, from-scratch reproduction of *"Efficient and scalable
trie-based algorithms for computing set containment relations"*:

* **PTSJ** — Patricia Trie-based Signature Join (:class:`repro.PTSJ`);
* **PRETTI+** — Patricia-trie PRETTI (:class:`repro.PRETTIPlus`);
* baselines **SHJ**, **PRETTI**, **TSJ** and a nested-loop oracle;
* extensions: superset, set-equality and Hamming set-similarity joins on
  the same Patricia index, plus a disk-based partitioned join;
* a synthetic/surrogate data generator and the full benchmark harness for
  every table and figure of the paper's evaluation.

Quickstart::

    from repro import Relation, set_containment_join

    profiles = Relation.from_sets([{1, 3, 5, 6}, {0, 2, 7}, {0, 2, 3}])
    prefs = Relation.from_sets([{1, 3}, {1, 5, 6}, {0, 2, 7}])
    result = set_containment_join(profiles, prefs)   # picks PTSJ or PRETTI+
    print(sorted(result.pairs))                      # [(0, 0), (0, 1), (1, 2)]

Probing the same indexed relation repeatedly?  Build once, probe many::

    from repro import prepare_index

    index = prepare_index(prefs)          # one build
    result = index.probe_many(profiles)   # reuses it; index.probe(rec) streams

Wondering *why* a join ran the way it did?  Every join is planned first;
the plan is explainable and serializable::

    from repro import plan

    query_plan = plan(profiles, prefs)
    print(query_plan.explain())           # EXPLAIN-style decision tree
"""

from repro.baselines import SHJ, TSJ, NestedLoopJoin, PRETTI
from repro.core import (
    ALGORITHMS,
    ValidationReport,
    verify_join_result,
    PTSJ,
    JoinResult,
    JoinStats,
    PairColumns,
    PreparedIndex,
    PRETTIPlus,
    SetContainmentJoin,
    available_algorithms,
    make_algorithm,
    prepare_index,
    set_containment_join,
)
from repro.errors import (
    AlgorithmError,
    DataGenError,
    ExternalMemoryError,
    InjectedFaultError,
    JoinTimeoutError,
    RelationError,
    ReproError,
    RetryExhaustedError,
    SanitizerError,
    SignatureError,
    TrieError,
    WorkerError,
)
from repro.core.registry import cost_profile, execute_plan, plan
from repro.errors import PlanError
from repro.obs import MetricsRegistry, NullTracer, Tracer, current_tracer, use
from repro.planner import Plan, Planner, Workload
from repro.relations import Relation, RelationStats, SetRecord, Universe, compute_stats

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data model
    "Relation",
    "SetRecord",
    "Universe",
    "RelationStats",
    "compute_stats",
    # algorithms
    "PTSJ",
    "PRETTIPlus",
    "SHJ",
    "PRETTI",
    "TSJ",
    "NestedLoopJoin",
    "SetContainmentJoin",
    "JoinResult",
    "JoinStats",
    "PairColumns",
    "PreparedIndex",
    # registry
    "ALGORITHMS",
    "available_algorithms",
    "make_algorithm",
    "prepare_index",
    "set_containment_join",
    "ValidationReport",
    "verify_join_result",
    # planner
    "Planner",
    "Plan",
    "Workload",
    "plan",
    "execute_plan",
    "cost_profile",
    # observability
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "current_tracer",
    "use",
    # errors
    "ReproError",
    "RelationError",
    "SignatureError",
    "TrieError",
    "DataGenError",
    "ExternalMemoryError",
    "AlgorithmError",
    "WorkerError",
    "JoinTimeoutError",
    "RetryExhaustedError",
    "InjectedFaultError",
    "PlanError",
    "SanitizerError",
]
