"""Pool break-even gate: a ``workers > 1`` join runs near the faster arm.

The planner charges the worker pool per child and per expected result
pair home, and keeps the join inline unless the charged estimate beats
inline's (docs/PLANNER.md).  This gate times one row on each side of the
break-even from ``benchmarks/pool_grid.json`` three ways: as planned for
``Workload(workers=2)``, inline, and on the two-worker pool.  The planned
join must take at most :data:`MAX_RATIO` times the faster of the other
two.  The bound is loose on purpose: it catches a rule that sends small
joins to the pool or large ones inline, not machine noise.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import pytest

from benchmarks.figrecorder import record
from repro import Relation, Workload, set_containment_join
from repro.core.registry import make_algorithm
from repro.datagen.realworld import make_surrogate
from repro.exec import ParallelJoin

FIGURE = "pool break-even: planned vs faster of inline and pool (workers=2)"

#: Maximum tolerated slowdown of the planned join against the faster arm.
MAX_RATIO = 1.25

#: Interleaved repeats per arm; the median is compared.
REPEATS = 5

#: ``(dataset, |R| = |S|, executor the planner picks)``: the pool loses
#: on the first row (1.6x slower in the grid) and wins on the second (0.8x).
ROWS = (
    ("twitter", 500, "inline"),
    ("webbase", 1000, "parallel"),
)


def _fresh(relation):
    return Relation(tuple(relation), name=relation.name)


@pytest.mark.parametrize("dataset,size,executor", ROWS, ids=[f"{d}-{n}" for d, n, _ in ROWS])
def test_planned_join_near_the_faster_arm(dataset, size, executor):
    r = make_surrogate(dataset, size, seed=64)
    s = make_surrogate(dataset, size, seed=65)
    workload = Workload(workers=2)
    planned = set_containment_join(_fresh(r), _fresh(s), workload=workload)
    algorithm = planned.stats.algorithm.removeprefix("parallel-")
    ran_on = "parallel" if planned.stats.algorithm.startswith("parallel-") else "inline"
    assert ran_on == executor, f"{dataset} {size} planned {ran_on}, expected {executor}"

    arms = {
        "planned": lambda: set_containment_join(_fresh(r), _fresh(s), workload=workload),
        "inline": lambda: make_algorithm(algorithm).join(_fresh(r), _fresh(s)),
        "pool": lambda: ParallelJoin(algorithm=algorithm, workers=2).join(_fresh(r), _fresh(s)),
    }
    times: dict[str, list[float]] = {name: [] for name in arms}
    for _ in range(REPEATS):
        for name, call in arms.items():
            gc.collect()
            t0 = perf_counter()
            result = call()
            times[name].append(perf_counter() - t0)
            assert sorted(result.pairs) == sorted(planned.pairs)
    median = {name: statistics.median(values) for name, values in times.items()}
    best = min(median["inline"], median["pool"])
    ratio = median["planned"] / best
    record(FIGURE, f"{dataset} {size}", "planned/best", ratio, unit="plain")
    assert ratio <= MAX_RATIO, (
        f"{dataset} {size}: planned {ran_on} took {median['planned'] * 1e3:.1f} ms, "
        f"{ratio:.2f}x the faster arm (inline {median['inline'] * 1e3:.1f} ms, "
        f"pool {median['pool'] * 1e3:.1f} ms)"
    )
