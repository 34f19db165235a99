"""Sharded-executor scaling smoke: shard counts and regret.

Two questions, one file:

* **Does sharding scale sanely?**  The same join is timed at increasing
  shard counts (workers fixed), recording a figure of seconds per shard
  count.  Pure-Python process pools carry real constant costs, so no
  speedup is asserted — only correctness at every point and that the
  figure lands in the report.
* **Does the planner-regret gate cover sharded plans?**  A workload that
  forces a sharded plan is run through the same ``run_planned`` /
  ``planner_regret`` machinery as the regime smoke in
  ``test_planner_regret.py``: the sharded plan's wall time (median of 3)
  must stay within ``MAX_REGRET`` (3x) of the best directly-run
  algorithm on the same data.  That bounds the total overhead the
  executor layer (pool spin-up, payload pickling, routing) is allowed to
  add at bench scale — the dataset is sized so real join work dominates
  those constants, otherwise the gate would measure fork latency.

CI runs this file inside the ``planner-regret`` job.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from benchmarks.figrecorder import record
from repro.bench.harness import dataset_pair, planner_regret, run_algorithm, run_planned
from repro.core.registry import make_algorithm
from repro.datagen.synthetic import SyntheticConfig
from repro.exec.sharded import ShardedJoin
from repro.planner import AUTO_CANDIDATES, Workload

FIGURE = "sharded executor: wall time vs shard count"

#: Big enough that real join work (~0.3 s inline) dominates pool spin-up.
CONFIG = SyntheticConfig(size=6144, avg_cardinality=24, domain=2 ** 9, seed=500)

SHARD_COUNTS = (1, 2, 4)

#: Maximum tolerated slowdown of the sharded plan vs the measured best
#: in-process algorithm (same bound as the regime-regret smoke).
MAX_REGRET = 3.0


@pytest.fixture(scope="module")
def rs_pair():
    return dataset_pair(CONFIG)


@pytest.fixture(scope="module")
def expected_pairs(rs_pair):
    r, s = rs_pair
    return sorted(make_algorithm("pretti+").join(r, s).pairs)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_shard_count_scaling(rs_pair, expected_pairs, shards):
    r, s = rs_pair
    join = ShardedJoin(algorithm="pretti+", workers=2, shards=shards)
    start = perf_counter()
    result = join.join(r, s)
    elapsed = perf_counter() - start
    assert sorted(result.pairs) == expected_pairs
    assert result.stats.extras["fallback_shards"] == 0
    record(FIGURE, f"{shards} shard(s)", "sharded/element", elapsed, unit="seconds")


def test_sharded_plan_regret_within_bound(rs_pair):
    r, s = rs_pair
    workload = Workload(workers=2, shards=2)
    planned = run_planned(r, s, workload=workload, repeats=3)
    assert planned.plan is not None and planned.plan.executor == "sharded"

    alternatives = [
        run_algorithm(name, r, s, repeats=3) for name in AUTO_CANDIDATES
    ]
    for alt in alternatives:
        assert alt.pairs == planned.pairs, (
            f"sharded plan disagrees with {alt.algorithm} on output size"
        )

    regret = planner_regret(planned, alternatives)
    record("planner regret: sharded plan vs best measured algorithm",
           "2 shards / 2 workers", "regret", regret, unit="plain")
    assert regret <= MAX_REGRET, (
        f"sharded plan ran {regret:.2f}x slower than the best in-process "
        f"algorithm ({planned.seconds:.4f}s planned)"
    )
