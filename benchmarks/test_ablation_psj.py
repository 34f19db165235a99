"""Ablation: partitioning strategies for out-of-core execution.

Compares, on one workload, the three executions the repository offers for
data that exceeds memory:

* the monolithic in-memory PTSJ (baseline);
* the paper's Sec. III-E4 quadratic nested loop over disk partitions;
* the PSJ/APSJ-family pick partitioning ([11], [12]) where every
  S-partition is joined exactly once against a replicated R-partition —
  the sharded executor's element placement, run in-process
  (``ShardedJoin(workers=1, shards=8)``).

Expected shape: pick partitioning loads each partition pair once, so it
beats the quadratic nested loop as the partition count grows, at the cost
of R replication (``routed_probes / |R|`` in the stats); both return
exactly the baseline's output.
"""

from __future__ import annotations

import pytest

from benchmarks.figrecorder import RESULTS, run_and_record
from repro.core.registry import make_algorithm
from repro.datagen.synthetic import SyntheticConfig, generate_pair
from repro.exec.disk import DiskPartitionedJoin
from repro.exec.sharded import ShardedJoin

FIGURE = "ablation: out-of-core strategies (in-memory vs Sec. III-E4 nested loop vs PSJ pick partitioning)"

CONFIG = SyntheticConfig(size=2048, avg_cardinality=16, domain=2 ** 11, seed=180)
R, S = generate_pair(CONFIG)
PARTITIONS = 8
RUNS: dict[str, object] = {}


def test_psj_in_memory_baseline(benchmark):
    def run():
        result = make_algorithm("ptsj").join(R, S)
        RUNS["in-memory ptsj"] = result
        return result

    run_and_record(benchmark, FIGURE, "strategy", "in-memory ptsj", run)


def test_psj_nested_loop(benchmark):
    def run():
        result = DiskPartitionedJoin(
            algorithm="ptsj", max_tuples=len(S) // PARTITIONS
        ).join(R, S)
        RUNS["nested-loop 8x8"] = result
        return result

    run_and_record(benchmark, FIGURE, "strategy", "nested-loop 8x8", run)


@pytest.mark.parametrize("inner", ["shj", "ptsj"])
def test_psj_pick_partitioning(benchmark, inner):
    label = f"psj-{inner} (8 parts)"

    def run():
        result = ShardedJoin(algorithm=inner, workers=1, shards=PARTITIONS).join(R, S)
        RUNS[label] = result
        return result

    run_and_record(benchmark, FIGURE, "strategy", label, run)


def test_psj_shape(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    baseline = RUNS["in-memory ptsj"]
    for label, result in RUNS.items():
        assert result.pair_set() == baseline.pair_set(), label
    point = RESULTS[FIGURE]["strategy"]
    # One pass per S-partition beats the quadratic partition-pair loop.
    assert point["psj-ptsj (8 parts)"] < point["nested-loop 8x8"]
    # Replication factor is bounded by the partition count and > 1.
    factor = RUNS["psj-ptsj (8 parts)"].stats.extras["routed_probes"] / len(R)
    assert 1.0 < factor <= PARTITIONS
