"""Ablation: Sec. VI multi-core execution against PTSJ.

The paper's conclusion proposes multi-way tries, trie-trie joins and
multi-core execution as follow-ups.  Only the last is kept: sketches of
the first two lost to PTSJ and PRETTI+ on every shape measured and were
removed (EXPERIMENTS.md, Sec. VI row).  This benchmark puts chunked
parallel PTSJ (1 worker, k chunks) next to PTSJ on one mid-range
workload as an overhead-only ceiling check: the chunked run must stay
close to the monolithic one, since speed-up on real cores is outside a
single-process benchmark's reach.

Both runs must produce the same output.
"""

from __future__ import annotations

from benchmarks.figrecorder import RESULTS, run_and_record
from repro.bench.harness import dataset_pair
from repro.core.registry import make_algorithm
from repro.datagen.synthetic import SyntheticConfig
from repro.exec.parallel import ParallelJoin

FIGURE = "ablation: future-work variants (Sec. VI) vs PTSJ"

CONFIG = SyntheticConfig(size=1024, avg_cardinality=32, domain=2 ** 9, seed=170,
                         name="|R|=2^10 c=2^5")
OUTPUTS: dict[str, frozenset] = {}


def test_ablation_future_ptsj(benchmark):
    r, s = dataset_pair(CONFIG)

    def run():
        result = make_algorithm("ptsj").join(r, s)
        OUTPUTS["ptsj"] = result.pair_set()
        return result

    run_and_record(benchmark, FIGURE, CONFIG.name, "ptsj", run)


def test_ablation_future_parallel(benchmark):
    r, s = dataset_pair(CONFIG)

    def run():
        result = ParallelJoin(algorithm="ptsj", workers=1, chunks=4).join(r, s)
        OUTPUTS["parallel-ptsj"] = result.pair_set()
        return result

    run_and_record(benchmark, FIGURE, CONFIG.name, "parallel-ptsj (1 worker, 4 chunks)", run)


def test_ablation_future_shape(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    reference = OUTPUTS["ptsj"]
    for name, pairs in OUTPUTS.items():
        assert pairs == reference, name
    point = RESULTS[FIGURE][CONFIG.name]
    # Chunked execution costs at most ~2x the monolithic run (the S index
    # is prepared once and shared; real speed-up needs real cores).
    assert point["parallel-ptsj (1 worker, 4 chunks)"] < 3.0 * point["ptsj"]
