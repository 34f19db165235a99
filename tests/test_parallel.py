"""Fail-fast contract of :class:`repro.exec.parallel.ParallelJoin`.

The executor probes slot 0's chunks in the parent and starts one child
process per further slot; each child sends its pairs home down a pipe.
These tests pin what that design promises:

* a child that dies without replying raises
  :class:`~repro.errors.WorkerError` naming its exit code, and an
  exception a child raises is re-raised in the parent as is;
* no child outlives a join, on success or on failure, and the parent
  starts no threads;
* a reply far larger than a pipe buffer arrives intact;
* pairs, pair order and every :class:`~repro.core.base.JoinStats`
  counter equal the chunk-by-chunk reference
  ``[index.probe_many(c) for c in chunks]`` for every worker and chunk
  count.
* the S index is prepared once, however many chunks and workers, and
  bad ``workers``/``chunks`` values are refused up front.

Faults are injected by wrapping the prepared index with the
:mod:`repro.testing.faults` proxies, which travel into the children
under ``fork`` and ``spawn`` alike.  Set ``REPRO_START_METHOD=fork|spawn``
to pin the start method (CI runs this file once per method).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading

import pytest

from repro.core.base import JoinStats
from repro.core.registry import available_algorithms
from repro.datagen.realworld import make_surrogate
from repro.errors import AlgorithmError, InjectedFaultError, WorkerError
from repro.exec.merge import merge_stats
from repro.exec.parallel import ParallelJoin, parallel_join
from repro.relations.relation import Relation, SetRecord
from repro.testing.faults import CrashingIndex, DyingIndex, FaultTrigger
from tests.conftest import oracle_pairs, random_relation

#: Optional start-method override so CI can run both fork and spawn.
START_METHOD = os.environ.get("REPRO_START_METHOD") or None

#: The smallest Linux pipe buffer a reply has to get past.
PIPE_BUFFER_BYTES = 64 * 1024


class ChildCrashingIndex(CrashingIndex):
    """A :class:`CrashingIndex` that spares the parent, like ``DyingIndex``.

    The parent probes slot 0 itself, so an unguarded crash could fire
    there first and never exercise the child's error reply.
    """

    def __init__(self, inner, trigger):
        super().__init__(inner, trigger)
        self.parent_pid = os.getpid()

    def _interfere(self, r):
        if os.getpid() != self.parent_pid:
            super()._interfere(r)


@pytest.fixture
def rs_pair():
    r = random_relation(60, 9, 40, seed=811)
    s = random_relation(60, 6, 40, seed=812)
    return r, s


@pytest.fixture
def wrap_index(monkeypatch):
    """Wrap every index ``ParallelJoin.prepare`` returns with ``wrapper``."""

    def install(wrapper):
        prepare = ParallelJoin.prepare

        def wrapped(self, s, probe_hint=None):
            return wrapper(prepare(self, s, probe_hint=probe_hint))

        monkeypatch.setattr(ParallelJoin, "prepare", wrapped)

    return install


def assert_reaped() -> None:
    """Every child was joined before ``join`` returned or raised."""
    assert multiprocessing.active_children() == []


def reference(executor: ParallelJoin, r: Relation, s: Relation):
    """The chunk-by-chunk reference: one index, ``probe_many`` per chunk."""
    stats = JoinStats(algorithm=f"parallel-{executor.algorithm}")
    chunks = executor._partition(r, stats)
    index = executor.prepare(s, probe_hint=r)
    stats.signature_bits = index.signature_bits
    stats.index_nodes = index.index_nodes
    stats.extras["index_builds"] = 1
    pairs: list[tuple[int, int]] = []
    for chunk in chunks:
        result = index.probe_many(chunk)
        pairs.extend(result.pairs)
        merge_stats(stats, result.stats)
    return pairs, stats


def assert_matches_reference(executor: ParallelJoin, r: Relation, s: Relation):
    result = executor.join(r, s)
    pairs, stats = reference(executor, r, s)
    assert result.pairs == pairs  # same pairs, same order
    got = result.stats
    assert got.pairs == len(pairs)
    for field in ("candidates", "verifications", "node_visits", "intersections",
                  "index_nodes", "signature_bits"):
        assert getattr(got, field) == getattr(stats, field), field
    for key in ("workers", "chunks", "index_builds"):
        assert got.extras[key] == stats.extras[key], key
    assert_reaped()
    return result


# ----------------------------------------------------------------------
# Failures
# ----------------------------------------------------------------------
def test_child_exiting_hard_raises_worker_error_with_exit_code(rs_pair, wrap_index, tmp_path):
    r, s = rs_pair
    wrap_index(lambda index: DyingIndex(index, FaultTrigger(tmp_path, "die"), exit_code=3))
    executor = ParallelJoin(algorithm="ptsj", workers=2, chunks=2, start_method=START_METHOD)
    with pytest.raises(WorkerError, match="exited with code 3") as info:
        executor.join(r, s)
    assert type(info.value) is WorkerError
    assert_reaped()


def test_child_exception_is_reraised_in_parent(rs_pair, wrap_index, tmp_path):
    r, s = rs_pair
    wrap_index(lambda index: ChildCrashingIndex(index, FaultTrigger(tmp_path, "crash")))
    executor = ParallelJoin(algorithm="ptsj", workers=2, chunks=2, start_method=START_METHOD)
    with pytest.raises(InjectedFaultError, match="injected crash") as info:
        executor.join(r, s)
    # Raised by a child, not by the parent's own probe.
    assert f"(pid {os.getpid()})" not in str(info.value)
    assert_reaped()


def test_failing_child_does_not_strand_its_siblings(rs_pair, wrap_index, tmp_path):
    # Three children; one dies.  The others are terminated or joined in
    # the finally block, whichever state they are in.
    r, s = rs_pair
    wrap_index(lambda index: DyingIndex(index, FaultTrigger(tmp_path, "die"), exit_code=5))
    executor = ParallelJoin(algorithm="ptsj", workers=4, chunks=8, start_method=START_METHOD)
    with pytest.raises(WorkerError, match="exited with code 5"):
        executor.join(r, s)
    assert_reaped()


def test_parent_starts_no_threads(rs_pair, monkeypatch):
    r, s = rs_pair

    def refuse(self):
        raise AssertionError(f"ParallelJoin started thread {self.name!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    executor = ParallelJoin(algorithm="ptsj", workers=3, chunks=3, start_method=START_METHOD)
    assert set(executor.join(r, s).pairs) == oracle_pairs(r, s)
    assert_reaped()


# ----------------------------------------------------------------------
# Large replies
# ----------------------------------------------------------------------
def test_reply_larger_than_pipe_buffer_completes():
    r = make_surrogate("flickr", 3000, seed=11)
    s = make_surrogate("flickr", 3000, seed=12)
    executor = ParallelJoin(algorithm="pretti+", workers=2, start_method=START_METHOD)
    result = assert_matches_reference(executor, r, s)
    # The child's half of the pairs really is bigger than a pipe buffer.
    child_pairs = result.pairs[len(result.pairs) // 2:]
    assert len(pickle.dumps(child_pairs)) > 2 * PIPE_BUFFER_BYTES


def test_ids_beyond_int64_travel_home():
    big = 2**70
    r = Relation([SetRecord(big + i, frozenset({1, 2, 3})) for i in range(4)])
    s = Relation([SetRecord(-big, frozenset({1})), SetRecord(7, frozenset({2, 3}))])
    executor = ParallelJoin(algorithm="ptsj", workers=2, chunks=2, start_method=START_METHOD)
    result = assert_matches_reference(executor, r, s)
    assert set(result.pairs) == oracle_pairs(r, s)


@pytest.mark.parametrize("algorithm", available_algorithms())
def test_every_algorithm_brings_ids_beyond_int64_home(algorithm):
    """Each child's list columns (ids beyond int64) concatenate with the
    parent's, in chunk order, for every algorithm's probe."""
    big = 2**70
    base_r = random_relation(40, 8, 30, seed=61)
    base_s = random_relation(40, 4, 30, seed=62)
    r = Relation([SetRecord(big + rec.rid, rec.elements) for rec in base_r])
    s = Relation([SetRecord(rec.rid - big, rec.elements) for rec in base_s])
    executor = ParallelJoin(algorithm=algorithm, workers=2, chunks=3, start_method=START_METHOD)
    result = assert_matches_reference(executor, r, s)
    assert type(result.pairs.r_ids) is list
    assert set(result.pairs) == oracle_pairs(r, s)
    assert result.pairs


# ----------------------------------------------------------------------
# Configuration, build-once and chunking
# ----------------------------------------------------------------------
class TestParallelJoin:
    def test_invalid_configuration(self):
        with pytest.raises(AlgorithmError):
            ParallelJoin(workers=0)
        with pytest.raises(AlgorithmError):
            ParallelJoin(chunks=0)

    def test_single_worker_matches_oracle(self, small_pair):
        r, s = small_pair
        result = ParallelJoin(workers=1, chunks=3).join(r, s)
        assert result.pair_set() == oracle_pairs(r, s)
        assert result.stats.extras["chunks"] == 3

    def test_multi_worker_matches_oracle(self):
        r = random_relation(80, 6, 40, seed=605)
        s = random_relation(80, 4, 40, seed=606)
        result = parallel_join(r, s, workers=2)
        assert result.pair_set() == oracle_pairs(r, s)

    def test_any_inner_algorithm(self, small_pair):
        r, s = small_pair
        result = ParallelJoin(algorithm="pretti+", workers=1, chunks=4).join(r, s)
        assert result.pair_set() == oracle_pairs(r, s)
        assert result.stats.algorithm == "parallel-pretti+"

    def test_empty_probe_relation(self):
        s = Relation.from_sets([{1}])
        result = ParallelJoin(workers=1).join(Relation([]), s)
        assert len(result) == 0


class TestParallelBuildOnce:
    """The S-index is prepared exactly once, however many chunks/workers."""

    def test_index_prepared_once_across_chunks(self, small_pair, monkeypatch):
        from repro.core.ptsj import PTSJ

        calls = {"n": 0}
        original = PTSJ._prepare

        def counting(self, s, probe_hint=None):
            calls["n"] += 1
            return original(self, s, probe_hint)

        monkeypatch.setattr(PTSJ, "_prepare", counting)
        r, s = small_pair
        result = ParallelJoin(algorithm="ptsj", workers=1, chunks=4).join(r, s)
        assert calls["n"] == 1
        assert result.stats.extras["index_builds"] == 1
        assert result.pair_set() == oracle_pairs(r, s)

    def test_multi_worker_reports_single_build(self):
        r = random_relation(40, 6, 40, seed=607)
        s = random_relation(40, 4, 40, seed=608)
        result = ParallelJoin(algorithm="ptsj", workers=2, start_method=START_METHOD).join(r, s)
        assert result.stats.extras["index_builds"] == 1
        assert result.pair_set() == oracle_pairs(r, s)

    def test_build_time_not_multiplied_by_chunks(self, small_pair):
        """Aggregated build time equals the one prepare, not a per-chunk sum."""
        r, s = small_pair
        join = ParallelJoin(algorithm="ptsj", workers=1, chunks=4)
        index = join.prepare(s, probe_hint=r)
        assert index.build_seconds > 0.0
        result = join.join(r, s)
        # probe_many never reports build time, so the only build in the
        # aggregate is the parent's single prepare.
        assert result.stats.build_seconds > 0.0
        assert result.stats.extras["chunks"] == 4

    def test_prepare_returns_shareable_index(self, small_pair):
        r, s = small_pair
        index = ParallelJoin(algorithm="pretti+", workers=1).prepare(s)
        assert index.probe_many(r).pair_set() == oracle_pairs(r, s)


class TestParallelChunking:
    def test_more_chunks_than_tuples(self):
        r = Relation.from_sets([{1}, {2}])
        s = Relation.from_sets([{1}])
        result = ParallelJoin(workers=1, chunks=10).join(r, s)
        assert result.pair_set() == {(0, 0)}

    def test_stats_aggregated_across_chunks(self, small_pair):
        r, s = small_pair
        solo = ParallelJoin(workers=1, chunks=1).join(r, s)
        quad = ParallelJoin(workers=1, chunks=4).join(r, s)
        assert quad.stats.extras["chunks"] == 4
        # Chunked probes verify at most as many candidates in total per
        # chunk boundary effects, but output identically.
        assert quad.pair_set() == solo.pair_set()


# ----------------------------------------------------------------------
# Parity with the chunk-by-chunk reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunks", [1, 2, 3, 5])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_parity_with_chunk_reference(workers, chunks, rs_pair):
    r, s = rs_pair
    executor = ParallelJoin(algorithm="ptsj", workers=workers, chunks=chunks,
                            start_method=START_METHOD)
    assert_matches_reference(executor, r, s)


@pytest.mark.parametrize("algorithm", ["ptsj", "pretti+"])
def test_parity_with_empty_probe_relation(algorithm, rs_pair):
    _, s = rs_pair
    executor = ParallelJoin(algorithm=algorithm, workers=2, start_method=START_METHOD)
    result = assert_matches_reference(executor, Relation([]), s)
    assert result.pairs == []
    assert result.stats.extras["chunks"] == 1


def test_parity_with_fewer_chunks_than_workers(rs_pair):
    r, s = rs_pair
    tiny = Relation(list(r)[:2])
    executor = ParallelJoin(algorithm="ptsj", workers=3, chunks=5, start_method=START_METHOD)
    result = assert_matches_reference(executor, tiny, s)
    assert result.stats.extras["chunks"] == 2
    assert result.stats.extras["workers"] == 3
