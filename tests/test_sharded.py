"""Differential and fault-injection tests for :class:`repro.exec.sharded.ShardedJoin`.

The sharded executor's whole claim is *bit-for-bit* agreement with the
inline oracle: for every shard count, both partition strategies, and any
worker count or start method, the sorted pair list must equal the
sequential join's, and the merged counters must be reproducible.  The
tests here check that claim differentially (against
:func:`tests.conftest.oracle_pairs` and the inline executor), then drive
the resilience ladder — retry, pool restart after hard worker death,
exhaustion fallback, corrupt-shard rejection — with deterministic faults
from :mod:`repro.testing.faults`, asserting both correctness of the
recovered output *and* the degradation counters that make the recovery
observable.

Set ``REPRO_START_METHOD=fork|spawn`` to pin the pool start method (CI
runs this module once per method); one test also compares fork against
spawn directly, since shard placement and routing are pure functions of
record elements and must not depend on how workers are born.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core.base import JoinStats
from repro.errors import AlgorithmError, RetryExhaustedError, WorkerError
from repro.exec.inline import InlineJoin
from repro.exec.resilient import RetryPolicy
from repro.exec.sharded import (
    SHARD_EXTRAS,
    ShardedJoin,
    route_probe,
    shard_of,
    sharded_join,
    stable_signature_hash,
)
from repro.relations.relation import Relation, SetRecord
from repro.testing.faults import (
    CorruptingIndex,
    CrashingIndex,
    DyingIndex,
    FaultTrigger,
    IndexFault,
)
from tests.conftest import oracle_pairs, random_relation

#: A pool manager thread that dies (e.g. on a future cancelled under it)
#: fails the drill instead of passing with a warning.
pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")

#: Optional start-method override so CI can drill both fork and spawn.
START_METHOD = os.environ.get("REPRO_START_METHOD") or None

SHARD_COUNTS = (1, 2, 7)
STRATEGIES = ("element", "signature")

#: Counters that must merge identically however the shards ran.
COUNTER_FIELDS = ("candidates", "verifications", "node_visits", "intersections")


def make_join(**kwargs) -> ShardedJoin:
    kwargs.setdefault("algorithm", "ptsj")
    kwargs.setdefault("start_method", START_METHOD)
    return ShardedJoin(**kwargs)


@pytest.fixture(scope="module")
def rs_pair():
    # min_cardinality=0 keeps empty sets in play on both sides — the
    # element strategy's trickiest routing case.
    r = random_relation(50, 6, 35, seed=701)
    s = random_relation(50, 4, 35, seed=702)
    return r, s


@pytest.fixture(scope="module")
def expected(rs_pair):
    r, s = rs_pair
    return oracle_pairs(r, s)


@pytest.fixture(scope="module")
def inline_stats(rs_pair) -> JoinStats:
    r, s = rs_pair
    return InlineJoin(algorithm="ptsj").join(r, s).stats


# ----------------------------------------------------------------------
# Placement and routing (pure functions)
# ----------------------------------------------------------------------
class TestRouting:
    def test_signature_hash_is_order_independent_and_stable(self):
        a = stable_signature_hash(frozenset({3, 1, 4, 15}))
        b = stable_signature_hash(frozenset({15, 4, 1, 3}))
        assert a == b
        # Pinned value: placement must never drift between versions or
        # interpreters, or persisted shard layouts would silently break.
        assert stable_signature_hash(frozenset()) == 0
        assert stable_signature_hash(frozenset({0})) == 1000004

    def test_single_shard_takes_everything(self):
        rec = SetRecord(0, frozenset({9, 11}))
        assert shard_of(rec, 1, "element") == 0
        assert shard_of(rec, 1, "signature") == 0
        assert route_probe(rec, 1, "element", False) == [0]

    def test_empty_set_lives_in_shard_zero(self):
        empty = SetRecord(0, frozenset())
        for strategy in STRATEGIES:
            assert shard_of(empty, 5, strategy) in (range(5) if strategy == "signature" else (0,))
        assert shard_of(empty, 5, "element") == 0

    def test_element_probe_routes_to_residues(self):
        rec = SetRecord(0, frozenset({2, 5, 7}))
        assert route_probe(rec, 5, "element", s_has_empty=False) == [0, 2]
        # An empty set in S subsets every probe, so shard 0 joins in.
        assert route_probe(rec, 5, "element", s_has_empty=True) == [0, 2]
        assert route_probe(SetRecord(1, frozenset({1})), 5, "element", True) == [0, 1]

    def test_signature_probe_broadcasts(self):
        rec = SetRecord(0, frozenset({2}))
        assert route_probe(rec, 4, "signature", False) == [0, 1, 2, 3]

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_routing_is_complete(self, rs_pair, shards, strategy):
        # The correctness invariant behind the executor: every S-record a
        # probe could match lives in a shard that probe visits.
        r, s = rs_pair
        s_has_empty = any(not rec.elements for rec in s)
        for rr in r:
            visited = set(route_probe(rr, shards, strategy, s_has_empty))
            for ss in s:
                if ss.elements <= rr.elements:
                    assert shard_of(ss, shards, strategy) in visited

    def test_partition_is_disjoint_and_total(self, rs_pair):
        _, s = rs_pair
        for strategy in STRATEGIES:
            placed = [shard_of(rec, 7, strategy) for rec in s]
            assert all(0 <= p < 7 for p in placed)
            assert len(placed) == len(s)


# ----------------------------------------------------------------------
# Differential: sharded vs the inline oracle
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("workers", (1, 2))
    def test_pairs_match_oracle_bit_for_bit(
        self, rs_pair, expected, shards, strategy, workers
    ):
        r, s = rs_pair
        result = make_join(workers=workers, shards=shards, strategy=strategy).join(r, s)
        assert sorted(result.pairs) == sorted(expected)
        assert result.stats.pairs == len(result.pairs)
        assert result.stats.extras["shards"] == shards
        for key in SHARD_EXTRAS:
            assert result.stats.extras[key] == 0, key

    def test_single_shard_counters_equal_inline(self, rs_pair, inline_stats):
        # With one shard the whole of S is indexed once and probed in R
        # order, so the work counters must be *identical* to the inline
        # executor's, not merely close.
        r, s = rs_pair
        stats = make_join(workers=2, shards=1).join(r, s).stats
        for field in COUNTER_FIELDS + ("index_nodes", "signature_bits"):
            assert getattr(stats, field) == getattr(inline_stats, field), field

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_merged_counters_are_run_to_run_deterministic(self, rs_pair, strategy):
        r, s = rs_pair
        runs = [
            make_join(workers=2, shards=3, strategy=strategy).join(r, s) for _ in range(2)
        ]
        assert runs[0].pairs == runs[1].pairs  # same order, not just same set
        for field in COUNTER_FIELDS:
            assert getattr(runs[0].stats, field) == getattr(runs[1].stats, field)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_fork_and_spawn_agree(self, rs_pair, expected, shards):
        available = multiprocessing.get_all_start_methods()
        if not {"fork", "spawn"} <= set(available):
            pytest.skip("platform lacks fork or spawn")
        r, s = rs_pair
        outcomes = {}
        for method in ("fork", "spawn"):
            result = ShardedJoin(
                algorithm="ptsj", workers=2, shards=shards, start_method=method
            ).join(r, s)
            outcomes[method] = (
                result.pairs,
                {f: getattr(result.stats, f) for f in COUNTER_FIELDS},
            )
        assert outcomes["fork"] == outcomes["spawn"]
        assert sorted(outcomes["fork"][0]) == sorted(expected)

    def test_empty_sets_in_s_join_every_probe(self):
        r = Relation.from_sets([{1, 2}, {4}], name="R")
        s = Relation.from_sets([set(), {2}], name="S")
        for strategy in STRATEGIES:
            result = make_join(workers=1, shards=3, strategy=strategy).join(r, s)
            assert sorted(result.pairs) == sorted(oracle_pairs(r, s))

    def test_more_shards_than_workers_or_records(self, rs_pair, expected):
        r, s = rs_pair
        result = make_join(workers=2, shards=23).join(r, s)
        assert sorted(result.pairs) == sorted(expected)

    def test_algorithm_choice_is_orthogonal(self, rs_pair, expected):
        r, s = rs_pair
        result = make_join(algorithm="pretti+", workers=2, shards=3).join(r, s)
        assert sorted(result.pairs) == sorted(expected)
        assert result.stats.algorithm == "sharded-pretti+"


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(workers=0),
        dict(shards=0),
        dict(shards=-2),
        dict(strategy="modulo"),
        dict(timeout_seconds=0.0),
    ])
    def test_invalid_configuration(self, bad):
        with pytest.raises(AlgorithmError):
            ShardedJoin(**bad)

    def test_shards_default_to_workers(self):
        assert ShardedJoin(workers=3).shards == 3
        assert ShardedJoin(workers=2, shards=5).shards == 5


# ----------------------------------------------------------------------
# Shard loss: the resilience ladder
# ----------------------------------------------------------------------
class TestShardLoss:
    def test_crashed_shard_is_retried(self, rs_pair, expected, tmp_path):
        r, s = rs_pair
        fault = IndexFault(CrashingIndex, FaultTrigger(tmp_path, times=1))
        result = make_join(
            workers=2, shards=2, index_transform=fault,
            retry_policy=RetryPolicy(max_attempts=3),
        ).join(r, s)
        assert sorted(result.pairs) == sorted(expected)
        assert result.stats.extras["retries"] == 1
        assert result.stats.extras["fallback_shards"] == 0

    def test_dead_worker_restarts_the_pool(self, rs_pair, expected, tmp_path):
        r, s = rs_pair
        fault = IndexFault(DyingIndex, FaultTrigger(tmp_path, times=1))
        result = make_join(
            workers=2, shards=2, index_transform=fault,
            retry_policy=RetryPolicy(max_attempts=4),
        ).join(r, s)
        assert sorted(result.pairs) == sorted(expected)
        assert result.stats.extras["pool_restarts"] >= 1
        assert result.stats.extras["retries"] >= 1

    def test_index_fault_spares_the_parent(self, rs_pair, expected, tmp_path):
        # Exhaust retries with a persistent killer: every pooled attempt
        # dies, and the parent's in-process fallback must survive because
        # IndexFault pinned the parent pid at construction time — and the
        # fallback rebuilds without the transform anyway.
        r, s = rs_pair
        fault = IndexFault(DyingIndex, FaultTrigger(tmp_path, times=50))
        result = make_join(
            workers=2, shards=2, index_transform=fault,
            retry_policy=RetryPolicy(max_attempts=2),
        ).join(r, s)
        assert sorted(result.pairs) == sorted(expected)
        assert result.stats.extras["fallback_shards"] >= 1

    def test_exhausted_retries_fall_back_in_parent(self, rs_pair, expected, tmp_path):
        r, s = rs_pair
        fault = IndexFault(CrashingIndex, FaultTrigger(tmp_path, times=50))
        result = make_join(
            workers=2, shards=2, index_transform=fault,
            retry_policy=RetryPolicy(max_attempts=2),
        ).join(r, s)
        assert sorted(result.pairs) == sorted(expected)
        assert result.stats.extras["fallback_shards"] == 2
        assert result.stats.extras["retries"] == 2

    def test_no_fallback_raises_retry_exhausted(self, rs_pair, tmp_path):
        r, s = rs_pair
        fault = IndexFault(CrashingIndex, FaultTrigger(tmp_path, times=50))
        with pytest.raises(RetryExhaustedError):
            make_join(
                workers=2, shards=2, index_transform=fault, fallback=False,
                retry_policy=RetryPolicy(max_attempts=2),
            ).join(r, s)

    def test_corrupt_shard_is_rejected_and_retried(self, rs_pair, expected, tmp_path):
        r, s = rs_pair
        fault = IndexFault(
            CorruptingIndex, FaultTrigger(tmp_path, times=1), alien_id=10_000
        )
        result = make_join(
            workers=2, shards=2, index_transform=fault,
            retry_policy=RetryPolicy(max_attempts=3),
        ).join(r, s)
        assert sorted(result.pairs) == sorted(expected)
        assert result.stats.extras["corrupt_shards"] == 1
        assert result.stats.extras["retries"] == 1

    def test_validation_can_be_disabled(self, rs_pair, tmp_path):
        r, s = rs_pair
        fault = IndexFault(
            CorruptingIndex, FaultTrigger(tmp_path, times=1), alien_id=10_000
        )
        result = make_join(
            workers=2, shards=2, index_transform=fault, validate_results=False,
        ).join(r, s)
        alien = [(a, b) for a, b in result.pairs if a == 10_000]
        assert alien  # the lie went through, as configured
        assert result.stats.extras["corrupt_shards"] == 0

    def test_inline_workers_retry_too(self, rs_pair, expected, tmp_path):
        # workers=1 runs shards in-process; the retry ladder still applies.
        r, s = rs_pair
        fault = IndexFault(CrashingIndex, FaultTrigger(tmp_path, times=1))
        result = make_join(
            workers=1, shards=3, index_transform=fault,
            retry_policy=RetryPolicy(max_attempts=3),
        ).join(r, s)
        assert sorted(result.pairs) == sorted(expected)
        assert result.stats.extras["retries"] == 1


# ----------------------------------------------------------------------
# Helper
# ----------------------------------------------------------------------
def test_sharded_join_helper(rs_pair, expected):
    r, s = rs_pair
    result = sharded_join(r, s, workers=2, shards=2, start_method=START_METHOD)
    assert sorted(result.pairs) == sorted(expected)


def test_worker_error_message_names_the_shard(rs_pair, tmp_path):
    r, s = rs_pair
    join = make_join(workers=1, shards=2, validate_results=True)
    stats = JoinStats()
    supervisor = join._supervisor(r, s, stats)
    stats.extras["corrupt_shards"] = 0
    with pytest.raises(WorkerError, match="shard 0"):
        supervisor.check(supervisor.tasks[0], [(10_000, 10_000)], stats)
    assert stats.extras["corrupt_shards"] == 1
