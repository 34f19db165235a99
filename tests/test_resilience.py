"""Fault-injection tests for the resilient parallel join.

Every recovery path of :class:`ResilientParallelJoin` — retry, a fresh
child for the slot after hard worker death, per-chunk timeout with in-process
fallback, corrupt-result rejection — is exercised deterministically via
the :mod:`repro.testing.faults` wrappers.  Faults travel with the
prepared index into the workers; their triggers are flag files, so they
fire an exact number of times across any mix of processes.

No test sleeps longer than 2 s and none asserts on wall-clock timings.

Set ``REPRO_START_METHOD=fork|spawn`` to pin the children's start method (CI
runs the suite once per method).
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.core.registry import set_containment_join
from repro.errors import (
    AlgorithmError,
    InjectedFaultError,
    JoinTimeoutError,
    ReproError,
    RetryExhaustedError,
    WorkerError,
)
from repro.exec.resilient import (
    RESILIENCE_EXTRAS,
    ResilientParallelJoin,
    RetryPolicy,
    resilient_parallel_join,
)
from repro.testing.faults import (
    CorruptingIndex,
    CrashingIndex,
    DyingIndex,
    FaultTrigger,
    SleepingIndex,
)
from tests.conftest import oracle_pairs, random_relation

#: A thread that dies mid-drill fails it instead of passing with a warning.
pytestmark = pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")

#: Optional start-method override so CI can drill both fork and spawn.
START_METHOD = os.environ.get("REPRO_START_METHOD") or None


def make_join(**kwargs) -> ResilientParallelJoin:
    kwargs.setdefault("algorithm", "ptsj")
    kwargs.setdefault("start_method", START_METHOD)
    return ResilientParallelJoin(**kwargs)


@pytest.fixture(scope="module")
def rs_pair():
    r = random_relation(60, 6, 40, seed=901)
    s = random_relation(60, 4, 40, seed=902)
    return r, s


@pytest.fixture(scope="module")
def sequential_pairs(rs_pair):
    """The fault-free ground truth, in the sequential join's pair order."""
    r, s = rs_pair
    return set_containment_join(r, s, algorithm="ptsj").pairs


class TestRetryPolicy:
    def test_deterministic_exponential_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff_seconds=0.1,
                             backoff_multiplier=2.0, backoff_cap_seconds=1.0)
        assert policy.schedule() == [0.1, 0.2, 0.4]
        # Jitter-free: the schedule is reproducible.
        assert policy.schedule() == policy.schedule()

    def test_cap_bounds_every_delay(self):
        policy = RetryPolicy(max_attempts=10, backoff_seconds=0.5,
                             backoff_multiplier=3.0, backoff_cap_seconds=0.8)
        assert all(d <= 0.8 for d in policy.schedule())

    def test_zero_backoff_never_sleeps(self):
        policy = RetryPolicy(max_attempts=5)
        assert policy.schedule() == [0.0] * 4

    @pytest.mark.parametrize("bad", [
        dict(max_attempts=0),
        dict(backoff_seconds=-1.0),
        dict(backoff_multiplier=0.5),
        dict(backoff_cap_seconds=-0.1),
    ])
    def test_invalid_configuration(self, bad):
        with pytest.raises(AlgorithmError):
            RetryPolicy(**bad)

    def test_invalid_timeout(self):
        with pytest.raises(AlgorithmError):
            make_join(timeout_seconds=0.0)


class TestCleanRuns:
    """Without faults, the resilient executor is ParallelJoin plus counters."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_sequential_bit_identical(self, rs_pair, sequential_pairs, workers):
        r, s = rs_pair
        result = make_join(workers=workers, chunks=4).join(r, s)
        assert result.pairs == sequential_pairs

    def test_extras_present_and_zero(self, rs_pair):
        r, s = rs_pair
        result = make_join(workers=2, chunks=4).join(r, s)
        for key in RESILIENCE_EXTRAS:
            assert result.stats.extras[key] == 0

    def test_one_shot_helper(self, rs_pair, sequential_pairs):
        r, s = rs_pair
        result = resilient_parallel_join(r, s, workers=1, start_method=START_METHOD)
        assert result.pairs == sequential_pairs

    def test_empty_probe_relation(self, rs_pair):
        from repro.relations.relation import Relation

        _, s = rs_pair
        assert len(make_join(workers=1).join(Relation([]), s)) == 0


class TestCrashRecovery:
    """An injected worker exception is retried per the policy."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_crash_on_first_attempt_retried(self, rs_pair, sequential_pairs,
                                            tmp_path, workers):
        r, s = rs_pair
        trigger = FaultTrigger(tmp_path, times=1)
        result = make_join(
            workers=workers, chunks=4,
            index_transform=lambda idx: CrashingIndex(idx, trigger),
        ).join(r, s)
        assert result.pairs == sequential_pairs
        assert result.stats.extras["retries"] >= 1
        assert result.stats.extras["fallback_chunks"] == 0
        assert trigger.fired() == 1

    def test_every_chunk_crashing_once_still_completes(self, rs_pair,
                                                       sequential_pairs, tmp_path):
        r, s = rs_pair
        trigger = FaultTrigger(tmp_path, times=4)
        result = make_join(
            workers=2, chunks=4,
            index_transform=lambda idx: CrashingIndex(idx, trigger),
        ).join(r, s)
        assert result.pairs == sequential_pairs
        assert result.stats.extras["retries"] >= 4

    def test_exhausted_retries_fall_back_in_process(self, rs_pair,
                                                    sequential_pairs, tmp_path):
        r, s = rs_pair
        # More firings than the executor has attempts: every pool attempt
        # crashes, so each chunk must finish via the pristine fallback.
        trigger = FaultTrigger(tmp_path, times=100)
        result = make_join(
            workers=1, chunks=2,
            retry_policy=RetryPolicy(max_attempts=2),
            index_transform=lambda idx: CrashingIndex(idx, trigger),
        ).join(r, s)
        assert result.pairs == sequential_pairs
        assert result.stats.extras["fallback_chunks"] == 2
        assert result.stats.extras["retries"] == 2

    def test_no_fallback_raises_retry_exhausted(self, rs_pair, tmp_path):
        r, s = rs_pair
        trigger = FaultTrigger(tmp_path, times=100)
        join = make_join(
            workers=1, chunks=1, fallback=False,
            retry_policy=RetryPolicy(max_attempts=3),
            index_transform=lambda idx: CrashingIndex(idx, trigger),
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            join.join(r, s)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value, WorkerError)
        assert isinstance(excinfo.value.__cause__, InjectedFaultError)


class TestWorkerDeath:
    """A worker dying hard is replaced by a fresh child for its slot."""

    def test_dead_worker_restarts_pool(self, rs_pair, sequential_pairs, tmp_path):
        r, s = rs_pair
        trigger = FaultTrigger(tmp_path, times=1)
        result = make_join(
            workers=2, chunks=4,
            index_transform=lambda idx: DyingIndex(idx, trigger),
        ).join(r, s)
        assert result.pairs == sequential_pairs
        assert result.stats.extras["pool_restarts"] >= 1
        assert result.stats.extras["retries"] >= 1

    def test_death_restarts_only_its_own_slot(self, rs_pair, sequential_pairs, tmp_path):
        # Two child slots; one child dies once.  Only its chunk is retried:
        # the sibling slot's chunks are neither resubmitted nor counted.
        r, s = rs_pair
        trigger = FaultTrigger(tmp_path, times=1)
        result = make_join(
            workers=3, chunks=6,
            index_transform=lambda idx: DyingIndex(idx, trigger),
        ).join(r, s)
        assert result.pairs == sequential_pairs
        assert result.stats.extras["pool_restarts"] == 1
        assert result.stats.extras["retries"] == 1
        assert multiprocessing.active_children() == []

    def test_dying_index_never_kills_the_parent(self, rs_pair, tmp_path):
        r, s = rs_pair
        trigger = FaultTrigger(tmp_path, times=100)
        # workers=1 probes in the parent; DyingIndex must stay inert there.
        result = make_join(
            workers=1, chunks=2,
            index_transform=lambda idx: DyingIndex(idx, trigger),
        ).join(r, s)
        assert result.pair_set() == oracle_pairs(r, s)
        assert trigger.fired() == 0


def test_parent_starts_no_threads(rs_pair, sequential_pairs, monkeypatch):
    r, s = rs_pair

    def refuse(self):
        raise AssertionError(f"ResilientParallelJoin started thread {self.name!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    result = make_join(workers=2, chunks=4).join(r, s)
    assert result.pairs == sequential_pairs
    assert multiprocessing.active_children() == []


class TestTimeouts:
    """A chunk over budget completes via the in-process fallback."""

    def test_slow_chunk_falls_back(self, rs_pair, sequential_pairs, tmp_path):
        r, s = rs_pair
        trigger = FaultTrigger(tmp_path, times=1)
        result = make_join(
            workers=2, chunks=4, timeout_seconds=0.25,
            index_transform=lambda idx: SleepingIndex(idx, trigger,
                                                      sleep_seconds=1.5),
        ).join(r, s)
        assert result.pairs == sequential_pairs
        assert result.stats.extras["timeouts"] >= 1
        assert result.stats.extras["fallback_chunks"] >= 1

    def test_timeout_without_fallback_raises(self, rs_pair, tmp_path):
        r, s = rs_pair
        trigger = FaultTrigger(tmp_path, times=1)
        join = make_join(
            workers=2, chunks=2, timeout_seconds=0.25, fallback=False,
            index_transform=lambda idx: SleepingIndex(idx, trigger,
                                                      sleep_seconds=1.5),
        )
        with pytest.raises(JoinTimeoutError):
            join.join(r, s)

    def test_generous_timeout_never_fires(self, rs_pair, sequential_pairs):
        r, s = rs_pair
        result = make_join(workers=2, chunks=2, timeout_seconds=60.0).join(r, s)
        assert result.pairs == sequential_pairs
        assert result.stats.extras["timeouts"] == 0
        assert result.stats.extras["fallback_chunks"] == 0


class TestCorruptResults:
    """A worker returning alien pairs is caught by validation and retried."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_corrupt_chunk_retried(self, rs_pair, sequential_pairs, tmp_path, workers):
        r, s = rs_pair
        trigger = FaultTrigger(tmp_path, times=1)
        result = make_join(
            workers=workers, chunks=4,
            index_transform=lambda idx: CorruptingIndex(idx, trigger),
        ).join(r, s)
        assert result.pairs == sequential_pairs
        assert result.stats.extras["corrupt_chunks"] >= 1
        assert result.stats.extras["retries"] >= 1

    def test_validation_disabled_lets_corruption_through(self, rs_pair, tmp_path):
        r, s = rs_pair
        trigger = FaultTrigger(tmp_path, times=1)
        result = make_join(
            workers=1, chunks=2, validate_results=False,
            index_transform=lambda idx: CorruptingIndex(idx, trigger, alien_id=-7),
        ).join(r, s)
        assert (-7, -7) in result.pairs
        assert result.stats.extras["corrupt_chunks"] == 0


class TestFaultTrigger:
    def test_fires_exactly_n_times(self, tmp_path):
        trigger = FaultTrigger(tmp_path, times=3)
        assert [trigger.fire() for _ in range(5)] == [True, True, True, False, False]
        assert trigger.fired() == 3

    def test_reset_re_arms(self, tmp_path):
        trigger = FaultTrigger(tmp_path, times=1)
        assert trigger.fire()
        assert not trigger.fire()
        trigger.reset()
        assert trigger.fire()

    def test_independent_names_do_not_interfere(self, tmp_path):
        a = FaultTrigger(tmp_path, name="a", times=1)
        b = FaultTrigger(tmp_path, name="b", times=1)
        assert a.fire()
        assert b.fire()


class TestFaultyIndexTransparency:
    """A spent fault wrapper behaves exactly like the index it wraps."""

    def test_spent_wrapper_is_transparent(self, rs_pair, tmp_path):
        from repro.core.registry import prepare_index

        r, s = rs_pair
        trigger = FaultTrigger(tmp_path, times=0)
        index = prepare_index(s, algorithm="ptsj")
        wrapped = CrashingIndex(index, trigger)
        assert wrapped.probe_many(r).pair_set() == oracle_pairs(r, s)
        assert wrapped.algorithm == index.algorithm
        assert wrapped.signature_bits == index.signature_bits

    def test_wrapper_streams_single_probes(self, rs_pair, tmp_path):
        from repro.core.registry import prepare_index

        r, s = rs_pair
        wrapped = CrashingIndex(prepare_index(s, algorithm="ptsj"),
                                FaultTrigger(tmp_path, times=0))
        record = r.records[0]
        expected = {ss.rid for ss in s if record.elements >= ss.elements}
        assert set(wrapped.probe(record)) == expected


class TestErrorHierarchy:
    def test_new_errors_under_repro_umbrella(self):
        for exc in (WorkerError, JoinTimeoutError, RetryExhaustedError,
                    InjectedFaultError):
            assert issubclass(exc, ReproError)
        assert issubclass(JoinTimeoutError, WorkerError)
        assert issubclass(RetryExhaustedError, WorkerError)

    def test_retry_exhausted_carries_attempts(self):
        assert RetryExhaustedError("boom", attempts=7).attempts == 7
