"""Chaos drills: governance bounds stop every executor, cleanly.

Each drill injects a deterministic governance fault — a pre-expired
deadline (via :class:`~repro.testing.faults.SkewedClock`), a mid-build
cancel (:class:`~repro.testing.faults.CountdownCancelToken`), or a
memory-budget trip (:class:`~repro.testing.faults.SteppingSampler`) —
and asserts the three invariants the subsystem promises:

1. the join terminates with the *typed* governance error (or, for the
   resilient executor's budget path, a recorded degradation);
2. nothing leaks: no orphaned worker processes, no leftover spill files
   in a caller-owned workdir;
3. the tracer's span stack stays balanced through the abort (checked
   the same way ``REPRO_SANITIZE=1`` does in CI).

No drill sleeps and none asserts on wall-clock timings: clocks are
skewed, tokens count checks, samplers read from a script.

Set ``REPRO_START_METHOD=fork|spawn`` to pin the pool start method (CI
runs the drills once per method).
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.errors import (
    BudgetExceededError,
    CancelledError,
    DeadlineExceededError,
)
from repro.core.pretti_plus import PRETTIPlus
from repro.core.registry import make_algorithm
from repro.core.ptsj import PTSJ
from repro.governance import CancelToken, Deadline, GovernancePolicy, govern
from repro.kernels import available_backends, use_backend
from repro.obs import Tracer, use
from repro.obs.clock import monotonic
from repro.relations.relation import Relation, SetRecord
from repro.relations.stats import compute_stats
from repro.testing.faults import CountdownCancelToken, SkewedClock, SteppingSampler
from repro.tries.patricia import SUBSET_BATCH_BLOCK, PatriciaTrie
from repro.tries.set_patricia import SetPatriciaTrie
from tests.conftest import oracle_pairs, random_relation

#: Optional start-method override so CI can drill both fork and spawn.
START_METHOD = os.environ.get("REPRO_START_METHOD") or None


def make_executor(name: str, workers: int = 2, **extra):
    """One governed executor per registry name, pool sizes kept tiny."""
    if name == "inline":
        from repro.exec.inline import InlineJoin

        return InlineJoin(algorithm="ptsj", **extra)
    if name == "parallel":
        from repro.exec.parallel import ParallelJoin

        return ParallelJoin(algorithm="ptsj", workers=workers, chunks=2,
                            start_method=START_METHOD, **extra)
    if name == "sharded":
        from repro.exec.sharded import ShardedJoin

        return ShardedJoin(algorithm="ptsj", workers=workers, shards=2,
                           start_method=START_METHOD, **extra)
    if name == "resilient":
        from repro.exec.resilient import ResilientParallelJoin

        return ResilientParallelJoin(algorithm="ptsj", workers=workers,
                                     chunks=2, start_method=START_METHOD,
                                     **extra)
    if name == "disk":
        from repro.exec.disk import DiskPartitionedJoin

        return DiskPartitionedJoin(algorithm="ptsj", max_tuples=16, **extra)
    raise AssertionError(name)


ALL_EXECUTORS = ["inline", "parallel", "sharded", "resilient", "disk"]
POOLED_EXECUTORS = ["parallel", "sharded", "resilient"]


def expired_deadline(seconds: float = 1.0) -> Deadline:
    """Already overdue, without sleeping: real ``at``, skewed evaluation."""
    real = Deadline.after(seconds)
    return Deadline(at=real.at, seconds=real.seconds,
                    clock=SkewedClock(seconds + 5.0))


def assert_no_orphans() -> None:
    """No worker process survives a governed abort.

    Pool shutdown reaps asynchronously, so poll briefly instead of
    asserting on the instant — the bound is "they die", not "they die
    before the next bytecode".
    """
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


@pytest.fixture
def rs_pair():
    r = random_relation(80, 6, 40, seed=701)
    s = random_relation(80, 4, 40, seed=702)
    return r, s


@pytest.fixture
def sanitized_tracer(monkeypatch):
    """A tracer whose teardown fails the test on an unbalanced span stack."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    tracer = Tracer("drill")
    with use(tracer):
        yield tracer
    tracer.finish()  # raises SanitizerError if any span leaked


# ----------------------------------------------------------------------
# Deadline drills
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_EXECUTORS)
def test_expired_deadline_stops_every_executor(name, rs_pair, sanitized_tracer):
    r, s = rs_pair
    policy = GovernancePolicy(deadline=expired_deadline(), poll_interval=1)
    with govern(policy):
        with pytest.raises(DeadlineExceededError, match="deadline of 1s exceeded"):
            make_executor(name).join(r, s)
    assert_no_orphans()


@pytest.mark.parametrize("name", POOLED_EXECUTORS)
def test_deadline_travels_into_worker_policies(name, rs_pair):
    # A *generous* deadline is shipped but never trips: the governed run
    # must complete and match the ungoverned ground truth, proving the
    # policy plumbing is inert until a bound actually breaches.
    r, s = rs_pair
    policy = GovernancePolicy(deadline=Deadline.after(600.0), poll_interval=4)
    with govern(policy):
        result = make_executor(name).join(r, s)
    assert result.pair_set() == oracle_pairs(r, s)
    assert result.stats.extras.get("deadline_polls", 0) >= 1
    assert_no_orphans()


# ----------------------------------------------------------------------
# Cancellation drills
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_EXECUTORS)
def test_mid_build_cancel_stops_every_executor(name, rs_pair, sanitized_tracer):
    r, s = rs_pair
    # Trips on the third poll: the build loop gets underway, then the
    # "user hits Ctrl-C" moment lands mid-flight, deterministically.
    token = CountdownCancelToken(after_checks=3)
    with govern(GovernancePolicy(cancel=token, poll_interval=4)):
        with pytest.raises(CancelledError, match="countdown tripped"):
            make_executor(name).join(r, s)
    assert_no_orphans()


@pytest.mark.parametrize("name", POOLED_EXECUTORS)
def test_flag_file_cancel_is_observed_across_processes(name, rs_pair, tmp_path,
                                                       sanitized_tracer):
    # The cancel is issued through a *peer* token sharing only the flag
    # directory — exactly how a parent-side cancel reaches pool workers
    # under fork and spawn alike.
    r, s = rs_pair
    token = CancelToken(flag_dir=tmp_path, name="drill")
    CancelToken(flag_dir=tmp_path, name="drill").cancel("issued by peer")
    with govern(GovernancePolicy(cancel=token, poll_interval=1)):
        with pytest.raises(CancelledError, match="cancelled by peer process"):
            make_executor(name).join(r, s)
    assert_no_orphans()


def test_cancel_after_instant_travels_by_value(rs_pair):
    # --cancel-after is an absolute monotonic instant on the token; a
    # pre-elapsed instant cancels the join wherever it is checked.
    r, s = rs_pair
    token = CancelToken(cancel_at=1.0, clock=SkewedClock(1e9))
    with govern(GovernancePolicy(cancel=token, poll_interval=1)):
        with pytest.raises(CancelledError, match="cancel_after budget elapsed"):
            make_executor("parallel").join(r, s)
    assert_no_orphans()


# ----------------------------------------------------------------------
# Batched PTSJ probe: the set-at-a-time walk stays interruptible
# ----------------------------------------------------------------------
class ExpiringClock:
    """Monotonic time that jumps past any deadline after ``readings`` reads."""

    def __init__(self, readings: int) -> None:
        self.readings = readings

    def __call__(self) -> float:
        self.readings -= 1
        return monotonic() + (0.0 if self.readings > 0 else 1e6)


@pytest.fixture
def walk_spy(monkeypatch):
    """Records entries into the batched trie walk and what escaped it."""
    state: dict = {"entered": 0, "raised": None}
    walk = PatriciaTrie.subset_leaves_batch

    def spy(self, *args, **kwargs):
        state["entered"] += 1
        try:
            return walk(self, *args, **kwargs)
        except Exception as exc:
            state["raised"] = exc
            raise

    monkeypatch.setattr(PatriciaTrie, "subset_leaves_batch", spy)
    return state


@pytest.mark.parametrize("fault", ["deadline", "cancel"])
def test_batched_ptsj_probe_stops_mid_walk(fault, walk_spy, sanitized_tracer):
    r = random_relation(SUBSET_BATCH_BLOCK + 500, 12, 60, seed=711)
    s = random_relation(400, 5, 60, seed=712)
    index = PTSJ().prepare(s)  # built ungoverned: only probe polls count
    # With poll_interval=1 the filter phase polls once per probe record
    # while hashing, then once per trie node popped: the trip lands 50
    # polls into the first block's walk.
    polls = len(r) + 50
    if fault == "deadline":
        # One clock reading for Deadline.after, then one per poll.
        deadline = Deadline.after(600.0, clock=ExpiringClock(polls + 1))
        policy = GovernancePolicy(deadline=deadline, poll_interval=1)
        error = DeadlineExceededError
    else:
        token = CountdownCancelToken(after_checks=polls)
        policy = GovernancePolicy(cancel=token, poll_interval=1)
        error = CancelledError
    with govern(policy):
        with pytest.raises(error):
            index.probe_many(r)
    assert walk_spy["entered"] == 1
    assert isinstance(walk_spy["raised"], error)
    assert index.trie.node_count() > 50


# ----------------------------------------------------------------------
# Governed PTSJ build: one poll per S record, then one bulk build
# ----------------------------------------------------------------------
def count_entries(monkeypatch, cls, name: str) -> dict[str, int]:
    """Counts entries into the classmethod ``cls.name``."""
    state = {"entered": 0}
    build = getattr(cls, name).__func__

    def spy(klass, *args, **kwargs):
        state["entered"] += 1
        return build(klass, *args, **kwargs)

    monkeypatch.setattr(cls, name, classmethod(spy))
    return state


def halfway_trip(fault: str, polls: int):
    """A ``poll_interval=1`` policy whose deadline or cancel token trips at
    poll ``polls``: ``(policy, expected error, token or None)``."""
    if fault == "deadline":
        # One clock reading for Deadline.after, then one per poll.
        deadline = Deadline.after(600.0, clock=ExpiringClock(polls + 1))
        return GovernancePolicy(deadline=deadline, poll_interval=1), DeadlineExceededError, None
    token = CountdownCancelToken(after_checks=polls)
    return GovernancePolicy(cancel=token, poll_interval=1), CancelledError, token


@pytest.fixture
def bulk_build_spy(monkeypatch):
    """Counts entries into the one-pass Patricia build."""
    return count_entries(monkeypatch, PatriciaTrie, "from_sorted")


def test_governed_ptsj_build_ticks_once_per_s_record(bulk_build_spy):
    s = random_relation(300, 5, 60, seed=712)
    token = CountdownCancelToken(after_checks=len(s) + 2)
    with govern(GovernancePolicy(cancel=token, poll_interval=1)):
        index = PTSJ().prepare(s)
    # One poll per S record while grouping, then the build-boundary poll.
    assert index.build_extras["deadline_polls"] == len(s)
    assert token.checks == len(s) + 1
    assert bulk_build_spy["entered"] == 1


@pytest.mark.parametrize("fault", ["deadline", "cancel"])
def test_governed_ptsj_build_stops_mid_grouping(fault, bulk_build_spy,
                                                sanitized_tracer):
    s = random_relation(300, 5, 60, seed=712)
    # With poll_interval=1 the build polls once per S record: the trip
    # lands halfway through S, before the trie is built.
    polls = len(s) // 2
    policy, error, token = halfway_trip(fault, polls)
    with govern(policy):
        with pytest.raises(error, match="during build"):
            PTSJ().prepare(s)
    if token is not None:
        assert token.checks == polls
    assert bulk_build_spy["entered"] == 0


# ----------------------------------------------------------------------
# Governed PRETTI+ build: one poll per S record, then one grouped build
# ----------------------------------------------------------------------
@pytest.fixture
def grouped_build_spy(monkeypatch):
    """Counts entries into PRETTI+'s one-pass Patricia build."""
    return count_entries(monkeypatch, SetPatriciaTrie, "from_groups")


def test_governed_pretti_plus_build_ticks_once_per_s_record(grouped_build_spy):
    s = random_relation(300, 5, 60, seed=713)
    token = CountdownCancelToken(after_checks=len(s) + 2)
    with govern(GovernancePolicy(cancel=token, poll_interval=1)):
        index = PRETTIPlus().prepare(s)
    # One poll per S record while grouping, then the build-boundary poll.
    assert index.build_extras["deadline_polls"] == len(s)
    assert token.checks == len(s) + 1
    assert grouped_build_spy["entered"] == 1


@pytest.mark.parametrize("name", ["pretti", "nested-loop"])
def test_governed_baseline_build_records_its_polls(name):
    s = random_relation(300, 5, 60, seed=714)
    token = CountdownCancelToken(after_checks=len(s) + 2)
    with govern(GovernancePolicy(cancel=token, poll_interval=1)):
        index = make_algorithm(name).prepare(s)
    assert index.build_extras["deadline_polls"] == len(s)
    assert token.checks == len(s) + 1


@pytest.mark.parametrize("fault", ["deadline", "cancel"])
def test_governed_pretti_plus_build_stops_mid_grouping(fault, grouped_build_spy,
                                                       sanitized_tracer):
    s = random_relation(300, 5, 60, seed=713)
    polls = len(s) // 2
    policy, error, token = halfway_trip(fault, polls)
    with govern(policy):
        with pytest.raises(error, match="during build"):
            PRETTIPlus().prepare(s)
    if token is not None:
        assert token.checks == polls
    assert grouped_build_spy["entered"] == 0


# ----------------------------------------------------------------------
# Batched PRETTI+ probe: one poll per popped trie node
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pretti_plus_batch():
    # A batch large enough that the walk carries rank bitsets, not lists.
    r = random_relation(4000, 10, 50, seed=721)
    s = random_relation(600, 4, 50, seed=722)
    index = PRETTIPlus().prepare(s)  # built ungoverned: only probe polls count
    return index, r, index.probe_many(r).stats.node_visits


@pytest.mark.parametrize("backend", available_backends())
def test_pretti_plus_probe_polls_once_per_popped_node(backend, pretti_plus_batch):
    index, r, visits = pretti_plus_batch
    token = CountdownCancelToken(after_checks=visits + 1)
    with govern(GovernancePolicy(cancel=token, poll_interval=1)), use_backend(backend):
        result = index.probe_many(r)
    assert result.stats.extras["deadline_polls"] == result.stats.node_visits == visits
    assert token.checks == visits


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("fault", ["deadline", "cancel"])
def test_pretti_plus_probe_stops_mid_walk(fault, backend, pretti_plus_batch,
                                          sanitized_tracer):
    index, r, visits = pretti_plus_batch
    # Every poll of a PRETTI+ batch is a popped node (see the test above),
    # so a trip at poll visits // 2 lands halfway through the walk.
    polls = visits // 2
    if fault == "deadline":
        # One clock reading for Deadline.after, then one per poll.
        deadline = Deadline.after(600.0, clock=ExpiringClock(polls + 1))
        policy = GovernancePolicy(deadline=deadline, poll_interval=1)
        error = DeadlineExceededError
    else:
        token = CountdownCancelToken(after_checks=polls)
        policy = GovernancePolicy(cancel=token, poll_interval=1)
        error = CancelledError
    with govern(policy), use_backend(backend):
        with pytest.raises(error, match="during probe"):
            index.probe_many(r)
    assert visits > 100


# ----------------------------------------------------------------------
# PTSJ verify phase: one poll per R record, on bitmaps as on sets
# ----------------------------------------------------------------------
@pytest.fixture
def filter_spy(monkeypatch):
    """Records a token's check count when PTSJ's filter phase returns."""
    state: dict = {"token": None, "checks": []}
    enumerate_batch = PTSJ._enumerate_batch

    def spy(self, *args, **kwargs):
        hits = enumerate_batch(self, *args, **kwargs)
        state["checks"].append(state["token"].checks if state["token"] else None)
        return hits

    monkeypatch.setattr(PTSJ, "_enumerate_batch", spy)
    return state


def verify_phase_batch(exact: bool):
    """An index over S with every element below 64 bits, and an R that is
    exact too or has one element aliasing under ``x mod 64``."""
    s = random_relation(300, 5, 60, seed=731)
    r = random_relation(400, 12, 60, seed=732)
    if not exact:
        r = Relation([*r.records[:-1], SetRecord(r.records[-1].rid, frozenset({3, 64 + 3}))])
    index = PTSJ(bits=64).prepare(s)  # built ungoverned: only probe polls count
    assert index.exact_signatures
    assert (compute_stats(r).max_element < 64) is exact
    return index, r


@pytest.mark.parametrize("exact", [True, False], ids=["bitmaps", "sets"])
def test_ptsj_verify_polls_once_per_r_record(exact, filter_spy):
    index, r = verify_phase_batch(exact)
    token = CountdownCancelToken(after_checks=10**9)
    filter_spy["token"] = token
    with govern(GovernancePolicy(cancel=token, poll_interval=1)):
        result = index.probe_many(r)
    assert set(result.pairs) == oracle_pairs(r, index.relation)
    assert token.checks - filter_spy["checks"][0] == len(r)


@pytest.mark.parametrize("exact", [True, False], ids=["bitmaps", "sets"])
@pytest.mark.parametrize("fault", ["deadline", "cancel"])
def test_ptsj_probe_stops_mid_verify(fault, exact, filter_spy, sanitized_tracer):
    index, r = verify_phase_batch(exact)
    token = CountdownCancelToken(after_checks=10**9)
    filter_spy["token"] = token
    with govern(GovernancePolicy(cancel=token, poll_interval=1)):
        index.probe_many(r)
    # A trip half an R relation past the filter phase lands mid-verify.
    polls = filter_spy["checks"][0] + len(r) // 2
    filter_spy["token"] = None
    if fault == "deadline":
        # One clock reading for Deadline.after, then one per poll.
        deadline = Deadline.after(600.0, clock=ExpiringClock(polls + 1))
        policy = GovernancePolicy(deadline=deadline, poll_interval=1)
        error = DeadlineExceededError
    else:
        policy = GovernancePolicy(cancel=CountdownCancelToken(after_checks=polls),
                                  poll_interval=1)
        error = CancelledError
    with govern(policy):
        with pytest.raises(error, match="during probe"):
            index.probe_many(r)
    assert len(filter_spy["checks"]) == 2, "the filter phase must have finished"


# ----------------------------------------------------------------------
# Memory-budget drills
# ----------------------------------------------------------------------
def budget_policy(poll_interval: int = 8) -> GovernancePolicy:
    # Base 1000, one healthy sample, then a reading 1696 bytes over.
    return GovernancePolicy(memory_budget_bytes=1024, poll_interval=poll_interval,
                            memory_sampler=SteppingSampler([1000, 1600, 2720]))


@pytest.mark.parametrize("name", ["inline", "parallel", "sharded", "disk"])
def test_budget_trip_raises_typed_error(name, rs_pair, sanitized_tracer):
    r, s = rs_pair
    with govern(budget_policy()):
        with pytest.raises(BudgetExceededError) as excinfo:
            make_executor(name).join(r, s)
    breach = excinfo.value
    assert breach.budget_bytes == 1024
    assert breach.used_bytes == 1720
    assert breach.records_indexed > 0
    assert_no_orphans()


@pytest.mark.parametrize("workers,target", [(2, "sharded"), (1, "disk")])
def test_resilient_degrades_instead_of_failing(workers, target, rs_pair,
                                               sanitized_tracer):
    r, s = rs_pair
    with govern(budget_policy()):
        result = make_executor("resilient", workers=workers).join(r, s)
    assert result.pair_set() == oracle_pairs(r, s)
    assert result.stats.extras["degraded_to"] == target
    assert result.stats.extras["budget_breach_bytes"] == 1720
    assert_no_orphans()


def test_degraded_run_keeps_honoring_cancel(rs_pair):
    # Degradation strips the *budget* (re-planning exists to finish the
    # join) but the cancel token must keep applying to the fallback run.
    r, s = rs_pair
    token = CountdownCancelToken(after_checks=40)
    policy = GovernancePolicy(cancel=token, poll_interval=2,
                              memory_budget_bytes=1024,
                              memory_sampler=SteppingSampler([1000, 2720]))
    with govern(policy):
        with pytest.raises(CancelledError):
            make_executor("resilient", workers=1).join(r, s)
    assert_no_orphans()


# ----------------------------------------------------------------------
# Spill hygiene
# ----------------------------------------------------------------------
def test_no_spill_files_leak_from_an_aborted_disk_join(rs_pair, tmp_path,
                                                       sanitized_tracer):
    r, s = rs_pair
    workdir = tmp_path / "spill"
    workdir.mkdir()
    token = CountdownCancelToken(after_checks=2)
    with govern(GovernancePolicy(cancel=token, poll_interval=1)):
        with pytest.raises(CancelledError):
            make_executor("disk", workdir=workdir).join(r, s)
    leftovers = [p for p in workdir.rglob("*") if p.is_file()]
    assert leftovers == []


def test_disk_join_cleans_up_after_a_deadline_abort(rs_pair, tmp_path):
    r, s = rs_pair
    workdir = tmp_path / "spill"
    workdir.mkdir()
    policy = GovernancePolicy(deadline=expired_deadline(), poll_interval=1)
    with govern(policy):
        with pytest.raises(DeadlineExceededError):
            make_executor("disk", workdir=workdir).join(r, s)
    assert [p for p in workdir.rglob("*") if p.is_file()] == []


# ----------------------------------------------------------------------
# Ungoverned runs are untouched
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_EXECUTORS)
def test_ungoverned_runs_carry_no_governance_extras(name, rs_pair):
    r, s = rs_pair
    result = make_executor(name).join(r, s)
    assert result.pair_set() == oracle_pairs(r, s)
    assert "deadline_polls" not in result.stats.extras
    assert "cancelled_chunks" not in result.stats.extras
    assert "degraded_to" not in result.stats.extras
    assert_no_orphans()
