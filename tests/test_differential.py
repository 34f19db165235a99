"""Differential test harness: every algorithm against the brute-force oracle.

Hypothesis drives random relations (including empty sets, duplicate
sets, empty relations) through every registry algorithm via *both* entry
points — the one-shot ``join()`` and the prepared-index
``prepare() + probe_many()`` path — and checks the pair sets against the
obvious nested-loop oracle.  Stats invariants ride along: signature
algorithms verify exactly their candidates, PRETTI-family algorithms
never verify, and tracing must not perturb any output.

Seeds are pinned (``derandomize=True`` plus explicit ``@seed``) so CI
failures reproduce locally byte-for-byte.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.core.registry import (
    available_algorithms,
    execute_plan,
    make_algorithm,
    plan,
    set_containment_join,
)
from repro.exec import ParallelJoin, ResilientParallelJoin, RetryPolicy
from repro.kernels import available_backends, use_backend
from repro.obs import Tracer, use
from repro.planner import Workload
from repro.relations.relation import Relation, SetRecord

ALL_ALGORITHMS = available_algorithms()

#: Every kernel backend constructible on this host ("python" at minimum,
#: plus "numpy" wherever it imports).  The oracle tests run once per
#: backend: the parity contract (docs/KERNELS.md) says backends are
#: bit-for-bit interchangeable, so the same seeds must produce the same
#: pairs and the same counters under each.
KERNEL_BACKENDS = available_backends()

#: Pinned multiprocessing start method for the parallel differential test
#: (CI runs the suite once per method; ``None`` = platform default).
START_METHOD = os.environ.get("REPRO_START_METHOD") or None

DIFFERENTIAL_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    # function_scoped_fixture: the kernel_backend fixture pins one
    # backend for *all* examples of a test, so not resetting it between
    # examples is exactly the intended behaviour.
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)

#: Small universes keep the oracle trivial while still hitting subset
#: structure, duplicate sets, empty sets and empty relations.
set_strategy = st.frozensets(st.integers(min_value=0, max_value=30), max_size=8)
relation_strategy = st.lists(set_strategy, max_size=12)


@pytest.fixture(params=KERNEL_BACKENDS)
def kernel_backend(request):
    """Run the decorated test once under each available kernel backend."""
    with use_backend(request.param):
        yield request.param


def build_relation(sets: list[frozenset[int]], start_id: int = 0) -> Relation:
    return Relation(
        [SetRecord(start_id + i, elements) for i, elements in enumerate(sets)]
    )


def oracle(r: Relation, s: Relation) -> set[tuple[int, int]]:
    return {
        (rr.rid, ss.rid)
        for rr in r
        for ss in s
        if rr.elements >= ss.elements
    }


def assert_stats_invariants(name: str, stats, pairs) -> None:
    """Cross-algorithm stats invariants the harness locks in."""
    assert stats.pairs == len(pairs)
    assert stats.build_seconds >= 0 and stats.probe_seconds >= 0
    if name in ("ptsj", "tsj", "shj"):
        # Algorithm 1 verifies exactly the candidates its filter admits.
        # (candidates can be *fewer* than pairs: identical S-sets merge
        # into one candidate group, Sec. III-E1.)
        assert stats.verifications == stats.candidates
    if name in ("pretti", "pretti+"):
        # List intersection produces exact results: nothing to verify.
        assert stats.verifications == 0


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
@given(r_sets=relation_strategy, s_sets=relation_strategy)
@seed(20150413)  # ICDE 2015 — pinned so failures replay identically
@DIFFERENTIAL_SETTINGS
def test_join_matches_oracle(name, kernel_backend, r_sets, s_sets):
    r = build_relation(r_sets)
    s = build_relation(s_sets, start_id=100)
    result = make_algorithm(name).join(r, s)
    assert set(result.pairs) == oracle(r, s)
    assert_stats_invariants(name, result.stats, result.pairs)
    assert result.stats.extras.get("kernel_backend") == kernel_backend


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
@given(r_sets=relation_strategy, s_sets=relation_strategy)
@seed(20150413)
@DIFFERENTIAL_SETTINGS
def test_prepared_probe_matches_oracle(name, kernel_backend, r_sets, s_sets):
    r = build_relation(r_sets)
    s = build_relation(s_sets, start_id=100)
    index = make_algorithm(name).prepare(s, probe_hint=r)
    result = index.probe_many(r)
    assert set(result.pairs) == oracle(r, s)
    assert_stats_invariants(name, result.stats, result.pairs)
    assert result.stats.extras.get("kernel_backend") == kernel_backend


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
@given(r_sets=relation_strategy, s_sets=relation_strategy)
@seed(20150413)
@DIFFERENTIAL_SETTINGS
def test_traced_join_matches_untraced(name, r_sets, s_sets):
    """An active tracer must never change pairs or counters."""
    r = build_relation(r_sets)
    s = build_relation(s_sets, start_id=100)
    plain = make_algorithm(name).join(r, s)
    with use(Tracer()):
        traced = make_algorithm(name).join(r, s)
    assert traced.pairs == plain.pairs
    assert traced.stats.candidates == plain.stats.candidates
    assert traced.stats.verifications == plain.stats.verifications
    assert traced.stats.node_visits == plain.stats.node_visits
    assert traced.stats.intersections == plain.stats.intersections


@given(r_sets=relation_strategy, s_sets=relation_strategy)
@seed(20150413)
@DIFFERENTIAL_SETTINGS
def test_parallel_inline_matches_oracle(r_sets, s_sets):
    """workers=1 exercise of the chunked executor (no pool overhead)."""
    r = build_relation(r_sets)
    s = build_relation(s_sets, start_id=100)
    executor = ParallelJoin(algorithm="ptsj", workers=1, chunks=3)
    assert set(executor.join(r, s).pairs) == oracle(r, s)


def test_parallel_pooled_matches_oracle():
    """One real multi-process run per configured start method.

    Not hypothesis-driven: pool startup is too slow per example.  The
    dataset is fixed and large enough for several non-trivial chunks.
    """
    from .conftest import random_relation

    r = random_relation(60, 9, 40, seed=31)
    s = random_relation(60, 6, 40, seed=32)
    executor = ParallelJoin(
        algorithm="ptsj", workers=2, chunks=4, start_method=START_METHOD
    )
    assert set(executor.join(r, s).pairs) == oracle(r, s)


def test_resilient_pooled_matches_oracle():
    from .conftest import random_relation

    r = random_relation(60, 9, 40, seed=33)
    s = random_relation(60, 6, 40, seed=34)
    executor = ResilientParallelJoin(
        algorithm="ptsj",
        workers=2,
        chunks=4,
        start_method=START_METHOD,
        retry_policy=RetryPolicy(max_attempts=2),
    )
    result = executor.join(r, s)
    assert set(result.pairs) == oracle(r, s)
    assert not result.stats.extras.get("fallback_chunks")


@given(r_sets=relation_strategy, s_sets=relation_strategy)
@seed(20150413)
@DIFFERENTIAL_SETTINGS
def test_auto_planned_join_matches_oracle(r_sets, s_sets):
    """``join(r, s)`` with no algorithm routes through the planner."""
    r = build_relation(r_sets)
    s = build_relation(s_sets, start_id=100)
    result = set_containment_join(r, s)
    assert set(result.pairs) == oracle(r, s)
    # The same plan, taken explicitly, reproduces the same pairs.
    query_plan = plan(r, s)
    assert not query_plan.pinned
    assert set(execute_plan(query_plan, r, s).pairs) == oracle(r, s)


@given(r_sets=relation_strategy, s_sets=relation_strategy)
@seed(20150413)
@DIFFERENTIAL_SETTINGS
def test_budgeted_plan_matches_oracle(r_sets, s_sets):
    """A tight memory budget routes through the disk executor; same pairs."""
    r = build_relation(r_sets)
    s = build_relation(s_sets, start_id=100)
    query_plan = plan(r, s, workload=Workload(memory_budget_tuples=4))
    if len(r) + len(s) > 4:
        assert query_plan.executor == "disk"
    assert set(execute_plan(query_plan, r, s).pairs) == oracle(r, s)


def test_parallel_plan_matches_oracle():
    """A workers hint routes through the pool; one real run per method."""
    from .conftest import random_relation

    r = random_relation(60, 9, 40, seed=35)
    s = random_relation(60, 6, 40, seed=36)
    for workload, executor in (
        (Workload(workers=2), "parallel"),
        (Workload(workers=2, fault_tolerance=True), "resilient"),
    ):
        query_plan = plan(r, s, algorithm="ptsj", workload=workload)
        assert query_plan.executor == executor
        assert set(execute_plan(query_plan, r, s).pairs) == oracle(r, s)


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_backend_counter_parity(name):
    """Every backend reproduces the python backend's JoinStats exactly.

    This is the parity contract of docs/KERNELS.md made executable:
    pairs, every scalar counter and every extra (minus the
    ``kernel_backend`` marker itself) must be bit-for-bit identical no
    matter which backend ran the batch filters.
    """
    from .conftest import random_relation

    r = random_relation(50, 8, 60, seed=91)
    s = random_relation(50, 5, 60, seed=92)

    def fingerprint(backend: str):
        with use_backend(backend):
            result = make_algorithm(name).join(r, s)
        extras = {
            k: v for k, v in result.stats.extras.items() if k != "kernel_backend"
        }
        assert result.stats.extras.get("kernel_backend") == backend
        return (
            result.pairs,
            result.stats.pairs,
            result.stats.candidates,
            result.stats.verifications,
            result.stats.node_visits,
            result.stats.intersections,
            result.stats.index_nodes,
            result.stats.signature_bits,
            extras,
        )

    reference = fingerprint("python")
    for backend in KERNEL_BACKENDS:
        if backend == "python":
            continue
        assert fingerprint(backend) == reference, (
            f"{name}: backend {backend!r} drifted from the python backend"
        )


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_edge_relations(name, kernel_backend):
    """Deterministic spot checks hypothesis shrinks toward anyway."""
    empty = build_relation([])
    single_empty = build_relation([frozenset()])
    dupes = build_relation(
        [frozenset({1, 2}), frozenset({1, 2}), frozenset({1, 2, 3})],
        start_id=100,
    )
    algorithm = make_algorithm(name)
    assert algorithm.join(empty, dupes).pairs == []
    assert set(make_algorithm(name).join(dupes_r := build_relation(
        [frozenset({1, 2, 3}), frozenset()]), dupes).pairs) == oracle(dupes_r, dupes)
    # An empty probe set contains only the empty indexed set.
    result = make_algorithm(name).join(single_empty, dupes)
    assert result.pairs == []
    both_empty_sets = make_algorithm(name).join(
        single_empty, build_relation([frozenset()], start_id=500)
    )
    assert set(both_empty_sets.pairs) == {(0, 500)}
