"""Contract tests for the :mod:`repro.exec` executor package.

Three things the PR 6 refactor promises:

* every executor — inline, parallel, resilient, disk, sharded — satisfies
  the :class:`~repro.exec.protocol.Executor` protocol, so planner and CLI
  code can treat them interchangeably;
* :func:`repro.planner.executor.execute_plan` dispatches through the
  :data:`repro.exec.EXECUTOR_CLASSES` registry with no per-class
  branches, and rejects unknown executor names with
  :class:`~repro.errors.PlanError`;
* the ``repro.exec`` package init re-exports the *same* executor
  objects, without a :class:`DeprecationWarning`.
"""

from __future__ import annotations

import importlib
import warnings

import pytest

from repro.errors import PlanError
from repro.exec import (
    EXECUTOR_CLASSES,
    BaseExecutor,
    DiskPartitionedJoin,
    Executor,
    InlineJoin,
    ParallelJoin,
    ResilientParallelJoin,
    ShardedJoin,
    executor_class,
)
from repro.core.registry import plan as plan_join
from repro.planner import EXECUTORS, Plan, Workload, execute_plan
from tests.conftest import oracle_pairs, random_relation

ALL_EXECUTORS = (
    InlineJoin,
    ParallelJoin,
    ResilientParallelJoin,
    DiskPartitionedJoin,
    ShardedJoin,
)


@pytest.fixture(scope="module")
def rs_pair():
    r = random_relation(40, 6, 30, seed=601)
    s = random_relation(40, 4, 30, seed=602)
    return r, s


# ----------------------------------------------------------------------
# Protocol conformance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", ALL_EXECUTORS, ids=lambda c: c.name)
def test_every_executor_satisfies_the_protocol(cls):
    instance = cls()
    assert isinstance(instance, Executor)
    assert isinstance(instance, BaseExecutor)
    assert cls.name in EXECUTOR_CLASSES
    assert EXECUTOR_CLASSES[cls.name] is cls


def test_registry_matches_the_plan_schema():
    assert set(EXECUTOR_CLASSES) == set(EXECUTORS)


@pytest.mark.parametrize("cls", ALL_EXECUTORS, ids=lambda c: c.name)
def test_describe_names_executor_and_algorithm(cls):
    description = cls(algorithm="ptsj").describe()
    assert description["executor"] == cls.name
    assert description["algorithm"] == "ptsj"
    # Options are JSON-friendly scalars (what `repro-scj plan` prints).
    for value in description.values():
        assert value is None or isinstance(value, (str, int, float, bool))


@pytest.mark.parametrize("cls", ALL_EXECUTORS, ids=lambda c: c.name)
def test_join_matches_oracle(cls, rs_pair, tmp_path):
    r, s = rs_pair
    kwargs = {"workdir": tmp_path} if cls is DiskPartitionedJoin else {}
    result = cls(algorithm="ptsj", **kwargs).join(r, s)
    assert set(result.pairs) == oracle_pairs(r, s)
    assert result.stats.pairs == len(result.pairs)


def test_prepare_builds_a_probeable_index(rs_pair):
    r, s = rs_pair
    index = InlineJoin(algorithm="ptsj").prepare(s)
    assert set(index.probe_many(r).pairs) == oracle_pairs(r, s)


def test_unknown_executor_name_is_a_plan_error():
    with pytest.raises(PlanError, match="unknown executor"):
        executor_class("quantum")


# ----------------------------------------------------------------------
# Plan dispatch
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "executor, options",
    [
        ("inline", {}),
        ("parallel", {"workers": 2, "chunks": 3}),
        ("resilient", {"workers": 2}),
        ("disk", {"max_tuples": 16}),
        ("sharded", {"workers": 2, "shards": 2}),
    ],
)
def test_execute_plan_dispatches_every_executor(executor, options, rs_pair):
    r, s = rs_pair
    plan = Plan(algorithm="ptsj", executor=executor, executor_options=options)
    result = execute_plan(plan, r, s)
    assert set(result.pairs) == oracle_pairs(r, s)


def test_from_plan_round_trips_options():
    plan = Plan(
        algorithm="pretti+",
        executor="sharded",
        executor_options={"workers": 3, "shards": 5, "start_method": "spawn"},
    )
    executor = executor_class(plan.executor).from_plan(plan)
    assert isinstance(executor, ShardedJoin)
    assert (executor.algorithm, executor.workers, executor.shards, executor.start_method) == (
        "pretti+", 3, 5, "spawn",
    )


def test_planned_sharded_join_executes(rs_pair):
    r, s = rs_pair
    plan = plan_join(r, s, workload=Workload(workers=2, shards=2))
    assert plan.executor == "sharded"
    result = execute_plan(plan, r, s)
    assert set(result.pairs) == oracle_pairs(r, s)
    assert result.stats.algorithm.startswith("sharded-")


# ----------------------------------------------------------------------
# Package re-exports
# ----------------------------------------------------------------------
def test_package_inits_do_not_warn():
    # Re-running the package init re-binds the cached submodules, so the
    # executor classes stay the same objects.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        package = importlib.reload(importlib.import_module("repro.exec"))
    assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []
    assert package.DiskPartitionedJoin is DiskPartitionedJoin
