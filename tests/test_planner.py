"""Planner unit tests: plan selection on hand-built statistics, pinned-plan
parity, explain output, serialization, and validator consistency."""

from __future__ import annotations

import pytest

from repro.core.registry import (
    ALGORITHMS,
    cost_profile,
    execute_plan,
    make_algorithm,
    plan,
    set_containment_join,
)
from repro.errors import AlgorithmError, ExternalMemoryError, PlanError
from repro.exec import DiskPartitionedJoin, ParallelJoin, ShardedJoin
from repro.obs import Tracer, use
from repro.planner import (
    AUTO_CANDIDATES,
    COST_PROFILES,
    CostEstimate,
    Plan,
    Planner,
    Workload,
)
from repro.planner.profiles import expected_pairs
from repro.relations.relation import Relation
from repro.relations.stats import RelationStats, compute_stats

from .conftest import random_relation


def make_stats(
    size: int,
    avg_c: float = 16.0,
    median_c: float = 16.0,
    domain: int = 1024,
) -> RelationStats:
    """Hand-built statistics: the planner's whole input, no relation needed."""
    return RelationStats(
        size=size,
        avg_cardinality=avg_c,
        median_cardinality=median_c,
        min_cardinality=1,
        max_cardinality=int(max(avg_c, median_c) * 2),
        domain_cardinality=domain,
        total_elements=int(size * avg_c),
        duplicate_sets=0,
        cardinality_stddev=1.0,
        max_element=domain - 1,
    )


# ----------------------------------------------------------------------
# Plan selection on hand-built statistics
# ----------------------------------------------------------------------
class TestPlanSelection:
    def test_tiny_s_plans_in_process(self):
        p = Planner().plan(make_stats(1000), make_stats(10))
        assert p.executor == "inline"
        assert p.options() == {}
        assert not p.pinned

    def test_huge_s_with_budget_plans_disk(self):
        workload = Workload(memory_budget_tuples=10_000)
        p = Planner().plan(make_stats(500_000), make_stats(500_000), workload)
        assert p.executor == "disk"
        assert p.options() == {"max_tuples": 10_000}
        chunking = p.decision("chunking")
        assert chunking.detail_dict()["r_partitions"] == 50

    def test_generous_budget_stays_in_process(self):
        workload = Workload(memory_budget_tuples=10_000)
        p = Planner().plan(make_stats(100), make_stats(100), workload)
        assert p.executor == "inline"

    def test_probe_many_plans_prepared_index_reuse(self):
        workload = Workload(mode="probe_many", probe_batches=50)
        p = Planner().plan(None, make_stats(1000), workload)
        assert p.executor == "inline"
        executor = p.decision("executor")
        assert executor.detail_dict()["reused_index"] is True
        assert executor.detail_dict()["probe_batches"] == 50
        # Amortisation is visible on the algorithm decision.
        assert "amortised_cost" in p.decision("algorithm").detail_dict()

    def test_probe_many_beats_worker_hint(self):
        """Index reuse requires staying in-process even with workers hinted."""
        workload = Workload(mode="probe_many", workers=4)
        p = Planner().plan(None, make_stats(1000), workload)
        assert p.executor == "inline"

    def test_workers_hint_plans_parallel(self):
        # Large enough that the probe split outweighs the pool's charges.
        p = Planner().plan(make_stats(20000), make_stats(20000), Workload(workers=4))
        assert p.executor == "parallel"
        assert p.options() == {"workers": 4, "chunks": 4}

    def test_fault_tolerance_hint_plans_resilient(self):
        workload = Workload(workers=4, fault_tolerance=True)
        p = Planner().plan(make_stats(1000), make_stats(1000), workload)
        assert p.executor == "resilient"

    def test_budget_with_workers_plans_sharded(self):
        # PR 6: when S exceeds the budget *and* workers are available, the
        # planner shards the index across them instead of spilling to disk.
        workload = Workload(workers=4, memory_budget_tuples=100)
        p = Planner().plan(make_stats(1000), make_stats(1000), workload)
        assert p.executor == "sharded"
        assert p.options()["shards"] >= 10  # ceil(|S| / budget)

    def test_budget_without_workers_still_plans_disk(self):
        workload = Workload(workers=1, memory_budget_tuples=100)
        p = Planner().plan(make_stats(1000), make_stats(1000), workload)
        assert p.executor == "disk"

    def test_low_median_cardinality_selects_pretti_plus(self):
        p = Planner().plan(make_stats(100), make_stats(100, median_c=4.0))
        assert p.algorithm == "pretti+"

    def test_high_median_cardinality_selects_ptsj(self):
        p = Planner().plan(make_stats(100), make_stats(100, avg_c=64, median_c=64.0))
        assert p.algorithm == "ptsj"

    def test_auto_choice_is_regime_gated(self):
        """Only the paper's production pair is ever auto-chosen."""
        for median in (1.0, 16.0, 31.0, 32.0, 64.0, 500.0):
            p = Planner().plan(make_stats(100), make_stats(100, median_c=median))
            assert p.algorithm in AUTO_CANDIDATES

    def test_every_algorithm_appears_costed_in_the_plan(self):
        p = Planner().plan(make_stats(100), make_stats(100))
        algorithm = p.decision("algorithm")
        considered = {algorithm.choice} | {alt.choice for alt in algorithm.rejected}
        assert considered == set(ALGORITHMS)
        assert algorithm.cost is not None
        costed_rejects = [alt for alt in algorithm.rejected if alt.cost is not None]
        assert len(costed_rejects) >= 2

    def test_signature_decision_costs_neighbouring_lengths(self):
        p = Planner().plan(make_stats(100, avg_c=64, median_c=64.0),
                           make_stats(100, avg_c=64, median_c=64.0))
        signature = p.decision("signature")
        assert signature.choice.endswith("bits")
        assert signature.cost is not None
        assert {alt.cost is not None for alt in signature.rejected} == {True}

    def test_inverted_family_has_no_signature_length(self):
        p = Planner().plan(make_stats(100), make_stats(100, median_c=2.0))
        assert p.algorithm == "pretti+"
        assert p.decision("signature").choice == "none"

    def test_empty_relations_plan_without_error(self):
        empty = RelationStats(0, 0.0, 0.0, 0, 0, 0, 0, 0)
        p = Planner().plan(empty, empty)
        assert p.algorithm in AUTO_CANDIDATES


# ----------------------------------------------------------------------
# Pinned plans: explicit-algorithm parity
# ----------------------------------------------------------------------
class TestPinnedPlans:
    def test_pinned_plan_records_choice_without_alternatives(self):
        p = plan(Relation.from_sets([{1}]), Relation.from_sets([{1}]),
                 algorithm="nested-loop")
        assert p.pinned and p.algorithm == "nested-loop"
        assert p.decision("algorithm").rejected == ()

    def test_pinned_plan_resolves_aliases(self):
        r = Relation.from_sets([{1}])
        assert plan(r, r, algorithm="prettiplus").algorithm == "pretti+"
        assert plan(r, r, algorithm="NL").algorithm == "nested-loop"

    def test_unknown_algorithm_raises_before_planning(self):
        r = Relation.from_sets([{1}])
        with pytest.raises(AlgorithmError, match="unknown algorithm"):
            plan(r, r, algorithm="btree")

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_pinned_execution_matches_classic_path_exactly(self, name):
        """Explicit-algorithm calls keep bit-for-bit identical JoinStats."""
        r = random_relation(40, 8, 60, seed=51)
        s = random_relation(40, 5, 60, seed=52)
        classic = make_algorithm(name).join(r, s)
        planned = set_containment_join(r, s, algorithm=name)
        assert planned.pairs == classic.pairs
        for field in ("algorithm", "pairs", "candidates", "verifications",
                      "node_visits", "intersections", "signature_bits",
                      "index_nodes"):
            assert getattr(planned.stats, field) == getattr(classic.stats, field)
        assert planned.stats.extras.keys() == classic.stats.extras.keys()

    def test_pinned_kwargs_forwarded_verbatim(self):
        r = random_relation(30, 8, 60, seed=53)
        s = random_relation(30, 5, 60, seed=54)
        classic = make_algorithm("ptsj", bits=64).join(r, s)
        planned = set_containment_join(r, s, algorithm="ptsj", bits=64)
        assert planned.stats.signature_bits == classic.stats.signature_bits == 64
        assert planned.pairs == classic.pairs

    def test_auto_plan_does_not_inject_bits(self):
        """The signature decision annotates; the algorithm still derives b."""
        r = random_relation(40, 40, 200, seed=55, )
        s = random_relation(40, 36, 200, seed=56)
        p = plan(r, s)
        assert "bits" not in p.kwargs()
        auto = set_containment_join(r, s)
        classic = make_algorithm(p.algorithm).join(r, s)
        assert auto.stats.signature_bits == classic.stats.signature_bits


# ----------------------------------------------------------------------
# Explain output
# ----------------------------------------------------------------------
class TestExplain:
    def test_explain_tree_shape(self):
        p = plan(random_relation(30, 40, 200, seed=57),
                 random_relation(30, 36, 200, seed=58))
        text = p.explain()
        assert text.startswith("Plan: ")
        for name in ("algorithm", "signature", "executor", "chunking"):
            assert f" {name} = " in text

    def test_explain_shows_costed_rejected_alternatives(self):
        """Acceptance criterion: >= 2 rejected alternatives with estimates."""
        p = plan(random_relation(30, 40, 200, seed=57),
                 random_relation(30, 36, 200, seed=58))
        costed_rejects = [
            line for line in p.explain().splitlines()
            if "rejected:" in line and "cost=" in line
        ]
        assert len(costed_rejects) >= 2

    def test_explain_marks_pinned_plans(self):
        r = Relation.from_sets([{1, 2}])
        assert "(pinned)" in plan(r, r, algorithm="tsj").explain()

    def test_model_regime_disagreement_is_visible(self):
        """The model's cheapest pick is named even when the regime overrides."""
        p = Planner().plan(make_stats(100), make_stats(100))
        assert "model_cheapest" in p.decision("algorithm").detail_dict()


# ----------------------------------------------------------------------
# Pool break-even: the pool is charged its cost
# ----------------------------------------------------------------------
class TestPoolBreakEven:
    def test_small_join_stays_inline_and_shows_the_charged_pool(self):
        r, s = make_stats(1000), make_stats(1000)
        p = Planner().plan(r, s, Workload(workers=4))
        assert p.executor == "inline"
        assert p.options() == {}
        executor = p.decision("executor")
        pool = next(alt for alt in executor.rejected if alt.choice == "parallel")
        profile = COST_PROFILES[p.algorithm]
        bits = Planner()._signature_bits(r, s, {})
        assert pool.cost == profile.estimate_parallel(r, s, bits, 4, expected_pairs(r, s))
        assert pool.cost.total >= executor.cost.total
        detail = executor.detail_dict()
        assert detail["pool_estimate"] >= detail["inline_estimate"]
        text = p.explain()
        assert "executor = inline" in text
        assert "not below inline's" in text
        assert "pool_estimate" in text and "inline_estimate" in text

    def test_large_join_plans_the_pool(self):
        p = Planner().plan(make_stats(20000), make_stats(20000), Workload(workers=4))
        assert p.executor == "parallel"
        assert p.options() == {"workers": 4, "chunks": 4}
        executor = p.decision("executor")
        assert executor.cost.total < executor.detail_dict()["inline_estimate"]
        inline = next(alt for alt in executor.rejected if alt.choice == "inline")
        assert inline.cost.total > executor.cost.total

    @pytest.mark.parametrize("size", [10, 1000, 20000])
    def test_fault_tolerance_plans_resilient_at_any_size(self, size):
        workload = Workload(workers=2, fault_tolerance=True)
        assert Planner().plan(make_stats(size), make_stats(size), workload).executor == "resilient"

    @pytest.mark.parametrize("size", [10, 1000, 20000])
    def test_shards_plan_sharded_at_any_size(self, size):
        workload = Workload(workers=2, shards=2)
        assert Planner().plan(make_stats(size), make_stats(size), workload).executor == "sharded"

    @pytest.mark.parametrize("size", [10, 20000])
    def test_probe_many_stays_inline(self, size):
        workload = Workload(mode="probe_many", workers=4)
        assert Planner().plan(None, make_stats(size), workload).executor == "inline"

    def test_expected_pairs_charge_the_pool(self):
        r, s = make_stats(1000), make_stats(1000)
        profile = COST_PROFILES["ptsj"]
        quiet = profile.estimate_parallel(r, s, 256, 2, 0.0)
        loud = profile.estimate_parallel(r, s, 256, 2, 1e6)
        assert loud.probe - quiet.probe == pytest.approx(0.5e6 * profile.pool_pair_units)
        assert quiet.build == profile.estimate(r, s, 256).build

    def test_unfitted_profiles_charge_nothing(self):
        for name, profile in COST_PROFILES.items():
            if name not in AUTO_CANDIDATES:
                assert profile.pool_child_units == profile.pool_pair_units == 0.0

    def test_expected_pairs_bounds(self):
        empty = RelationStats(0, 0.0, 0.0, 0, 0, 0, 0, 0)
        assert expected_pairs(empty, make_stats(10)) == 0.0
        # Probe sets that cover the whole domain contain every data set.
        full = RelationStats(50, 64.0, 64.0, 64, 64, 64, 50 * 64, 49, 0.0, 63)
        assert expected_pairs(full, make_stats(40, avg_c=8, median_c=8, domain=64)) == (
            pytest.approx(50 * 40, rel=1e-3)
        )
        # Sparse sets over a wide domain almost never contain each other.
        wide = make_stats(1000, domain=1 << 20)
        assert expected_pairs(wide, wide) < 1.0


class TestPoolGrid:
    """The committed break-even grid (``benchmarks/pool_grid.json``)."""

    @pytest.fixture(scope="class")
    def grid(self):
        from benchmarks.pool_grid import load_grid

        return load_grid()

    def _plan(self, row):
        r = RelationStats(**row["r_stats"])
        s = RelationStats(**row["s_stats"])
        return Planner().plan(r, s, Workload(workers=2))

    def test_every_row_plans_near_the_faster_arm(self, grid):
        for row in grid["rows"]:
            p = self._plan(row)
            label = f"{row['dataset']} {row['size']}"
            assert p.algorithm == row["algorithm"], label
            planned = row["pool_ms"] if p.executor == "parallel" else row["inline_ms"]
            # At most 1.1x the old always-pool choice, and inline only
            # where inline measured faster.
            assert planned <= 1.1 * row["pool_ms"], label
            if p.executor == "inline":
                assert row["inline_ms"] < row["pool_ms"], label

    def test_large_rows_keep_the_pool(self, grid):
        planned = {(row["dataset"], row["size"]): self._plan(row).executor for row in grid["rows"]}
        assert planned[("webbase", 3000)] == "parallel"
        assert planned[("twitter", 5000)] == "parallel"
        assert planned[("twitter", 500)] == "inline"

    def test_committed_charges_are_the_grid_fit(self, grid):
        from benchmarks.pool_grid import fit

        for name, (child, pair) in fit(grid).items():
            assert COST_PROFILES[name].pool_child_units == child, name
            assert COST_PROFILES[name].pool_pair_units == pair, name


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
class TestSerialization:
    @pytest.mark.parametrize("workload", [
        Workload(),
        Workload(mode="probe_many", probe_batches=7),
        Workload(memory_budget_tuples=64),
        Workload(workers=3, fault_tolerance=True),
        Workload(variant="similarity"),
    ], ids=["oneshot", "probe_many", "budget", "resilient", "variant"])
    def test_plan_roundtrips_through_json(self, workload):
        p = Planner().plan(make_stats(1000), make_stats(1000), workload)
        assert Plan.from_json(p.to_json()) == p

    def test_pinned_plan_with_kwargs_roundtrips(self):
        r = Relation.from_sets([{1, 2, 3}])
        p = plan(r, r, algorithm="ptsj", bits=128)
        restored = Plan.from_json(p.to_json(indent=2))
        assert restored == p
        assert restored.kwargs() == {"bits": 128}

    def test_deserialized_plan_executes(self):
        r = random_relation(20, 8, 40, seed=59)
        s = random_relation(20, 5, 40, seed=60)
        p = Plan.from_json(plan(r, s).to_json())
        direct = execute_plan(plan(r, s), r, s)
        assert set(execute_plan(p, r, s).pairs) == set(direct.pairs)

    def test_hand_built_plan_rejects_unknown_executor(self):
        with pytest.raises(PlanError, match="unknown executor"):
            Plan(algorithm="ptsj", executor="gpu")


# ----------------------------------------------------------------------
# Workload validation and validator consistency (one message everywhere)
# ----------------------------------------------------------------------
class TestValidatorConsistency:
    def test_workload_rejects_unknown_mode_and_variant(self):
        with pytest.raises(PlanError, match="unknown workload mode"):
            Workload(mode="batch")
        with pytest.raises(PlanError, match="unknown join variant"):
            Workload(variant="overlap")

    def test_workers_message_is_identical_everywhere(self):
        with pytest.raises(ValueError, match="workers must be positive, got 0") :
            Workload(workers=0)
        with pytest.raises(ValueError, match="workers must be positive, got 0"):
            ParallelJoin(workers=0)

    def test_max_tuples_message_is_identical_everywhere(self):
        with pytest.raises(ValueError, match="max_tuples must be positive, got -1"):
            Workload(memory_budget_tuples=-1)
        with pytest.raises(ValueError, match="max_tuples must be positive, got -1"):
            DiskPartitionedJoin(max_tuples=-1)

    def test_domain_errors_are_still_catchable(self):
        """The historical exception types survive the ValueError unification."""
        with pytest.raises(AlgorithmError):
            ParallelJoin(workers=0)
        with pytest.raises(ExternalMemoryError):
            DiskPartitionedJoin(max_tuples=0)
        with pytest.raises(ValueError):
            Workload(probe_batches=0)


# ----------------------------------------------------------------------
# Cost profiles and registry metadata
# ----------------------------------------------------------------------
class TestCostProfiles:
    def test_every_registry_algorithm_has_a_profile(self):
        assert set(COST_PROFILES) == set(ALGORITHMS)

    def test_only_the_production_pair_is_auto_eligible(self):
        eligible = {name for name, p in COST_PROFILES.items() if p.auto_eligible}
        assert eligible == set(AUTO_CANDIDATES)
        for name, profile in COST_PROFILES.items():
            if not profile.auto_eligible:
                assert profile.reject_reason

    def test_cost_profile_accessor_resolves_aliases(self):
        assert cost_profile("prettiplus") is COST_PROFILES["pretti+"]
        with pytest.raises(AlgorithmError):
            cost_profile("btree")

    def test_estimates_are_finite_and_positive(self):
        r, s = make_stats(1000), make_stats(1000)
        for name, profile in COST_PROFILES.items():
            estimate = profile.estimate(r, s, 256)
            assert estimate.total < float("inf")
            assert estimate.build >= 0 and estimate.probe > 0, name

    def test_degenerate_stats_do_not_crash_estimators(self):
        empty = RelationStats(0, 0.0, 0.0, 0, 0, 0, 0, 0)
        for profile in COST_PROFILES.values():
            assert profile.estimate(empty, empty, 8).total >= 0

    def test_cost_estimate_total(self):
        assert CostEstimate(build=2.0, probe=3.0).total == 5.0


# ----------------------------------------------------------------------
# Statistics memoization (satellite: compute-once derived quantities)
# ----------------------------------------------------------------------
class TestStatsMemoization:
    def test_compute_stats_is_cached_on_the_relation(self):
        relation = random_relation(50, 8, 60, seed=61)
        assert compute_stats(relation) is compute_stats(relation)

    def test_derived_quantities_are_cached_properties(self):
        stats = compute_stats(random_relation(50, 8, 60, seed=62))
        # cached_property memoizes into __dict__ on first access.
        assert "density" not in stats.__dict__
        first = stats.density
        assert stats.__dict__["density"] == first
        assert stats.cardinality_skew == stats.avg_cardinality / stats.median_cardinality

    def test_new_statistics_fields_match_relation(self):
        relation = random_relation(50, 8, 60, seed=63)
        stats = compute_stats(relation)
        assert stats.max_element == relation.max_element()
        assert stats.signature_domain == relation.max_element() + 1
        assert stats.cardinality_stddev >= 0

    def test_planning_consumes_cached_stats(self):
        """Planning twice never rescans: the second plan reuses the cache."""
        r = random_relation(40, 8, 60, seed=64)
        s = random_relation(40, 5, 60, seed=65)
        plan(r, s)
        cached_r, cached_s = r._stats, s._stats
        plan(r, s)
        assert r._stats is cached_r and s._stats is cached_s


# ----------------------------------------------------------------------
# Observability: the plan phase
# ----------------------------------------------------------------------
class TestPlanSpan:
    def test_planning_opens_a_plan_span(self):
        r = random_relation(20, 8, 40, seed=66)
        s = random_relation(20, 5, 40, seed=67)
        tracer = Tracer()
        with use(tracer):
            set_containment_join(r, s)
        span = tracer.root.find("plan")
        assert span is not None and span.calls == 1
        assert tracer.root.find("build") is not None

    def test_plan_phase_is_registered(self):
        from repro.obs.tracer import PHASES

        assert "plan" in PHASES


# ----------------------------------------------------------------------
# Sharded planning (PR 6: the planner costs S-index sharding)
# ----------------------------------------------------------------------
class TestShardedPlanning:
    def test_explicit_shard_hint_plans_sharded(self):
        workload = Workload(workers=2, shards=3)
        p = Planner().plan(make_stats(1000), make_stats(1000), workload)
        assert p.executor == "sharded"
        assert p.options() == {"workers": 2, "shards": 3}
        chunking = p.decision("chunking")
        detail = chunking.detail_dict()
        assert detail["shards"] == 3
        assert 1.0 <= detail["expected_probe_fanout"] <= 3.0

    def test_sharded_decision_costs_the_alternatives(self):
        p = Planner().plan(make_stats(1000), make_stats(1000), Workload(workers=2, shards=3))
        executor = p.decision("executor")
        assert executor.choice == "sharded"
        assert executor.cost is not None
        assert {alt.choice for alt in executor.rejected} >= {"inline", "parallel"}

    def test_probe_many_beats_shard_hint(self):
        workload = Workload(mode="probe_many", workers=4, shards=4)
        p = Planner().plan(None, make_stats(1000), workload)
        assert p.executor == "inline"
        rejected = {alt.choice for alt in p.decision("executor").rejected}
        assert "sharded" in rejected

    def test_unsharded_plans_record_sharded_as_rejected(self):
        p = Planner().plan(make_stats(20000), make_stats(20000), Workload(workers=4))
        assert p.executor == "parallel"
        rejected = {alt.choice for alt in p.decision("executor").rejected}
        assert "sharded" in rejected

    def test_shard_count_scales_with_budget_pressure(self):
        planner = Planner()
        r, s = make_stats(1000), make_stats(1000)
        assert planner._shard_count(r, s, Workload(workers=4)) == 4
        assert planner._shard_count(r, s, Workload(workers=4, shards=9)) == 9
        # Budget pressure raises the count past the worker count.
        assert planner._shard_count(
            r, s, Workload(workers=4, memory_budget_tuples=100)
        ) == 10

    def test_sharded_plan_round_trips_and_executes(self):
        r = random_relation(40, 6, 30, seed=71)
        s = random_relation(40, 4, 30, seed=72)
        p = plan(r, s, workload=Workload(workers=2, shards=2))
        assert p.executor == "sharded"
        revived = Plan.from_json(p.to_json())
        assert revived.workload.shards == 2
        result = execute_plan(revived, r, s)
        inline = execute_plan(Plan(algorithm=p.algorithm), r, s)
        assert sorted(result.pairs) == sorted(inline.pairs)

    def test_explain_renders_the_sharded_story(self):
        p = Planner().plan(make_stats(1000), make_stats(1000), Workload(workers=2, shards=3))
        text = p.explain()
        assert "sharded" in text
        assert "S-shard" in text
        assert "expected_probe_fanout" in text


class TestEstimateSharded:
    def test_one_shard_one_worker_is_the_base_estimate(self):
        r, s = make_stats(1000), make_stats(1000)
        profile = COST_PROFILES["ptsj"]
        base = profile.estimate(r, s, 64)
        sharded = profile.estimate_sharded(r, s, 64, shards=1, workers=1)
        assert sharded.build == base.build
        assert sharded.probe == base.probe

    def test_parallelism_divides_the_build(self):
        r, s = make_stats(1000), make_stats(1000)
        profile = COST_PROFILES["ptsj"]
        base = profile.estimate(r, s, 64)
        sharded = profile.estimate_sharded(r, s, 64, shards=4, workers=4)
        assert sharded.build == pytest.approx(base.build / 4)

    def test_skew_penalises_element_placement_only(self):
        skewed = make_stats(1000, avg_c=32.0, median_c=4.0)  # skew = 8, capped at 2
        uniform = make_stats(1000, avg_c=32.0, median_c=32.0)
        profile = COST_PROFILES["ptsj"]
        penalised = profile.estimate_sharded(make_stats(1000), skewed, 64, 4, 4)
        clean = profile.estimate_sharded(make_stats(1000), uniform, 64, 4, 4)
        assert penalised.probe == pytest.approx(clean.probe * 2.0)

    def test_every_profile_estimates_sharded_without_error(self):
        r, s = make_stats(100), make_stats(100)
        for profile in COST_PROFILES.values():
            est = profile.estimate_sharded(r, s, 16, shards=3, workers=2)
            assert est.build >= 0 and est.probe >= 0
