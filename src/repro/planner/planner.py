"""The cost-based query planner: statistics + workload hints → a Plan.

``Planner.plan`` consumes :class:`~repro.relations.stats.RelationStats`
for both relations (never the records themselves — planning is O(1) once
statistics exist) plus a :class:`~repro.planner.plan.Workload` hint, and
emits an immutable :class:`~repro.planner.plan.Plan` with four decisions:

1. **algorithm** — which registry algorithm runs.  Every algorithm with a
   :class:`~repro.planner.profiles.CostProfile` is costed at this
   workload; automatic choice is regime-gated cost selection: only the
   paper's two production algorithms (PTSJ, PRETTI+) are auto-eligible,
   and the boundary between them follows the empirically validated regime
   rule (median cardinality vs. 2^5, Sec. V-C3/V-C5).  When the model
   units disagree with the regime rule, the plan says so instead of
   hiding it.
2. **signature** — the Sec. III-D length ``b`` the signature algorithms
   will derive, annotated with :func:`~repro.signatures.cost_model.
   estimate_ptsj_cost` evaluations at ``b`` and at the rejected
   neighbours ``b/2`` and ``2b`` (the Fig. 5 sweet-spot argument, run at
   plan time).
3. **executor** — in-process, partition-parallel (fail-fast or
   resilient), shard-partitioned scale-out, or the Sec. III-E4
   disk-partitioned nested loop, driven by the memory budget, worker and
   shard hints (see ``docs/EXECUTORS.md``).  A worker hint allows the
   fail-fast pool and does not force it: the pool's estimate is charged
   per child and per expected result pair home, and the join stays
   inline unless that estimate is below inline's.
4. **chunking** — how the work is split for the chosen executor (probe
   chunks, S-shards, or disk partitions).

Decisions carry their cost estimates and every rejected alternative, so
``plan.explain()`` renders an EXPLAIN-style tree and the bench harness
can measure planner regret after the fact.
"""

from __future__ import annotations

import math

from repro.kernels import active_backend_name, available_backends, backend_source
from repro.obs.tracer import current_tracer
from repro.planner.plan import Alternative, CostEstimate, Decision, Plan, Workload
from repro.planner.profiles import COST_PROFILES, CostProfile, expected_pairs
from repro.relations.stats import RelationStats
from repro.signatures.length import SignatureLengthStrategy

__all__ = ["Planner"]

#: The auto-selection candidates: the paper's two production algorithms.
AUTO_CANDIDATES = ("ptsj", "pretti+")

#: The Sec. V-C3 regime boundary on the *median* set cardinality.
REGIME_MEDIAN_CARDINALITY = 32

#: Deliberately pessimistic calibration of cost-model units to wall time,
#: used only for deadline-feasibility screening: one model unit is one
#: expected elementary operation, and pure-Python traversal sustains on
#: the order of a few million of them per second.  Underestimating the
#: throughput makes the planner reject only plans that are hopeless by a
#: wide margin — runtime enforcement (the governor's polls) remains the
#: authoritative bound.
MODEL_UNITS_PER_SECOND = 1e6

_EMPTY_STATS = RelationStats(0, 0.0, 0.0, 0, 0, 0, 0, 0)


class Planner:
    """Plans set-containment joins from statistics and workload hints.

    Args:
        length_strategy: The Sec. III-D signature-length rule used for the
            signature decision (defaults to the paper's parameters).
        profiles: Cost-profile registry; defaults to the package's
            :data:`~repro.planner.profiles.COST_PROFILES`.
    """

    def __init__(
        self,
        length_strategy: SignatureLengthStrategy | None = None,
        profiles: dict[str, CostProfile] | None = None,
    ) -> None:
        self.length_strategy = length_strategy or SignatureLengthStrategy()
        self.profiles = profiles if profiles is not None else COST_PROFILES

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def plan(
        self,
        r_stats: RelationStats | None,
        s_stats: RelationStats,
        workload: Workload | None = None,
        algorithm: str | None = None,
        algorithm_kwargs: dict | None = None,
    ) -> Plan:
        """Produce a :class:`Plan` for joining ``R ⋈⊇ S``.

        Args:
            r_stats: Probe-side statistics; ``None`` for a prepare-only
                workload with no probe hint (the indexed side's own
                statistics stand in, exactly as the algorithms' internal
                Sec. III-D parameter selection does).
            s_stats: Indexed-side statistics.
            workload: Usage hints; defaults to a one-shot join.
            algorithm: Pre-pinned algorithm name (already registry-
                canonical); ``None`` lets the planner choose.
            algorithm_kwargs: Constructor kwargs forwarded verbatim to the
                algorithm (pinned plans keep runs bit-for-bit identical).

        The whole call runs under a ``plan`` tracer span, so traces show
        planning time and the chosen path beside build/probe.
        """
        workload = workload or Workload()
        kwargs = dict(algorithm_kwargs or {})
        tracer = current_tracer()
        with tracer.span("plan"):
            effective_r = r_stats if r_stats is not None else s_stats
            if effective_r is None:  # pragma: no cover - s_stats is required
                effective_r = _EMPTY_STATS
            bits = self._signature_bits(r_stats, s_stats, kwargs)
            algo_decision = self._decide_algorithm(
                effective_r, s_stats, workload, bits, algorithm
            )
            chosen = algo_decision.choice
            decisions = [algo_decision]
            decisions.append(
                self._decide_signature(effective_r, s_stats, chosen, bits, kwargs)
            )
            chosen_cost = algo_decision.cost
            executor_decision, executor, executor_options = self._decide_executor(
                effective_r, s_stats, workload, chosen_cost, chosen, bits
            )
            decisions.append(executor_decision)
            chunk_decision, chunk_options = self._decide_chunking(
                effective_r, s_stats, workload, executor
            )
            decisions.append(chunk_decision)
            decisions.append(self._decide_kernel())
            if workload.deadline_seconds is not None:
                decisions.append(self._decide_governance(workload, chosen_cost))
            executor_options.update(chunk_options)
            plan = Plan(
                algorithm=chosen,
                algorithm_kwargs=tuple(kwargs.items()),
                executor=executor,
                executor_options=tuple(executor_options.items()),
                workload=workload,
                decisions=tuple(decisions),
                pinned=algorithm is not None,
            )
            if tracer.enabled:
                tracer.count("plans")
        return plan

    # ------------------------------------------------------------------
    # Decision: algorithm
    # ------------------------------------------------------------------
    def _estimate(
        self, name: str, r: RelationStats, s: RelationStats, bits: int
    ) -> CostEstimate | None:
        profile = self.profiles.get(name)
        if profile is None:
            return None
        return profile.estimate(r, s, bits)

    def _decide_algorithm(
        self,
        r: RelationStats,
        s: RelationStats,
        workload: Workload,
        bits: int,
        pinned: str | None,
    ) -> Decision:
        estimates = {
            name: profile.estimate(r, s, bits)
            for name, profile in self.profiles.items()
        }
        if pinned is not None:
            return Decision(
                name="algorithm",
                choice=pinned,
                reason="pinned by caller; planner records but does not second-guess it",
                cost=estimates.get(pinned),
                rejected=(),
                detail=(("median_cardinality", s.median_cardinality),),
            )

        regime_pick = s.recommended_algorithm()
        median = s.median_cardinality
        comparison = "<" if median < REGIME_MEDIAN_CARDINALITY else ">="
        regime_reason = (
            f"regime rule (Sec. V-C3/V-C5): median |s.set| = {median:g} "
            f"{comparison} {REGIME_MEDIAN_CARDINALITY}"
        )
        chosen = regime_pick
        chosen_cost = estimates.get(chosen)

        rejected: list[Alternative] = []
        runner_up = next(name for name in AUTO_CANDIDATES if name != chosen)
        rejected.append(
            Alternative(
                choice=runner_up,
                reason=f"{regime_reason} favours {chosen}",
                cost=estimates.get(runner_up),
            )
        )
        for name, profile in self.profiles.items():
            if name in AUTO_CANDIDATES:
                continue
            rejected.append(
                Alternative(choice=name, reason=profile.reject_reason, cost=estimates[name])
            )
        # Cheapest-by-model among ALL estimated algorithms; surfaced so a
        # model/regime disagreement is visible rather than silently decided.
        model_pick = min(estimates, key=lambda name: estimates[name].total)
        detail: list[tuple[str, object]] = [
            ("median_cardinality", median),
            ("cardinality_skew", round(s.cardinality_skew, 3)
             if s.cardinality_skew != float("inf") else "inf"),
            ("model_cheapest", model_pick),
        ]
        if workload.mode == "probe_many" and chosen_cost is not None:
            amortised = chosen_cost.build + workload.probe_batches * chosen_cost.probe
            detail.append(("amortised_cost", round(amortised, 3)))
        return Decision(
            name="algorithm",
            choice=chosen,
            reason=f"{regime_reason}; model cost {chosen_cost.total:.3g}"
            if chosen_cost is not None else regime_reason,
            cost=chosen_cost,
            rejected=tuple(rejected),
            detail=tuple(detail),
        )

    # ------------------------------------------------------------------
    # Decision: signature length
    # ------------------------------------------------------------------
    def _signature_bits(
        self,
        r: RelationStats | None,
        s: RelationStats,
        kwargs: dict,
    ) -> int:
        """The Sec. III-D length the signature algorithms will derive.

        The same :meth:`SignatureLengthStrategy.choose_for_stats` call as
        ``SignatureJoinBase._choose_bits``: combined R+S statistics when
        probe statistics exist (the one-shot join path), the indexed side
        alone otherwise.
        """
        explicit = kwargs.get("bits")
        if explicit is not None:
            return int(explicit)
        return self.length_strategy.choose_for_stats(s, r)

    def _decide_signature(
        self,
        r: RelationStats,
        s: RelationStats,
        algorithm: str,
        bits: int,
        kwargs: dict,
    ) -> Decision:
        profile = self.profiles.get(algorithm)
        if profile is not None and not profile.uses_signature:
            return Decision(
                name="signature",
                choice="none",
                reason=f"{algorithm} is intersection-based: exact inverted-list "
                       "results, no signature filter to size",
            )
        explicit = kwargs.get("bits")
        cost_at = lambda b: self._estimate(algorithm, r, s, b)  # noqa: E731
        if explicit is not None:
            derived = self._signature_bits(r, s, {})
            return Decision(
                name="signature",
                choice=f"{explicit} bits",
                reason="explicit bits pinned by caller",
                cost=cost_at(int(explicit)),
                rejected=(
                    Alternative(
                        choice=f"{derived} bits",
                        reason="Sec. III-D strategy value, overridden by caller",
                        cost=cost_at(derived),
                    ),
                ),
            )
        # The Fig. 5 sweet-spot argument evaluated at plan time: the
        # strategy's b against its halved/doubled neighbours.
        neighbours = []
        for candidate, label in ((max(bits // 2, 8), "halved"), (bits * 2, "doubled")):
            if candidate == bits:
                continue
            neighbours.append(
                Alternative(
                    choice=f"{candidate} bits",
                    reason=f"{label} signature leaves the Sec. III-D sweet spot",
                    cost=cost_at(candidate),
                )
            )
        return Decision(
            name="signature",
            choice=f"{bits} bits",
            reason="Sec. III-D strategy b = min(d, ratio*c*Int, cap); derived "
                   "in-algorithm from the same statistics at build time",
            cost=cost_at(bits),
            rejected=tuple(neighbours),
            detail=(("int_bits", self.length_strategy.int_bits),
                    ("ratio", self.length_strategy.ratio)),
        )

    # ------------------------------------------------------------------
    # Decision: executor
    # ------------------------------------------------------------------
    def _shard_count(
        self, r: RelationStats, s: RelationStats, workload: Workload
    ) -> int:
        """The S-shard count a sharded plan would use at this workload.

        An explicit hint wins; otherwise one shard per worker, raised
        until each shard's S-partition fits the memory budget (that is
        the sharded executor's answer to budget pressure: ``n`` small
        indexes instead of one big one).
        """
        if workload.shards is not None:
            return workload.shards
        shards = workload.workers
        budget = workload.memory_budget_tuples
        if budget is not None and s.size > budget:
            shards = max(shards, math.ceil(s.size / budget))
        return shards

    def _decide_executor(
        self,
        r: RelationStats,
        s: RelationStats,
        workload: Workload,
        algo_cost: CostEstimate | None,
        algorithm: str,
        bits: int,
    ) -> tuple[Decision, str, dict]:
        budget = workload.memory_budget_tuples
        total_tuples = r.size + s.size
        scaled = None
        if algo_cost is not None and workload.workers > 1:
            scaled = CostEstimate(
                build=algo_cost.build, probe=algo_cost.probe / workload.workers
            )
        profile = self.profiles.get(algorithm)
        shards = self._shard_count(r, s, workload)
        sharded_cost = (
            profile.estimate_sharded(r, s, bits, shards, workload.workers)
            if profile is not None
            else None
        )

        if workload.mode == "probe_many":
            batches = workload.probe_batches
            return (
                Decision(
                    name="executor",
                    choice="inline",
                    reason=f"prepare-once/probe-many: one index build amortised "
                           f"over {batches} probe batch(es); prepared-index "
                           "reuse, never a rebuild",
                    cost=algo_cost,
                    rejected=(
                        Alternative(
                            "parallel",
                            "parallel executors rebuild per join call; the "
                            "prepared index must outlive this plan",
                        ),
                        Alternative(
                            "sharded",
                            "shard indexes are rebuilt per join call; "
                            "incompatible with index reuse",
                        ),
                        Alternative(
                            "disk",
                            "disk partitioning re-spills per join call; "
                            "incompatible with index reuse",
                        ),
                    ),
                    detail=(("probe_batches", batches), ("reused_index", True)),
                ),
                "inline",
                {},
            )

        if workload.shards is not None:
            return (
                Decision(
                    name="executor",
                    choice="sharded",
                    reason=f"{workload.shards} S-shard(s) requested: per-shard "
                           "indexes built and probed across "
                           f"{workload.workers} worker(s), probes routed by "
                           "partition key",
                    cost=sharded_cost,
                    rejected=(
                        Alternative(
                            "inline",
                            "single-process probing ignores the shard hint",
                            cost=algo_cost,
                        ),
                        Alternative(
                            "parallel",
                            "shares one full-size index; sharding was "
                            "explicitly requested",
                            cost=scaled,
                        ),
                        Alternative(
                            "disk",
                            "sequential partition loads; shard workers probe "
                            "concurrently instead",
                        ),
                    ),
                    detail=(("shards", workload.shards),
                            ("workers", workload.workers)),
                ),
                "sharded",
                {"workers": workload.workers},
            )

        if budget is not None and total_tuples > budget:
            if workload.workers > 1:
                return (
                    Decision(
                        name="executor",
                        choice="sharded",
                        reason=f"|R| + |S| = {total_tuples} tuples exceeds the "
                               f"memory budget of {budget} and "
                               f"{workload.workers} workers are hinted: "
                               f"{shards} per-worker shard indexes of "
                               f"~{math.ceil(s.size / shards)} tuples each "
                               "fit the budget",
                        cost=sharded_cost,
                        rejected=(
                            Alternative(
                                "inline",
                                f"relations do not fit the {budget}-tuple "
                                "budget",
                            ),
                            Alternative(
                                "parallel",
                                "replicates the full index into every "
                                "worker; the budget binds",
                                cost=scaled,
                            ),
                            Alternative(
                                "disk",
                                "single-process partition loads leave "
                                "hinted workers idle",
                                cost=algo_cost,
                            ),
                        ),
                        detail=(("memory_budget_tuples", budget),
                                ("total_tuples", total_tuples),
                                ("shards", shards)),
                    ),
                    "sharded",
                    {"workers": workload.workers},
                )
            return (
                Decision(
                    name="executor",
                    choice="disk",
                    reason=f"|R| + |S| = {total_tuples} tuples exceeds the "
                           f"memory budget of {budget}; Sec. III-E4 "
                           "disk-partitioned nested loop",
                    cost=algo_cost,
                    rejected=(
                        Alternative(
                            "inline",
                            f"relations do not fit the {budget}-tuple budget",
                        ),
                        Alternative(
                            "parallel",
                            "worker pools multiply resident memory; the "
                            "budget binds first",
                            cost=scaled,
                        ),
                        Alternative(
                            "sharded",
                            "sharding needs a worker pool to pay off; one "
                            "worker hinted",
                            cost=sharded_cost,
                        ),
                    ),
                    detail=(("memory_budget_tuples", budget),
                            ("total_tuples", total_tuples)),
                ),
                "disk",
                {"max_tuples": budget},
            )

        if workload.workers > 1 and workload.fault_tolerance:
            return (
                Decision(
                    name="executor",
                    choice="resilient",
                    reason=f"{workload.workers} workers hinted and fault tolerance "
                           "asked for: one shared index build, probe chunks "
                           "fanned out to isolated children, whatever the size",
                    cost=scaled,
                    rejected=(
                        Alternative(
                            "inline",
                            "an in-process probe cannot be retried, timed out "
                            "or isolated",
                            cost=algo_cost,
                        ),
                        Alternative("parallel", "fail-fast pool rejected: the "
                                                "workload asks for fault tolerance "
                                                "(retry/timeout/fallback)", cost=scaled),
                        Alternative(
                            "sharded",
                            "S fits in one process: one shared index build "
                            "beats per-shard rebuilds",
                            cost=sharded_cost,
                        ),
                        Alternative("disk", "relations fit in memory"),
                    ),
                    detail=(("workers", workload.workers),),
                ),
                "resilient",
                {"workers": workload.workers},
            )

        if workload.workers > 1:
            return self._decide_pool(r, s, workload, algo_cost, profile, bits, sharded_cost)

        return (
            Decision(
                name="executor",
                choice="inline",
                reason=f"|S| = {s.size} tuples indexes in-process; no budget "
                       "pressure and a single worker hinted",
                cost=algo_cost,
                rejected=(
                    Alternative("parallel", "workers hint is 1: pool startup "
                                            "would cost more than it saves"),
                    Alternative("sharded", "workers hint is 1 and no shard "
                                           "count requested"),
                    Alternative("disk", "no memory budget set"
                                if budget is None else
                                f"relations fit the {budget}-tuple budget"),
                ),
            ),
            "inline",
            {},
        )

    def _decide_pool(
        self,
        r: RelationStats,
        s: RelationStats,
        workload: Workload,
        algo_cost: CostEstimate | None,
        profile: CostProfile | None,
        bits: int,
        sharded_cost: CostEstimate | None,
    ) -> tuple[Decision, str, dict]:
        """Pool or inline for a plain ``workers > 1`` one-shot join.

        The pool's estimate carries its charges (per child, per expected
        pair home; :meth:`CostProfile.estimate_parallel`), and the join
        stays inline unless that estimate is below inline's.
        """
        workers = workload.workers
        children = workers - 1
        others = (
            Alternative(
                "sharded",
                "S fits in one process: one shared index build beats "
                "per-shard rebuilds",
                cost=sharded_cost,
            ),
            Alternative("disk", "relations fit in memory"),
        )
        if algo_cost is None or profile is None:
            # No model to charge: the hint alone decides, as it always did.
            return (
                Decision(
                    name="executor",
                    choice="parallel",
                    reason=f"{workers} workers hinted and no cost model to "
                           "charge the pool against: probe chunks fanned out",
                    rejected=(
                        Alternative("inline", "single-process probing leaves "
                                              "hinted workers idle"),
                        *others,
                    ),
                    detail=(("workers", workers),),
                ),
                "parallel",
                {"workers": workers},
            )
        pairs = expected_pairs(r, s)
        pool_cost = profile.estimate_parallel(r, s, bits, workers, pairs)
        detail = (
            ("workers", workers),
            ("inline_estimate", round(algo_cost.total, 1)),
            ("pool_estimate", round(pool_cost.total, 1)),
            ("pool_child_units", profile.pool_child_units),
            ("pool_pair_units", profile.pool_pair_units),
            ("expected_pairs", round(pairs, 1)),
        )
        charges = (
            f"{children} child(ren) at {profile.pool_child_units:.3g} and "
            f"~{pairs * children / workers:.3g} pair(s) home at "
            f"{profile.pool_pair_units:.3g}"
        )
        if pool_cost.total < algo_cost.total:
            return (
                Decision(
                    name="executor",
                    choice="parallel",
                    reason=f"{workers} workers hinted and the pool's charged "
                           f"estimate {pool_cost.total:.3g} is below inline's "
                           f"{algo_cost.total:.3g}: one shared index build, "
                           f"probe chunks fanned out ({charges})",
                    cost=pool_cost,
                    rejected=(
                        Alternative(
                            "inline",
                            "the probe split saves more than the pool's "
                            "charges cost",
                            cost=algo_cost,
                        ),
                        Alternative(
                            "resilient",
                            "no fault-tolerance requested; fail-fast pool has "
                            "less bookkeeping",
                            cost=pool_cost,
                        ),
                        *others,
                    ),
                    detail=detail,
                ),
                "parallel",
                {"workers": workers},
            )
        return (
            Decision(
                name="executor",
                choice="inline",
                reason=f"{workers} workers hinted, but the pool's charged "
                       f"estimate {pool_cost.total:.3g} is not below inline's "
                       f"{algo_cost.total:.3g}: {charges} cost more than the "
                       "probe split saves",
                cost=algo_cost,
                rejected=(
                    Alternative(
                        "parallel",
                        "the pool's charges outweigh its probe split; "
                        "ParallelJoin or --executor parallel pins it",
                        cost=pool_cost,
                    ),
                    Alternative(
                        "resilient",
                        "no fault-tolerance requested",
                        cost=pool_cost,
                    ),
                    *others,
                ),
                detail=detail,
            ),
            "inline",
            {},
        )

    # ------------------------------------------------------------------
    # Decision: kernel backend
    # ------------------------------------------------------------------
    def _decide_kernel(self) -> Decision:
        """Record which batch-kernel backend the probe loop will run on.

        The backend is process state (explicit ``set_default_backend`` /
        CLI ``--backend``, else ``REPRO_KERNEL``, else auto-selection),
        not something the planner chooses — but the plan records it, with
        the other available backends, so EXPLAIN shows it and executed
        stats can be matched against the backend the plan assumed.
        """
        chosen = active_backend_name()
        source = backend_source()
        avail = available_backends()
        source_text = {
            "explicit": "set explicitly (set_default_backend / --backend)",
            "env": "forced by REPRO_KERNEL",
            "auto": "auto-selected (first importable of "
                    + " > ".join(avail if avail else ("python",)) + ")",
        }.get(source, source)
        rejected = tuple(
            Alternative(
                choice=backend,
                reason="available; selection order is explicit > "
                       "REPRO_KERNEL > auto",
            )
            for backend in avail
            if backend != chosen
        )
        return Decision(
            name="kernel",
            choice=chosen,
            reason=f"batch probe kernels run on the {chosen!r} backend, "
                   f"{source_text}",
            rejected=rejected,
            detail=(
                ("available", ", ".join(avail)),
                ("source", source),
            ),
        )

    # ------------------------------------------------------------------
    # Decision: governance (only when a deadline is set)
    # ------------------------------------------------------------------
    def _decide_governance(
        self, workload: Workload, cost: CostEstimate | None
    ) -> Decision:
        """Deadline-feasibility screening for the whole plan.

        The chosen algorithm's model-unit cost, converted through the
        deliberately pessimistic :data:`MODEL_UNITS_PER_SECOND`
        calibration, is compared against the workload deadline; a plan
        whose *estimate* already cannot finish is marked infeasible, and
        :func:`~repro.planner.executor.execute_plan` refuses to start it
        (failing in microseconds instead of at the deadline).  The reason
        is EXPLAIN-visible either way.
        """
        deadline = workload.deadline_seconds
        assert deadline is not None
        estimated = cost.total / MODEL_UNITS_PER_SECOND if cost is not None else None
        feasible = estimated is None or estimated <= deadline
        detail: list[tuple[str, object]] = [
            ("deadline_seconds", deadline),
            ("feasible", feasible),
        ]
        if estimated is not None:
            detail.append(("estimated_seconds", round(estimated, 6)))
            detail.append(("model_units_per_second", MODEL_UNITS_PER_SECOND))
        if workload.max_memory_bytes is not None:
            detail.append(("max_memory_bytes", workload.max_memory_bytes))
        if not feasible:
            reason = (
                f"infeasible: the model estimates ~{estimated:.3g}s of work "
                f"(at a pessimistic {MODEL_UNITS_PER_SECOND:g} units/s) "
                f"against a {deadline:g}s deadline; execute_plan will refuse "
                "to start this plan"
            )
            choice = "infeasible"
        elif estimated is None:
            reason = (
                f"{deadline:g}s deadline enforced at runtime only: no cost "
                "model for the chosen algorithm, so feasibility cannot be "
                "pre-screened"
            )
            choice = f"deadline {deadline:g}s"
        else:
            reason = (
                f"model estimate ~{estimated:.3g}s fits the {deadline:g}s "
                "deadline; runtime polls remain the authoritative bound"
            )
            choice = f"deadline {deadline:g}s"
        return Decision(
            name="governance",
            choice=choice,
            reason=reason,
            cost=cost,
            detail=tuple(detail),
        )

    # ------------------------------------------------------------------
    # Decision: chunking
    # ------------------------------------------------------------------
    def _decide_chunking(
        self,
        r: RelationStats,
        s: RelationStats,
        workload: Workload,
        executor: str,
    ) -> tuple[Decision, dict]:
        if executor in ("parallel", "resilient"):
            chunks = workload.workers
            per_chunk = math.ceil(r.size / chunks) if r.size else 0
            return (
                Decision(
                    name="chunking",
                    choice=f"{chunks} probe chunk(s)",
                    reason="one chunk per worker: chunks are retried/failed "
                           "independently, and R ⋈⊇ S = ∪ᵢ (Rᵢ ⋈⊇ S)",
                    detail=(("chunks", chunks), ("tuples_per_chunk", per_chunk)),
                ),
                {"chunks": chunks},
            )
        if executor == "sharded":
            shards = self._shard_count(r, s, workload)
            per_shard = math.ceil(s.size / shards) if s.size else 0
            c_r = max(r.avg_cardinality, 1.0)
            fanout = (
                shards * (1.0 - (1.0 - 1.0 / shards) ** c_r) if shards > 1 else 1.0
            )
            return (
                Decision(
                    name="chunking",
                    choice=f"{shards} S-shard(s), element partitioning",
                    reason="s lives in shard min(s) mod n; s ⊆ r implies "
                           "min(s) ∈ r, so routing each probe to its element "
                           "residues reaches every possible subset",
                    detail=(("shards", shards),
                            ("tuples_per_shard", per_shard),
                            ("expected_probe_fanout", round(fanout, 3))),
                ),
                {"shards": shards},
            )
        if executor == "disk":
            budget = workload.memory_budget_tuples or max(r.size + s.size, 1)
            r_parts = max(1, math.ceil(r.size / budget)) if r.size else 1
            s_parts = max(1, math.ceil(s.size / budget)) if s.size else 1
            return (
                Decision(
                    name="chunking",
                    choice=f"{r_parts}x{s_parts} partition pairs",
                    reason="block nested loop over spilled partitions; "
                           "partition loads grow quadratically (Sec. III-E4)",
                    detail=(("r_partitions", r_parts), ("s_partitions", s_parts),
                            ("partition_loads", r_parts * s_parts + s_parts)),
                ),
                {},
            )
        return (
            Decision(
                name="chunking",
                choice="single batch",
                reason="in-process execution probes the whole relation in one "
                       "streamed batch",
                detail=(("probe_tuples", r.size),),
            ),
            {},
        )
