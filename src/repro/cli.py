"""Command-line interface: ``repro-scj``.

Subcommands:

* ``generate`` — write a synthetic or surrogate dataset to a text file;
* ``stats`` — print Table III-style statistics of a dataset file;
* ``join`` — run a set-containment join between two dataset files;
* ``explain`` — print the cost-based planner's decision tree for a join
  without running it (algorithm, signature length, executor, chunking,
  each with cost estimates and rejected alternatives);
* ``probe`` — build one index, then probe it with several query files
  (the build-once/probe-many serving path);
* ``backends`` — list the batch-kernel backends (docs/KERNELS.md) and
  which one the process selected;
* ``bench`` — run one of the paper's experiments and print its figure.

``join``/``probe``/``explain``/``serve`` accept ``--backend NAME`` to
pin the kernel backend for the run (equivalent to ``REPRO_KERNEL``).

Examples::

    repro-scj generate --size 1024 --cardinality 16 --domain 16384 -o r.txt
    repro-scj generate --dataset flickr --size 2000 -o flickr.txt
    repro-scj stats r.txt
    repro-scj join r.txt s.txt --algorithm ptsj
    repro-scj join r.txt s.txt --algorithm shj --backend numpy
    repro-scj explain r.txt s.txt
    repro-scj join r.txt s.txt --workers 4 --explain
    repro-scj probe s.txt queries1.txt queries2.txt --algorithm ptsj
    repro-scj backends
    repro-scj bench fig6c
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import experiments, harness, memory, reporting
from repro.core.registry import (
    available_algorithms,
    execute_plan,
    plan as plan_join,
    prepare_index,
)
from repro.planner import Workload
from repro.datagen.realworld import SURROGATE_SPECS, make_surrogate
from repro.datagen.synthetic import SyntheticConfig, generate_relation
from repro.errors import ReproError
from repro.obs.clock import perf_counter
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    PhaseProfiler,
    Tracer,
    render_tree,
    use,
    write_trace,
)
from repro.relations.io import read_relation, write_join_result, write_relation
from repro.relations.stats import compute_stats

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-scj",
        description="Trie-based set-containment joins (Luo et al., ICDE 2015).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset file")
    gen.add_argument("--size", type=int, default=1024, help="relation size |R|")
    gen.add_argument("--cardinality", type=int, default=16, help="average set cardinality c")
    gen.add_argument("--domain", type=int, default=2 ** 14, help="domain cardinality d")
    gen.add_argument("--cardinality-dist", default="uniform",
                     choices=("uniform", "poisson", "zipf"))
    gen.add_argument("--element-dist", default="uniform",
                     choices=("uniform", "poisson", "zipf"))
    gen.add_argument("--dataset", choices=sorted(SURROGATE_SPECS),
                     help="generate a real-world surrogate instead")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True, help="output path (set per line)")

    def add_on_error(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--on-error", default="raise",
                         choices=("raise", "skip", "collect"),
                         help="malformed input lines: abort (raise, default), "
                              "drop silently (skip), or drop and print a "
                              "line-by-line skip report (collect)")

    def add_observability(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--trace", metavar="FILE",
                         help="run under a tracer, print the phase span "
                              "tree, and write it to FILE as JSONL "
                              "(see docs/OBSERVABILITY.md)")
        cmd.add_argument("--metrics", action="store_true",
                         help="collect a metrics registry (counters + "
                              "timing histograms) for the run and print "
                              "its snapshot")
        cmd.add_argument("--profile", metavar="PHASE", action="append",
                         default=None,
                         help="cProfile the named span phase (e.g. probe, "
                              "build); repeatable; prints the hot "
                              "functions per phase")
        cmd.add_argument("--trace-memory", action="store_true",
                         help="sample tracemalloc peaks per span "
                              "(implies tracing overhead)")

    def add_backend(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--backend", default=None, metavar="NAME",
                         help="kernel backend for batch probe kernels "
                              "(python, numpy, ...); default: REPRO_KERNEL "
                              "or auto-selection — see `repro-scj backends` "
                              "and docs/KERNELS.md")

    def add_workload(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--workers", type=int, default=1,
                         help="worker processes available to the planner; "
                              "above 1 it allows a worker pool but does not "
                              "force one: the join stays inline unless the "
                              "pool's charged estimate beats inline's "
                              "(--executor parallel pins the pool)")
        cmd.add_argument("--memory-budget", type=int, default=None,
                         metavar="TUPLES",
                         help="largest relation slice that fits in memory; "
                              "when |R|+|S| exceeds it the planner selects "
                              "the disk-partitioned executor")
        cmd.add_argument("--fault-tolerant", action="store_true",
                         help="prefer the resilient executor (per-chunk "
                              "retry/timeout/fallback) when a worker pool "
                              "is used")
        cmd.add_argument("--shards", type=int, default=None,
                         help="partition the S-index into this many shards "
                              "(selects the sharded scale-out executor; "
                              "see docs/EXECUTORS.md)")
        cmd.add_argument("--deadline-seconds", type=float, default=None,
                         help="whole-join wall-clock bound: the planner "
                              "rejects plans that cannot finish in time and "
                              "every build/probe loop polls it; composes "
                              "with the per-chunk --timeout-seconds "
                              "(see docs/ROBUSTNESS.md)")
        cmd.add_argument("--cancel-after", type=float, default=None,
                         metavar="SECONDS",
                         help="arm a cooperative cancel token that trips "
                              "after SECONDS; the join stops with a typed "
                              "CancelledError within one poll interval")
        cmd.add_argument("--max-memory", type=int, default=None,
                         metavar="BYTES",
                         help="index-build memory budget in bytes "
                              "(tracemalloc-sampled); a breach raises "
                              "BudgetExceededError, or degrades to a "
                              "partitioned executor on the resilient path")

    stat = sub.add_parser("stats", help="print dataset statistics (Table III columns)")
    stat.add_argument("path", help="dataset file, one set per line")
    add_on_error(stat)

    explain = sub.add_parser(
        "explain",
        help="print the planner's decision tree for a join without running it")
    explain.add_argument("r", help="probe relation file (containing side)")
    explain.add_argument("s", help="indexed relation file (contained side)")
    add_on_error(explain)
    explain.add_argument("--algorithm", default="auto",
                         help="auto (planner chooses) or a pinned name: "
                              f"{', '.join(available_algorithms())}")
    explain.add_argument("--bits", type=int, default=None,
                         help="signature length override (signature algorithms)")
    explain.add_argument("--probe-batches", type=int, default=None,
                         metavar="N",
                         help="plan a prepare-once/probe-many workload of N "
                              "probe batches instead of a one-shot join")
    add_workload(explain)
    add_backend(explain)
    explain.add_argument("--json", action="store_true",
                         help="print the serialized plan as JSON instead of "
                              "the tree")

    join = sub.add_parser("join", help="run a set-containment join R >= S")
    join.add_argument("r", help="probe relation file (containing side)")
    join.add_argument("s", help="indexed relation file (contained side)")
    add_on_error(join)
    join.add_argument("--algorithm", default="auto",
                      help=f"auto or one of: {', '.join(available_algorithms())}")
    join.add_argument("--bits", type=int, default=None,
                      help="signature length override (signature algorithms)")
    # --explain prints the planner's decision, so it cannot sit next to an
    # executor pinned past the planner.
    pinned = join.add_mutually_exclusive_group()
    pinned.add_argument("--executor", default=None,
                        choices=("inline", "parallel", "resilient", "disk", "sharded"),
                        help="run a specific repro.exec executor directly "
                             "instead of the one the planner picks from the "
                             "workload flags below (uses --workers/--shards/"
                             "--memory-budget/--retries/--timeout-seconds; "
                             "see docs/EXECUTORS.md)")
    join.add_argument("--retries", type=int, default=0,
                      help="with --executor resilient or sharded: retry "
                           "each failed probe chunk or shard up to N times "
                           "(see docs/ROBUSTNESS.md)")
    join.add_argument("--timeout-seconds", type=float, default=None,
                      help="with --executor resilient or sharded: per-chunk "
                           "wall-clock budget; over-budget chunks finish "
                           "in-process. Bounds one chunk, not the join — "
                           "for a whole-join bound use --deadline-seconds")
    join.add_argument("--no-fallback", action="store_true",
                      help="with --executor resilient or sharded: raise "
                           "instead of probing exhausted chunks in-process")
    pinned.add_argument("--explain", action="store_true",
                        help="print the planner's decision tree before running")
    add_workload(join)
    add_backend(join)
    join.add_argument("-o", "--output", help="write pairs to this file")
    add_observability(join)

    probe = sub.add_parser("probe",
                           help="build an index over S once, probe it with "
                                "each query file in turn")
    probe.add_argument("s", help="indexed relation file (contained side)")
    probe.add_argument("queries", nargs="+",
                       help="probe relation files, each joined against the "
                            "same prepared index")
    probe.add_argument("--algorithm", default="auto",
                       help=f"auto or one of: {', '.join(available_algorithms())}")
    probe.add_argument("--bits", type=int, default=None,
                       help="signature length override (signature algorithms)")
    add_on_error(probe)
    add_backend(probe)
    probe.add_argument("-o", "--output",
                       help="write the pairs of every batch to this file")
    add_observability(probe)

    lint = sub.add_parser(
        "lint",
        help="run the project-specific static analysis (docs/ANALYSIS.md)")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--select", action="append", metavar="RPRxxx",
                      help="run only the listed rule ids "
                           "(repeatable, comma-separated)")
    lint.add_argument("--format", choices=("text", "json", "github"),
                      default="text",
                      help="output format (default: text); 'github' emits "
                           "workflow-command annotations for CI")
    lint.add_argument("--statistics", action="store_true",
                      help="print per-rule violation counts")
    lint.add_argument("--list-rules", action="store_true",
                      help="list every registered rule and exit")

    serve = sub.add_parser(
        "serve",
        help="run a long-lived join server with a resident index cache "
             "(JSONL over TCP; docs/SERVER.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port; 0 picks a free one (printed at start)")
    serve.add_argument("--max-connections", type=int, default=8,
                       help="connections served concurrently (thread pool size)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="admission bound on concurrent probe/join requests "
                            "(default: --max-connections); excess requests get "
                            "a typed over_capacity rejection")
    serve.add_argument("--cache-capacity", type=int, default=32,
                       help="resident prepared indexes (LRU bound)")
    serve.add_argument("--cache-ttl", type=float, default=None, metavar="SECONDS",
                       help="prepared-index lifetime (default: no expiry)")
    serve.add_argument("--deadline-seconds", type=float, default=None,
                       help="default per-request deadline (a request's own "
                            "deadline_seconds overrides)")
    serve.add_argument("--max-memory", type=int, default=None, metavar="BYTES",
                       help="default per-request index-build memory budget")
    add_backend(serve)

    sub.add_parser(
        "backends",
        help="list the batch-kernel backends and which one is selected "
             "(docs/KERNELS.md)")

    bench = sub.add_parser("bench", help="run a paper experiment")
    bench.add_argument("experiment",
                       choices=("fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c",
                                "fig6d", "fig6e", "fig6f", "fig7a", "fig7b",
                                "fig7c", "fig7d", "fig8"),
                       help="paper figure to reproduce")
    bench.add_argument("--base", type=int, default=None,
                       help="base relation size (default: module default)")
    bench.add_argument("--repeats", type=int, default=1)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset:
        relation = make_surrogate(args.dataset, args.size, seed=args.seed)
    else:
        relation = generate_relation(
            SyntheticConfig(
                size=args.size,
                avg_cardinality=args.cardinality,
                domain=args.domain,
                cardinality_dist=args.cardinality_dist,
                element_dist=args.element_dist,
                seed=args.seed,
            )
        )
    write_relation(relation, args.output)
    stats = compute_stats(relation)
    print(f"wrote {stats.size} tuples to {args.output} "
          f"(avg c={stats.avg_cardinality:.2f}, d={stats.domain_cardinality})")
    return 0


def _read_dataset(path: str, on_error: str):
    """Read one dataset honouring ``--on-error``; print any skip report."""
    if on_error == "collect":
        relation, report = read_relation(path, on_error="collect")
        if not report.ok:
            print(report.summary(), file=sys.stderr)
        return relation
    return read_relation(path, on_error=on_error)


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = compute_stats(_read_dataset(args.path, args.on_error))
    rows = [[key, value] for key, value in stats.as_table_row().items()]
    rows.append(["c min/max", f"{stats.min_cardinality}/{stats.max_cardinality}"])
    rows.append(["duplicate sets", stats.duplicate_sets])
    rows.append(["recommended", stats.recommended_algorithm()])
    print(reporting.format_table(["statistic", "value"], rows, title=args.path))
    return 0


def _make_tracer(args: argparse.Namespace) -> Tracer | NullTracer:
    """Build the tracer the ``--trace``/``--metrics``/``--profile`` flags ask for."""
    wants_tracing = (
        getattr(args, "trace", None)
        or getattr(args, "metrics", False)
        or getattr(args, "profile", None)
        or getattr(args, "trace_memory", False)
    )
    if not wants_tracing:
        return NullTracer()
    return Tracer(
        name="repro-scj",
        registry=MetricsRegistry() if args.metrics else None,
        sample_memory=args.trace_memory,
        profiler=PhaseProfiler(args.profile) if args.profile else None,
    )


def _report_observability(args: argparse.Namespace, tracer: Tracer | NullTracer,
                          meta: dict | None = None) -> None:
    """Print/write whatever the observability flags requested."""
    if not tracer.enabled:
        return
    tracer.finish()
    print()
    print("phase breakdown:")
    print(render_tree(tracer.root))
    if args.trace:
        write_trace(args.trace, tracer.root, meta=meta)
        print(f"trace written to {args.trace}")
    if tracer.registry is not None:
        rows = sorted(tracer.registry.snapshot().items())
        print(reporting.format_table(["metric", "value"],
                                     [[name, f"{value:g}"] for name, value in rows],
                                     title="metrics"))
    if tracer.profiler is not None:
        for phase in tracer.profiler.profiled_phases():
            print(f"--- profile: {phase} ---")
            print(tracer.profiler.summary(phase))


def _workload_from_args(args: argparse.Namespace) -> Workload:
    """Build the planner's workload hints from the shared CLI flags."""
    probe_batches = getattr(args, "probe_batches", None)
    return Workload(
        mode="probe_many" if probe_batches else "oneshot",
        probe_batches=probe_batches or 1,
        memory_budget_tuples=args.memory_budget,
        workers=args.workers,
        fault_tolerance=args.fault_tolerant,
        shards=args.shards,
        deadline_seconds=args.deadline_seconds,
        max_memory_bytes=args.max_memory,
    )


def _policy_from_args(args: argparse.Namespace):
    """The governance policy the CLI flags describe, or ``None``.

    The deadline clock and the cancel countdown start here — when the
    join is about to run — not at parse time.
    """
    deadline_seconds = getattr(args, "deadline_seconds", None)
    cancel_after = getattr(args, "cancel_after", None)
    max_memory = getattr(args, "max_memory", None)
    if deadline_seconds is None and cancel_after is None and max_memory is None:
        return None
    from repro.governance import CancelToken, Deadline, GovernancePolicy
    from repro.obs.clock import monotonic

    deadline = Deadline.after(deadline_seconds) if deadline_seconds is not None else None
    cancel = (
        CancelToken(cancel_at=monotonic() + cancel_after)
        if cancel_after is not None
        else None
    )
    return GovernancePolicy(
        deadline=deadline, cancel=cancel, memory_budget_bytes=max_memory
    )


def _apply_backend(args: argparse.Namespace) -> None:
    """Pin the kernel backend named by ``--backend``, if any.

    Validation is eager: an unknown or unavailable backend raises
    :class:`~repro.kernels.base.KernelUnavailableError` (a
    :class:`ReproError`) here, so ``main`` prints a clean error and
    exits 2 before any dataset is read.
    """
    backend = getattr(args, "backend", None)
    if backend is not None:
        from repro.kernels import set_default_backend

        set_default_backend(backend)


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro import kernels

    active = kernels.active_backend_name()
    source = kernels.backend_source()
    rows = []
    for name in kernels.registered_backends():
        try:
            kernels.get_backend(name)
        except kernels.KernelUnavailableError:
            availability = "no"
        else:
            availability = "yes"
        marker = f"active ({source})" if name == active else ""
        rows.append((name, availability, marker))
    print(reporting.format_table(
        ("backend", "available", "selected"), rows, title="kernel backends"))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    _apply_backend(args)
    r = _read_dataset(args.r, args.on_error)
    s = _read_dataset(args.s, args.on_error)
    kwargs = {}
    if args.bits is not None:
        kwargs["bits"] = args.bits
    query_plan = plan_join(r, s, algorithm=args.algorithm,
                           workload=_workload_from_args(args), **kwargs)
    print(query_plan.to_json(indent=2) if args.json else query_plan.explain())
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    _apply_backend(args)
    r = _read_dataset(args.r, args.on_error)
    s = _read_dataset(args.s, args.on_error)
    kwargs = {}
    if args.bits is not None:
        kwargs["bits"] = args.bits
    algorithm = args.algorithm
    tracer = _make_tracer(args)
    policy = _policy_from_args(args)
    from repro.governance import govern

    start = perf_counter()
    with use(tracer), govern(policy):
        if not args.executor:
            query_plan = plan_join(r, s, algorithm=algorithm,
                                   workload=_workload_from_args(args), **kwargs)
            if args.explain:
                print(query_plan.explain())
                print()
            result = execute_plan(query_plan, r, s)
        else:
            result = _run_executor(args, r, s, algorithm, kwargs)
    elapsed = perf_counter() - start
    st = result.stats
    if tracer.registry is not None:
        st.snapshot_registry(tracer.registry)
    print(f"{st.algorithm}: {len(result)} pairs in {reporting.fmt_seconds(elapsed)} "
          f"(build {reporting.fmt_seconds(st.build_seconds)}, "
          f"probe {reporting.fmt_seconds(st.probe_seconds)}, "
          f"verifications {st.verifications}, node visits {st.node_visits})")
    degradation = {key: int(st.extras[key])
                   for key in ("retries", "timeouts", "fallback_chunks",
                               "fallback_shards", "pool_restarts",
                               "corrupt_chunks", "corrupt_shards",
                               "cancelled_chunks")
                   if st.extras.get(key)}
    if st.extras.get("degraded_to"):
        degradation["degraded_to"] = st.extras["degraded_to"]
    if degradation:
        print("degraded: " + ", ".join(f"{k}={v}" for k, v in degradation.items()),
              file=sys.stderr)
    _report_observability(args, tracer,
                          meta={"algorithm": st.algorithm, "r": args.r, "s": args.s})
    if args.output:
        write_join_result(result.pairs, args.output)
        print(f"pairs written to {args.output}")
    return 0


def _run_executor(args: argparse.Namespace, r, s, algorithm: str, kwargs: dict):
    """Run the executor ``--executor`` names, configured from the CLI flags."""
    from repro.core.registry import choose_algorithm_name
    from repro.exec import RetryPolicy, executor_class

    if algorithm.strip().lower() == "auto":
        algorithm = choose_algorithm_name(s)
    options: dict = {}
    if args.executor in ("parallel", "resilient", "sharded"):
        options["workers"] = args.workers
    if args.executor == "sharded" and args.shards is not None:
        options["shards"] = args.shards
    if args.executor in ("resilient", "sharded"):
        options["retry_policy"] = RetryPolicy(max_attempts=max(1, args.retries + 1))
        options["timeout_seconds"] = args.timeout_seconds
        options["fallback"] = not args.no_fallback
    if args.executor == "disk" and args.memory_budget is not None:
        options["max_tuples"] = args.memory_budget
    executor = executor_class(args.executor)(algorithm=algorithm, **options, **kwargs)
    return executor.join(r, s)


def _cmd_probe(args: argparse.Namespace) -> int:
    _apply_backend(args)
    s = _read_dataset(args.s, args.on_error)
    kwargs = {}
    if args.bits is not None:
        kwargs["bits"] = args.bits
    tracer = _make_tracer(args)
    all_pairs: list[tuple[int, int]] = []
    with use(tracer):
        index = prepare_index(s, algorithm=args.algorithm, **kwargs)
        print(f"{index.algorithm}: prepared index over {len(index)} tuples in "
              f"{reporting.fmt_seconds(index.build_seconds)} "
              f"({index.index_nodes} nodes)")
        for path in args.queries:
            result = index.probe_many(_read_dataset(path, args.on_error))
            st = result.stats
            print(f"{path}: {len(result)} pairs in "
                  f"{reporting.fmt_seconds(st.probe_seconds)} "
                  f"(probe #{int(st.extras['probe_calls'])}, "
                  f"reused_index={int(st.extras['reused_index'])}, "
                  f"build {reporting.fmt_seconds(st.build_seconds)})")
            all_pairs.extend(result.pairs)
    totals = index.join_stats()
    if tracer.registry is not None:
        totals.snapshot_registry(tracer.registry)
    print(f"total: {totals.pairs} pairs, build "
          f"{reporting.fmt_seconds(totals.build_seconds)} (once), probe "
          f"{reporting.fmt_seconds(totals.probe_seconds)} over "
          f"{index.probe_calls} batches")
    _report_observability(args, tracer,
                          meta={"algorithm": index.algorithm, "s": args.s,
                                "queries": list(args.queries)})
    if args.output:
        write_join_result(all_pairs, args.output)
        print(f"pairs written to {args.output}")
    return 0


def _bench_fig5(axis: str, base: int | None, repeats: int) -> None:
    grid = {
        "fig5a": experiments.fig5a_grid,
        "fig5b": experiments.fig5b_grid,
        "fig5c": experiments.fig5c_grid,
    }[axis](base or experiments.FIG5_SIZE)
    ratios = experiments.SIGNATURE_RATIOS
    series: dict[str, list[float | None]] = {}
    for label, config in grid:
        r, s = harness.dataset_pair(config)
        timings: list[float | None] = []
        for ratio in ratios:
            bits = min(max(ratio * config.avg_cardinality, 8), config.domain)
            record = harness.run_algorithm("ptsj", r, s, repeats=repeats, bits=bits)
            timings.append(record.seconds)
        series[label] = timings
    print(reporting.format_series(f"PTSJ time vs b/c ratio ({axis})", "b/c",
                                  list(ratios), series))


def _bench_fig6(which: str, base: int | None, repeats: int) -> None:
    base = base or experiments.BASE_SIZE
    if which == "fig6a":
        configs = experiments.fig6c_configs(base)
        series: dict[str, list[float | None]] = {name: [] for name in experiments.ALL_ALGORITHMS}
        for config in configs:
            r, s = harness.dataset_pair(config)
            for name in experiments.ALL_ALGORITHMS:
                series[name].append(memory.memory_per_tuple(name, r, s))
        print(reporting.format_series("Memory per tuple vs set cardinality", "c",
                                      [c.name for c in configs], series,
                                      value_format=reporting.fmt_bytes))
        return
    configs = {
        "fig6b": lambda: experiments.fig6b_configs(base),
        "fig6c": lambda: experiments.fig6c_configs(base),
        "fig6d": lambda: experiments.fig6def_configs(2 ** 4, base),
        "fig6e": lambda: experiments.fig6def_configs(2 ** 6, base),
        "fig6f": lambda: experiments.fig6def_configs(2 ** 8, base),
    }[which]()
    series = harness.sweep(configs, experiments.ALL_ALGORITHMS, repeats=repeats,
                           skip=experiments.shj_infeasible)
    print(reporting.format_series(which, "config", [c.name for c in configs], series))


def _bench_fig8(base: int | None, repeats: int) -> None:
    datasets = experiments.fig8_datasets(base or 256)
    labels = [name for name, _, _ in datasets]
    series: dict[str, list[float | None]] = {name: [] for name in experiments.ALL_ALGORITHMS}
    for _, r, s in datasets:
        for name in experiments.ALL_ALGORITHMS:
            record = harness.run_algorithm(name, r, s, repeats=repeats)
            series[name].append(record.seconds)
    print(reporting.format_ratios("Real-world surrogates (time / best)", labels, series))


def _bench_fig7(which: str, base: int | None, repeats: int) -> None:
    axis = "cardinality" if which in ("fig7a", "fig7c") else "element"
    distribution = "poisson" if which in ("fig7a", "fig7b") else "zipf"
    configs = experiments.fig7_configs(axis, distribution,
                                       base or experiments.BASE_SIZE)
    series = harness.sweep(configs, experiments.ALL_ALGORITHMS, repeats=repeats,
                           skip=experiments.shj_infeasible)
    print(reporting.format_series(f"{which}: {distribution} on set {axis}",
                                  "config", [c.name for c in configs], series))


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.experiment.startswith("fig5"):
        _bench_fig5(args.experiment, args.base, args.repeats)
    elif args.experiment.startswith("fig7"):
        _bench_fig7(args.experiment, args.base, args.repeats)
    elif args.experiment == "fig8":
        _bench_fig8(args.base, args.repeats)
    else:
        _bench_fig6(args.experiment, args.base, args.repeats)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    _apply_backend(args)
    # Imported lazily: the serving layer (sockets, thread pool) should
    # not load for the one-shot subcommands.
    from repro.serve import JoinServer

    policy = None
    if args.max_memory is not None:
        from repro.governance import GovernancePolicy

        policy = GovernancePolicy(memory_budget_bytes=args.max_memory)
    server = JoinServer(
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        max_inflight=args.max_inflight,
        cache_capacity=args.cache_capacity,
        cache_ttl_seconds=args.cache_ttl,
        default_policy=policy,
        default_deadline_seconds=args.deadline_seconds,
    )
    server.start()
    assert server.address is not None
    print(f"serving on {server.address[0]}:{server.address[1]} "
          f"(cache={args.cache_capacity}, inflight<={server.max_inflight}); "
          f"send a shutdown request or Ctrl-C to stop", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:  # repro: noqa RPR008 Ctrl-C is the operator's shutdown request; stop() in finally does the work  # pragma: no cover - interactive path
        pass
    finally:
        server.stop()
    print("server stopped", flush=True)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # The analysis package is self-contained and lazily imported: linting
    # never drags in numpy or the multiprocessing machinery.
    from repro.analysis.engine import run as lint_run

    return lint_run(args)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "stats": _cmd_stats,
        "explain": _cmd_explain,
        "join": _cmd_join,
        "probe": _cmd_probe,
        "serve": _cmd_serve,
        "backends": _cmd_backends,
        "lint": _cmd_lint,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
