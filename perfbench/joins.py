"""Batch join workloads: one-shot ``repro.set_containment_join`` calls on the
paper's Fig. 8 surrogates.

Untraced run (``--trace 0``): after set-up and one warm-up join per input,
joins run back to back for the measured window, each on fresh
:class:`~repro.relations.Relation` objects so no per-relation memo
(statistics, fingerprint) carries over from one timed join to the next.
Every join's pairs are checked against the other paper algorithm's pinned
result on the same inputs, computed after the window.

Traced run (``--trace 1``): untraced joins, joins under
:class:`repro.obs.Tracer` and joins on the kernel timing proxy alternate on
the same inputs; the pairs and ``JoinStats`` counters of every traced join
must equal the untraced join's.  The rest of the window times the pinned
``ptsj`` and ``pretti+`` joins that ``planner.regret`` needs.
"""

from __future__ import annotations

import gc
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from perfbench import common, kernel_proxy, layers

#: Share of a traced run's window spent alternating untraced/traced joins;
#: the rest times the pinned joins for ``planner.regret``.
TRACED_SHARE = 0.7


@dataclass(frozen=True)
class JoinSpec:
    """One batch workload: surrogate dataset, |R| = |S|, input pairs, workers."""

    dataset: str
    size: int
    inputs: int
    workers: int | None = None


#: Sized so a 20 s window holds well over 100 joins on two shared cores
#: (the p90 needs ten samples beyond it).  Each run cycles through several
#: independent input pairs, so one draw does not set a run's figures: one
#: twitter draw's join time differs from the next by up to 20 %, so those
#: runs take six.  Flickr runs take two: some flickr draws are much slower
#: than the rest, and with six pairs the p90 sits on whichever slow draw a
#: seed happens to include (spread 0.20 over ten seeds, against 0.08).
SPECS = {
    "join-twitter": JoinSpec("twitter", 500, 6),
    "join-flickr": JoinSpec("flickr", 3000, 2),
    "join-twitter-2w": JoinSpec("twitter", 500, 6, workers=2),
}


def make_inputs(spec: JoinSpec, seed: int) -> list[tuple[Any, Any]]:
    """``spec.inputs`` independent (R, S) pairs, all derived from ``seed``."""
    from repro.datagen.realworld import make_surrogate

    base = seed * 64
    return [
        (
            make_surrogate(spec.dataset, spec.size, seed=base + 2 * k),
            make_surrogate(spec.dataset, spec.size, seed=base + 2 * k + 1),
        )
        for k in range(spec.inputs)
    ]


def fresh(relation):
    """A new Relation over the same records: no memoized stats or fingerprint."""
    from repro import Relation

    return Relation(tuple(relation), name=relation.name)


def counters(stats) -> tuple:
    """The ``JoinStats`` fields a traced join must reproduce exactly.

    Timings are excluded, and so is the ``kernel_backend`` marker, which
    names the timing proxy during traced joins.
    """
    extras = {k: v for k, v in stats.extras.items() if k != "kernel_backend"}
    return (
        stats.algorithm,
        stats.pairs,
        stats.candidates,
        stats.verifications,
        stats.node_visits,
        stats.intersections,
        stats.index_nodes,
        stats.signature_bits,
        tuple(sorted(extras.items())),
    )


def other_algorithm(algorithm: str) -> str:
    """The paper algorithm the planner did not pick (the reference)."""
    return "pretti+" if "ptsj" in algorithm else "ptsj"


class _Checker:
    """Holds each input's expected output and counts wrong joins."""

    def __init__(self, report: common.Report, warmups) -> None:
        self.report = report
        self.pairs = [res.pairs for res in warmups]
        self.counters = [counters(res.stats) for res in warmups]

    def same_pairs(self, k: int, pairs) -> bool:
        expected = self.pairs[k]
        return pairs == expected or set(pairs) == set(expected)

    def check(self, k: int, result, label: str, with_counters: bool = False) -> None:
        if not self.same_pairs(k, result.pairs):
            self.report.fail(f"{label} on input {k}: pairs differ from the reference")
        elif with_counters and counters(result.stats) != self.counters[k]:
            self.report.fail(
                f"{label} on input {k}: JoinStats counters "
                f"{counters(result.stats)} != untraced {self.counters[k]}"
            )


def _join(r, s, workload, algorithm: str = "auto"):
    from repro import set_containment_join

    return set_containment_join(r, s, algorithm=algorithm, workload=workload)


def _timed(report: common.Report, k: int, r, s, workload, algorithm="auto"):
    """One join on fresh relations; returns (seconds, result) or None on error."""
    from repro import ReproError

    fr, fs = fresh(r), fresh(s)
    report.attempted += 1
    t0 = perf_counter()
    try:
        result = _join(fr, fs, workload, algorithm)
    except ReproError as exc:
        report.fail(f"{algorithm} join on input {k} raised {type(exc).__name__}: {exc}")
        return None
    return perf_counter() - t0, result


def _verify_references(report: common.Report, inputs, checker: _Checker) -> None:
    """Compare each input's expected pairs with the other paper algorithm's
    pinned, inline result.  A mismatch fails every join of the run."""
    for k, (r, s) in enumerate(inputs):
        algorithm = checker.counters[k][0]
        reference = _join(fresh(r), fresh(s), None, other_algorithm(algorithm))
        if not checker.same_pairs(k, reference.pairs):
            report.fail(
                f"input {k}: {algorithm} pairs differ from pinned "
                f"{other_algorithm(algorithm)} ({len(checker.pairs[k])} vs "
                f"{len(reference.pairs)})",
                count=report.attempted,
            )


def run(root: Path, name: str, seed: int, seconds: float, trace: bool) -> common.Report:
    from repro import Workload

    spec = SPECS[name]
    report = common.Report(common.run_meta(root, name, seed, trace))
    inputs = make_inputs(spec, seed)
    workload = Workload(workers=spec.workers) if spec.workers else None
    report.meta.update(
        dataset=spec.dataset,
        r_size=spec.size,
        s_size=spec.size,
        input_pairs=spec.inputs,
        workload_hint=asdict(workload) if workload is not None else None,
    )

    if not trace:
        setup = common.measure_import_setup(root, common.SETUP_REPEATS // 2)
    # Warm-up: lazy imports and first-call set-up finish here, and each
    # input's expected pairs and counters come from this untraced join.
    warmups = [_join(fresh(r), fresh(s), workload) for r, s in inputs]
    checker = _Checker(report, warmups)
    report.meta["algorithm"] = sorted({res.stats.algorithm for res in warmups})
    report.meta["pairs_per_input"] = [len(p) for p in checker.pairs]
    # Keep the benchmark's own objects (inputs, expected pairs) out of the
    # collector's work during timed joins.
    gc.collect()
    gc.freeze()

    if trace:
        _traced_window(report, inputs, workload, checker, seconds)
        _verify_references(report, inputs, checker)
        return report

    times: list[float] = []
    scaled: list[float] = []  # each join in ref units of the moment before it
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        k = i % len(inputs)
        i += 1
        ref_s = common.ref_seconds(common.time_slice() for _ in range(common.SLICES_PER_REF))
        timed = _timed(report, k, *inputs[k], workload)
        if timed is None:
            continue
        elapsed, result = timed
        times.append(elapsed)
        scaled.append(elapsed / ref_s)
        checker.check(k, result, "join")
    rss = common.peak_rss_mb()
    setup += common.measure_import_setup(root, common.SETUP_REPEATS - len(setup))
    _verify_references(report, inputs, checker)

    p50, p90 = common.median(times), common.percentile(times, 90)
    report.note("joins_timed", len(times))
    report.note("join_s_p50", p50, "s")
    report.note("join_s_p90", p90, "s")
    report.note("join_records_per_s", common.ratio(spec.size * len(times), sum(times)), "records/s")
    report.note("failed_frac", common.ratio(report.failed, report.attempted), "ratio")
    report.note("peak_rss_mb", rss, "MB")
    report.note("ref_ms_p50", common.median(t / s for t, s in zip(times, scaled)) * 1e3, "ms")
    report.note("setup_samples_s", [round(x, 4) for x in setup])
    report.metric("latency_p50", common.median(scaled), "ref")
    report.metric("latency_tail", common.percentile(scaled, 90), "ref")
    report.metric("peak_rss_mb", rss, "MB")
    report.metric("setup_s", common.median(setup), "s")
    return report


def _traced_window(report, inputs, workload, checker, seconds) -> None:
    """Alternate untraced, tracer-only and proxy-only joins, then time the
    pinned joins.  Span timings come from tracer-only joins and kernel
    figures from proxy-only joins, so neither instrument inflates the
    other's numbers; ``obs.tracer_overhead_frac`` compares tracer-only
    with untraced joins."""
    from repro.kernels import use_backend
    from repro.obs import Tracer, use

    proxy = kernel_proxy.install()
    untraced: list[float] = []
    traced: list[float] = []
    span_samples: list[dict[str, float]] = []
    kernel_samples: list[dict[str, float]] = []
    kernel_totals = dict.fromkeys(kernel_proxy.COUNTERS, 0.0)
    start = perf_counter()
    deadline = start + seconds * TRACED_SHARE
    i = 0
    while i < len(inputs) or perf_counter() < deadline:
        k = i % len(inputs)
        i += 1
        r, s = inputs[k]
        timed = _timed(report, k, r, s, workload)
        if timed is not None:
            untraced.append(timed[0])
            checker.check(k, timed[1], "untraced join", with_counters=True)

        tracer = Tracer(name="bench")
        with use(tracer):
            timed = _timed(report, k, r, s, workload)
        root = tracer.finish()
        if timed is not None:
            elapsed, result = timed
            traced.append(elapsed)
            checker.check(k, result, "traced join", with_counters=True)
            span_samples.append(layers.span_sample(root, result.stats, elapsed, len(r)))

        proxy.take()
        with use_backend(proxy.name):
            timed = _timed(report, k, r, s, workload)
        counts = proxy.take()
        for key, value in counts.items():
            kernel_totals[key] += value
        if timed is not None:
            result = timed[1]
            checker.check(k, result, "kernel-proxy join", with_counters=True)
            if result.stats.extras.get("kernel_backend") != proxy.name:
                report.fail(f"kernel-proxy join on input {k} did not run on the proxy")
            kernel_samples.append(layers.kernel_sample(counts))

    pinned: dict[str, list[float]] = {"ptsj": [], "pretti+": []}
    deadline = start + seconds
    rounds = 0
    while rounds == 0 or perf_counter() < deadline:
        rounds += 1
        for k, (r, s) in enumerate(inputs):
            for algorithm, times in pinned.items():
                timed = _timed(report, k, r, s, workload, algorithm)
                if timed is not None:
                    times.append(timed[0])
                    checker.check(k, timed[1], f"pinned {algorithm}")

    fastest_pinned = min(common.median(t) for t in pinned.values())
    report.note("joins_untraced", len(untraced))
    report.note("joins_traced", len(traced))
    report.note("joins_kernel_proxy", len(kernel_samples))
    report.note("join_s_p50_untraced", common.median(untraced), "s")
    report.note("join_s_p50_traced", common.median(traced), "s")
    report.note("kernel_proxy_totals", {k: round(v, 6) for k, v in kernel_totals.items()})
    report.note("pinned_ptsj_s_p50", common.median(pinned["ptsj"]), "s")
    report.note("pinned_pretti+_s_p50", common.median(pinned["pretti+"]), "s")
    layers.emit_join_layers(
        report,
        span_samples,
        kernel_samples,
        regret=common.ratio(common.median(untraced), fastest_pinned),
        tracer_overhead=common.ratio(common.median(traced), common.median(untraced)) - 1.0,
    )
