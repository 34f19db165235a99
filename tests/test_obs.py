"""Tests for the observability layer (``repro.obs``).

Covers the span/tracer semantics, metrics registry, JSONL export
round-trip, the NullTracer overhead bound, and — the acceptance
criterion — that the span tree's top-level ``build``/``probe`` times
match ``JoinStats`` for every instrumented execution path.
"""

from __future__ import annotations

import time

import pytest

from repro.core.registry import (
    available_algorithms,
    prepare_index,
    set_containment_join,
)
from repro.errors import ReproError
from repro.extensions.equality import equality_join_on_index
from repro.extensions.set_index import PatriciaSetIndex
from repro.extensions.similarity import jaccard_join_on_index, similarity_join_on_index
from repro.extensions.superset import superset_join_on_index
from repro.exec import ParallelJoin, ResilientParallelJoin, RetryPolicy
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    PhaseProfiler,
    Span,
    Tracer,
    current_tracer,
    default_registry,
    read_trace,
    render_tree,
    reset_default_registry,
    set_tracer,
    use,
    write_trace,
)

from .conftest import random_relation


# ----------------------------------------------------------------------
# Span / Tracer semantics
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("build"):
            pass
        with tracer.span("probe"):
            with tracer.span("verify"):
                pass
        assert set(tracer.root.children) == {"build", "probe"}
        assert set(tracer.root.children["probe"].children) == {"verify"}

    def test_spans_merge_by_name(self):
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("probe"):
                with tracer.span("verify"):
                    pass
        probe = tracer.root.find("probe")
        assert probe is not None and probe.calls == 5
        verify = tracer.root.find("probe", "verify")
        assert verify is not None and verify.calls == 5
        # Merging keeps the tree bounded: one node per (parent, name).
        assert len(tracer.root.children) == 1
        assert len(probe.children) == 1

    def test_span_seconds_accumulate(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("probe"):
                time.sleep(0.002)
        probe = tracer.root.find("probe")
        assert probe.seconds >= 0.006
        assert probe.calls == 3

    def test_count_attributes_to_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("probe"):
            tracer.count("pairs", 3)
            with tracer.span("verify"):
                tracer.count("candidates", 7)
        assert tracer.root.find("probe").counters == {"pairs": 3}
        assert tracer.root.find("probe", "verify").counters == {"candidates": 7}

    def test_record_merges_external_measurements(self):
        tracer = Tracer()
        tracer.record("probe", 0.5, {"chunks": 1, "pairs": 10})
        tracer.record("probe", 0.25, {"chunks": 1, "pairs": 5}, calls=2)
        probe = tracer.root.find("probe")
        assert probe.seconds == pytest.approx(0.75)
        assert probe.calls == 3
        assert probe.counters == {"chunks": 2, "pairs": 15}

    def test_record_mirror_false_skips_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        tracer.record("verify", 0.1, {"pairs": 4}, mirror=False)
        assert "pairs" not in registry.snapshot()
        assert tracer.root.find("verify").counters == {"pairs": 4}

    def test_phase_seconds_reports_direct_children(self):
        tracer = Tracer()
        with tracer.span("build"):
            pass
        with tracer.span("probe"):
            with tracer.span("verify"):
                pass
        phases = tracer.phase_seconds()
        assert set(phases) == {"build", "probe"}

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("probe"):
                raise ValueError("boom")
        assert tracer.current is tracer.root
        assert tracer.root.find("probe").calls == 1

    def test_span_find_missing_path(self):
        assert Span("root").find("nope", "deeper") is None


class TestCurrentTracer:
    def test_default_is_null(self):
        assert isinstance(current_tracer(), NullTracer)
        assert not current_tracer().enabled

    def test_use_scopes_and_restores(self):
        tracer = Tracer()
        before = current_tracer()
        with use(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is before

    def test_use_restores_on_exception(self):
        tracer = Tracer()
        before = current_tracer()
        with pytest.raises(RuntimeError):
            with use(tracer):
                raise RuntimeError("boom")
        assert current_tracer() is before

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            set_tracer(previous)


class TestNullTracer:
    def test_all_operations_are_noops(self):
        null = NullTracer()
        with null.span("probe") as span:
            assert span is None
        null.count("pairs", 3)
        null.observe("probe_seconds", 0.1)
        null.record("probe", 0.5, {"pairs": 1})
        null.finish()
        assert null.phase_seconds() == {}

    def test_span_handles_are_shared(self):
        null = NullTracer()
        assert null.span("a") is null.span("b")

    def test_overhead_bound_on_a_small_join(self):
        """Null-tracer calls must stay well under 5% of a small join."""
        r = random_relation(120, 10, 60, seed=3)
        s = random_relation(120, 6, 60, seed=4)
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            set_containment_join(r, s, algorithm="ptsj")
            runs.append(time.perf_counter() - start)
        join_seconds = min(runs)

        null = NullTracer()
        cycles = 10_000
        start = time.perf_counter()
        for _ in range(cycles):
            with null.span("probe"):
                pass
            null.count("pairs")
        per_cycle = (time.perf_counter() - start) / cycles
        # An untraced join performs ~10 null tracer calls per probe
        # *batch* (never per record); 20 cycles per join is generous.
        assert per_cycle * 20 < max(join_seconds, 0.002) * 0.05


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_instruments_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_snapshot_expands_histograms(self):
        registry = MetricsRegistry()
        registry.counter("pairs").inc(2)
        registry.gauge("depth").set(7)
        hist = registry.histogram("probe_seconds")
        hist.observe(0.25)
        hist.observe(0.75)
        snap = registry.snapshot()
        assert snap["pairs"] == 2
        assert snap["depth"] == 7
        assert snap["probe_seconds.count"] == 2
        assert snap["probe_seconds.sum"] == pytest.approx(1.0)
        assert snap["probe_seconds.min"] == pytest.approx(0.25)
        assert snap["probe_seconds.max"] == pytest.approx(0.75)
        assert hist.mean == pytest.approx(0.5)

    def test_registries_are_isolated(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("pairs").inc(5)
        assert "pairs" not in b.snapshot()
        b.counter("pairs").inc(1)
        assert a.snapshot()["pairs"] == 5
        assert b.snapshot()["pairs"] == 1

    def test_merge_and_reset(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("pairs").inc(1)
        b.counter("pairs").inc(2)
        b.histogram("t").observe(1.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["pairs"] == 3
        assert snap["t.count"] == 1
        a.reset()
        assert a.snapshot() == {}

    def test_default_registry_reset(self):
        default_registry().counter("obs_test_marker").inc(1)
        assert default_registry().snapshot()["obs_test_marker"] == 1
        reset_default_registry()
        assert "obs_test_marker" not in default_registry().snapshot()

    def test_tracer_mirrors_counts_into_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("probe"):
            tracer.count("pairs", 4)
            tracer.observe("probe_seconds", 0.5)
        snap = registry.snapshot()
        assert snap["pairs"] == 4
        assert snap["probe_seconds.count"] == 1

    def test_stats_snapshot_registry(self):
        r = random_relation(40, 8, 32, seed=5)
        s = random_relation(40, 5, 32, seed=6)
        registry = MetricsRegistry()
        with use(Tracer(registry=registry)):
            result = set_containment_join(r, s, algorithm="ptsj")
        result.stats.snapshot_registry(registry)
        assert result.stats.extras["metric.pairs"] == len(result)

    def test_thread_hammer_drops_no_updates(self):
        """Regression: registry mutation is lock-guarded, so the join
        server's concurrent request threads can share one registry
        without losing increments (pre-fix, ``value += n`` raced)."""
        import threading

        registry = MetricsRegistry()
        threads_n, updates = 8, 5000
        barrier = threading.Barrier(threads_n)

        def hammer(worker: int) -> None:
            barrier.wait(timeout=30)
            for i in range(updates):
                # Same instrument names from every thread: maximum contention.
                registry.counter("hits").inc()
                registry.gauge("inflight").add(1 if i % 2 == 0 else -1)
                registry.histogram("latency").observe(1.0)
                registry.counter(f"per.{worker}").inc(2)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        snap = registry.snapshot()
        assert snap["hits"] == threads_n * updates
        assert snap["inflight"] == 0.0  # +1/-1 pairs cancel exactly
        assert snap["latency.count"] == threads_n * updates
        assert snap["latency.sum"] == pytest.approx(threads_n * updates)
        assert snap["latency.min"] == snap["latency.max"] == 1.0
        for worker in range(threads_n):
            assert snap[f"per.{worker}"] == 2 * updates

    def test_histogram_concurrent_observe_keeps_fields_consistent(self):
        import threading

        hist = MetricsRegistry().histogram("t")
        values = [0.5, 1.5]

        def observe(value: float) -> None:
            for _ in range(4000):
                hist.observe(value)

        threads = [threading.Thread(target=observe, args=(v,)) for v in values]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert hist.count == 8000
        assert hist.total == pytest.approx(8000.0)
        assert (hist.min, hist.max) == (0.5, 1.5)


# ----------------------------------------------------------------------
# JSONL export
# ----------------------------------------------------------------------
class TestTraceExport:
    def _sample_tree(self) -> Span:
        root = Span("trace")
        build = root.child("build")
        build.seconds, build.calls = 0.5, 1
        probe = root.child("probe")
        probe.seconds, probe.calls = 1.5, 3
        probe.add_counters({"pairs": 10, "candidates": 12})
        verify = probe.child("verify")
        verify.seconds, verify.calls = 0.25, 3
        verify.mem_peak_bytes = 4096
        return root

    def test_round_trip(self, tmp_path):
        root = self._sample_tree()
        path = tmp_path / "trace.jsonl"
        write_trace(path, root, meta={"algorithm": "ptsj"})
        loaded, meta = read_trace(path)
        assert meta["algorithm"] == "ptsj"
        assert meta["root"] == "trace"
        for (da, a), (db, b) in zip(root.walk(), loaded.walk()):
            assert (da, a.name, a.calls) == (db, b.name, b.calls)
            assert a.seconds == pytest.approx(b.seconds)
            assert a.counters == b.counters
            assert a.mem_peak_bytes == b.mem_peak_bytes

    def test_first_line_is_meta_header(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, self._sample_tree())
        first = path.read_text().splitlines()[0]
        assert '"type": "meta"' in first

    def test_read_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ReproError):
            read_trace(path)

    def test_read_rejects_orphan_span(self, tmp_path):
        path = tmp_path / "orphan.jsonl"
        path.write_text(
            '{"type": "meta"}\n'
            '{"type": "span", "id": 0, "parent": 99, "name": "x", '
            '"seconds": 0, "calls": 1}\n'
        )
        with pytest.raises(ReproError):
            read_trace(path)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ReproError):
            read_trace(path)

    def test_render_tree_mentions_phases(self):
        text = render_tree(self._sample_tree())
        assert "build" in text
        assert "probe" in text
        assert "verify" in text
        assert "pairs=10" in text

    def test_cli_trace_file(self, tmp_path):
        """``repro-scj join --trace`` writes a loadable span tree."""
        from repro.cli import main
        from repro.relations.io import write_relation

        r = random_relation(30, 8, 32, seed=7)
        s = random_relation(30, 5, 32, seed=8)
        r_path, s_path = tmp_path / "r.txt", tmp_path / "s.txt"
        write_relation(r, r_path)
        write_relation(s, s_path)
        trace_path = tmp_path / "out.jsonl"
        code = main(["join", str(r_path), str(s_path), "--algorithm", "ptsj",
                     "--trace", str(trace_path), "--metrics"])
        assert code == 0
        root, meta = read_trace(trace_path)
        assert meta["algorithm"] == "ptsj"
        assert root.find("build") is not None
        assert root.find("probe") is not None


# ----------------------------------------------------------------------
# Phase profiler
# ----------------------------------------------------------------------
class TestPhaseProfiler:
    def test_profiles_only_gated_phases(self):
        profiler = PhaseProfiler(["probe"])
        tracer = Tracer(profiler=profiler)
        with tracer.span("build"):
            sum(range(100))
        with tracer.span("probe"):
            sum(range(100))
        assert profiler.profiled_phases() == ("probe",)
        assert "function calls" in profiler.summary("probe")
        assert "no profile captured" in profiler.summary("build")

    def test_nested_gated_phase_covered_by_outer(self):
        profiler = PhaseProfiler(["probe", "verify"])
        tracer = Tracer(profiler=profiler)
        with tracer.span("probe"):
            with tracer.span("verify"):
                sum(range(10))
        # cProfile cannot nest: verify rode along inside probe's capture.
        assert profiler.profiled_phases() == ("probe",)


# ----------------------------------------------------------------------
# Memory sampling
# ----------------------------------------------------------------------
class TestMemorySampling:
    def test_span_records_peak_delta(self):
        tracer = Tracer(sample_memory=True)
        try:
            with tracer.span("build"):
                blob = [0] * 50_000
                del blob
            assert tracer.root.find("build").mem_peak_bytes > 0
        finally:
            tracer.finish()

    def test_finish_stops_tracemalloc_it_started(self):
        import tracemalloc

        was_tracing = tracemalloc.is_tracing()
        tracer = Tracer(sample_memory=True)
        tracer.finish()
        assert tracemalloc.is_tracing() == was_tracing


# ----------------------------------------------------------------------
# Acceptance: span tree vs JoinStats, every execution path
# ----------------------------------------------------------------------
def _assert_phases_match(root: Span, stats, rel_tol: float = 0.05) -> None:
    """The acceptance criterion: top-level build+probe spans == stats."""
    build = root.find("build")
    probe = root.find("probe")
    assert build is not None and probe is not None
    total_stats = stats.build_seconds + stats.probe_seconds
    total_spans = build.seconds + probe.seconds
    assert total_spans == pytest.approx(total_stats, rel=rel_tol, abs=1e-4)


@pytest.mark.parametrize("name", available_algorithms())
def test_span_tree_matches_stats_per_algorithm(name):
    r = random_relation(80, 10, 48, seed=13)
    s = random_relation(80, 6, 48, seed=14)
    tracer = Tracer()
    with use(tracer):
        result = set_containment_join(r, s, algorithm=name)
    _assert_phases_match(tracer.root, result.stats)
    probe = tracer.root.find("probe")
    assert probe.counters["pairs"] == len(result)


def test_span_tree_matches_stats_probe_many():
    s = random_relation(60, 6, 40, seed=15)
    queries = [random_relation(40, 9, 40, seed=16 + i, start_id=1000 * i)
               for i in range(3)]
    tracer = Tracer()
    with use(tracer):
        index = prepare_index(s, algorithm="ptsj")
        for q in queries:
            index.probe_many(q)
    totals = index.join_stats()
    _assert_phases_match(tracer.root, totals)
    assert tracer.root.find("probe").calls == len(queries)


def test_span_tree_matches_stats_resilient_parallel():
    r = random_relation(90, 10, 48, seed=17)
    s = random_relation(90, 6, 48, seed=18)
    executor = ResilientParallelJoin(
        algorithm="ptsj", workers=2, chunks=4,
        retry_policy=RetryPolicy(max_attempts=2),
    )
    tracer = Tracer()
    with use(tracer):
        result = executor.join(r, s)
    # stats.probe_seconds sums per-chunk probe times; the probe span
    # records exactly those chunk durations, so they agree.  As in the
    # parallel executor, the parent probes slot 0's chunks (0 and 2) under
    # its own tracer and only the child's two come home as chunk spans.
    _assert_phases_match(tracer.root, result.stats)
    assert tracer.root.find("probe").counters["chunks"] == 2


def test_span_tree_matches_stats_parallel(monkeypatch):
    # The parent probes slot 0's chunks (0 and 2) under its own tracer;
    # the child's chunks (1 and 3) come home as recorded chunk spans.
    # Both land in one merged probe span.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    r = random_relation(90, 10, 48, seed=17)
    s = random_relation(90, 6, 48, seed=18)
    executor = ParallelJoin(algorithm="ptsj", workers=2, chunks=4)
    tracer = Tracer()
    with use(tracer):
        result = executor.join(r, s)
    root = tracer.finish()  # raises SanitizerError on an unbalanced stack
    probe = root.find("probe")
    assert probe.seconds == pytest.approx(result.stats.probe_seconds, rel=0.05, abs=1e-4)
    assert probe.calls == 4  # two parent spans + two recorded child chunks
    assert probe.counters["chunks"] == 2
    assert probe.counters["pairs"] == len(result.pairs)
    assert probe.counters["candidates"] == result.stats.candidates
    assert probe.counters["node_visits"] == result.stats.node_visits
    # The parent's own probes open their phase spans under "probe".
    assert probe.find("signature_filter") is not None
    _assert_phases_match(root, result.stats)


def test_signature_phase_split_sums_to_probe():
    r = random_relation(80, 10, 48, seed=19)
    s = random_relation(80, 6, 48, seed=20)
    tracer = Tracer()
    with use(tracer):
        result = set_containment_join(r, s, algorithm="ptsj")
    probe = tracer.root.find("probe")
    inner = sum(child.seconds for child in probe.children.values())
    assert inner <= probe.seconds
    assert inner == pytest.approx(probe.seconds, rel=0.25, abs=2e-3)
    assert probe.find("verify").counters["candidates"] == result.stats.candidates


def test_traced_and_untraced_probe_paths_agree():
    """The traced signature probe override emits identical output."""
    r = random_relation(70, 10, 48, seed=21)
    s = random_relation(70, 6, 48, seed=22)
    plain = set_containment_join(r, s, algorithm="ptsj")
    with use(Tracer()):
        traced = set_containment_join(r, s, algorithm="ptsj")
    assert traced.pairs == plain.pairs
    assert traced.stats.candidates == plain.stats.candidates
    assert traced.stats.verifications == plain.stats.verifications
    assert traced.stats.node_visits == plain.stats.node_visits


class TestExtensionSpans:
    """The extensions time their probe inside the span (one clock)."""

    @pytest.fixture
    def indexed(self):
        r = random_relation(50, 8, 32, seed=23)
        s = random_relation(50, 8, 32, seed=24)
        return r, PatriciaSetIndex(s)

    @pytest.mark.parametrize("probe", [
        lambda r, idx: equality_join_on_index(r, idx),
        lambda r, idx: superset_join_on_index(r, idx),
        lambda r, idx: similarity_join_on_index(r, idx, threshold=3),
        lambda r, idx: jaccard_join_on_index(r, idx, threshold=0.5),
    ], ids=["equality", "superset", "similarity", "jaccard"])
    def test_probe_span_matches_probe_seconds(self, indexed, probe):
        r, index = indexed
        tracer = Tracer()
        with use(tracer):
            result = probe(r, index)
        span = tracer.root.find("probe")
        assert span is not None
        # stats.probe_seconds is timed inside the span, so the span can
        # only be marginally longer (its own enter/exit overhead).
        assert span.seconds >= result.stats.probe_seconds
        assert span.seconds == pytest.approx(result.stats.probe_seconds,
                                             rel=0.05, abs=1e-3)
        assert span.counters["pairs"] == len(result)
