"""Phase-scoped tracing: nested spans with wall time and counter deltas.

The paper's evaluation (Sec. V) reasons about joins *per phase* — the
index-build share of the runtime (Sec. V-A3), the ``N·|R|`` verification
cost and the ``V·|R|`` trie-visit cost of the signature algorithms
(Sec. III-C) — so the instrumentation follows the same shape: a
:class:`Tracer` maintains a tree of :class:`Span` nodes named after the
phase taxonomy (``build``, ``probe``, ``signature_filter``, ``verify``,
``invert``, ``traverse``, ``spill``, ``load``, ``retry``, ``fallback``;
see ``docs/OBSERVABILITY.md``), and every join entry point opens spans as
it moves through its phases.

Spans *merge by name*: re-entering ``span("verify")`` under the same
parent accumulates into one node (``seconds`` summed, ``calls``
incremented) instead of growing an unbounded list.  That is what makes
per-record phases and per-chunk worker probes aggregate into a bounded
tree — a thousand probe batches still produce one ``probe`` span with
``calls == 1000``.

The default tracer is a :class:`NullTracer` whose every operation is a
no-op on shared singletons, so the un-traced hot path stays unchanged
(``tests/test_obs.py`` asserts the overhead bound).  Activate tracing
with::

    from repro.obs import Tracer, use

    tracer = Tracer()
    with use(tracer):
        result = set_containment_join(r, s, algorithm="ptsj")
    print(tracer.root.children["probe"].seconds)

Externally-measured work — a worker process's probe time arriving as a
:class:`~repro.core.base.JoinStats` — is merged with :meth:`Tracer.record`
rather than a context manager, so parallel executors can fold per-chunk
spans into the parent's tree without cross-process plumbing.
"""

from __future__ import annotations

import os
import threading
import time
import tracemalloc
from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "current_tracer",
    "set_tracer",
    "use",
    "PHASES",
]

#: The span taxonomy (documented in docs/OBSERVABILITY.md).  Tracers accept
#: arbitrary names; these are the ones the built-in algorithms emit.
PHASES = (
    "plan",
    "build",
    "probe",
    "signature_filter",
    "verify",
    "invert",
    "traverse",
    "spill",
    "load",
    "shard",
    "retry",
    "timeout",
    "fallback",
    "governance",
)


class Span:
    """One node of the phase tree: accumulated wall time plus counters.

    Attributes:
        name: Phase name (``build``, ``probe``, ``verify``, ...).
        seconds: Total wall time accumulated over every entry.
        calls: How many times the phase was entered (or recorded).
        counters: Named counter deltas attributed to this phase.
        children: Child phases, merged by name.
        mem_peak_bytes: Highest tracemalloc peak-over-entry delta observed
            across entries, when memory sampling is enabled; 0 otherwise.
    """

    __slots__ = ("name", "seconds", "calls", "counters", "children", "mem_peak_bytes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.calls = 0
        self.counters: dict[str, float] = {}
        self.children: dict[str, Span] = {}
        self.mem_peak_bytes = 0

    def child(self, name: str) -> "Span":
        """The child span named ``name``, created on first use."""
        node = self.children.get(name)
        if node is None:
            node = Span(name)
            self.children[name] = node
        return node

    def add_counters(self, counters: Mapping[str, float] | None) -> None:
        """Fold counter deltas into this span."""
        if not counters:
            return
        own = self.counters
        for key, value in counters.items():
            own[key] = own.get(key, 0) + value

    def find(self, *path: str) -> "Span | None":
        """Descend ``path`` from this span; ``None`` when absent."""
        node: Span | None = self
        for name in path:
            if node is None:
                return None
            node = node.children.get(name)
        return node

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Depth-first ``(depth, span)`` traversal, children in insertion order."""
        yield depth, self
        for child in self.children.values():
            yield from child.walk(depth + 1)

    def phase_seconds(self) -> dict[str, float]:
        """Wall time of each *direct* child phase (the top-level breakdown)."""
        return {name: child.seconds for name, child in self.children.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} {self.seconds:.6f}s calls={self.calls} "
            f"children={list(self.children)}>"
        )


class _SpanHandle:
    """Context manager for one entry into a (merged) span."""

    __slots__ = ("_tracer", "_span", "_start", "_mem_start", "_profiled")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._start = 0.0
        self._mem_start = 0
        self._profiled = False

    def __enter__(self) -> Span:
        tracer = self._tracer
        tracer._stack.append(self._span)
        if tracer.sample_memory and tracemalloc.is_tracing():
            self._mem_start = tracemalloc.get_traced_memory()[0]
        if tracer.profiler is not None:
            self._profiled = tracer.profiler.enter(self._span.name)
        self._start = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        tracer = self._tracer
        span = self._span
        if tracer.profiler is not None and self._profiled:
            tracer.profiler.exit(span.name)
        span.seconds += elapsed
        span.calls += 1
        if tracer.sample_memory and tracemalloc.is_tracing():
            peak = tracemalloc.get_traced_memory()[1] - self._mem_start
            if peak > span.mem_peak_bytes:
                span.mem_peak_bytes = peak
        popped = tracer._stack.pop()
        assert popped is span, "span stack corrupted (unbalanced enter/exit)"


class Tracer:
    """An active tracer: spans nest under a root and merge by name.

    Args:
        name: Name of the root span (defaults to ``"trace"``).
        registry: Optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, :meth:`count` mirrors every counter into it and
            :meth:`observe` feeds its histograms, so one run's span deltas
            double as process metrics.
        sample_memory: When True, each span records its peak
            ``tracemalloc`` delta.  Tracing is started if not already
            active (and stopped again by :meth:`finish`).
        profiler: Optional :class:`~repro.obs.profile.PhaseProfiler`;
            spans whose name it gates run under ``cProfile``.
    """

    enabled = True

    def __init__(
        self,
        name: str = "trace",
        registry: MetricsRegistry | None = None,
        sample_memory: bool = False,
        profiler=None,
    ) -> None:
        self.root = Span(name)
        self.registry = registry
        self.sample_memory = sample_memory
        self.profiler = profiler
        self._stack: list[Span] = [self.root]
        self._started_tracemalloc = False
        if sample_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    # ------------------------------------------------------------------
    # Span API
    # ------------------------------------------------------------------
    @property
    def current(self) -> Span:
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

    def span(self, name: str) -> _SpanHandle:
        """Open (or re-enter) the child phase ``name`` under the current span."""
        return _SpanHandle(self, self.current.child(name))

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` on the current span (and registry)."""
        counters = self.current.counters
        counters[name] = counters.get(name, 0) + n
        if self.registry is not None:
            self.registry.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        """Feed ``value`` into the registry histogram ``name`` (if any)."""
        if self.registry is not None:
            self.registry.histogram(name).observe(value)

    def record(
        self,
        name: str,
        seconds: float,
        counters: Mapping[str, float] | None = None,
        calls: int = 1,
        mirror: bool = True,
    ) -> Span:
        """Merge an externally-measured span under the current span.

        The parallel executors use this to fold a worker's per-chunk probe
        time (carried home in its :class:`JoinStats`) into the parent's
        tree: the chunk's wall time was measured in the worker, so the
        parent must not re-time it with a context manager.

        Args:
            mirror: Mirror ``counters`` into the registry (like
                :meth:`count` does).  Pass False when the record is a
                per-phase *breakdown* of quantities the enclosing span
                already counted — mirroring those again would double the
                registry totals.
        """
        span = self.current.child(name)
        span.seconds += seconds
        span.calls += calls
        span.add_counters(counters)
        if mirror and self.registry is not None:
            for key, value in (counters or {}).items():
                self.registry.counter(key).inc(value)
        return span

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> Span:
        """Close the tracer: stop tracemalloc if this tracer started it.

        Under ``REPRO_SANITIZE=1`` also verifies that every span handle
        was exited — an unbalanced stack means some phase's time was
        attributed to the wrong parent.
        """
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False
        if len(self._stack) != 1 and os.environ.get(
            "REPRO_SANITIZE", ""
        ).strip().lower() not in ("", "0", "false", "no", "off"):
            from repro.errors import SanitizerError

            open_spans = ".".join(span.name for span in self._stack[1:])
            raise SanitizerError(
                f"tracer finished with {len(self._stack) - 1} span(s) still "
                "open", path=open_spans,
            )
        return self.root

    def phase_seconds(self) -> dict[str, float]:
        """Top-level phase breakdown (direct children of the root)."""
        return self.root.phase_seconds()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer root={self.root.name!r} phases={list(self.root.children)}>"


class _NullSpanHandle:
    """Shared no-op context manager returned by :meth:`NullTracer.span`."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpanHandle()


class NullTracer:
    """The default tracer: every operation is a no-op on shared objects.

    Kept deliberately allocation-free so leaving tracing off costs a few
    attribute lookups per *batch* (never per record — per-record
    instrumentation is gated on :attr:`enabled`).
    """

    enabled = False
    registry = None
    sample_memory = False
    profiler = None
    root = None

    def span(self, name: str) -> _NullSpanHandle:
        return _NULL_SPAN

    def count(self, name: str, n: float = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def record(self, name, seconds, counters=None, calls=1, mirror=True) -> None:
        return None

    def finish(self) -> None:
        return None

    def phase_seconds(self) -> dict[str, float]:
        return {}


#: Thread-local current tracer.  Each thread starts with the shared
#: NullTracer: worker *processes* install their own (parallel executors
#: aggregate worker time via stats instead), and the join server's
#: request threads each install a per-request tracer without clobbering
#: one another — span trees are never shared across threads.
_STATE = threading.local()
_NULL = NullTracer()


def current_tracer() -> Tracer | NullTracer:
    """The tracer active in this thread (a :class:`NullTracer` by default)."""
    return getattr(_STATE, "tracer", _NULL)


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as this thread's tracer; returns the previous one."""
    previous = getattr(_STATE, "tracer", _NULL)
    _STATE.tracer = tracer
    return previous


@contextmanager
def use(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Scope ``tracer`` as the current tracer for a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
