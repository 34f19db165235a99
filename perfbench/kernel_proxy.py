"""A timing proxy around a kernel backend, for the traced run.

The proxy is a :class:`repro.kernels.KernelBackend` that forwards every
ABI call to the wrapped backend and counts calls, time, rows and
elements on the way.  It is registered under its own name through
:func:`repro.kernels.register_backend` and made the default for the
traced joins with :func:`repro.kernels.use_backend`, so the program under
test is not edited.

It pickles as the backend it wraps: a prepared index that captured the
proxy and is shipped to a pool worker reconnects to the worker's plain
backend (calls made inside workers are not counted).
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

from repro.kernels import KernelBackend, SignaturePack, get_backend

PROXY_PREFIX = "timed-"

COUNTERS = (
    "pack_calls",
    "pack_s",
    "pack_rows",
    "filter_calls",
    "filter_s",
    "filter_rows_scanned",
    "filter_rows_admitted",
    "popcount_calls",
    "popcount_s",
    "intersect_calls",
    "intersect_s",
    "intersect_in_elems",
    "intersect_shorter_elems",
    "intersect_out_elems",
)


class TimedKernel(KernelBackend):
    """Forwards to ``inner``; accumulates per-method counts in :attr:`counts`."""

    def __init__(self, inner: KernelBackend) -> None:
        self.inner = inner
        self.name = PROXY_PREFIX + inner.name
        self.counts = dict.fromkeys(COUNTERS, 0.0)

    def take(self) -> dict[str, float]:
        """Return the counts so far and start from zero."""
        counts, self.counts = self.counts, dict.fromkeys(COUNTERS, 0.0)
        return counts

    def pack_signatures(self, signatures: Sequence[int], bits: int) -> SignaturePack:
        t0 = perf_counter()
        pack = self.inner.pack_signatures(signatures, bits)
        counts = self.counts
        counts["pack_s"] += perf_counter() - t0
        counts["pack_calls"] += 1
        counts["pack_rows"] += len(pack)
        return pack

    def _filter(self, method, pack: SignaturePack, probe: int) -> list[int]:
        t0 = perf_counter()
        rows = method(pack, probe)
        counts = self.counts
        counts["filter_s"] += perf_counter() - t0
        counts["filter_calls"] += 1
        counts["filter_rows_scanned"] += len(pack)
        counts["filter_rows_admitted"] += len(rows)
        return rows

    def filter_subset_batch(self, pack: SignaturePack, probe: int) -> list[int]:
        return self._filter(self.inner.filter_subset_batch, pack, probe)

    def filter_superset_batch(self, pack: SignaturePack, probe: int) -> list[int]:
        return self._filter(self.inner.filter_superset_batch, pack, probe)

    def popcount_batch(self, pack: SignaturePack) -> list[int]:
        t0 = perf_counter()
        weights = self.inner.popcount_batch(pack)
        self.counts["popcount_s"] += perf_counter() - t0
        self.counts["popcount_calls"] += 1
        return weights

    def intersect_sorted(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        t0 = perf_counter()
        out = self.inner.intersect_sorted(a, b)
        counts = self.counts
        counts["intersect_s"] += perf_counter() - t0
        counts["intersect_calls"] += 1
        len_a, len_b = len(a), len(b)
        counts["intersect_in_elems"] += len_a + len_b
        counts["intersect_shorter_elems"] += min(len_a, len_b)
        counts["intersect_out_elems"] += len(out)
        return out

    def __reduce__(self):
        return (get_backend, (self.inner.name,))


def install() -> TimedKernel:
    """Wrap the auto-resolved default backend and register the proxy.

    Returns the proxy; activate it with
    ``repro.kernels.use_backend(proxy.name)``.
    """
    from repro.kernels import register_backend

    proxy = TimedKernel(get_backend())
    register_backend(proxy.name, lambda: proxy)
    return proxy
