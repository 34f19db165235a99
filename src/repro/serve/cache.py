"""LRU+TTL cache of resident :class:`~repro.core.base.PreparedIndex` objects.

The serving layer's whole point is the build-once/probe-many asymmetry:
an index over ``S`` costs a full relation scan to build but each probe
touches a tiny fraction of it, so a long-lived server must keep hot
indexes resident across requests.  :class:`IndexCache` is that residence
policy:

* **Keyed by content, not identity.**  Keys embed
  :meth:`Relation.fingerprint() <repro.relations.relation.Relation.fingerprint>`
  (plus the algorithm and its parameters — see :func:`index_key`), so
  two clients sending the same payload share one build and a changed
  payload can never be served a stale index.
* **LRU bounded.**  At most ``capacity`` entries; inserting past that
  evicts the least-recently-*used* entry (a hit refreshes recency).
* **TTL bounded.**  An entry older than ``ttl_seconds`` is expired
  lazily on access and by :meth:`evict_expired`.  Time comes from an
  injectable monotonic clock (default: the one clock,
  :func:`repro.obs.clock.monotonic`), so tests drive expiry without
  sleeping.
* **Build deduplication.**  :meth:`get_or_build` holds a per-key build
  lock, not the cache-wide lock, while running the builder: concurrent
  misses on the *same* key coalesce into one build while misses on
  different keys build in parallel.
* **Observable.**  ``cache.hits`` / ``cache.misses`` / ``cache.evictions``
  / ``cache.expirations`` counters and the ``cache.size`` gauge go to the
  :class:`~repro.obs.metrics.MetricsRegistry` the owner supplies — the
  same registry the server's ``stats`` op snapshots.

The cache is generic over its values (anything buildable-by-callable);
the server stores prepared indexes in it, and nothing here imports the
server, so the policy is testable in isolation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Iterator, TypeVar

from repro.analysis.concurrency import tracked_lock
from repro.errors import AlgorithmError
from repro.obs.clock import monotonic
from repro.obs.metrics import MetricsRegistry
from repro.relations.relation import Relation

__all__ = ["IndexCache", "index_key"]

T = TypeVar("T")


def index_key(
    relation: Relation, algorithm: str, bits: int | None = None
) -> str:
    """The cache key for an index over ``relation`` built by ``algorithm``.

    The relation fingerprint pins the content; the algorithm name and the
    explicit signature length pin the build parameters — a PTSJ index at
    512 bits and one at 1024 bits are different residents.  ``algorithm``
    must already be registry-canonical: the server keys by its plan's
    ``algorithm``, so ``"auto"`` is resolved by the planner *before*
    keying and auto and an explicit pick of the same algorithm share an
    entry.

    The key also pins the kernel backend the index would be packed with
    (the process default at key time): a resident index carries
    backend-specific packed signature structures, so a cached build must
    never be served to a request running under a different backend.
    """
    from repro.kernels import active_backend_name

    suffix = "" if bits is None else f"|bits={bits}"
    return f"{relation.fingerprint()}|{algorithm}{suffix}|kernel={active_backend_name()}"


class _Entry:
    """One resident value plus its expiry instant (``inf`` = no TTL)."""

    __slots__ = ("value", "expires_at")

    def __init__(self, value: Any, expires_at: float) -> None:
        self.value = value
        self.expires_at = expires_at


class IndexCache:
    """A thread-safe LRU+TTL mapping of cache keys to resident values.

    Args:
        capacity: Maximum resident entries; must be positive.
        ttl_seconds: Entry lifetime; ``None`` disables expiry.
        clock: Monotonic-clock override (test seam); defaults to the one
            clock, :func:`repro.obs.clock.monotonic`.
        registry: Metrics sink for the hit/miss/eviction/expiration
            counters and the size gauge; a private registry is created
            when omitted.
    """

    def __init__(
        self,
        capacity: int,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity <= 0:
            raise AlgorithmError(f"cache capacity must be positive, got {capacity}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise AlgorithmError(
                f"cache ttl_seconds must be positive or None, got {ttl_seconds}"
            )
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._clock = clock or monotonic
        self.registry = registry if registry is not None else MetricsRegistry()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._lock = tracked_lock("cache.lock", registry=self.registry)
        # Create the instruments up front so a stats snapshot exposes
        # them (as zeros) before the first hit/miss/eviction happens.
        for counter in ("cache.hits", "cache.misses", "cache.evictions", "cache.expirations"):
            self.registry.counter(counter)
        self.registry.gauge("cache.size").set(0)
        # Per-key build locks (singleflight): misses on the same key
        # coalesce into one build, misses on different keys run in
        # parallel.  Guarded by _lock; every holder removes its own entry
        # on the way out (see _release_slot), so the map is empty
        # whenever no build is in flight.
        self._building: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Core map operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> Any | None:
        """The resident value for ``key``, or ``None`` on miss/expiry.

        A hit refreshes the entry's LRU recency (but not its TTL: age is
        measured from insertion, so a hot-but-stale index still turns
        over and picks up whatever freshness the TTL is protecting).
        """
        return self._lookup(key, count_miss=True)

    def _lookup(self, key: str, count_miss: bool) -> Any | None:
        # count_miss=False is the singleflight double-check: its miss is
        # the same logical miss get_or_build already counted, so counting
        # it again would double cache.misses per build.
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count_miss:
                    self.registry.counter("cache.misses").inc()
                return None
            if entry.expires_at <= now:
                del self._entries[key]
                self.registry.counter("cache.expirations").inc()
                if count_miss:
                    self.registry.counter("cache.misses").inc()
                self.registry.gauge("cache.size").set(len(self._entries))
                return None
            self._entries.move_to_end(key)
            self.registry.counter("cache.hits").inc()
            return entry.value

    def put(self, key: str, value: Any) -> None:
        """Insert (or replace) ``key``, evicting LRU entries past capacity.

        Replacement resets both recency and TTL — the caller is asserting
        fresh content for the key.
        """
        now = self._clock()
        expires_at = float("inf") if self.ttl_seconds is None else now + self.ttl_seconds
        with self._lock:
            if key in self._entries:
                del self._entries[key]
            self._entries[key] = _Entry(value, expires_at)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.registry.counter("cache.evictions").inc()
            self.registry.gauge("cache.size").set(len(self._entries))

    def get_or_build(self, key: str, builder: Callable[[], T]) -> tuple[T, bool]:
        """The resident value for ``key``, building it on a miss.

        Returns ``(value, hit)`` where ``hit`` says whether the value was
        already resident.  The builder runs outside the cache-wide lock
        under a per-key lock, so concurrent requests for one key wait for
        a single build while other keys stay fully concurrent.  A builder
        that raises installs nothing (the next request retries).
        """
        value = self.get(key)
        if value is not None:
            return value, True
        build_lock = self._build_slot(key)
        try:
            with build_lock:
                # Double-check: a concurrent holder may have built it
                # while this thread waited on the key lock.
                value = self._lookup(key, count_miss=False)
                if value is not None:
                    return value, True
                value = builder()  # repro: noqa RPR013 the per-key singleflight lock exists precisely to serialize this build; the cache-wide lock is not held here
                self.put(key, value)
                return value, False
        finally:
            self._release_slot(key, build_lock)

    def _build_slot(self, key: str) -> Any:
        """The per-key singleflight lock for ``key``, creating it if
        absent.  A test seam: interleaving tests override this to pin a
        thread in the window between its miss and its slot lookup."""
        with self._lock:
            build_lock = self._building.get(key)
            if build_lock is None:
                build_lock = tracked_lock("cache.build", registry=self.registry)
                self._building[key] = build_lock
            return build_lock

    def _release_slot(self, key: str, build_lock: Any) -> None:
        """Drop ``key``'s singleflight entry if it is still ours.

        Every get_or_build caller releases the slot it looked up, so the
        map cannot leak: even a late waiter that re-inserted a fresh lock
        after the winner cleaned up removes its own insertion on exit.
        The identity check keeps a slow old waiter from deleting a *new*
        build's entry out from under it.
        """
        with self._lock:
            if self._building.get(key) is build_lock:
                del self._building[key]

    def pending_builds(self) -> tuple[str, ...]:
        """Keys with a singleflight build slot outstanding (tests assert
        this drains back to empty)."""
        with self._lock:
            return tuple(self._building)

    # ------------------------------------------------------------------
    # Maintenance and introspection
    # ------------------------------------------------------------------
    def evict_expired(self) -> int:
        """Drop every expired entry now; returns how many were dropped."""
        now = self._clock()
        dropped = 0
        with self._lock:
            for key in [k for k, e in self._entries.items() if e.expires_at <= now]:
                del self._entries[key]
                self.registry.counter("cache.expirations").inc()
                dropped += 1
            if dropped:
                self.registry.gauge("cache.size").set(len(self._entries))
        return dropped

    def clear(self) -> None:
        """Drop every entry (shutdown or test isolation)."""
        with self._lock:
            self._entries.clear()
            self.registry.gauge("cache.size").set(0)

    def keys(self) -> tuple[str, ...]:
        """Resident keys in LRU-to-MRU order (expired entries included
        until an access or :meth:`evict_expired` collects them)."""
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.expires_at > self._clock()

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def describe(self) -> dict[str, Any]:
        """JSON-friendly cache configuration and occupancy (stats op)."""
        with self._lock:
            size = len(self._entries)
        return {
            "size": size,
            "capacity": self.capacity,
            "ttl_seconds": self.ttl_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<IndexCache {len(self._entries)}/{self.capacity} "
            f"ttl={self.ttl_seconds}>"
        )
