"""Swappable batch probe kernels behind a backend registry.

The probe loop is the system's hot path; this package factors its inner
operations — batch signature containment filters, sorted posting-list
intersection, and the probe-block transposition behind PTSJ's
set-at-a-time trie walk — into a small ABI
(:class:`~repro.kernels.base.KernelBackend`) with interchangeable
implementations:

* ``python`` — pure stdlib, always available, defines the reference
  bit-for-bit semantics;
* ``numpy`` — packed ``uint64`` signature matrices with vectorized
  bit-ops; optional import, auto-selected when importable.

Selection order (mirrors the dux ``native_scanner``/``python_scanner``
dual-backend pattern):

1. An explicit ``set_default_backend(name)`` call (the CLI's
   ``--backend`` flag goes through this).
2. The ``REPRO_KERNEL`` environment variable — forcing an unavailable
   backend raises :class:`KernelUnavailableError` loudly rather than
   silently falling back (CI relies on this to prove the forced-python
   leg really ran pure Python).
3. Auto-selection down :data:`AUTO_ORDER`: the first constructible
   backend wins (``numpy`` when installed, else ``python``).

Resolution is lazy (first ``get_backend()`` call) and cached; backends
are stateless singletons and pickle by name, so prepared indexes that
captured one at build time reconnect to the worker process's instance.

See ``docs/KERNELS.md`` for the ABI and the cross-backend parity
contract.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.analysis.concurrency import tracked_lock
from repro.kernels.base import KernelBackend, KernelUnavailableError, SignaturePack
from repro.kernels.numpy_backend import NumpyKernel
from repro.kernels.python_backend import PythonKernel

__all__ = [
    "AUTO_ORDER",
    "ENV_VAR",
    "KernelBackend",
    "KernelUnavailableError",
    "SignaturePack",
    "active_backend_name",
    "available_backends",
    "backend_source",
    "get_backend",
    "register_backend",
    "registered_backends",
    "set_default_backend",
    "use_backend",
]

#: Environment variable forcing a backend for the whole process.
ENV_VAR = "REPRO_KERNEL"

#: Auto-selection preference, best first.
AUTO_ORDER = ("numpy", "python")

# Registry lock: guards the factory/instance tables and default
# resolution.  Tracked under REPRO_RACEDETECT; it must stay a leaf in the
# documented lock order (docs/ANALYSIS.md) — nothing under it may call
# back out of the registry.
_lock = tracked_lock("kernels.registry")
_factories: dict[str, Callable[[], KernelBackend]] = {}
_instances: dict[str, KernelBackend] = {}
#: Resolved default backend name, or None if not yet resolved.
_active: str | None = None
#: How the active backend was chosen: "explicit", "env" or "auto".
_source: str = "auto"


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend constructor under ``name``.

    The factory may raise :class:`KernelUnavailableError` (or
    ``ImportError``) when the backend cannot run on this host; such
    backends are simply absent from :func:`available_backends`.
    Re-registering a name replaces the factory and drops any cached
    instance (useful for tests injecting probes).
    """
    with _lock:
        _factories[name] = factory
        _instances.pop(name, None)


def _construct(name: str) -> KernelBackend:
    """Build (or fetch the cached) instance for ``name``; may raise."""
    instance = _instances.get(name)
    if instance is None:
        try:
            factory = _factories[name]
        except KeyError:
            known = ", ".join(sorted(_factories))
            raise KernelUnavailableError(
                f"unknown kernel backend {name!r} (registered: {known})"
            ) from None
        try:
            instance = factory()
        except (KernelUnavailableError, ImportError) as exc:
            raise KernelUnavailableError(
                f"kernel backend {name!r} is not available on this host: {exc}"
            ) from exc
        _instances[name] = instance
    return instance


def registered_backends() -> tuple[str, ...]:
    """Every registered backend name, available on this host or not.

    Order follows :data:`AUTO_ORDER` first, then extra registrations
    alphabetically — the same order :func:`available_backends` uses.
    """
    with _lock:
        ordered = [n for n in AUTO_ORDER if n in _factories]
        ordered += sorted(n for n in _factories if n not in AUTO_ORDER)
        return tuple(ordered)


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends that construct on this host.

    Order follows :data:`AUTO_ORDER` first (selection preference), then
    any additionally registered names sorted alphabetically.
    """
    with _lock:
        ordered = [n for n in AUTO_ORDER if n in _factories]
        ordered += sorted(n for n in _factories if n not in AUTO_ORDER)
        out = []
        for name in ordered:
            try:
                _construct(name)
            except KernelUnavailableError:
                continue
            out.append(name)
        return tuple(out)


def _resolve_default_locked() -> str:
    """Resolve the process default backend name (caller holds ``_lock``)."""
    global _active, _source
    if _active is not None:
        return _active
    forced = os.environ.get(ENV_VAR)
    if forced:
        _construct(forced)  # raises loudly if the forced backend is broken
        _active, _source = forced, "env"
        return _active
    for name in AUTO_ORDER:
        if name not in _factories:
            continue
        try:
            _construct(name)
        except KernelUnavailableError:
            continue
        _active, _source = name, "auto"
        return _active
    raise KernelUnavailableError(
        "no kernel backend is available (not even 'python'); "
        "the registry has been tampered with"
    )


def get_backend(name: str | None = None) -> KernelBackend:
    """Return a backend instance.

    Args:
        name: Explicit backend name, or ``None`` for the process default
            (explicit setting, else ``REPRO_KERNEL``, else auto).

    Raises:
        KernelUnavailableError: Unknown name, or the backend cannot be
            constructed on this host.
    """
    # Lock-free fast path for the hot probe loop: once the default is
    # resolved its instance is cached, and CPython dict reads are atomic.
    target = _active if name is None else name
    if target is not None:
        instance = _instances.get(target)
        if instance is not None and (name is not None or _active == target):
            return instance
    with _lock:
        if name is None:
            name = _resolve_default_locked()
        return _construct(name)


def active_backend_name() -> str:
    """Name of the process-default backend (resolving it if needed)."""
    with _lock:
        return _resolve_default_locked()


def backend_source() -> str:
    """How the default was chosen: ``"explicit"``, ``"env"`` or ``"auto"``.

    Resolves the default first, so the answer is never stale.
    """
    with _lock:
        _resolve_default_locked()
        return _source


def set_default_backend(name: str) -> str:
    """Set the process-default backend; returns the *previous* default.

    The backend is constructed eagerly so a bad name fails here, not in
    the middle of a join.
    """
    global _active, _source
    with _lock:
        previous = _resolve_default_locked()
        _construct(name)
        _active, _source = name, "explicit"
        return previous


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Temporarily make ``name`` the process default (tests, benchmarks).

    Not safe to nest across threads that resolve backends concurrently —
    the default is process-global by design (prepared indexes capture
    their backend at build time, so in-flight probes are unaffected).
    """
    global _active, _source
    with _lock:
        prev_active, prev_source = _resolve_default_locked(), _source
        instance = _construct(name)
        _active, _source = name, "explicit"
    try:
        yield instance
    finally:
        with _lock:
            _active, _source = prev_active, prev_source


register_backend("python", PythonKernel)
register_backend("numpy", NumpyKernel)
