"""Deep memory measurement for index structures (paper Fig. 6a).

The paper's Fig. 6a reports *main-memory consumption per tuple* of each
algorithm's index.  :func:`deep_sizeof` recursively measures a Python
object graph (handling ``__slots__``, dicts, sequences and shared
sub-objects), and :func:`memory_per_tuple` applies it to what each
prepared index reports through
:meth:`~repro.core.base.PreparedIndex.memory_objects`, so per-algorithm
footprints are comparable.

Absolute bytes are Python-object bytes (boxed ints, dict overhead), far
above the paper's Java numbers — the reproduction target is the *relative*
picture: PRETTI an order of magnitude above the rest, linear growth in set
cardinality, SHJ/PTSJ insensitive to it (Fig. 6a).
"""

from __future__ import annotations

import sys
import types
from typing import Any

from repro.core.registry import make_algorithm
from repro.kernels import KernelBackend
from repro.relations.relation import Relation

__all__ = ["deep_sizeof", "memory_per_tuple"]

#: Process-wide objects :func:`deep_sizeof` stops at.  Kernel backends are
#: process singletons that pickle by name, so an index refers to one but
#: does not own it.
_SHARED_TYPES = (
    types.ModuleType,
    type,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    KernelBackend,
)


def deep_sizeof(obj: Any, _seen: set[int] | None = None) -> int:
    """Total bytes of ``obj`` and everything reachable from it.

    Each distinct object is counted once (cycles and sharing are safe).
    Containers (dict/list/tuple/set/frozenset), instance ``__dict__`` and
    ``__slots__`` attributes are followed; atomic values are measured with
    :func:`sys.getsizeof`.  The walk is iterative, so arbitrarily deep
    structures (e.g. PRETTI tries over high-cardinality sets) are safe.

    Modules, classes, functions and kernel backends are neither counted
    nor followed: they are shared by the whole process, not owned by an
    index.  Without this stop, an index holding the numpy kernel backend
    would count numpy's module namespace, and whatever the process
    imported before, as index bytes.  An instance ``__dict__`` counts as
    a plain dict with the same items, so the figure does not depend on
    how many other instances of the class are alive.
    """
    seen = _seen if _seen is not None else set()
    total = 0
    stack: list[Any] = [obj]
    while stack:
        current = stack.pop()
        oid = id(current)
        if oid in seen or isinstance(current, _SHARED_TYPES):
            continue
        seen.add(oid)
        total += sys.getsizeof(current)
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        elif isinstance(current, (str, bytes, bytearray, int, float, bool, complex)) or current is None:
            pass
        else:
            instance_dict = getattr(current, "__dict__", None)
            if instance_dict is not None and id(instance_dict) not in seen:
                seen.add(id(instance_dict))
                # An instance dict shares its keys with the class's other
                # instances, and CPython then reports a size that drifts
                # with how many of them exist; a plain copy's does not.
                total += sys.getsizeof(dict(instance_dict))
                stack.extend(instance_dict.keys())
                stack.extend(instance_dict.values())
            for klass in type(current).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if hasattr(current, slot):
                        stack.append(getattr(current, slot))
    return total


def memory_per_tuple(name: str, r: Relation, s: Relation, **kwargs) -> float:
    """Build ``name``'s index for ``R ⋈⊇ S`` and report bytes per tuple.

    Matches Fig. 6a's metric: total index bytes divided by the number of
    indexed tuples, measured through the prepared index's
    :meth:`~repro.core.base.PreparedIndex.memory_objects`.  PRETTI/PRETTI+
    index both relations (trie on ``S``, inverted file on ``R``), so their
    divisor is ``|R| + |S|``; signature algorithms index only ``S``.
    """
    algorithm = make_algorithm(name, **kwargs)
    prepared = algorithm.prepare(s, probe_hint=r)
    divisor = len(s) + (len(r) if algorithm.name in ("pretti", "pretti+") else 0)
    if divisor == 0:
        return 0.0
    seen: set[int] = set()
    total = sum(deep_sizeof(obj, seen) for obj in prepared.memory_objects(r))
    return total / divisor
