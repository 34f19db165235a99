"""Runtime invariant sanitizer (``REPRO_SANITIZE=1``).

The lint engine (:mod:`repro.analysis.engine`) enforces *source* contracts;
this module enforces *structural* ones at runtime.  With the environment
variable ``REPRO_SANITIZE`` set to a truthy value, the hook sites listed
below re-validate every index structure after it is built or mutated and
raise :class:`~repro.errors.SanitizerError` naming the violating node path
(e.g. ``root.left.right``) on the first broken invariant:

* :meth:`repro.core.base.SetContainmentJoin.prepare` — the freshly-built
  prepared index (trie / buckets / inverted structure + leaf-vs-relation
  accounting).
* :meth:`repro.core.base.PreparedIndex.probe_many` — probe accounting:
  ``probe_calls`` strictly monotone, ``reused_index`` consistent,
  cumulative counters non-decreasing.
* :class:`repro.core.framework.SignaturePreparedIndex` — on exact
  signatures, every candidate's bitmap verdict against its set verdict
  (both ``probe`` and the batch verify loop).
* :class:`repro.index.inverted.InvertedIndex` — postings sorted and
  consistent at construction, and the posting bitsets a PRETTI+ walk
  built consistent with their postings after the walk.
* :class:`repro.extensions.set_index.PatriciaSetIndex` — full trie
  re-validation after every ``add``/``discard``.
* :func:`repro.planner.executor.execute_plan` — the plan is a frozen value
  object with a known executor.

The checks are deliberately O(index size) — they re-walk whole tries — so
the sanitizer is a testing/debugging mode, not a production default (see
``docs/ANALYSIS.md`` for overhead numbers).  Everything here duck-types
against the public structure attributes; only the trie classes themselves
are imported, keeping this module free of cycles with the core layers.
"""

from __future__ import annotations

import os
from typing import Any

from repro.errors import SanitizerError
from repro.tries.binary_trie import BinaryTrie
from repro.tries.patricia import PatriciaTrie
from repro.tries.set_patricia import SetPatriciaTrie
from repro.tries.set_trie import SetTrie

__all__ = [
    "ENV_VAR",
    "enabled",
    "check_signature",
    "check_patricia_trie",
    "check_binary_trie",
    "check_set_trie",
    "check_set_patricia_trie",
    "check_inverted_index",
    "check_prepared_index",
    "check_probe_accounting",
    "check_exact_verdicts",
    "check_plan",
    "maybe_check_prepared_index",
    "maybe_check_probe_accounting",
    "maybe_check_inverted_index",
    "maybe_check_patricia_trie",
    "maybe_check_plan",
]

ENV_VAR = "REPRO_SANITIZE"
_FALSY = frozenset({"", "0", "false", "no", "off"})


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` is set to a truthy value.

    Read fresh on every call (not cached) so tests can toggle the mode
    with ``monkeypatch.setenv`` without reloading modules.
    """
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSY


def _fail(message: str, path: str) -> None:
    raise SanitizerError(message, path=path)


# ----------------------------------------------------------------------
# Signatures
# ----------------------------------------------------------------------
def check_signature(signature: Any, bits: int, path: str = "signature") -> None:
    """A signature bitmap must be a non-negative int fitting ``bits``."""
    if not isinstance(signature, int) or isinstance(signature, bool):
        _fail(f"signature is {type(signature).__name__}, expected int", path)
    if signature < 0:
        _fail(f"negative signature {signature}", path)
    if signature.bit_length() > bits:
        _fail(
            f"signature needs {signature.bit_length()} bits but the "
            f"configured signature length is {bits}",
            path,
        )


# ----------------------------------------------------------------------
# Signature-space tries
# ----------------------------------------------------------------------
def check_patricia_trie(trie: PatriciaTrie) -> None:
    """Re-validate every Patricia-trie invariant, reporting the node path.

    Checks (paper Sec. III-B / docs/ALGORITHMS.md): segments tile
    ``[0, bits)`` along every root path, prefixes fit their segment, the
    cached ``shift``/``mask`` agree with the bounds, internal nodes are
    genuine two-way branches with correct branch bits, leaves extend to the
    signature width and store exactly their path bits, and the recorded
    ``leaf_count`` matches the walk.
    """
    if trie.root is None:
        if trie.leaf_count != 0:
            _fail(f"empty trie reports leaf_count={trie.leaf_count}", "root")
        return
    leaves = 0
    nodes = 0
    stack: list[tuple[Any, int, int, str]] = [(trie.root, 0, 0, "root")]
    while stack:
        node, start, acc, path = stack.pop()
        nodes += 1
        if node.start != start:
            _fail(f"skip-prefix gap: segment starts at {node.start}, "
                  f"expected {start}", path)
        if node.stop > trie.bits or node.stop < node.start:
            _fail(f"segment [{node.start},{node.stop}) out of range "
                  f"[0,{trie.bits})", path)
        width = node.stop - node.start
        if node.prefix >> width:
            _fail(f"prefix 0x{node.prefix:x} wider than its {width}-bit "
                  "segment", path)
        if node.shift != trie.bits - node.stop:
            _fail(f"cached shift {node.shift} != bits - stop "
                  f"({trie.bits - node.stop})", path)
        if node.mask != (1 << width) - 1:
            _fail(f"cached mask 0x{node.mask:x} != segment mask", path)
        acc = (acc << width) | node.prefix
        if node.is_leaf:
            leaves += 1
            if node.stop != trie.bits:
                _fail(f"leaf stops at bit {node.stop}, not the signature "
                      f"length {trie.bits}", path)
            check_signature(node.signature, trie.bits, f"{path}.signature")
            if node.signature != acc:
                _fail(f"leaf signature 0x{node.signature:x} != path bits "
                      f"0x{acc:x}", path)
        else:
            if node.left is None or node.right is None:
                _fail("internal node with a single child (Patricia "
                      "compression violated)", path)
            if node.stop >= trie.bits:
                _fail("internal node extends to the signature width", path)
            left_bit = node.left.prefix >> (node.left.stop - node.left.start - 1)
            right_bit = node.right.prefix >> (node.right.stop - node.right.start - 1)
            if left_bit != 0:
                _fail("left child's branch bit is 1", f"{path}.left")
            if right_bit != 1:
                _fail("right child's branch bit is 0", f"{path}.right")
            stack.append((node.left, node.stop, acc, f"{path}.left"))
            stack.append((node.right, node.stop, acc, f"{path}.right"))
    if leaves != trie.leaf_count:
        _fail(f"walk found {leaves} leaves but leaf_count={trie.leaf_count}",
              "root")
    if nodes > 2 * leaves - 1:
        _fail(f"{nodes} nodes exceed the Patricia bound 2k-1={2 * leaves - 1}",
              "root")


def check_binary_trie(trie: BinaryTrie) -> None:
    """Re-validate the uncompressed binary trie: leaves live exactly at
    depth ``bits`` and store the signature spelled by their path."""
    leaves = 0
    stack: list[tuple[Any, int, int, str]] = [(trie.root, 0, 0, "root")]
    while stack:
        node, depth, acc, path = stack.pop()
        if node.is_leaf:
            leaves += 1
            if depth != trie.bits:
                _fail(f"leaf at depth {depth}, expected {trie.bits}", path)
            check_signature(node.signature, trie.bits, f"{path}.signature")
            if node.signature != acc:
                _fail(f"leaf signature 0x{node.signature:x} != path bits "
                      f"0x{acc:x}", path)
        elif depth >= trie.bits and (node.left or node.right):
            _fail("node below the signature width has children", path)
        if node.left is not None:
            stack.append((node.left, depth + 1, acc << 1, f"{path}.left"))
        if node.right is not None:
            stack.append((node.right, depth + 1, (acc << 1) | 1, f"{path}.right"))
    if leaves != trie.leaf_count:
        _fail(f"walk found {leaves} leaves but leaf_count={trie.leaf_count}",
              "root")


# ----------------------------------------------------------------------
# Element-space tries (PRETTI / PRETTI+)
# ----------------------------------------------------------------------
def check_set_trie(trie: SetTrie) -> None:
    """Re-validate the PRETTI set trie: children keyed by their label,
    labels strictly ascending along paths, ``size`` equals resident ids."""
    resident = 0
    stack: list[tuple[Any, str]] = [(trie.root, "root")]
    while stack:
        node, path = stack.pop()
        resident += len(node.tuples)
        for label, child in node.children.items():
            child_path = f"{path}.{label}"
            if label != child.label:
                _fail(f"child keyed {label} carries label {child.label}",
                      child_path)
            if node is not trie.root and child.label <= node.label:
                _fail(f"labels not ascending: {child.label} under "
                      f"{node.label}", child_path)
            stack.append((child, child_path))
    if resident != trie.size:
        _fail(f"walk found {resident} resident tuples but size={trie.size}",
              "root")


def check_set_patricia_trie(trie: SetPatriciaTrie) -> None:
    """Re-validate the PRETTI+ element-space Patricia trie: non-empty
    strictly-ascending prefixes, children keyed by their first element,
    compression (no mergeable chains), ``size`` equals resident ids."""
    resident = 0
    stack: list[tuple[Any, int, str]] = [(trie.root, -1, "root")]
    while stack:
        node, last, path = stack.pop()
        resident += len(node.tuples)
        if node is not trie.root:
            if not node.prefix:
                _fail("non-root node with an empty prefix", path)
            if node.prefix[0] <= last:
                _fail(f"element {node.prefix[0]} does not ascend past "
                      f"{last} at the node boundary", path)
            for i in range(1, len(node.prefix)):
                if node.prefix[i] <= node.prefix[i - 1]:
                    _fail(f"prefix {node.prefix} not strictly ascending",
                          path)
            if not node.children and not node.tuples:
                _fail("childless node holds no tuples", path)
            if len(node.children) == 1 and not node.tuples:
                _fail("single-child node without tuples (mergeable chain)",
                      path)
        for key, child in node.children.items():
            child_path = f"{path}.{key}"
            if not child.prefix or child.prefix[0] != key:
                _fail(f"child keyed {key} has prefix {child.prefix}",
                      child_path)
            tail = node.prefix[-1] if node.prefix else last
            stack.append((child, tail, child_path))
    if resident != trie.size:
        _fail(f"walk found {resident} resident tuples but size={trie.size}",
              "root")


# ----------------------------------------------------------------------
# Inverted index
# ----------------------------------------------------------------------
def check_inverted_index(index: Any) -> None:
    """Postings lists and ``all_ids`` must be strictly ascending, and every
    posting must reference a known tuple id.  Every posting bitset built so
    far must hold exactly the ranks (positions in ``all_ids``) of its
    element's postings."""
    all_ids = index.all_ids
    for i in range(1, len(all_ids)):
        if all_ids[i] <= all_ids[i - 1]:
            _fail(f"all_ids not strictly ascending at index {i} "
                  f"({all_ids[i - 1]} then {all_ids[i]})", f"all_ids[{i}]")
    rank_of = {rid: p for p, rid in enumerate(all_ids)}
    for element, postings in index.lists.items():
        for i, rid in enumerate(postings):
            if i and rid <= postings[i - 1]:
                _fail(f"postings for element {element} not strictly "
                      f"ascending at index {i}", f"postings[{element}][{i}]")
            if rid not in rank_of:
                _fail(f"postings for element {element} reference unknown "
                      f"tuple id {rid}", f"postings[{element}][{i}]")
    for element, bits in getattr(index, "posting_bitsets", {}).items():
        postings = index.lists.get(element, [])
        path = f"posting_bitsets[{element}]"
        if bits.bit_count() != len(postings):
            _fail(f"posting bitset for element {element} has "
                  f"{bits.bit_count()} bits for {len(postings)} postings", path)
        for rid in postings:
            if not bits >> rank_of[rid] & 1:
                _fail(f"posting bitset for element {element} misses tuple id "
                      f"{rid} (rank {rank_of[rid]})", path)


# ----------------------------------------------------------------------
# Prepared indexes
# ----------------------------------------------------------------------
def _group_ids(payload: Any) -> int:
    """Count tuple ids in a leaf payload of CandidateGroup-likes."""
    total = 0
    for group in payload:
        ids = getattr(group, "ids", None)
        total += len(ids) if ids is not None else 1
    return total


def check_prepared_index(index: Any) -> None:
    """Validate a freshly-built prepared index against its relation.

    Dispatches on the structure the index exposes: a signature trie
    (PTSJ/TSJ), an element-space trie (PRETTI/PRETTI+), or SHJ's hash
    buckets.  Beyond each structure's own invariants, the accounting must
    close: the ids resident in the structure are exactly the indexed
    relation's tuples, and the configured signature length matches the
    trie width.
    """
    relation_size = len(index.relation)
    trie = getattr(index, "trie", None)
    sig_bits = getattr(index, "signature_bits", 0)

    if isinstance(trie, PatriciaTrie) or isinstance(trie, BinaryTrie):
        check_patricia_trie(trie) if isinstance(trie, PatriciaTrie) else check_binary_trie(trie)
        if sig_bits and trie.bits != sig_bits:
            _fail(f"trie width {trie.bits} != configured signature length "
                  f"{sig_bits}", "root")
        resident = sum(_group_ids(leaf.items) for leaf in trie.leaves())
        if resident != relation_size:
            _fail(f"trie holds {resident} tuple ids but the indexed "
                  f"relation has {relation_size}", "root")
    elif isinstance(trie, SetTrie):
        check_set_trie(trie)
        if trie.size != relation_size:
            _fail(f"set trie holds {trie.size} tuples but the indexed "
                  f"relation has {relation_size}", "root")
    elif isinstance(trie, SetPatriciaTrie):
        check_set_patricia_trie(trie)
        if trie.size != relation_size:
            _fail(f"set Patricia trie holds {trie.size} tuples but the "
                  f"indexed relation has {relation_size}", "root")

    buckets = getattr(getattr(index, "_algorithm", None), "buckets", None)
    if trie is None and isinstance(buckets, dict):
        resident = 0
        for key, bucket in buckets.items():
            for i, entry in enumerate(bucket):
                if sig_bits:
                    check_signature(entry.signature, sig_bits,
                                    f"buckets[{key}][{i}].signature")
                resident += _group_ids([entry.group])
        if resident != relation_size:
            _fail(f"hash buckets hold {resident} tuple ids but the indexed "
                  f"relation has {relation_size}", "buckets")

    calls = getattr(index, "_probe_calls", 0)
    if calls != 0:
        _fail(f"freshly-prepared index reports probe_calls={calls}",
              "probe_calls")


def check_probe_accounting(index: Any, stats: Any, probe_records: int) -> None:
    """After one ``probe_many`` batch: reuse counters must be monotone and
    self-consistent, and cumulative counters can only grow."""
    calls = index._probe_calls
    last = getattr(index, "_sanitizer_last_probe_calls", 0)
    if calls != last + 1:
        _fail(f"probe_calls went {last} -> {calls}; must increase by "
              "exactly 1 per batch", "probe_calls")
    index._sanitizer_last_probe_calls = calls
    if stats.extras.get("probe_calls") != calls:
        _fail(f"stats.extras['probe_calls']={stats.extras.get('probe_calls')}"
              f" disagrees with the index's counter {calls}",
              "extras.probe_calls")
    expected_reuse = 0 if calls == 1 else 1
    if stats.extras.get("reused_index") != expected_reuse:
        _fail(f"stats.extras['reused_index']="
              f"{stats.extras.get('reused_index')} on batch {calls}",
              "extras.reused_index")
    if stats.build_seconds != 0.0:
        _fail("a pure probe batch reports non-zero build_seconds",
              "build_seconds")
    cum = index._cumulative
    for counter in ("pairs", "candidates", "verifications", "node_visits",
                    "intersections"):
        batch = getattr(stats, counter)
        total = getattr(cum, counter)
        if batch < 0:
            _fail(f"negative counter {counter}={batch}", counter)
        if total < batch:
            _fail(f"cumulative {counter}={total} fell below this batch's "
                  f"{batch}; accumulation is not monotone", counter)


def check_exact_verdicts(leaf: Any, r_sig: int, r_set: frozenset[int]) -> None:
    """On exact signatures, the int verdict must be the set verdict.

    The signature joins decide a leaf's candidates with
    ``leaf.signature & ~r_sig == 0`` when the scheme is injective on both
    sides; every group of the leaf must then agree under
    ``group.elements <= r_set``.
    """
    fits = not leaf.signature & ~r_sig
    for i, group in enumerate(leaf.items):
        if fits != (group.elements <= r_set):
            _fail(f"bitmap verdict {fits} disagrees with the set verdict for "
                  f"tuple ids {list(group.ids)}: leaf signature "
                  f"{leaf.signature:#x}, probe signature {r_sig:#x}",
                  f"leaf[{leaf.signature:#x}].items[{i}]")


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
def check_plan(plan: Any) -> None:
    """A plan entering the executor must still be a frozen value object."""
    params = getattr(type(plan), "__dataclass_params__", None)
    if params is None or not params.frozen:
        _fail(f"plan of type {type(plan).__name__} is not a frozen "
              "dataclass", "plan")
    for name in ("algorithm_kwargs", "executor_options", "decisions"):
        if not isinstance(getattr(plan, name), tuple):
            _fail(f"plan.{name} is {type(getattr(plan, name)).__name__}, "
                  "expected an immutable tuple", f"plan.{name}")


# ----------------------------------------------------------------------
# Env-gated wrappers (the hook entry points)
# ----------------------------------------------------------------------
def maybe_check_prepared_index(index: Any) -> None:
    if enabled():
        check_prepared_index(index)


def maybe_check_probe_accounting(index: Any, stats: Any, probe_records: int) -> None:
    if enabled():
        check_probe_accounting(index, stats, probe_records)


def maybe_check_inverted_index(index: Any) -> None:
    if enabled():
        check_inverted_index(index)


def maybe_check_patricia_trie(trie: PatriciaTrie) -> None:
    if enabled():
        check_patricia_trie(trie)


def maybe_check_plan(plan: Any) -> None:
    if enabled():
        check_plan(plan)
