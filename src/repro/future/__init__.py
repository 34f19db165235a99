"""Paper Sec. VI future-work directions, implemented.

* :class:`~repro.future.multiway.MWTSJ` — multi-way (16-ary) signature
  trie join ("more advanced data structures such as multi-way trie").
* :class:`~repro.future.trie_trie.TrieTrieJoin` — simultaneous traversal
  of two signature tries ("join algorithms such as trie-trie join").
* :class:`~repro.exec.parallel.ParallelJoin` — partition-parallel
  execution over worker processes ("nontrivial multi-core ... settings").
* :class:`~repro.exec.resilient.ResilientParallelJoin` — the same
  partition parallelism with per-chunk retry, timeouts, pool re-creation
  and an in-process fallback, so one bad worker degrades the join
  instead of killing it (see ``docs/ROBUSTNESS.md``).

The parallel executors now live in :mod:`repro.exec` (see
``docs/EXECUTORS.md``); they are re-exported here for backwards
compatibility.
"""

from repro.exec.parallel import ParallelJoin, parallel_join
from repro.exec.resilient import (
    ResilientParallelJoin,
    RetryPolicy,
    resilient_parallel_join,
)
from repro.future.multiway import MWTSJ, MultiwayTrie
from repro.future.trie_trie import TrieTrieJoin

__all__ = [
    "MultiwayTrie",
    "MWTSJ",
    "TrieTrieJoin",
    "ParallelJoin",
    "parallel_join",
    "ResilientParallelJoin",
    "RetryPolicy",
    "resilient_parallel_join",
]
