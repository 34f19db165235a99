"""Bench gate: a PRETTI+ batch probe emits its pairs without making objects.

PRETTI+'s ``probe_many`` fills two ``array('q')`` id columns
(:class:`~repro.core.base.PairColumns`) in blocks, one block per trie node
holding tuples, instead of one GC-tracked ``(r_id, s_id)`` tuple per pair.
With about 117k pairs per join on the Fig. 8 flickr surrogate, the tuples
alone used to trigger about 160 generation-0 collections per probe, none
of which freed anything.

This gate counts collections rather than timing them, so a loaded CI
machine cannot make it flaky: it runs one ``probe_many`` on the repo
benchmark's ``join-flickr`` seed-1 inputs (``perfbench/joins.py``), with
the set-up frozen as the benchmark freezes it, and counts the collector's
runs through ``gc.callbacks``.  It also checks that the columns hold the
pairs the per-record ``probe()`` calls stream, in their order once
regrouped by R record.
"""

from __future__ import annotations

import gc

from perfbench.joins import SPECS, make_inputs
from repro.core.base import PairColumns
from repro.core.pretti_plus import PRETTIPlus

#: Tuple-per-pair emission made 159 generation-0 collections per probe on
#: these inputs (2-vCPU x86-64, CPython 3.11); block emission makes 0-1.
#: The gate allows a tenth of the old count.
MAX_GEN0_COLLECTIONS = 15


def count_collections(call) -> list[int]:
    """Run ``call()`` with the heap frozen; collections started per generation."""
    counts = [0, 0, 0]

    def on_collect(phase: str, info: dict) -> None:
        if phase == "start":
            counts[info["generation"]] += 1

    gc.collect()
    gc.freeze()
    gc.callbacks.append(on_collect)
    try:
        call()
    finally:
        gc.callbacks.remove(on_collect)
        gc.unfreeze()
    return counts


def test_flickr_probe_makes_a_tenth_of_the_collections():
    r, s = make_inputs(SPECS["join-flickr"], 1)[0]
    index = PRETTIPlus().prepare(s)
    index.probe_many(r)  # warm-up: first-call set-up is not the probe's
    results = []
    counts = count_collections(lambda: results.append(index.probe_many(r)))
    (result,) = results
    assert len(result.pairs) > 100_000
    assert isinstance(result.pairs, PairColumns)
    assert counts[0] <= MAX_GEN0_COLLECTIONS, (
        f"{counts[0]} generation-0 collections in one probe_many "
        f"(limit {MAX_GEN0_COLLECTIONS}): pairs are being made as objects again"
    )

    # Same pairs as the per-record probes, in their order per R record.
    position = {rec.rid: i for i, rec in enumerate(r)}
    regrouped = sorted(result.pairs, key=lambda pair: position[pair[0]])
    streamed = [(rec.rid, s_id) for rec in r for s_id in index.probe(rec)]
    assert regrouped == streamed
