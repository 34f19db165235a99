"""Per-layer metrics of the traced run.

The per-layer metrics are the ``per_layer`` list of ``BENCHMARK.json``,
read from there so the names and units have one source.  Every traced run
reports all of them: a layer the workload bypasses reads 0 (the PRETTI+
trie traversal on a PTSJ join, the pool executor on an inline join, the
server's layers on a batch join, ...), which is itself the "no move"
prediction for that workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from perfbench import common

#: name -> unit.  Join metrics are the mean over traced joins of the
#: per-join value; serve metrics are medians over warm replies at the
#: reference rate and over re-ship and cold replies at every rate.
_UNITS: dict[str, str] = {
    entry["name"]: entry["unit"]
    for entry in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )["per_layer"]
}


def _span_ms(root, *path: str) -> float:
    span = root.find(*path)
    return span.seconds * 1e3 if span is not None else 0.0


def span_sample(root, stats, wall_s: float, probes: int) -> dict[str, float]:
    """One traced join's per-layer values from its span tree and stats.

    ``root`` is the finished tracer root and ``stats`` the join's
    ``JoinStats``; ``probes`` is |R|.  The ``exec.*`` values describe the
    pool executor and stay 0 unless the join ran on one
    (``stats.algorithm`` starts with ``parallel-``).
    """
    build_ms = stats.build_seconds * 1e3
    probe_ms = stats.probe_seconds * 1e3
    wall_ms = wall_s * 1e3
    leaf_span = root.find("probe", "signature_filter")
    leaf_hits = leaf_span.counters.get("leaf_hits", 0) if leaf_span is not None else 0
    values = {
        "planner.plan_ms": _span_ms(root, "plan"),
        "core.build_ms": build_ms,
        "core.probe_ms": probe_ms,
        "core.build_share": stats.build_fraction,
        "core.verify_ms": _span_ms(root, "probe", "verify"),
        "core.candidates_per_probe": common.ratio(stats.candidates, probes),
        "core.precision": common.ratio(stats.pairs, stats.verifications),
        "tries.signature_filter_ms": _span_ms(root, "probe", "signature_filter"),
        "tries.node_visits_per_probe": common.ratio(stats.node_visits, probes),
        "tries.leaf_hits_per_probe": common.ratio(leaf_hits, probes),
        "tries.traverse_ms": _span_ms(root, "probe", "traverse"),
        "index.invert_ms": _span_ms(root, "probe", "invert"),
        "index.intersections_per_probe": common.ratio(stats.intersections, probes),
    }
    if stats.algorithm.startswith("parallel-"):
        workers = float(stats.extras["workers"])
        values.update({
            "exec.wall_ms": wall_ms,
            "exec.parent_build_ms": build_ms,
            "exec.chunk_probe_ms_sum": probe_ms,
            "exec.overhead_ms": wall_ms - build_ms - probe_ms / workers,
            "exec.retries": float(stats.extras.get("retries", 0)),
            "exec.fallback_chunks": float(stats.extras.get("fallback_chunks", 0)),
        })
    return values


def kernel_sample(kernel: Mapping[str, float]) -> dict[str, float]:
    """One join's kernel-layer values from the timing proxy's counts."""
    return {
        "kernels.intersect_calls": kernel["intersect_calls"],
        "kernels.intersect_ms": kernel["intersect_s"] * 1e3,
        "kernels.intersect_in_elems": kernel["intersect_in_elems"],
        "kernels.intersect_out_ratio": common.ratio(
            kernel["intersect_out_elems"], kernel["intersect_shorter_elems"]
        ),
        "kernels.pack_ms": kernel["pack_s"] * 1e3,
        "kernels.pack_rows": kernel["pack_rows"],
        "kernels.filter_calls": kernel["filter_calls"],
        "kernels.filter_rows_scanned": kernel["filter_rows_scanned"],
        "kernels.filter_admit_ratio": common.ratio(
            kernel["filter_rows_admitted"], kernel["filter_rows_scanned"]
        ),
    }


def emit(report: common.Report, values: Mapping[str, float]) -> None:
    """Report every per-layer metric, 0 for those not in ``values``."""
    unknown = set(values) - set(_UNITS)
    if unknown:
        raise KeyError(f"per-layer values not in BENCHMARK.json: {sorted(unknown)}")
    for name, unit in _UNITS.items():
        report.metric(name, values.get(name, 0.0), unit)


def _mean(samples: list[dict[str, float]]) -> dict[str, float]:
    if not samples:
        return {}
    return {name: sum(s[name] for s in samples) / len(samples) for name in samples[0]}


def emit_join_layers(
    report: common.Report,
    span_samples: list[dict[str, float]],
    kernel_samples: list[dict[str, float]],
    regret: float,
    tracer_overhead: float,
) -> None:
    values = _mean(span_samples)
    values.update(_mean(kernel_samples))
    values["planner.regret"] = regret
    values["obs.tracer_overhead_frac"] = tracer_overhead
    emit(report, values)
