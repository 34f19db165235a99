"""Benchmark entry point: one workload, one seed, one measured window.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload join-twitter --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` of the checkout the
script sits in and is not modified.  Inputs are generated from ``--seed``;
the program only ever receives the generated relations.  Every output is
checked, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end metrics (``--trace 0``), the same names on every workload:

=============  ====  ====================================================
metric         unit  join-* workloads / serve-mixed
=============  ====  ====================================================
latency_p50    ref   median wall time of one ``set_containment_join`` /
                     median warm handle-probe latency at the reference
                     rate, timed from its due time
latency_tail   ref   90th percentile of the same
peak_rss_mb    MB    VmHWM of the benchmark process / of the server
setup_s        s     median over several repeats, half before and half
                     after the measured window, of the set-up the window
                     needs: importing ``repro`` and resolving the kernel
                     backend in a fresh interpreter / server start-up to
                     its ready line plus the warm-up builds of the hot set
=============  ====  ====================================================

Latencies are in ``ref`` units: multiples of the time of a fixed piece of
pure-Python work (ten ``common.reference_slice`` calls) timed in the same
process just before each join, or, for the server, in the pauses between
the segments of the load, when no request is in flight.  On a shared
virtual machine the host's load moves raw times by 20-40 % within
minutes; the ratio cancels that and still moves with the program.  The
raw times are printed too.  ``setup_s`` stays in plain seconds.
The tail is the 90th percentile: for joins the highest a run supports with
ten samples beyond it; the serve run's warm p99 is printed, but on a
shared two-core host it varies too much between runs to carry a bound.

Failures (errors, refusals, time-outs, wrong pairs) are counted in the
result line's ``failed`` out of ``attempted``; any failure makes
``correct`` false.  The figures the workloads are described by (join_s_p50,
join_s_p90, join_records_per_s, warm_ms_p50, warm_ms_p99, reship_ms_p50,
cold_ms_p50, max_rate_rps, failed_frac, ...) are printed by name and unit
above the result line.

``--trace 1`` makes a separate run that reports the ``per_layer`` metrics
of ``BENCHMARK.json`` instead; its numbers never feed the end-to-end
metrics.  Governance budgets and deadlines are off, and the kernel backend
is the auto-resolved default, in every workload; each run records both.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("join-twitter", "join-flickr", "join-twitter-2w", "serve-mixed")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program source: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]

    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2

    from perfbench import joins, serve_load

    trace = bool(args.trace)
    if args.workload in joins.SPECS:
        report = joins.run(ROOT, args.workload, args.seed, args.seconds, trace)
    else:
        report = serve_load.run(ROOT, args.seed, args.seconds, trace)
    report.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
