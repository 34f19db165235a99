"""End-to-end and per-layer benchmark of the set-containment join system.

Run it from the root of a checkout: ``python3 perfbench/run.py --workload
join-twitter --seed 1 --seconds 20 --trace 0``.  See ``perfbench/run.py``
for the metrics each workload reports.
"""
