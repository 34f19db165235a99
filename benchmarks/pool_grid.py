"""Measure the pool break-even grid and fit the planner's pool charges.

The planner keeps a ``workers > 1`` join inline unless the worker pool's
charged estimate beats inline's (docs/PLANNER.md, "Executor and
chunking").  The charges are fitted per cost profile to the rows this
script measures: each row times the same one-shot join inline and on the
two-worker pool, interleaved, on one of the paper's Fig. 8 surrogates.

Measure (writes ``benchmarks/pool_grid.json``; about 10 minutes on two
cores)::

    PYTHONPATH=src python -m benchmarks.pool_grid measure --runs 10

Fit (prints the per-profile ``pool_child_units`` and ``pool_pair_units``
that ``repro.planner.profiles.COST_PROFILES`` carries)::

    PYTHONPATH=src python -m benchmarks.pool_grid fit

Each row stores both relations' :class:`~repro.relations.stats.RelationStats`,
so ``tests/test_planner.py`` re-plans every committed row from statistics
alone and checks the rule against the measured times without running a
join.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

GRID_PATH = Path(__file__).with_name("pool_grid.json")

#: ``(dataset, |R| = |S|)`` rows: small twitter joins the pool loses,
#: large ones and the high-cardinality datasets where it wins.
ROWS = (
    ("twitter", 500),
    ("twitter", 1000),
    ("twitter", 2000),
    ("flickr", 3000),
    ("twitter", 3000),
    ("twitter", 5000),
    ("webbase", 1000),
    ("webbase", 3000),
    ("orkut", 3000),
    ("orkut", 6000),
)

#: Pool width the grid measures (``Workload(workers=2)``).
WORKERS = 2

#: Seeds of R and S; the perfbench workloads draw their first input the same way.
R_SEED, S_SEED = 64, 65

#: A fitted charge is rounded to this many significant digits.
DIGITS = 2

#: Log distance from flipping a row beyond which the fit stops buying
#: margin and prefers the smaller charges (a profile whose rows all lose
#: on the pool would otherwise drive its charges to the top of the grid).
MARGIN_CAP = math.log(2.0)


def _fresh(relation):
    from repro import Relation

    return Relation(tuple(relation), name=relation.name)


def measure_row(dataset: str, size: int, runs: int) -> dict:
    """Time one row: ``runs`` interleaved inline/pool pairs, medians kept."""
    from repro.core.registry import make_algorithm
    from repro.datagen.realworld import make_surrogate
    from repro.exec import ParallelJoin
    from repro.planner import Planner
    from repro.relations.stats import compute_stats

    r = make_surrogate(dataset, size, seed=R_SEED)
    s = make_surrogate(dataset, size, seed=S_SEED)
    r_stats, s_stats = compute_stats(r), compute_stats(s)
    algorithm = Planner().plan(r_stats, s_stats).algorithm

    def inline():
        return make_algorithm(algorithm).join(_fresh(r), _fresh(s))

    def pool():
        return ParallelJoin(algorithm=algorithm, workers=WORKERS).join(_fresh(r), _fresh(s))

    expected = sorted(inline().pairs)
    if sorted(pool().pairs) != expected:
        raise AssertionError(f"{dataset} {size}: pool pairs differ from inline")
    times: dict[str, list[float]] = {"inline": [], "pool": []}
    for i in range(runs):
        # Alternate which arm goes first so drift charges both alike.
        order = (("inline", inline), ("pool", pool))
        for arm, call in order if i % 2 == 0 else order[::-1]:
            gc.collect()
            t0 = perf_counter()
            call()
            times[arm].append(perf_counter() - t0)
    return {
        "dataset": dataset,
        "size": size,
        "algorithm": algorithm,
        "pairs": len(expected),
        "inline_ms": round(statistics.median(times["inline"]) * 1e3, 1),
        "pool_ms": round(statistics.median(times["pool"]) * 1e3, 1),
        "r_stats": asdict(r_stats),
        "s_stats": asdict(s_stats),
    }


def measure(runs: int, rows=ROWS) -> dict:
    """Measure every row; the result is what ``pool_grid.json`` holds."""
    measured = []
    for dataset, size in rows:
        row = measure_row(dataset, size, runs)
        print(
            f"{dataset:8s} {size:5d} {row['algorithm']:8s} pairs {row['pairs']:7d}  "
            f"inline {row['inline_ms']:8.1f} ms  pool {row['pool_ms']:8.1f} ms  "
            f"pool/inline {row['pool_ms'] / row['inline_ms']:.2f}",
            flush=True,
        )
        measured.append(row)
    return {
        "workers": WORKERS,
        "runs": runs,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "rows": measured,
    }


def load_grid(path: Path = GRID_PATH) -> dict:
    return json.loads(path.read_text())


def pool_wins(row: dict) -> bool:
    """Whether the pool measured faster than inline on this row."""
    return row["pool_ms"] < row["inline_ms"]


def _row_terms(row: dict, workers: int) -> tuple[float, float, float]:
    """``(saving, children, pairs home)`` of one row, in its profile's units.

    ``saving`` is what splitting the probe ``workers`` ways saves on the
    inline estimate; the pool pays ``children`` per-child charges and one
    per-pair charge for each pair home.
    """
    from repro.planner import Planner
    from repro.planner.profiles import expected_pairs
    from repro.relations.stats import RelationStats

    r_stats = RelationStats(**row["r_stats"])
    s_stats = RelationStats(**row["s_stats"])
    base = Planner().plan(r_stats, s_stats).decision("algorithm").cost
    children = workers - 1
    pairs_home = expected_pairs(r_stats, s_stats) * children / workers
    return base.probe * children / workers, float(children), pairs_home


def _log_grid(lo: int, hi: int, per_decade: int) -> list[float]:
    return [10 ** (lo + i / per_decade) for i in range((hi - lo) * per_decade + 1)]


def fit(grid: dict) -> dict[str, tuple[float, float]]:
    """Per profile, the ``(pool_child_units, pool_pair_units)`` the grid implies.

    A row plans the pool when ``children · child + pairs_home · pair`` is
    below its probe saving.  The search keeps the pair of charges that
    (1) plans inline only on rows where inline measured faster, (2) then
    has the least summed log regret against the faster arm, (3) then sits
    farthest, in log distance up to :data:`MARGIN_CAP`, from flipping any
    row, and (4) then charges the least.  Charges are
    rounded to :data:`DIGITS` significant digits when that changes no
    decision.
    """
    workers = grid["workers"]
    by_profile: dict[str, list[tuple[tuple[float, float, float], dict]]] = {}
    for row in grid["rows"]:
        by_profile.setdefault(row["algorithm"], []).append((_row_terms(row, workers), row))
    fitted = {}
    for name, rows in sorted(by_profile.items()):
        best: tuple[float, float, float, float] | None = None
        # Ascending charges, so a tie keeps the smaller pair.
        for child in [0.0, *_log_grid(3, 8, 32)]:
            for pair in [0.0, *_log_grid(-1, 3, 32)]:
                score = _score(rows, child, pair)
                if score is not None and (best is None or score > best[:2]):
                    best = (*score, child, pair)
        assert best is not None  # charge 0 always plans the pool: feasible
        child, pair = best[2], best[3]
        rounded = (float(f"{child:.{DIGITS}g}"), float(f"{pair:.{DIGITS}g}"))
        if _decisions(rows, *rounded) == _decisions(rows, child, pair):
            child, pair = rounded
        fitted[name] = (child, pair)
    return fitted


def _decisions(rows, child: float, pair: float) -> list[bool]:
    """Per row, whether the charges plan the pool."""
    return [c * child + p * pair < saving for (saving, c, p), _ in rows]


def _score(rows, child: float, pair: float) -> tuple[float, float] | None:
    """``(-regret, margin)`` of one charge pair, or None if it is infeasible."""
    regret = 0.0
    margin = math.inf
    for ((saving, c, p), row), pooled in zip(rows, _decisions(rows, child, pair)):
        if not pooled and pool_wins(row):
            return None
        planned = row["pool_ms"] if pooled else row["inline_ms"]
        regret += math.log(planned / min(row["pool_ms"], row["inline_ms"]))
        charge = c * child + p * pair
        if charge > 0:
            margin = min(margin, abs(math.log(charge / saving)))
    return (-round(regret, 9), min(margin, MARGIN_CAP))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("measure", help="time every row and write the grid")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("-o", "--output", type=Path, default=GRID_PATH)
    sub.add_parser("fit", help="print the per-profile charges the grid implies")
    args = parser.parse_args(argv)
    if args.command == "measure":
        grid = measure(args.runs)
        args.output.write_text(json.dumps(grid, indent=1) + "\n")
        print(f"wrote {args.output}")
    else:
        for name, (child, pair) in fit(load_grid()).items():
            print(f"{name}: pool_child_units={child:g}, pool_pair_units={pair:g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
