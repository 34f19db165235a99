"""Benchmark harness: timed runs, memory measurement, grids, reporting."""

from repro.bench.experiments import (
    ALL_ALGORITHMS,
    SIGNATURE_RATIOS,
    fig5a_grid,
    fig5b_grid,
    fig5c_grid,
    fig6b_configs,
    fig6c_configs,
    fig6def_configs,
    fig7_configs,
    fig8_datasets,
    shj_infeasible,
)
from repro.bench.harness import (
    RunRecord,
    clear_dataset_cache,
    dataset_pair,
    run_algorithm,
    sweep,
)
from repro.bench.memory import deep_sizeof, memory_per_tuple
from repro.bench.reporting import (
    fmt_bytes,
    fmt_seconds,
    format_ratios,
    format_series,
    format_table,
)
from repro.bench.results_io import (
    load_series_csv,
    load_series_json,
    save_series_csv,
    save_series_json,
)

__all__ = [
    "ALL_ALGORITHMS",
    "SIGNATURE_RATIOS",
    "fig5a_grid",
    "fig5b_grid",
    "fig5c_grid",
    "fig6b_configs",
    "fig6c_configs",
    "fig6def_configs",
    "fig7_configs",
    "fig8_datasets",
    "shj_infeasible",
    "RunRecord",
    "run_algorithm",
    "sweep",
    "dataset_pair",
    "clear_dataset_cache",
    "deep_sizeof",
    "memory_per_tuple",
    "format_table",
    "format_series",
    "format_ratios",
    "fmt_seconds",
    "fmt_bytes",
]
