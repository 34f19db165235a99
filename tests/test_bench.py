"""Unit tests for the benchmark harness, memory measurement and reporting."""

from __future__ import annotations

import sys

import pytest

from repro.bench.experiments import (
    ALL_ALGORITHMS,
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
from repro.datagen.synthetic import SyntheticConfig
from tests.conftest import oracle_pairs, random_relation


class TestDeepSizeof:
    def test_counts_container_contents(self):
        assert deep_sizeof([1000, 2000]) > deep_sizeof([])

    def test_shared_objects_counted_once(self):
        shared = list(range(100))
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof([shared])

    def test_cycles_are_safe(self):
        a: list = []
        a.append(a)
        assert deep_sizeof(a) > 0

    def test_slots_objects_measured(self):
        from repro.tries.patricia import PatriciaTrie

        trie = PatriciaTrie(32)
        empty_size = deep_sizeof(trie)
        for sig in (1, 2, 4, 8):
            trie.insert(sig).append(sig)
        assert deep_sizeof(trie) > empty_size

    def test_stops_at_process_wide_objects(self):
        # Modules, classes, functions and kernel backends belong to the
        # process, not to an index: only the list itself is counted.
        from repro.kernels import get_backend

        shared = [sys, SyntheticConfig, len, deep_sizeof, get_backend("python")]
        assert deep_sizeof(shared) == sys.getsizeof(shared)

    def test_deep_structures_no_recursion_error(self):
        node: list = []
        for _ in range(5000):
            node = [node]
        assert deep_sizeof(node) > 0


class TestIndexMemory:
    def test_pretti_uses_most_memory(self):
        """The Fig. 6a ordering at medium cardinality."""
        r = random_relation(150, 24, 300, seed=500, min_cardinality=12)
        s = random_relation(150, 24, 300, seed=501, min_cardinality=12)
        per_tuple = {
            name: memory_per_tuple(name, r, s)
            for name in ("shj", "pretti", "ptsj", "pretti+")
        }
        assert per_tuple["pretti"] == max(per_tuple.values())
        assert per_tuple["pretti+"] < per_tuple["pretti"]

    def test_rows_identical_under_every_kernel(self):
        """Fig. 6a rows do not depend on the kernel backend the index holds."""
        from repro.kernels import available_backends, use_backend

        r = random_relation(120, 8, 200, seed=502)
        s = random_relation(120, 8, 200, seed=503)
        rows = {}
        for backend in available_backends():
            with use_backend(backend):
                rows[backend] = [
                    memory_per_tuple(name, r, s) for name in ("shj", "pretti", "ptsj", "pretti+")
                ]
        assert len(set(map(tuple, rows.values()))) == 1, rows

    def test_memory_per_tuple_empty(self):
        from repro.relations.relation import Relation

        assert memory_per_tuple("ptsj", Relation([]), Relation([]), bits=8) == 0.0


class TestHarness:
    def test_run_algorithm_correctness_and_timing(self):
        r = random_relation(40, 6, 30, seed=502)
        s = random_relation(40, 4, 30, seed=503)
        record = run_algorithm("ptsj", r, s, repeats=3)
        assert record.algorithm == "ptsj"
        assert record.seconds > 0
        assert record.pairs == len(oracle_pairs(r, s))

    def test_dataset_pair_cached(self):
        clear_dataset_cache()
        cfg = SyntheticConfig(size=20, avg_cardinality=4, domain=64, seed=504)
        a = dataset_pair(cfg)
        b = dataset_pair(cfg)
        assert a[0] is b[0] and a[1] is b[1]
        clear_dataset_cache()
        c = dataset_pair(cfg)
        assert c[0] is not a[0]

    def test_sweep_shape_and_skip(self):
        configs = [
            SyntheticConfig(size=16, avg_cardinality=4, domain=64, seed=505),
            SyntheticConfig(size=32, avg_cardinality=4, domain=64, seed=506),
        ]
        series = sweep(configs, ["ptsj", "pretti+"],
                       skip=lambda name, cfg: name == "ptsj" and cfg.size == 32)
        assert len(series["ptsj"]) == len(series["pretti+"]) == 2
        assert series["ptsj"][1] is None
        assert all(v is not None for v in series["pretti+"])


class TestReporting:
    def test_fmt_seconds_scales(self):
        assert fmt_seconds(0.0000005).endswith("us")
        assert fmt_seconds(0.005).endswith("ms")
        assert fmt_seconds(2.5) == "2.50s"

    def test_fmt_bytes_scales(self):
        assert fmt_bytes(100) == "100B"
        assert fmt_bytes(2048) == "2.0KB"
        assert fmt_bytes(3 * 1024 ** 2) == "3.00MB"

    def test_format_table_alignment(self):
        out = format_table(["name", "v"], [["a", 1], ["bb", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "-+-" in lines[2]
        assert len(lines) == 5

    def test_format_series_renders_none_as_dash(self):
        out = format_series("fig", "x", [1, 2], {"a": [0.5, None]})
        assert "-" in out.splitlines()[-1]

    def test_format_ratios_winner_is_1x(self):
        out = format_ratios("fig8", ["ds"], {"a": [2.0], "b": [1.0]})
        assert "2.0x" in out and "1.0x" in out


class TestExperimentGrids:
    def test_fig5_grids_shapes(self):
        assert len(fig5a_grid()) == 5
        assert len(fig5b_grid()) == 4
        assert len(fig5c_grid()) == 5

    def test_fig6_grids(self):
        assert len(fig6b_configs()) == 5
        assert len(fig6c_configs()) == 4
        assert [c.avg_cardinality for c in fig6c_configs()] == [4, 16, 64, 256]
        sizes = [c.size for c in fig6def_configs(16)]
        assert sizes == sorted(sizes)

    def test_fig7_grids(self):
        for axis in ("cardinality", "element"):
            for dist in ("poisson", "zipf"):
                configs = fig7_configs(axis, dist)
                assert len(configs) == 3
                if axis == "cardinality":
                    assert all(c.cardinality_dist == dist for c in configs)
                else:
                    assert all(c.element_dist == dist for c in configs)

    def test_fig7_invalid_axis(self):
        with pytest.raises(ValueError):
            fig7_configs("colour", "zipf")

    def test_fig8_datasets_scaled(self):
        datasets = fig8_datasets(base=16)
        names = [name for name, _, _ in datasets]
        assert names == ["flickr", "orkut", "twitter", "webbase"]
        webbase = datasets[-1]
        assert len(webbase[1]) == 16

    def test_shj_infeasible_rule(self):
        small = SyntheticConfig(size=256, avg_cardinality=16, domain=2 ** 9)
        huge = SyntheticConfig(size=2 ** 15, avg_cardinality=256, domain=2 ** 9)
        assert not shj_infeasible("shj", small)
        assert shj_infeasible("shj", huge)
        assert not shj_infeasible("ptsj", huge)

    def test_all_algorithms_constant(self):
        assert set(ALL_ALGORITHMS) == {"shj", "pretti", "ptsj", "pretti+"}


class TestHarnessKwargs:
    def test_sweep_forwards_algorithm_kwargs(self):
        from repro.datagen.synthetic import SyntheticConfig

        configs = [SyntheticConfig(size=24, avg_cardinality=4, domain=64, seed=507)]
        series = sweep(configs, ["ptsj"], algorithm_kwargs={"ptsj": {"bits": 32}})
        assert series["ptsj"][0] is not None

    def test_run_algorithm_kwargs(self):
        r = random_relation(20, 4, 30, seed=508)
        s = random_relation(20, 4, 30, seed=509)
        record = run_algorithm("ptsj", r, s, bits=48)
        assert record.stats.signature_bits == 48

    def test_run_algorithm_median_of_repeats(self):
        r = random_relation(20, 4, 30, seed=510)
        s = random_relation(20, 4, 30, seed=511)
        record = run_algorithm("pretti+", r, s, repeats=5)
        assert record.seconds > 0


class TestReportingFormats:
    def test_custom_value_format(self):
        out = format_series("t", "x", [1], {"a": [3.0]}, value_format=lambda v: f"<{v}>")
        assert "<3.0>" in out

    def test_ratio_chart_handles_none(self):
        out = format_ratios("t", ["d1"], {"a": [None], "b": [2.0]})
        assert "-" in out and "1.0x" in out

    def test_table_title_optional(self):
        out = format_table(["h"], [["v"]])
        assert out.splitlines()[0].startswith("h")
