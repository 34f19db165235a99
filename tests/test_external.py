"""Unit tests for partitioning and the disk-based join (Sec. III-E4)."""

from __future__ import annotations

import pytest

from repro.errors import ExternalMemoryError
from repro.exec.disk import DiskPartitionedJoin, disk_partitioned_join
from repro.exec.partition import SpilledRelation, partition_relation
from repro.relations.relation import Relation
from tests.conftest import oracle_pairs, random_relation


class TestPartitionRelation:
    def test_partition_sizes(self):
        rel = random_relation(25, 5, 30, seed=400)
        parts = partition_relation(rel, 10)
        assert [len(p) for p in parts] == [10, 10, 5]

    def test_ids_preserved(self):
        rel = random_relation(12, 5, 30, seed=401, start_id=100)
        parts = partition_relation(rel, 5)
        assert [rid for p in parts for rid in p.ids()] == list(rel.ids())

    def test_exact_multiple(self):
        rel = random_relation(20, 5, 30, seed=402)
        assert [len(p) for p in partition_relation(rel, 5)] == [5, 5, 5, 5]

    def test_empty_relation_one_empty_partition(self):
        parts = partition_relation(Relation([]), 10)
        assert len(parts) == 1 and len(parts[0]) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ExternalMemoryError):
            partition_relation(Relation([]), 0)


class TestSpilledRelation:
    def test_spill_and_reload(self, tmp_path):
        rel = random_relation(23, 6, 40, seed=403)
        spill = SpilledRelation(rel, tmp_path, max_tuples=10)
        assert len(spill) == 3
        reloaded = [rec for part in spill.iter_partitions() for rec in part]
        assert [(r.rid, r.elements) for r in reloaded] == [
            (r.rid, r.elements) for r in rel
        ]

    def test_reads_counted(self, tmp_path):
        rel = random_relation(10, 4, 20, seed=404)
        spill = SpilledRelation(rel, tmp_path, max_tuples=5)
        spill.load(0)
        spill.load(1)
        spill.load(0)
        assert spill.reads == 3

    def test_out_of_range_load(self, tmp_path):
        spill = SpilledRelation(random_relation(4, 3, 10, seed=405), tmp_path, 2)
        with pytest.raises(ExternalMemoryError):
            spill.load(9)

    def test_cleanup_removes_files(self, tmp_path):
        spill = SpilledRelation(random_relation(6, 3, 10, seed=406), tmp_path, 3)
        spill.cleanup()
        assert all(not p.exists() for p in spill.paths)
        spill.cleanup()  # idempotent


class TestDiskPartitionedJoin:
    def test_matches_in_memory_result(self):
        r = random_relation(50, 7, 40, seed=407)
        s = random_relation(50, 5, 40, seed=408)
        result = disk_partitioned_join(r, s, max_tuples=12)
        assert result.pair_set() == oracle_pairs(r, s)

    @pytest.mark.parametrize("algorithm", ["ptsj", "pretti+", "pretti", "shj"])
    def test_any_inner_algorithm(self, algorithm):
        r = random_relation(30, 6, 30, seed=409)
        s = random_relation(30, 4, 30, seed=410)
        result = disk_partitioned_join(r, s, algorithm=algorithm, max_tuples=8)
        assert result.pair_set() == oracle_pairs(r, s)
        assert result.stats.algorithm == f"disk-{algorithm}"

    def test_quadratic_partition_loads(self):
        """n_r x n_s pair joins -> n_s + n_r * n_s partition loads."""
        r = random_relation(40, 4, 30, seed=411)
        s = random_relation(40, 4, 30, seed=412)
        result = disk_partitioned_join(r, s, max_tuples=10)
        extras = result.stats.extras
        assert extras["r_partitions"] == 4 and extras["s_partitions"] == 4
        assert extras["partition_loads"] == 4 + 4 * 4

    def test_single_partition_degenerates_to_memory_join(self):
        r = random_relation(20, 4, 30, seed=413)
        s = random_relation(20, 4, 30, seed=414)
        result = disk_partitioned_join(r, s, max_tuples=1000)
        assert result.stats.extras["partition_loads"] == 1 + 1
        assert result.pair_set() == oracle_pairs(r, s)

    def test_explicit_workdir(self, tmp_path):
        r = random_relation(10, 4, 20, seed=415)
        s = random_relation(10, 4, 20, seed=416)
        join = DiskPartitionedJoin(max_tuples=4, workdir=tmp_path)
        assert join.join(r, s).pair_set() == oracle_pairs(r, s)

    def test_invalid_capacity(self):
        with pytest.raises(ExternalMemoryError):
            DiskPartitionedJoin(max_tuples=0)

    def test_algorithm_kwargs_forwarded(self):
        r = random_relation(15, 4, 20, seed=417)
        s = random_relation(15, 4, 20, seed=418)
        result = disk_partitioned_join(r, s, algorithm="ptsj", max_tuples=5, bits=32)
        assert result.stats.signature_bits == 32
