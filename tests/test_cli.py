"""Unit tests for the repro-scj command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--size", "10", "-o", "out.txt"]
        )
        assert args.command == "generate" and args.size == 10

    def test_bench_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])


class TestGenerate:
    def test_synthetic(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        code = main(["generate", "--size", "50", "--cardinality", "4",
                     "--domain", "64", "-o", str(out)])
        assert code == 0
        assert out.exists()
        assert "wrote 50 tuples" in capsys.readouterr().out

    def test_surrogate(self, tmp_path, capsys):
        out = tmp_path / "f.txt"
        code = main(["generate", "--dataset", "flickr", "--size", "40",
                     "-o", str(out)])
        assert code == 0
        assert "40 tuples" in capsys.readouterr().out

    def test_invalid_config_returns_error_code(self, tmp_path, capsys):
        out = tmp_path / "bad.txt"
        code = main(["generate", "--size", "10", "--cardinality", "50",
                     "--domain", "10", "-o", str(out)])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestStatsAndJoin:
    @pytest.fixture
    def dataset_files(self, tmp_path):
        r = tmp_path / "r.txt"
        s = tmp_path / "s.txt"
        main(["generate", "--size", "60", "--cardinality", "8", "--domain",
              "64", "--seed", "1", "-o", str(r)])
        main(["generate", "--size", "60", "--cardinality", "5", "--domain",
              "64", "--seed", "2", "-o", str(s)])
        return r, s

    def test_stats(self, dataset_files, capsys):
        r, _ = dataset_files
        capsys.readouterr()
        assert main(["stats", str(r)]) == 0
        out = capsys.readouterr().out
        assert "|R|" in out and "recommended" in out

    @pytest.mark.parametrize("algorithm", ["ptsj", "pretti+", "auto"])
    def test_join(self, dataset_files, capsys, algorithm):
        r, s = dataset_files
        capsys.readouterr()
        assert main(["join", str(r), str(s), "--algorithm", algorithm]) == 0
        assert "pairs in" in capsys.readouterr().out

    def test_join_writes_output(self, dataset_files, tmp_path, capsys):
        r, s = dataset_files
        out = tmp_path / "pairs.txt"
        assert main(["join", str(r), str(s), "-o", str(out)]) == 0
        assert out.exists()

    def test_join_results_algorithm_independent(self, dataset_files, tmp_path):
        r, s = dataset_files
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        main(["join", str(r), str(s), "--algorithm", "ptsj", "-o", str(a)])
        main(["join", str(r), str(s), "--algorithm", "pretti", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_join_bits_override(self, dataset_files, capsys):
        r, s = dataset_files
        capsys.readouterr()
        assert main(["join", str(r), str(s), "--algorithm", "ptsj",
                     "--bits", "64"]) == 0


class TestProbe:
    @pytest.fixture
    def probe_files(self, tmp_path):
        s = tmp_path / "s.txt"
        q1 = tmp_path / "q1.txt"
        q2 = tmp_path / "q2.txt"
        main(["generate", "--size", "40", "--cardinality", "4", "--domain",
              "48", "--seed", "7", "-o", str(s)])
        main(["generate", "--size", "25", "--cardinality", "7", "--domain",
              "48", "--seed", "8", "-o", str(q1)])
        main(["generate", "--size", "25", "--cardinality", "7", "--domain",
              "48", "--seed", "9", "-o", str(q2)])
        return s, q1, q2

    def test_probe_builds_once_and_serves_both_batches(self, probe_files, capsys):
        s, q1, q2 = probe_files
        capsys.readouterr()
        assert main(["probe", str(s), str(q1), str(q2),
                     "--algorithm", "ptsj"]) == 0
        out = capsys.readouterr().out
        assert "prepared index over 40 tuples" in out
        assert "probe #1, reused_index=0" in out
        # The second probe reuses the index: zero build time reported.
        assert "probe #2, reused_index=1, build 0us" in out
        assert "build" in out and "(once)" in out

    def test_probe_pairs_match_join(self, probe_files, tmp_path, capsys):
        s, q1, _ = probe_files
        probe_out = tmp_path / "probe_pairs.txt"
        join_out = tmp_path / "join_pairs.txt"
        assert main(["probe", str(s), str(q1), "--algorithm", "ptsj",
                     "-o", str(probe_out)]) == 0
        assert main(["join", str(q1), str(s), "--algorithm", "ptsj",
                     "-o", str(join_out)]) == 0
        assert probe_out.read_text() == join_out.read_text()

    def test_probe_auto_algorithm(self, probe_files, capsys):
        s, q1, q2 = probe_files
        capsys.readouterr()
        assert main(["probe", str(s), str(q1), str(q2)]) == 0
        assert "prepared index" in capsys.readouterr().out

    def test_probe_unknown_algorithm_errors(self, probe_files, capsys):
        s, q1, _ = probe_files
        assert main(["probe", str(s), str(q1), "--algorithm", "nope"]) == 2
        assert "error" in capsys.readouterr().err


class TestBench:
    def test_fig6a_small(self, capsys):
        assert main(["bench", "fig6a", "--base", "32"]) == 0
        out = capsys.readouterr().out
        assert "Memory per tuple" in out

    def test_fig6c_small(self, capsys):
        assert main(["bench", "fig6c", "--base", "32"]) == 0
        out = capsys.readouterr().out
        assert "ptsj" in out and "pretti+" in out

    def test_fig5b_small(self, capsys):
        assert main(["bench", "fig5b", "--base", "16"]) == 0
        assert "b/c" in capsys.readouterr().out

    def test_fig8_small(self, capsys):
        assert main(["bench", "fig8", "--base", "12"]) == 0
        assert "webbase" in capsys.readouterr().out

    def test_bench_fig7(self, capsys):
        assert main(["bench", "fig7c", "--base", "24"]) == 0
        assert "zipf" in capsys.readouterr().out


class TestJoinExecutors:
    @pytest.fixture
    def files(self, tmp_path):
        r = tmp_path / "r.txt"
        s = tmp_path / "s.txt"
        main(["generate", "--size", "40", "--cardinality", "6", "--domain",
              "48", "--seed", "5", "-o", str(r)])
        main(["generate", "--size", "40", "--cardinality", "4", "--domain",
              "48", "--seed", "6", "-o", str(s)])
        return r, s

    @pytest.mark.parametrize(
        "executor", ["inline", "parallel", "resilient", "disk", "sharded"])
    def test_executor_output_matches_default_join(self, files, tmp_path, executor):
        r, s = files
        default_out = tmp_path / "default.txt"
        executor_out = tmp_path / f"{executor}.txt"
        assert main(["join", str(r), str(s), "-o", str(default_out)]) == 0
        assert main(["join", str(r), str(s), "--executor", executor,
                     "--workers", "2", "--shards", "3", "--memory-budget", "10",
                     "--retries", "1", "-o", str(executor_out)]) == 0
        assert executor_out.read_bytes() == default_out.read_bytes()

    def test_workers_without_executor_runs_the_planned_parallel_join(self, files, capsys):
        r, s = files
        capsys.readouterr()
        assert main(["join", str(r), str(s), "--algorithm", "ptsj",
                     "--workers", "2"]) == 0
        assert "parallel-ptsj" in capsys.readouterr().out

    def test_explain_prints_the_executor_decision(self, files, capsys):
        r, s = files
        capsys.readouterr()
        assert main(["join", str(r), str(s), "--workers", "2", "--explain"]) == 0
        assert "executor = parallel" in capsys.readouterr().out

    def test_explain_next_to_a_pinned_executor_is_refused(self, files, capsys):
        r, s = files
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["join", str(r), str(s), "--executor", "resilient",
                  "--workers", "2", "--explain"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--explain" in err and "--executor" in err


class TestEndToEndPipeline:
    def test_generate_join_validate_pipeline(self, tmp_path):
        """generate -> stats -> join -> output file -> independent validation."""
        from repro.core.validation import verify_join_result
        from repro.relations.io import read_join_result, read_relation

        r_path, s_path = tmp_path / "r.txt", tmp_path / "s.txt"
        out_path = tmp_path / "pairs.txt"
        assert main(["generate", "--size", "80", "--cardinality", "6",
                     "--domain", "96", "--seed", "21", "-o", str(r_path)]) == 0
        assert main(["generate", "--size", "80", "--cardinality", "4",
                     "--domain", "96", "--seed", "22", "-o", str(s_path)]) == 0
        assert main(["stats", str(r_path)]) == 0
        assert main(["join", str(r_path), str(s_path), "--algorithm", "auto",
                     "-o", str(out_path)]) == 0
        pairs = read_join_result(out_path)
        report = verify_join_result(read_relation(r_path), read_relation(s_path),
                                    pairs, sample=None)
        report.raise_on_failure()

    @pytest.mark.parametrize("experiment", ["fig6b", "fig6d", "fig6e", "fig6f"])
    def test_bench_experiments_run_at_tiny_scale(self, experiment, capsys):
        assert main(["bench", experiment, "--base", "32"]) == 0
        assert "ptsj" in capsys.readouterr().out

