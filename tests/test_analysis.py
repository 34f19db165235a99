"""Tests for the repro.analysis lint engine and its rule catalog.

Every RPRxxx rule is covered by a bad/good fixture pair under
``tests/analysis_fixtures/``: the bad twin must fire the rule (with the
expected number of violations), the good twin must stay silent.  The
engine-level contracts — noqa suppression accounting, layer scoping,
module-name derivation, CLI exit codes, and the shipped tree being clean —
are tested directly on top of :func:`repro.analysis.engine.lint_source`.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.analysis.engine import (
    LintReport,
    lint_paths,
    lint_source,
    main as lint_main,
    module_name_for,
)
from repro.analysis.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC = Path(__file__).parent.parent / "src"

#: rule id -> (fixture stem, module the fixture poses as, bad-twin count).
RULE_FIXTURES = {
    "RPR001": ("rpr001", "repro.core.fixture", 3),
    "RPR002": ("rpr002", "repro.exec.fixture", 4),
    "RPR003": ("rpr003", "repro.core.fixture", 5),
    "RPR004": ("rpr004", "repro.core.fixture", 4),
    "RPR005": ("rpr005", "repro.core.fixture", 1),
    "RPR006": ("rpr006", "repro.core.fixture", 3),
    "RPR007": ("rpr007", "repro.core.fixture", 3),
    "RPR008": ("rpr008", "repro.core.fixture", 1),
    "RPR009": ("rpr009", "repro.core.fixture", 3),
    "RPR010": ("rpr010", "repro.core.fixture", 3),
    "RPR011": ("rpr011", "repro.serve.fixture", 3),
    "RPR012": ("rpr012", "repro.obs.fixture", 3),
    "RPR013": ("rpr013", "repro.serve.fixture", 3),
    "RPR014": ("rpr014", "repro.core.fixture", 4),
}


def _fixture(stem: str) -> str:
    return (FIXTURES / f"{stem}.py").read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# Rule catalog
# ----------------------------------------------------------------------
def test_every_rule_has_a_fixture_pair():
    assert {r.id for r in ALL_RULES} == set(RULE_FIXTURES)
    for stem, _, _ in RULE_FIXTURES.values():
        assert (FIXTURES / f"{stem}_bad.py").exists()
        assert (FIXTURES / f"{stem}_good.py").exists()


def test_rules_are_well_formed():
    ids = [r.id for r in ALL_RULES]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    for rule in ALL_RULES:
        assert rule.title and rule.rationale and rule.fixit


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_fires_on_bad_fixture(rule_id):
    stem, module, expected = RULE_FIXTURES[rule_id]
    report = lint_source(
        _fixture(f"{stem}_bad"),
        path=f"{stem}_bad.py",
        module=module,
        select=[rule_id],
    )
    assert len(report.violations) == expected
    assert {v.rule_id for v in report.violations} == {rule_id}
    for v in report.violations:
        assert v.line > 0 and v.message and v.fixit


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_rule_silent_on_good_fixture(rule_id):
    stem, module, _ = RULE_FIXTURES[rule_id]
    report = lint_source(
        _fixture(f"{stem}_good"),
        path=f"{stem}_good.py",
        module=module,
        select=[rule_id],
    )
    assert report.violations == []


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_good_fixtures_fully_clean(rule_id):
    stem, module, _ = RULE_FIXTURES[rule_id]
    report = lint_source(
        _fixture(f"{stem}_good"), path=f"{stem}_good.py", module=module
    )
    assert report.violations == []
    assert report.clean


# ----------------------------------------------------------------------
# Layer scoping
# ----------------------------------------------------------------------
def test_clock_rule_allows_the_obs_layer():
    report = lint_source(
        _fixture("rpr001_bad"), module="repro.obs.fixture", select=["RPR001"]
    )
    assert report.violations == []


def test_pickle_rule_scoped_to_executor_layers():
    report = lint_source(
        _fixture("rpr002_bad"), module="repro.core.fixture", select=["RPR002"]
    )
    assert report.violations == []


def test_pickle_rule_covers_exec_package():
    # PR 6 moved the executors to repro.exec; the rule follows them.
    report = lint_source(
        _fixture("rpr002_exec_bad"),
        path="rpr002_exec_bad.py",
        module="repro.exec.fixture",
        select=["RPR002"],
    )
    assert len(report.violations) == 4
    assert {v.rule_id for v in report.violations} == {"RPR002"}


def test_pickle_rule_covers_process_targets():
    # ParallelJoin starts its children with Process(target=...), which
    # pickles the target under spawn just like a pool submission.
    bad = (
        "class Runner:\n"
        "    def run(self, context, chunk):\n"
        "        context.Process(target=self._probe_slot, args=(chunk,)).start()\n"
        "        context.Process(target=lambda: chunk).start()\n"
        "    def _probe_slot(self, chunk):\n"
        "        return chunk\n"
    )
    good = (
        "def _probe_slot(chunk):\n"
        "    return chunk\n"
        "def run(context, chunk):\n"
        "    context.Process(target=_probe_slot, args=(chunk,)).start()\n"
    )
    report = lint_source(bad, module="repro.exec.fixture", select=["RPR002"])
    assert len(report.violations) == 2
    assert all("'target='" in v.message for v in report.violations)
    assert lint_source(good, module="repro.exec.fixture", select=["RPR002"]).violations == []


def test_pickle_rule_exec_good_twin_is_clean():
    report = lint_source(
        _fixture("rpr002_exec_good"),
        path="rpr002_exec_good.py",
        module="repro.exec.fixture",
    )
    assert report.violations == []
    assert report.clean


def test_immutability_rule_allows_planner_plan_itself():
    report = lint_source(
        _fixture("rpr003_bad"), module="repro.planner.plan", select=["RPR003"]
    )
    assert report.violations == []


def test_determinism_rule_allows_datagen_and_testing():
    for module in ("repro.datagen.fixture", "repro.testing.fixture"):
        report = lint_source(
            _fixture("rpr006_bad"), module=module, select=["RPR006"]
        )
        assert report.violations == []


def test_unknown_module_gets_the_conservative_treatment():
    # A path outside any repro tree can't claim an allowed layer, so the
    # layer-scoped bans apply.
    report = lint_source(
        _fixture("rpr001_bad"), path="/tmp/adhoc_script.py", select=["RPR001"]
    )
    assert len(report.violations) == 3


# ----------------------------------------------------------------------
# Module-name derivation
# ----------------------------------------------------------------------
def test_module_name_for():
    assert module_name_for("src/repro/core/base.py") == "repro.core.base"
    assert module_name_for("/root/repo/src/repro/obs/clock.py") == "repro.obs.clock"
    assert module_name_for("src/repro/__init__.py") == "repro"
    assert module_name_for("scripts/tool.py") is None
    assert module_name_for("src/repro/data.txt") is None


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
BAD_LINE = "import random  # repro: noqa RPR006 seeded Random(seed) below\n"


def test_explained_noqa_suppresses_and_is_counted():
    report = lint_source(BAD_LINE, module="repro.core.fixture")
    assert report.violations == []
    assert len(report.suppressed) == 1
    violation, suppression = report.suppressed[0]
    assert violation.rule_id == "RPR006"
    assert suppression.explained
    assert suppression.reason == "seeded Random(seed) below"
    assert report.clean


def test_unexplained_noqa_fails_the_run():
    report = lint_source(
        "import random  # repro: noqa RPR006\n", module="repro.core.fixture"
    )
    assert report.violations == []
    assert len(report.unexplained) == 1
    assert not report.clean
    aggregate = LintReport(files=[report])
    assert aggregate.exit_code == 1


def test_noqa_for_a_different_rule_does_not_suppress():
    report = lint_source(
        "import random  # repro: noqa RPR001 wrong id\n",
        module="repro.core.fixture",
    )
    assert [v.rule_id for v in report.violations] == ["RPR006"]


def test_blanket_noqa_covers_every_rule():
    report = lint_source(
        "import random  # repro: noqa migration shim, remove with PR 6\n",
        module="repro.core.fixture",
    )
    assert report.violations == []
    assert len(report.suppressed) == 1
    assert report.suppressed[0][1].rule_ids == ()


def test_multi_id_noqa_reason_trails_the_last_id():
    source = (
        "import time\n"
        "t = time.time(); import random"
        "  # repro: noqa RPR001 RPR006 one line, two waivers\n"
    )
    report = lint_source(source, module="repro.core.fixture")
    # Line 1's import-free clock read... line 2 carries both violations.
    suppressed_ids = {v.rule_id for v, _ in report.suppressed}
    assert {"RPR001", "RPR006"} <= suppressed_ids
    assert all(s.reason == "one line, two waivers" for _, s in report.suppressed)


def test_syntax_error_reports_rpr000():
    report = lint_source("def broken(:\n")
    assert [v.rule_id for v in report.violations] == ["RPR000"]


# ----------------------------------------------------------------------
# The shipped tree
# ----------------------------------------------------------------------
def test_shipped_tree_is_clean():
    report = lint_paths([str(SRC)])
    assert report.violations == [], "\n".join(
        v.render() for v in report.violations
    )
    assert report.unexplained == []
    assert report.exit_code == 0
    # Every suppression that ships carries a reason.
    for suppression in report.suppressions:
        assert suppression.explained, suppression.render()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_nonzero_on_seeded_violation(tmp_path):
    bad = tmp_path / "seeded.py"
    bad.write_text("import time\nSTART = time.perf_counter()\n")
    out = io.StringIO()
    assert lint_main([str(bad)], out=out) == 1
    assert "RPR001" in out.getvalue()
    assert "fix:" in out.getvalue()


def test_cli_zero_on_clean_file(tmp_path):
    good = tmp_path / "clean.py"
    good.write_text("VALUE = 1\n")
    out = io.StringIO()
    assert lint_main([str(good)], out=out) == 0
    assert "0 violation(s)" in out.getvalue()


def test_cli_list_rules():
    out = io.StringIO()
    assert lint_main(["--list-rules"], out=out) == 0
    text = out.getvalue()
    for rule in ALL_RULES:
        assert rule.id in text


def test_cli_select_unknown_rule_is_usage_error(tmp_path):
    good = tmp_path / "clean.py"
    good.write_text("VALUE = 1\n")
    assert lint_main(["--select", "RPR123", str(good)], out=io.StringIO()) == 2


def test_cli_missing_path_is_usage_error():
    assert lint_main(["no/such/path.txt"], out=io.StringIO()) == 2


def test_cli_json_format(tmp_path):
    bad = tmp_path / "seeded.py"
    bad.write_text(
        "import time\n"
        "START = time.perf_counter()\n"
        "import random  # repro: noqa RPR006 fixture waiver\n"
    )
    out = io.StringIO()
    assert lint_main(["--format", "json", str(bad)], out=out) == 1
    payload = json.loads(out.getvalue())
    assert payload["exit_code"] == 1
    assert payload["statistics"] == {"RPR001": 1}
    assert payload["suppressed"][0]["rule"] == "RPR006"
    assert payload["files"] == 1


def test_repro_scj_lint_subcommand(tmp_path, capsys):
    from repro.cli import main as cli_main

    bad = tmp_path / "seeded.py"
    bad.write_text("import time\nSTART = time.monotonic()\n")
    assert cli_main(["lint", str(bad)]) == 1
    assert "RPR001" in capsys.readouterr().out
    good = tmp_path / "clean.py"
    good.write_text("VALUE = 1\n")
    assert cli_main(["lint", str(good)]) == 0


def test_statistics_flag_prints_per_rule_counts():
    out = io.StringIO()
    bad = FIXTURES / "rpr001_bad.py"
    # Fixture paths carry no repro component, so RPR001 applies.
    assert lint_main(["--statistics", str(bad)], out=out) == 1
    assert "RPR001" in out.getvalue()
