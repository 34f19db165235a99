"""RPR007 — JoinStats counter discipline.

The registry guarantees bit-for-bit JoinStats parity between ``join()``
and ``prepare()+probe_many()`` for every registry algorithm, and the
differential harness asserts it.  That only holds if algorithms mutate the documented
counters — inventing an ad-hoc field on a stats object bypasses
``merge_stats``, the metrics snapshot and the golden files at once.
Free-form data belongs in ``stats.extras[...]`` (a subscript write, which
this rule deliberately allows).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ModuleContext, Rule, Violation

#: The documented JoinStats surface (repro/core/base.py).
ALLOWED_FIELDS = frozenset(
    {
        "algorithm",
        "build_seconds",
        "probe_seconds",
        "pairs",
        "candidates",
        "verifications",
        "node_visits",
        "intersections",
        "index_nodes",
        "signature_bits",
        "extras",
    }
)

#: Variable names conventionally bound to a JoinStats instance.
STATS_NAMES = frozenset({"stats", "st", "cum", "snap"})


def _is_stats_name(name: str) -> bool:
    return name in STATS_NAMES or name.endswith("_stats")


def check_counter_discipline(rule: Rule, ctx: ModuleContext) -> Iterator[Violation]:
    for node in ast.walk(ctx.tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and _is_stats_name(target.value.id)
                and target.attr not in ALLOWED_FIELDS
            ):
                yield ctx.violation(
                    rule,
                    target,
                    f"write to undocumented stats field "
                    f"'{target.value.id}.{target.attr}'",
                )


RULES = (
    Rule(
        id="RPR007",
        title="write to an undocumented JoinStats counter",
        rationale="bit-for-bit counter parity across join() and "
        "prepare()+probe_many() only holds for the documented JoinStats "
        "fields; ad-hoc attributes bypass merge_stats, the metrics "
        "snapshot and the golden files.",
        fixit="use one of the documented counters (pairs, candidates, "
        "verifications, node_visits, intersections, index_nodes, ...) or "
        "put free-form data in stats.extras['key']",
        check=check_counter_discipline,
    ),
)
