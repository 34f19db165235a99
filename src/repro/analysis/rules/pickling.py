"""RPR002 — pickle-safety at the process boundary.

Every ``Process(target=...)`` started in :mod:`repro.exec`, and anything
submitted to a pool there, crosses a process boundary, and under the
``spawn`` start method (the CI matrix runs both ``fork`` and ``spawn``)
the callable is pickled by reference.  Lambdas, nested closures and
bound methods are not picklable, so a child that starts under ``fork``
dies with a ``PicklingError`` under ``spawn``.  Only module-level
functions may cross.  The one entry point is the supervisor's child loop,
``_serve_slot`` (:mod:`repro.exec.supervisor`), started with
``target=``, where this rule sees it; the calls it runs are
``functools.partial`` objects over the module-level ``_probe``
(:mod:`repro.exec.parallel`) and ``_join_shard``
(:mod:`repro.exec.sharded`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ModuleContext, Rule, Violation

#: Executor methods whose first argument is shipped to a worker process.
SUBMIT_METHODS = frozenset({"submit", "map"})

#: Keyword arguments that also ship a callable to workers: a pool's
#: initializer and a ``Process``'s entry point.
CALLABLE_KWARGS = frozenset({"initializer", "target"})

SCOPED_PACKAGES = ("repro.exec",)


def _nested_function_names(tree: ast.Module) -> frozenset[str]:
    """Names of functions defined *inside* another function (closures)."""
    nested: set[str] = set()
    for outer in ast.walk(tree):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    nested.add(inner.name)
    return frozenset(nested)


def _describe_unpicklable(
    node: ast.expr, nested: frozenset[str]
) -> str | None:
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, ast.Attribute):
        # self.method / obj.method — a bound method pickles its instance,
        # which drags the whole join (tries included) across the boundary
        # or fails outright.
        return f"the bound method '...{node.attr}'"
    if isinstance(node, ast.Name) and node.id in nested:
        return f"the nested function '{node.id}'"
    return None


def check_pickle_safety(rule: Rule, ctx: ModuleContext) -> Iterator[Violation]:
    if not ctx.in_package(*SCOPED_PACKAGES):
        return
    nested = _nested_function_names(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in SUBMIT_METHODS
            and node.args
        ):
            why = _describe_unpicklable(node.args[0], nested)
            if why is not None:
                yield ctx.violation(
                    rule,
                    node.args[0],
                    f"{why} is submitted to an executor; it cannot be "
                    "pickled under the spawn start method",
                )
        for kw in node.keywords:
            if kw.arg in CALLABLE_KWARGS:
                why = _describe_unpicklable(kw.value, nested)
                if why is not None:
                    yield ctx.violation(
                        rule,
                        kw.value,
                        f"{why} is passed as '{kw.arg}='; worker "
                        "entry points must pickle under spawn",
                    )


RULES = (
    Rule(
        id="RPR002",
        title="unpicklable callable crosses the process boundary",
        rationale="repro.exec worker processes run under both fork and spawn; "
        "lambdas, closures and bound methods pickle only by reference and "
        "fail under spawn, turning a green fork-only run into a production "
        "crash.",
        fixit="start a module-level function (like _serve_slot) and "
        "pass state through its arguments",
        check=check_pickle_safety,
    ),
)
