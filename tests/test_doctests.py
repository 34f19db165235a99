"""Execute the doctest examples embedded in public docstrings.

The examples shown in module and function docstrings are part of the
documentation contract; this test keeps them honest.
"""

from __future__ import annotations

import doctest

import pytest

import repro.bench.reporting
import repro.core.pretti_plus
import repro.core.ptsj
import repro.core.registry
import repro.datagen.synthetic
import repro.extensions.equality
import repro.extensions.similarity
import repro.extensions.superset
import repro.exec.disk
import repro.baselines.pretti
import repro.baselines.shj
import repro.index.inverted
import repro.relations.relation
import repro.relations.universe
import repro.signatures.bitmap
import repro.signatures.length

MODULES = [
    repro.relations.relation,
    repro.relations.universe,
    repro.signatures.bitmap,
    repro.signatures.length,
    repro.index.inverted,
    repro.core.ptsj,
    repro.core.pretti_plus,
    repro.core.registry,
    repro.baselines.pretti,
    repro.baselines.shj,
    repro.extensions.superset,
    repro.extensions.equality,
    repro.extensions.similarity,
    repro.exec.disk,
    repro.datagen.synthetic,
    repro.bench.reporting,
]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} doctest failures"


def test_doctests_exist_somewhere():
    """At least a good handful of modules actually carry examples."""
    total = 0
    finder = doctest.DocTestFinder()
    for module in MODULES:
        total += sum(len(t.examples) for t in finder.find(module))
    assert total >= 15
