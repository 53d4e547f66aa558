"""Execute the public API's docstring examples so they cannot rot.

Every module listed here is part of the documented surface (the docs site's
API reference renders the same docstrings); its ``>>>`` examples run as real
tests.  Modules in ``MUST_HAVE_EXAMPLES`` additionally fail if someone strips
their examples — the documentation promises runnable snippets there.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

#: Modules whose doctests run; all are rendered on the docs site.
DOCTEST_MODULES = (
    "repro.core.cargo",
    "repro.core.config",
    "repro.core.projection",
    "repro.core.backends.base",
    "repro.crypto.ring",
    "repro.crypto.sharing",
    "repro.crypto.secure_ops",
    "repro.crypto.mac",
    "repro.dp.auditing",
    "repro.verify.adversary",
    "repro.verify.fuzz",
    "repro.analysis.subgraphs",
    "repro.analysis.clustering",
    "repro.stream.events",
    "repro.stream.delta",
    "repro.stream.orchestrator",
    "repro.stats.base",
    "repro.stats.registry",
    "repro.stats.triangles",
    "repro.stats.kstars",
    "repro.stats.four_cycles",
    "repro.stats.derived",
    "repro.parallel.pool",
    "repro.runtime.wire",
    "repro.resilience.faults",
    "repro.resilience.retry",
    "repro.resilience.integrity",
    "repro.resilience.checkpoint",
    "repro.utils.atomic",
    "repro.experiments.paper_scale",
    "repro.telemetry.spans",
    "repro.telemetry.metrics",
    "repro.telemetry.session",
    "repro.telemetry.manifest",
    "repro.telemetry.exporters",
    "repro.telemetry.profiling",
)

#: Modules that must keep at least one runnable example.
MUST_HAVE_EXAMPLES = frozenset(
    name
    for name in DOCTEST_MODULES
    if name != "repro.experiments.paper_scale"  # its example is +SKIP (slow)
)


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(
        module,
        verbose=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"
    if module_name in MUST_HAVE_EXAMPLES:
        assert results.attempted > 0, (
            f"{module_name} is documented as having runnable examples but "
            "doctest found none"
        )
