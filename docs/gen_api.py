"""Generate the docs site's API reference from the library's docstrings.

Dependency-free on purpose: the generator only uses :mod:`inspect`, so the
API pages can be built (and tested) anywhere the library imports, and the CI
docs job regenerates them immediately before ``mkdocs build --strict`` — the
reference can never drift from the code because it never lives in the repo.

Usage::

    PYTHONPATH=src python docs/gen_api.py            # writes docs/api/*.md
    PYTHONPATH=src python docs/gen_api.py --out DIR  # custom output dir

Each documented module becomes one page: the module docstring first, then
every public class (with its public methods) and function, each rendered as
a heading, its signature in a code block, and its docstring.  Doctest blocks
inside docstrings are re-fenced as python code blocks so the examples the
doctest suite executes are the examples the site shows.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path
from textwrap import dedent

#: page stem -> (title, module names rendered on that page)
API_PAGES = {
    "core": (
        "repro.core — the CARGO protocol",
        (
            "repro.core.cargo",
            "repro.core.config",
            "repro.core.result",
            "repro.core.max_degree",
            "repro.core.projection",
            "repro.core.perturbation",
            "repro.core.node_dp",
        ),
    ),
    "backends": (
        "repro.core.backends — counting backends",
        (
            "repro.core.backends.base",
            "repro.core.backends.registry",
            "repro.core.backends.faithful",
            "repro.core.backends.blocked",
        ),
    ),
    "stats": (
        "repro.stats — subgraph statistics",
        (
            "repro.stats.base",
            "repro.stats.registry",
            "repro.stats.triangles",
            "repro.stats.kstars",
            "repro.stats.four_cycles",
            "repro.stats.derived",
        ),
    ),
    "crypto": (
        "repro.crypto — secret sharing and secure operations",
        (
            "repro.crypto.ring",
            "repro.crypto.sharing",
            "repro.crypto.secure_ops",
            "repro.crypto.beaver",
            "repro.crypto.multiplication_groups",
            "repro.crypto.protocol",
        ),
    ),
    "dp": (
        "repro.dp — differential privacy",
        (
            "repro.dp.mechanisms",
            "repro.dp.budget",
            "repro.dp.sensitivity",
            "repro.dp.accountant",
            "repro.dp.discrete_laplace",
        ),
    ),
    "stream": (
        "repro.stream — continual release",
        (
            "repro.stream.events",
            "repro.stream.delta",
            "repro.stream.release",
            "repro.stream.orchestrator",
        ),
    ),
    "analysis": (
        "repro.analysis — downstream analytics",
        (
            "repro.analysis.subgraphs",
            "repro.analysis.clustering",
        ),
    ),
    "graph": (
        "repro.graph — graphs and datasets",
        (
            "repro.graph.graph",
            "repro.graph.triangles",
            "repro.graph.datasets",
            "repro.graph.generators",
        ),
    ),
    "experiments": (
        "repro.experiments — tables, figures, sweeps",
        (
            "repro.experiments.specs",
            "repro.experiments.runner",
            "repro.experiments.statistics",
            "repro.experiments.paper_scale",
        ),
    ),
    "parallel": (
        "repro.parallel — worker pool and BLAS threads",
        (
            "repro.parallel.pool",
            "repro.parallel.blas",
        ),
    ),
    "resilience": (
        "repro.resilience — fault tolerance and recovery",
        (
            "repro.resilience",
            "repro.resilience.faults",
            "repro.resilience.retry",
            "repro.resilience.integrity",
            "repro.resilience.checkpoint",
            "repro.utils.atomic",
        ),
    ),
    "verify": (
        "repro.verify — adversarial verification",
        (
            "repro.crypto.mac",
            "repro.verify.adversary",
            "repro.verify.audit",
            "repro.verify.fuzz",
            "repro.dp.auditing",
        ),
    ),
    "runtime": (
        "repro.runtime — the process-separated runtime",
        (
            "repro.runtime.wire",
            "repro.runtime.dealer",
            "repro.runtime.server",
            "repro.runtime.driver",
        ),
    ),
    "telemetry": (
        "repro.telemetry — spans, metrics, manifests",
        (
            "repro.telemetry.session",
            "repro.telemetry.spans",
            "repro.telemetry.metrics",
            "repro.telemetry.manifest",
            "repro.telemetry.exporters",
            "repro.telemetry.profiling",
        ),
    ),
}


def _fence_doctests(text: str) -> str:
    """Re-fence ``>>>`` example blocks as python code blocks.

    Doctest semantics: an example block starts at a ``>>>`` line and runs —
    prompts, continuations, and (possibly multi-line) expected output —
    until the first blank line, which is exactly where the fence closes.
    """
    lines = text.splitlines()
    out: list[str] = []
    in_example = False
    for line in lines:
        stripped = line.strip()
        if not in_example:
            if stripped.startswith(">>>"):
                out.append("```python")
                in_example = True
            out.append(line)
        elif stripped:
            out.append(line)
        else:
            out.append("```")
            in_example = False
            out.append(line)
    if in_example:
        out.append("```")
    return "\n".join(out)


def _docstring(obj) -> str:
    doc = inspect.getdoc(obj)
    return _fence_doctests(dedent(doc)) if doc else "*Undocumented.*"


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _public_members(module):
    """Classes and functions defined in *module*, in source order."""
    members = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members.append((name, obj))
    return members


def _render_class(name: str, cls) -> list[str]:
    parts = [f"### `{name}`", "", f"```python\nclass {name}{_signature(cls)}\n```", ""]
    parts += [_docstring(cls), ""]
    for method_name, method in vars(cls).items():
        if method_name.startswith("_"):
            continue
        func = method
        if isinstance(method, (staticmethod, classmethod)):
            func = method.__func__
        if isinstance(method, property):
            doc = inspect.getdoc(method) or ""
            summary = doc.splitlines()[0] if doc else "*Undocumented.*"
            parts += [f"#### `{name}.{method_name}` *(property)*", "", summary, ""]
            continue
        if not inspect.isfunction(func):
            continue
        parts += [
            f"#### `{name}.{method_name}{_signature(func)}`",
            "",
            _docstring(func),
            "",
        ]
    return parts


def render_module(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    parts = [f"## `{module_name}`", "", _docstring(module), ""]
    for name, obj in _public_members(module):
        if inspect.isclass(obj):
            parts += _render_class(name, obj)
        else:
            parts += [
                f"### `{name}{_signature(obj)}`",
                "",
                _docstring(obj),
                "",
            ]
    return parts


def generate(out_dir: Path) -> list[Path]:
    """Write every API page into *out_dir*; return the written paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, (title, modules) in API_PAGES.items():
        parts = [
            f"# {title}",
            "",
            "*Generated from the library docstrings by `docs/gen_api.py`;*",
            "*the doctest suite executes every example shown here.*",
            "",
        ]
        for module_name in modules:
            parts += render_module(module_name)
        path = out_dir / f"{stem}.md"
        path.write_text("\n".join(parts) + "\n", encoding="utf-8")
        written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).parent / "api"),
        help="output directory (default: docs/api)",
    )
    args = parser.parse_args(argv)
    written = generate(Path(args.out))
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
