"""Every name a covpath module imports is used in it.

No linter runs in the test suite, so this walks each module's syntax tree.
The only names allowed to stay unused are those ``perfbench/tracing.py``
wraps on the importing module (its ``target_keys()``): the tracer patches a
callee on the module that calls it, so such a name must keep existing there.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "covpath").glob("*.py") if p.name != "__init__.py")


@pytest.fixture(scope="module")
def traced() -> set[str]:
    """The ``module.attr`` keys that the benchmark tracer wraps."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.target_keys()


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path, traced):
    unused = [
        name
        for name in _unused_imports(path.read_text())
        if f"covpath.{path.stem}.{name}" not in traced
    ]
    assert unused == []
