"""Every name a covpath module imports is used in it, and production
modules import nothing from the reference corrector.

No linter runs in the test suite, so this walks each module's syntax tree.
The only names allowed to stay unused are those ``perfbench/tracing.py``
wraps on the importing module (its ``target_keys()``): the tracer patches a
callee on the module that calls it, so such a name must keep existing there.
The same set bounds what a production module takes from ``kernels``.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "covpath").glob("*.py") if p.name != "__init__.py")
# The test oracles: the block coordinate-descent corrector and its kernels.
ORACLES = {"reference", "kernels"}
PRODUCTION = sorted(
    p for p in (ROOT / "src" / "covpath").glob("*.py") if p.stem not in ORACLES
)


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


def _imports_from(source: str, module: str) -> list[str]:
    """Names that ``source`` imports from the covpath module ``module``; an
    import of the module itself counts as the name ``module``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, module), (0, f"covpath.{module}")):
                names += [alias.name for alias in node.names]
            elif (node.level, node.module) in ((1, None), (0, "covpath")):
                names += [alias.name for alias in node.names if alias.name == module]
        elif isinstance(node, ast.Import):
            names += [module for alias in node.names if alias.name == f"covpath.{module}"]
    return names


def test_finds_imports_from_a_module():
    source = (
        "from . import kernels, path\nfrom .kernels import a, b\n"
        "from covpath.kernels import c\nimport covpath.kernels\nfrom .symmat import d\n"
    )
    assert _imports_from(source, "kernels") == ["kernels", "a", "b", "c", "kernels"]
    assert _imports_from(source, "symmat") == ["d"]


@pytest.mark.parametrize("path", PRODUCTION, ids=lambda p: p.name)
def test_production_imports_no_reference_corrector(path, traced):
    source = path.read_text()
    assert _imports_from(source, "reference") == []
    kept = [
        name
        for name in _imports_from(source, "kernels")
        if f"covpath.{path.stem}.{name}" not in traced
    ]
    assert kept == []
