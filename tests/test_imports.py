"""Every name a covpath module imports is used in it, and production
modules import nothing from the reference corrector.

No linter runs in the test suite, so this walks each module's syntax tree.
The only names allowed to stay unused are those ``perfbench/tracing.py``
wraps on the importing module (its ``target_keys()``): the tracer patches a
callee on the module that calls it, so such a name must keep existing there.
The same set bounds what a production module takes from ``kernels``.
Importing the package or its CLI must not import ``scipy.linalg``.
"""

import ast
import importlib.util
import subprocess
import sys
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


def test_reference_imports_nothing_from_predictor():
    # The dense Newton oracle checks the CG operator's answers, so it builds
    # its Hessian without the predictor's code.
    source = (ROOT / "src" / "covpath" / "reference.py").read_text()
    assert _imports_from(source, "predictor") == []


@pytest.mark.parametrize("module", ["covpath", "covpath.cli"])
def test_import_leaves_out_scipy_linalg(module):
    # symmat loads scipy's LAPACK and BLAS extension modules directly;
    # scipy.linalg's package import would add ~0.25 s to every start-up.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import {module}; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['scipy.linalg._fblas', 'scipy.linalg._flapack']"


def test_cli_import_leaves_out_statistics():
    # cmd_bench takes its median from numpy; statistics would also load
    # fractions and decimal at every start-up.
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import covpath.cli; "
        "print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
