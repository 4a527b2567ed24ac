"""No covpath function takes the box slacks or a log-det as an optional
argument: a barrier quantity is a function of exactly the slacks
(``barrier.slacks``) and log-det it is built from, which its caller passes.

This walks each module's syntax tree, as ``test_imports`` does.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "covpath").glob("*.py"))
REQUIRED = {"slack", "logdet"}


def _defaulted(source: str) -> list[str]:
    """``function.parameter`` for every parameter in ``REQUIRED`` that has a default."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            positional = a.posonlyargs + a.args
            with_default = positional[len(positional) - len(a.defaults):] + [
                arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None
            ]
            found += [f"{node.name}.{arg.arg}" for arg in with_default if arg.arg in REQUIRED]
    return found


def test_finds_a_defaulted_slack():
    source = (
        "def f(p, slack=None): pass\n"
        "def g(slack, *, logdet=0.0, t=1.0): pass\n"
        "def h(p, slack, logdet, *, t): pass\n"
    )
    assert _defaulted(source) == ["f.slack", "g.logdet"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_default_slack_or_logdet(path):
    assert _defaulted(path.read_text()) == []
