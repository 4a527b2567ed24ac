"""Every exception type in ``covpath.exceptions`` is raised somewhere.

Walks the syntax tree of each module under ``src/covpath``: a type that no
``raise`` statement names is one that no caller can see, so it should go.
``CovpathError``, the base class callers catch, is the one exception.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "covpath"


def _raised_names(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_finds_raised_names():
    source = "raise A('x')\nraise m.B from None\ntry:\n    pass\nexcept C:\n    raise\n"
    assert _raised_names(source) == {"A", "B"}


def test_every_exception_type_is_raised():
    tree = ast.parse((SRC / "exceptions.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(_raised_names(path.read_text()) for path in SRC.glob("*.py")))
    assert defined - {"CovpathError"} - raised == set()
