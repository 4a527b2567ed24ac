import re
import types
from pathlib import Path

import covpath

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text()
    return text.split("## Library entry points", 1)[1].split("\n## ", 1)[0]


def test_library_entry_points_example_runs(capsys):
    match = re.search(r"```python\n(.*?)```", _library_section(), re.S)
    assert match, "README 'Library entry points' has no python block"
    exec(compile(match.group(1), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 50  # one line per grid point of the example path


def test_listed_exports_match_package_namespace():
    listed = {
        name
        for name in re.findall(r"`([A-Za-z_]\w*)`", _library_section())
        if not name.startswith("covpath")
    }
    exported = {
        name
        for name, value in vars(covpath).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert listed == exported
