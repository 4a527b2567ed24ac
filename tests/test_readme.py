import re
import types
from pathlib import Path

import covpath
from covpath import cli, data

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(heading: str) -> str:
    """The text under ``heading`` up to the next heading of level 2 or
    deeper (a ``# `` line is a comment in a code block)."""
    text = README.read_text()
    return re.split(r"\n##+ ", text.split(f"\n{heading}\n", 1)[1], maxsplit=1)[0]


def test_library_entry_points_example_runs(capsys):
    match = re.search(r"```python\n(.*?)```", _section("## Library entry points"), re.S)
    assert match, "README 'Library entry points' has no python block"
    exec(compile(match.group(1), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 50  # one line per grid point of the example path


def test_listed_exports_match_package_namespace():
    listed = {
        name
        for name in re.findall(r"`([A-Za-z_]\w*)`", _section("## Library entry points"))
        if not name.startswith("covpath")
    }
    exported = {
        name
        for name, value in vars(covpath).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert listed == exported


def test_artifacts_table_names_the_run_files_and_point_fields():
    rows = dict(re.findall(r"^\| `([^`]+)` \| (.*) \|$", _section("### Artifacts"), re.M))
    assert set(rows) == cli._run_files(1, True)
    # Backticked plain names in the summary.json row are its per-point fields.
    assert re.findall(r"`(\w+)`", rows["summary.json"]) == list(data.POINT_FIELDS)
