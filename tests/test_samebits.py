"""``tools/samebits.py`` runs on this tree.

The tool loads two covpath trees side by side and fails on any difference
in artifacts or online states; given this tree twice it must find none,
and given a copy that computes other bits it must report them.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_same_tree_on_both_sides_gives_the_same_bits():
    done = subprocess.run(
        [sys.executable, "tools/samebits.py", "src", "src", "--runs", "1", "--streams", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert "34 artifacts, 0 differ" in lines[0]
    assert "2 streams, 24 updates, 0 states differ" in lines[1]
    assert lines[-1] == "same bits"


def test_a_tree_that_computes_other_bits_is_reported(tmp_path):
    # A looser corrector CG tolerance moves the iterates, and so the bits.
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "covpath", src / "covpath",
                    ignore=shutil.ignore_patterns("__pycache__"))
    corrector = src / "covpath" / "corrector.py"
    text, count = re.subn(r"(?m)^CG_REL = .*$", "CG_REL = 0.125", corrector.read_text())
    assert count == 1
    corrector.write_text(text)
    done = subprocess.run(
        [sys.executable, "tools/samebits.py", "src", str(src), "--runs", "1", "--streams", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert any(line.startswith("DIFFERENT: ") for line in done.stdout.splitlines())
