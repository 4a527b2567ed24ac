"""``tools/samebits.py`` runs on this tree.

The tool loads two covpath trees side by side and fails on any difference
in artifacts or online states; given this tree twice it must find none.
"""

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
