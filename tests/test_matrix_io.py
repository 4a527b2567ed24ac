"""``tools/matrix_io.py`` runs on this tree and finds both formats exact."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_one_row_per_size():
    done = subprocess.run(
        [sys.executable, "tools/matrix_io.py", "--sizes", "5,8", "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 4
    assert lines[2].startswith("| 5 | ") and lines[3].startswith("| 8 | ")
