"""The benchmark's own command runs on this tree.

``perfbench/run.py`` imports covpath from ``src/`` and reads names the
library keeps for it (the backend, the tracer's wrapped functions, the
corrector's statistics). A change that drops one breaks the benchmark;
this test makes the suite see it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_benchmark_command_passes_its_gates():
    _run("--workload", "dense-predictor", "--seed", "1", "--seconds", "0")


def test_traced_run_finds_every_wrapped_name():
    # The tracer looks up each name it wraps (path.initial_point,
    # path.solve_at, kernels.row_solver, ...); a traced run fails when one
    # is gone.
    _run("--workload", "online-stream", "--seed", "1", "--seconds", "0", "--trace", "1")


def test_traced_path_run_reads_the_path_hooks():
    # Only a traced path run calls the hooks on predictor_step_detail,
    # run_path and the artifact writer, which read their arguments and
    # return values; a change there fails this run.
    _run("--workload", "dense-predictor", "--seed", "1", "--seconds", "0", "--trace", "1")
