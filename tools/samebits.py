#!/usr/bin/env python3
"""Check that two covpath source trees compute the same bits, and time
their online updates against each other.

    python3 tools/samebits.py OLD_SRC NEW_SRC [--runs 4] [--streams 200] [--seed 2]

OLD_SRC and NEW_SRC are directories that hold a ``covpath`` package, such
as the ``src`` of two checkouts. Each package is copied into a temporary
directory as ``covpath_old`` and ``covpath_new``. covpath's modules import
each other relatively, so the two copies load side by side in this process
and stay independent.

* The first ``--runs`` of the reference runs (:data:`RUNS`) are made with
  ``covpath solve`` from each tree. Every artifact except ``timings.json``
  must be byte-identical, and ``covpath verify`` must pass on each run.
  The ``U.npy``/``X.npy`` stacks compare slice by slice, slice k of one
  tree bit for bit against slice k of the other, and ``edges.csv`` point
  by point, point k's being the ``i,j`` part of its ``k,`` rows, so that
  a difference names its point.
* ``--streams`` update streams shaped like the benchmark's online-stream
  workload (``perfbench/workloads.py``: n=10, 12 rank-one updates each at
  rho = 0.3 rho_max) go through ``path.run_online`` with each tree. Every
  state after every update, or the error an update raised, must hash
  identical.
* The median per-update wall-time ratio, new over old, is printed. The two
  trees alternate update by update, each going first on every other one,
  in one process pinned to one core with one BLAS thread.
* The start-up time of each tree, the median wall time of
  :data:`STARTUP_RUNS` fresh interpreters (on the same core) that import
  its ``cli``, the trees alternating, is printed with their ratio.

Exits 0 when everything matches and 1 on any difference or failed verify.
"""

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before the trees load numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = Path(__file__).resolve().parents[1]
RUNS = [
    ["--gen", "n=30,density=0.1,seed=3", "--points", "10"],
    ["--gen", "n=30,density=0.1,seed=3", "--points", "10", "--mode", "predictor"],
    ["--gen", "n=100,density=0.1,seed=5", "--points", "4", "--rho-min-frac", "0.5"],
    ["--gen", "n=60,density=0.2,seed=2", "--points", "20", "--mode", "predictor"],
]
SKIPPED = {"timings.json"}  # wall times differ from run to run
STARTUP_RUNS = 5


def load_tree(src: Path, name: str, into: Path):
    """Copy ``src/covpath`` to ``into/name`` and import it under that name."""
    shutil.copytree(src / "covpath", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    for sub in ("cli", "data", "path", "barrier", "corrector", "exceptions"):
        importlib.import_module(f"{name}.{sub}")
    return sys.modules[name]


def matrix_content(m) -> tuple:
    """A matrix's shape, dtype and bytes."""
    return m.shape, m.dtype.str, np.ascontiguousarray(m).tobytes()


def edge_lists(f: Path, count: int) -> dict:
    """``edges[k]`` for each of a run's ``count`` points: the bytes of the
    ``i,j`` part of the ``k,`` rows of its ``edges.csv``, empty for a point
    with no edge."""
    rows = f.read_bytes().splitlines(keepends=True)
    lists = {}
    for k in range(count):
        prefix = f"{k},".encode()
        lists[f"edges[{k}]"] = b"".join(r[len(prefix):] for r in rows if r.startswith(prefix))
    return lists


def artifacts(out: Path) -> dict:
    """A run's artifacts by name; each point's U and X, slice k of its
    ``.npy`` stack, under ``U[k]`` and ``X[k]``, and its edge list under
    ``edges[k]``."""
    files = {}
    for f in sorted(out.rglob("*")):
        if not f.is_file() or f.name in SKIPPED:
            continue
        name = str(f.relative_to(out))
        if f.suffix == ".npy":
            for k, m in enumerate(np.load(f, allow_pickle=False)):
                files[f"{f.stem}[{k}]"] = matrix_content(m)
        elif f.name == "edges.csv":
            count = len(json.loads((out / "summary.json").read_bytes())["points"])
            files.update(edge_lists(f, count))
        else:
            files[name] = f.read_bytes()
    return files


def quiet_main(tree, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return tree.cli.main(argv)


def compare_runs(trees, runs, work: Path) -> list[str]:
    faults = []
    for i, args in enumerate(runs):
        files = []
        for tree in trees:
            out = work / f"run{i}_{tree.__name__}"
            code = quiet_main(tree, ["solve", *args, "--output", str(out)])
            if code != 0:
                faults.append(f"{' '.join(args)}: {tree.__name__} solve exited {code}")
            if quiet_main(tree, ["verify", str(out)]) != 0:
                faults.append(f"{' '.join(args)}: {tree.__name__} run fails covpath verify")
            files.append(artifacts(out))
        old, new = files
        differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
        if differ:
            faults.append(f"{' '.join(args)}: {len(differ)} artifacts differ, e.g. {differ[:3]}")
        print(f"run {' '.join(args)}: {len(old)} artifacts, {len(differ)} differ")
    return faults


def stream_inputs(tree, streams: int, seed: int) -> dict:
    """Inputs of the benchmark's online-stream workload, ``streams`` streams."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = dataclasses.replace(workloads.WORKLOADS["online-stream"], pool_streams=streams)
    return workload.setup(tree, None, seed)


def update(tree, sigma, rho, U, C, t, tol):
    """One online update as the workload makes it: the new state, or a
    from-scratch solve at sigma + C after a covpath error, with its digest."""
    cc = tree.corrector.CorrectorConfig(tol_residual=tol)
    problem = tree.barrier.Problem(sigma=sigma, rho=rho)
    start = time.perf_counter()
    try:
        U = tree.path.run_online(problem, U, C, k=1, t=t, corrector_cfg=cc).matrix
        label = b""
    except tree.exceptions.CovpathError as exc:
        U = tree.path.solve_at(sigma + C, rho, t, cc).matrix
        label = f"{type(exc).__name__}: {exc}".encode()
    wall = time.perf_counter() - start
    return U, hashlib.sha256(label + U.tobytes()).hexdigest(), wall


def compare_streams(trees, inputs) -> tuple[list[str], list[float]]:
    rho, t, tol = inputs["rho"], inputs["t"], inputs["cc"].tol_residual
    faults, ratios, changed = [], [], 0
    sigma0 = inputs["streams"][0][0][0]
    U0 = [
        tree.path.solve_at(sigma0, rho, t, tree.corrector.CorrectorConfig(tol_residual=tol))
        for tree in trees
    ]
    if U0[0].matrix.tobytes() != U0[1].matrix.tobytes():
        faults.append("from-scratch solves of the start covariance differ")
    gc.collect()
    gc.disable()
    try:
        for s, (sigmas, perturbations) in enumerate(inputs["streams"]):
            states = [inputs["U0"], inputs["U0"]]
            for k, C in enumerate(perturbations):
                order = (0, 1) if (s * len(perturbations) + k) % 2 == 0 else (1, 0)
                digest, wall = [None, None], [0.0, 0.0]
                for j in order:
                    states[j], digest[j], wall[j] = update(
                        trees[j], sigmas[k], rho, states[j], C, t, tol
                    )
                if digest[0] != digest[1]:
                    changed += 1
                ratios.append(wall[1] / wall[0])
    finally:
        gc.enable()
    if changed:
        faults.append(f"{changed} of {len(ratios)} online states differ")
    print(
        f"streams: {len(inputs['streams'])} streams, {len(ratios)} updates, "
        f"{changed} states differ"
    )
    return faults, ratios


def startup_times(trees, where: Path) -> list[float]:
    """Median wall time of a fresh interpreter that imports each tree's
    ``cli`` from ``where``, over ``STARTUP_RUNS`` runs with the trees
    alternating."""
    walls = [[], []]
    for run in range(STARTUP_RUNS):
        for j in (0, 1) if run % 2 == 0 else (1, 0):
            code = f"import sys; sys.path.insert(0, {str(where)!r}); import {trees[j].__name__}.cli"
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            walls[j].append(time.perf_counter() - start)
    return [statistics.median(w) for w in walls]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument(
        "--runs", type=int, default=len(RUNS), help="reference runs to compare, in order"
    )
    parser.add_argument("--streams", type=int, default=200, help="online update streams")
    parser.add_argument("--seed", type=int, default=2, help="seed of the stream samples")
    args = parser.parse_args(argv)
    affinity = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {affinity[-1]})

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        trees = [
            load_tree(args.old_src, "covpath_old", tmp),
            load_tree(args.new_src, "covpath_new", tmp),
        ]
        faults = compare_runs(trees, RUNS[: args.runs], tmp)
        inputs = stream_inputs(trees[0], args.streams, args.seed)
        stream_faults, ratios = compare_streams(trees, inputs)
        faults += stream_faults
        startup = startup_times(trees, tmp)
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(
        f"per-update time, new/old: median {statistics.median(ratios):.3f} "
        f"(quartiles {q1:.3f}, {q3:.3f}) over {len(ratios)} alternated updates"
    )
    print(
        f"start-up (import cli), new/old: {startup[1] / startup[0]:.3f} "
        f"({startup[0]:.3f} s -> {startup[1]:.3f} s, medians of {STARTUP_RUNS} "
        f"alternated fresh interpreters)"
    )
    for fault in faults:
        print(f"DIFFERENT: {fault}")
    print("same bits" if not faults else f"{len(faults)} differences")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
