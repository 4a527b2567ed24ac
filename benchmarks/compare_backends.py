#!/usr/bin/env python3
"""Benchmark the numba row kernel against the numpy one.

Runs the same seeded path problem through the block coordinate-descent
corrector (``corrector.block_cd_run``, the paper's reference corrector; the
path drivers call the Newton-CG ``corrector_run``) under both row-kernel
backends: compiled closed-form coordinate descent (numba) and damped block
Newton (numpy). Reports wall times and the largest difference between the
two paths' precision matrices, which is of the order of the corrector's
residual tolerance because the two kernels stop at the same block
tolerance by different methods. Without numba only the numpy backend
runs.

Usage:
    python benchmarks/compare_backends.py [--sizes 20,50,100] [--points 10]
"""

import argparse
import functools
import time

import numpy as np

import covpath.path
from covpath import kernels
from covpath.corrector import block_cd_run
from covpath.data import GeneratorSpec, generate_problem
from covpath.path import PathConfig, run_path


def time_path(sigma, points, backend, repeats):
    cfg = PathConfig(points=points)
    walls = []
    result = None
    newton_cg = covpath.path.corrector_run
    covpath.path.corrector_run = functools.partial(block_cd_run, backend=backend)
    try:
        for _ in range(repeats):
            tick = time.perf_counter()
            result = run_path(sigma, cfg)
            walls.append(time.perf_counter() - tick)
            if result.truncated:
                raise RuntimeError(f"path truncated under backend={backend}")
    finally:
        covpath.path.corrector_run = newton_cg
    return min(walls), result


def main():
    parser = argparse.ArgumentParser(description="numba vs numpy kernel benchmark")
    parser.add_argument("--sizes", default="20,50,100")
    parser.add_argument("--points", type=int, default=10)
    parser.add_argument("--density", type=float, default=0.1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    backends = kernels.available_backends()
    if "numba" in backends:
        tick = time.perf_counter()
        kernels.warm_up("numba")
        print(f"numba JIT warm-up: {time.perf_counter() - tick:.2f}s (cached afterwards)")
    else:
        print("numba not importable; only the numpy backend will run")

    header = f"{'n':>5s} {'points':>7s}" + "".join(f"{b:>12s}" for b in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10s}{'max |dX|':>12s}"
    print(header)
    print("-" * len(header))

    for n in (int(s) for s in args.sizes.split(",") if s):
        sigma, _ = generate_problem(
            GeneratorSpec(n=n, density=args.density, seed=args.seed + n)
        )
        row = f"{n:>5d} {args.points:>7d}"
        walls, results = {}, {}
        for backend in backends:
            walls[backend], results[backend] = time_path(
                sigma, args.points, backend, args.repeats
            )
            row += f"{walls[backend]:>11.3f}s"
        if len(backends) == 2:
            speedup = walls["numpy"] / walls["numba"]
            dx = max(
                float(np.abs(a.X - b.X).max())
                for a, b in zip(results["numba"].points, results["numpy"].points)
            )
            row += f"{speedup:>9.2f}x{dx:>12.2e}"
        print(row)


if __name__ == "__main__":
    main()
