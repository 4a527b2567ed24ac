#!/usr/bin/env python3
"""Time writing and reading one solved matrix as a `%.17g` CSV and as a
one-slice ``.npy`` stack, the two formats covpath has written U and X in.

    python3 tools/matrix_io.py [--sizes 300,1000] [--repeats 5]

For each n the matrix is the covariance of a generated instance
(``data.generate_problem``, density 0.1, seed n). The CSV goes through
``data.write_csv`` and ``data.load_matrix``, the stack through
``data.write_stack`` and ``np.load``. Both must give the matrix back bit
for bit. Prints one markdown table row per n: median wall times over
``--repeats`` alternated rounds, and the file sizes.
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from covpath import data  # noqa: E402


def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def measure(n: int, repeats: int, where: Path) -> str:
    m, _ = data.generate_problem(data.GeneratorSpec(n=n, seed=n))
    csv, npy = where / f"m{n}.csv", where / f"m{n}.npy"
    walls = {key: [] for key in ("csv_w", "npy_w", "csv_r", "npy_r")}
    for _ in range(repeats):
        walls["csv_w"].append(timed(data.write_csv, csv, m)[0])
        walls["npy_w"].append(timed(data.write_stack, npy, [m])[0])
        wall, back = timed(data.load_matrix, csv)
        walls["csv_r"].append(wall)
        assert back.tobytes() == m.tobytes(), "CSV round trip is not exact"
        wall, back = timed(np.load, npy)
        walls["npy_r"].append(wall)
        assert back[0].tobytes() == m.tobytes(), ".npy round trip is not exact"
    ms = {key: 1e3 * statistics.median(w) for key, w in walls.items()}
    return (
        f"| {n} | {ms['csv_w']:.3g} -> {ms['npy_w']:.3g} ms "
        f"| {ms['csv_r']:.3g} -> {ms['npy_r']:.3g} ms "
        f"| {csv.stat().st_size / 1e6:.3g} -> {npy.stat().st_size / 1e6:.3g} MB |"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="300,1000")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    print("| n | write, CSV -> .npy | read, CSV -> .npy | size, CSV -> .npy |")
    print("| --- | --- | --- | --- |")
    with tempfile.TemporaryDirectory() as tmp:
        for n in (int(s) for s in args.sizes.split(",") if s):
            print(measure(n, args.repeats, Path(tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
