"""Command-line interface: solve paths, re-solve perturbed instances online,
benchmark, and re-validate emitted artifacts.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 partial path
(truncated run with artifacts written).
"""

import argparse
import functools
import math
import operator
import sys
import time
from pathlib import Path

import numpy as np

from . import data
from .barrier import (Problem, dual_objective, feasible, gap_bound, multipliers,
                      primal_objective, residual)
from .corrector import CorrectorConfig
from .data import POINT_FIELDS
from .exceptions import (
    AsymmetricInput,
    CovpathError,
    DegenerateInstance,
    Infeasible,
    NonPositiveDiagonal,
    ParseError,
)
from .path import MODES, PathConfig, cardinality, run_online, run_path, solve_at, support_mask

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4

# verify: largest relative Frobenius distance between a saved X and the
# fresh inverse of the saved U.
X_MATCH_RTOL = 1e-8

# A run's matrices: (P, n, n) float64 stacks of every point's U and X.
STACKS = ("U.npy", "X.npy")

INPUT_ERRORS = (ParseError, AsymmetricInput, NonPositiveDiagonal, DegenerateInstance, ValueError,
                OSError)

# --gen key -> (GeneratorSpec field, parser).
GEN_KEYS = {
    "n": ("n", int),
    "density": ("density", float),
    "seed": ("seed", int),
    "margin": ("identity_shift_margin", float),
}


def _parse_gen_spec(text: str) -> data.GeneratorSpec:
    """GeneratorSpec from ``key=value`` items, an omitted key taking its
    GeneratorSpec default. Unknown and repeated keys are input errors."""
    fields = {}
    for item in text.split(","):
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip()
        if not value:
            raise ValueError(f"bad --gen item {item!r}; expected key=value")
        if key not in GEN_KEYS:
            raise ValueError(f"unknown --gen key {key!r}; expected one of {', '.join(GEN_KEYS)}")
        name, parse = GEN_KEYS[key]
        if name in fields:
            raise ValueError(f"--gen key {key!r} given more than once")
        fields[name] = parse(value.strip())
    if "n" not in fields:
        raise ValueError("--gen needs n=<int>")
    return data.GeneratorSpec(**fields)


def _load_instance(args) -> tuple[np.ndarray, dict]:
    if args.gen:
        spec = _parse_gen_spec(args.gen)
        sigma, _ = data.generate_problem(spec)
        meta = {"n": sigma.shape[0], "source": f"gen:{args.gen}", "seed": spec.seed}
    elif args.sigma:
        sigma = data.load_covariance(args.sigma)
        meta = {"n": sigma.shape[0], "source": f"sigma:{args.sigma}", "seed": None}
    elif args.samples:
        sigma = data.load_samples(args.samples)
        meta = {"n": sigma.shape[0], "source": f"samples:{args.samples}", "seed": None}
    else:
        raise ValueError("one of --sigma, --samples or --gen is required")
    return sigma, meta


def _derived_csvs(points: list[dict], n: int, zero_tol: float, Xs) -> dict[str, str]:
    """Text of each CSV a run derives, by file name: the two plot files from
    the summary's ``points`` of an n x n instance and, when ``Xs`` holds
    their matrices, ``edges.csv``: a row ``k,i,j`` for each entry (i, j) of
    the upper-triangle support (:func:`support_mask`) of point k's X."""
    card = [[math.log10(pt["rho"]), pt["cardinality"] / n**2] for pt in points]
    cg = [[pt["cardinality"], pt["cg_iterations"]] for pt in points]
    texts = {
        "plot_cardinality.csv": data.csv_text(np.array(card).reshape(-1, 2)),
        "plot_cg.csv": data.csv_text(np.array(cg).reshape(-1, 2)),
    }
    if len(Xs):
        masks = np.triu([support_mask(X, zero_tol) for X in Xs], 1)
        texts["edges.csv"] = data.csv_text(np.argwhere(masks), "%d")
    return texts


def _run_files(points: int, matrices: bool) -> set[str]:
    """Names of the files a run of ``points`` points writes: four in every
    run, ``state.json`` with points, and the stacks and ``edges.csv`` with
    points and ``matrices``. ``_run_files(1, True)`` holds every name."""
    names = {"summary.json", "timings.json", "plot_cardinality.csv", "plot_cg.csv"}
    if points:
        names |= {"state.json", *STACKS, "edges.csv"} if matrices else {"state.json"}
    return names


def _write_run_artifacts(out: Path, result, summary: dict, write_matrices: bool) -> None:
    """Write a run into ``out``, removing an earlier run's files that it does not."""
    files = _run_files(len(result.points), write_matrices)
    out.mkdir(parents=True, exist_ok=True)
    for name in _run_files(1, True) - files:
        (out / name).unlink(missing_ok=True)
    data.dump_json(out / "summary.json", summary)
    data.dump_json(out / "timings.json", data.build_timings(result))
    Xs = [pt.X for pt in result.points] if "X.npy" in files else []
    if "state.json" in files:
        last = result.points[-1]
        data.dump_json(
            out / "state.json", data.build_state(result.sigma, last.U, last.rho, result.t)
        )
    if Xs:
        data.write_stack(out / "U.npy", [pt.U for pt in result.points])
        data.write_stack(out / "X.npy", Xs)
    n, zero_tol = result.sigma.shape[0], summary["config"]["zero_tol"]
    for name, text in _derived_csvs(summary["points"], n, zero_tol, Xs).items():
        (out / name).write_text(text)


def cmd_solve(args) -> int:
    sigma, meta = _load_instance(args)
    n = sigma.shape[0]
    corrector_cfg = CorrectorConfig()
    cfg = PathConfig(
        points=args.points,
        rho_min_frac=args.rho_min_frac,
        gap_target=args.gap_target,
        mode=args.mode,
        zero_tol=args.zero_tol,
        corrector=corrector_cfg,
    )
    result = run_path(sigma, cfg)
    config_echo = {
        "points": args.points,
        "rho_min_frac": args.rho_min_frac,
        "gap_target": args.gap_target,
        "t": result.t,
        "mode": args.mode,
        "zero_tol": args.zero_tol,
        "tol_residual": corrector_cfg.residual_tol(n),
    }
    summary = data.build_summary(result, meta, config_echo)
    out = Path(args.output)
    _write_run_artifacts(out, result, summary, not args.no_matrices)
    print(
        f"solved {len(result.points)}/{args.points} points (n={n}, mode={args.mode}) -> {out}"
    )
    if result.truncated:
        print(f"path truncated at rho={result.failure.rho:.6g}: {result.failure.error}")
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_online(args) -> int:
    state = data.load_json(args.state)
    sigma, U_star, rho, t = data.state_arrays(state)
    C = data.load_perturbation(args.perturbation)
    if C.shape != sigma.shape:
        raise ParseError(
            f"perturbation shape {C.shape} does not match state dimension {sigma.shape}"
        )
    problem = Problem(sigma=sigma, rho=rho)
    # Online updates are cheap; solve tight so --verify comparisons are
    # limited by the math, not the stopping rule.
    cc = CorrectorConfig(tol_residual=1e-9 * sigma.shape[0])
    tick = time.perf_counter()
    factor = run_online(problem, U_star, C, k=args.k, t=t, corrector_cfg=cc)
    wall = time.perf_counter() - tick

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    data.dump_json(out / "state.json", data.build_state(sigma + C, factor.matrix, rho, t))
    # rho and t are the state's, which state.json beside it holds.
    report = {
        "schema": data.ONLINE_SCHEMA,
        "k": args.k,
        "update_frobenius": float(np.linalg.norm(factor.matrix - U_star)),
    }
    if args.verify:
        scratch = solve_at(sigma + C, rho, t, cc)
        report["verify_frobenius_discrepancy"] = float(
            np.linalg.norm(factor.matrix - scratch.matrix)
        )
    data.dump_json(out / "online_report.json", report)
    print(f"online update done in {wall:.3f}s -> {out}")
    if args.verify:
        print(f"from-scratch discrepancy: {report['verify_frobenius_discrepancy']:.3e}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ValueError("--repeats must be at least 1")
    sizes = [int(s) for s in args.sizes.split(",") if s]
    lengths = [int(s) for s in args.lengths.split(",") if s]
    for flag, values in (("--sizes", sizes), ("--lengths", lengths)):
        if not values:
            raise ValueError(f"{flag} names no value")
    if min(lengths) < 1:
        raise ValueError("--lengths must be at least 1")
    specs = [data.GeneratorSpec(n=n, density=args.density, seed=args.seed + n) for n in sizes]
    cells = []
    for n, spec in zip(sizes, specs):
        sigma, _ = data.generate_problem(spec)
        for points in lengths:
            cfg = PathConfig(points=points, gap_target=args.gap_target)
            walls, newton_steps, cg_iterations = [], [], []
            for _ in range(args.repeats):
                tick = time.perf_counter()
                result = run_path(sigma, cfg)
                walls.append(time.perf_counter() - tick)
                if result.truncated:
                    raise CovpathError(f"bench cell n={n}, points={points} truncated")
                newton_steps.append(sum(pt.sweeps for pt in result.points))
                cg_iterations.append(
                    sum(pt.cg_iterations + pt.corrector_cg_iterations for pt in result.points)
                )
            median = float(np.median(walls))
            cells.append(
                {
                    "n": n,
                    "points": points,
                    "density": args.density,
                    "wall_times": walls,
                    "median_wall_time": median,
                    "newton_steps": newton_steps,
                    "cg_iterations": cg_iterations,
                }
            )
            print(
                f"n={n:>4d} points={points:>3d} median={median:8.3f}s "
                f"min={min(walls):8.3f}s newton_steps={newton_steps[0]} cg={cg_iterations[0]}"
            )
    report = {
        "schema": data.BENCH_SCHEMA,
        "seed": args.seed,
        "repeats": args.repeats,
        "cells": cells,
    }
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    data.dump_json(out / "bench_report.json", report)
    print(f"report -> {out / 'bench_report.json'}")
    return EXIT_OK


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _matrix_stacks(run_dir: Path, count: int, sigma, failures: list[str]):
    """The run's ``(U, X)`` stacks, each float64 of shape (count, n, n) for
    the n x n ``sigma`` of its state, or None when either is not, which
    ``failures`` then records."""
    stacks = [data.load_stack(run_dir / name) for name in STACKS]
    expected = (count, *sigma.shape)
    bad = [
        f"{name} holds {stack.dtype} {stack.shape}, not float64 {expected}"
        for name, stack in zip(STACKS, stacks)
        if stack.dtype != np.dtype("<f8") or stack.shape != expected
    ]
    failures += bad
    return None if bad else stacks


def _timings_failures(path: Path, count: int) -> list[str]:
    """Failures of a run's ``timings.json`` for a summary of ``count`` points."""
    timings = data.load_json(path)
    if not isinstance(timings, dict):
        raise ParseError(f"{path}: not a JSON object")
    if timings.get("schema") != data.TIMINGS_SCHEMA:
        return [f"{path.name}: schema {timings.get('schema')!r} is not {data.TIMINGS_SCHEMA!r}"]
    walls = timings.get("per_point_wall_time")
    if not (
        isinstance(walls, list)
        and len(walls) == count
        and all(_is_number(w) and 0.0 <= w < math.inf for w in walls)
    ):
        return [f"{path.name}: per_point_wall_time is not {count} finite numbers >= 0"]
    # The writer's own sum; JSON round-trips a float exactly.
    total = timings.get("total_wall_time")
    if not (_is_number(total) and total == float(sum(walls))):
        return [f"{path.name}: total_wall_time {total!r} is not the sum of per_point_wall_time"]
    return []


def _verify_run_dir(run_dir: Path) -> list[str]:
    """Re-validate an emitted run; returns a list of failure messages."""
    failures = []
    summary_path = run_dir / "summary.json"
    summary = data.load_json(summary_path)
    if not isinstance(summary, dict):
        raise ParseError(f"{summary_path}: not a JSON object")
    if summary.get("schema") != data.SUMMARY_SCHEMA:
        return [f"unexpected summary schema {summary.get('schema')!r}"]
    try:
        points = summary["points"]
        tol = float(summary["config"]["tol_residual"])
        zero_tol = float(summary["config"]["zero_tol"])
        config_t = float(summary["config"]["t"])
        config_points = operator.index(summary["config"]["points"])
        config_mode = summary["config"]["mode"]
        instance_n = operator.index(summary["instance"]["n"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{summary_path}: no usable points/config/instance ({exc!r})") from exc
    if not isinstance(points, list):
        raise ParseError(f"{summary_path}: points is not a list")
    for idx, pt in enumerate(points):
        if not (isinstance(pt, dict) and all(_is_number(pt.get(key)) for key in POINT_FIELDS)):
            raise ParseError(
                f"{summary_path}: point {idx} is not an object with numbers "
                f"{', '.join(POINT_FIELDS)}"
            )
    rhos = [pt["rho"] for pt in points]
    if any(b >= a for a, b in zip(rhos, rhos[1:])):
        failures.append("points are not strictly descending in rho")
    if config_mode not in MODES:
        failures.append(f"config.mode {config_mode!r} is not one of {', '.join(MODES)}")
    truncated = "failure" in summary
    if summary.get("truncated") is not truncated:
        failures.append(
            f"truncated is {summary.get('truncated')!r} in a summary "
            f"{'with' if truncated else 'without'} a failure"
        )
    if truncated and len(points) >= config_points:
        failures.append(f"truncated run holds {len(points)} of config.points {config_points}")
    elif not truncated and len(points) != config_points:
        failures.append(f"run holds {len(points)} points, not config.points {config_points}")
    # Each covpath file on disk must be one this run writes, and each one
    # it writes must be there; only those are checked.
    present = {name for name in _run_files(1, True) if (run_dir / name).exists()}
    expected = _run_files(len(points), not present.isdisjoint(STACKS))
    failures += [f"{name} is missing" for name in sorted(expected - present)]
    without = "stacks" if points else "points"
    failures += [f"{name} in a run without {without}" for name in sorted(present - expected)]
    present &= expected
    # Per-point CSVs are an older run format that holds the matrices and
    # edge lists elsewhere, so they fail the run.
    for prefix, kind, home in (("[UX]", "matrix CSVs", " and ".join(STACKS)),
                               ("edges", "edge lists", "edges.csv")):
        leftovers = sorted(f.name for f in run_dir.glob(f"{prefix}_[0-9][0-9][0-9].csv"))
        if leftovers:
            failures.append(
                f"{leftovers[0]}: {len(leftovers)} per-point {kind} of an older run "
                f"format, which verify does not read; they belong in {home}"
            )
    if "timings.json" in present:
        failures += _timings_failures(run_dir / "timings.json", len(points))
    sigma = stacks = None
    state_path = run_dir / "state.json"
    if "state.json" in present:
        sigma, state_U, state_rho, state_t = data.state_arrays(data.load_json(state_path))
        if instance_n != sigma.shape[0]:
            failures.append(
                f"{state_path.name}: sigma is n={sigma.shape[0]}, not instance.n {instance_n!r}"
            )
        if state_t != config_t:
            failures.append(f"{state_path.name}: t {state_t!r} is not config.t {config_t!r}")
        if state_rho != points[-1]["rho"]:
            failures.append(
                f"{state_path.name}: rho {state_rho!r} is not the last point's "
                f"rho {points[-1]['rho']!r}"
            )
    if sigma is not None and present.issuperset(STACKS):
        stacks = _matrix_stacks(run_dir, len(points), sigma, failures)
    if stacks and stacks[0][-1].tobytes() != state_U.tobytes():
        failures.append(f"{state_path.name}: U is not bitwise U.npy[{len(points) - 1}]")
    bound = gap_bound(instance_n, config_t)
    for idx, pt in enumerate(points):
        if pt["cardinality"] < 0 or pt["sweeps"] < 0 or pt["cg_iterations"] < 0:
            failures.append(f"point {idx}: negative counter")
        gap = pt["dual_obj"] - pt["primal_obj"]
        if gap < -1e-9:
            failures.append(f"point {idx}: weak duality violated (gap {gap:.3e})")
        if gap > bound + 10.0 * tol + 1e-9:
            failures.append(f"point {idx}: gap {gap:.3e} above bound {bound:.3e}")
        # Each point's U is U.npy[idx]; without the stacks, the last
        # point's is state.json's, which has no X to recount on.
        if stacks:
            U, X, name = stacks[0][idx], stacks[1][idx], f"U.npy[{idx}]"
            if cardinality(X, zero_tol) != pt["cardinality"]:
                failures.append(f"point {idx}: cardinality mismatch on recount")
        elif sigma is not None and idx == len(points) - 1:
            U, X, name = state_U, None, f"{state_path.name}'s U"
        else:
            continue
        # The residual is checked on the saved U: X = U^{-1} stored in
        # float64 fixes U only to about cond(X) * eps, and the multipliers
        # magnify that by t / slack^2.
        # Tested as a corrector start is: exact symmetry, box and PD.
        problem = Problem(sigma=sigma, rho=pt["rho"])
        try:
            fresh, slack = feasible(problem, U, name)
        except Infeasible as exc:
            failures.append(f"point {idx}: {exc}")
            continue
        # Negated, so that a NaN in X fails.
        if X is not None and not (
            np.linalg.norm(X - fresh.inverse) <= X_MATCH_RTOL * np.linalg.norm(fresh.inverse)
        ):
            failures.append(f"point {idx}: X.npy[{idx}] is not the inverse of {name}")
        # The gap check above sees only the difference of the objectives.
        for key, value in (("dual_obj", dual_objective(fresh)),
                           ("primal_obj", primal_objective(problem, fresh.inverse, -fresh.logdet))):
            if not abs(pt[key] - value) <= 1e-9 * max(1.0, abs(value)):
                failures.append(f"point {idx}: {key} {pt[key]!r} is not {value!r}, "
                                f"its value at {name}")
        H = residual(multipliers(config_t, slack), fresh.inverse)
        resid = float(np.linalg.norm(H))
        if resid > 2.0 * tol + 1e-9:
            failures.append(
                f"point {idx}: recomputed residual {resid:.3e} above 2*tol={2*tol:.3e}"
            )
    # The plot files need the n of the state, when the run has points, and
    # edges.csv the X stack; a run lacking either has failed above.
    if sigma is not None or not points:
        n = sigma.shape[0] if points else 1  # no point, no n needed
        texts = _derived_csvs(points, n, zero_tol, stacks[1] if stacks else ())
        for name, text in texts.items():
            if name in present and (run_dir / name).read_bytes() != text.encode():
                failures.append(f"{name} is not the CSV the run derives")
    return failures


def cmd_verify(args) -> int:
    failures = _verify_run_dir(Path(args.run_dir))
    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return EXIT_NUMERICAL
    print("verify: all checks passed")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covpath",
        description="Regularization paths for l1-penalized covariance selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="trace a full regularization path")
    solve.add_argument("--sigma", help="covariance matrix CSV")
    solve.add_argument("--samples", help="m x n sample matrix CSV")
    solve.add_argument(
        "--gen", help="random instance from keys n, density, seed, margin; e.g. n=30,seed=1"
    )
    solve.add_argument("--points", type=int, default=PathConfig.points)
    solve.add_argument("--rho-min-frac", type=float, default=PathConfig.rho_min_frac)
    solve.add_argument("--gap-target", type=float, default=PathConfig.gap_target)
    solve.add_argument("--mode", choices=MODES, default=PathConfig.mode)
    solve.add_argument("--zero-tol", type=float, default=PathConfig.zero_tol)
    solve.add_argument("--output", default="covpath_run")
    solve.add_argument(
        "--no-matrices", action="store_true", help="skip the U and X stacks and edges.csv"
    )

    online = sub.add_parser("online", help="re-solve after a covariance perturbation")
    online.add_argument("--state", required=True, help="state.json from a previous run")
    online.add_argument("--perturbation", required=True, help="symmetric perturbation CSV")
    online.add_argument("--k", type=int, default=1, help="continuation steps in mu")
    online.add_argument("--verify", action="store_true", help="compare with a from-scratch solve")
    online.add_argument("--output", default="covpath_online")

    bench = sub.add_parser("bench", help="wall-time benchmark on generated instances")
    bench.add_argument("--sizes", default="20,50,100,200")
    bench.add_argument("--lengths", default="10,50")
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--density", type=float, default=data.GeneratorSpec.density)
    bench.add_argument("--gap-target", type=float, default=PathConfig.gap_target)
    bench.add_argument("--seed", type=int, default=data.GeneratorSpec.seed)
    bench.add_argument("--output", default="covpath_bench")

    verify = sub.add_parser("verify", help="re-validate an emitted run directory")
    verify.add_argument("run_dir")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, not stored in the cached parser, so that a
    # wrapper installed on a cmd_* function later still runs.
    commands = {"solve": cmd_solve, "online": cmd_online, "bench": cmd_bench, "verify": cmd_verify}
    try:
        return commands[args.command](args)
    except INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CovpathError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
