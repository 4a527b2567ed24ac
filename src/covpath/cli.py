"""Command-line interface: solve paths, re-solve perturbed instances online,
benchmark, and re-validate emitted artifacts.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 partial path
(truncated run with artifacts written).
"""

import argparse
import functools
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import data
from .barrier import Problem, multipliers, residual
from .corrector import CorrectorConfig
from .exceptions import (
    AsymmetricInput,
    CovpathError,
    DegenerateInstance,
    NonPositiveDiagonal,
    ParseError,
)
from .path import MODES, PathConfig, cardinality, run_online, run_path, solve_at, support_mask
from .symmat import pd_factor

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4

# verify: largest relative Frobenius distance between a saved X and the
# fresh inverse of the saved U.
X_MATCH_RTOL = 1e-8
# verify: the numbers every entry of summary["points"] must hold.
POINT_FIELDS = (
    "rho", "t", "cardinality", "sweeps", "cg_iterations", "dual_obj", "primal_obj", "gap_bound"
)

INPUT_ERRORS = (ParseError, AsymmetricInput, NonPositiveDiagonal, DegenerateInstance, ValueError)

# --gen key -> (GeneratorSpec field, parser).
GEN_KEYS = {
    "n": ("n", int),
    "density": ("density", float),
    "seed": ("seed", int),
    "margin": ("identity_shift_margin", float),
}


def _parse_gen_spec(text: str, fallback_seed: int) -> data.GeneratorSpec:
    """GeneratorSpec from ``key=value`` items; ``seed`` falls back to
    ``fallback_seed`` and the other omitted keys to GeneratorSpec's defaults.
    Unknown and repeated keys are input errors."""
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
    fields.setdefault("seed", fallback_seed)
    return data.GeneratorSpec(**fields)


def _load_instance(args) -> tuple[np.ndarray, dict]:
    if args.gen:
        spec = _parse_gen_spec(args.gen, args.seed)
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


def _write_run_artifacts(out: Path, result, summary: dict, write_matrices: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    data.dump_json(out / "summary.json", summary)
    data.dump_json(out / "timings.json", data.build_timings(result))
    if result.points:
        last = result.points[-1]
        data.dump_json(
            out / "state.json", data.build_state(result.sigma, last.U, last.rho, result.t)
        )
    card_rows = np.array(
        [[math.log10(pt.rho), pt.cardinality / result.sigma.shape[0] ** 2] for pt in result.points]
    )
    cg_rows = np.array([[pt.cardinality, pt.cg_iterations] for pt in result.points])
    data.write_csv(out / "plot_cardinality.csv", card_rows.reshape(-1, 2))
    data.write_csv(out / "plot_cg.csv", cg_rows.reshape(-1, 2))
    if write_matrices:
        zero_tol = summary["config"]["zero_tol"]
        for idx, pt in enumerate(result.points):
            data.write_matrix(out / f"U_{idx:03d}.csv", pt.U)
            data.write_matrix(out / f"X_{idx:03d}.csv", pt.X)
            ii, jj = np.nonzero(np.triu(support_mask(pt.X, zero_tol), 1))
            data.write_csv(
                out / f"edges_{idx:03d}.csv", np.column_stack([ii, jj]).reshape(-1, 2), "%d"
            )


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
    report = {
        "schema": "covpath.online/1",
        "k": args.k,
        "rho": rho,
        "t": t,
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
    sizes = [int(s) for s in args.sizes.split(",") if s]
    lengths = [int(s) for s in args.lengths.split(",") if s]
    cells = []
    for n in sizes:
        spec = data.GeneratorSpec(n=n, density=args.density, seed=args.seed + n)
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
            cells.append(
                {
                    "n": n,
                    "points": points,
                    "density": args.density,
                    "wall_times": walls,
                    "median_wall_time": statistics.median(walls),
                    "newton_steps": newton_steps,
                    "cg_iterations": cg_iterations,
                }
            )
            print(
                f"n={n:>4d} points={points:>3d} median={statistics.median(walls):8.3f}s "
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
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{summary_path}: no usable points/config ({exc!r})") from exc
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
    sigma = None
    state_path = run_dir / "state.json"
    if state_path.exists():
        sigma, _, _, _ = data.state_arrays(data.load_json(state_path))
    elif points:
        failures.append(f"{state_path.name} is missing, so no matrix can be checked")
    for idx, pt in enumerate(points):
        if pt["cardinality"] < 0 or pt["sweeps"] < 0 or pt["cg_iterations"] < 0:
            failures.append(f"point {idx}: negative counter")
        gap = pt["dual_obj"] - pt["primal_obj"]
        if gap < -1e-9:
            failures.append(f"point {idx}: weak duality violated (gap {gap:.3e})")
        if gap > pt["gap_bound"] + 10.0 * tol + 1e-9:
            failures.append(f"point {idx}: gap {gap:.3e} above bound {pt['gap_bound']:.3e}")
        x_path = run_dir / f"X_{idx:03d}.csv"
        if sigma is not None and x_path.exists():
            X = data.load_matrix(x_path)
            if cardinality(X, zero_tol) != pt["cardinality"]:
                failures.append(f"point {idx}: cardinality mismatch on recount")
            # The residual is checked on the saved U: X = U^{-1} stored in
            # float64 fixes U only to about cond(X) * eps, and the
            # multipliers magnify that by t / slack^2.
            u_path = run_dir / f"U_{idx:03d}.csv"
            if not u_path.exists():
                failures.append(f"point {idx}: {x_path.name} has no {u_path.name}")
                continue
            U = data.load_matrix(u_path)
            fresh = pd_factor(U)
            if np.linalg.norm(X - fresh.inverse) > X_MATCH_RTOL * np.linalg.norm(fresh.inverse):
                failures.append(f"point {idx}: {x_path.name} is not the inverse of {u_path.name}")
            state = multipliers(Problem(sigma=sigma, rho=pt["rho"]), fresh.matrix, pt["t"])
            H = residual(state, fresh.inverse)
            resid = float(np.linalg.norm(H))
            if resid > 2.0 * tol + 1e-9:
                failures.append(
                    f"point {idx}: recomputed residual {resid:.3e} above 2*tol={2*tol:.3e}"
                )
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
    solve.add_argument("--seed", type=int, default=data.GeneratorSpec.seed)
    solve.add_argument("--output", default="covpath_run")
    solve.add_argument("--no-matrices", action="store_true", help="skip per-point X/edge files")

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
