"""Matrix file I/O, the random problem generator, and JSON artifacts.

Matrices travel as plain CSV (one row per line, 17 significant digits, so
doubles round-trip exactly); run summaries and reports are versioned JSON.
Wall-clock timings live in a separate artifact so that summaries are
byte-identical across repeated runs with the same flags and seed.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import AsymmetricInput, NonPositiveDiagonal, ParseError
from .symmat import invert_pd, symmetrize

SUMMARY_SCHEMA = "covpath.summary/1"
STATE_SCHEMA = "covpath.state/1"
BENCH_SCHEMA = "covpath.bench/1"

FLOAT_FMT = "%.17g"


def load_matrix(path) -> np.ndarray:
    """Numeric CSV to 2-D float array; raises ParseError on bad input."""
    try:
        m = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except (ValueError, OSError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not np.all(np.isfinite(m)):
        raise ParseError(f"{path}: non-finite entries")
    return m


def _check_symmetric(m: np.ndarray, path) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ParseError(f"{path}: expected a square matrix, got {m.shape}")
    scale = np.abs(m).max()
    asym = np.abs(m - m.T).max()
    if scale > 0 and asym > 1e-6 * scale:
        raise AsymmetricInput(
            f"{path}: asymmetry {asym:.3e} exceeds 1e-6 * max|entry| = {1e-6 * scale:.3e}"
        )
    return symmetrize(m)


def load_covariance(path) -> np.ndarray:
    """Covariance CSV: symmetrized, asymmetry- and diagonal-checked."""
    m = _check_symmetric(load_matrix(path), path)
    if np.any(np.diagonal(m) <= 0.0):
        raise NonPositiveDiagonal(f"{path}: covariance diagonal must be positive")
    return m


def load_perturbation(path) -> np.ndarray:
    """Symmetric perturbation CSV (diagonal sign unrestricted)."""
    return _check_symmetric(load_matrix(path), path)


def samples_covariance(data: np.ndarray) -> np.ndarray:
    """Mean-centered covariance (1/m) sum (x_i - xbar)(x_i - xbar)^T."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ParseError("samples matrix must be m x n with m >= 2")
    centered = data - data.mean(axis=0)
    return symmetrize(centered.T @ centered / data.shape[0])


def load_samples(path) -> np.ndarray:
    """Covariance of an m x n sample matrix stored as CSV."""
    return samples_covariance(load_matrix(path))


def write_matrix(path, m: np.ndarray) -> None:
    np.savetxt(path, np.asarray(m, dtype=float), delimiter=",", fmt=FLOAT_FMT)


@dataclass(frozen=True)
class GeneratorSpec:
    """Random instance recipe: dimension, precision density, seed, margin."""

    n: int
    density: float = 0.10
    seed: int = 0
    identity_shift_margin: float = 0.1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not (0.0 <= self.density <= 1.0):
            raise ValueError("density must lie in [0, 1]")
        if self.identity_shift_margin <= 0.0:
            raise ValueError("identity_shift_margin must be positive")


def generate_problem(spec: GeneratorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Random sparse ground-truth precision and its inverse as covariance.

    Off-diagonal positions are sampled without replacement to land the
    full-matrix nonzero fraction (diagonal included) as close to
    ``spec.density`` as the dimension allows, filled with standard normal
    values; the identity multiple is chosen so the smallest eigenvalue is
    at least ``identity_shift_margin``. Deterministic per seed (PCG64).
    """
    n = spec.n
    rng = np.random.default_rng(spec.seed)
    target = spec.density * n * n
    k = int(round(max(0.0, (target - n) / 2.0)))
    k = min(k, n * (n - 1) // 2)

    base = np.zeros((n, n))
    if k > 0:
        iu, ju = np.triu_indices(n, 1)
        chosen = rng.choice(iu.size, size=k, replace=False)
        vals = rng.standard_normal(k)
        base[iu[chosen], ju[chosen]] = vals
        base[ju[chosen], iu[chosen]] = vals

    lam_min = float(np.linalg.eigvalsh(base)[0]) if k > 0 else 0.0
    alpha = max(0.0, spec.identity_shift_margin - lam_min)
    ground_truth = base + alpha * np.eye(n)
    sigma = invert_pd(ground_truth)
    return sigma, ground_truth


# --------------------------------------------------------------------------
# JSON artifacts
# --------------------------------------------------------------------------


def _to_jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_to_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    return value


def dump_json(path, payload: dict) -> None:
    text = json.dumps(_to_jsonable(payload), sort_keys=True, indent=2)
    Path(path).write_text(text + "\n")


def load_json(path) -> dict:
    """Parse a JSON artifact; raises ParseError if it cannot be read or parsed."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def build_summary(path_result, instance: dict, config: dict) -> dict:
    """Deterministic run summary (no wall-clock fields)."""
    points = [
        {
            "rho": pt.rho,
            "t": path_result.t,
            "cardinality": pt.cardinality,
            "dual_obj": pt.dual_obj,
            "primal_obj": pt.primal_obj,
            "gap_bound": pt.gap_bound,
            "cg_iterations": pt.cg_iterations,
            "sweeps": pt.sweeps,
        }
        for pt in path_result.points
    ]
    summary = {
        "schema": SUMMARY_SCHEMA,
        "instance": instance,
        "config": config,
        "mode": path_result.mode,
        "points": points,
        "truncated": path_result.truncated,
        "max_inverse_drift": path_result.max_inverse_drift,
    }
    if path_result.failure is not None:
        summary["failure"] = {
            "rho": path_result.failure.rho,
            "error": path_result.failure.error,
        }
    return summary


def build_timings(path_result) -> dict:
    return {
        "schema": "covpath.timings/1",
        "per_point_wall_time": [pt.wall_time for pt in path_result.points],
        "total_wall_time": float(sum(pt.wall_time for pt in path_result.points)),
    }


def build_state(sigma: np.ndarray, U: np.ndarray, rho: float, t: float) -> dict:
    return {
        "schema": STATE_SCHEMA,
        "sigma": sigma,
        "U": U,
        "rho": rho,
        "t": t,
    }


def state_arrays(state: dict) -> tuple[np.ndarray, np.ndarray, float, float]:
    if state.get("schema") != STATE_SCHEMA:
        raise ParseError(f"unexpected state schema {state.get('schema')!r}")
    try:
        sigma = np.asarray(state["sigma"], dtype=float)
        U = np.asarray(state["U"], dtype=float)
        return sigma, U, float(state["rho"]), float(state["t"])
    except KeyError as exc:
        raise ParseError(f"state is missing the key {exc}") from exc
