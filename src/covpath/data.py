"""Matrix file I/O, the random problem generator, and JSON artifacts.

Matrices travel as plain CSV (one row per line, 17 significant digits, so
doubles round-trip exactly); run summaries and reports are versioned JSON.
Wall-clock timings live in a separate artifact so that summaries are
byte-identical across repeated runs with the same flags and seed. The
writers format each distinct entry of a symmetric matrix once, and write
the bytes that ``np.savetxt`` and ``json`` would.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import AsymmetricInput, DegenerateInstance, NonPositiveDiagonal, ParseError
from .symmat import invert_pd, is_pd, symmetrize

SUMMARY_SCHEMA = "covpath.summary/1"
STATE_SCHEMA = "covpath.state/1"
BENCH_SCHEMA = "covpath.bench/1"

FLOAT_FMT = "%.17g"

# A loaded covariance must stay positive definite after this shift, relative
# to its largest diagonal entry: it accepts the rounding-level negative
# eigenvalues of a sample covariance from fewer samples than dimensions.
PSD_SHIFT = 1e-10


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
    """Covariance CSV: symmetrized, asymmetry- and diagonal-checked, and
    positive semidefinite (to ``PSD_SHIFT``), which the scaling warm start
    needs to stay feasible."""
    m = _check_symmetric(load_matrix(path), path)
    diag = np.diagonal(m)
    if np.any(diag <= 0.0):
        raise NonPositiveDiagonal(f"{path}: covariance diagonal must be positive")
    if not is_pd(m + PSD_SHIFT * diag.max() * np.eye(m.shape[0])):
        raise DegenerateInstance(f"{path}: covariance is not positive semidefinite")
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


def _text_rows(m: np.ndarray, fmt: str) -> list[str]:
    """Rows of the 2-D array ``m`` as text: each entry printed with the
    printf format ``fmt``, entries joined by commas.

    A float64 matrix that is bitwise symmetric has only n(n+1)/2 distinct
    entries, so those are formatted once and the mirrored strings reused.
    Bits decide symmetry because 0.0 == -0.0, yet the two print apart.
    """
    n = m.shape[0]
    if m.dtype == np.float64 and m.shape == (n, n):
        bits = m.view(np.uint64)
        if np.array_equal(bits, bits.T):
            upper = ~np.tri(n, k=-1, dtype=bool)
            # One % over the whole triangle; NUL never occurs in a number.
            cells = ("\0".join([fmt] * (n * (n + 1) // 2)) % tuple(m[upper].tolist())).split("\0")
            pos = np.cumsum(upper).reshape(n, n) - 1
            mirrored = np.array(cells, dtype=object)[np.where(upper, pos, pos.T)]
            return [",".join(row) for row in mirrored.tolist()]
    row_fmt = ",".join([fmt] * m.shape[1])
    return [row_fmt % tuple(row) for row in m.tolist()]


def write_csv(path, m: np.ndarray, fmt: str = FLOAT_FMT) -> None:
    """Write a 2-D array as the bytes of ``np.savetxt(path, m, delimiter=",", fmt=fmt)``."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got {m.ndim}-D")
    Path(path).write_text("".join(row + "\n" for row in _text_rows(m, fmt)))


def write_matrix(path, m: np.ndarray) -> None:
    write_csv(path, np.asarray(m, dtype=float))


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
        if not self.identity_shift_margin > 0.0:
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
        if value.dtype.kind in "biuf":  # tolist() already yields plain Python numbers
            return value.tolist()
        return [_to_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    return value


def _json_text(value) -> str:
    if (
        isinstance(value, np.ndarray)
        and value.ndim == 2
        and value.dtype == np.float64
        and value.size
        and np.isfinite(value).all()
    ):
        # json writes a finite float as float.__repr__, which is %r.
        return "[[" + "],[".join(_text_rows(value, "%r")) + "]]"
    # Compact: an indent would push json onto its pure-Python encoder.
    return json.dumps(_to_jsonable(value), sort_keys=True, separators=(",", ":"))


def dump_json(path, payload: dict) -> None:
    """Write ``payload`` (string keys) as ``json.dumps`` would with sorted
    keys and compact separators; top-level matrices go through the CSV
    row formatter."""
    if not all(isinstance(key, str) for key in payload):
        raise TypeError("JSON artifact keys must be strings")
    fields = (json.dumps(key) + ":" + _json_text(payload[key]) for key in sorted(payload))
    Path(path).write_text("{" + ",".join(fields) + "}\n")


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
    if not isinstance(state, dict):
        raise ParseError(f"state must be a JSON object, not {type(state).__name__}")
    if state.get("schema") != STATE_SCHEMA:
        raise ParseError(f"unexpected state schema {state.get('schema')!r}")
    try:
        sigma = np.asarray(state["sigma"], dtype=float)
        U = np.asarray(state["U"], dtype=float)
        rho, t = float(state["rho"]), float(state["t"])
    except KeyError as exc:
        raise ParseError(f"state is missing the key {exc}") from exc
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ParseError(f"state sigma must be a square matrix, got shape {sigma.shape}")
    if U.shape != sigma.shape:
        raise ParseError(f"state U has shape {U.shape}, sigma {sigma.shape}")
    if not (0.0 < rho < np.inf and 0.0 < t < np.inf):
        raise ParseError(f"state rho and t must be finite and positive, got {rho} and {t}")
    return sigma, U, rho, t
