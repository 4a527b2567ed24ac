"""Matrix file I/O, the random problem generator, and JSON artifacts.

Inputs are plain CSV matrices. A run's solved matrices go out as numpy
``.npy`` stacks (NEP 1), one (P, n, n) little-endian float64 array per
kind, written slice by slice; they are exact and ``np.load`` reads them.
The small human-read outputs stay text: the CSV writer prints the bytes
that ``np.savetxt`` would, and run summaries and reports are versioned
JSON of plain Python values, the bytes of ``json``. Wall-clock timings
live in a separate artifact so that summaries are byte-identical across
repeated runs with the same flags and seed. The hand-off state for
``covpath online`` holds its matrices as base64 of their little-endian
float64 bytes, which is exact and needs no formatting.
"""

import base64
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import (
    AsymmetricInput, DegenerateInstance, NonPositiveDiagonal, NotPositiveDefinite, ParseError
)
from .symmat import cholesky_logdet, invert_pd, symmetrize

SUMMARY_SCHEMA = "covpath.summary/2"
STATE_SCHEMA = "covpath.state/2"
ONLINE_SCHEMA = "covpath.online/2"
BENCH_SCHEMA = "covpath.bench/1"
TIMINGS_SCHEMA = "covpath.timings/1"

FLOAT_FMT = "%.17g"

# A loaded covariance must stay positive definite after this shift, relative
# to its largest diagonal entry: it accepts the rounding-level negative
# eigenvalues of a sample covariance from fewer samples than dimensions.
PSD_SHIFT = 1e-10


def load_matrix(path) -> np.ndarray:
    """Numeric CSV to 2-D float array; raises ParseError on bad input or none."""
    try:
        with warnings.catch_warnings():
            # A file with no data is rejected below, by name.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            m = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except (ValueError, OSError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if m.size == 0:
        raise ParseError(f"{path}: no data")
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
    try:
        cholesky_logdet(m + PSD_SHIFT * diag.max() * np.eye(m.shape[0]))
    except NotPositiveDefinite as exc:
        raise DegenerateInstance(f"{path}: covariance is not positive semidefinite") from exc
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


def csv_text(m: np.ndarray, fmt: str = FLOAT_FMT) -> str:
    """A 2-D array as the text of ``np.savetxt(path, m, delimiter=",", fmt=fmt)``."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got {m.ndim}-D")
    row_fmt = ",".join([fmt] * m.shape[1])
    return "".join(row_fmt % tuple(row) + "\n" for row in m.tolist())


def write_csv(path, m: np.ndarray, fmt: str = FLOAT_FMT) -> None:
    """Write :func:`csv_text` of ``m`` to ``path``."""
    Path(path).write_text(csv_text(m, fmt))


def write_stack(path, matrices: list[np.ndarray]) -> None:
    """Write equal-shape matrices as one ``.npy`` file holding their stack
    as little-endian float64 in C order, the bytes of
    ``np.save(path, np.stack(matrices).astype("<f8"))``. The header goes
    first and then each matrix, so the stack is never built."""
    shape = (len(matrices), *np.shape(matrices[0]))
    header = {"descr": "<f8", "fortran_order": False, "shape": shape}
    with open(path, "wb") as f:
        np.lib.format.write_array_header_1_0(f, header)
        for m in matrices:
            if np.shape(m) != shape[1:]:
                raise ValueError(f"matrix of shape {np.shape(m)} in a stack of {shape[1:]}")
            f.write(np.ascontiguousarray(m, dtype="<f8"))


def load_stack(path) -> np.ndarray:
    """The array of a ``.npy`` file, memory-mapped read-only. Raises
    ParseError naming the file if it cannot be read, is not ``.npy`` or
    holds Python objects, which would need unpickling."""
    try:
        stack = np.load(path, mmap_mode="r", allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(stack, np.ndarray):  # an .npz archive
        stack.close()
        raise ParseError(f"{path}: not a .npy array")
    return stack


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


def dump_json(path, payload: dict) -> None:
    """Write ``payload`` (string keys, plain Python values: numpy arrays raise
    TypeError) as ``json.dumps`` would with sorted keys, compact separators."""
    if not all(isinstance(key, str) for key in payload):
        raise TypeError("JSON artifact keys must be strings")
    # Compact: an indent would push json onto its pure-Python encoder.
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n")


def load_json(path) -> dict:
    """Parse a JSON artifact; raises ParseError if it cannot be read or parsed."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


# The numbers every entry of summary["points"] holds; what holds for the
# whole run (n, t, the mode) is stated once, in "instance" and "config".
POINT_FIELDS = ("rho", "cardinality", "sweeps", "cg_iterations", "dual_obj", "primal_obj")


def build_summary(path_result, instance: dict, config: dict) -> dict:
    """Deterministic run summary (no wall-clock fields)."""
    summary = {
        "schema": SUMMARY_SCHEMA,
        "instance": instance,
        "config": config,
        "points": [{key: getattr(pt, key) for key in POINT_FIELDS} for pt in path_result.points],
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
        "schema": TIMINGS_SCHEMA,
        "per_point_wall_time": [pt.wall_time for pt in path_result.points],
        "total_wall_time": float(sum(pt.wall_time for pt in path_result.points)),
    }


def _encode_matrix(m: np.ndarray) -> str:
    """Base64 (RFC 4648, padded) of ``m`` as little-endian float64, row-major."""
    return base64.b64encode(np.ascontiguousarray(m, dtype="<f8").tobytes()).decode("ascii")


def _decode_matrix(state: dict, key: str) -> np.ndarray:
    """The square matrix ``state[key]`` that ``_encode_matrix`` wrote."""
    text = state[key]
    if not isinstance(text, str):
        raise ParseError(f"state {key} must be a base64 string, not {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ParseError(f"state {key} is not valid base64: {exc}") from exc
    n = math.isqrt(len(raw) // 8)
    if n < 1 or len(raw) != 8 * n * n:
        raise ParseError(f"state {key} holds {len(raw)} bytes, not 8 n^2 for an integer n >= 1")
    # astype copies into a writable array of native byte order.
    return np.frombuffer(raw, dtype="<f8").reshape(n, n).astype(np.float64)


def build_state(sigma: np.ndarray, U: np.ndarray, rho: float, t: float) -> dict:
    return {
        "schema": STATE_SCHEMA,
        "sigma": _encode_matrix(sigma),
        "U": _encode_matrix(U),
        "rho": rho,
        "t": t,
    }


def state_arrays(state: dict) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``(sigma, U, rho, t)`` of a state that ``build_state`` wrote."""
    if not isinstance(state, dict):
        raise ParseError(f"state must be a JSON object, not {type(state).__name__}")
    if state.get("schema") != STATE_SCHEMA:
        raise ParseError(f"state schema {state.get('schema')!r} is not {STATE_SCHEMA!r}")
    try:
        sigma = _decode_matrix(state, "sigma")
        U = _decode_matrix(state, "U")
        rho, t = float(state["rho"]), float(state["t"])
    except KeyError as exc:
        raise ParseError(f"state is missing the key {exc}") from exc
    if U.shape != sigma.shape:
        raise ParseError(f"state U has shape {U.shape}, sigma {sigma.shape}")
    if not (0.0 < rho < np.inf and 0.0 < t < np.inf):
        raise ParseError(f"state rho and t must be finite and positive, got {rho} and {t}")
    return sigma, U, rho, t
