import os

# Tier-1 runs with one BLAS thread, the setting its timings and the
# benchmark are measured with. Set before numpy loads; an explicit setting
# in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from covpath.barrier import Problem, feasible  # noqa: E402
from covpath.exceptions import Infeasible  # noqa: E402
from covpath.symmat import symmetrize  # noqa: E402

def random_pd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return symmetrize(a @ a.T + n * scale * np.eye(n))


def random_instance(rng, n, density=0.3, rho_frac=0.5):
    """Generated covariance with a penalty strictly inside (0, rho_max)."""
    from covpath.data import GeneratorSpec, generate_problem

    sigma, _ = generate_problem(
        GeneratorSpec(n=n, density=density, seed=int(rng.integers(2**31)))
    )
    rho = rho_frac * float(np.max(np.diagonal(sigma)))
    return Problem(sigma=sigma, rho=rho)


def random_feasible_point(rng, p, margin=0.5):
    """Strictly feasible U built by a bounded symmetric offset from sigma."""
    n = p.n
    for _ in range(100):
        z = symmetrize(rng.uniform(-1.0, 1.0, (n, n)))
        shift = np.diag(rng.uniform(0.3, 0.9, n)) * p.rho
        U = p.sigma + margin * p.rho * z * 0.3 + shift
        np.clip(U - p.sigma, -0.95 * p.rho, 0.95 * p.rho, out=z)
        U = p.sigma + z
        try:
            feasible(p, U)
        except Infeasible:
            continue
        return U
    raise AssertionError("could not build a feasible point")
