"""The three covpath workloads: inputs, timed loop and correctness gates.

Each workload is a closed loop: one caller in one process, and the next
operation starts only after the previous one returns. Inputs come from the
run seed alone and are generated here, not by covpath, so that a change to
the program cannot change what it is measured on.

Instances are sample covariances: ``200 n`` samples, drawn with the run
seed, from a fixed sparse Gaussian model (generator seed ``MODEL_SEED``).
Across generator seeds path time varies up to 5x at n=20, because the
model's hardness varies; with the model fixed, seeds differ by sampling
noise and runs stay comparable.
"""

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass

import numpy as np

MODEL_SEED = 1
SAMPLES_PER_DIM = 200
GAP_TARGET = 1e-3
FRO_GATE = 1e-6  # online final state vs a from-scratch solve (criterion 8)


def model_covariance(n, density, margin=0.1, seed=MODEL_SEED):
    """Covariance of a sparse Gaussian model with a standard-normal precision.

    Off-diagonal precision positions are drawn without replacement so that
    the nonzero fraction (diagonal included) is ``density``; the identity
    shift puts the smallest precision eigenvalue at ``margin``.
    """
    rng = np.random.default_rng(seed)
    k = min(int(round(max(0.0, (density * n * n - n) / 2.0))), n * (n - 1) // 2)
    theta = np.zeros((n, n))
    iu, ju = np.triu_indices(n, 1)
    chosen = rng.choice(iu.size, size=k, replace=False)
    vals = rng.standard_normal(k)
    theta[iu[chosen], ju[chosen]] = vals
    theta[ju[chosen], iu[chosen]] = vals
    theta += max(0.0, margin - float(np.linalg.eigvalsh(theta)[0])) * np.eye(n)
    sigma = np.linalg.inv(theta)
    return 0.5 * (sigma + sigma.T)


def sample_covariance(model, rng, m):
    x = rng.multivariate_normal(np.zeros(model.shape[0]), model, size=m, method="cholesky")
    x -= x.mean(axis=0)
    s = x.T @ x / m
    return 0.5 * (s + s.T)


@contextlib.contextmanager
def quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


@dataclass
class Outcome:
    """What one run measured, before it is turned into metrics."""

    # Each time is (wall seconds, start, end): the interval whose machine
    # speed converts it to reference seconds (see speed.py).
    update_s: list  # path: one grid point each; online: one update each
    stream_s: list  # path: grid points of one solve; online: one stream each
    path_s: list  # full solves at the gap target (online: from scratch)
    attempted: int
    failed: int
    gate_errors: list
    notes: list


# --------------------------------------------------------------------------
# Path workloads: one `covpath solve` per operation, in-process.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PathWorkload:
    name: str
    n: int
    points: int
    rho_min_frac: float
    mode: str
    matrices: bool
    density: float = 0.1
    instances: int = 2  # solves cycle through this many sample draws
    min_ops: int = 4

    def params(self):
        return {
            "kind": "path", "n": self.n, "points": self.points, "mode": self.mode,
            "rho_min_frac": self.rho_min_frac, "density": self.density,
            "gap_target": GAP_TARGET, "matrices": self.matrices,
            "instances": self.instances, "model_seed": MODEL_SEED,
            "samples": SAMPLES_PER_DIM * self.n,
        }

    def setup(self, covpath, work, seed):
        """Generate every instance and write it as CSV; returns the paths."""
        model = model_covariance(self.n, self.density)
        paths = []
        for i in range(self.instances):
            sigma = sample_covariance(model, np.random.default_rng([seed, i]), SAMPLES_PER_DIM * self.n)
            p = work / f"sigma_{i}.csv"
            np.savetxt(p, sigma, delimiter=",", fmt="%.17g")
            paths.append(p)
        return paths

    def argv(self, csv, out):
        argv = [
            "solve", "--sigma", str(csv), "--mode", self.mode,
            "--points", str(self.points), "--rho-min-frac", repr(self.rho_min_frac),
            "--gap-target", repr(GAP_TARGET), "--output", str(out),
        ]
        return argv + ([] if self.matrices else ["--no-matrices"])

    def solve(self, cli, csv, out):
        """One timed solve: ``((wall, start, end), exit code)``; an escaping
        exception becomes a failed exit code."""
        start = time.perf_counter()
        try:
            with quiet():
                code = cli.main(self.argv(csv, out))
        except Exception as exc:  # the run must finish and report the failure
            code = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        return (end - start, start, end), code

    def run(self, covpath, work, inputs, seconds, tracer=None, installed=None):
        """Solve until ``seconds`` have passed; with a tracer, alternate
        untraced and traced solves of the same instance."""
        cli = covpath.cli
        solves = []  # (instance, out dir, exit code, traced, timed)
        untraced, traced = [], []
        start = time.perf_counter()
        while len(solves) < self.min_ops or time.perf_counter() - start < seconds:
            j = len(solves) // (2 if tracer else 1)
            inst = j % self.instances
            out = work / f"solve_{len(solves):03d}"
            timed, code = self.solve(cli, inputs[inst], out)
            untraced.append(timed)
            solves.append((inst, out, code, False, timed))
            if tracer is not None:
                out = work / f"solve_{len(solves):03d}"
                with installed(tracer), tracer.operation(len(solves)):
                    timed, code = self.solve(cli, inputs[inst], out)
                traced.append(timed)
                solves.append((inst, out, code, True, timed))
        return self.check(cli, work, inputs, solves, untraced, traced)

    def check(self, cli, work, inputs, solves, untraced, traced):
        """Gates, outside the timed region; then the outcome of the run."""
        errors, update_s, stream_s, shas = [], [], [], {}
        attempted = failed = 0

        def gate(inst, out, code):
            nonlocal attempted, failed
            attempted += self.points
            bad = self._gate(cli, out, code, errors)
            failed += self.points if bad is True else len(bad)
            summary = out / "summary.json"
            if summary.exists():
                shas.setdefault(inst, set()).add(hashlib.sha256(summary.read_bytes()).hexdigest())

        for inst, out, code, is_traced, (_, start, end) in solves:
            gate(inst, out, code)
            if not is_traced and (out / "timings.json").exists():
                timings = json.loads((out / "timings.json").read_text())
                # Points run back to back inside the solve; their intervals
                # are rebuilt from the solve's start and the point times.
                lo = start
                for wall in timings["per_point_wall_time"]:
                    update_s.append((wall, lo, lo + wall))
                    lo += wall
                stream_s.append((timings["total_wall_time"], start, end))
        for inst in range(self.instances):
            if sum(s[0] == inst for s in solves) < 2:
                # Solved once only: solve it again, untimed, for the sha gate.
                out = work / f"repeat_{inst}"
                gate(inst, out, self.solve(cli, inputs[inst], out)[1])
        for inst, digests in shas.items():
            if len(digests) != 1:
                errors.append(f"instance {inst}: summary.json differs across repeats")
                failed = attempted
        notes = [f"{len(untraced)} untraced and {len(traced)} traced solves over {self.instances} instances"]
        return Outcome(
            update_s=update_s, stream_s=stream_s, path_s=untraced,
            attempted=attempted, failed=min(failed, attempted), gate_errors=errors, notes=notes,
        ), traced

    def _gate(self, cli, out, code, errors):
        """Gate one solve; returns the failed point indices, or True for all."""
        if code != 0:
            errors.append(f"{out.name}: covpath solve exited {code}")
            return True
        with quiet():
            verify_code = cli.main(["verify", str(out)])
        if verify_code != 0:
            errors.append(f"{out.name}: covpath verify exited {verify_code}")
            return True
        summary = json.loads((out / "summary.json").read_text())
        pts = summary["points"]
        bad = set(range(len(pts), self.points))
        if summary["truncated"] or bad:
            errors.append(f"{out.name}: {len(pts)}/{self.points} points solved")
        cards = [p["cardinality"] for p in pts]
        for i in range(1, len(cards)):
            if cards[i] < cards[i - 1]:
                bad.add(i)
                errors.append(f"{out.name}: cardinality falls at point {i}")
        return bad


# --------------------------------------------------------------------------
# Online workload: a stream of rank-one sample perturbations.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OnlineWorkload:
    name: str
    n: int
    density: float = 0.1
    rho_frac: float = 0.3
    sizes: tuple = (1e-4, 1e-3, 1e-2)
    stream_len: int = 12
    pool_streams: int = 512  # streams of perturbations generated at set-up

    def params(self):
        return {
            "kind": "online", "n": self.n, "points": 1, "mode": "online",
            "rho_min_frac": self.rho_frac, "density": self.density,
            "gap_target": GAP_TARGET, "sizes": list(self.sizes),
            "stream_len": self.stream_len, "model_seed": MODEL_SEED,
            "start": "model covariance",
        }

    def setup(self, covpath, work, seed):
        """Initial solve plus every stream of perturbations.

        Each stream starts from the same solved state at the model
        covariance, so that the work of one stream does not depend on how
        many streams ran before it; the seed draws the samples x.
        """
        n = self.n
        sigma0 = model_covariance(n, self.density)
        rho = self.rho_frac * float(np.max(np.diagonal(sigma0)))
        t = GAP_TARGET / (2.0 * n * n)
        cc = covpath.corrector.CorrectorConfig(tol_residual=1e-9 * n)
        U0 = covpath.path.solve_at(sigma0, rho, t, cc).matrix
        rng = np.random.default_rng(seed)
        chol = np.linalg.cholesky(sigma0)
        streams = []
        for _ in range(self.pool_streams):
            sigmas, perturbations = [sigma0], []
            for k in range(self.stream_len):
                x = chol @ rng.standard_normal(n)
                d = np.outer(x, x) - sigmas[-1]
                c = self.sizes[k % len(self.sizes)] * np.linalg.norm(sigmas[-1]) / np.linalg.norm(d) * d
                perturbations.append(c)
                sigmas.append(sigmas[-1] + c)
            streams.append((sigmas, perturbations))
        return {"rho": rho, "t": t, "cc": cc, "U0": U0, "streams": streams}

    def run(self, covpath, work, inputs, seconds, tracer=None, installed=None):
        path = covpath.path
        Problem = covpath.barrier.Problem
        CovpathError = covpath.exceptions.CovpathError
        rho, t, cc = inputs["rho"], inputs["t"], inputs["cc"]
        update_s, stream_s, failed = [], [], 0
        notes = []
        scratch, traced = [], []
        start = time.perf_counter()
        while not stream_s or time.perf_counter() - start < seconds:
            if len(stream_s) == len(inputs["streams"]):
                notes.append("perturbation pool exhausted")
                break
            sigmas, perturbations = inputs["streams"][len(stream_s)]
            U = inputs["U0"]
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(installed(tracer))
                    stack.enter_context(tracer.operation(len(stream_s)))
                total, first = 0.0, time.perf_counter()
                for k, C in enumerate(perturbations):
                    problem = Problem(sigma=sigmas[k], rho=rho)
                    tick = time.perf_counter()
                    try:
                        U = path.run_online(problem, U, C, k=1, t=t, corrector_cfg=cc).matrix
                    except CovpathError:
                        U = path.solve_at(sigmas[k + 1], rho, t, cc).matrix
                        failed += 1
                    tock = time.perf_counter()
                    update_s.append((tock - tick, tick, tock))
                    total += tock - tick
            stream_s.append((total, first, time.perf_counter()))
            # After each stream, a from-scratch solve at the start covariance:
            # this workload's path_s, the cost an update competes with. Taken
            # across the whole run so that its median spans the run; with a
            # tracer, a traced one follows for the overhead ratio.
            scratch.append(self._scratch(path, sigmas[0], rho, t, cc))
            if tracer is not None:
                with installed(type(tracer)()):
                    traced.append(self._scratch(path, sigmas[0], rho, t, cc))

        # Gate: the last stream's final state against a from-scratch solve
        # at its final covariance.
        errors = []
        gap = float(np.linalg.norm(U - path.solve_at(sigmas[-1], rho, t, cc).matrix))
        if not gap <= FRO_GATE:
            errors.append(f"final state is {gap:.3e} from a from-scratch solve (bound {FRO_GATE})")
            failed = min(len(update_s), failed + 1)
        notes.append(f"{len(stream_s)} streams, {len(update_s)} updates, final gap {gap:.2e}")
        scratch_wall = sorted(w for w, _, _ in scratch)[len(scratch) // 2]
        for i, size in enumerate(self.sizes):
            times = sorted(w for w, _, _ in update_s[i::len(self.sizes)])
            notes.append(
                f"|C|/|sigma| = {size:g}: median {times[len(times) // 2]:.4f} s, "
                f"max {times[-1]:.4f} s over {len(times)} updates "
                f"(from-scratch solve: median {scratch_wall:.4f} s; wall seconds)"
            )
        return Outcome(
            update_s=update_s, stream_s=stream_s, path_s=scratch,
            attempted=len(update_s), failed=failed, gate_errors=errors, notes=notes,
        ), traced

    @staticmethod
    def _scratch(path, sigma, rho, t, cc):
        start = time.perf_counter()
        path.solve_at(sigma, rho, t, cc)
        end = time.perf_counter()
        return (end - start, start, end)


WORKLOADS = {
    w.name: w
    for w in (
        PathWorkload("dense-predictor", n=30, points=10, rho_min_frac=0.01, mode="predictor", matrices=True),
        PathWorkload("wide-scaling", n=100, points=4, rho_min_frac=0.5, mode="scaling", matrices=False),
        OnlineWorkload("online-stream", n=10),
    )
}

