"""Spans around calls into covpath's modules, installed from outside.

covpath's modules import their collaborators with ``from .x import y``, so
a call site looks its callee up in the *calling* module's namespace. Each
wrapper therefore goes on the attribute the caller reads (for example
``covpath.corrector.sub_inverse``, not ``covpath.symmat.sub_inverse``).
``installed`` swaps the wrappers in and always restores the originals.

A span is ``[name, start, end, parent_index, op]``. Spans stay in memory
and are written out once, when the run ends. A layer's self time is the
duration of its spans minus the part of each span its direct children
cover. Counts are taken at the same boundaries, from call arguments and
return values, so that ratios are measured where the work happens.
"""

import inspect
import math
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT = "bench.op"


class Tracer:
    """In-memory span recorder plus counters, for one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.fired = Counter()
        self.op = None

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def operation(self, op):
        """Root span of one benchmark operation."""
        self.op = op
        idx = self.open(ROOT)
        try:
            yield
        finally:
            self.close(idx)
            self.op = None

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)


def self_times(spans):
    """Total self time per span name: duration minus direct-children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals = Counter()
    for idx, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        totals[name] += (end - start) - covered
    return totals


# --------------------------------------------------------------------------
# Counts taken from arguments and return values at the wrapped boundaries.
# Each hook receives the tracer, the bound call arguments and the result.
# --------------------------------------------------------------------------

F64 = 8


def _row_counts(tr, a, result):
    passes = int(result[1])
    m = a["u"].shape[0]
    tr.counts["kernels.inner_passes"] += passes
    tr.counts["kernels.coord_solves"] += passes * m
    tr.counts["kernels.capped"] += passes == a["max_passes"]


def _bytes(kind):
    # Computed, not measured: bytes of float64 matrix data each call reads
    # and writes, from the dimension alone.
    def hook(tr, a, result):
        n = next(v for v in a.values() if hasattr(v, "shape")).shape[0]
        per_call = {
            "sub_inverse": 3 * (n - 1) ** 2,  # read block, outer, write result
            "swm": 5 * n * n,  # read inv, two outers, subtract, symmetrize
            "square": 3 * n * n,  # factor, solve against I, symmetrize
        }[kind]
        tr.counts["symmat.bytes_computed"] += per_call * F64
    return hook


def _corrector_counts(tr, a, result):
    stats = result[1]
    tr.counts["corrector.sweeps"] += stats.sweeps
    tr.counts["corrector.row_updates"] += stats.row_updates
    tr.samples["corrector.inverse_drift"].append(stats.max_inverse_drift)
    if tr.inside("path.online"):
        tr.counts["path.online_mu_steps"] += 1


def _predictor_counts(tr, a, result):
    h, h_used = a["h"], result[1]
    if h == 0.0:
        return
    tr.counts["predictor.steps"] += 1
    tr.samples["predictor.step_frac"].append(h_used / h)
    tr.counts["predictor.halvings"] += round(math.log2(h / h_used))


def _cg_counts(tr, a, result):
    tr.counts["predictor.cg_iterations"] += result.iterations


def _online_try(tr, a, result):
    if tr.inside("path.online"):
        tr.counts["path.online_feasible"] += 1


def _path_points(tr, a, result):
    tr.counts["path.points"] += len(result.points)
    tr.samples["path.point_s"].extend(pt.wall_time for pt in result.points)


def _artifact_bytes(tr, a, result):
    out = a["out"]
    tr.counts["cli.artifact_bytes"] += sum(
        os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)
    )


# The row kernels may be compiled, so their argument names are spelled out.
ROW_ARGS = ("V_inv", "u", "w", "b", "c", "rho", "t", "tol", "max_passes", "guard")


def _wrap(tr, key, span, fn, hook=None, names=None):
    sig = inspect.signature(fn) if hook and names is None else None

    def wrapper(*args, **kwargs):
        tr.fired[key] += 1
        idx = tr.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if hook:
            if sig is None:
                arguments = dict(zip(names, args), **kwargs)
            else:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            hook(tr, arguments, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_row_solver(tr, key, orig):
    """``kernels.row_solver`` wrapper whose solvers are themselves timed."""

    def row_solver(*args, **kwargs):
        tr.fired[key] += 1
        solver = orig(*args, **kwargs)
        return _wrap(tr, "kernels.row", "kernels.row", solver, _row_counts, ROW_ARGS)

    row_solver.__wrapped__ = orig
    return row_solver


def targets():
    """(module, attribute, span name, count hook) for every wrapped call site."""
    from covpath import cli, corrector, data, kernels, path, predictor

    return [
        (corrector, "sub_inverse", "symmat.sub_inverse", _bytes("sub_inverse")),
        (corrector, "swm_update_inverse", "symmat.swm", _bytes("swm")),
        (corrector, "invert_pd", "symmat.refresh", _bytes("square")),
        (corrector, "pd_factor", "symmat.factor", _bytes("square")),
        (path, "pd_factor", "symmat.factor", _bytes("square")),
        (corrector, "multipliers", "corrector.residual", None),
        (path, "corrector_run", "corrector.run", _corrector_counts),
        (corrector, "feasible", "barrier.feasible", None),
        (predictor, "feasible", "barrier.feasible", None),
        (path, "feasible", "barrier.feasible", _online_try),
        (path, "scaling_warm_start", "barrier.warm_start", None),
        (path, "initial_point", "barrier.warm_start", None),
        (path, "dual_objective", "barrier.objectives", None),
        (path, "primal_objective", "barrier.objectives", None),
        (path, "predictor_step_detail", "predictor.step", _predictor_counts),
        (predictor, "cg_solve", "predictor.cg", _cg_counts),
        (path, "cg_solve", "predictor.cg", _cg_counts),
        (path, "run_path", "path.run", _path_points),
        (cli, "run_path", "path.run", _path_points),
        (path, "_retry_through_midpoint", "path.retry", None),
        (path, "run_online", "path.online", None),
        (path, "solve_at", "path.solve_at", None),
        (cli, "cmd_solve", "cli.solve", None),
        (cli, "_write_run_artifacts", "cli.artifacts", _artifact_bytes),
        (data, "load_covariance", "data.load", None),
        (kernels, "row_solver", None, None),
    ]


def target_keys():
    return {f"{mod.__name__}.{attr}" for mod, attr, _, _ in targets()}


@contextmanager
def installed(tr):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []
    try:
        for mod, attr, span, hook in targets():
            orig = getattr(mod, attr)
            key = f"{mod.__name__}.{attr}"
            if span is None:
                wrapped = _timed_row_solver(tr, key, orig)
            else:
                wrapped = _wrap(tr, key, span, orig, hook)
            saved.append((mod, attr, orig))
            setattr(mod, attr, wrapped)
        yield tr
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


# --------------------------------------------------------------------------
# Per-layer metrics: per traced operation unless the name says otherwise.
# --------------------------------------------------------------------------

LAYER_METRICS = [
    ("kernels.row_calls", "count"),
    ("kernels.row_s", "s"),
    ("kernels.inner_passes", "count"),
    ("kernels.coord_solves", "count"),
    ("kernels.capped_frac", "ratio"),
    ("symmat.sub_inverse_calls", "count"),
    ("symmat.sub_inverse_s", "s"),
    ("symmat.swm_calls", "count"),
    ("symmat.swm_s", "s"),
    ("symmat.refresh_calls", "count"),
    ("symmat.refresh_s", "s"),
    ("symmat.factor_calls", "count"),
    ("symmat.factor_s", "s"),
    ("symmat.bytes_computed", "bytes"),
    ("corrector.runs", "count"),
    ("corrector.sweeps", "count"),
    ("corrector.row_updates", "count"),
    ("corrector.self_s", "s"),
    ("corrector.residual_checks", "count"),
    ("corrector.residual_s", "s"),
    ("corrector.max_inverse_drift", "frobenius"),
    ("barrier.warm_start_s", "s"),
    ("barrier.feasible_calls", "count"),
    ("barrier.feasible_s", "s"),
    ("barrier.objectives_s", "s"),
    ("predictor.steps", "count"),
    ("predictor.cg_iterations", "count"),
    ("predictor.cg_s", "s"),
    ("predictor.self_s", "s"),
    ("predictor.step_frac_p50", "ratio"),
    ("predictor.halvings", "count"),
    ("path.points", "count"),
    ("path.point_s_p50", "s"),
    ("path.point_s_max", "s"),
    ("path.retries", "count"),
    ("path.self_s", "s"),
    ("path.online_mu_steps", "count"),
    ("path.online_tries", "count"),
    ("cli.self_s", "s"),
    ("cli.artifacts_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("data.load_s", "s"),
    ("trace_overhead_frac", "ratio"),
]


def layer_metrics(tr, traced_s, untraced_s):
    """Per-layer metrics from a finished traced run.

    ``traced_s``/``untraced_s`` are the matched operation times (the
    workload's ``path_s`` with tracing on and off) for the overhead ratio.
    """
    ops = max(1, sum(1 for s in tr.spans if s[0] == ROOT))
    self_s = self_times(tr.spans)
    calls = Counter(s[0] for s in tr.spans)
    c = tr.counts

    def per_op(v):
        return v / ops

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    online_calls = calls["path.online"]
    values = {
        "kernels.row_calls": per_op(calls["kernels.row"]),
        "kernels.row_s": per_op(self_s["kernels.row"]),
        "kernels.inner_passes": per_op(c["kernels.inner_passes"]),
        "kernels.coord_solves": per_op(c["kernels.coord_solves"]),
        "kernels.capped_frac": c["kernels.capped"] / max(1, calls["kernels.row"]),
        "corrector.runs": per_op(calls["corrector.run"]),
        "corrector.sweeps": per_op(c["corrector.sweeps"]),
        "corrector.row_updates": per_op(c["corrector.row_updates"]),
        "corrector.self_s": per_op(self_s["corrector.run"]),
        "corrector.residual_checks": per_op(calls["corrector.residual"]),
        "corrector.residual_s": per_op(self_s["corrector.residual"]),
        "corrector.max_inverse_drift": max(tr.samples["corrector.inverse_drift"], default=0.0),
        "barrier.warm_start_s": per_op(self_s["barrier.warm_start"]),
        "barrier.feasible_calls": per_op(calls["barrier.feasible"]),
        "barrier.feasible_s": per_op(self_s["barrier.feasible"]),
        "barrier.objectives_s": per_op(self_s["barrier.objectives"]),
        "predictor.steps": per_op(c["predictor.steps"]),
        "predictor.cg_iterations": per_op(c["predictor.cg_iterations"]),
        "predictor.cg_s": per_op(self_s["predictor.cg"]),
        "predictor.self_s": per_op(self_s["predictor.step"]),
        "predictor.step_frac_p50": med(tr.samples["predictor.step_frac"]),
        "predictor.halvings": per_op(c["predictor.halvings"]),
        "path.points": per_op(c["path.points"]),
        "path.point_s_p50": med(tr.samples["path.point_s"]),
        "path.point_s_max": max(tr.samples["path.point_s"], default=0.0),
        "path.retries": per_op(calls["path.retry"]),
        "path.self_s": per_op(
            sum(self_s[k] for k in ("path.run", "path.online", "path.solve_at", "path.retry"))
        ),
        "path.online_mu_steps": per_op(c["path.online_mu_steps"]),
        # Every online call makes one feasibility test of its start point;
        # the rest are tests of candidate mu steps.
        "path.online_tries": per_op(c["path.online_feasible"] - online_calls),
        "cli.self_s": per_op(self_s["cli.solve"]),
        "cli.artifacts_s": per_op(self_s["cli.artifacts"]),
        "cli.artifact_bytes": per_op(c["cli.artifact_bytes"]),
        "data.load_s": per_op(self_s["data.load"]),
        "symmat.bytes_computed": per_op(c["symmat.bytes_computed"]),
        "trace_overhead_frac": traced_s / untraced_s - 1.0,
    }
    for part in ("sub_inverse", "swm", "refresh", "factor"):
        values[f"symmat.{part}_calls"] = per_op(calls[f"symmat.{part}"])
        values[f"symmat.{part}_s"] = per_op(self_s[f"symmat.{part}"])
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
