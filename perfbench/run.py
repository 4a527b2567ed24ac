#!/usr/bin/env python3
"""covpath benchmark: end-to-end times, or a traced per-layer split.

    python3 perfbench/run.py --workload dense-predictor --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) against the
covpath sources in ``src/`` of the checkout this file sits in, for about
``--seconds`` seconds of timed work. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
operations and reports the per-layer metrics of ``tracing.py``. Every
operation is gated on a correctness check after the timed region. The last
line of standard output is one JSON object; the exit code is 0 only when
every gate passed. End-to-end times are in reference seconds: wall seconds
scaled by the speed of the core the run pins itself to (``speed.py``).
Scratch files go to ``.perfbench_work/`` and result and span files to
``.perfbench_out/``, both in the checkout root.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One caller in one process: BLAS gets one thread (nproc here is 2). Set
# before covpath, and so numpy, is imported; reported in the env block.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
NPROC = len(os.sched_getaffinity(0))  # before the run pins itself to one core

END_TO_END = [
    ("path_s", "s"),
    ("online_update_p50_s", "s"),
    ("online_stream_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def import_covpath():
    """Import covpath from this checkout's ``src``; exit 2 if it is not there."""
    sys.path.insert(0, str(SRC))
    import covpath
    import covpath.cli  # noqa: F401

    if Path(covpath.__file__).resolve().parent != (SRC / "covpath").resolve():
        print(f"error: imported covpath from {covpath.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return covpath


def environment(covpath, args, workload):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": covpath.kernels.DEFAULT_BACKEND,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        **workload.params(),
    }


def timed_setup(covpath, workload, work, seed):
    """Set up ``SETUP_REPEATS`` times; each set-up imports covpath in a fresh
    interpreter and builds the inputs. Returns the inputs and the timed
    set-ups, plus numba warm-up when numba runs."""
    importer = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import covpath.cli"]
    timed = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(importer, check=True)
        inputs = workload.setup(covpath, work, seed)
        if covpath.kernels.DEFAULT_BACKEND == "numba":
            covpath.kernels.warm_up()
        end = time.perf_counter()
        timed.append((end - start, start, end))
    return inputs, timed


def report_line(name, value, unit, note=""):
    print(f"{name:<28} {value:>14.6g} {unit:<6} {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "covpath" / "__init__.py").is_file():
        print(f"error: no covpath sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    from speed import SpeedSampler

    # A terminated run still stops its helper and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    sampler = SpeedSampler(work / "speed.log")
    try:
        covpath = import_covpath()
        import tracing
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        workload = WORKLOADS[args.workload]
        inputs, setups = timed_setup(covpath, workload, work, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        outcome, traced = workload.run(
            covpath, work, inputs, args.seconds, tracer=tracer, installed=tracing.installed
        )
    finally:
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = environment(covpath, args, workload)
    med = statistics.median
    ref = sampler.reference  # wall seconds to reference seconds, see speed.py
    e2e = {
        "path_s": med(ref(outcome.path_s)),
        "online_update_p50_s": med(ref(outcome.update_s)),
        "online_stream_s": med(ref(outcome.stream_s)),
        "setup_s": med(ref(setups)),
        "peak_rss_mb": peak_rss_mb,
    }
    unit = dict(END_TO_END)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    report_line("path_s", e2e["path_s"], "s", f"median of {len(outcome.path_s)} full solves")
    report_line("online_update_p50_s", e2e["online_update_p50_s"], "s",
                f"median of {len(outcome.update_s)} updates")
    report_line("online_stream_s", e2e["online_stream_s"], "s",
                f"median of {len(outcome.stream_s)} sequences")
    report_line("setup_s", e2e["setup_s"], "s",
                f"median of {SETUP_REPEATS} set-ups (fresh-interpreter import + inputs)")
    report_line("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss")
    report_line("failed_frac", outcome.failed / max(1, outcome.attempted), "ratio",
                f"{outcome.failed}/{outcome.attempted} operations")
    wall_path_s = med(w for w, _, _ in outcome.path_s)
    report_line("wall path_s", wall_path_s, "s", "path_s in wall seconds")
    report_line("speed", e2e["path_s"] / wall_path_s, "ratio",
                f"reference s per wall s; {len(sampler.loops)} speed samples")
    for note in outcome.notes:
        print(f"note: {note}")
    for err in outcome.gate_errors:
        print(f"GATE FAILED: {err}")

    if args.trace:
        metrics = tracing.layer_metrics(tracer, med(ref(traced)), e2e["path_s"])
        for name, m in metrics.items():
            report_line(name, m["value"], m["unit"])
        op_s = statistics.mean(s[2] - s[1] for s in tracer.spans if s[0] == tracing.ROOT)
        report_line("kernels.row_s share", metrics["kernels.row_s"]["value"] / op_s, "ratio",
                    "of one traced operation (wall seconds)")
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans},
            separators=(",", ":"),
        ))
        print(f"spans: {len(tracer.spans)} -> {spans_path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit[name]} for name, _ in END_TO_END}

    print("env " + json.dumps(env, sort_keys=True))
    correct = not outcome.gate_errors
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    record = dict(
        result, env=env, end_to_end=e2e, notes=outcome.notes, gate_errors=outcome.gate_errors,
        timed={"path_s": outcome.path_s, "stream_s": outcome.stream_s, "traced_s": traced,
               "setup_s": setups},
        speed_samples=list(zip(sampler.times, sampler.loops)),
    )
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
