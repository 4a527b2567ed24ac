"""Harness tests on tiny instances: python3 -m pytest perfbench"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import covpath  # noqa: E402
import covpath.cli  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from covpath.corrector import CorrectorConfig  # noqa: E402
from covpath.path import PathConfig  # noqa: E402


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],  # grandchild: covers part of "a", not of "op"
        ["a", 5.0, 6.0, 0, 0],
        ["c", 5.5, 7.0, 0, 0],  # overlaps the second "a": counted once
    ]
    got = tracing.self_times(spans)
    assert got["op"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert got["a"] == pytest.approx(2.0 + 1.0)
    assert got["b"] == pytest.approx(1.0)
    assert got["c"] == pytest.approx(1.5)


def _exercise_every_layer(tmp_path, tr):
    sigma = workloads.sample_covariance(
        workloads.model_covariance(6, 0.3), np.random.default_rng(0), 120
    )
    csv = tmp_path / "sigma.csv"
    np.savetxt(csv, sigma, delimiter=",", fmt="%.17g")
    with tr.operation(0):
        argv = ["solve", "--sigma", str(csv), "--mode", "predictor", "--points", "4",
                "--output", str(tmp_path / "run")]
        with workloads.quiet():
            assert covpath.cli.main(argv) == 0
    with tr.operation(1):
        t = 1e-3 / 72.0
        rho = 0.3 * float(np.max(np.diagonal(sigma)))
        U = covpath.path.solve_at(sigma, rho, t).matrix
        C = 1e-3 * (np.outer(sigma[0], sigma[0]) - sigma)
        covpath.path.run_online(covpath.barrier.Problem(sigma=sigma, rho=rho), U, C, k=1, t=t)
    with tr.operation(2):
        # A zero sweep cap fails every corrector run, so the midpoint retry
        # runs and the path comes back truncated.
        cfg = PathConfig(points=2, corrector=CorrectorConfig(max_sweeps=0))
        assert covpath.path.run_path(sigma, cfg).truncated


def test_every_wrapper_fires_and_originals_come_back(tmp_path):
    before = {(mod.__name__, attr): getattr(mod, attr) for mod, attr, _, _ in tracing.targets()}
    tr = tracing.Tracer()
    with tracing.installed(tr):
        _exercise_every_layer(tmp_path, tr)
    assert tracing.target_keys() <= set(tr.fired), tracing.target_keys() - set(tr.fired)
    for mod, attr, _, _ in tracing.targets():
        assert getattr(mod, attr) is before[(mod.__name__, attr)], f"{mod.__name__}.{attr}"

    metrics = tracing.layer_metrics(tr, 1.1, 1.0)
    assert metrics["kernels.row_calls"]["value"] > 0
    assert metrics["predictor.steps"]["value"] > 0
    assert metrics["path.online_mu_steps"]["value"] > 0
    assert metrics["path.retries"]["value"] > 0
    assert metrics["cli.artifact_bytes"]["value"] > 0
    assert metrics["trace_overhead_frac"]["value"] == pytest.approx(0.1)


def test_originals_restored_when_the_traced_call_raises():
    before = covpath.path.corrector_run
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    assert covpath.path.corrector_run is before


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_tiny_path_workload_passes_its_gates(tmp_path):
    wl = workloads.PathWorkload("tiny", n=6, points=3, rho_min_frac=0.1, mode="predictor",
                                matrices=True, density=0.3, min_ops=2)
    outcome, _ = wl.run(covpath, tmp_path, wl.setup(covpath, tmp_path, 0), 0.0)
    assert outcome.gate_errors == []
    assert outcome.attempted == 4 * 3  # two instances, each repeated for the sha gate
    assert outcome.failed == 0


def test_failed_gate_is_counted_not_raised(tmp_path):
    wl = workloads.PathWorkload("tiny", n=6, points=3, rho_min_frac=0.1, mode="scaling",
                                matrices=False, density=0.3)
    errors = []
    assert wl._gate(covpath.cli, tmp_path / "missing", 3, errors) is True
    assert errors and "exited 3" in errors[0]


def test_tiny_online_workload_meets_the_scratch_bound():
    wl = workloads.OnlineWorkload("tiny", n=6, density=0.3, pool_streams=2)
    outcome, _ = wl.run(covpath, None, wl.setup(covpath, None, 0), 0.0)
    assert outcome.gate_errors == []
    assert outcome.attempted == wl.stream_len


def test_reference_seconds_use_the_loop_times_around_the_interval():
    s = speed.SpeedSampler.__new__(speed.SpeedSampler)
    s.times = [0.0, 1.0, 2.0, 3.0]
    s.loops = [speed.NOMINAL_S, speed.NOMINAL_S, 2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S]
    assert s.factor(0.0, 0.5) == pytest.approx(1.0)
    assert s.reference([(1.0, 2.5, 3.0)]) == pytest.approx([0.5])  # core at half speed


def test_speed_helper_samples_and_stops(tmp_path):
    affinity = os.sched_getaffinity(0)
    try:
        sampler = speed.SpeedSampler(tmp_path / "speed.log")
        time.sleep(10 * speed.PERIOD_S)
        sampler.stop()
    finally:
        os.sched_setaffinity(0, affinity)
    assert sampler.proc.poll() is not None
    assert len(sampler.loops) >= 2 and all(d > 0 for d in sampler.loops)
