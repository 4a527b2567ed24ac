import json

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import covpath.path
from covpath import cli
from covpath.cli import POINT_FIELDS, main
from covpath.corrector import CorrectorConfig
from covpath.data import (
    GeneratorSpec,
    build_state,
    build_summary,
    dump_json,
    generate_problem,
    load_covariance,
    load_json,
    load_matrix,
    write_matrix,
)
from covpath.exceptions import NumericalBreakdown
from covpath.path import PathConfig, cardinality, default_rho_grid, run_path, support_mask


def run_cli(*args):
    return main([str(a) for a in args])


# Symmetric with a positive diagonal but indefinite (eigenvalues -0.8, 1.9,
# 1.9): below some rho no feasible point exists.
INDEFINITE = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])


@pytest.fixture()
def diag3_csv(tmp_path):
    f = tmp_path / "diag3.csv"
    write_matrix(f, np.diag([1.0, 2.0, 3.0]))
    return f


class TestSolve:
    def test_diagonal_instance(self, tmp_path, diag3_csv):
        out = tmp_path / "run"
        code = run_cli(
            "solve", "--sigma", diag3_csv, "--points", 5, "--gap-target", 1e-3,
            "--output", out,
        )
        assert code == 0
        summary = load_json(out / "summary.json")
        assert len(summary["points"]) == 5
        assert all(pt["cardinality"] == 3 for pt in summary["points"])
        assert (out / "timings.json").exists()
        assert (out / "state.json").exists()
        assert (out / "plot_cardinality.csv").exists()
        assert (out / "plot_cg.csv").exists()
        for idx in range(5):
            X = load_matrix(out / f"X_{idx:03d}.csv")
            off = X - np.diag(np.diag(X))
            assert np.abs(off).max() <= 1e-4 * np.abs(X).max()

    def test_generated_instance_cardinality_monotone(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "solve", "--gen", "n=12,density=0.15,seed=1", "--points", 8,
            "--output", out, "--no-matrices",
        )
        assert code == 0
        summary = load_json(out / "summary.json")
        cards = [pt["cardinality"] for pt in summary["points"]]
        # grid descends in rho, so cardinality may only grow along it
        assert all(b >= a for a, b in zip(cards, cards[1:]))
        assert not (out / "X_000.csv").exists()

    def test_modes_agree_cli_level(self, tmp_path):
        outs = {}
        for mode in ("scaling", "predictor"):
            out = tmp_path / mode
            code = run_cli(
                "solve", "--gen", "n=8,density=0.3,seed=2", "--points", 5,
                "--mode", mode, "--output", out,
            )
            assert code == 0
            outs[mode] = [load_matrix(out / f"X_{i:03d}.csv") for i in range(5)]
        tol = load_json(tmp_path / "scaling" / "summary.json")["config"]["tol_residual"]
        for a, b in zip(outs["scaling"], outs["predictor"]):
            assert np.linalg.norm(a - b) <= 2 * tol

    def test_determinism_byte_identical_summaries(self, tmp_path):
        args = ["solve", "--gen", "n=6,density=0.3,seed=9", "--points", 4]
        run_cli(*args, "--output", tmp_path / "a")
        run_cli(*args, "--output", tmp_path / "b")
        assert (tmp_path / "a" / "summary.json").read_bytes() == (
            tmp_path / "b" / "summary.json"
        ).read_bytes()

    @pytest.mark.parametrize("source, seed", [
        (("--gen", "n=10,seed=7"), 7),
        (("--gen", "n=10", "--seed", "5"), 5),
        (("--sigma", "diag3"), None),
    ], ids=["gen-seed-key", "gen-seed-flag", "sigma"])
    def test_summary_records_the_seed_once(self, tmp_path, diag3_csv, source, seed):
        # --seed is only the fallback of --gen's seed key; the instance
        # record holds the seed actually drawn, null when none was.
        args = [diag3_csv if arg == "diag3" else arg for arg in source]
        out = tmp_path / "run"
        assert run_cli("solve", *args, "--points", 3, "--output", out) == 0
        summary = load_json(out / "summary.json")
        assert summary["instance"]["seed"] == seed
        assert "seed" not in summary["config"]

    def test_missing_input_is_input_error(self, tmp_path):
        assert run_cli("solve", "--sigma", tmp_path / "nope.csv") == 2

    def test_asymmetric_input_is_input_error(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,0.9\n0.1,2\n")
        assert run_cli("solve", "--sigma", f) == 2

    def test_no_input_flag(self):
        assert run_cli("solve") == 2

    def test_indefinite_sigma_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "indef.csv"
        write_matrix(f, INDEFINITE)
        out = tmp_path / "run"
        assert run_cli("solve", "--sigma", f, "--output", out) == 2
        assert "positive semidefinite" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_sample_covariance_is_accepted(self, tmp_path):
        # m < n samples: PSD but singular; rounding can leave its smallest
        # eigenvalues slightly negative.
        for n, m in ((30, 10), (100, 20)):
            x = np.random.default_rng(n).standard_normal((m, n))
            x -= x.mean(axis=0)
            f = tmp_path / f"sigma{n}.csv"
            write_matrix(f, x.T @ x / m)
            sigma = load_covariance(f)
            assert abs(np.linalg.eigvalsh(sigma)[0]) <= 1e-12 * np.diagonal(sigma).max()

    @pytest.mark.parametrize("spec", [
        "n=6,densty=0.5,seed=1",
        "n=6,seed=1,seed=2",
        "n=6,density=0.3,density=0.3",
        "density=0.3,seed=1",
        "n=6,margin=nan",
    ])
    def test_bad_gen_spec_is_input_error(self, tmp_path, capsys, spec):
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", spec, "--points", 3, "--output", out) == 2
        assert "input error:" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_keys_map_to_generator_fields(self):
        assert cli._parse_gen_spec("n=6", 7) == GeneratorSpec(n=6, seed=7)
        assert cli._parse_gen_spec(" margin = 0.5,seed=2,n=6,density=0.3,", 7) == GeneratorSpec(
            n=6, density=0.3, seed=2, identity_shift_margin=0.5
        )

    @pytest.mark.parametrize("flag, value", [
        ("--rho-min-frac", "1"),
        ("--rho-min-frac", "-0.5"),
        ("--rho-min-frac", "nan"),
        ("--gap-target", "nan"),
        ("--gap-target", "-1"),
        ("--gap-target", "inf"),
    ])
    def test_bad_grid_or_barrier_weight_is_input_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "run"
        code = run_cli("solve", "--gen", "n=6,density=0.3,seed=1", "--points", 3,
                       flag, value, "--output", out)
        assert code == 2
        assert "input error:" in capsys.readouterr().err
        assert not out.exists()

    def test_command_replaced_after_first_call_is_the_one_run(self, tmp_path, monkeypatch):
        # The parser is built once per process; it must not pin the
        # command functions that existed when it was built.
        import covpath.cli as cli_mod

        assert run_cli("solve") == 2
        monkeypatch.setattr(cli_mod, "cmd_verify", lambda args: 7)
        assert run_cli("verify", tmp_path) == 7

    def test_zero_tol_outside_unit_interval_is_input_error(self, tmp_path, capsys):
        for zero_tol in ("-1", "1", "nan"):
            out = tmp_path / f"run{zero_tol}"
            code = run_cli("solve", "--gen", "n=8,seed=2", "--zero-tol", zero_tol,
                           "--points", 3, "--output", out)
            assert code == 2
            assert "zero_tol" in capsys.readouterr().err
            assert not out.exists()

    def test_partial_path_exit_code(self, tmp_path, monkeypatch):
        import covpath.cli as cli_mod
        from covpath.path import RegularizationPath, PathFailure

        def fake_run_path(sigma, cfg):
            return RegularizationPath(
                sigma=sigma, t=1e-5, mode="scaling", points=[], truncated=True,
                failure=PathFailure(rho=1.0, error="stalled"),
            )

        monkeypatch.setattr(cli_mod, "run_path", fake_run_path)
        out = tmp_path / "run"
        code = run_cli("solve", "--gen", "n=6,density=0.2,seed=1", "--output", out)
        assert code == 4
        assert load_json(out / "summary.json")["truncated"]


    def test_failing_grid_point_truncates_with_artifacts(self, tmp_path, monkeypatch):
        # Every corrector run below the third grid value breaks down, the
        # midpoint retry included. The run keeps the solved prefix.
        sigma = np.diag([1.0, 2.0, 3.0]) + 0.2
        f = tmp_path / "sigma.csv"
        write_matrix(f, sigma)
        third = default_rho_grid(sigma, 8, PathConfig.rho_min_frac)[2]
        corrector_run = covpath.path.corrector_run

        def broken(problem, *args):
            if problem.rho < third:
                raise NumericalBreakdown("injected breakdown")
            return corrector_run(problem, *args)

        monkeypatch.setattr(covpath.path, "corrector_run", broken)
        out = tmp_path / "run"
        assert run_cli("solve", "--sigma", f, "--points", 8, "--output", out) == 4
        summary = load_json(out / "summary.json")
        assert summary["truncated"]
        assert len(summary["points"]) == 3
        assert run_cli("verify", out) == 0

    def test_edges_are_the_upper_support_that_cardinality_counts(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=12,density=0.15,seed=1", "--points", 5,
                       "--output", out) == 0
        summary = load_json(out / "summary.json")
        zero_tol = summary["config"]["zero_tol"]
        for idx, pt in enumerate(summary["points"]):
            X = load_matrix(out / f"X_{idx:03d}.csv")
            mask = support_mask(X, zero_tol)
            lines = (out / f"edges_{idx:03d}.csv").read_text().split()
            edges = np.array([line.split(",") for line in lines], dtype=int).reshape(-1, 2)
            assert np.array_equal(edges, np.argwhere(np.triu(mask, 1)))
            assert cardinality(X, zero_tol) == pt["cardinality"] == np.count_nonzero(mask)
            assert pt["cardinality"] == np.count_nonzero(np.diag(mask)) + 2 * len(edges)

    def test_artifacts_are_savetxt_and_json_bytes(self, tmp_path):
        # Pins the artifact format: each CSV round-trips through load_matrix
        # to the bytes np.savetxt writes, each JSON file to json.dumps's.
        run = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=12,density=0.15,seed=1", "--points", 5,
                       "--mode", "predictor", "--output", run) == 0
        pert = tmp_path / "pert.csv"
        x = np.linspace(-1.0, 1.0, 12)
        write_matrix(pert, 1e-3 * np.outer(x, x))
        online = tmp_path / "online"
        assert run_cli("online", "--state", run / "state.json", "--perturbation", pert,
                       "--output", online) == 0
        ref = tmp_path / "ref.csv"
        csvs = sorted(run.glob("*.csv"))
        assert len(csvs) == 2 + 3 * 5
        for f in csvs:
            fmt = "%d" if f.name.startswith("edges_") else "%.17g"
            m = load_matrix(f) if f.stat().st_size else np.empty((0, 2))
            np.savetxt(ref, m, delimiter=",", fmt=fmt)
            assert f.read_bytes() == ref.read_bytes(), f.name
        jsons = [f for f in [*run.glob("*.json"), *online.glob("*.json")]
                 if f.name != "timings.json"]
        assert len(jsons) == 4
        for f in jsons:
            expected = json.dumps(load_json(f), sort_keys=True, separators=(",", ":"))
            assert f.read_text() == expected + "\n", f.name


class TestVerify:
    def test_verify_passes_on_emitted_run(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--output", out) == 0
        assert run_cli("verify", out) == 0

    def test_verify_detects_tampering(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--output", out) == 0
        summary = load_json(out / "summary.json")
        summary["points"][1]["dual_obj"] -= 1.0  # break weak duality
        (out / "summary.json").write_text(json.dumps(summary))
        assert run_cli("verify", out) == 3

    def test_verify_detects_matrix_corruption(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--output", out) == 0
        X = load_matrix(out / "X_002.csv")
        X[0, 1] = X[1, 0] = X[0, 1] + 0.5 * np.abs(X).max()
        write_matrix(out / "X_002.csv", X)
        assert run_cli("verify", out) == 3

    def test_residual_is_recomputed_from_the_saved_u(self, tmp_path):
        # Point 2 of this truncated run (cond 395, min slack 8e-7) is a valid
        # solution, but X = U^{-1} stored in float64 fixes U only to about
        # cond * eps, and the multipliers magnify that by t / slack^2: a
        # residual recomputed from the inverse of X moves past the 2*tol
        # bound under ulp-level changes of X. verify reads the saved U.
        # The CLI rejects this sigma at load, so the run is written here.
        result = run_path(INDEFINITE, PathConfig(points=8))
        assert result.truncated and len(result.points) == 3
        config = {
            "zero_tol": PathConfig.zero_tol,
            "tol_residual": CorrectorConfig().residual_tol(3),
        }
        meta = {"n": 3, "source": "indefinite", "seed": None}
        out = tmp_path / "run"
        cli._write_run_artifacts(out, result, build_summary(result, meta, config), True)
        X = load_matrix(out / "X_002.csv")
        rng = np.random.default_rng(12)
        for _ in range(20):
            ulps = np.triu(rng.integers(-2, 3, X.shape))
            ulps = ulps + np.triu(ulps, 1).T
            write_matrix(out / "X_002.csv", X * (1.0 + ulps * np.finfo(float).eps))
            assert run_cli("verify", out) == 0

    def test_verify_detects_u_corruption(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--output", out) == 0
        U = load_matrix(out / "U_001.csv")
        write_matrix(out / "U_001.csv", U + 1e-3 * np.eye(7))
        assert run_cli("verify", out) == 3
        (out / "U_001.csv").unlink()
        assert run_cli("verify", out) == 3

    def test_missing_state_fails_a_run_with_points(self, tmp_path, capsys):
        # The matrix checks need state.json's sigma: without it, a run with
        # points must not pass, whatever its matrices hold.
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=8,density=0.3,seed=2", "--points", 3,
                       "--output", out) == 0
        (out / "state.json").unlink()
        write_matrix(out / "X_001.csv", np.eye(2))
        capsys.readouterr()
        assert run_cli("verify", out) == 3
        assert "state.json is missing" in capsys.readouterr().out

    def test_run_without_points_needs_no_state(self, tmp_path, monkeypatch):
        # A path truncated before its first point writes no state.json.
        def no_points(sigma, cfg):
            return covpath.path.RegularizationPath(
                sigma=sigma, t=1e-5, mode="scaling", truncated=True,
                failure=covpath.path.PathFailure(rho=1.0, error="stalled"),
            )

        monkeypatch.setattr(cli, "run_path", no_points)
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=6,density=0.2,seed=1", "--output", out) == 4
        assert not (out / "state.json").exists()
        assert run_cli("verify", out) == 0

    def test_missing_summary_is_input_error(self, tmp_path, capsys):
        assert run_cli("verify", tmp_path) == 2
        assert "input error:" in capsys.readouterr().err

    def test_summary_without_points_or_config_is_input_error(self, tmp_path, capsys):
        summary = {"schema": "covpath.summary/1"}
        config = {"tol_residual": 1e-6, "zero_tol": 1e-4}
        payloads = (
            summary,
            dict(summary, points=[]),
            dict(summary, points=[], config=[]),
            [1, 2],
            dict(summary, config=config, points=[{"rho": 1.0}]),
            dict(summary, config=config, points=[1, 2]),
            dict(summary, config=config, points=5),
            dict(summary, config=config, points=[dict(dict.fromkeys(POINT_FIELDS, 0), rho=None)]),
        )
        for payload in payloads:
            (tmp_path / "summary.json").write_text(json.dumps(payload))
            assert run_cli("verify", tmp_path) == 2
            assert "input error:" in capsys.readouterr().err


class TestOnlineCmd:
    def _solved_state(self, tmp_path):
        out = tmp_path / "base"
        assert run_cli("solve", "--gen", "n=6,density=0.3,seed=5", "--points", 6,
                       "--output", out) == 0
        return out / "state.json"

    def test_zero_perturbation_returns_state(self, tmp_path):
        state_path = self._solved_state(tmp_path)
        zero = tmp_path / "zero.csv"
        write_matrix(zero, np.zeros((6, 6)))
        out = tmp_path / "online"
        assert run_cli("online", "--state", state_path, "--perturbation", zero,
                       "--output", out) == 0
        before = np.asarray(load_json(state_path)["U"])
        after = np.asarray(load_json(out / "state.json")["U"])
        assert np.array_equal(before, after)

    def test_small_perturbation_with_verify(self, tmp_path):
        state_path = self._solved_state(tmp_path)
        state = load_json(state_path)
        sigma = np.asarray(state["sigma"])
        rng = np.random.default_rng(10)
        C = rng.standard_normal((6, 6))
        C = 0.5 * (C + C.T)
        C *= 1e-3 * np.linalg.norm(sigma) / np.linalg.norm(C)
        pert = tmp_path / "c.csv"
        write_matrix(pert, C)
        out = tmp_path / "online"
        assert run_cli("online", "--state", state_path, "--perturbation", pert,
                       "--k", 1, "--verify", "--output", out) == 0
        report = load_json(out / "online_report.json")
        assert report["k"] == 1
        assert report["verify_frobenius_discrepancy"] <= 1e-6

    def test_shape_mismatch_is_input_error(self, tmp_path):
        state_path = self._solved_state(tmp_path)
        pert = tmp_path / "c.csv"
        write_matrix(pert, np.zeros((4, 4)))
        assert run_cli("online", "--state", state_path, "--perturbation", pert) == 2

    def test_state_without_u_is_input_error(self, tmp_path, capsys):
        state = build_state(np.eye(3), np.eye(3), 0.5, 1e-4)
        del state["U"]
        state_path = tmp_path / "state.json"
        dump_json(state_path, state)
        pert = tmp_path / "c.csv"
        write_matrix(pert, np.zeros((3, 3)))
        assert run_cli("online", "--state", state_path, "--perturbation", pert) == 2
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, scale", [("t", 1e-3), ("t", 0.0), ("rho", 1e-3), ("U", 1e-3)])
    def test_bad_state_is_input_error(self, tmp_path, capsys, key, scale):
        # A NaN t or rho, or a 5x5 U for the 6x6 sigma. A zero perturbation
        # (scale 0) returns the state without a solve.
        state_path = self._solved_state(tmp_path)
        state = load_json(state_path)
        state[key] = [row[:5] for row in state["U"][:5]] if key == "U" else float("nan")
        state_path.write_text(json.dumps(state))
        pert = tmp_path / "c.csv"
        write_matrix(pert, scale * np.eye(6))
        out = tmp_path / "online"
        assert run_cli("online", "--state", state_path, "--perturbation", pert,
                       "--output", out) == 2
        assert "input error:" in capsys.readouterr().err
        assert not out.exists()

    def test_state_not_an_object_is_input_error(self, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        state_path.write_text("[1, 2]\n")
        pert = tmp_path / "c.csv"
        write_matrix(pert, np.zeros((3, 3)))
        assert run_cli("online", "--state", state_path, "--perturbation", pert) == 2
        assert "input error:" in capsys.readouterr().err


class TestBench:
    def test_small_bench_report_schema(self, tmp_path):
        import jsonschema
        from importlib import resources

        out = tmp_path / "bench"
        # At density 0.3 the generated instances have 2 (n = 6) and 10
        # (n = 10) off-diagonal pairs; at the default they are diagonal.
        code = run_cli("bench", "--sizes", "6,10", "--lengths", "3", "--repeats", 1,
                       "--density", 0.3, "--output", out)
        assert code == 0
        report = load_json(out / "bench_report.json")
        schema = json.loads(
            resources.files("covpath.schemas").joinpath("bench_report.schema.json").read_text()
        )
        jsonschema.validate(report, schema)
        assert len(report["cells"]) == 2
        for cell in report["cells"]:
            assert cell["median_wall_time"] > 0
            assert len(cell["newton_steps"]) == len(cell["cg_iterations"]) == 1
            # At least one step per point whose graph |sigma_ij| >= rho has
            # a component of two or more indices; the others are solved in
            # closed form.
            spec = GeneratorSpec(
                n=cell["n"], density=cell["density"], seed=report["seed"] + cell["n"]
            )
            sigma, _ = generate_problem(spec)
            coupled = 0
            for rho in default_rho_grid(sigma, cell["points"], PathConfig.rho_min_frac):
                _, labels = connected_components(np.abs(sigma) >= rho, directed=False)
                coupled += int(np.bincount(labels).max() >= 2)
            assert coupled > 0
            assert cell["newton_steps"][0] >= coupled
            assert cell["cg_iterations"][0] >= cell["newton_steps"][0]
