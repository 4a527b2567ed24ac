import json
import statistics

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import covpath.path
from covpath import cli
from covpath.barrier import Problem, gap_bound
from covpath.cli import POINT_FIELDS, main
from covpath.corrector import CorrectorConfig
from covpath.data import (
    SUMMARY_SCHEMA,
    GeneratorSpec,
    build_state,
    build_summary,
    dump_json,
    generate_problem,
    load_covariance,
    load_json,
    load_matrix,
    load_perturbation,
    state_arrays,
    write_csv,
)
from covpath.exceptions import NumericalBreakdown
from covpath.path import (
    PathConfig, cardinality, default_rho_grid, run_online, run_path, support_mask
)


def run_cli(*args):
    return main([str(a) for a in args])


# Symmetric with a positive diagonal but indefinite (eigenvalues -0.8, 1.9,
# 1.9): below some rho no feasible point exists.
INDEFINITE = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])


@pytest.fixture()
def diag3_csv(tmp_path):
    f = tmp_path / "diag3.csv"
    write_csv(f, np.diag([1.0, 2.0, 3.0]))
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
        assert (out / "edges.csv").read_text() == ""
        stack = np.load(out / "X.npy")
        assert stack.shape == (5, 3, 3)
        for X in stack:
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
        assert not (out / "U.npy").exists() and not (out / "X.npy").exists()

    def test_modes_agree_cli_level(self, tmp_path):
        outs = {}
        for mode in ("scaling", "predictor"):
            out = tmp_path / mode
            code = run_cli(
                "solve", "--gen", "n=8,density=0.3,seed=2", "--points", 5,
                "--mode", mode, "--output", out,
            )
            assert code == 0
            outs[mode] = np.load(out / "X.npy")
            assert outs[mode].shape == (5, 8, 8)
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
        (("--gen", "n=10"), 0),
        (("--sigma", "diag3"), None),
    ], ids=["gen-seed-key", "gen-default-seed", "sigma"])
    def test_summary_records_the_seed_once(self, tmp_path, diag3_csv, source, seed):
        # The instance record holds the seed actually drawn (GeneratorSpec's
        # default when --gen names none), null when none was.
        args = [diag3_csv if arg == "diag3" else arg for arg in source]
        out = tmp_path / "run"
        assert run_cli("solve", *args, "--points", 3, "--output", out) == 0
        summary = load_json(out / "summary.json")
        assert summary["instance"]["seed"] == seed
        assert "seed" not in summary["config"]

    def test_missing_input_is_input_error(self, tmp_path):
        assert run_cli("solve", "--sigma", tmp_path / "nope.csv") == 2

    @pytest.mark.parametrize("flag", ["--sigma", "--samples"])
    def test_empty_csv_is_input_error_naming_the_file(self, tmp_path, capsys, flag):
        f = tmp_path / "empty.csv"
        f.write_text("")
        assert run_cli("solve", flag, f, "--output", tmp_path / "run") == 2
        err = capsys.readouterr().err
        assert f"input error: {f}: no data" in err
        assert "UserWarning" not in err

    def test_asymmetric_input_is_input_error(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,0.9\n0.1,2\n")
        assert run_cli("solve", "--sigma", f) == 2

    def test_no_input_flag(self):
        assert run_cli("solve") == 2

    def test_indefinite_sigma_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "indef.csv"
        write_csv(f, INDEFINITE)
        out = tmp_path / "run"
        assert run_cli("solve", "--sigma", f, "--output", out) == 2
        assert "positive semidefinite" in capsys.readouterr().err
        assert not out.exists()

    def test_samples_input(self, tmp_path):
        # 3n samples drawn from a generated covariance: the solve runs on
        # their covariance and its artifacts verify.
        n = 6
        sigma, _ = generate_problem(GeneratorSpec(n=n, density=0.3, seed=4))
        x = np.random.default_rng(4).standard_normal((3 * n, n)) @ np.linalg.cholesky(sigma).T
        f = tmp_path / "samples.csv"
        write_csv(f, x)
        out = tmp_path / "run"
        assert run_cli("solve", "--samples", f, "--points", 4, "--output", out) == 0
        summary = load_json(out / "summary.json")
        assert summary["instance"]["source"].startswith("samples:")
        assert len(summary["points"]) == 4
        assert run_cli("verify", out) == 0

    def test_singular_sample_covariance_is_accepted(self, tmp_path):
        # m < n samples: PSD but singular; rounding can leave its smallest
        # eigenvalues slightly negative.
        for n, m in ((30, 10), (100, 20)):
            x = np.random.default_rng(n).standard_normal((m, n))
            x -= x.mean(axis=0)
            f = tmp_path / f"sigma{n}.csv"
            write_csv(f, x.T @ x / m)
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
        assert cli._parse_gen_spec("n=6") == GeneratorSpec(n=6)
        assert cli._parse_gen_spec(" margin = 0.5,seed=2,n=6,density=0.3,") == GeneratorSpec(
            n=6, density=0.3, seed=2, identity_shift_margin=0.5
        )
        # The seed is --gen's key alone; solve has no --seed flag.
        with pytest.raises(SystemExit) as exc:
            run_cli("solve", "--gen", "n=6", "--seed", 5)
        assert exc.value.code == 2

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
                sigma=sigma, t=1e-5, points=[], failure=PathFailure(rho=1.0, error="stalled")
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
        write_csv(f, sigma)
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
        # The stacks hold the three solved points.
        assert np.load(out / "U.npy").shape == np.load(out / "X.npy").shape == (3, 3, 3)
        assert run_cli("verify", out) == 0

    def test_edges_are_the_upper_support_that_cardinality_counts(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=12,density=0.15,seed=1", "--points", 5,
                       "--output", out) == 0
        summary = load_json(out / "summary.json")
        zero_tol = summary["config"]["zero_tol"]
        stack = np.load(out / "X.npy")
        lines = (out / "edges.csv").read_text().split()
        rows = np.array([line.split(",") for line in lines], dtype=int).reshape(-1, 3)
        assert np.all(np.diff(rows[:, 0]) >= 0)
        assert set(rows[:, 0]) <= set(range(5))
        for idx, pt in enumerate(summary["points"]):
            X = stack[idx]
            mask = support_mask(X, zero_tol)
            edges = rows[rows[:, 0] == idx, 1:]
            assert np.array_equal(edges, np.argwhere(np.triu(mask, 1)))
            assert cardinality(X, zero_tol) == pt["cardinality"] == np.count_nonzero(mask)
            assert pt["cardinality"] == np.count_nonzero(np.diag(mask)) + 2 * len(edges)

    def test_artifacts_are_savetxt_and_json_bytes(self, tmp_path):
        # Pins the artifact format: each CSV round-trips through load_matrix
        # to the bytes np.savetxt writes, each .npy stack through np.load to
        # np.save's, each JSON file to json.dumps's.
        run = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=12,density=0.15,seed=1", "--points", 5,
                       "--mode", "predictor", "--output", run) == 0
        pert = tmp_path / "pert.csv"
        x = np.linspace(-1.0, 1.0, 12)
        write_csv(pert, 1e-3 * np.outer(x, x))
        online = tmp_path / "online"
        assert run_cli("online", "--state", run / "state.json", "--perturbation", pert,
                       "--output", online) == 0
        ref = tmp_path / "ref.csv"
        csvs = sorted(run.glob("*.csv"))
        assert len(csvs) == 2 + 1
        for f in csvs:
            fmt = "%d" if f.name == "edges.csv" else "%.17g"
            m = load_matrix(f) if f.stat().st_size else np.empty((0, 2))
            np.savetxt(ref, m, delimiter=",", fmt=fmt)
            assert f.read_bytes() == ref.read_bytes(), f.name
        stacks = sorted(run.glob("*.npy"))
        assert [f.name for f in stacks] == ["U.npy", "X.npy"]
        for f in stacks:
            m = np.load(f)
            assert m.shape == (5, 12, 12) and m.dtype == np.dtype("<f8")
            np.save(tmp_path / "ref.npy", m)
            assert f.read_bytes() == (tmp_path / "ref.npy").read_bytes(), f.name
        jsons = [f for f in [*run.glob("*.json"), *online.glob("*.json")]
                 if f.name != "timings.json"]
        assert len(jsons) == 4
        for f in jsons:
            expected = json.dumps(load_json(f), sort_keys=True, separators=(",", ":"))
            assert f.read_text() == expected + "\n", f.name

    @pytest.mark.parametrize("earlier, flags, names", [
        (None, (), ["U.npy", "X.npy", "edges.csv", "plot_cardinality.csv", "plot_cg.csv",
                    "state.json", "summary.json", "timings.json"]),
        (None, ("--no-matrices",), ["plot_cardinality.csv", "plot_cg.csv", "state.json",
                                    "summary.json", "timings.json"]),
        # An --output reused from a run of another instance with matrices
        # holds only this run's files.
        (("--gen", "n=10,density=0.15,seed=2", "--points", 3), ("--no-matrices",),
         ["plot_cardinality.csv", "plot_cg.csv", "state.json", "summary.json", "timings.json"]),
    ], ids=["matrices", "no-matrices", "no-matrices-over-matrices"])
    def test_run_directory_holds_these_files(self, tmp_path, earlier, flags, names):
        out = tmp_path / "run"
        if earlier:
            assert run_cli("solve", *earlier, "--output", out) == 0
        assert run_cli("solve", "--gen", "n=12,density=0.15,seed=1", "--points", 5,
                       "--output", out, *flags) == 0
        assert sorted(f.name for f in out.iterdir()) == names
        assert run_cli("verify", out) == 0


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

    def test_objectives_are_recomputed_from_the_saved_u(self, tmp_path, capsys):
        # Both objectives moved alike keep their gap, all that the gap
        # checks see; each is also recomputed from U.npy[k].
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=12,density=0.15,seed=1", "--points", 5,
                       "--output", out) == 0
        summary = load_json(out / "summary.json")
        for key in ("dual_obj", "primal_obj"):
            summary["points"][2][key] += 5.0
        dump_json(out / "summary.json", summary)
        fails = self._fails(capsys, out)
        assert [line.split(" ")[:4] for line in fails] == [
            ["FAIL:", "point", "2:", key] for key in ("dual_obj", "primal_obj")
        ]
        assert all(line.endswith("its value at U.npy[2]") for line in fails)

    def test_verify_detects_matrix_corruption(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--output", out) == 0
        X = np.load(out / "X.npy")
        X[2, 0, 1] = X[2, 1, 0] = X[2, 0, 1] + 0.5 * np.abs(X[2]).max()
        np.save(out / "X.npy", X)
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
            "points": 8,
            "mode": "scaling",
            "t": result.t,
            "zero_tol": PathConfig.zero_tol,
            "tol_residual": CorrectorConfig().residual_tol(3),
        }
        meta = {"n": 3, "source": "indefinite", "seed": None}
        out = tmp_path / "run"
        cli._write_run_artifacts(out, result, build_summary(result, meta, config), True)
        stack = np.load(out / "X.npy")
        X = stack[2].copy()
        rng = np.random.default_rng(12)
        for _ in range(20):
            ulps = np.triu(rng.integers(-2, 3, X.shape))
            ulps = ulps + np.triu(ulps, 1).T
            stack[2] = X * (1.0 + ulps * np.finfo(float).eps)
            np.save(out / "X.npy", stack)
            assert run_cli("verify", out) == 0

    def test_verify_detects_u_corruption(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--output", out) == 0
        U = np.load(out / "U.npy")
        U[1] += 1e-3 * np.eye(7)
        np.save(out / "U.npy", U)
        assert run_cli("verify", out) == 3
        (out / "U.npy").unlink()
        assert run_cli("verify", out) == 3

    def test_infeasible_saved_u_fails_its_point_and_verify_goes_on(self, tmp_path, capsys):
        # Each saved U is tested as a corrector start is: one that leaves
        # the box, or is not exactly symmetric, fails its own point by name.
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=6,density=0.3,seed=2", "--points", 3,
                       "--output", out) == 0
        U = np.load(out / "U.npy")
        U[1] += 5.0 * np.eye(6)
        U[2, 0, 1] = np.nextafter(U[2, 0, 1], np.inf)
        np.save(out / "U.npy", U)
        capsys.readouterr()
        assert run_cli("verify", out) == 3
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL:")]
        # U.npy[2] is the last point's, so it no longer matches state.json.
        assert len(fails) == 3
        assert "state.json: U is not bitwise U.npy[2]" in fails[0]
        assert "point 1: U.npy[1] leaves the box" in fails[1]
        assert "point 2: U.npy[2] is not exactly symmetric" in fails[2]

    def test_gap_bound_is_rederived(self, tmp_path, capsys):
        # The bound is 2 n^2 t of instance.n and config.t, for every point;
        # a primal objective moved below it by more than that bound fails.
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--no-matrices", "--output", out) == 0
        summary = load_json(out / "summary.json")
        bound = gap_bound(7, summary["config"]["t"])
        summary["points"][2]["primal_obj"] -= 2.0 * bound
        (out / "summary.json").write_text(json.dumps(summary))
        fails = self._fails(capsys, out)
        assert len(fails) == 1
        assert fails[0].startswith("FAIL: point 2: gap ")
        assert fails[0].endswith(f"above bound {bound:.3e}")

    @staticmethod
    def _fails(capsys, out):
        capsys.readouterr()
        assert run_cli("verify", out) == 3
        return [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL:")]

    def test_config_t_is_checked_against_state(self, tmp_path, capsys):
        # config.t is the run's one t; the state's must equal it, and the
        # last point's residual is recomputed at it from the state's U.
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--no-matrices", "--output", out) == 0
        summary = load_json(out / "summary.json")
        summary["config"]["t"] *= 2.0
        (out / "summary.json").write_text(json.dumps(summary))
        fails = self._fails(capsys, out)
        assert fails[0].startswith("FAIL: state.json: t ") and "is not config.t" in fails[0]
        assert [line.split(" ")[:5] for line in fails[1:]] == [
            ["FAIL:", "point", "3:", "recomputed", "residual"]
        ]

    def test_no_matrices_run_checks_the_last_point_from_the_state(self, tmp_path, capsys):
        # Without the stacks, state.json's U is the last point's U: it is
        # tested as a start and its objectives are recomputed from it.
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=12,density=0.15,seed=1", "--points", 5,
                       "--no-matrices", "--output", out) == 0
        written = (out / "summary.json").read_bytes()
        summary = load_json(out / "summary.json")
        for key in ("dual_obj", "primal_obj"):
            summary["points"][4][key] += 5.0
        dump_json(out / "summary.json", summary)
        fails = self._fails(capsys, out)
        assert [line.split(" ")[:4] for line in fails] == [
            ["FAIL:", "point", "4:", key] for key in ("dual_obj", "primal_obj")
        ]
        assert all(line.endswith("its value at state.json's U") for line in fails)
        (out / "summary.json").write_bytes(written)
        sigma, U, rho, t = state_arrays(load_json(out / "state.json"))
        dump_json(out / "state.json", build_state(sigma, U + 5.0 * np.eye(12), rho, t))
        assert self._fails(capsys, out) == [
            "FAIL: point 4: state.json's U leaves the box: a box slack is non-positive"
        ]

    def test_state_rho_is_the_last_points(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--output", out) == 0
        state = load_json(out / "state.json")
        state["rho"] *= 1.5
        dump_json(out / "state.json", state)
        fails = self._fails(capsys, out)
        assert len(fails) == 1
        assert "state.json: rho" in fails[0] and "last point's rho" in fails[0]

    def test_state_u_is_bitwise_the_last_saved_u(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--output", out) == 0
        sigma, U, rho, t = state_arrays(load_json(out / "state.json"))
        U[2, 2] = np.nextafter(U[2, 2], np.inf)
        dump_json(out / "state.json", build_state(sigma, U, rho, t))
        fails = self._fails(capsys, out)
        assert fails == ["FAIL: state.json: U is not bitwise U.npy[3]"]

    def test_missing_state_fails_a_run_with_points(self, tmp_path, capsys):
        # The matrix checks need state.json's sigma: without it, a run with
        # points must not pass, whatever its matrices hold.
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=8,density=0.3,seed=2", "--points", 3,
                       "--output", out) == 0
        (out / "state.json").unlink()
        np.save(out / "X.npy", np.eye(2)[None])
        capsys.readouterr()
        assert run_cli("verify", out) == 3
        assert "state.json is missing" in capsys.readouterr().out

    def test_run_without_points_needs_no_state(self, tmp_path, monkeypatch, capsys):
        # A path truncated before its first point writes no state.json, and
        # removes the one an earlier run left in its --output, with the
        # earlier run's matrices.
        def no_points(sigma, cfg):
            return covpath.path.RegularizationPath(
                sigma=sigma, t=1e-5, failure=covpath.path.PathFailure(rho=1.0, error="stalled")
            )

        out = tmp_path / "run"
        args = ("solve", "--gen", "n=6,density=0.2,seed=1", "--output", out)
        assert run_cli(*args, "--points", 5) == 0
        state = (out / "state.json").read_bytes()
        monkeypatch.setattr(cli, "run_path", no_points)
        assert run_cli(*args) == 4
        assert sorted(f.name for f in out.iterdir()) == [
            "plot_cardinality.csv", "plot_cg.csv", "summary.json", "timings.json"
        ]
        assert run_cli("verify", out) == 0
        np.save(out / "U.npy", np.empty((0, 6, 6)))
        np.save(out / "X.npy", np.empty((0, 6, 6)))
        assert self._fails(capsys, out) == [
            "FAIL: U.npy in a run without points", "FAIL: X.npy in a run without points"
        ]
        (out / "U.npy").unlink()
        (out / "X.npy").unlink()
        (out / "state.json").write_bytes(state)
        assert self._fails(capsys, out) == ["FAIL: state.json in a run without points"]

    @pytest.fixture()
    def run7(self, tmp_path):
        """A verified 4-point n=7 run; tests tamper with its stacks."""
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--output", out) == 0
        return out

    def test_one_ulp_in_the_last_u_fails_the_state_check(self, run7, capsys):
        U = np.load(run7 / "U.npy")
        U[-1, 2, 2] = np.nextafter(U[-1, 2, 2], np.inf)
        np.save(run7 / "U.npy", U)
        assert self._fails(capsys, run7) == ["FAIL: state.json: U is not bitwise U.npy[3]"]

    def test_asymmetric_u_entry_fails_its_point(self, run7, capsys):
        U = np.load(run7 / "U.npy")
        U[1, 0, 1] = np.nextafter(U[1, 0, 1], np.inf)
        np.save(run7 / "U.npy", U)
        assert self._fails(capsys, run7) == ["FAIL: point 1: U.npy[1] is not exactly symmetric"]

    def test_nan_in_x_fails_its_point(self, run7, capsys):
        X = np.load(run7 / "X.npy")
        X[1, 0, 0] = np.nan
        np.save(run7 / "X.npy", X)
        assert self._fails(capsys, run7) == [
            "FAIL: point 1: cardinality mismatch on recount",
            "FAIL: point 1: X.npy[1] is not the inverse of U.npy[1]",
            "FAIL: edges.csv is not the CSV the run derives",
        ]

    def test_edited_edge_list_fails(self, run7, capsys):
        rows = (run7 / "edges.csv").read_text()
        assert "2,0,1\n" not in rows
        (run7 / "edges.csv").write_text(rows + "2,0,1\n")
        assert self._fails(capsys, run7) == ["FAIL: edges.csv is not the CSV the run derives"]

    def test_missing_edge_list_fails(self, run7, capsys):
        (run7 / "edges.csv").unlink()
        assert self._fails(capsys, run7) == ["FAIL: edges.csv is missing"]

    def test_edited_plot_file_fails(self, run7, capsys):
        (run7 / "plot_cg.csv").write_text("1,2\n")
        assert self._fails(capsys, run7) == ["FAIL: plot_cg.csv is not the CSV the run derives"]

    @pytest.mark.parametrize("flags, fail", [
        ((), "edges.csv is not the CSV the run derives"),
        (("--no-matrices",), "edges.csv in a run without stacks"),
    ], ids=["stacks", "no-matrices"])
    def test_edge_list_of_no_point_fails(self, tmp_path, capsys, flags, fail):
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--output", out, *flags) == 0
        with open(out / "edges.csv", "a") as f:
            f.write("4,0,1\n")
        assert self._fails(capsys, out) == [f"FAIL: {fail}"]

    @pytest.mark.parametrize("name", [
        "state.json", "timings.json", "U.npy", "X.npy", "edges.csv",
        "plot_cardinality.csv", "plot_cg.csv",
    ])
    def test_every_written_file_is_checked(self, run7, capsys, name):
        (run7 / name).unlink()
        assert self._fails(capsys, run7) == [f"FAIL: {name} is missing"]

    @pytest.mark.parametrize("edit, fail", [
        (lambda tm: tm.update(schema="covpath.timings/0"),
         "timings.json: schema 'covpath.timings/0' is not 'covpath.timings/1'"),
        (lambda tm: tm["per_point_wall_time"].pop(),
         "timings.json: per_point_wall_time is not 4 finite numbers >= 0"),
        (lambda tm: tm["per_point_wall_time"].__setitem__(1, -1e-3),
         "timings.json: per_point_wall_time is not 4 finite numbers >= 0"),
        (lambda tm: tm.update(total_wall_time=tm["total_wall_time"] * (1 + 2**-52)),
         "timings.json: total_wall_time"),
    ], ids=["schema", "one-short", "negative", "edited-total"])
    def test_timings_are_checked(self, run7, capsys, edit, fail):
        timings = load_json(run7 / "timings.json")
        edit(timings)
        dump_json(run7 / "timings.json", timings)
        fails = self._fails(capsys, run7)
        assert len(fails) == 1 and fails[0].startswith(f"FAIL: {fail}")

    @pytest.mark.parametrize("edit, fail", [
        (lambda s: s.update(schema="covpath.summary/1"),
         "unexpected summary schema 'covpath.summary/1'"),
        (lambda s: s["instance"].update(n=99), "state.json: sigma is n=7, not instance.n 99"),
        (lambda s: s["config"].update(mode="bogus"),
         "config.mode 'bogus' is not one of scaling, predictor"),
        (lambda s: s.update(truncated=True),
         "truncated is True in a summary without a failure"),
        (lambda s: s["config"].update(points=3), "run holds 4 points, not config.points 3"),
        (lambda s: s.update(truncated=True, failure={"rho": 0.1, "error": "stalled"}),
         "truncated run holds 4 of config.points 4"),
    ], ids=["schema-1", "instance-n", "config-mode", "truncated", "points", "truncated-points"])
    def test_summary_fields_are_checked(self, run7, capsys, edit, fail):
        summary = load_json(run7 / "summary.json")
        edit(summary)
        dump_json(run7 / "summary.json", summary)
        assert self._fails(capsys, run7) == [f"FAIL: {fail}"]

    @pytest.mark.parametrize("key", ["points", "mode"])
    def test_config_without_points_or_mode_is_input_error(self, run7, capsys, key):
        summary = load_json(run7 / "summary.json")
        del summary["config"][key]
        dump_json(run7 / "summary.json", summary)
        assert run_cli("verify", run7) == 2
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["U.npy", "X.npy"])
    @pytest.mark.parametrize("change, held", [
        (lambda m: m[:-1], "float64 (3, 7, 7)"),
        (lambda m: np.concatenate([m, m[-1:]]), "float64 (5, 7, 7)"),
        (lambda m: m[:, :-1, :-1], "float64 (4, 6, 6)"),
        (lambda m: m.astype(np.float32), "float32 (4, 7, 7)"),
        (lambda m: m.astype(">f8"), ">f8 (4, 7, 7)"),
    ], ids=["fewer-points", "more-points", "smaller-n", "float32", "big-endian"])
    def test_stack_of_another_dtype_or_shape_fails(self, run7, capsys, name, change, held):
        np.save(run7 / name, change(np.load(run7 / name)))
        assert self._fails(capsys, run7) == [
            f"FAIL: {name} holds {held}, not float64 (4, 7, 7)"
        ]

    @pytest.mark.parametrize("missing", ["U.npy", "X.npy"])
    def test_one_stack_without_the_other_fails(self, run7, capsys, missing):
        (run7 / missing).unlink()
        assert self._fails(capsys, run7) == [f"FAIL: {missing} is missing"]

    def test_object_stack_is_input_error(self, run7, capsys):
        np.save(run7 / "U.npy", np.array([None, "x"], dtype=object))
        assert run_cli("verify", run7) == 2
        err = capsys.readouterr().err
        assert "input error:" in err and "U.npy" in err

    @pytest.mark.parametrize("flags, leftover, kind", [
        ((), "U_000.csv", "matrix CSVs"),
        (("--no-matrices",), "U_000.csv", "matrix CSVs"),
        ((), "edges_000.csv", "edge lists"),
    ], ids=["stacks", "no-matrices", "edges"])
    def test_leftover_matrix_csv_fails(self, tmp_path, capsys, flags, leftover, kind):
        # A per-point CSV is a run in the older format: its matrices and
        # edges are not checked, so the run must not pass on its summary alone.
        out = tmp_path / "run"
        assert run_cli("solve", "--gen", "n=7,density=0.3,seed=3", "--points", 4,
                       "--output", out, *flags) == 0
        if kind == "edge lists":
            (out / leftover).write_text("0,1\n")
        else:
            write_csv(out / leftover, state_arrays(load_json(out / "state.json"))[1])
        fails = self._fails(capsys, out)
        assert len(fails) == 1
        assert fails[0].startswith(f"FAIL: {leftover}: 1 per-point {kind} of an older run")

    def test_missing_summary_is_input_error(self, tmp_path, capsys):
        assert run_cli("verify", tmp_path) == 2
        assert "input error:" in capsys.readouterr().err

    def test_summary_without_points_or_config_is_input_error(self, tmp_path, capsys):
        summary = {"schema": SUMMARY_SCHEMA}
        config = {"tol_residual": 1e-6, "zero_tol": 1e-4, "t": 1e-5, "points": 1, "mode": "scaling"}
        usable = dict(summary, config=config, instance={"n": 3})
        payloads = (
            summary,
            dict(summary, points=[]),
            dict(summary, points=[], config=[]),
            [1, 2],
            dict(usable, points=[{"rho": 1.0}]),
            dict(usable, points=[1, 2]),
            dict(usable, points=5),
            dict(usable, points=[dict(dict.fromkeys(POINT_FIELDS, 0), rho=None)]),
            # instance.n missing or not an integer
            dict(usable, points=[], instance={}),
            dict(usable, points=[], instance={"n": 3.0}),
            dict(usable, points=[], instance=[3]),
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
        write_csv(zero, np.zeros((6, 6)))
        out = tmp_path / "online"
        assert run_cli("online", "--state", state_path, "--perturbation", zero,
                       "--output", out) == 0
        before = load_json(state_path)["U"]
        after = load_json(out / "state.json")["U"]
        assert isinstance(before, str) and before == after

    def test_small_perturbation_with_verify(self, tmp_path):
        state_path = self._solved_state(tmp_path)
        sigma, _, _, _ = state_arrays(load_json(state_path))
        rng = np.random.default_rng(10)
        C = rng.standard_normal((6, 6))
        C = 0.5 * (C + C.T)
        C *= 1e-3 * np.linalg.norm(sigma) / np.linalg.norm(C)
        pert = tmp_path / "c.csv"
        write_csv(pert, C)
        out = tmp_path / "online"
        assert run_cli("online", "--state", state_path, "--perturbation", pert,
                       "--k", 1, "--verify", "--output", out) == 0
        report = load_json(out / "online_report.json")
        # rho and t are state.json's alone.
        assert set(report) == {"schema", "k", "update_frobenius", "verify_frobenius_discrepancy"}
        assert report["schema"] == "covpath.online/2" and report["k"] == 1
        assert report["verify_frobenius_discrepancy"] <= 1e-6

    def test_state_hands_off_the_last_point_losslessly(self, tmp_path):
        # solve -> state.json -> online gives the bits of an online update
        # from the in-memory last point of the same path.
        state_path = self._solved_state(tmp_path)
        C = np.zeros((6, 6))
        C[1, 4] = C[4, 1] = 1e-3
        pert = tmp_path / "c.csv"
        write_csv(pert, C)
        out = tmp_path / "online"
        assert run_cli("online", "--state", state_path, "--perturbation", pert,
                       "--output", out) == 0
        sigma, _ = generate_problem(GeneratorSpec(n=6, density=0.3, seed=5))
        result = run_path(sigma, PathConfig(points=6))
        last = result.points[-1]
        C = load_perturbation(pert)
        factor = run_online(
            Problem(sigma=sigma, rho=last.rho), last.U, C, k=1, t=result.t,
            corrector_cfg=CorrectorConfig(tol_residual=1e-9 * 6),
        )
        sigma_online, U_online, rho, t = state_arrays(load_json(out / "state.json"))
        assert U_online.tobytes() == factor.matrix.tobytes()
        assert sigma_online.tobytes() == (sigma + C).tobytes()
        assert (rho, t) == (last.rho, result.t)

    def test_shape_mismatch_is_input_error(self, tmp_path):
        state_path = self._solved_state(tmp_path)
        pert = tmp_path / "c.csv"
        write_csv(pert, np.zeros((4, 4)))
        assert run_cli("online", "--state", state_path, "--perturbation", pert) == 2

    def test_state_without_u_is_input_error(self, tmp_path, capsys):
        state = build_state(np.eye(3), np.eye(3), 0.5, 1e-4)
        del state["U"]
        state_path = tmp_path / "state.json"
        dump_json(state_path, state)
        pert = tmp_path / "c.csv"
        write_csv(pert, np.zeros((3, 3)))
        assert run_cli("online", "--state", state_path, "--perturbation", pert) == 2
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, scale", [("t", 1e-3), ("t", 0.0), ("rho", 1e-3), ("U", 1e-3)])
    def test_bad_state_is_input_error(self, tmp_path, capsys, key, scale):
        # A NaN t or rho, or a 5x5 U for the 6x6 sigma. A zero perturbation
        # (scale 0) returns the state without a solve.
        state_path = self._solved_state(tmp_path)
        state = load_json(state_path)
        sigma, U, rho, t = state_arrays(state)
        state[key] = build_state(sigma, U[:5, :5], rho, t)["U"] if key == "U" else float("nan")
        state_path.write_text(json.dumps(state))
        pert = tmp_path / "c.csv"
        write_csv(pert, scale * np.eye(6))
        out = tmp_path / "online"
        assert run_cli("online", "--state", state_path, "--perturbation", pert,
                       "--output", out) == 2
        err = capsys.readouterr().err
        assert "input error:" in err
        if key == "U":
            assert "state U has shape (5, 5), sigma (6, 6)" in err
        assert not out.exists()

    def test_state_not_an_object_is_input_error(self, tmp_path, capsys):
        state_path = tmp_path / "state.json"
        state_path.write_text("[1, 2]\n")
        pert = tmp_path / "c.csv"
        write_csv(pert, np.zeros((3, 3)))
        assert run_cli("online", "--state", state_path, "--perturbation", pert) == 2
        assert "input error:" in capsys.readouterr().err


class TestBench:
    @pytest.mark.parametrize("argv, message", [
        (("--repeats", 0), "--repeats must be at least 1"),
        (("--repeats", -1), "--repeats must be at least 1"),
        (("--lengths", "3,0"), "--lengths must be at least 1"),
        (("--sizes", "6,1"), "n must be at least 2"),
        (("--sizes", ""), "--sizes names no value"),
        (("--lengths", ","), "--lengths names no value"),
    ], ids=["repeats-0", "repeats--1", "lengths", "sizes", "no-sizes", "no-lengths"])
    def test_bad_argument_is_input_error_before_any_solve(self, tmp_path, capsys, argv, message):
        # The bad entry comes last, after a cell that would solve.
        out = tmp_path / "bench"
        assert run_cli("bench", "--sizes", "6", "--lengths", "3", "--repeats", 1, *argv,
                       "--output", out) == 2
        captured = capsys.readouterr()
        assert f"input error: {message}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_median_wall_time_is_the_median_of_the_repeats(self, tmp_path):
        out = tmp_path / "bench"
        assert run_cli("bench", "--sizes", "6", "--lengths", "3", "--repeats", 2,
                       "--output", out) == 0
        (cell,) = load_json(out / "bench_report.json")["cells"]
        assert len(cell["wall_times"]) == 2
        assert cell["median_wall_time"] == statistics.median(cell["wall_times"])


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


@pytest.mark.parametrize("command", ["solve", "online", "bench"])
def test_output_naming_a_file_is_input_error(tmp_path, capsys, command):
    args = {
        "solve": ("--gen", "n=6,density=0.3,seed=1", "--points", 3),
        "online": ("--state", tmp_path / "run" / "state.json", "--perturbation",
                   tmp_path / "zero.csv"),
        "bench": ("--sizes", 6, "--lengths", 3, "--repeats", 1),
    }[command]
    if command == "online":
        assert run_cli("solve", "--gen", "n=6,density=0.3,seed=5", "--points", 3,
                       "--output", tmp_path / "run") == 0
        write_csv(tmp_path / "zero.csv", np.zeros((6, 6)))
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    capsys.readouterr()
    assert run_cli(command, *args, "--output", taken) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and str(taken) in err
    assert taken.read_text() == "not a directory\n"
