import json

import numpy as np
import pytest

from covpath.data import (
    GeneratorSpec,
    build_state,
    build_summary,
    dump_json,
    generate_problem,
    load_covariance,
    load_json,
    load_matrix,
    load_perturbation,
    load_samples,
    samples_covariance,
    state_arrays,
    write_matrix,
)
from covpath.exceptions import AsymmetricInput, NonPositiveDiagonal, ParseError
from covpath.path import PathConfig, run_path


class TestLoadCovariance:
    def test_basic_csv(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,0.5\n0.5,2\n")
        m = load_covariance(f)
        assert np.array_equal(m, np.array([[1.0, 0.5], [0.5, 2.0]]))

    def test_mild_asymmetry_averaged(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,0.5000000001\n0.5,2\n")
        m = load_covariance(f)
        assert m[0, 1] == m[1, 0] == pytest.approx(0.50000000005)

    def test_asymmetric_beyond_tolerance(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,0.9\n0.5,2\n")
        with pytest.raises(AsymmetricInput):
            load_covariance(f)

    def test_nonpositive_diagonal(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("0,0.1\n0.1,2\n")
        with pytest.raises(NonPositiveDiagonal):
            load_covariance(f)

    def test_parse_errors(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,abc\n0.5,2\n")
        with pytest.raises(ParseError):
            load_matrix(f)
        with pytest.raises(ParseError):
            load_matrix(tmp_path / "missing.csv")

    def test_nonsquare_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(ParseError):
            load_covariance(f)

    def test_perturbation_allows_nonpositive_diagonal(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("-0.1,0.02\n0.02,0\n")
        c = load_perturbation(f)
        assert c[0, 0] == -0.1


class TestSamples:
    def test_matches_two_pass_oracle(self, tmp_path):
        rng = np.random.default_rng(80)
        data = rng.standard_normal((40, 5)) @ np.diag([1.0, 2.0, 0.5, 1.5, 3.0])
        mean = data.mean(axis=0)
        oracle = np.zeros((5, 5))
        for row in data:
            oracle += np.outer(row - mean, row - mean)
        oracle /= data.shape[0]
        f = tmp_path / "samples.csv"
        np.savetxt(f, data, delimiter=",")
        cov = load_samples(f)
        assert np.allclose(cov, oracle, atol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ParseError):
            samples_covariance(np.ones((1, 3)))


class TestRoundTrip:
    def test_write_load_exact(self, tmp_path):
        rng = np.random.default_rng(81)
        m = rng.standard_normal((6, 6))
        m = 0.5 * (m + m.T) + 6 * np.eye(6)
        f = tmp_path / "m.csv"
        write_matrix(f, m)
        assert np.array_equal(load_matrix(f), m)


class TestGenerator:
    def test_zero_density_is_diagonal(self):
        sigma, gt = generate_problem(GeneratorSpec(n=6, density=0.0, seed=1))
        assert np.array_equal(gt, np.diag(np.diag(gt)))
        assert np.array_equal(sigma, np.diag(np.diag(sigma)))

    def test_deterministic_per_seed(self):
        a = generate_problem(GeneratorSpec(n=30, density=0.1, seed=7))
        b = generate_problem(GeneratorSpec(n=30, density=0.1, seed=7))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        c = generate_problem(GeneratorSpec(n=30, density=0.1, seed=8))
        assert not np.array_equal(a[0], c[0])

    def test_inverse_relation(self):
        sigma, gt = generate_problem(GeneratorSpec(n=12, density=0.2, seed=3))
        assert np.linalg.norm(sigma @ gt - np.eye(12)) <= 1e-8
        assert np.min(np.linalg.eigvalsh(sigma)) > 0

    def test_density_band(self):
        spec = GeneratorSpec(n=30, density=0.10, seed=5)
        _, gt = generate_problem(spec)
        achieved = np.count_nonzero(gt) / gt.size
        assert abs(achieved - 0.10) <= 0.02

    def test_min_eigenvalue_margin(self):
        _, gt = generate_problem(GeneratorSpec(n=15, density=0.2, seed=9))
        assert np.min(np.linalg.eigvalsh(gt)) >= 0.1 - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(n=1)
        with pytest.raises(ValueError):
            GeneratorSpec(n=5, density=1.5)


class TestJsonArtifacts:
    def test_summary_roundtrip_and_determinism(self, tmp_path):
        sigma, _ = generate_problem(GeneratorSpec(n=5, density=0.3, seed=4))
        res = run_path(sigma, PathConfig(points=3))
        meta = {"n": 5, "source": "gen:test", "seed": 4}
        cfg = {"points": 3, "zero_tol": 1e-4, "tol_residual": 5e-6}
        s1 = build_summary(res, meta, cfg)
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(f1, s1)
        dump_json(f2, build_summary(res, meta, cfg))
        assert f1.read_bytes() == f2.read_bytes()
        loaded = load_json(f1)
        assert loaded["schema"] == "covpath.summary/1"
        assert len(loaded["points"]) == 3
        assert "wall_time" not in loaded["points"][0]

    def test_state_roundtrip(self, tmp_path):
        sigma = np.diag([1.0, 2.0])
        U = np.diag([1.5, 2.5])
        f = tmp_path / "state.json"
        dump_json(f, build_state(sigma, U, 0.7, 1e-4))
        s2, u2, rho, t = state_arrays(load_json(f))
        assert np.array_equal(s2, sigma)
        assert np.array_equal(u2, U)
        assert rho == 0.7 and t == 1e-4

    def test_numeric_arrays_dump_as_the_recursive_form(self, tmp_path):
        # Numeric arrays take a tolist() fast path; an object-dtype copy of
        # the same array still goes element by element. The bytes must match.
        rng = np.random.default_rng(3)
        arrays = {
            "U": rng.standard_normal((7, 7)) * 10.0 ** rng.integers(-300, 300, (7, 7)),
            "idx": np.arange(-3, 4, dtype=np.int32),
            "mask": rng.random(5) > 0.5,
            "tiny": np.array([0.0, -0.0, 5e-324, 1.0 / 3.0]),
        }
        payload = {"schema": "x", "t": np.float64(1e-4), "nested": [arrays, (np.int64(2),)]}
        recursive = {
            "schema": "x", "t": np.float64(1e-4),
            "nested": [{k: v.astype(object) for k, v in arrays.items()}, (np.int64(2),)],
        }
        dump_json(tmp_path / "fast.json", payload)
        dump_json(tmp_path / "slow.json", recursive)
        assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "slow.json").read_bytes()
        assert load_json(tmp_path / "fast.json")["nested"][0]["idx"] == list(range(-3, 4))

    def test_summary_schema_validates(self, tmp_path):
        import jsonschema
        from importlib import resources

        sigma, _ = generate_problem(GeneratorSpec(n=4, density=0.3, seed=4))
        res = run_path(sigma, PathConfig(points=2))
        summary = build_summary(
            res,
            {"n": 4, "source": "gen:test", "seed": 4},
            {"points": 2, "zero_tol": 1e-4, "tol_residual": 4e-6},
        )
        dump_json(tmp_path / "s.json", summary)
        schema = json.loads(
            resources.files("covpath.schemas").joinpath("summary.schema.json").read_text()
        )
        jsonschema.validate(load_json(tmp_path / "s.json"), schema)
