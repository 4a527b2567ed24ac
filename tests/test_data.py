import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from covpath.data import (
    POINT_FIELDS,
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
    load_stack,
    samples_covariance,
    state_arrays,
    write_csv,
    write_stack,
)
from covpath.exceptions import AsymmetricInput, NonPositiveDiagonal, NumericalBreakdown, ParseError
from covpath.path import PathConfig, default_rho_grid, run_path


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
        write_csv(f, m)
        assert np.array_equal(load_matrix(f), m)


# Wide exponents (to +-300), subnormals, signed zeros, NaN and inf.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda mant, e: mant * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1.0 / 3.0]),
)
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([np.nan, np.inf, -np.inf]))


@st.composite
def float_matrices(draw, elements=ANY_FLOAT):
    """Random float64 matrices, half of them bitwise symmetric by construction,
    some with a 0.0 / -0.0 mirrored pair (equal values, different bits)."""
    n = draw(st.integers(1, 6))
    symmetric = draw(st.booleans())
    cols = n if symmetric else draw(st.integers(1, 6))
    m = draw(hnp.arrays(np.float64, (n, cols), elements=elements))
    if symmetric:
        lower = np.tril_indices(n, -1)
        m[lower] = m.T[lower]
        if n > 1 and draw(st.booleans()):
            m[0, 1], m[1, 0] = 0.0, -0.0
    return m


def savetxt_bytes(path, m, fmt):
    np.savetxt(path, m, delimiter=",", fmt=fmt)
    return path.read_bytes()


class TestWriteCsv:
    @settings(max_examples=150, deadline=None)
    @given(m=float_matrices())
    def test_float_bytes_equal_savetxt(self, tmp_path_factory, m):
        d = tmp_path_factory.mktemp("csv")
        write_csv(d / "m.csv", m)
        assert (d / "m.csv").read_bytes() == savetxt_bytes(d / "ref.csv", m, "%.17g")

    @settings(max_examples=50, deadline=None)
    @given(m=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5)))
    def test_int_bytes_equal_savetxt(self, tmp_path_factory, m):
        d = tmp_path_factory.mktemp("csv")
        write_csv(d / "m.csv", m, "%d")
        assert (d / "m.csv").read_bytes() == savetxt_bytes(d / "ref.csv", m, "%d")

    @pytest.mark.parametrize(
        "m, fmt",
        [
            (np.empty((0, 2)), "%.17g"),
            (np.empty((0, 2), dtype=np.int64), "%d"),
            (np.array([[-0.0]]), "%.17g"),
            (np.array([[7]]), "%d"),
        ],
    )
    def test_empty_and_one_by_one(self, tmp_path, m, fmt):
        write_csv(tmp_path / "m.csv", m, fmt)
        assert (tmp_path / "m.csv").read_bytes() == savetxt_bytes(tmp_path / "ref.csv", m, fmt)


class TestStacks:
    @settings(max_examples=100, deadline=None)
    @given(
        ms=st.integers(1, 4).flatmap(
            lambda n: st.lists(hnp.arrays(np.float64, (n, n), elements=ANY_FLOAT), min_size=1,
                               max_size=4)
        )
    )
    def test_bytes_equal_np_save_of_the_stack(self, tmp_path_factory, ms):
        d = tmp_path_factory.mktemp("npy")
        write_stack(d / "m.npy", ms)
        np.save(d / "ref.npy", np.stack(ms))
        assert (d / "m.npy").read_bytes() == (d / "ref.npy").read_bytes()
        stack = load_stack(d / "m.npy")
        assert stack.shape == (len(ms), *ms[0].shape) and not stack.flags.writeable
        for k, m in enumerate(ms):
            assert stack[k].tobytes() == m.tobytes()

    def test_slices_are_written_as_little_endian_c_order_float64(self, tmp_path):
        # A Fortran-order, big-endian or integer matrix is converted.
        m = np.arange(6.0).reshape(2, 3)
        write_stack(tmp_path / "m.npy", [np.asfortranarray(m), m.astype(">f8"), m.astype(int)])
        assert np.load(tmp_path / "m.npy").tobytes() == np.stack([m, m, m]).tobytes()

    def test_matrices_of_another_shape_are_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            write_stack(tmp_path / "m.npy", [np.eye(3), np.eye(2)])

    @pytest.mark.parametrize("case", ["missing", "empty", "text", "truncated", "pickled", "npz"])
    def test_unreadable_stack_is_a_parse_error_naming_the_file(self, tmp_path, case):
        f = tmp_path / "m.npy"
        if case == "empty":
            f.write_bytes(b"")
        elif case == "text":
            f.write_text("1,2\n3,4\n")
        elif case == "truncated":
            np.save(f, np.ones((2, 3, 3)))
            f.write_bytes(f.read_bytes()[:-8])
        elif case == "pickled":
            np.save(f, np.array([None, "x"], dtype=object))
        elif case == "npz":
            with open(f, "wb") as out:
                np.savez(out, np.eye(2))
        with pytest.raises(ParseError, match="m.npy"):
            load_stack(f)


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


# What covpath's payloads hold: JSON-native values, np.float64 among the
# floats (it is a float subclass).
JSON_VALUES = st.one_of(
    st.integers(),
    ANY_FLOAT,
    ANY_FLOAT.map(np.float64),
    st.text(max_size=4),
    st.none(),
    st.lists(st.one_of(st.integers(), ANY_FLOAT), max_size=4),
    st.lists(st.lists(FINITE, max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
)


class TestJsonArtifacts:
    @settings(max_examples=150, deadline=None)
    @given(payload=st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=5))
    def test_bytes_equal_json_dumps(self, tmp_path_factory, payload):
        f = tmp_path_factory.mktemp("json") / "p.json"
        dump_json(f, payload)
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert f.read_text() == expected + "\n"

    def test_non_string_key_is_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            dump_json(tmp_path / "p.json", {1: 2.0})

    @pytest.mark.parametrize("value", [np.eye(2), np.int64(2)], ids=["array", "integer"])
    def test_numpy_array_or_integer_is_rejected(self, tmp_path, value):
        with pytest.raises(TypeError):
            dump_json(tmp_path / "p.json", {"U": value})

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
        assert loaded["schema"] == "covpath.summary/2"
        assert len(loaded["points"]) == 3
        assert "mode" not in loaded
        assert "wall_time" not in loaded["points"][0]

    def test_state_roundtrip(self, tmp_path):
        # Bit for bit: signed zero, the least subnormal, the largest finite
        # magnitudes, and a U that is not symmetric are stored as given.
        extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        rng = np.random.default_rng(8)
        sigma = rng.standard_normal((4, 4))
        sigma[0, :] = extremes
        U = rng.standard_normal((4, 4))
        U[:, 3] = extremes[::-1]
        f = tmp_path / "state.json"
        dump_json(f, build_state(sigma, U, 0.7, 1e-4))
        state = load_json(f)
        assert state["schema"] == "covpath.state/2"
        s2, u2, rho, t = state_arrays(state)
        assert np.array_equal(s2, sigma)
        assert np.array_equal(u2, U)
        assert s2.tobytes() == sigma.tobytes() and u2.tobytes() == U.tobytes()
        assert rho == 0.7 and t == 1e-4
        u2[0, 0] = 1.0  # a writable copy, not a view of the decoded bytes

    def test_summary_schema_validates(self, tmp_path, monkeypatch):
        # The summaries that covpath solve writes: untruncated, truncated
        # after three points (every grid value below the third fails), and
        # truncated before its first point (every grid value fails).
        import jsonschema
        from importlib import resources

        import covpath.path
        from covpath import cli

        schema = json.loads(
            resources.files("covpath.schemas").joinpath("summary.schema.json").read_text()
        )
        spec = GeneratorSpec(n=6, density=0.3, seed=4)
        third = default_rho_grid(generate_problem(spec)[0], 4, PathConfig.rho_min_frac)[2]
        recenter = covpath.path.recenter

        def failing_below(rho_min):
            def fails(problem, *args):
                if problem.rho < rho_min:
                    raise NumericalBreakdown("injected breakdown")
                return recenter(problem, *args)
            return fails

        summaries = []
        for name, rho_min, code, count in (("full", 0.0, 0, 4), ("truncated", third, 4, 3),
                                           ("no-points", np.inf, 4, 0)):
            monkeypatch.setattr(covpath.path, "recenter", failing_below(rho_min))
            out = tmp_path / name
            assert cli.main(["solve", "--gen", "n=6,density=0.3,seed=4", "--points", "4",
                             "--output", str(out)]) == code
            summary = load_json(out / "summary.json")
            assert len(summary["points"]) == count and ("failure" in summary) is (code == 4)
            jsonschema.validate(summary, schema)
            summaries.append(summary)
        del summaries[0]["config"]["mode"]
        with pytest.raises(jsonschema.ValidationError, match="'mode' is a required property"):
            jsonschema.validate(summaries[0], schema)

    def test_point_fields_match_summary_and_schema(self):
        from importlib import resources

        sigma, _ = generate_problem(GeneratorSpec(n=4, density=0.3, seed=4))
        summary = build_summary(run_path(sigma, PathConfig(points=2)), {}, {})
        schema = json.loads(
            resources.files("covpath.schemas").joinpath("summary.schema.json").read_text()
        )
        required = schema["properties"]["points"]["items"]["required"]
        for pt in summary["points"]:
            assert set(pt) == set(POINT_FIELDS) == set(required)


class TestStateEncoding:
    def _state(self, n=3):
        sigma = np.diag(np.arange(1.0, n + 1.0))
        return build_state(sigma, np.eye(n), 0.5, 1e-4)

    def test_matrix_is_base64_of_little_endian_float64(self):
        m = np.array([[1.0, -2.5], [0.25, 3.0]])
        state = build_state(m, m.T, 0.5, 1e-4)
        raw = base64.b64decode(state["U"])
        assert raw == m.T.copy().astype("<f8").tobytes()
        assert np.array_equal(np.frombuffer(raw, "<f8").reshape(2, 2), m.T)

    def test_schema_1_names_both_schemas(self):
        state = dict(self._state(), schema="covpath.state/1")
        with pytest.raises(ParseError, match="covpath.state/1.*covpath.state/2"):
            state_arrays(state)

    @pytest.mark.parametrize("key", ["sigma", "U"])
    def test_matrix_must_be_a_string(self, key):
        state = dict(self._state(), **{key: np.eye(3).tolist()})
        with pytest.raises(ParseError, match=f"state {key} must be a base64 string"):
            state_arrays(state)

    @pytest.mark.parametrize("text", ["not base64!", "AAAA AAA=", "AAAAAAA", "AAAAAAé="])
    def test_invalid_base64(self, text):
        with pytest.raises(ParseError, match="state sigma is not valid base64"):
            state_arrays(dict(self._state(), sigma=text))

    @pytest.mark.parametrize("nbytes", [0, 16, 24, 31, 8 * 4 + 1])
    def test_byte_count_must_be_8_n_squared(self, nbytes):
        text = base64.b64encode(bytes(nbytes)).decode()
        with pytest.raises(ParseError, match=f"state sigma holds {nbytes} bytes, not 8 n"):
            state_arrays(dict(self._state(), sigma=text))

    def test_u_must_match_sigma(self):
        state = dict(self._state(3), U=self._state(2)["U"])
        with pytest.raises(ParseError, match=r"state U has shape \(2, 2\), sigma \(3, 3\)"):
            state_arrays(state)
