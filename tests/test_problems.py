import numpy as np
import pytest

from coupledrom.errors import ConfigError
from coupledrom.library import heat_laplace_pair, steady_pair_2d
from coupledrom.problems import (
    AffineTerm,
    TimeSpec,
    compile_expression,
    constant_profile,
    eval_spatial,
    eval_theta,
    problem_from_dict,
    problem_to_dict,
    spatial_coefficient,
)


class TestExpressions:
    def test_spatial_expression(self):
        pts = np.array([[0.5, 1.0, 2.0], [0.0, 0.0, 0.0]])
        out = eval_spatial("x + 2*y + exp(z)", pts)
        assert out[0] == pytest.approx(0.5 + 2.0 + np.exp(2.0))
        assert out[1] == pytest.approx(1.0)

    def test_spatial_constant(self):
        pts = np.zeros((4, 2))
        assert np.all(eval_spatial(3.5, pts) == 3.5)

    def test_spatial_z_defaults_to_zero_in_2d(self):
        pts = np.array([[1.0, 2.0]])
        assert eval_spatial("z + x", pts)[0] == 1.0

    def test_constant_profile(self):
        # the value eval_spatial gives at every point, when it reads no coordinate
        pts = np.zeros((1, 3))
        for value in (2, 0.04, "0.5 + sqrt(2.25)", "pi * minimum(1, 2)"):
            assert constant_profile(value) == eval_spatial(value, pts)[0]
        for value in ("1 + x*y", "z", "maximum(*[k * y for k in (1.0,)])", ("y", "0.0")):
            assert constant_profile(value) is None

    def test_theta_expression(self):
        assert eval_theta("alpha * 2", {"alpha": 3.0}) == 6.0
        assert eval_theta("sin(pi*t)", {}, t=0.5) == pytest.approx(1.0)
        assert eval_theta(1.25, {}) == 1.25

    def test_theta_accepts_compiled_expression(self):
        source = "alpha * sin(pi*t)"
        code = compile_expression(source, {"alpha", "t"}, "theta")
        assert eval_theta(code, {"alpha": 3.0}, t=0.25) == eval_theta(source, {"alpha": 3.0}, t=0.25)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            compile_expression("alphaa + 1", {"alpha"}, "theta")

    def test_dunder_rejected(self):
        with pytest.raises(ConfigError):
            compile_expression("__import__('os')", {"alpha"}, "theta")

    def test_syntax_error_rejected(self):
        with pytest.raises(ConfigError):
            compile_expression("1 +", set(), "theta")

    def test_unknown_name_inside_comprehension_rejected(self):
        with pytest.raises(ConfigError):
            compile_expression("minimum(*[bogus for k in (1.0,)])", {"t"}, "theta")

    def test_comprehension_reads_the_evaluation_names(self):
        code = compile_expression("minimum(*[k * t for k in (1.0, 2.0)])", {"t"}, "theta")
        assert eval_theta(code, {}, t=0.5) == 0.5
        pts = np.array([[0.25, 0.0]])
        assert eval_spatial("maximum(*[k * x for k in (1.0, 2.0)])", pts)[0] == 0.5

    def test_vector_coefficient(self):
        coeff = spatial_coefficient(("y", "0.0"))
        pts = np.array([[[0.0, 2.0]]])
        out = coeff(pts)
        assert out.shape == (1, 1, 2)
        assert out[0, 0, 0] == 2.0


class TestSpecValidation:
    def test_bad_operator_kind(self):
        with pytest.raises(ConfigError):
            AffineTerm(kind="banana")

    def test_advection_needs_vector(self):
        with pytest.raises(ConfigError):
            AffineTerm(kind="advection", coefficient="1.0")

    def test_time_spec_positive(self):
        with pytest.raises(ConfigError):
            TimeSpec(dt=0.0, n_steps=5)
        with pytest.raises(ConfigError):
            TimeSpec(dt=0.1, n_steps=0)

    def test_unsteady_requires_time(self):
        spec = heat_laplace_pair()
        data = problem_to_dict(spec)
        del data["time"]
        with pytest.raises(ConfigError):
            problem_from_dict(data)

    def test_theta_names_checked_against_parameters(self):
        data = problem_to_dict(steady_pair_2d())
        data["master"]["operator"][0]["theta"] = "gamma"
        with pytest.raises(ConfigError):
            problem_from_dict(data)

    def test_missing_keys_carry_field_path(self):
        data = problem_to_dict(steady_pair_2d())
        del data["master"]["mesh"]
        with pytest.raises(ConfigError) as err:
            problem_from_dict(data)
        assert "master" in str(err.value)

    def test_interface_tag_must_be_face(self):
        data = problem_to_dict(steady_pair_2d())
        data["slave"]["interface_tag"] = "w+"
        with pytest.raises(ConfigError):
            problem_from_dict(data)

    def test_time_instants(self):
        ts = TimeSpec(dt=0.25, n_steps=8)
        assert np.array_equal(ts.instants(), 0.25 * np.arange(9))
