import dataclasses
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from coupledrom.errors import ConfigError
from coupledrom.experiments import config_from_dict
from coupledrom.library import (
    heat_laplace_pair,
    steady_pair_2d,
    steady_reaction_diffusion_pair,
    transport_wall_pair,
)
from coupledrom.problems import (
    AffineTerm,
    BoxMeshSpec,
    SubmodelSpec,
    TimeSpec,
    compile_expression,
    eval_spatial,
    eval_theta,
    problem_from_dict,
    problem_to_dict,
    spatial_coefficient,
)


def spatial(source: str):
    return compile_expression(source, {"x", "y", "z"}, "profile")


class TestExpressions:
    # the evaluators read compiled forms: a float, or code from compile_expression
    def test_spatial_expression(self):
        pts = np.array([[0.5, 1.0, 2.0], [0.0, 0.0, 0.0]])
        out = eval_spatial(spatial("x + 2*y + exp(z)"), pts)
        assert out[0] == pytest.approx(0.5 + 2.0 + np.exp(2.0))
        assert out[1] == pytest.approx(1.0)

    def test_spatial_constant(self):
        pts = np.zeros((4, 2))
        assert np.all(eval_spatial(3.5, pts) == 3.5)

    def test_spatial_z_defaults_to_zero_in_2d(self):
        pts = np.array([[1.0, 2.0]])
        assert eval_spatial(spatial("z + x"), pts)[0] == 1.0

    @pytest.mark.parametrize(
        "coefficients, axes",
        [
            # numbers, and expressions that read no coordinate, are constants
            ((2.0, 0.04), (0, 1, 2)),
            (("0.5 + sqrt(2.25)", "pi * minimum(1, 2)"), (0, 1, 2)),
            (("1 + x*y",), (2,)),
            (("1 + x", 3.0), (1, 2)),
            # a comprehension's own code is read too
            (("maximum(*[k * y for k in (1.0,)])",), (0, 2)),
            # a velocity separates where its component is the number 0 and
            # no component reads the coordinate
            ((0.05, ("4*z*(1-z)", "0.0", "0.0")), (1,)),
            ((("0.0", 0.0, "2 - 2"),), (0, 1, 2)),
            (((1.0, 0.0, 0.0),), (1, 2)),
            ((("0*x", 0.0, 0.0),), (1, 2)),
            (((0.0, "x", 0.0),), (2,)),
        ],
    )
    def test_separated_axes(self, coefficients, axes):
        operator = tuple(
            AffineTerm(kind="advection" if isinstance(c, tuple) else "diffusion", coefficient=c)
            for c in coefficients
        )
        spec = SubmodelSpec(
            mesh=BoxMeshSpec((0, 0, 0), (1, 1, 1), (2, 2, 2)), operator=operator,
            interface_tag="x+",
        )
        spec.validate("master")
        assert spec.separated_axes == axes

    def test_theta_expression(self):
        alpha = compile_expression("alpha * 2", {"alpha"}, "theta")
        assert eval_theta(alpha, {"alpha": 3.0}) == 6.0
        wave = compile_expression("sin(pi*t)", {"t"}, "theta")
        assert eval_theta(wave, {}, t=0.5) == pytest.approx(1.0)
        assert eval_theta(1.25, {}) == 1.25

    def test_theta_accepts_compiled_expression(self):
        code = compile_expression("alpha * sin(pi*t)", {"alpha", "t"}, "theta")
        assert eval_theta(code, {"alpha": 3.0}, t=0.25) == 3.0 * np.sin(np.pi * 0.25)

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
        assert eval_spatial(spatial("maximum(*[k * x for k in (1.0, 2.0)])"), pts)[0] == 0.5

    def test_vector_coefficient(self):
        coeff = spatial_coefficient((spatial("y"), 0.0))
        pts = np.array([[[0.0, 2.0]]])
        out = coeff(pts)
        assert out.shape == (1, 1, 2)
        assert out[0, 0, 0] == 2.0


class TestSpecValidation:
    def test_bad_operator_kind(self):
        # the kind is checked where the submodel compiles, which knows the
        # term's place, not by the term itself
        data = problem_to_dict(steady_pair_2d())
        data["master"]["operator"][1]["kind"] = "banana"
        with pytest.raises(ConfigError) as err:
            problem_from_dict(data)
        assert err.value.field == "master.operator[1].kind"
        spec = dataclasses.replace(steady_pair_2d().slave, operator=(AffineTerm(kind="banana"),))
        with pytest.raises(ConfigError) as err:
            spec.compiled
        assert err.value.field == "submodel.operator[0].kind"

    def test_advection_needs_vector(self):
        data = problem_to_dict(steady_pair_2d())
        data["master"]["operator"] += ({"kind": "advection", "coefficient": "1.0"},)
        with pytest.raises(ConfigError) as err:
            problem_from_dict(data)
        assert err.value.field == "master.operator[2].coefficient"

    def test_one_axis_box_is_config_error(self):
        # fem builds 1-D boxes for the factors of a term, but a submodel's
        # box has 2 or 3 axes
        data = problem_to_dict(steady_pair_2d())
        data["slave"]["mesh"].update(origin=[1.0], extent=[1.0], subdivisions=[2])
        with pytest.raises(ConfigError) as err:
            problem_from_dict(data)
        assert err.value.field == "slave.mesh.extent"

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

    def test_operator_weight_reading_time_refused(self):
        # operator weights are theta_q(mu), assembled once per query
        data = problem_to_dict(heat_laplace_pair())
        data["master"]["operator"][0]["theta"] = "alpha*(1+100*t)"
        with pytest.raises(ConfigError) as err:
            problem_from_dict(data)
        assert err.value.field == "master.operator[0].theta"
        # load weights are theta_k(mu, t)
        data["master"]["operator"][0]["theta"] = "alpha"
        data["master"]["forcing"][0]["theta"] = "alpha*(1+100*t)"
        compiled = problem_from_dict(data).master.compiled
        assert [timed for _, timed in compiled.forcing_weights] == [True]

    def test_validated_spec_pickles(self):
        spec = heat_laplace_pair()
        spec.validate()
        again = pickle.loads(pickle.dumps(spec))
        assert again == spec and "compiled" not in vars(again.master)
        assert again.master.compiled.operator_weights[0].co_names == ("alpha",)

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


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted(
    [*(ROOT / "configs").glob("*.json"), *(ROOT / "perfbench" / "configs").glob("*.json")]
)


FAMILIES = {
    "steady-reaction-diffusion": steady_reaction_diffusion_pair,
    "steady-2d": steady_pair_2d,
    "heat-laplace": heat_laplace_pair,
    "transport-wall": transport_wall_pair,
}


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES)
def test_json_form_survives_a_round_trip(family):
    spec = family()
    text = json.dumps(problem_to_dict(spec), sort_keys=True)
    again = problem_from_dict(json.loads(text))
    assert json.dumps(problem_to_dict(again), sort_keys=True) == text
    assert again == spec
    data = json.loads(text)
    assert ("time" in data) == spec.is_unsteady
    for side in ("master", "slave"):
        for term, raw in zip(getattr(spec, side).operator, data[side]["operator"]):
            if term.kind == "advection":  # a velocity is a JSON list
                assert raw["coefficient"] == list(term.coefficient)


@pytest.mark.parametrize("path", CONFIGS, ids=[str(p.relative_to(ROOT)) for p in CONFIGS])
def test_compiled_forms_leak_into_neither_the_dict_nor_equality(path):
    spec = config_from_dict(json.loads(path.read_text())).problem
    data = problem_to_dict(spec)
    again = problem_from_dict(data)
    assert "compiled" in vars(again.master) and "compiled" in vars(again.slave)
    assert problem_to_dict(again) == data
    assert json.dumps(problem_to_dict(again)) == json.dumps(data)
    assert again == spec
