"""Declarative coupled-problem descriptions.

A coupled problem is two submodels (master and slave) on axis-aligned boxes
plus an interface pairing and an optional time grid.  Operators and forcing
are declared as affine expansions ``sum_q theta_q(mu, t) * term_q`` where each
term's spatial profile depends on position only; this is what lets all
full-order matrices be assembled once and every online operation stay in
reduced dimensions.  Spatial profiles and parameter weights are plain
expression strings evaluated with numpy semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import CodeType
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError
from .mesh import Mesh, build_box_mesh, face_ids
from .sampling import ParameterSpace

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "cosh": np.cosh,
    "sinh": np.sinh,
    "abs": np.abs,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "pi": np.pi,
    "e": np.e,
}

_SPATIAL_NAMES = {"x", "y", "z"}


def _names(code: CodeType) -> set[str]:
    """The global names that ``code`` reads, in its own code or in a nested
    one (a comprehension has its own)."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            names |= _names(const)
    return names


def compile_expression(source: str, allowed: set[str], where: str = "expression"):
    """Compile an expression string, rejecting names outside ``allowed``."""
    try:
        code = compile(source, f"<{where}>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse {source!r}: {exc}", field=where)
    bad = _names(code) - allowed - set(_FUNCTIONS)
    if bad:
        raise ConfigError(
            f"unknown name(s) {sorted(bad)} in {source!r}", field=where
        )
    return code


def eval_spatial(value, points: np.ndarray):
    """Evaluate a spatial profile (number or expression in x, y, z)."""
    if not isinstance(value, str):
        return np.broadcast_to(float(value), points.shape[:-1])
    code = compile_expression(value, _SPATIAL_NAMES, "spatial profile")
    # the names are globals, so that a comprehension's own code reads them too
    env = {
        "__builtins__": {},
        "x": points[..., 0],
        "y": points[..., 1],
        "z": points[..., 2] if points.shape[-1] > 2 else 0.0,
        **_FUNCTIONS,
    }
    out = eval(code, env)
    return np.broadcast_to(np.asarray(out, dtype=float), points.shape[:-1])


def eval_theta(value, mu: Mapping[str, float], t: float | None = None) -> float:
    """Evaluate a parameter/time weight: a number, an expression, or an
    expression already compiled by ``compile_expression``."""
    if isinstance(value, str):
        value = compile_expression(value, set(mu) | {"t"}, "theta")
    elif not isinstance(value, CodeType):
        return float(value)
    env = {"__builtins__": {}, **mu, "t": 0.0 if t is None else float(t), **_FUNCTIONS}
    return float(eval(value, env))


def reads_time(value) -> bool:
    """Whether a weight compiled by ``compile_expression`` reads ``t``; a
    number never does."""
    return isinstance(value, CodeType) and "t" in _names(value)


def spatial_coefficient(value) -> Callable[[np.ndarray], np.ndarray]:
    """A spatial profile as a function of the points ``(..., dim)``; a tuple
    of profiles (a velocity) stacks its components on a last axis."""
    if isinstance(value, (tuple, list)):
        comps = tuple(value)
        return lambda pts: np.stack([eval_spatial(c, pts) for c in comps], axis=-1)
    return lambda pts: eval_spatial(value, pts)


OPERATOR_KINDS = ("diffusion", "reaction", "advection")


@dataclass(frozen=True)
class AffineTerm:
    """One operator term: ``theta(mu, t) * assemble(kind, coefficient)``."""

    kind: str
    theta: str | float = 1.0
    coefficient: object = 1.0  # number, expression, or tuple of expressions

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ConfigError(
                f"operator kind must be one of {OPERATOR_KINDS}, got {self.kind!r}"
            )
        if self.kind == "advection" and not isinstance(self.coefficient, (tuple, list)):
            raise ConfigError("advection terms need a velocity component tuple")


@dataclass(frozen=True)
class ForcingTerm:
    """One load term: ``theta(mu, t) * integral(profile(x) * test)``."""

    theta: str | float = 1.0
    profile: str | float = 0.0


@dataclass(frozen=True)
class BoxMeshSpec:
    origin: tuple[float, ...]
    extent: tuple[float, ...]
    subdivisions: tuple[int, ...]
    order: int = 1

    def build(self) -> Mesh:
        return build_box_mesh(self.origin, self.extent, self.subdivisions, self.order)


EMPTY_SPACE = ParameterSpace(names=(), ranges=())


@dataclass(frozen=True)
class SubmodelSpec:
    """One side of the coupled problem."""

    mesh: BoxMeshSpec
    operator: tuple[AffineTerm, ...]
    interface_tag: str
    forcing: tuple[ForcingTerm, ...] = ()
    dirichlet: Mapping[str, float] = field(default_factory=dict)
    parameters: ParameterSpace = EMPTY_SPACE
    unsteady: bool = False
    initial: str | float = 0.0

    def validate(self, role: str) -> None:
        if not self.operator:
            raise ConfigError("operator expansion is empty", field=f"{role}.operator")
        names = set(self.parameters.names)
        for i, term in enumerate(self.operator):
            if isinstance(term.theta, str):
                compile_expression(term.theta, names | {"t"}, f"{role}.operator[{i}].theta")
        for i, term in enumerate(self.forcing):
            if isinstance(term.theta, str):
                compile_expression(term.theta, names | {"t"}, f"{role}.forcing[{i}].theta")
            if isinstance(term.profile, str):
                compile_expression(term.profile, _SPATIAL_NAMES, f"{role}.forcing[{i}].profile")
        valid_faces = set(face_ids(len(self.mesh.extent)))
        for face in self.dirichlet:
            if face not in valid_faces:
                raise ConfigError(
                    f"unknown Dirichlet face {face!r}", field=f"{role}.dirichlet"
                )
        if self.interface_tag not in valid_faces:
            raise ConfigError(
                f"interface tag {self.interface_tag!r} is not a face of this mesh",
                field=f"{role}.interface_tag",
            )


@dataclass(frozen=True)
class TimeSpec:
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0 or self.n_steps < 1:
            raise ConfigError("time grid needs dt > 0 and n_steps >= 1", field="time")

    def instants(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class CoupledProblemSpec:
    """Master model, slave model and their coupling."""

    master: SubmodelSpec
    slave: SubmodelSpec
    time: TimeSpec | None = None
    name: str = "coupled-problem"

    def validate(self) -> None:
        self.master.validate("master")
        self.slave.validate("slave")
        if (self.master.unsteady or self.slave.unsteady) and self.time is None:
            raise ConfigError("unsteady submodels require a time grid", field="time")
        if self.slave.unsteady and not self.master.unsteady:
            raise ConfigError(
                "an unsteady slave driven by a steady master is not supported",
                field="slave.unsteady",
            )

    @property
    def is_unsteady(self) -> bool:
        return self.master.unsteady or self.slave.unsteady

    def with_time(self, dt: float, n_steps: int) -> "CoupledProblemSpec":
        return replace(self, time=TimeSpec(dt=dt, n_steps=n_steps))


# ---------------------------------------------------------------------------
# JSON round trip


def _term_to_dict(term: AffineTerm) -> dict:
    coeff = term.coefficient
    if isinstance(coeff, tuple):
        coeff = list(coeff)
    return {"kind": term.kind, "theta": term.theta, "coefficient": coeff}


def submodel_to_dict(spec: SubmodelSpec) -> dict:
    return {
        "mesh": {
            "origin": list(spec.mesh.origin),
            "extent": list(spec.mesh.extent),
            "subdivisions": list(spec.mesh.subdivisions),
            "order": spec.mesh.order,
        },
        "operator": [_term_to_dict(t) for t in spec.operator],
        "forcing": [{"theta": t.theta, "profile": t.profile} for t in spec.forcing],
        "dirichlet": dict(spec.dirichlet),
        "parameters": {
            "names": list(spec.parameters.names),
            "ranges": [list(r) for r in spec.parameters.ranges],
        },
        "interface_tag": spec.interface_tag,
        "unsteady": spec.unsteady,
        "initial": spec.initial,
    }


def problem_to_dict(spec: CoupledProblemSpec) -> dict:
    out = {
        "name": spec.name,
        "master": submodel_to_dict(spec.master),
        "slave": submodel_to_dict(spec.slave),
    }
    if spec.time is not None:
        out["time"] = {"dt": spec.time.dt, "n_steps": spec.time.n_steps}
    return out


def _require(mapping: Mapping, key: str, where: str):
    if key not in config_mapping(mapping, where):
        raise ConfigError(f"missing required key {key!r}", field=where)
    return mapping[key]


def config_value(convert, raw, where: str):
    """``convert(raw)`` for one config value; a value of the wrong type or
    shape raises ``ConfigError`` naming its field ``where``."""
    try:
        return convert(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value {raw!r} ({exc})", field=where) from None


def config_mapping(raw, where: str) -> Mapping:
    """``raw``, a config section: anything else raises ``ConfigError``."""
    if not isinstance(raw, Mapping):
        raise ConfigError(f"must be a mapping, got {type(raw).__name__}", field=where)
    return raw


def _ranges(raw) -> tuple[tuple[float, float], ...]:
    return tuple((float(lo), float(hi)) for lo, hi in raw)


def submodel_from_dict(data: Mapping, where: str) -> SubmodelSpec:
    mesh = _require(data, "mesh", where)
    terms = []
    for i, t in enumerate(_require(data, "operator", where)):
        kind = _require(t, "kind", f"{where}.operator[{i}]")
        coeff = t.get("coefficient", 1.0)
        if isinstance(coeff, list):
            coeff = tuple(coeff)
        terms.append(AffineTerm(kind=kind, theta=t.get("theta", 1.0), coefficient=coeff))
    params = config_mapping(data.get("parameters", {}), f"{where}.parameters")
    forcing = [config_mapping(t, f"{where}.forcing[{i}]")
               for i, t in enumerate(data.get("forcing", []))]
    return SubmodelSpec(
        mesh=BoxMeshSpec(
            origin=config_value(tuple, _require(mesh, "origin", f"{where}.mesh"),
                                f"{where}.mesh.origin"),
            extent=config_value(tuple, _require(mesh, "extent", f"{where}.mesh"),
                                f"{where}.mesh.extent"),
            subdivisions=config_value(
                lambda v: tuple(int(n) for n in v),
                _require(mesh, "subdivisions", f"{where}.mesh"),
                f"{where}.mesh.subdivisions",
            ),
            order=config_value(int, mesh.get("order", 1), f"{where}.mesh.order"),
        ),
        operator=tuple(terms),
        forcing=tuple(
            ForcingTerm(theta=t.get("theta", 1.0), profile=t.get("profile", 0.0)) for t in forcing
        ),
        dirichlet={
            str(k): config_value(float, v, f"{where}.dirichlet.{k}")
            for k, v in config_mapping(data.get("dirichlet", {}), f"{where}.dirichlet").items()
        },
        parameters=ParameterSpace(
            names=tuple(params.get("names", [])),
            ranges=config_value(_ranges, params.get("ranges", []), f"{where}.parameters.ranges"),
        ),
        interface_tag=str(_require(data, "interface_tag", where)),
        unsteady=bool(data.get("unsteady", False)),
        initial=data.get("initial", 0.0),
    )


def problem_from_dict(data: Mapping) -> CoupledProblemSpec:
    time = None
    if "time" in data and data["time"] is not None:
        time = TimeSpec(
            dt=config_value(float, _require(data["time"], "dt", "time"), "time.dt"),
            n_steps=config_value(int, _require(data["time"], "n_steps", "time"), "time.n_steps"),
        )
    spec = CoupledProblemSpec(
        master=submodel_from_dict(_require(data, "master", "problem"), "master"),
        slave=submodel_from_dict(_require(data, "slave", "problem"), "slave"),
        time=time,
        name=str(data.get("name", "coupled-problem")),
    )
    spec.validate()
    return spec
