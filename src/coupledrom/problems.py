"""Declarative coupled-problem descriptions.

A coupled problem is two submodels (master and slave) on axis-aligned boxes
plus an interface pairing and an optional time grid.  Operators and loads
are affine expansions ``sum_q theta_q(mu) A_q`` and ``sum_k theta_k(mu, t) f_k``
whose terms' spatial profiles depend on position only; this is what lets all
full-order matrices be assembled once and every online operation stay in
reduced dimensions.  Profiles and weights are numbers or expression strings
with numpy semantics, which each spec compiles once (``SubmodelSpec.compiled``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from functools import cached_property
from types import CodeType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError
from .mesh import AXIS_NAMES, Mesh, build_box_mesh, face_ids
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


def _compile_value(value, allowed: set[str], where: str, components: int = 0):
    """A number as a float, an expression string compiled against ``allowed``,
    or with ``components`` a velocity of that many as a tuple; anything else
    raises ``ConfigError`` naming its field ``where``."""
    if components:
        if not isinstance(value, (tuple, list)) or len(value) != components:
            raise ConfigError(
                f"needs {components} velocity components, got {value!r}", field=where
            )
        return tuple(_compile_value(c, allowed, f"{where}[{j}]") for j, c in enumerate(value))
    if isinstance(value, str):
        return compile_expression(value, allowed, where)
    if isinstance(value, numbers.Real) and math.isfinite(value):
        return float(value)
    raise ConfigError(f"must be a finite number or an expression, got {value!r}", field=where)


def _coordinates(value) -> set[str]:
    """The coordinates among x, y, z that a compiled spatial profile reads."""
    return _names(value) & _SPATIAL_NAMES if isinstance(value, CodeType) else set()


def eval_spatial(value, points: np.ndarray):
    """Evaluate a compiled spatial profile (a float, or code in x, y, z)."""
    if not isinstance(value, CodeType):
        return np.broadcast_to(float(value), points.shape[:-1])
    # the names are globals, so that a comprehension's own code reads them too
    env = {
        "__builtins__": {},
        "x": points[..., 0],
        "y": points[..., 1],
        "z": points[..., 2] if points.shape[-1] > 2 else 0.0,
        **_FUNCTIONS,
    }
    out = eval(value, env)
    return np.broadcast_to(np.asarray(out, dtype=float), points.shape[:-1])


def eval_theta(value, mu: Mapping[str, float], t: float | None = None) -> float:
    """Evaluate a compiled weight: a float, or code from ``compile_expression``."""
    if not isinstance(value, CodeType):
        return float(value)
    env = {"__builtins__": {}, **mu, "t": 0.0 if t is None else float(t), **_FUNCTIONS}
    return float(eval(value, env))


def spatial_coefficient(value) -> Callable[[np.ndarray], np.ndarray]:
    """A compiled spatial profile as a function of the points ``(..., dim)``;
    a velocity, a tuple of profiles, stacks its components on a last axis."""
    if isinstance(value, tuple):
        return lambda pts: np.stack([eval_spatial(c, pts) for c in value], axis=-1)
    return lambda pts: eval_spatial(value, pts)


OPERATOR_KINDS = ("diffusion", "reaction", "advection")


@dataclass(frozen=True)
class AffineTerm:
    """One operator term: ``theta(mu) * assemble(kind, coefficient)``."""

    kind: str
    theta: str | float = 1.0
    coefficient: object = 1.0  # number or expression; for advection, a velocity tuple


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


class CompiledSubmodel(NamedTuple):
    """A spec's numbers as floats and expression strings as code, in spec order."""

    operator_weights: tuple  # theta_q(mu)
    forcing_weights: tuple[tuple[object, bool], ...]  # (theta_k(mu, t), whether it reads t)
    coefficients: tuple  # in x, y, z; a velocity is a tuple of components
    profiles: tuple  # in x, y, z
    initial: float | CodeType  # in x, y, z


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

    @cached_property
    def compiled(self) -> CompiledSubmodel:
        """Every expression the spec declares, compiled once per spec object:
        by ``validate``, whose errors name the fields under its role."""
        return self._compile("submodel")

    @property
    def separated_axes(self) -> tuple[int, ...]:
        """The axes (0 = x) along which every operator term separates: no
        coefficient reads the axis's coordinate, and every advection
        velocity's component along it is the number 0, an expression that
        reads no coordinate counting by its value.  Along such an axis each
        term is a Kronecker form of the axis's 1-D mass or stiffness, which
        ``fem.FastDiagonalization`` diagonalizes."""
        origin = np.zeros((1, 3))

        def separates(axis: int, name: str) -> bool:
            for value in self.compiled.coefficients:
                parts = value if isinstance(value, tuple) else (value,)
                if any(name in _coordinates(v) for v in parts):
                    return False
                if isinstance(value, tuple) and (
                    _coordinates(value[axis]) or eval_spatial(value[axis], origin)[0] != 0.0
                ):
                    return False
            return True

        return tuple(
            axis for axis, name in enumerate(AXIS_NAMES[: len(self.mesh.extent)])
            if separates(axis, name)
        )

    def __getstate__(self) -> dict:
        # code does not pickle: an unpickled or copied spec compiles again
        return {k: v for k, v in self.__dict__.items() if k != "compiled"}

    def _compile(self, role: str) -> CompiledSubmodel:
        names, dim = set(self.parameters.names), len(self.mesh.extent)
        given = self.parameters.names
        for i, name in enumerate(given):
            reserved = name == "t" or name in _FUNCTIONS
            if reserved or name in given[:i]:
                why = "a name that expressions reserve" if reserved else "repeated"
                raise ConfigError(f"{name!r} is {why}", field=f"{role}.parameters.names")
        op = f"{role}.operator"
        for i, term in enumerate(self.operator):
            if term.kind not in OPERATOR_KINDS:
                raise ConfigError(
                    f"must be one of {OPERATOR_KINDS}, got {term.kind!r}", field=f"{op}[{i}].kind"
                )

        def each(group: str, attr: str, allowed: set[str]) -> tuple:
            return tuple(
                _compile_value(getattr(term, attr), allowed, f"{role}.{group}[{i}].{attr}")
                for i, term in enumerate(getattr(self, group))
            )

        return CompiledSubmodel(
            operator_weights=each("operator", "theta", names),
            forcing_weights=tuple(
                (w, isinstance(w, CodeType) and "t" in _names(w))
                for w in each("forcing", "theta", names | {"t"})
            ),
            coefficients=tuple(
                _compile_value(term.coefficient, _SPATIAL_NAMES, f"{op}[{i}].coefficient",
                               dim if term.kind == "advection" else 0)
                for i, term in enumerate(self.operator)
            ),
            profiles=each("forcing", "profile", _SPATIAL_NAMES),
            initial=_compile_value(self.initial, _SPATIAL_NAMES, f"{role}.initial"),
        )

    def validate(self, role: str) -> None:
        if not self.operator:
            raise ConfigError("operator expansion is empty", field=f"{role}.operator")
        if "compiled" not in self.__dict__:  # the cached property's slot
            self.__dict__["compiled"] = self._compile(role)
        if len(self.mesh.extent) not in (2, 3):
            raise ConfigError(
                f"a submodel's box has 2 or 3 axes, got {len(self.mesh.extent)}",
                field=f"{role}.mesh.extent",
            )
        for name in ("origin", "extent"):
            values = getattr(self.mesh, name)
            if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in values):
                raise ConfigError(f"must be finite, got {values!r}", field=f"{role}.mesh.{name}")
        mesh = self.mesh
        for name, values in (("subdivisions", mesh.subdivisions), ("order", (mesh.order,))):
            for v in values:
                config_value(json_integer, v, f"{role}.mesh.{name}")
        if not isinstance(self.unsteady, bool):
            raise ConfigError(f"must be true or false, got {self.unsteady!r}",
                              field=f"{role}.unsteady")
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
        config_value(json_integer, self.n_steps, "time.n_steps")
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"must be a finite number > 0, got {self.dt!r}", field="time.dt")
        if self.n_steps < 1:
            raise ConfigError(f"must be >= 1, got {self.n_steps!r}", field="time.n_steps")

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
        """Whether the problem has a time grid: one state per instant."""
        return self.time is not None


# ---------------------------------------------------------------------------
# JSON round trip


def problem_to_dict(spec: CoupledProblemSpec) -> dict:
    """The spec's JSON form: its fields, with tuples for JSON lists, and no
    ``time`` key for a steady problem."""
    out = asdict(spec)
    if spec.time is None:
        del out["time"]
    return out


def _require(mapping: Mapping, key: str, where: str):
    if key not in config_mapping(mapping, where):
        raise ConfigError(f"missing required key {key!r}", field=where)
    return mapping[key]


def config_value(convert, raw, where: str):
    """``convert(raw)`` for one config value; a value of the wrong type or
    shape, or one that ``convert`` refuses naming no field, raises
    ``ConfigError`` naming its field ``where``."""
    try:
        return convert(raw)
    except (TypeError, ValueError, ConfigError) as exc:
        if isinstance(exc, ConfigError) and exc.field:
            raise
        raise ConfigError(f"invalid value {raw!r} ({exc})", field=where) from None


def json_integer(raw) -> int:
    """``raw`` if it is an integer: a bool, a float or a string is refused."""
    if isinstance(raw, bool) or not isinstance(raw, numbers.Integral):
        raise TypeError(f"must be an integer, got {type(raw).__name__}")
    return int(raw)


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
            subdivisions=config_value(tuple, _require(mesh, "subdivisions", f"{where}.mesh"),
                                      f"{where}.mesh.subdivisions"),
            order=mesh.get("order", 1),
        ),
        operator=tuple(terms),
        forcing=tuple(
            ForcingTerm(theta=t.get("theta", 1.0), profile=t.get("profile", 0.0)) for t in forcing
        ),
        dirichlet={
            str(k): config_value(float, v, f"{where}.dirichlet.{k}")
            for k, v in config_mapping(data.get("dirichlet", {}), f"{where}.dirichlet").items()
        },
        parameters=config_value(
            lambda ranges: ParameterSpace(tuple(params.get("names", [])), _ranges(ranges)),
            params.get("ranges", []), f"{where}.parameters.ranges",
        ),
        interface_tag=str(_require(data, "interface_tag", where)),
        unsteady=data.get("unsteady", False),
        initial=data.get("initial", 0.0),
    )


def problem_from_dict(data: Mapping) -> CoupledProblemSpec:
    time = None
    if "time" in data and data["time"] is not None:
        time = TimeSpec(
            dt=config_value(float, _require(data["time"], "dt", "time"), "time.dt"),
            n_steps=_require(data["time"], "n_steps", "time"),
        )
    spec = CoupledProblemSpec(
        master=submodel_from_dict(_require(data, "master", "problem"), "master"),
        slave=submodel_from_dict(_require(data, "slave", "problem"), "slave"),
        time=time,
        name=str(data.get("name", "coupled-problem")),
    )
    spec.validate()
    return spec
