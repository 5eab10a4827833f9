"""Canonical coupled-problem configurations on box geometries.

Three families mirror the experiment suite: a steady reaction-diffusion
master feeding a Laplace slave, an unsteady heat master feeding a steady
Laplace slave, and an unsteady advection-diffusion channel feeding an
unsteady diffusive wall.  Slave subdivisions that divide the master's give
nested (non-conforming but pointwise-matching) interfaces; any others give
non-nested ones, whose slave trace points lie between master trace points.
"""

from __future__ import annotations

from .problems import (
    AffineTerm,
    BoxMeshSpec,
    CoupledProblemSpec,
    ForcingTerm,
    SubmodelSpec,
    TimeSpec,
)
from .sampling import ParameterSpace

#: forcing of the steady reaction-diffusion experiment
STEADY_FORCING = "pi/4 * y * x**2 * sin(pi/2*y) * exp(z - 1)"
#: forcing of the unsteady heat experiment
HEAT_FORCING = "1 - sin(pi*y)*cos(pi/2*x)"


def steady_reaction_diffusion_pair(
    master_subdivisions=(8, 8, 8),
    slave_subdivisions=(4, 4, 4),
    master_order: int = 1,
    slave_order: int = 1,
    alpha_range=(0.5, 5.0),
    beta_range=(0.5, 5.0),
) -> CoupledProblemSpec:
    """Steady pair: ``-div(alpha grad u) + beta u = f`` on the first unit
    cube, Laplace on the second, coupled over the shared face ``x = 1``."""
    master = SubmodelSpec(
        mesh=BoxMeshSpec((0, 0, 0), (1, 1, 1), tuple(master_subdivisions), master_order),
        operator=(
            AffineTerm(kind="diffusion", theta="alpha", coefficient=1.0),
            AffineTerm(kind="reaction", theta="beta", coefficient=1.0),
        ),
        forcing=(ForcingTerm(theta=1.0, profile=STEADY_FORCING),),
        dirichlet={"x-": 0.0},
        parameters=ParameterSpace(names=("alpha", "beta"), ranges=(alpha_range, beta_range)),
        interface_tag="x+",
    )
    slave = SubmodelSpec(
        mesh=BoxMeshSpec((1, 0, 0), (1, 1, 1), tuple(slave_subdivisions), slave_order),
        operator=(AffineTerm(kind="diffusion", theta=1.0, coefficient=1.0),),
        interface_tag="x-",
    )
    return CoupledProblemSpec(master=master, slave=slave, name="steady-reaction-diffusion")


def heat_laplace_pair(
    master_subdivisions=(8, 8, 8),
    slave_subdivisions=(4, 4, 4),
    alpha_range=(1e-3, 5.0),
    dt: float = 0.01,
    n_steps: int = 50,
) -> CoupledProblemSpec:
    """Unsteady-steady pair: heat equation with parametrized diffusivity on
    the first cube, instantaneous Laplace response on the second.

    The diffusivity lower bound stays strictly positive (the operator must
    remain elliptic), and the horizon keeps the transient active so the
    master reduction visibly dominates the coupled error when loose.
    """
    master = SubmodelSpec(
        mesh=BoxMeshSpec((0, 0, 0), (1, 1, 1), tuple(master_subdivisions), 1),
        operator=(AffineTerm(kind="diffusion", theta="alpha", coefficient=1.0),),
        forcing=(ForcingTerm(theta=1.0, profile=HEAT_FORCING),),
        dirichlet={"x-": 0.0},
        parameters=ParameterSpace(names=("alpha",), ranges=(alpha_range,)),
        interface_tag="x+",
        unsteady=True,
        initial=0.0,
    )
    slave = SubmodelSpec(
        mesh=BoxMeshSpec((1, 0, 0), (1, 1, 1), tuple(slave_subdivisions), 1),
        operator=(AffineTerm(kind="diffusion", theta=1.0, coefficient=1.0),),
        interface_tag="x-",
    )
    return CoupledProblemSpec(
        master=master, slave=slave, time=TimeSpec(dt=dt, n_steps=n_steps),
        name="heat-laplace",
    )


def transport_wall_pair(
    channel_subdivisions=(10, 6, 6),
    wall_subdivisions=(5, 3, 3),
    inflow_range=(0.1, 1.0),
    diffusivity: float = 0.05,
    wall_diffusivity: float = 0.04,
    dt: float = 0.02,
    n_steps: int = 40,
) -> CoupledProblemSpec:
    """Unsteady-unsteady pair: advected scalar in a channel feeding a
    diffusive wall layer through the face ``y = 1``.

    The inflow concentration scales the forcing; the velocity profile is a
    fixed parabolic field along x.  Diffusivities keep the cell Peclet
    number moderate (no stabilization is used).
    """
    master = SubmodelSpec(
        mesh=BoxMeshSpec((0, 0, 0), (2, 1, 1), tuple(channel_subdivisions), 1),
        operator=(
            AffineTerm(kind="diffusion", theta=1.0, coefficient=diffusivity),
            AffineTerm(
                kind="advection",
                theta=1.0,
                coefficient=("4*z*(1-z)", "0.0", "0.0"),
            ),
        ),
        forcing=(ForcingTerm(theta="zeta", profile="exp(-8*((x-0.4)**2+(z-0.5)**2))"),),
        dirichlet={"x-": 0.0},
        parameters=ParameterSpace(names=("zeta",), ranges=(inflow_range,)),
        interface_tag="y+",
        unsteady=True,
        initial=0.0,
    )
    slave = SubmodelSpec(
        mesh=BoxMeshSpec((0, 1, 0), (2, 0.2, 1), tuple(wall_subdivisions), 1),
        operator=(AffineTerm(kind="diffusion", theta=1.0, coefficient=wall_diffusivity),),
        dirichlet={"y+": 0.0},
        interface_tag="y-",
        unsteady=True,
        initial=0.0,
    )
    return CoupledProblemSpec(
        master=master, slave=slave, time=TimeSpec(dt=dt, n_steps=n_steps),
        name="transport-wall",
    )


def steady_pair_2d(
    master_subdivisions=(8, 8),
    slave_subdivisions=(4, 4),
    alpha_range=(0.5, 5.0),
    beta_range=(0.5, 5.0),
) -> CoupledProblemSpec:
    """2D analog of the steady pair, for fast tests."""
    master = SubmodelSpec(
        mesh=BoxMeshSpec((0, 0), (1, 1), tuple(master_subdivisions), 1),
        operator=(
            AffineTerm(kind="diffusion", theta="alpha", coefficient=1.0),
            AffineTerm(kind="reaction", theta="beta", coefficient=1.0),
        ),
        forcing=(ForcingTerm(theta=1.0, profile="sin(pi/2*y)*x**2 + 0.5"),),
        dirichlet={"x-": 0.0},
        parameters=ParameterSpace(names=("alpha", "beta"), ranges=(alpha_range, beta_range)),
        interface_tag="x+",
    )
    slave = SubmodelSpec(
        mesh=BoxMeshSpec((1, 0), (1, 1), tuple(slave_subdivisions), 1),
        operator=(AffineTerm(kind="diffusion", theta=1.0, coefficient=1.0),),
        interface_tag="x-",
    )
    return CoupledProblemSpec(master=master, slave=slave, name="steady-2d")
