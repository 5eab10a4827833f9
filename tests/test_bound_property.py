"""Every certified bound holds, or its query raises a typed ``RomError``.

Random small pairs of the four library families, at 2-6 cells per axis, Q1
or Q2, with nested and non-nested interfaces, tolerances in 1e-8..0.3 and
2-7 training samples, each queried at up to 3 random points."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import coupledrom as cr
from coupledrom.errors import RomError
from coupledrom.experiments import query_bounds
from coupledrom.library import (
    heat_laplace_pair,
    steady_pair_2d,
    steady_reaction_diffusion_pair,
    transport_wall_pair,
)

FAMILIES = {
    "steady-2d": lambda m, s, steps: steady_pair_2d((m, m), (s, s)),
    "steady-3d": lambda m, s, steps: steady_reaction_diffusion_pair((m, m, m), (s, s, s)),
    "heat": lambda m, s, steps: heat_laplace_pair((m, m, m), (s, s, s), n_steps=steps),
    "transport": lambda m, s, steps: transport_wall_pair((m, m, m), (s, s, s), n_steps=steps),
}
TOLERANCE = st.floats(-8.0, np.log10(0.3)).map(lambda e: 10.0 ** e)


def with_order(spec, order):
    """``spec`` with both meshes of polynomial ``order``."""
    def sub(side):
        return dataclasses.replace(side, mesh=dataclasses.replace(side.mesh, order=order))

    return dataclasses.replace(spec, master=sub(spec.master), slave=sub(spec.slave))


@st.composite
def meshes(draw):
    """``(order, (master, slave) cells per axis)``: nested when the slave's
    divide the master's.  Q2 takes 2-3 cells, the nodes of Q1 at 4-6."""
    order = draw(st.sampled_from([1, 2]))
    cells = st.integers(2, 6 if order == 1 else 3)
    return order, draw(st.tuples(cells, cells))


def random_point(space, rng):
    return [rng.uniform(lo, hi) for lo, hi in space.ranges]


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    mesh=meshes(),
    n_steps=st.integers(2, 5),
    tolerances=st.tuples(TOLERANCE, TOLERANCE, TOLERANCE),
    n_train=st.integers(2, 7),
    n_queries=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_every_bound_holds_or_the_query_raises_a_rom_error(
    family, mesh, n_steps, tolerances, n_train, n_queries, seed
):
    order, cells = mesh
    spec = with_order(FAMILIES[family](*cells, n_steps), order)
    try:
        training = cr.run_training(spec, n_train, seed)
        artifacts = cr.build_artifacts(training, tolerances)
    except RomError:
        return
    fom, rng = training.fom, np.random.default_rng(seed)
    for _ in range(n_queries):
        mu1 = random_point(fom.master.spec.parameters, rng)
        mu2 = random_point(fom.slave.spec.parameters, rng)
        try:
            online = cr.online_solve(artifacts, mu1, mu2)
            reports = query_bounds(fom, artifacts, mu1, mu2, online,
                                   cr.fom_coupled_solve(fom, mu1, mu2))
        except RomError:
            continue
        assert all(r.valid for r in reports), [(r.total, r.actual_error) for r in reports]
