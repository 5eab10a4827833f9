import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledrom.errors import InvalidGeometryError, MissingTagError
from coupledrom.mesh import (
    build_box_mesh,
    extract_interface,
    face_ids,
    flat_index,
    grid_indices,
)


def unit_cube(n, order=1):
    return build_box_mesh((0, 0, 0), (1, 1, 1), (n, n, n), order=order)


def x_fastest(sizes):
    """Every multi-index of a grid of ``sizes``, x fastest, by enumeration."""
    return np.array([p[::-1] for p in itertools.product(*(range(n) for n in sizes[::-1]))])


@pytest.mark.parametrize("sizes", [(4, 3), (2, 3, 4), (3, 1, 2), (1, 5)])
def test_lexicographic_numbering_matches_numpy_on_reversed_shapes(sizes):
    idx = grid_indices(sizes)
    unravelled = np.unravel_index(np.arange(np.prod(sizes)), sizes[::-1])[::-1]
    assert np.array_equal(idx, np.stack(unravelled, axis=1))
    assert np.array_equal(idx, x_fastest(sizes))
    ravelled = np.ravel_multi_index(tuple(idx.T[::-1]), sizes[::-1])
    assert np.array_equal(flat_index(idx, sizes), ravelled)
    assert np.array_equal(flat_index(idx, sizes), np.arange(len(idx)))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("order", [1, 2])
def test_element_nodes_are_cell_corner_plus_local_offsets(dim, order):
    origin, extent, subs = (0.5, -1.0, 2.0)[:dim], (1.7, 0.9, 2.3)[:dim], (3, 2, 4)[:dim]
    mesh = build_box_mesh(origin, extent, subs, order=order)
    spacing = np.asarray(mesh.cell_sizes) / order
    offsets = x_fastest((order + 1,) * dim)
    for c, cell in enumerate(x_fastest(subs)):
        corner = np.asarray(origin) + cell * np.asarray(mesh.cell_sizes)
        expected = corner + offsets * spacing
        assert np.allclose(mesh.node_coords[mesh.elements[c]], expected, rtol=0, atol=1e-13)


class TestBuildBoxMesh:
    def test_unit_cube_32_dof_count(self):
        mesh = unit_cube(32)
        assert mesh.n_dofs == 35937
        assert mesh.cell_diagonal == pytest.approx(np.sqrt(3) / 32, rel=1e-12)
        assert mesh.cell_diagonal == pytest.approx(0.0541266, abs=5e-8)

    def test_unit_cube_16_dof_count(self):
        mesh = unit_cube(16)
        assert mesh.n_dofs == 4913
        assert mesh.cell_diagonal == pytest.approx(0.108253, abs=5e-7)

    def test_single_element_square(self):
        mesh = build_box_mesh((0, 0), (1, 1), (1, 1), order=1)
        assert mesh.n_dofs == 4
        corners = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
        assert {tuple(c) for c in mesh.node_coords} == corners

    @given(
        subs=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        order=st.sampled_from([1, 2]),
    )
    @settings(max_examples=25, deadline=None)
    def test_dof_count_formula(self, subs, order):
        mesh = build_box_mesh((0, 0, 0), (2, 1, 3), subs, order=order)
        expected = np.prod([order * n + 1 for n in subs])
        assert mesh.n_dofs == expected

    def test_element_indices_in_range_and_tagged(self):
        mesh = unit_cube(3, order=2)
        assert mesh.elements.min() >= 0
        assert mesh.elements.max() < mesh.n_dofs

    def test_node_uniqueness(self):
        mesh = build_box_mesh((0, 0), (2, 3), (5, 7), order=2)
        rounded = np.round(mesh.node_coords / (1e-12 * max(mesh.extent)))
        assert len({tuple(r) for r in rounded}) == mesh.n_dofs

    @given(
        dims=st.sampled_from([2, 3]),
        order=st.sampled_from([1, 2]),
        n=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_cell_volumes_sum_to_box_measure(self, dims, order, n):
        extent = (1.7, 0.9, 2.3)[:dims]
        mesh = build_box_mesh((0,) * dims, extent, (n, n + 1, n)[:dims], order=order)
        vol = np.prod(mesh.cell_sizes)
        assert mesh.n_cells * vol == pytest.approx(np.prod(extent), rel=1e-12)

    def test_refinement_halves_spacing_exactly(self):
        coarse = build_box_mesh((0, 0), (1.3, 1), (3, 5), order=1)
        fine = build_box_mesh((0, 0), (1.3, 1), (6, 10), order=1)
        assert fine.cell_sizes == tuple(s / 2 for s in coarse.cell_sizes)
        for axis in range(2):
            # coarse nodes reappear bit-for-bit at even fine positions
            assert np.array_equal(fine.axis_coords(axis)[::2], coarse.axis_coords(axis))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(origin=(0, 0), extent=(1, 1), subdivisions=(0, 1)),
            dict(origin=(0, 0), extent=(0.0, 1), subdivisions=(1, 1)),
            dict(origin=(0, 0), extent=(-1, 1), subdivisions=(1, 1)),
            dict(origin=(0, 0), extent=(1, 1), subdivisions=(1, 1), order=3),
        ],
    )
    def test_invalid_geometry(self, kwargs):
        with pytest.raises(InvalidGeometryError):
            build_box_mesh(**kwargs)

    def test_unknown_face_id_rejected(self):
        # a 2-D box has no z faces; asking for one is refused, not an empty trace
        square = build_box_mesh((0, 0), (1, 1), (1, 1))
        assert "z-" not in face_ids(square.dim)
        with pytest.raises(MissingTagError):
            extract_interface(square, "z-")


class TestExtractInterface:
    def test_single_element_cube_face(self):
        mesh = unit_cube(1)
        trace = extract_interface(mesh, "x+")
        assert len(trace) == 4
        assert np.all(trace.coords[:, 0] == 1.0)

    def test_two_cube_face_count(self):
        mesh = unit_cube(2)
        trace = extract_interface(mesh, "x+")
        assert len(trace) == 9

    def test_q2_face_against_brute_force(self):
        mesh = unit_cube(4, order=2)
        trace = extract_interface(mesh, "x+")
        brute = np.nonzero(mesh.node_coords[:, 0] == 1.0)[0]
        assert len(trace) == 81
        assert np.array_equal(trace.dof_indices, brute)
        assert np.array_equal(trace.coords, mesh.node_coords[brute])

    def test_trace_is_sorted_and_consistent(self):
        mesh = build_box_mesh((0, 0, 0), (1, 2, 1), (3, 2, 4), order=2)
        trace = extract_interface(mesh, "y-")
        assert np.all(np.diff(trace.dof_indices) > 0)
        assert np.allclose(trace.coords, mesh.node_coords[trace.dof_indices])
        assert len(trace) == (3 * 2 + 1) * (4 * 2 + 1)

    def test_missing_tag(self):
        mesh = unit_cube(2)
        with pytest.raises(MissingTagError):
            extract_interface(mesh, "gamma")

    def test_grid_structure_matches_lexicographic_order(self):
        mesh = build_box_mesh((0, 0, 0), (1, 1, 1), (2, 3, 4), order=1)
        trace = extract_interface(mesh, "x+")
        # global order on the x+ face runs y fastest, then z
        ny, nz = 4, 5
        # slowest axis first, matching the lexicographic trace ordering
        shape = tuple(len(g) for g in trace.inplane_grids[::-1])
        assert shape == (nz, ny)
        ys = trace.coords[:, 1].reshape(shape)
        zs = trace.coords[:, 2].reshape(shape)
        assert np.allclose(ys, ys[0][None, :])
        assert np.allclose(zs, zs[:, 0][:, None])
