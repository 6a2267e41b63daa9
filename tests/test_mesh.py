import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from memfem.mesh import structured_unit_square, uniform_mesh1d


def test_uniform_mesh1d_nodes():
    mesh = uniform_mesh1d(1.0, 4)
    assert_array_equal(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh.h == 0.25
    assert mesh.n_elements == 4


def test_uniform_mesh1d_validation():
    with pytest.raises(ValueError):
        uniform_mesh1d(1.0, 0)
    with pytest.raises(ValueError):
        uniform_mesh1d(-1.0, 4)


def test_mesh1d_beam_pair_dof_count():
    # n = 20 gives h = 0.05 and a 2*(n+1) = 42 dof nodal pair
    mesh = uniform_mesh1d(1.0, 20)
    assert_allclose(mesh.h, 0.05, rtol=1e-14)
    assert 2 * mesh.nodes.size == 42


def test_mesh1d_refinement_nesting():
    for n in (5, 8, 20):
        coarse = uniform_mesh1d(1.0, n)
        fine = uniform_mesh1d(1.0, 2 * n)
        assert_array_equal(fine.nodes[::2], coarse.nodes)


def test_mesh1d_exactly_uniform():
    mesh = uniform_mesh1d(3.0, 7)
    lengths = mesh.cell_lengths
    assert np.max(lengths) / np.min(lengths) < 1.0 + 1e-14


def test_trimesh_rejects_clockwise_triangles():
    import numpy
    from memfem.mesh import TriMesh
    vertices = numpy.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="counterclockwise"):
        TriMesh(vertices, numpy.array([[0, 2, 1]]))


def test_unit_square_counts_m1():
    mesh = structured_unit_square(1)
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2
    assert mesh.n_edges == 5


def test_unit_square_counts_m2_euler():
    mesh = structured_unit_square(2)
    assert mesh.n_vertices == 9
    assert mesh.n_triangles == 8
    assert mesh.n_edges == 16
    # Euler characteristic with the outer face counted
    assert mesh.n_vertices - mesh.n_edges + (mesh.n_triangles + 1) == 2


def test_unit_square_total_area():
    for m in (1, 2, 3, 8):
        mesh = structured_unit_square(m)
        assert_allclose(np.sum(mesh.areas), 1.0, rtol=0, atol=1e-14)
        assert np.all(mesh.areas > 0)


def test_unit_square_interior_edges_shared_twice():
    mesh = structured_unit_square(3)
    counts = np.zeros(mesh.n_edges, dtype=int)
    for k in range(mesh.n_triangles):
        counts[mesh.tri_edges[k]] += 1
    assert set(np.unique(counts)) <= {1, 2}
    assert_array_equal(counts == 1, mesh.boundary_edge)
    # boundary of the unit square has 2*4*m edges... each side has m
    # cell edges, so 4m boundary edges total
    assert mesh.boundary_edge.sum() == 4 * 3


def test_mesh_determinism():
    a = structured_unit_square(4)
    b = structured_unit_square(4)
    assert_array_equal(a.edges, b.edges)
    assert_array_equal(a.tri_edges, b.tri_edges)
    assert_array_equal(a.tri_edge_signs, b.tri_edge_signs)
    ma = uniform_mesh1d(1.0, 16)
    mb = uniform_mesh1d(1.0, 16)
    assert_array_equal(ma.nodes, mb.nodes)


def test_dofmap_counts():
    # one dof per P1 node / P0 element / RT0 edge / P0 triangle
    line = uniform_mesh1d(1.0, 20)
    assert line.nodes.size == 21
    assert line.n_elements == 20
    square = structured_unit_square(2)
    assert square.n_edges == 16
    assert square.n_triangles == 8


def loop_edge_numbering(triangles):
    """Edges, edge of each local edge, signs and boundary flags, numbered
    one local edge at a time in order of first appearance."""
    index, count = {}, []
    tri_edges = np.empty_like(triangles)
    signs = np.empty_like(triangles)
    for k, tri in enumerate(triangles):
        for loc in range(3):
            a, b = int(tri[(loc + 1) % 3]), int(tri[(loc + 2) % 3])
            key = (min(a, b), max(a, b))
            if key not in index:
                index[key] = len(index)
                count.append(0)
            count[index[key]] += 1
            tri_edges[k, loc] = index[key]
            signs[k, loc] = 1 if a < b else -1
    return (np.array(list(index), dtype=int), tri_edges, signs,
            np.array(count) == 1)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_edge_numbering_matches_loop_reference(m):
    from memfem.mesh import TriMesh
    square = structured_unit_square(m)
    # the structured mesh and one with its triangles shuffled and rotated
    rng = np.random.default_rng(m)
    tris = np.roll(square.triangles[rng.permutation(square.n_triangles)],
                   1, axis=1)
    for mesh in (square, TriMesh(square.vertices, tris)):
        want = loop_edge_numbering(mesh.triangles)
        got = (mesh.edges, mesh.tri_edges, mesh.tri_edge_signs,
               mesh.boundary_edge)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert_array_equal(g, w)


def test_trimesh_rejects_edge_in_three_triangles():
    from memfem.mesh import TriMesh
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0],
                         [0.5, 3.0]])
    with pytest.raises(ValueError, match="non-conforming"):
        TriMesh(vertices, np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]]))
