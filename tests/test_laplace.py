import math

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose, assert_array_equal

from memfem.errors import StabilityGateError
from memfem.laplace_mem import (
    LaplaceProblem,
    ManufacturedSolution,
    RT0Space,
    assemble_rt0_div,
    assemble_rt0_mass,
    gram_hdiv,
    gram_p0,
    laplace_accumulator,
    manufactured_rhs_base,
    probe_cell_index,
)
from memfem.mesh import TriMesh, structured_unit_square
from memfem.sparsela import infsup_estimate, kernel_ellipticity
from memfem.volterra import TimeGrid, dense_load


def interpolate_rt0(space, field):
    """Canonical edge-flux interpolant: mean normal component per edge.

    ``field(x, y)`` returns an (..., 2) array; the edge integral uses
    2-point Gauss, exact for the polynomial test fields used here.
    """
    mesh = space.mesh
    a = mesh.vertices[mesh.edges[:, 0]]
    b = mesh.vertices[mesh.edges[:, 1]]
    tang = b - a
    elen = np.hypot(tang[:, 0], tang[:, 1])
    normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / elen[:, None]
    g = 0.5 / math.sqrt(3.0)
    dofs = np.zeros(mesh.n_edges)
    for s in (0.5 - g, 0.5 + g):
        pt = a + s * tang
        vals = np.asarray(field(pt[:, 0], pt[:, 1]), float)
        dofs += 0.5 * np.einsum("ed,ed->e", vals, normal)
    return dofs


def manufactured_rhs(space, manufactured, t):
    """Cell data -(f, v) at time t via the midpoint rule."""
    base = manufactured_rhs_base(space, manufactured)
    return float(manufactured.load_factor(t)) * base


def reference_triangle_space():
    mesh = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[0, 1, 2]]))
    return RT0Space(mesh)


def test_rt0_mass_reference_triangle():
    # hand-integrated self products on the unit right triangle, edge
    # order (1,2), (0,2), (0,1) with low->high orientation
    m = assemble_rt0_mass(reference_triangle_space()).toarray()
    expected = np.array([
        [1.0 / 3.0, 0.0, 0.0],
        [0.0, 1.0 / 3.0, 1.0 / 6.0],
        [0.0, 1.0 / 6.0, 1.0 / 3.0],
    ])
    assert_allclose(m, expected, rtol=0, atol=1e-14)


def test_rt0_mass_symmetric_positive_definite():
    space = RT0Space(structured_unit_square(2))
    m = assemble_rt0_mass(space).toarray()
    assert np.max(np.abs(m - m.T)) < 1e-14
    assert np.min(np.linalg.eigvalsh(m)) > 0.0
    # sampled Rayleigh quotients on a larger mesh
    big = assemble_rt0_mass(RT0Space(structured_unit_square(6)))
    rng = np.random.RandomState(14)
    for _ in range(50):
        v = rng.standard_normal(big.shape[0])
        assert float(v @ (big @ v)) / float(v @ v) >= -1e-12


def test_rt0_mass_scaling_homogeneity():
    # scaling the mesh by 2 in both axes leaves basis values unchanged,
    # so mass entries scale with the area factor 4
    base = structured_unit_square(2)
    scaled = TriMesh(2.0 * base.vertices, base.triangles)
    m1 = assemble_rt0_mass(RT0Space(base)).toarray()
    m2 = assemble_rt0_mass(RT0Space(scaled)).toarray()
    assert_allclose(m2, 4.0 * m1, rtol=1e-13)


def test_rt0_div_entries_are_signed_edge_lengths():
    space = RT0Space(structured_unit_square(3))
    b = assemble_rt0_div(space).toarray()
    mesh = space.mesh
    elen = mesh.edge_lengths
    for k in range(mesh.n_triangles):
        for loc in range(3):
            e = mesh.tri_edges[k, loc]
            assert_allclose(b[k, e], mesh.tri_edge_signs[k, loc] * elen[e],
                            rtol=1e-14)


def test_rt0_div_m1_hand_checked():
    space = RT0Space(structured_unit_square(1))
    b = assemble_rt0_div(space).toarray()
    r2 = math.sqrt(2.0)
    expected = np.array([
        [1.0, -r2, 1.0, 0.0, 0.0],
        [0.0, r2, 0.0, -1.0, -1.0],
    ])
    assert_allclose(b, expected, rtol=0, atol=1e-14)


def test_rt0_constant_field_divergence_free():
    space = RT0Space(structured_unit_square(3))
    dofs = interpolate_rt0(space, lambda x, y: np.stack(
        [np.ones_like(x), np.zeros_like(x)], axis=-1))
    b = assemble_rt0_div(space)
    assert np.max(np.abs(b @ dofs)) < 1e-13
    vals = (space.flux_operator() @ dofs).reshape(-1, 3, 2)
    assert np.max(np.abs(vals - np.array([1.0, 0.0]))) < 1e-13


def test_commuting_diagram_property():
    # div(interpolant) equals the L2 projection of the divergence: exact
    # by the divergence theorem once the edge quadrature is exact
    space = RT0Space(structured_unit_square(4))

    def field(x, y):
        return np.stack([x * x * y + y, x * y * y - x], axis=-1)

    dofs = interpolate_rt0(space, field)
    div_interp = (assemble_rt0_div(space) @ dofs) / space.areas
    xq = space.quad_x
    div_exact = 4.0 * xq[..., 0] * xq[..., 1]
    proj = np.sum(space.quad_w * div_exact, axis=1) / space.areas
    err = math.sqrt(float(np.sum(space.areas * (div_interp - proj) ** 2)))
    assert err < 1e-10


def test_normal_continuity_across_interior_edges():
    # flux continuity: reconstruct a random field's normal component from
    # both adjacent triangles at each interior edge midpoint
    mesh = structured_unit_square(3)
    space = RT0Space(mesh)
    rng = np.random.RandomState(2)
    dofs = rng.standard_normal(mesh.n_edges)
    vals = (space.flux_operator() @ dofs).reshape(-1, 3, 2)   # (nt, q, 2)
    a = mesh.vertices[mesh.edges[:, 0]]
    tang = mesh.vertices[mesh.edges[:, 1]] - a
    elen = np.hypot(tang[:, 0], tang[:, 1])
    normal = np.column_stack([tang[:, 1], -tang[:, 0]]) / elen[:, None]
    seen = {}
    worst = 0.0
    for k in range(mesh.n_triangles):
        for q in range(3):
            e = mesh.tri_edges[k, q]
            flux = float(vals[k, q] @ normal[e])
            if e in seen:
                worst = max(worst, abs(flux - seen[e]))
            seen[e] = flux
    assert worst < 1e-12


def test_kernel_ellipticity_is_one_on_divfree():
    # on the discretely divergence-free subspace the mass form equals the
    # H(div) norm, so the restricted Rayleigh quotient is exactly one
    space = RT0Space(structured_unit_square(2))
    alpha = kernel_ellipticity(assemble_rt0_mass(space),
                               assemble_rt0_div(space), gram_hdiv(space))
    assert 1.0 - 1e-10 <= alpha <= 1.0 + 1e-10


def test_infsup_and_ellipticity_are_h_uniform():
    # the two mixed-method hypotheses hold with mesh-independent constants
    for m in (8, 16, 32, 48):
        prob = LaplaceProblem(m)
        gv, gq = prob.grams()
        beta = infsup_estimate(gv, gq, prob.system.b)
        alpha = kernel_ellipticity(prob.system.a, prob.system.b, gv)
        assert 0.9755 <= beta <= 0.9757, (m, beta)
        assert abs(alpha - 1.0) <= 1e-10, (m, alpha)


def test_manufactured_solution_values():
    man = ManufacturedSolution(0.01)
    assert_allclose(man.f(0.5, 0.5, 0.0), 1.0, rtol=1e-14)
    xs = np.array([0.25, 0.5])
    assert_allclose(man.f(xs, xs, 0.0),
                    2.0 * ((xs - xs ** 2) + (xs - xs ** 2)), rtol=1e-14)
    assert_allclose(man.u(0.5, 0.5, 0.0), 0.0625, rtol=1e-15)
    # boundary trace vanishes
    assert man.u(0.0, 0.3, 1.0) == 0.0
    assert abs(man.sigma(0.5, 0.5, 0.7)).max() < 1e-15


def test_memory_free_limit_of_load():
    man = ManufacturedSolution(None)
    t = 0.83
    assert_allclose(man.f(0.3, 0.7, t),
                    math.cos(t) * 2.0 * ((0.3 - 0.09) + (0.7 - 0.49)),
                    rtol=1e-14)


def test_memory_integral_matches_adaptive_quadrature():
    # closed-form convolution of cos with the exponential kernel checked
    # against scipy adaptive quadrature to 1e-12; substituting
    # v = (t - s)/delta tames the boundary layer at s = t
    man = ManufacturedSolution(0.01)
    for t in (0.05, 0.3, 1.0, 2.7):
        ref, err = scipy.integrate.quad(
            lambda v: math.exp(-v) * math.cos(t - 0.01 * v),
            0.0, 100.0 * t, epsabs=1e-13, epsrel=1e-13, limit=400)
        assert err < 1e-12
        assert abs(float(man.memory_integral(t)) - ref) < 1e-12


def test_manufactured_rhs_cells():
    space = RT0Space(structured_unit_square(2))
    man = ManufacturedSolution(0.01)
    g0 = manufactured_rhs(space, man, 0.0)
    # midpoint rule is exact for the quadratic integrand 2(x-x^2+y-y^2)
    for k in range(space.n_cells):
        xq = space.quad_x[k]
        ref = -np.sum(space.quad_w[k] * man.shape_lap_factor(xq[:, 0], xq[:, 1]))
        assert_allclose(g0[k], ref, rtol=1e-14)
    # time factor scales the cells uniformly
    g1 = manufactured_rhs(space, man, 0.9)
    assert_allclose(g1, g0 * float(man.load_factor(0.9)) , rtol=1e-13)


def test_probe_cell_index():
    assert probe_cell_index(1, (0.25, 0.1)) == 0
    assert probe_cell_index(1, (0.1, 0.25)) == 1
    # the center lands on the lower triangle of cell (m/2, m/2)
    m = 4
    assert probe_cell_index(m, (0.5, 0.5)) == 2 * (2 * m + 2)
    with pytest.raises(ValueError):
        probe_cell_index(4, (1.2, 0.5))


def probe_series(prob, grid, point):
    """u of the cell holding ``point`` at every step, via a collect observer."""
    cell = probe_cell_index(prob.m, point)
    series = []
    prob.run(grid, collect=lambda n, t, s, u: series.append(u[cell]))
    return np.array(series)


def test_probe_series_tracks_exact_center_value():
    grid = TimeGrid(T=0.5, n_steps=100)
    prob = LaplaceProblem(8, delta=0.01)
    probe_vals = probe_series(prob, grid, (0.5, 0.5))
    assert probe_vals.shape == grid.times.shape
    exact = 0.0625 * np.cos(grid.times)
    assert np.max(np.abs(probe_vals - exact)) < 5.0 * (prob.h ** 2 + grid.dt)


def test_probe_at_boundary_is_small():
    grid = TimeGrid(T=0.2, n_steps=40)
    prob = LaplaceProblem(8, delta=0.01)
    probe = probe_series(prob, grid, (1.0, 0.5))
    # exact u vanishes on the boundary; the boundary cell value is O(h)
    assert np.max(np.abs(probe)) < 0.5 / 8


def test_stability_gate_rejects_large_dt():
    prob = LaplaceProblem(2, delta=0.01)
    grid = TimeGrid(T=1.0, n_steps=33)   # dt = 0.0303 >= 2 delta
    with pytest.raises(StabilityGateError, match="dt too large"):
        prob.run(grid)


def test_gate_boundary_factorizes():
    # just below the gate the scaled solve still succeeds
    prob = LaplaceProblem(2, delta=0.01)
    grid = TimeGrid(T=0.038, n_steps=2)  # dt = 0.019 < 0.02
    errs, _ = prob.run(grid, reference=prob.manufactured)
    assert np.isfinite(errs["sigma"]["e0"])


def primal_poisson_p0_means(m: int, load_factor: float = 1.0):
    """Independent P1 primal Poisson oracle, returning cell means."""
    mesh = structured_unit_square(m)
    p = mesh.vertices
    t = mesh.triangles
    nv = p.shape[0]
    rows, cols, vals = [], [], []
    rhs = np.zeros(nv)
    man = ManufacturedSolution(None)
    for k in range(mesh.n_triangles):
        idx = t[k]
        xy = p[idx]
        grads = np.array([
            [xy[1, 1] - xy[2, 1], xy[2, 0] - xy[1, 0]],
            [xy[2, 1] - xy[0, 1], xy[0, 0] - xy[2, 0]],
            [xy[0, 1] - xy[1, 1], xy[1, 0] - xy[0, 0]],
        ]) / (2.0 * mesh.areas[k])
        ke = mesh.areas[k] * grads @ grads.T
        for a in range(3):
            for b in range(3):
                rows.append(idx[a])
                cols.append(idx[b])
                vals.append(ke[a, b])
        mid = xy.mean(axis=0)
        f_mid = load_factor * man.shape_lap_factor(mid[0], mid[1])
        rhs[idx] += f_mid * mesh.areas[k] / 3.0
    k_mat = sp.coo_matrix((vals, (rows, cols)), shape=(nv, nv)).tocsr()
    boundary = ((p[:, 0] == 0) | (p[:, 0] == 1) | (p[:, 1] == 0) | (p[:, 1] == 1))
    free = np.where(~boundary)[0]
    u = np.zeros(nv)
    u[free] = spla.spsolve(k_mat[np.ix_(free, free)].tocsc(), rhs[free])
    return mesh, u[t].mean(axis=1)


def test_memoryless_mixed_matches_primal_poisson():
    # kernel off: the first step is the classical mixed Poisson solve,
    # cross-checked against an independent primal P1 solve
    prob = LaplaceProblem(16, delta=None)
    sig, u = prob.system.saddle.solve(np.zeros(prob.space.n_edges),
                                               dense_load(prob.rhs([0.0]))[:, 0])
    _, primal_means = primal_poisson_p0_means(16)
    rel = np.linalg.norm(u - primal_means) / np.linalg.norm(primal_means)
    assert rel < 0.02


def test_rhs_block_equals_the_per_node_formula():
    # the pair (V, C): V the load cells, the same read-only object for
    # every block, and C the load factor; each column of V C is the
    # per-node load bit for bit, at the widths the stepper takes, with
    # and without memory in the load
    times = TimeGrid(T=1.0, n_steps=200).times
    for delta in (0.01, None):
        prob = LaplaceProblem(4, delta=delta)
        v = prob.rhs(times[:1])[0]
        assert v.shape == (prob.space.n_cells, 1) and not v.flags.writeable
        for k in (1, 3, 22, 64):
            block = prob.rhs(times[100:100 + k])
            assert block[0] is v and block[1].shape == (1, k)
            per_node = [manufactured_rhs(prob.space, prob.manufactured, t)
                        for t in times[100:100 + k]]
            assert dense_load(block).T.tobytes() == np.array(per_node).tobytes()
    # the first row is not loaded: its block is of rank 0
    zero = prob.system.zero_load(times[:3])
    assert zero[0].shape == (prob.space.n_edges, 0) and zero[1].shape == (0, 3)
    assert_array_equal(dense_load(zero), np.zeros((prob.space.n_edges, 3)))


def test_zero_kernel_run_reproduces_stationary_solves():
    grid = TimeGrid(T=0.5, n_steps=8)
    prob = LaplaceProblem(4, delta=None)
    fact = prob.system.saddle
    states = []
    errs, _ = prob.run(grid, collect=lambda n, t, s, u: states.append((t, s, u)))
    assert errs is None   # no reference, no error norms
    for t, sig, u in states:
        sig_ref, u_ref = fact.solve(np.zeros(prob.space.n_edges),
                                    dense_load(prob.rhs([t]))[:, 0])
        assert np.max(np.abs(sig - sig_ref)) <= 1e-12 * max(1.0, np.max(np.abs(sig_ref)))
        assert np.max(np.abs(u - u_ref)) <= 1e-12 * max(1.0, np.max(np.abs(u_ref)))


def laplace_series_errors(prob, grid, series):
    acc = laplace_accumulator(prob.space, prob.manufactured, grid)
    for n, (sig, u) in enumerate(series):
        acc.add(n, sig, u)
    return acc.result()


def test_laplace_errors_series_op():
    grid = TimeGrid(T=0.2, n_steps=20)
    prob = LaplaceProblem(4, delta=0.01)
    series = []
    errs_online, _ = prob.run(grid, reference=prob.manufactured,
                              collect=lambda n, t, s, u: series.append((s, u)))
    errs_series = laplace_series_errors(prob, grid, series)
    # the run measures its factored states from their coefficients, the
    # series in dof space: the same up to rounding; with dense loads the
    # run measures in dof space too, bit for bit
    for name, norms in errs_online.items():
        assert_allclose(norms["e0"], errs_series[name]["e0"], rtol=1e-14)
    factored = prob.rhs
    prob.rhs = lambda times: dense_load(factored(times))
    series = []
    errs_online, _ = prob.run(grid, reference=prob.manufactured,
                              collect=lambda n, t, s, u: series.append((s, u)))
    assert laplace_series_errors(prob, grid, series) == errs_online
    # interpolating the exact fields gives strictly smaller errors than
    # the zero series (pure interpolation error structure)
    interp = []
    for t in grid.times:
        sig_i = interpolate_rt0(prob.space,
                                lambda x, y: prob.manufactured.sigma(x, y, t))
        xq = prob.space.quad_x
        u_i = np.sum(prob.space.quad_w
                     * prob.manufactured.shape(xq[..., 0], xq[..., 1]),
                     axis=1) / prob.space.areas * math.cos(t)
        interp.append((sig_i, u_i))
    errs_interp = laplace_series_errors(prob, grid, interp)
    zeros = [(np.zeros(prob.space.n_edges), np.zeros(prob.space.n_cells))
             for _ in grid.times]
    errs_zero = laplace_series_errors(prob, grid, zeros)
    for f in ("sigma", "u"):
        assert 0.0 < errs_interp[f]["e0"] < errs_zero[f]["e0"]


def test_gram_matrices_shapes():
    space = RT0Space(structured_unit_square(2))
    gv = gram_hdiv(space)
    gq = gram_p0(space)
    assert gv.shape == (space.n_edges, space.n_edges)
    assert gq.shape == (space.n_cells, space.n_cells)
    assert np.all(gq.diagonal() > 0.0)
