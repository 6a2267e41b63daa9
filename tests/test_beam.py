import math

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose, assert_array_equal

from memfem.beam import (
    BeamConfig,
    BeamProblem,
    assemble_beam_a,
    assemble_beam_b,
    beam_accumulator,
    beam_exact_reference,
    beam_gram_q,
    beam_gram_v,
    beam_mesh,
    beam_reference_norms,
    beam_rhs,
    joined_profile,
    smooth_profile,
)
from memfem.errors import ConfigError
from memfem.kernels import PronySLS, beam_kernel
from memfem.mesh import Mesh1D, uniform_mesh1d
from memfem.sparsela import infsup_estimate, kernel_ellipticity
from memfem.volterra import TimeGrid, dense_load

EXP_LOAD = lambda x: np.exp(x)


def unit_hat_config(eps=1.0):
    """A unit beam with Ihat = kappa = 1: I = eps^3 and A = 2 eps."""
    ones = lambda x: np.ones_like(np.asarray(x, float))
    return BeamConfig(profile="custom", L=1.0, nu=0.0, ks=1.0, eps=eps,
                      I=lambda x: eps ** 3 * ones(x),
                      A=lambda x: 2.0 * eps * ones(x))


@pytest.mark.parametrize("eps", [1.0, 0.3, 1e-2, 1e-4])
def test_unit_hat_config_coefficients_are_exactly_one(eps):
    cfg = unit_hat_config(eps)
    x = np.linspace(0.0, 1.0, 33)
    assert_array_equal(cfg.ihat(x), np.ones_like(x))
    assert_array_equal(cfg.kappa(x), np.ones_like(x))


def test_profile_thickness_parameters():
    cfg = joined_profile(d=0.02)
    assert_allclose(cfg.eps ** 2, 5.0 * 0.02 ** 2 / 12.0, rtol=1e-15)
    cfg_s = smooth_profile()
    assert_allclose(cfg_s.eps ** 2, (math.e ** 2 - 1.0) / 288.0, rtol=1e-15)
    assert_allclose(cfg_s.eps, 0.14894368924439674, rtol=1e-12)


@pytest.mark.parametrize("make", [lambda: joined_profile(0.001),
                                  lambda: smooth_profile()])
def test_eps_matches_section_integral(make):
    # eps^2 = (1/L) int I/(A L^2), integrated piecewise to avoid the jump
    cfg = make()
    total = 0.0
    for a, b in ((0.0, 0.5), (0.5, 1.0)):
        val, _ = scipy.integrate.quad(lambda x: cfg.I(x) / cfg.A(x), a, b,
                                      epsabs=1e-14, epsrel=1e-14)
        total += val
    assert_allclose(cfg.eps ** 2, total, rtol=1e-12)


def test_joined_profile_validation():
    with pytest.raises(ConfigError):
        joined_profile(d=0.0)
    cfg = joined_profile(d=0.001)
    with pytest.raises(ConfigError, match="even"):
        beam_mesh(cfg, 3)
    assert beam_mesh(cfg, 4).n_elements == 4


def test_beam_a_unit_coefficients_is_p1_mass():
    cfg = unit_hat_config()
    mesh = uniform_mesh1d(1.0, 1)
    a = assemble_beam_a(cfg, mesh).toarray()
    mass = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
    assert_allclose(a[:2, :2], mass, rtol=1e-14)
    assert_allclose(a[2:, 2:], mass, rtol=1e-14)
    assert np.max(np.abs(a[:2, 2:])) == 0.0


def test_beam_a_symmetry():
    cfg = joined_profile(d=0.01)
    a = assemble_beam_a(cfg, beam_mesh(cfg, 8))
    assert abs(a - a.T).max() < 1e-14


def test_beam_a_positive_semidefinite_sampled():
    cfg = joined_profile(d=0.001)
    a = assemble_beam_a(cfg, beam_mesh(cfg, 16))
    rng = np.random.RandomState(21)
    for _ in range(50):
        v = rng.standard_normal(a.shape[0])
        assert float(v @ (a @ v)) / float(v @ v) >= -1e-12


def test_beam_a_shear_block_scales_with_eps_squared():
    mesh = uniform_mesh1d(1.0, 4)
    blocks = {}
    for eps in (1.0, 1e-2):
        a = assemble_beam_a(unit_hat_config(eps), mesh).toarray()
        blocks[eps] = a[5:, 5:]
    assert_allclose(blocks[1e-2], 1e-4 * blocks[1.0], rtol=1e-12)


def test_beam_b_single_element_rows():
    mesh = uniform_mesh1d(1.0, 1)
    b = assemble_beam_b(mesh).toarray()
    # beta row against (M0, M1, V0, V1), then w row
    assert_allclose(b[0], [-1.0, 1.0, -0.5, -0.5], rtol=1e-15)
    assert_allclose(b[1], [0.0, 0.0, 1.0, -1.0], rtol=1e-15)


def test_beam_assembly_matches_element_loop():
    # the vectorized B and H1 Gram reproduce the per-element loop bit for
    # bit: B has no duplicate entries, and each shared Gram node sums two
    rng = np.random.default_rng(3)
    mesh = Mesh1D(np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 9))]))
    n = mesh.n_elements
    ell = mesh.cell_lengths
    b_rows, b_cols, b_vals, g_rows, g_cols, g_vals = ([] for _ in range(6))
    for i in range(n):
        b_rows += [i, i, i, i, n + i, n + i]
        b_cols += [i, i + 1, n + 1 + i, n + 2 + i, n + 1 + i, n + 2 + i]
        b_vals += [-1.0, 1.0, -0.5 * ell[i], -0.5 * ell[i], 1.0, -1.0]
        local = np.array([[ell[i] / 3.0, ell[i] / 6.0],
                          [ell[i] / 6.0, ell[i] / 3.0]]) \
            + np.array([[1.0, -1.0], [-1.0, 1.0]]) / ell[i]
        for a in range(2):
            for c in range(2):
                g_rows.append(i + a)
                g_cols.append(i + c)
                g_vals.append(local[a, c])
    b_ref = sp.coo_matrix((b_vals, (b_rows, b_cols)),
                          shape=(2 * n, 2 * (n + 1))).tocsr()
    h1 = sp.coo_matrix((g_vals, (g_rows, g_cols)), shape=(n + 1, n + 1)).tocsr()
    g_ref = sp.block_diag([h1, h1], format="csr")
    for got, ref in ((assemble_beam_b(mesh), b_ref), (beam_gram_v(mesh), g_ref)):
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert got.data.tobytes() == ref.data.tobytes()


def test_beam_b_constant_moment_in_kernel():
    mesh = uniform_mesh1d(1.0, 6)
    b = assemble_beam_b(mesh)
    vec = np.concatenate([np.full(7, 3.7), np.zeros(7)])
    out = b @ vec
    assert np.max(np.abs(out[:6])) < 1e-14   # beta rows see tau' = 0
    assert np.max(np.abs(out[6:])) < 1e-14   # w rows see only V


def test_beam_nullspace_is_global_linears():
    cfg = joined_profile(d=0.01)
    mesh = beam_mesh(cfg, 8)
    b = assemble_beam_b(mesh)
    z_basis = scipy_null(b.toarray())
    assert z_basis.shape[1] == b.shape[1] - b.shape[0] == 2
    # the span is {(tau, tau'): tau in P1}: tau = 1 and tau = x
    nodes = mesh.nodes
    z1 = np.concatenate([np.ones(nodes.size), np.zeros(nodes.size)])
    z2 = np.concatenate([nodes, np.ones(nodes.size)])
    for z in (z1, z2):
        assert np.max(np.abs(b @ z)) < 1e-12
    # projection of the numeric nullspace onto the two modes is complete
    span = np.column_stack([z1, z2])
    coeffs, *_ = np.linalg.lstsq(span, z_basis, rcond=None)
    residual = np.max(np.abs(span @ coeffs - z_basis))
    assert residual < 1e-10


def scipy_null(mat):
    import scipy.linalg
    return scipy.linalg.null_space(mat)


def test_beam_rhs_uniform_load():
    cfg = unit_hat_config()
    mesh = uniform_mesh1d(1.0, 2)
    g = beam_rhs(cfg, mesh, np.ones_like, None)
    assert g.shape == (4,)                             # the b-row only
    assert_allclose(g[2:], [-0.5, -0.5], rtol=1e-14)   # w cells
    assert np.max(np.abs(g[:2])) == 0.0                # beta cells empty


def test_beam_rhs_zero_loads():
    cfg = unit_hat_config()
    mesh = uniform_mesh1d(1.0, 3)
    g = beam_rhs(cfg, mesh, None, None)
    assert np.max(np.abs(g)) == 0.0


def test_beam_rhs_exponential_load_exact():
    # 4-point Gauss reproduces the closed form e^{x_i} - e^{x_{i-1}} to
    # machine precision on these cell sizes
    cfg = unit_hat_config()
    mesh = uniform_mesh1d(1.0, 2)
    g = beam_rhs(cfg, mesh, np.exp, None, e0=2.0)
    nodes = mesh.nodes
    expected = -(np.exp(nodes[1:]) - np.exp(nodes[:-1])) / 2.0
    assert_allclose(g[2:], expected, rtol=1e-11)


def test_exact_reference_zero_kernel_and_t0():
    cfg = joined_profile(d=0.01)
    grid = TimeGrid(T=2.0, n_steps=10)
    ref = beam_exact_reference(cfg, EXP_LOAD, None, grid, None, n_ref=64)
    x = np.array([0.1, 0.37, 0.81])
    at0 = ref(x, 0.0)
    at1 = ref(x, 1.3)
    for name in ("M", "V", "beta", "w"):
        assert_allclose(at1[name], at0[name], rtol=1e-14)


def test_exact_reference_sls_time_ratio():
    cfg = joined_profile(d=0.01)
    grid = TimeGrid(T=2.0, n_steps=10)
    kern = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    ref = beam_exact_reference(cfg, EXP_LOAD, None, grid, kern, n_ref=64)
    x = np.array([0.2, 0.6])
    base = ref(x, 0.0)
    for t in (0.5, 1.5):
        vals = ref(x, t)
        expect = 2.0 / 3.0 + math.exp(-3.0 * t) / 3.0
        for name in ("M", "V", "beta", "w"):
            mask = np.abs(base[name]) > 1e-12
            assert_allclose(vals[name][mask] / base[name][mask], expect,
                            rtol=1e-10)


def beam_errors(series, ref, grid, mesh):
    acc = beam_accumulator(mesh, ref, grid)
    for n, (u, p) in enumerate(series):
        acc.add(n, u, p)
    return acc.result()


def test_beam_errors_vanish_on_reference_itself():
    cfg = joined_profile(d=0.01)
    grid = TimeGrid(T=1.0, n_steps=4)
    kern = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    n = 16
    ref = beam_exact_reference(cfg, EXP_LOAD, None, grid, kern, n_ref=n)
    mesh = beam_mesh(cfg, n)
    u_el = np.concatenate([ref.coeff["M"], ref.coeff["V"]])
    p_el = np.concatenate([ref.coeff["beta"], ref.coeff["w"]])
    series = [(u_el * float(ref.phi(t)), p_el * float(ref.phi(t)))
              for t in grid.times]
    errs = beam_errors(series, ref, grid, mesh)
    for name, entry in errs.items():
        for val in entry.values():
            assert val < 1e-12


def test_beam_errors_constant_offset_integrates_linearly():
    cfg = joined_profile(d=0.01)
    grid = TimeGrid(T=3.0, n_steps=6)
    n = 8
    ref = beam_exact_reference(cfg, lambda x: 0.0 * x, None, grid, None, n_ref=n)
    mesh = beam_mesh(cfg, n)
    u = np.concatenate([np.full(n + 1, 2.0), np.zeros(n + 1)])
    p = np.zeros(2 * n)
    errs = beam_errors([(u, p)] * (grid.n_steps + 1), ref, grid, mesh)
    # constant spatial error of L2 norm 2 integrated over [0, T]
    assert_allclose(errs["M"]["e0"], 2.0 * grid.T, rtol=1e-12)


def test_beam_series_length_checked():
    cfg = joined_profile(d=0.01)
    grid = TimeGrid(T=1.0, n_steps=4)
    n = 8
    ref = beam_exact_reference(cfg, EXP_LOAD, None, grid, None, n_ref=n)
    mesh = beam_mesh(cfg, n)
    with pytest.raises(ValueError):
        beam_errors([(np.zeros(2 * n + 2), np.zeros(2 * n))], ref, grid, mesh)


def primal_timoshenko(cfg, n, load, e0=1.0):
    """Independent P1 displacement Timoshenko oracle (clamped ends)."""
    mesh = uniform_mesh1d(cfg.L, n)
    nn = n + 1
    g = 0.5 / math.sqrt(3.0)
    rows, cols, vals = [], [], []
    rhs = np.zeros(2 * nn)    # beta nodes then w nodes
    for i in range(n):
        x0, x1 = mesh.nodes[i], mesh.nodes[i + 1]
        ell = x1 - x0
        xq = np.array([x0 + (0.5 - g) * ell, x0 + (0.5 + g) * ell])
        wq = np.full(2, 0.5 * ell)
        phi = np.array([[0.5 + g, 0.5 - g], [0.5 - g, 0.5 + g]])
        dphi = np.array([-1.0 / ell, 1.0 / ell])
        shear_c = cfg.ahat(xq) / (2.0 * (1.0 + cfg.nu)) / cfg.eps ** 2
        ke = np.zeros((4, 4))
        fe = np.zeros(4)
        for q in range(2):
            bvec = np.zeros(4)
            bvec[:2] = phi[q]              # beta value
            bvec[2:] = -dphi               # -w'
            ke += wq[q] * cfg.ihat(xq[q]) * np.outer(
                np.concatenate([dphi, [0.0, 0.0]]),
                np.concatenate([dphi, [0.0, 0.0]]))
            ke += wq[q] * shear_c[q] * np.outer(bvec, bvec)
            fe[2:] += wq[q] * load(xq[q]) / e0 * phi[q]
        idx = [i, i + 1, nn + i, nn + i + 1]
        for a in range(4):
            rhs[idx[a]] += fe[a]
            for b in range(4):
                rows.append(idx[a])
                cols.append(idx[b])
                vals.append(ke[a, b])
    k_mat = sp.coo_matrix((vals, (rows, cols)),
                          shape=(2 * nn, 2 * nn)).tocsr()
    fixed = [0, n, nn, nn + n]
    free = np.setdiff1d(np.arange(2 * nn), fixed)
    sol = np.zeros(2 * nn)
    sol[free] = spla.spsolve(k_mat[np.ix_(free, free)].tocsc(), rhs[free])
    beta = sol[:nn]
    w = sol[nn:]
    return mesh, beta, w


def test_elastic_limit_matches_primal_solve():
    # memory-free first step of the mixed system against an independent
    # primal P1 displacement solve on a much finer mesh; d = 0.1 keeps
    # the primal method far from its locking regime
    cfg = joined_profile(d=0.1)
    prob = BeamProblem(cfg, 64, None, 1.0, EXP_LOAD, None)
    u, p = prob.system.saddle.solve(np.zeros(prob.n_v),
                                             dense_load(prob.rhs([0.0]))[:, 0])
    n = prob.mesh.n_elements
    beta_mixed, w_mixed = p[:n], p[n:]
    pmesh, beta_p, w_p = primal_timoshenko(cfg, 512, np.exp)
    mids = 0.5 * (prob.mesh.nodes[:-1] + prob.mesh.nodes[1:])
    beta_ref = np.interp(mids, pmesh.nodes, beta_p)
    w_ref = np.interp(mids, pmesh.nodes, w_p)
    rel_w = np.linalg.norm(w_mixed - w_ref) / np.linalg.norm(w_ref)
    rel_b = np.linalg.norm(beta_mixed - beta_ref) / np.linalg.norm(beta_ref)
    assert rel_w < 0.01
    assert rel_b < 0.01


def test_full_run_separability_consistency():
    # with a separable step load the stepped fields differ from
    # elastic(x) * phi(t) only by the O(dt^2) time-quadrature bias
    cfg = joined_profile(d=0.001)
    kern = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    grid = TimeGrid(T=5.0, n_steps=500)
    n = 16
    prob = BeamProblem(cfg, n, kern, 1.0, EXP_LOAD, None)
    u_el, p_el = prob.system.saddle.solve(np.zeros(prob.n_v),
                                                   dense_load(prob.rhs([0.0]))[:, 0])
    phi = 2.0 / 3.0 + np.exp(-3.0 * grid.times) / 3.0
    worst = 0.0

    def compare(nn, t, u, p):
        nonlocal worst
        dev = np.max(np.abs(u - u_el * phi[nn])) / np.max(np.abs(u_el))
        worst = max(worst, dev)

    prob.run(grid, collect=compare)
    assert worst < 5e-5   # dt^2-scale bias only


def test_infsup_and_ellipticity_stable_across_refinement():
    kern = None
    betas, alphas = [], []
    for n in (8, 16, 32):
        cfg = joined_profile(d=0.001)
        mesh = beam_mesh(cfg, n)
        a = assemble_beam_a(cfg, mesh)
        b = assemble_beam_b(mesh)
        betas.append(infsup_estimate(beam_gram_v(mesh), beam_gram_q(mesh), b))
        alphas.append(kernel_ellipticity(a, b, beam_gram_v(mesh)))
    for seq in (betas, alphas):
        assert max(seq) / min(seq) < 1.1
    assert betas[0] > 0.0 and alphas[0] > 0.0


def test_thickness_robustness_of_estimators():
    for d in (1e-1, 1e-4):
        cfg = joined_profile(d=d)
        mesh = beam_mesh(cfg, 16)
        a = assemble_beam_a(cfg, mesh)
        b = assemble_beam_b(mesh)
        alpha = kernel_ellipticity(a, b, beam_gram_v(mesh))
        beta = infsup_estimate(beam_gram_v(mesh), beam_gram_q(mesh), b)
        assert alpha > 0.0 and beta > 0.0


def test_gate_boundary_run_succeeds():
    # |w_nn k(t,t)| = dt/2 just below 1 still solves and runs
    cfg = joined_profile(d=0.01)
    kern = beam_kernel(PronySLS(1.0, 1.0, 1.0))   # k(t,t) = -1
    prob = BeamProblem(cfg, 4, kern, 1.0, EXP_LOAD, None)
    grid = TimeGrid(T=7.6, n_steps=4)             # dt = 1.9 < 2
    _, stepper = prob.run(grid)
    assert stepper.n_done == grid.n_steps + 1


def test_rhs_block_equals_the_per_node_row():
    # the pair (V, C) of a unit step: V is the b-row, the same read-only
    # object for every block, and each column of V C is the row bit for
    # bit, at the widths the stepper takes
    cfg = joined_profile(d=0.01)
    prob = BeamProblem(cfg, 4, None, 1.0, EXP_LOAD, None)
    row = beam_rhs(cfg, prob.mesh, EXP_LOAD, None)
    times = TimeGrid(T=1.0, n_steps=200).times
    v = prob.rhs(times[:1])[0]
    assert v.shape == (prob.n_q, 1) and not v.flags.writeable
    for k in (1, 3, 22, 64):
        block = prob.rhs(times[100:100 + k])
        assert block[0] is v and block[1].shape == (1, k)
        assert dense_load(block).T.tobytes() == row.tobytes() * k


def test_reference_norms_positive():
    cfg = smooth_profile()
    grid = TimeGrid(T=1.0, n_steps=8)
    ref = beam_exact_reference(cfg, EXP_LOAD, None, grid, None, n_ref=64)
    mesh = beam_mesh(cfg, 8)
    norms = beam_reference_norms(ref, grid, mesh)
    for name in ("M", "V", "w", "beta"):
        assert norms[name]["e0"] > 0.0
