"""The L1-in-time error accumulator of both drivers.

The references below are the drivers' earlier error formulas, kept here
verbatim in substance: field values from the RT0 basis tables or a split
of the beam's nodal/cell vectors, differences against ``c(t) r`` at the
quadrature nodes, trapezoid weights in time.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from memfem.beam import (
    _G4,
    BeamProblem,
    _gauss_points,
    _p1_at,
    beam_accumulator,
    beam_exact_reference,
    beam_mesh,
    joined_profile,
)
from memfem.kernels import PronySLS, beam_kernel
from memfem.laplace_mem import LaplaceProblem, laplace_accumulator
from memfem.volterra import L1NormAccumulator, TimeGrid, trapezoid_weights

EPS = 1e-10


def reference_laplace_errors(space, manufactured, grid, series):
    xq = space.quad_x
    sigma_spatial = manufactured.sigma(xq[..., 0], xq[..., 1], 0.0)
    u_spatial = manufactured.shape(xq[..., 0], xq[..., 1])
    weights = trapezoid_weights(grid, grid.n_steps)
    e0 = {"sigma": 0.0, "u": 0.0}
    for n, (sig, u) in enumerate(series):
        cos_t = math.cos(grid.times[n])
        flux = np.einsum("kqld,kl->kqd", space.basis_q,
                         sig[space.mesh.tri_edges])
        dsig = flux - cos_t * sigma_spatial
        e0["sigma"] += weights[n] * math.sqrt(float(np.sum(
            space.quad_w * np.sum(dsig * dsig, axis=-1))))
        du = u[:, None] - cos_t * u_spatial
        e0["u"] += weights[n] * math.sqrt(float(np.sum(space.quad_w * du * du)))
    return {"sigma": {"e0": e0["sigma"]}, "u": {"e0": e0["u"]}}


def reference_beam_errors(mesh, reference, grid, series):
    xq, wq = _gauss_points(mesh, _G4)
    phi_basis = _p1_at(_G4)
    ell = mesh.cell_lengths
    n = mesh.n_elements
    ref = {k: v.reshape(xq.shape)
           for k, v in reference.spatial(xq.ravel()).items()}
    weights = trapezoid_weights(grid, grid.n_steps)
    conn = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    ones = np.ones((1, phi_basis.shape[0]))
    out = {name: {"e0": 0.0} for name in BeamProblem.FIELDS}
    out["M"]["e1"] = out["V"]["e1"] = 0.0
    for step, (u, p) in enumerate(series):
        fields = {}
        for name, coeff in (("M", u[: n + 1]), ("V", u[n + 1:])):
            nodal = coeff[conn]
            fields[name] = nodal @ phi_basis.T
            fields["d" + name] = ((nodal[:, 1] - nodal[:, 0]) / ell)[:, None] * ones
        fields["beta"] = p[:n, None] * ones
        fields["w"] = p[n:, None] * ones
        factor = float(reference.phi(grid.times[step]))
        w_t = weights[step]
        for name in BeamProblem.FIELDS:
            diff = fields[name] - factor * ref[name]
            l2sq = float(np.sum(wq * diff * diff))
            if "e1" in out[name]:
                ddiff = fields["d" + name] - factor * ref["d" + name]
                h1sq = l2sq + float(np.sum(wq * ddiff * ddiff))
                out[name]["e1"] += w_t * math.sqrt(h1sq)
            out[name]["e0"] += w_t * math.sqrt(l2sq)
    return out


def laplace_operator(space):
    """sigma and u at the quadrature nodes, and the nodes' weights."""
    w = space.quad_w.ravel()
    cells = sp.kron(sp.identity(space.n_cells), np.ones((3, 1)))
    e = sp.block_diag([space.flux_operator(), cells], format="csr")
    return e, np.concatenate([np.repeat(w, 2), w])


def beam_operator(mesh):
    """M, dM, V and dV at the Gauss nodes, beta and w on the cells, and
    the nodes' weights: the six fields of the driver, in its order."""
    _, wq = _gauss_points(mesh, _G4)
    phi = _p1_at(_G4)
    n, n_g = mesh.n_elements, phi.shape[0]
    nodal = np.zeros((n * n_g, n + 1))
    slope = np.zeros((n * n_g, n + 1))
    for i in range(n):
        nodal[i * n_g:(i + 1) * n_g, i:i + 2] = phi
        slope[i * n_g:(i + 1) * n_g, i:i + 2] = \
            np.array([-1.0, 1.0]) / mesh.cell_lengths[i]
    cell = np.kron(np.eye(n), np.ones((n_g, 1)))
    value_slope = np.vstack([nodal, slope])
    e = sp.block_diag([value_slope, value_slope, cell, cell], format="csr")
    return e, np.tile(wq.ravel(), 6)


def laplace_case():
    prob = LaplaceProblem(4, delta=0.01)
    grid = TimeGrid(T=0.3, n_steps=12)
    return (lambda: laplace_accumulator(prob.space, prob.manufactured, grid),
            lambda series: reference_laplace_errors(
                prob.space, prob.manufactured, grid, series),
            (prob.space.n_edges, prob.space.n_cells), grid,
            laplace_operator(prob.space))


def beam_case():
    cfg = joined_profile(d=0.01)
    grid = TimeGrid(T=2.0, n_steps=12)
    kern = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    ref = beam_exact_reference(cfg, np.exp, None, grid, kern, n_ref=64)
    mesh = beam_mesh(cfg, 8)
    n = mesh.n_elements
    return (lambda: beam_accumulator(mesh, ref, grid),
            lambda series: reference_beam_errors(mesh, ref, grid, series),
            (2 * (n + 1), 2 * n), grid, beam_operator(mesh))


CASES = {"laplace": laplace_case, "beam": beam_case}


def accumulate(acc, series):
    for n, (u, p) in enumerate(series):
        acc.add(n, u, p)
    return acc.result()


@pytest.mark.parametrize("driver", sorted(CASES))
def test_matches_reference_formula_on_random_states(driver):
    build, reference, (n_v, n_q), grid, _ = CASES[driver]()
    rng = np.random.default_rng(7)
    series = [(rng.standard_normal(n_v), rng.standard_normal(n_q))
              for _ in range(grid.n_steps + 1)]
    got = accumulate(build(), series)
    want = reference(series)
    assert list(got) == list(want)
    for name in want:
        assert list(got[name]) == list(want[name])
        for norm, value in want[name].items():
            assert_allclose(got[name][norm], value, rtol=1e-13)


@pytest.mark.parametrize("driver", sorted(CASES))
def test_small_error_is_not_cancelled(driver):
    # a state whose evaluation equals the reference exactly, perturbed in
    # one dof by EPS: the norm is EPS ||E e_k||_w at every node of [0, T]
    _, _, (n_v, n_q), grid, (e, w) = CASES[driver]()
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(n_v + n_q)
    k = int(np.argmax(np.abs(e).sum(axis=0)))
    x = x0.copy()
    x[k] += EPS
    acc = L1NormAccumulator(grid, np.ones_like, {"f": (e, w, e @ x0)},
                            {("f", "e0"): ("f",)})
    got = accumulate(acc, [(x[:n_v], x[n_v:])] * (grid.n_steps + 1))["f"]["e0"]
    ek = np.zeros_like(x0)
    ek[k] = 1.0
    col = e @ ek
    want = grid.T * EPS * math.sqrt(float(np.sum(w * col * col)))
    assert_allclose(got, want, rtol=1e-6)

    # the expanded quadratic form x.Gx - 2 x.g + r.Wr loses it entirely
    r = e @ x0
    gram = e.T @ (w[:, None] * e.toarray())
    g = e.T @ (w * r)
    expanded = float(x @ gram @ x - 2.0 * x @ g + r @ (w * r))
    per_node = math.sqrt(expanded) if expanded >= 0.0 else math.nan
    assert not abs(grid.T * per_node - want) <= 1e-2 * want


@pytest.mark.parametrize("driver", sorted(CASES))
def test_off_range_reference_matches_extended_precision(driver):
    # a reference 1e-8 off the range of E, so that the best-approximation
    # error t = r - E rho is not zero, and states c(t_n) rho perturbed by
    # EPS: both parts of the error are small against the field, and each
    # moves the norm by more than the tolerance
    _, _, (n_v, n_q), grid, (e, w) = CASES[driver]()
    rng = np.random.default_rng(5)
    r = e @ rng.standard_normal(n_v + n_q) \
        + 1e-8 * rng.standard_normal(e.shape[0])
    sw = np.sqrt(w)
    rho = np.linalg.lstsq(sw[:, None] * e.toarray(), sw * r, rcond=None)[0]
    dx = EPS * rng.standard_normal(rho.size)
    states = [math.cos(t) * rho + dx for t in grid.times]
    acc = L1NormAccumulator(grid, np.cos, {"f": (e, w, r)},
                            {("f", "e0"): ("f",)})
    got = accumulate(acc, [(x[:n_v], x[n_v:]) for x in states])["f"]["e0"]

    # node by node in extended precision
    ld = np.longdouble
    e_ld, w_ld, r_ld = e.toarray().astype(ld), w.astype(ld), r.astype(ld)
    want = ld(0.0)
    for w_n, t, x in zip(trapezoid_weights(grid, grid.n_steps), grid.times,
                         states):
        d = e_ld @ x.astype(ld) - ld(math.cos(t)) * r_ld
        want += ld(w_n) * np.sqrt(np.sum(w_ld * d * d))
    assert_allclose(got, float(want), rtol=1e-6)


def test_result_needs_every_node():
    build, _, (n_v, n_q), grid, _ = CASES["laplace"]()
    acc = build()
    acc.add(0, np.zeros(n_v), np.zeros(n_q))
    with pytest.raises(ValueError, match="grid needs"):
        acc.result()


@pytest.mark.parametrize("nodes", [[0, 1, 2, 2], [0, 1, 2, 4]])
def test_nodes_are_added_in_order(nodes):
    # a repeated or a skipped node is refused where it is added
    build, _, (n_v, n_q), _, _ = CASES["laplace"]()
    acc = build()
    for n in nodes[:-1]:
        acc.add(n, np.zeros(n_v), np.zeros(n_q))
    with pytest.raises(ValueError, match="expected node 3, got"):
        acc.add(nodes[-1], np.zeros(n_v), np.zeros(n_q))
