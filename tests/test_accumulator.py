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
from memfem.volterra import L1NormAccumulator, TimeGrid, VolterraStepper

EPS = 1e-10


def reference_laplace_errors(space, manufactured, grid, series):
    xq = space.quad_x
    sigma_spatial = manufactured.sigma(xq[..., 0], xq[..., 1], 0.0)
    u_spatial = manufactured.shape(xq[..., 0], xq[..., 1])
    weights = grid.weights
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
    weights = grid.weights
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


def laplace_case(n_steps=12):
    prob = LaplaceProblem(4, delta=0.01)
    grid = TimeGrid(T=0.3, n_steps=n_steps)
    return (lambda: laplace_accumulator(prob.space, prob.manufactured, grid),
            lambda series: reference_laplace_errors(
                prob.space, prob.manufactured, grid, series),
            (prob.space.n_edges, prob.space.n_cells), grid,
            laplace_operator(prob.space))


def beam_case(n_steps=12):
    cfg = joined_profile(d=0.01)
    grid = TimeGrid(T=2.0, n_steps=n_steps)
    kern = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    ref = beam_exact_reference(cfg, np.exp, None, grid, kern, n_ref=64)
    mesh = beam_mesh(cfg, 8)
    n = mesh.n_elements
    return (lambda: beam_accumulator(mesh, ref, grid),
            lambda series: reference_beam_errors(mesh, ref, grid, series),
            (2 * (n + 1), 2 * n), grid, beam_operator(mesh))


CASES = {"laplace": laplace_case, "beam": beam_case}


def accumulate(build, series):
    """``result()`` with the states added node by node, and with the
    whole grid added as one block."""
    by_node = build()
    for n, (u, p) in enumerate(series):
        by_node.add(n, u, p)
    block = build()
    block.add(0, np.array([u for u, _ in series]).T,
              np.array([p for _, p in series]).T)
    return by_node.result(), block.result()


@pytest.mark.parametrize("driver", sorted(CASES))
def test_matches_reference_formula_on_random_states(driver):
    build, reference, (n_v, n_q), grid, _ = CASES[driver]()
    rng = np.random.default_rng(7)
    series = [(rng.standard_normal(n_v), rng.standard_normal(n_q))
              for _ in range(grid.n_steps + 1)]
    want = reference(series)
    for got in accumulate(build, series):
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
    got = accumulate(lambda: L1NormAccumulator(
        grid, np.ones_like, {("f", "e0"): (e, w, e @ x0)}),
        [(x[:n_v], x[n_v:])] * (grid.n_steps + 1))
    ek = np.zeros_like(x0)
    ek[k] = 1.0
    col = e @ ek
    want = grid.T * EPS * math.sqrt(float(np.sum(w * col * col)))
    for result in got:
        assert_allclose(result["f"]["e0"], want, rtol=1e-6)

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
    got = accumulate(lambda: L1NormAccumulator(
        grid, np.cos, {("f", "e0"): (e, w, r)}),
        [(x[:n_v], x[n_v:]) for x in states])

    # node by node in extended precision
    ld = np.longdouble
    e_ld, w_ld, r_ld = e.toarray().astype(ld), w.astype(ld), r.astype(ld)
    want = ld(0.0)
    for w_n, t, x in zip(grid.weights, grid.times,
                         states):
        d = e_ld @ x.astype(ld) - ld(math.cos(t)) * r_ld
        want += ld(w_n) * np.sqrt(np.sum(w_ld * d * d))
    for result in got:
        assert_allclose(result["f"]["e0"], float(want), rtol=1e-6)


def test_result_needs_every_node():
    build, _, (n_v, n_q), grid, _ = CASES["laplace"]()
    acc = build()
    acc.add(0, np.zeros(n_v), np.zeros(n_q))
    with pytest.raises(ValueError, match="grid needs"):
        acc.result()


@pytest.mark.parametrize("nodes", [
    # (first node, columns) of each add: 0 columns for the vectors of one
    # node, a pair for u and p of different widths; the last is refused
    [(0, 0), (1, 0), (2, 0), (2, 0)],   # a repeated node
    [(0, 0), (1, 0), (2, 0), (4, 0)],   # a skipped node
    [(0, 3), (2, 4)],                   # a block that starts too early
    [(0, 3), (4, 4)],                   # or too late
    [(0, 3), (3, 11)],                  # one that runs past the 13 nodes
    [(0, 3), (3, (2, 3))],              # u and p of different widths
    [(0, 3), (3, (0, 2))],              # the vectors of one node and a block
])
def test_nodes_are_added_in_order(nodes):
    # a bad add is refused where it is made, and changes nothing
    build, _, (n_v, n_q), grid, _ = CASES["laplace"]()
    acc = build()

    def states(columns):
        k_u, k_p = columns if isinstance(columns, tuple) else (columns,) * 2
        return (np.zeros((n_v, k_u)) if k_u else np.zeros(n_v),
                np.zeros((n_q, k_p)) if k_p else np.zeros(n_q))

    for n, columns in nodes[:-1]:
        acc.add(n, *states(columns))
    n, columns = nodes[-1]
    match = "u holds" if isinstance(columns, tuple) else \
        "run past the last node 12 of the grid" if n == 3 \
        else f"expected node 3, got {n}"
    with pytest.raises(ValueError, match=match):
        acc.add(n, *states(columns))
    # the rest of the grid from node 3 on completes it
    acc.add(3, *states(grid.n_steps - 2))
    assert acc.result() == accumulate(build, [states(0)] * 13)[0]


@pytest.mark.parametrize("driver", sorted(CASES))
def test_blocks_add_what_their_nodes_add(driver):
    # random states in blocks of 1, 3, 22 and 64 columns, the last block
    # shorter than the rest, in the layouts both solvers return: the
    # same result, bit for bit, as adding the nodes one by one
    build, _, (n_v, n_q), grid, _ = CASES[driver](n_steps=150)
    rng = np.random.default_rng(11)
    u = rng.standard_normal((n_v, grid.n_steps + 1))
    p = rng.standard_normal((n_q, grid.n_steps + 1))
    by_node = build()
    for n in range(grid.n_steps + 1):
        by_node.add(n, u[:, n], p[:, n])
    want = by_node.result()
    for width in (1, 3, 22, 64):
        for order in "CF":
            acc = build()
            for n in range(0, grid.n_steps + 1, width):
                acc.add(n, np.array(u[:, n:n + width], order=order),
                        np.array(p[:, n:n + width], order=order))
            assert acc.result() == want, (width, order)


def dense_and_coefficient_runs(system, grid, build, f_of_t, g_of_t):
    """Step ``system`` and measure every block twice: densely, and from
    the coefficients of its solve when it has them.  Returns the two
    accumulators and, per block, the rank of its basis (None without)."""
    dense, coef, ranks = build(), build(), []

    def observe(n, times, u, p, basis):
        dense.add(n, u, p)
        coef.add(n, u, p, basis)
        ranks.append(None if basis is None else basis[0].shape[1])

    VolterraStepper(system, grid).run(f_of_t, g_of_t, on_step=observe)
    return dense, coef, ranks


def laplace_level():
    prob = LaplaceProblem(8, delta=0.01)
    grid = TimeGrid(T=1.0, n_steps=2000)
    return prob, grid, lambda: laplace_accumulator(prob.space,
                                                   prob.manufactured, grid)


def beam_level():
    cfg = joined_profile(d=0.001)
    kern = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    grid = TimeGrid(T=15.0, n_steps=1500)
    prob = BeamProblem(cfg, 20, kern, 1.0, np.exp, None)
    ref = prob.reference(grid, 20)
    return prob, grid, lambda: beam_accumulator(prob.mesh, ref, grid)


@pytest.mark.parametrize("level, squares_rtol", [
    (laplace_level, 1e-14),
    # the beam's errors are down to 6e-4 of its fields: the states'
    # own rounding (x = Y c in double) moves their exact squares by
    # 1.0e-13 at n = 20, so no path can hold them closer than that
    (beam_level, 1e-12)])
def test_rank_one_level_measured_from_its_coefficients(level, squares_rtol):
    prob, grid, build = level()
    dense, coef, ranks = dense_and_coefficient_runs(
        prob.system, grid, build, prob.system.zero_load, prob.rhs)
    assert set(ranks) == {1}
    assert_allclose(coef._squares, dense._squares, rtol=squares_rtol, atol=0)
    want = dense.result()
    for name, norms in coef.result().items():
        for norm, value in norms.items():
            assert_allclose(value, want[name][norm], rtol=1e-14)


@pytest.mark.parametrize("driver", sorted(CASES))
def test_cancelling_coefficients_are_not_squared(driver):
    # a rank-2 basis y1 = x0 + a, y2 = x0 - a + 2 EPS e_k and every node
    # (y1 + y2) / 2 = x0 + EPS e_k: the coefficients cancel the field a.
    # Dyadic data keep y1, y2 and x exact in double, so what is measured
    # is the accumulator's own arithmetic
    _, _, (n_v, n_q), grid, (e, w) = CASES[driver]()
    rng = np.random.default_rng(3)
    k = int(np.argmax(np.abs(e).sum(axis=0)))
    x0, a = rng.integers(-8, 9, (2, n_v + n_q)) / 8.0
    x0[k] = a[k] = 0.0
    x = x0.copy()
    x[k] = EPS
    y = np.array([x0 + a, x0 - a])
    y[1, k] = 2.0 * EPS
    nodes = grid.n_steps + 1
    norms = {("f", "e0"): (e, w, e @ x0)}
    coef = L1NormAccumulator(grid, np.ones_like, norms)
    coef.add(0, np.zeros((n_v, nodes)), np.zeros((n_q, nodes)),
             (np.full((nodes, 2), 0.5), y))
    dense = accumulate(lambda: L1NormAccumulator(grid, np.ones_like, norms),
                       [(x[:n_v], x[n_v:])] * nodes)[1]
    col = e[:, k].toarray().ravel()
    want = grid.T * EPS * math.sqrt(float(np.sum(w * col * col)))
    for result in (coef.result(), dense):
        assert_allclose(result["f"]["e0"], want, rtol=1e-6)

    # the Gram of the coefficients, c.(delta G delta^T)c, loses it
    gram = e.T @ (w[:, None] * e.toarray())
    delta = y - np.outer(y @ gram @ x0 / (x0 @ gram @ x0), x0)
    c = np.array([0.5, 0.5])
    squared = grid.T * math.sqrt(abs(c @ (delta @ gram @ delta.T) @ c))
    assert not abs(squared - want) <= 1e-2 * want


def test_a_block_that_reached_the_lu_is_measured_densely():
    # a rank-one pair loads the first block, dense full-rank loads the
    # rest: each of those blocks is one LU solve, without a basis
    prob = LaplaceProblem(4, delta=0.01)
    grid = TimeGrid(T=0.3, n_steps=150)
    rng = np.random.default_rng(2)
    base = prob.rhs(grid.times[:1])[0]

    def load(times):
        if times[0] < grid.times[64]:
            return base, np.cos(times)[None, :]
        return base @ np.cos(times)[None, :] \
            + rng.standard_normal((len(base), len(times)))

    dense, coef, ranks = dense_and_coefficient_runs(
        prob.system, grid, lambda: laplace_accumulator(
            prob.space, prob.manufactured, grid),
        prob.system.zero_load, load)
    assert ranks == [1, None, None]
    assert np.array_equal(coef._squares[64:], dense._squares[64:])
    assert_allclose(coef._squares[:64], dense._squares[:64], rtol=1e-14)


@pytest.mark.parametrize("path", ["dense", "basis"])
def test_result_is_the_per_node_sum_on_random_states(path):
    # two norms, one weighted by a vector and one by a sparse symmetric
    # positive definite matrix, each reading some of the dofs; states
    # (C Y)^T on a random rank-3 basis, added in blocks densely or by
    # their coefficients: result() is sum_n w_n sqrt(d_n.W d_n) with
    # d_n = E x_n - c(t_n) r, node by node
    rng = np.random.default_rng(17)
    grid = TimeGrid(T=1.5, n_steps=40)
    n_v, n_q = 9, 5
    e1 = rng.standard_normal((20, n_v + n_q)) \
        * (rng.random((20, n_v + n_q)) < 0.6)
    e1[:, 3] = 0.0                          # a dof this norm does not read
    e2 = np.hstack([np.zeros((7, n_v)), rng.standard_normal((7, n_q))])
    m = rng.standard_normal((7, 7))
    norms = {("a", "vector"): (sp.csr_matrix(e1), rng.uniform(0.5, 2.0, 20),
                               rng.standard_normal(20)),
             ("b", "matrix"): (sp.csr_matrix(e2),
                               sp.csr_matrix(m @ m.T + 7.0 * np.eye(7)),
                               rng.standard_normal(7))}
    coef = rng.standard_normal((grid.n_steps + 1, 3))
    y = rng.standard_normal((3, n_v + n_q))
    x = (coef @ y).T
    acc = L1NormAccumulator(grid, np.cos, norms)
    for n in range(0, grid.n_steps + 1, 16):
        block = slice(n, n + 16)
        basis = (coef[block], y) if path == "basis" else None
        acc.add(n, x[:n_v, block], x[n_v:, block], basis)
    got = acc.result()

    for (name, norm), (e, w, r) in norms.items():
        wm = w.toarray() if sp.issparse(w) else np.diag(w)
        want = sum(w_n * math.sqrt(d @ wm @ d) for w_n, d in zip(
            grid.weights, (e @ x[:, n] - math.cos(t) * r
                           for n, t in enumerate(grid.times))))
        assert_allclose(got[name][norm], want, rtol=1e-12)


def random_basis_case(seed=5):
    """A Laplace accumulator of 41 nodes and states (C Y)^T on a random
    rank-2 basis: ``(build, grid, (n_v, n_q), coef, y)``."""
    build, _, (n_v, n_q), grid, _ = laplace_case(n_steps=40)
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((grid.n_steps + 1, 2))
    return build, grid, (n_v, n_q), coef, rng.standard_normal((2, n_v + n_q))


def test_a_basis_alone_adds_what_the_states_add():
    # a block given its basis is measured from C: the states it comes
    # with change nothing, so u = p = None adds the same squares
    build, grid, (n_v, _), coef, y = random_basis_case()
    x = (coef @ y).T
    with_states, alone = build(), build()
    for n in range(0, grid.n_steps + 1, 16):
        block = slice(n, n + 16)
        with_states.add(n, x[:n_v, block], x[n_v:, block], (coef[block], y))
        alone.add(n, None, None, (coef[block], y))
    assert np.array_equal(alone._squares, with_states._squares)
    assert alone.result() == with_states.result()


def test_a_block_needs_its_states_or_a_basis_of_its_nodes():
    # a bad add is refused where it is made, and changes nothing
    build, grid, (n_v, n_q), coef, y = random_basis_case()
    x = (coef @ y).T
    acc = build()
    with pytest.raises(ValueError, match="states or its basis"):
        acc.add(0, None, None)
    with pytest.raises(ValueError, match="u holds 3 nodes and the basis 2"):
        acc.add(0, x[:n_v, :3], x[n_v:, :3], (coef[:2], y))
    with pytest.raises(ValueError, match="u holds 1 nodes and the basis 3"):
        acc.add(0, x[:n_v, 0], x[n_v:, 0], (coef[:3], y))
    acc.add(0, None, None, (coef, y))
    want = build()
    want.add(0, x[:n_v], x[n_v:], (coef, y))
    assert acc.result() == want.result()
