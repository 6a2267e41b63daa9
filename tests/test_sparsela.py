import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose, assert_array_equal

from memfem.errors import EstimatorError, SaddleSolverError
from memfem.beam import BeamProblem, joined_profile
from memfem.kernels import MemoryKernel, PronySLS, beam_kernel
from memfem.sparsela import (
    SOLVE_BACKWARD_TOL,
    SaddleFactorization,
    as_csr,
    factorize_saddle,
    infsup_estimate,
    kernel_ellipticity,
    operator_norm_b,
    operator_norm_estimate,
)
from memfem.volterra import (BlockSaddleSystem, HistoryBuffer, TimeGrid,
                             dense_load, history_sum, step, step_gammas)


def random_spd(n, rng):
    r = rng.standard_normal((n, n))
    return r @ r.T + n * np.eye(n)


def test_as_csr_copies_rather_than_rewrites_its_input():
    # a CSR matrix shares its arrays with sp.csr_matrix(m): sorting in
    # place would reorder the caller's matrix
    m = sp.csr_matrix((np.array([1.0, 2.0, 3.0]), np.array([2, 0, 1]),
                       np.array([0, 3])), shape=(1, 3))
    out = as_csr(m)
    assert_array_equal(out.indices, [0, 1, 2])
    assert_array_equal(out.data, [2.0, 3.0, 1.0])
    assert_array_equal(m.indices, [2, 0, 1])
    assert_array_equal(m.data, [1.0, 2.0, 3.0])
    # a canonical matrix is taken as it is, without a copy
    assert np.shares_memory(as_csr(out).data, out.data)


def test_factorize_saddle_hand_example():
    a = sp.identity(2, format="csr")
    b = sp.csr_matrix(np.array([[1.0, 0.0]]))
    fact = factorize_saddle(a, b)
    u, p = fact.solve(np.array([1.0, 0.0]), np.array([1.0]))
    assert_allclose(u, [1.0, 0.0], atol=1e-14)
    assert_allclose(p, [0.0], atol=1e-14)


def test_factorize_saddle_zero_row_is_rank_deficiency():
    a = sp.identity(3, format="csr")
    b = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(SaddleSolverError, match="rank deficient"):
        factorize_saddle(a, b)


def test_solve_rejects_only_non_finite_solutions():
    # u = (g, f2), p = f1 - g: entries of 1e308 are finite although any
    # sum of them overflows, while an infinite or NaN load gives a
    # non-finite solution
    fact = factorize_saddle(sp.identity(2, format="csr"),
                            sp.csr_matrix(np.array([[1.0, 0.0]])))
    u, p = fact.solve(np.array([1e308, 1e308]), np.zeros(1))
    assert_array_equal(np.concatenate([u, p]), [0.0, 1e308, 1e308])
    for bad in (math.inf, math.nan):
        with pytest.raises(SaddleSolverError, match="non-finite"):
            fact.solve(np.array([bad, 1.0]), np.zeros(1))


def test_factor_solve_random_residuals():
    rng = np.random.RandomState(42)
    for trial in range(100):
        n, m = 30, 10
        a = random_spd(n, rng)
        b = rng.standard_normal((m, n))
        fact = factorize_saddle(sp.csr_matrix(a), sp.csr_matrix(b))
        f = rng.standard_normal(n)
        g = rng.standard_normal(m)
        u, p = fact.solve(f, g)
        kkt = np.block([[a, b.T], [b, np.zeros((m, m))]])
        rhs = np.concatenate([f, g])
        res = np.linalg.norm(kkt @ np.concatenate([u, p]) - rhs)
        assert res / np.linalg.norm(rhs) < 1e-10


def check_steps_against_scaled_kkt(a, b, rng):
    """Step an exponential k1 + k2 + k3 system on ``(a, b)``: each node
    n >= 1 equals an LU solve of ``[[g1 A, g2 B^T], [g3 B, 0]]`` with its
    history sums, although the factorization holds the unscaled ``K``."""
    exp = MemoryKernel.exp_convolution
    sys_ = BlockSaddleSystem(a, b, exp(-2.4, 1.0), exp(5.6, 0.5),
                             exp(7.992, 2.0))
    assert isinstance(sys_.saddle._lu, spla.SuperLU)
    grid = TimeGrid(T=1.0, n_steps=4)   # w_nn = 1/8: g3 next to the gate
    g1, g2, g3 = step_gammas(sys_, grid, 1)
    assert_allclose((g1, g2, g3), (1.3, 0.3, 1e-3), rtol=1e-12)
    kkt = sp.bmat([[g1 * a, g2 * b.T], [g3 * b, None]], format="csc")
    scaled = spla.splu(kkt)
    hist = HistoryBuffer(sys_, grid)
    for n in range(grid.n_steps + 1):
        f = rng.standard_normal(b.shape[1])
        g = rng.standard_normal(b.shape[0])
        if n:
            rhs = np.concatenate([
                f + a @ history_sum(hist, sys_.k1, "u")
                + b.T @ history_sum(hist, sys_.k2, "p"),
                g + history_sum(hist, sys_.k3, "q")])
        u, p, _ = step(sys_, hist, f[:, None], g[:, None])
        if n:
            ref = scaled.solve(rhs)
            x = np.concatenate([u[:, 0], p[:, 0]])
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_scaled_solve_matches_lu_of_scaled_kkt():
    # g1, g2 and g3 all differ: the scalings step applies around the
    # solve of K, on a SuperLU factorization
    rng = np.random.RandomState(7)
    n, m = 40, 12
    a = sp.csr_matrix(random_spd(n, rng))
    b = sp.csr_matrix(rng.standard_normal((m, n)))
    check_steps_against_scaled_kkt(a, b, rng)


def test_factor_matches_dense_reference():
    rng = np.random.RandomState(1)
    n, m = 30, 10
    a = random_spd(n, rng)
    b = rng.standard_normal((m, n))
    fact = factorize_saddle(sp.csr_matrix(a), sp.csr_matrix(b))
    f = rng.standard_normal(n)
    g = rng.standard_normal(m)
    u, p = fact.solve(f, g)
    kkt = np.block([[a, b.T], [b, np.zeros((m, m))]])
    ref = np.linalg.solve(kkt, np.concatenate([f, g]))
    assert_allclose(np.concatenate([u, p]), ref, rtol=1e-9, atol=1e-11)


def laplace_blocks(m):
    """``(a, b)`` of the RT0 x P0 Laplace pair on an m x m mesh."""
    from memfem.laplace_mem import LaplaceProblem
    prob = LaplaceProblem(m)
    return prob.a, prob.b


@pytest.mark.parametrize("m", [1, 2, 7, 24])
def test_rt0_p0_pair_on_superlu_matches_lu_of_scaled_kkt(m):
    a, b = laplace_blocks(m)
    check_steps_against_scaled_kkt(a, b, np.random.RandomState(m))


def test_rt0_p0_pair_on_superlu_residual_at_m64():
    a, b = laplace_blocks(64)
    fact = factorize_saddle(a, b)
    rng = np.random.RandomState(64)
    f = rng.standard_normal(b.shape[1])
    g = rng.standard_normal(b.shape[0])
    u, p = fact.solve(f, g)
    res = np.concatenate([a @ u + b.T @ p - f, b @ u - g])
    assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(np.concatenate([f, g]))


def block_factorizations():
    """SuperLU factorizations of a random dense pair ("superlu") and of
    the RT0 x P0 Laplace pair at m = 6 ("rt0_p0_pair_on_superlu")."""
    rng = np.random.RandomState(5)
    a, b = random_spd(30, rng), rng.standard_normal((10, 30))
    superlu = factorize_saddle(sp.csr_matrix(a), sp.csr_matrix(b))
    return [superlu, factorize_saddle(*laplace_blocks(6))]


@pytest.mark.parametrize("kind", [0, 1], ids=["superlu", "rt0_p0_pair_on_superlu"])
def test_column_block_solve_matches_column_solves(kind):
    fact = block_factorizations()[kind]
    rng = np.random.RandomState(11)
    k = 7
    f = rng.standard_normal((fact.n_v, k))
    g = rng.standard_normal((fact.n_q, k))
    u, p = fact.solve(f, g)
    assert u.shape == (fact.n_v, k) and p.shape == (fact.n_q, k)
    for j in range(k):
        uj, pj = fact.solve(f[:, j], g[:, j])
        ref = np.concatenate([uj, pj])
        x = np.concatenate([u[:, j], p[:, j]])
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", [0, 1], ids=["superlu", "rt0_p0_pair_on_superlu"])
def test_column_block_solve_rejects_one_non_finite_column(kind):
    fact = block_factorizations()[kind]
    f = np.ones((fact.n_v, 5))
    g = np.ones((fact.n_q, 5))
    fact.solve(f, g)
    for bad in (math.inf, math.nan):
        f[3, 2] = bad
        with pytest.raises(SaddleSolverError, match="non-finite"):
            fact.solve(f, g)


def frozen(x):
    """A read-only copy of ``x``: a pair's ``V`` that a run solves once."""
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return x


def factored(n_v=30, n_q=10, seed=3):
    """A memory-free system on a random pair, a read-only load vector of
    each row, and a fresh history for blocks of one step each from node 0."""
    rng = np.random.RandomState(seed)
    a = sp.csr_matrix(random_spd(n_v, rng))
    b = sp.csr_matrix(rng.standard_normal((n_q, n_v)))
    sys_ = BlockSaddleSystem(a, b)
    return (sys_, frozen(rng.standard_normal((n_v, 1))),
            frozen(rng.standard_normal((n_q, 1))),
            HistoryBuffer(sys_, TimeGrid(T=1.0, n_steps=100)))


def count_lu_columns(monkeypatch):
    """Columns that reach ``SaddleFactorization.solve``, call by call."""
    columns = []
    orig = SaddleFactorization.solve

    def counted(fact, f, g):
        columns.append(1 if f.ndim == 1 else f.shape[1])
        return orig(fact, f, g)

    monkeypatch.setattr(SaddleFactorization, "solve", counted)
    return columns


def test_recycled_solves_reach_the_lu_once_per_direction(monkeypatch):
    # each new vector V of a pair (V, C) reaches the LU once in a run,
    # on its block row; the same V in later blocks costs no LU solve, and
    # a new V object does, however near the old one
    sys_, f, g, hist = factored()
    off = frozen(f + 1e-8 * np.arange(len(f))[:, None])
    scales = np.array([[-2.0, 0.5, 3.0, 1e-3]])
    blocks = [((f, scales[:, :1]), (g, scales[:, :1])),
              ((f, scales), (g, 2.0 * scales)),
              ((off, scales[:, :1]), (g, scales[:, :1]))]
    refs = [np.concatenate(sys_.saddle.solve(*map(dense_load, block)))
            for block in blocks]
    lu = count_lu_columns(monkeypatch)
    for block, ref, reached in zip(blocks, refs, ([1, 1], [1, 1], [1, 1, 1])):
        x = np.concatenate(step(sys_, hist, *block)[:2])
        assert lu == reached
        assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert len(hist.y) == 3


def test_recycled_coefficients_give_the_states():
    # a block of pairs comes with its basis (C, Y): [u; p] = (C Y)^T,
    # where Y = hist.y gains a row per new vector and keeps its rows; a
    # block with a dense load comes without one
    sys_, f, g, hist = factored()
    both = frozen(np.hstack((f, f + 1e-8 * np.arange(len(f))[:, None])))
    blocks = [((f, [[-2.0, 0.5]]), (g, [[-2.0, 0.5]])),
              ((both, [[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]]),
               (g, [[1.0, 1.0, 3.0]])),
              ((f, [[1.0]]), (g, [[1.0]]))]
    seen = np.empty((0, len(f) + len(g)))
    for (load_f, load_g), rank in zip(blocks, (2, 4, 4)):
        u, p, (c, y) = step(sys_, hist, (load_f[0], np.array(load_f[1])),
                            (load_g[0], np.array(load_g[1])))
        x = np.concatenate((u, p))
        assert c.shape == (x.shape[1], rank) and y is hist.y and len(y) == rank
        assert_array_equal(y[:len(seen)], seen)
        seen = y
        assert np.max(np.abs(c @ y - x.T)) <= 1e-14 * np.max(np.abs(x))
    assert step(sys_, hist, f, (g, np.ones((1, 1))))[2] is None


def test_recycled_empty_basis_holds_no_column(monkeypatch):
    # loads of rank 0 on both rows reach no LU and give zero states on a
    # basis of no rows
    sys_, f, g, hist = factored()
    lu = count_lu_columns(monkeypatch)
    u, p, (c, y) = step(sys_, hist, (f[:, :0], np.empty((0, 3))),
                        (g[:, :0], np.empty((0, 3))))
    assert lu == [] and len(hist.y) == 0
    assert c.shape == (3, 0) and y.shape == (0, len(f) + len(g))
    assert u.shape == (len(f), 3) and not u.any() and not p.any()


@pytest.mark.parametrize("bad", [1e300, 1e308, math.inf, math.nan])
@pytest.mark.parametrize("warm", [False, True], ids=["empty", "warm"])
def test_recycled_column_that_overflows_takes_the_lu_path(bad, warm):
    # a vector V scaled by bad reaches the LU, and the block gives the
    # plain solve's outcome or raises as the plain solve or its check
    # does; coefficients scaled by bad raise when not finite and read
    # inf or the scaled states otherwise, never 0
    sys_, f, g, hist = factored()
    if warm:
        step(sys_, hist, (f, np.ones((1, 1))), (g, np.ones((1, 1))))
    for load_f, load_g in ((frozen(bad * f), g), (f, frozen(bad * g)),
                           (frozen(bad * f), frozen(bad * g))):
        try:
            ref = np.concatenate(sys_.saddle.checked_solve(load_f, load_g))
        except SaddleSolverError:
            with pytest.raises(SaddleSolverError):
                step(sys_, hist, (load_f, np.ones((1, 1))),
                     (load_g, np.ones((1, 1))))
            continue
        x = np.concatenate(step(sys_, hist, (load_f, np.ones((1, 1))),
                                (load_g, np.ones((1, 1))))[:2])
        assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
    ones = np.ones((1, 1))
    if not math.isfinite(bad):
        with pytest.raises(SaddleSolverError, match="non-finite"):
            step(sys_, hist, (f, bad * ones), (g, ones))
        return
    with np.errstate(over="ignore"):
        x = np.concatenate(step(sys_, hist, (f, bad * ones),
                                (g, bad * ones))[:2])
    ref = np.concatenate(sys_.saddle.solve(f, g))
    with np.errstate(over="ignore"):
        assert_array_equal(np.isinf(x), np.isinf(bad * ref))
        finite = np.isfinite(x)
        assert np.max(np.abs(x[finite] - bad * ref[finite])) \
            <= 1e-14 * np.max(np.abs(bad * ref[finite]))


def test_recycled_solution_that_overflows_raises():
    # u = A^{-1} f overflows where f and p do not: the vector's LU solve
    # raises
    a = 1e-10 * sp.identity(2, format="csr")
    b = sp.csr_matrix(np.array([[1.0, 0.0]]))
    sys_ = BlockSaddleSystem(a, b)
    hist = HistoryBuffer(sys_, TimeGrid(T=1.0, n_steps=4))
    step(sys_, hist, (np.array([[0.0], [1.0]]), np.ones((1, 1))),
         (np.zeros((1, 1)), np.ones((1, 1))))
    with pytest.raises(SaddleSolverError, match="non-finite"):
        step(sys_, hist, (np.array([[0.0], [1e300]]), np.ones((1, 1))),
             (np.zeros((1, 1)), np.ones((1, 1))))


def test_full_rank_loads_give_the_plain_solve(monkeypatch):
    # dense loads, in blocks and one node at a time: each block is one
    # LU call with all of its columns, bit for bit the plain solve
    sys_, _, _, hist = factored(n_v=40, n_q=10)
    loads = np.random.RandomState(8).standard_normal((50, 60))
    ref = np.concatenate(sys_.saddle.solve(loads[:40], loads[40:]))
    lu = count_lu_columns(monkeypatch)
    for cols in (slice(0, 10), slice(10, 11), slice(11, 40), slice(40, 60)):
        u, p, basis = step(sys_, hist, loads[:40, cols], loads[40:, cols])
        assert basis is None
        assert_array_equal(np.concatenate((u, p)), ref[:, cols])
    assert lu == [10, 1, 29, 20] and len(hist.y) == 0


def test_checked_solve_raises_on_a_large_backward_error():
    # an LU of K with A moved by 1e-6 solves, and checked against K
    # itself reads a backward error of about 1e-8: it raises, in the
    # stepper too; the plain solve does not check
    rng = np.random.RandomState(4)
    a = sp.csr_matrix(random_spd(12, rng))
    b = sp.csr_matrix(rng.standard_normal((4, 12)))
    good = factorize_saddle(a, b)
    bad = factorize_saddle(a + 1e-6 * sp.identity(12), b)
    wrong = SaddleFactorization(bad._lu, a, b)
    f, g = rng.standard_normal(12), rng.standard_normal(4)
    good.checked_solve(f, g)
    wrong.solve(f, g)
    with pytest.raises(SaddleSolverError, match="backward error .* exceeds"):
        wrong.checked_solve(f, g)
    sys_ = BlockSaddleSystem(a, b)
    sys_.saddle = wrong
    with pytest.raises(SaddleSolverError, match="backward error"):
        step(sys_, HistoryBuffer(sys_, TimeGrid(T=1.0, n_steps=2)),
             (frozen(f[:, None]), np.ones((1, 1))),
             (frozen(g[:, None]), np.ones((1, 1))))
    # a zero column is solved exactly
    assert not np.concatenate(good.checked_solve(np.zeros(12),
                                                 np.zeros(4))).any()


@pytest.mark.parametrize("n", [20, 160])
def test_thin_beam_solves_pass_the_check(n):
    # the joined beam at d = 1e-4 (eps^2 about 4e-9): its one load
    # direction reads a backward error far below SOLVE_BACKWARD_TOL, per
    # block row, and a run with its error norms raises nothing
    cfg = joined_profile(d=1e-4)
    kern = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    prob = BeamProblem(cfg, n, kern, 1.0, np.exp, None)
    fact, (v, _) = prob.system.saddle, prob.rhs([0.0])
    f = np.zeros((prob.n_v, 1))
    u, p = fact.checked_solve(f, v)
    a, b = prob.a.toarray(), prob.b.toarray()
    res_f = abs(a @ u + b.T @ p).max()
    res_g = abs(b @ u - v).max()
    norm_a, norm_bt = abs(a).sum(axis=1).max(), abs(b.T).sum(axis=1).max()
    eta_f = res_f / (norm_a * abs(u).max() + norm_bt * abs(p).max())
    eta_g = res_g / (abs(b).sum(axis=1).max() * abs(u).max() + abs(v).max())
    assert max(eta_f, eta_g) <= 1e-3 * SOLVE_BACKWARD_TOL
    grid = TimeGrid(T=1.0, n_steps=200)
    errors, _ = prob.run(grid, reference=prob.reference(grid, n))
    assert np.isfinite([errors[k]["e0"] for k in BeamProblem.FIELDS]).all()


def gram_sqrt(g):
    w, v = np.linalg.eigh(g)
    return v @ np.diag(np.sqrt(w)) @ v.T


def test_infsup_isometry_case():
    # with B = Gq^{1/2} [I | 0] Gv^{1/2} every singular value of the
    # weighted matrix is one
    rng = np.random.RandomState(5)
    n, m = 12, 5
    gv = random_spd(n, rng)
    gq = random_spd(m, rng)
    iso = np.hstack([np.eye(m), np.zeros((m, n - m))])
    b = gram_sqrt(gq) @ iso @ gram_sqrt(gv)
    beta = infsup_estimate(sp.csr_matrix(gv), sp.csr_matrix(gq), sp.csr_matrix(b))
    assert_allclose(beta, 1.0, rtol=1e-8)


def test_infsup_matches_dense_svd():
    rng = np.random.RandomState(6)
    n, m = 20, 7
    gv = random_spd(n, rng)
    gq = random_spd(m, rng)
    b = rng.standard_normal((m, n))
    beta = infsup_estimate(sp.csr_matrix(gv), sp.csr_matrix(gq), sp.csr_matrix(b))
    weighted = np.linalg.solve(gram_sqrt(gq), b) @ np.linalg.inv(gram_sqrt(gv))
    ref = np.linalg.svd(weighted, compute_uv=False).min()
    assert_allclose(beta, ref, rtol=1e-7)


@pytest.mark.parametrize("driver", ["laplace", "beam"])
def test_operator_norm_b_matches_dense_svd(driver):
    # largest singular value of Gq^{-1/2} B Gv^{-1/2} on the real Grams
    if driver == "laplace":
        from memfem.laplace_mem import LaplaceProblem
        prob = LaplaceProblem(4, delta=0.01)
    else:
        from memfem.beam import BeamProblem, joined_profile
        prob = BeamProblem(joined_profile(0.001), 8, None, 1.0, np.exp, None)
    gv, gq = prob.grams()
    b = prob.system.b
    norm = operator_norm_b(b, gv, gq)
    weighted = np.linalg.solve(gram_sqrt(gq.toarray()), b.toarray()) \
        @ np.linalg.inv(gram_sqrt(gv.toarray()))
    ref = np.linalg.svd(weighted, compute_uv=False).max()
    assert_allclose(norm, ref, rtol=1e-10)


def test_definite_lu_reads_the_inertia():
    # an unpivoted LU of a symmetric matrix is L D L^T up to scaling:
    # definite iff every pivot is positive (Sylvester's law of inertia)
    from memfem.sparsela import _definite_lu
    rng = np.random.RandomState(14)
    basis, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    for low, definite in ((1e-6, True), (-1e-6, False), (-1.0, False)):
        m = basis @ np.diag(np.r_[low, np.linspace(1.0, 2.0, 11)]) @ basis.T
        got = _definite_lu(sp.csc_matrix(0.5 * (m + m.T)))
        assert (got is not None) == definite
    for m in ([[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 2.0]]):
        assert _definite_lu(sp.csc_matrix(np.array(m))) is None


def test_operator_norm_b_exact_case():
    # B = [s I, 0] with identity Grams: every nonzero singular value is s
    s_val = 2.5
    b = sp.hstack([s_val * sp.identity(3), sp.csr_matrix((3, 2))], format="csr")
    norm = operator_norm_b(b, sp.identity(5, format="csr"),
                           sp.identity(3, format="csr"))
    assert s_val <= norm <= s_val * (1.0 + 1e-12)


def test_operator_norm_b_grows_from_a_low_start(monkeypatch):
    # a Ritz value far below mu must grow the upper end by doubling
    # steps until Q is definite, never stop at an infinite upper end
    from memfem import sparsela
    from memfem.laplace_mem import LaplaceProblem
    eigsh, definite_lu = sparsela.spla.eigsh, sparsela._definite_lu
    tests = []

    def low_ritz(*args, **kwargs):
        return 0.5 * eigsh(*args, **kwargs)

    def counted(matrix):
        lu = definite_lu(matrix)
        tests.append(lu is not None)
        return lu

    monkeypatch.setattr(sparsela.spla, "eigsh", low_ritz)
    monkeypatch.setattr(sparsela, "_definite_lu", counted)
    prob = LaplaceProblem(4, delta=0.01)
    gv, gq = prob.grams()
    b = prob.system.b
    norm = operator_norm_b(b, gv, gq)
    weighted = np.linalg.solve(gram_sqrt(gq.toarray()), b.toarray()) \
        @ np.linalg.inv(gram_sqrt(gv.toarray()))
    ref = np.linalg.svd(weighted, compute_uv=False).max()
    assert np.isfinite(norm)
    assert_allclose(norm, ref, rtol=1e-10)
    # from mu / 2 with a first step of 1e-4 lo, 13 doublings reach mu
    assert tests.index(True) >= 10


def test_operator_norm_b_zero_form():
    b = sp.csr_matrix((3, 5))
    assert operator_norm_b(b, sp.identity(5, format="csr"),
                           sp.identity(3, format="csr")) == 0.0


@pytest.mark.parametrize("driver", ["laplace", "beam"])
def test_operator_norm_b_is_certified(driver):
    # Q(s) = [[Gv, B^T], [B, s Gq]] is definite exactly when s > ||b||^2:
    # the bound holds at mu and is tight to 1e-9 (dense Cholesky decides)
    if driver == "laplace":
        from memfem.laplace_mem import LaplaceProblem
        prob = LaplaceProblem(8)
    else:
        from memfem.beam import BeamProblem, joined_profile
        prob = BeamProblem(joined_profile(0.001), 8, None, 1.0, np.exp, None)
    gv, gq = prob.grams()
    b = prob.system.b
    mu = operator_norm_b(b, gv, gq) ** 2

    def q(s):
        return sp.bmat([[gv, b.T], [b, s * gq]]).toarray()

    np.linalg.cholesky(q(mu))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(q(mu * (1.0 - 1e-9)))


def test_operator_norm_b_allocates_no_dense_block():
    # the dense path held two n_v x n_q arrays (51 MB each here); the
    # bracket's numpy arrays grow with nnz, 3.5 MB at this size
    import tracemalloc

    from memfem.laplace_mem import LaplaceProblem
    prob = LaplaceProblem(32)
    gv, gq = prob.grams()
    b = prob.system.b
    n_q, n_v = b.shape
    tracemalloc.start()
    try:
        operator_norm_b(b, gv, gq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_v * n_q   # an eighth of one n_v x n_q float64 array


def test_infsup_rank_deficient_is_zero():
    rng = np.random.RandomState(7)
    n, m = 12, 4
    gv = random_spd(n, rng)
    gq = random_spd(m, rng)
    b = rng.standard_normal((m, n))
    b[2] = 0.0
    beta = infsup_estimate(sp.csr_matrix(gv), sp.csr_matrix(gq), sp.csr_matrix(b))
    assert beta < 1e-10


def test_infsup_monotone_under_row_zeroing():
    rng = np.random.RandomState(8)
    n, m = 16, 6
    gv = random_spd(n, rng)
    gq = np.eye(m)
    b = rng.standard_normal((m, n))
    betas = []
    for rows_kept in (6, 5, 4):
        bz = b.copy()
        bz[rows_kept:] = 0.0
        betas.append(infsup_estimate(sp.csr_matrix(gv), sp.csr_matrix(gq),
                                     sp.csr_matrix(bz)))
    assert betas[0] > 0
    assert betas[1] < 1e-10 and betas[2] < 1e-10


def test_estimators_invariant_under_permutation():
    rng = np.random.RandomState(9)
    n, m = 18, 6
    gv = random_spd(n, rng)
    gq = random_spd(m, rng)
    a = random_spd(n, rng)
    b = rng.standard_normal((m, n))
    beta = infsup_estimate(sp.csr_matrix(gv), sp.csr_matrix(gq), sp.csr_matrix(b))
    alpha = kernel_ellipticity(sp.csr_matrix(a), sp.csr_matrix(b),
                               sp.csr_matrix(gv))
    pv = rng.permutation(n)
    pq = rng.permutation(m)
    gv_p = gv[np.ix_(pv, pv)]
    a_p = a[np.ix_(pv, pv)]
    gq_p = gq[np.ix_(pq, pq)]
    b_p = b[np.ix_(pq, pv)]
    beta_p = infsup_estimate(sp.csr_matrix(gv_p), sp.csr_matrix(gq_p),
                             sp.csr_matrix(b_p))
    alpha_p = kernel_ellipticity(sp.csr_matrix(a_p), sp.csr_matrix(b_p),
                                 sp.csr_matrix(gv_p))
    assert_allclose(beta_p, beta, rtol=1e-8)
    assert_allclose(alpha_p, alpha, rtol=1e-8)


def test_kernel_ellipticity_identity_gram():
    rng = np.random.RandomState(10)
    n, m = 14, 5
    g = random_spd(n, rng)
    b = rng.standard_normal((m, n))
    alpha = kernel_ellipticity(sp.csr_matrix(g), sp.csr_matrix(b),
                               sp.csr_matrix(g))
    assert_allclose(alpha, 1.0, rtol=1e-10)


def test_kernel_ellipticity_empty_nullspace():
    alpha = kernel_ellipticity(sp.identity(3, format="csr"),
                               sp.csr_matrix(np.eye(3)),
                               sp.identity(3, format="csr"))
    assert alpha == np.inf


def test_kernel_ellipticity_matches_dense():
    rng = np.random.RandomState(11)
    n, m = 16, 6
    a = random_spd(n, rng)
    gv = random_spd(n, rng)
    b = rng.standard_normal((m, n))
    alpha = kernel_ellipticity(sp.csr_matrix(a), sp.csr_matrix(b),
                               sp.csr_matrix(gv))
    z = scipy.linalg.null_space(b)
    ref = scipy.linalg.eigh(z.T @ a @ z, z.T @ gv @ z, eigvals_only=True)[0]
    assert_allclose(alpha, ref, rtol=1e-10)


def test_operator_norm_estimate():
    rng = np.random.RandomState(12)
    n = 15
    a = random_spd(n, rng)
    gv = random_spd(n, rng)
    lam = operator_norm_estimate(sp.csr_matrix(a), sp.csr_matrix(gv))
    ref = np.max(scipy.linalg.eigh(a, gv, eigvals_only=True))
    assert_allclose(lam, ref, rtol=1e-7)
    # certified: power iteration settles 1.3e-10 short of the top here,
    # which the inertia test of lam (1 + 1e-10) Gv - A makes it go past
    assert ref <= lam * (1.0 + 1e-10)
    np.linalg.cholesky(lam * (1.0 + 1e-10) * gv - a)


def test_operator_norm_estimate_tests_inertia_sparingly(monkeypatch):
    # a top gap of 1e-2 contracts slowly: the change per step is within
    # tol long before lam is, and each failed test must not be repeated
    # every step (that cost 195 LUs here) but wait for a tenfold fall
    from memfem import sparsela
    definite_lu = sparsela._definite_lu
    tests = []

    def counted(matrix):
        lu = definite_lu(matrix)
        tests.append(lu is not None)
        return lu

    monkeypatch.setattr(sparsela, "_definite_lu", counted)
    d = np.r_[np.linspace(0.1, 0.9, 18), 1.0 - 1e-2, 1.0]
    lam = operator_norm_estimate(sp.diags(d).tocsr(),
                                 sp.identity(20, format="csr"))
    assert lam <= 1.0 <= lam * (1.0 + 1e-10)
    assert len(tests) <= 4 and tests[-1]


@pytest.mark.parametrize("driver", ["laplace", "joined", "smooth"])
def test_sparse_estimators_match_dense_reference(driver):
    # dense references: the Schur pencil (B Gv^{-1} B^T, Gq) and the
    # pencil (A, Gv) projected onto an SVD basis of null(B)
    from memfem.beam import BeamProblem, joined_profile, smooth_profile
    from memfem.laplace_mem import LaplaceProblem
    if driver == "laplace":
        prob = LaplaceProblem(8)
    else:
        profile = joined_profile(0.001) if driver == "joined" else smooth_profile()
        prob = BeamProblem(profile, 8, None, 1.0, np.exp, None)
    gv, gq = prob.grams()
    a, b = prob.system.a, prob.system.b
    ad, bd, gvd, gqd = (m.toarray() for m in (a, b, gv, gq))
    s = bd @ np.linalg.solve(gvd, bd.T)
    beta_ref = math.sqrt(scipy.linalg.eigh(0.5 * (s + s.T), gqd,
                                           eigvals_only=True)[0])
    z = scipy.linalg.null_space(bd)
    alpha_ref = scipy.linalg.eigh(z.T @ ad @ z, z.T @ gvd @ z,
                                  eigvals_only=True)[0]
    assert_allclose(infsup_estimate(gv, gq, b), beta_ref, rtol=1e-10)
    assert_allclose(kernel_ellipticity(a, b, gv), alpha_ref, rtol=1e-10)
    # the certificate prints n_v - n_q as the dimension of null(B)
    assert z.shape[1] == b.shape[1] - b.shape[0]


def test_kernel_ellipticity_zero_row_raises():
    rng = np.random.RandomState(13)
    n, m = 12, 4
    a = random_spd(n, rng)
    b = rng.standard_normal((m, n))
    b[1] = 0.0
    with pytest.raises(EstimatorError, match="rank deficient"):
        kernel_ellipticity(sp.csr_matrix(a), sp.csr_matrix(b),
                           sp.csr_matrix(random_spd(n, rng)))
