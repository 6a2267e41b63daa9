import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose, assert_array_equal

from memfem.errors import EstimatorError, SaddleSolverError, StabilityGateError
from memfem import volterra
from memfem.kernels import MemoryKernel, PronySLS, beam_kernel, fickian_kernel
from memfem.laplace_mem import LaplaceProblem
from memfem.sparsela import SaddleFactorization
from memfem.volterra import (
    BlockSaddleSystem,
    HistoryBuffer,
    TimeGrid,
    VolterraStepper,
    audit,
    dense_load,
    error_constants,
    history_sum,
    stability_constants,
    step,
    step_gammas,
)


def scalar_system(k3=None):
    a = sp.csr_matrix(np.array([[1.0]]))
    b = sp.csr_matrix(np.array([[1.0]]))
    return BlockSaddleSystem(a, b, k3=k3)


def sized_system(n_v, n_q, **kernels):
    """A system with n_v velocities and n_q pressures; its kernels fix
    the history a buffer keeps."""
    return BlockSaddleSystem(sp.identity(n_v, format="csr"),
                             sp.csr_matrix(np.eye(n_q, n_v)), **kernels)


def direct_form(kernel):
    """The same kernel as a general one, which takes the direct sum."""
    return MemoryKernel.from_callable(kernel.eval, bound=kernel.bound)


def const_load(*values):
    """A block load callback: the vector ``values`` at every node."""
    row = np.array(values, dtype=float)
    return lambda times: np.tile(row, (len(times), 1)).T


def frozen(x):
    """A read-only copy of ``x``: a pair's ``V`` that a run solves once."""
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return x


def pair_load(*values):
    """``const_load`` as the pair ``(V, C)``: one read-only vector V for
    every block."""
    v = frozen(np.array(values, dtype=float)[:, None])
    return lambda times: (v, np.ones((1, len(times))))


def block_load(load):
    """The per-node load ``load(t) -> vector`` as a block load callback,
    one column per node of ``times``."""
    return lambda times: np.array([load(t) for t in times]).T


def test_timegrid_basic():
    grid = TimeGrid(T=2.0, n_steps=4)
    assert grid.dt == 0.5
    assert_array_equal(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, n_steps=0)
    with pytest.raises(ValueError):
        TimeGrid(T=0.0, n_steps=3)


def test_timegrid_times_cached_and_read_only():
    grid = TimeGrid(T=1.0, n_steps=10)
    assert grid.times is grid.times
    assert not grid.times.flags.writeable
    with pytest.raises(ValueError):
        grid.times[3] = 0.0
    # the cache does not enter equality or hashing of the frozen grid
    assert grid == TimeGrid(T=1.0, n_steps=10)
    assert hash(grid) == hash(TimeGrid(T=1.0, n_steps=10))


def test_run_asks_each_load_once_per_block():
    # each callback is asked once per block, f before g, with that block's
    # nodes, in node order, and returns one column per node: blocks of
    # 64, 64 and 23 nodes.  A general k3 steps in the same blocks and asks
    # its loads one node at a time, f before g, as the benchmark's meter
    # probes a general-kernel run at every node
    kernel = MemoryKernel.exp_convolution(c=-1.0, rate=1.0)
    grid = TimeGrid(T=1.0, n_steps=150)
    for k3, asked in ((kernel, [64, 64, 23]),
                      (direct_form(kernel), [1] * 151)):
        calls = []

        def load(name, scale):
            def block(times):
                calls.append((name, times.copy()))
                return scale * times[None, :]
            return block

        blocks = []
        VolterraStepper(scalar_system(k3=k3), grid).run(
            load("f", 1.0), load("g", 2.0),
            on_step=lambda n, times, u, p, basis: blocks.append((times, u)))
        assert [len(times) for times, _ in blocks] == [64, 64, 23]
        assert [len(times) for _, times in calls[::2]] == asked
        assert [name for name, _ in calls] == ["f", "g"] * len(asked)
        for (_, f_times), (_, g_times) in zip(calls[::2], calls[1::2]):
            assert_array_equal(f_times, g_times)
        for times, u in blocks:
            assert u.shape == (1, len(times))
        assert_array_equal(np.concatenate([t for _, t in calls[::2]]),
                           grid.times)
        assert_array_equal(np.concatenate([t for t, _ in blocks]), grid.times)


def count_factorizations(monkeypatch):
    """Calls of ``factorize_saddle`` made by the stepper, counted."""
    calls = []
    orig = volterra.factorize_saddle

    def counted(a, b):
        calls.append(a.shape)
        return orig(a, b)

    monkeypatch.setattr(volterra, "factorize_saddle", counted)
    return calls


def time_varying_kernel():
    """k(t, s) = -(1 + t) e^{-(t - s)}: k(t, t) changes every step."""
    return MemoryKernel.from_callable(
        lambda t, s: -(1.0 + np.asarray(t, float))
        * np.exp(-(np.asarray(t, float) - np.asarray(s, float))), bound=3.0)


def test_time_varying_kernel_factors_once(monkeypatch):
    # k(t,t) = -(1 + t) changes the gamma of every step; the gammas are
    # applied in the solves, so 200 steps share one factorization
    calls = count_factorizations(monkeypatch)
    sys_ = scalar_system(k3=time_varying_kernel())
    grid = TimeGrid(T=1.0, n_steps=200)
    VolterraStepper(sys_, grid).run(const_load(0.0), const_load(1.0))
    assert len(calls) == 1
    assert len({step_gammas(sys_, grid, n) for n in range(1, 201)}) == 200


def test_time_varying_kernel_factors_once_rt0_p0_pair_on_superlu(monkeypatch):
    # the same through the Laplace driver, whose RT0 x P0 pair factors K
    # by SuperLU like every system
    calls = count_factorizations(monkeypatch)
    prob = LaplaceProblem(4, delta=None, kernel=time_varying_kernel())
    prob.run(TimeGrid(T=1.0, n_steps=50))
    assert len(calls) == 1
    assert isinstance(prob.system.saddle._lu, spla.SuperLU)


def test_laplace_level_at_m64_makes_one_lu_solve_per_load_direction(
        monkeypatch):
    # the largest benchmark level under the fickian kernel, with its error
    # norms: row 2's load is one vector times a scalar and row 1 has none,
    # so the run makes one LU solve, of that vector, and every block is
    # measured from its coefficients
    calls = count_factorizations(monkeypatch)
    solves = record_solves(monkeypatch)
    prob = LaplaceProblem(64)
    ranks = []
    acc_add = volterra.L1NormAccumulator.add

    def add(acc, n, u, p, basis=None):
        ranks.append(None if basis is None else basis[0].shape[1])
        return acc_add(acc, n, u, p, basis)

    monkeypatch.setattr(volterra.L1NormAccumulator, "add", add)
    errors, _ = prob.run(TimeGrid(T=1.0, n_steps=200),
                         reference=prob.manufactured)
    assert len(calls) == 1
    [(_, f, g)] = solves
    assert f.shape == (prob.space.n_edges, 1) and not f.any()
    assert_array_equal(g, prob.rhs([0.0])[0])
    assert set(ranks) == {1} and len(ranks) == 67
    assert np.isfinite([errors[k]["e0"] for k in LaplaceProblem.FIELDS]).all()


def record_solves(monkeypatch):
    """``(factorization id, f, g)`` of every LU solve."""
    solves = []
    orig = SaddleFactorization.solve

    def recorded(fact, f, g):
        solves.append((id(fact), f.copy(), g.copy()))
        return orig(fact, f, g)

    monkeypatch.setattr(SaddleFactorization, "solve", recorded)
    return solves


def test_step0_and_steady_steps_share_one_factor(monkeypatch):
    calls = count_factorizations(monkeypatch)
    solves = record_solves(monkeypatch)
    gammas = []
    orig_gammas = volterra.step_gammas

    def recorded_gammas(sys, grid, n):
        gammas.append((n, orig_gammas(sys, grid, n)))
        return gammas[-1][1]

    monkeypatch.setattr(volterra, "step_gammas", recorded_gammas)
    sys_ = scalar_system(k3=MemoryKernel.exp_convolution(c=-1.0, rate=1.0))
    grid = TimeGrid(T=1.0, n_steps=20)
    # built on first use, not with the system
    assert calls == []
    blocks = []
    stepper = VolterraStepper(sys_, grid)
    stepper.run(const_load(0.0), const_load(1.0),
                on_step=lambda n, times, u, p, basis: blocks.append((n, times, u)))
    assert len(calls) == 1
    # the 21 nodes fit one block: one solve of 21 columns on that factor,
    # with g3 folded into the constraint column q_n = B u_n
    assert stepper.width == 64
    assert [(fact, f.shape, q.shape) for fact, f, q in solves] \
        == [(id(sys_.saddle), (1, 21), (1, 21))]
    [(n0, times, u)] = blocks
    assert n0 == 0 and u.shape == (1, 21)
    assert_array_equal(times, grid.times)
    assert_array_equal(solves[0][2][0], u[0])
    assert solves[0][2][0, 0] == 1.0
    # the gate saw node 0 and node 1 only, before the block's solve
    steady = orig_gammas(sys_, grid, 1)
    assert steady != (1.0, 1.0, 1.0)
    assert gammas == [(0, (1.0, 1.0, 1.0)), (1, steady)]
    # node 1's scalings are those of every later node: the same kernel in
    # direct form evaluates k(t_n, t_n) at each of them
    direct = scalar_system(k3=direct_form(sys_.k3))
    assert [orig_gammas(direct, grid, n) for n in range(21)] \
        == [(1.0, 1.0, 1.0)] + [steady] * 20


def test_timegrid_weights_cached_and_read_only():
    grid = TimeGrid(T=1.0, n_steps=2)
    assert_allclose(grid.weights, [0.25, 0.5, 0.25], rtol=1e-15)
    beam_grid = TimeGrid(T=0.003, n_steps=1)
    assert_allclose(beam_grid.weights, [0.0015, 0.0015], rtol=1e-15)
    grid = TimeGrid(T=1.0, n_steps=10)
    assert grid.weights is grid.weights
    assert grid.weights.shape == grid.times.shape
    assert not grid.weights.flags.writeable
    with pytest.raises(ValueError):
        grid.weights[3] = 0.0
    # [0, t_n] at nodes j < n: dt/2 at node 0, dt after
    assert_array_equal(grid.weights[:4], [0.05, 0.1, 0.1, 0.1])


def test_system_rejects_asymmetric_a():
    a = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    b = sp.csr_matrix(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        BlockSaddleSystem(a, b)


def test_step_hand_solvable_system():
    a = sp.identity(2, format="csr")
    b = sp.csr_matrix(np.array([[1.0, 0.0]]))
    sys = BlockSaddleSystem(a, b)
    grid = TimeGrid(T=1.0, n_steps=2)
    hist = HistoryBuffer(sys, grid)
    u, p, _ = step(sys, hist, np.array([[1.0], [0.0]]), np.array([[1.0]]))
    assert u.shape == (2, 1) and p.shape == (1, 1)
    assert_allclose(u[:, 0], [1.0, 0.0], atol=1e-14)
    assert_allclose(p[:, 0], [0.0], atol=1e-14)
    assert len(hist) == 1


def test_zero_kernel_reduces_to_stationary_solve():
    rng = np.random.RandomState(0)
    n, m = 12, 5
    r = rng.standard_normal((n, n))
    a = sp.csr_matrix(r @ r.T + n * np.eye(n))
    b = sp.csr_matrix(rng.standard_normal((m, n)))
    sys = BlockSaddleSystem(a, b)
    grid = TimeGrid(T=1.0, n_steps=6)
    fact = sys.saddle

    def f_of_t(t):
        return np.sin(t + np.arange(n, dtype=float))

    def g_of_t(t):
        return np.cos(t + np.arange(m, dtype=float))

    states = []
    VolterraStepper(sys, grid).run(
        block_load(f_of_t), block_load(g_of_t),
        on_step=lambda n, times, u, p, basis: states.extend(
            zip(times, u.T, p.T)))
    assert [t for t, _, _ in states] == list(grid.times)
    for t, u, p in states:
        u_ref, p_ref = fact.solve(f_of_t(t), g_of_t(t))
        assert np.max(np.abs(u - u_ref)) <= 1e-12 * max(1.0, np.max(np.abs(u_ref)))
        assert np.max(np.abs(p - p_ref)) <= 1e-12 * max(1.0, np.max(np.abs(p_ref)))


def test_gamma_values_fickian():
    sys = scalar_system(k3=fickian_kernel(0.01))
    grid = TimeGrid(T=4.5, n_steps=3000)  # dt = 0.0015
    gammas = step_gammas(sys, grid, 1)
    assert_allclose(gammas[2], 0.925, rtol=1e-12)
    assert gammas[0] == 1.0 and gammas[1] == 1.0
    assert step_gammas(sys, grid, 0) == (1.0, 1.0, 1.0)


def test_exponential_kernel_diagonal_is_read_not_evaluated():
    # k(t, t) of an exponential kernel is its c, bit for bit: the stepper
    # reads c and calls eval no more often over 500 steps than over 50
    exp = MemoryKernel.exp_convolution(c=-1.0, rate=2.0)
    calls = []

    def counted(t, s):
        calls.append(t)
        return exp.eval(t, s)

    kernel = MemoryKernel(eval=counted, bound=1.0, c=-1.0, rate=2.0)
    counts = []
    for n_steps in (50, 500):
        calls.clear()
        VolterraStepper(scalar_system(k3=kernel), TimeGrid(1.0, n_steps)).run(
            const_load(0.0), const_load(1.0))
        counts.append(len(calls))
    assert counts[1] <= counts[0]
    # the same gammas as a general kernel that evaluates k(t_n, t_n)
    grid = TimeGrid(1.0, 50)
    for n in range(51):
        assert step_gammas(scalar_system(k3=kernel), grid, n) \
            == step_gammas(scalar_system(k3=direct_form(exp)), grid, n)


def test_step_leaves_the_loads_unmodified():
    # history sums are added out of place and the scalings applied to a
    # copy: read-only loads pass through every step unchanged
    kernel = MemoryKernel.exp_convolution(c=-0.5, rate=1.0)
    sys_ = sized_system(3, 2, k1=kernel, k2=kernel, k3=kernel)
    hist = HistoryBuffer(sys_, TimeGrid(T=1.0, n_steps=10))
    f, g = np.array([[1.0], [2.0], [-3.0]]), np.array([[0.5], [-1.0]])
    f.flags.writeable = g.flags.writeable = False
    for _ in range(5):
        step(sys_, hist, f, g)
    assert_array_equal(f, [[1.0], [2.0], [-3.0]])
    assert_array_equal(g, [[0.5], [-1.0]])


def test_stability_gate_violation():
    sys = scalar_system(k3=fickian_kernel(0.01))
    grid = TimeGrid(T=1.0, n_steps=33)  # dt ~ 0.0303 >= 2 delta
    hist = HistoryBuffer(sys, grid)
    step(sys, hist, np.zeros((1, 1)), np.ones((1, 1)))
    with pytest.raises(StabilityGateError, match="dt too large"):
        step(sys, hist, np.zeros((1, 1)), np.ones((1, 1)))


def test_stability_gate_stops_the_block_before_its_solve(monkeypatch):
    # the gate fails at node 1, inside the first block, and is checked
    # before the block's solve: the block's loads are asked once, the
    # block is never solved and the history stays empty
    solves = record_solves(monkeypatch)
    sys = scalar_system(k3=fickian_kernel(0.01))
    grid = TimeGrid(T=1.0, n_steps=33)
    loads = []

    def f_of_t(times):
        loads.append(times.copy())
        return np.zeros((1, len(times)))

    stepper = VolterraStepper(sys, grid)
    assert stepper.width == 64
    with pytest.raises(StabilityGateError, match="at step 1;"):
        stepper.run(f_of_t, const_load(1.0))
    [asked] = loads
    assert_array_equal(asked, grid.times)
    assert solves == []
    assert len(stepper.hist) == 0
    [(_, recurrence)] = stepper.hist._recur.values()
    assert_array_equal(recurrence, [0.0])
    assert stepper.hist._maps == {}


@pytest.mark.parametrize("value, error", [
    (300.0, StabilityGateError), (math.nan, SaddleSolverError)])
def test_general_gate_fails_mid_block_before_its_loads(monkeypatch, value,
                                                       error):
    # k3(t, t) leaves the gate at node 70, inside the second block of 64:
    # the run raises what step_gammas raises at node 70, after the first
    # block's solve and before any load or solve of the second block
    grid = TimeGrid(T=1.5, n_steps=150)         # w_nn = 0.005
    t70 = grid.times[70]
    sys_ = scalar_system(k3=MemoryKernel.from_callable(
        lambda t, s: np.where(np.asarray(t) >= t70, value, -1.0)
        + 0.0 * np.asarray(s), bound=300.0))
    with pytest.raises(error) as direct:
        step_gammas(sys_, grid, 70)
    assert "at step 70" in str(direct.value)
    solves = record_solves(monkeypatch)
    loads = []

    def f_of_t(times):
        loads.append(times.copy())
        return np.zeros((1, len(times)))

    stepper = VolterraStepper(sys_, grid)
    assert stepper.width == 64
    with pytest.raises(error) as run:
        stepper.run(f_of_t, const_load(1.0))
    assert str(run.value) == str(direct.value)
    assert_array_equal(np.concatenate(loads), grid.times[:64])
    assert [f.shape for _, f, _ in solves] == [(1, 64)]
    assert len(stepper.hist) == 64
    # step, given the block's loads, raises the same before its solve
    with pytest.raises(error) as stepped:
        step(sys_, stepper.hist, np.zeros((1, 64)), np.ones((1, 64)))
    assert str(stepped.value) == str(direct.value)
    assert len(solves) == 1 and len(stepper.hist) == 64


def constant_kernel(value):
    """A general kernel equal to ``value`` everywhere."""
    return MemoryKernel.from_callable(
        lambda t, s: np.full(np.broadcast(t, s).shape, value), bound=1.0)


def test_step_takes_a_block_only_without_k1_and_k2():
    # a k1 or k2 sum would read the solved states of the block's own
    # nodes; a k3 alone, general or not, steps a block
    grid = TimeGrid(T=1.0, n_steps=4)
    exp = MemoryKernel.exp_convolution(c=-1.0, rate=1.0)
    for kernels in ({"k1": exp}, {"k2": exp, "k3": constant_kernel(-1.0)}):
        sys_ = sized_system(3, 2, **kernels)
        with pytest.raises(ValueError, match="needs k1 and k2 absent"):
            step(sys_, HistoryBuffer(sys_, grid), np.zeros((3, 2)),
                 np.ones((2, 2)))
    for k3 in (exp, constant_kernel(-1.0)):
        sys_ = sized_system(3, 2, k3=k3)
        u, p, _ = step(sys_, HistoryBuffer(sys_, grid), np.zeros((3, 2)),
                       np.ones((2, 2)))
        assert u.shape == (3, 2) and p.shape == (2, 2)


def test_gate_rejects_singular_scalings():
    # the solve of K takes no scalings: a zero or non-finite one is
    # stopped by the gate, in each kernel slot, before any solve
    grid = TimeGrid(T=1.0, n_steps=4)           # w_nn = 1/8 from node 1
    for slot in ("k1", "k2", "k3"):
        for value in (math.nan, math.inf, -math.inf):
            sys_ = sized_system(3, 2, **{slot: constant_kernel(value)})
            for n in (0, 1, 4):
                with pytest.raises(SaddleSolverError,
                                   match=rf"= {value} at step {n} "):
                    step_gammas(sys_, grid, n)
        # w_nn k = 1 would make the slot's scaling zero
        sys_ = sized_system(3, 2, **{slot: constant_kernel(8.0)})
        assert step_gammas(sys_, grid, 0) == (1.0, 1.0, 1.0)
        with pytest.raises(StabilityGateError, match="at step 1;"):
            step_gammas(sys_, grid, 1)
        # a finite kernel inside the gate scales by a value in (0, 2)
        for c in (-7.9, 7.9):
            sys_ = sized_system(3, 2, **{slot: constant_kernel(c)})
            assert all(0.0 < gamma < 2.0 for gamma in step_gammas(sys_, grid, 1))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_kernel_diagonal_stops_the_run_before_its_solve(
        monkeypatch, value):
    # 0 k(t_0, t_0) is NaN at node 0, which the test |w_nn k| >= 1 lets
    # through: the gate names the node and the value, nothing is solved
    # and no state is kept; a general k3's gate comes before any load
    from memfem.beam import BeamProblem, joined_profile
    solves = record_solves(monkeypatch)
    prob = BeamProblem(joined_profile(0.001), 4, constant_kernel(value), 1.0,
                       np.exp, None)
    with pytest.raises(SaddleSolverError,
                       match=rf"k\(t_n, t_n\) = {value} at step 0 "):
        prob.run(TimeGrid(T=1.0, n_steps=5))
    loads = []

    def f_of_t(times):
        loads.append(times.copy())
        return np.zeros((1, len(times)))

    stepper = VolterraStepper(scalar_system(k3=constant_kernel(value)),
                              TimeGrid(T=1.0, n_steps=5))
    with pytest.raises(SaddleSolverError, match="at step 0 "):
        stepper.run(f_of_t, const_load(1.0))
    assert loads == []
    assert solves == []
    assert len(stepper.hist) == 0


def test_history_sum_single_panel_constant_kernel():
    grid = TimeGrid(T=1.0, n_steps=4)
    const = MemoryKernel.exp_convolution(c=3.0, rate=0.0)
    x0 = np.array([2.0, -1.0])
    # the recurrence and the direct sum
    for kernel in (const, direct_form(const)):
        hist = HistoryBuffer(sized_system(2, 1, k1=kernel), grid)
        hist.append(x0, np.zeros(1))
        out = history_sum(hist, kernel, "u")
        assert_allclose(out, 0.5 * grid.dt * 3.0 * x0, rtol=1e-15)


def test_history_sum_zero_kernel():
    grid = TimeGrid(T=1.0, n_steps=4)
    zero = MemoryKernel.exp_convolution(c=0.0, rate=1.0)
    for kernel in (zero, direct_form(zero)):
        hist = HistoryBuffer(sized_system(3, 1, k1=kernel), grid)
        for _ in range(3):
            hist.append(np.ones(3), np.zeros(1))
        assert_array_equal(history_sum(hist, kernel, "u"), np.zeros(3))


def test_history_sum_recurrence_matches_direct():
    rng = np.random.RandomState(4)
    grid = TimeGrid(T=2.0, n_steps=60)
    kernel = MemoryKernel.exp_convolution(c=-0.8, rate=1.7)
    general = direct_form(kernel)
    b = sp.csr_matrix(rng.standard_normal((3, 7)))
    # k1 sums u; k3 sums q = B u, the recurrence on the q that step takes
    # from row 2 and the direct sum on the stored solved u
    recur_sys = BlockSaddleSystem(sp.identity(7, format="csr"), b,
                                  k1=kernel, k3=kernel)
    recur_hist = HistoryBuffer(recur_sys, grid)
    direct_hist = HistoryBuffer(BlockSaddleSystem(
        sp.identity(7, format="csr"), b, k1=general, k3=general), grid)
    assert not recur_hist.store_full and direct_hist.store_full
    for n in range(51):
        if n >= 1:
            for which in ("u", "q"):
                direct = history_sum(direct_hist, general, which)
                recur = history_sum(recur_hist, kernel, which)
                denom = np.max(np.abs(direct))
                assert np.max(np.abs(direct - recur)) \
                    <= 1e-12 * max(denom, 1e-30)
        u, _, _ = step(recur_sys, recur_hist, rng.standard_normal((7, 1)),
                       rng.standard_normal((3, 1)))
        direct_hist.append(u[:, 0], np.zeros(3))


def loop_history_sum(xs, grid, kernel, n):
    """The direct sum as a Python loop over stored vectors (reference)."""
    times = grid.times
    w = np.full(n, grid.dt)
    w[0] = 0.5 * grid.dt
    coeff = w * np.asarray(kernel.eval(times[n], times[:n]), dtype=float)
    out = np.zeros_like(xs[0])
    for cj, xj in zip(coeff, xs[:n]):
        if cj != 0.0:
            out += cj * xj
    return out


def test_direct_history_sum_matches_loop():
    rng = np.random.RandomState(8)
    grid = TimeGrid(T=3.0, n_steps=90)
    kernel = MemoryKernel.from_callable(
        lambda t, s: np.cos(3.0 * np.asarray(s, float)) * (2.0 + np.sin(t)),
        bound=3.0)
    # k2 reads p and k3 reads u, so both families are stored
    hist = HistoryBuffer(sized_system(11, 4, k2=kernel, k3=kernel), grid)
    us, ps = [], []
    for n in range(grid.n_steps + 1):
        if n >= 1:
            for which, xs in (("u", us), ("p", ps)):
                out = history_sum(hist, kernel, which)
                ref = loop_history_sum(xs, grid, kernel, n)
                assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        us.append(rng.standard_normal(11))
        ps.append(rng.standard_normal(4))
        hist.append(us[-1], ps[-1])


def test_block_history_sum_is_the_part_before_the_block():
    # column i of the sum at the k nodes from n is the direct sum over the
    # stored j < n at node n + i; the kernel is evaluated on equal-length
    # 1-D arrays of at most 4096 values, never on the whole block at once
    rng = np.random.RandomState(5)
    grid = TimeGrid(T=3.0, n_steps=300)
    shapes = []

    def k(t, s):
        shapes.append((np.shape(t), np.shape(s)))
        return np.cos(3.0 * np.asarray(s, float)) * (2.0 + np.sin(t))

    kernel = MemoryKernel.from_callable(k, bound=3.0)
    sys_ = sized_system(6, 2, k3=kernel)
    hist = HistoryBuffer(sys_, grid)
    us = rng.standard_normal((240, 6))
    for u in us:
        hist.append(u, np.zeros(2))
    for nodes in (1, 5, 61):
        shapes.clear()
        out = history_sum(hist, kernel, "q", nodes)
        assert out.shape == (2, nodes)
        assert sum(t[0] for t, _ in shapes) == nodes * 240
        assert all(len(t) == len(s) == 1 and t[0] == s[0] <= 4096
                   for t, s in shapes)
        for i in range(nodes):
            ref = sys_.b @ ((grid.weights[:240]
                             * k(grid.times[240 + i], grid.times[:240])) @ us)
            assert np.max(np.abs(out[:, i] - ref)) <= 1e-13 * np.max(np.abs(ref))
    # without k: the sum at node n, as a vector
    assert_array_equal(history_sum(hist, kernel, "q"),
                       history_sum(hist, kernel, "q", 1)[:, 0])


def test_history_vectors_are_the_filled_rows():
    rng = np.random.RandomState(9)
    grid = TimeGrid(T=1.0, n_steps=10)
    general = direct_form(MemoryKernel.exp_convolution(c=1.0, rate=1.0))
    hist = HistoryBuffer(sized_system(5, 2, k2=general, k3=general), grid)
    us = [rng.standard_normal(5) for _ in range(4)]
    for u in us:
        hist.append(u, np.zeros(2))
        u[:] = 0.0     # the buffer keeps its own copy
    assert hist.vectors("u").shape == (4, 5)
    assert hist.vectors("p").shape == (4, 2)
    rng = np.random.RandomState(9)
    assert_array_equal(hist.vectors("u"),
                       [rng.standard_normal(5) for _ in range(4)])
    # bytes of the stored states, as a per-vector sum reads them
    assert sum(x.nbytes for w in ("u", "p") for x in hist.vectors(w)) \
        == 4 * (5 + 2) * 8


def test_history_stores_only_the_families_kernels_read():
    grid = TimeGrid(T=1.0, n_steps=10)
    exp = MemoryKernel.exp_convolution(c=-1.0, rate=2.0)
    general = direct_form(exp)
    cases = [  # kernels -> stored families
        ({"k3": general}, {"u"}),
        ({"k2": general}, {"p"}),
        ({"k1": exp, "k2": general}, {"p"}),
        ({"k2": exp}, set()),
        ({"k1": exp, "k3": exp}, set()),
        ({"k1": exp, "k2": exp, "k3": exp}, set()),
        ({}, set()),
    ]
    for kernels, stored in cases:
        hist = HistoryBuffer(sized_system(6, 3, **kernels), grid)
        assert hist.store_full == bool(stored)
        for _ in range(grid.n_steps + 1):
            hist.append(np.ones(6), np.ones(3))
        for which, n in (("u", 6), ("p", 3)):
            rows = hist.vectors(which)
            # a family no general kernel reads stays empty
            assert rows.shape == ((11, n) if which in stored else (0, 0))
        # (N + 1) n_family 8 bytes for each stored family
        assert sum(x.nbytes for w in ("u", "p") for x in hist.vectors(w)) \
            == sum(11 * {"u": 6, "p": 3}[w] * 8 for w in stored)


def test_history_without_store_allocates_nothing():
    grid = TimeGrid(T=1.0, n_steps=50)
    kernel = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    stepper = VolterraStepper(scalar_system(k3=kernel), grid)
    assert not stepper.hist.store_full
    stepper.run(const_load(0.0), const_load(1.0))
    assert stepper.hist._stored == {}
    assert stepper.hist.vectors("u").size == 0
    assert stepper.hist.vectors("p").size == 0


def test_history_sum_errors():
    grid = TimeGrid(T=1.0, n_steps=4)
    kernel = MemoryKernel.exp_convolution(c=1.0, rate=0.5)
    general = direct_form(kernel)
    # the sum at step len(hist) needs a step 0 in the buffer
    for k in (kernel, general):
        with pytest.raises(ValueError, match="start at step 1"):
            history_sum(HistoryBuffer(sized_system(2, 1, k1=k), grid), k, "u")
        with pytest.raises(ValueError, match="start at step 1"):
            history_sum(HistoryBuffer(sized_system(2, 1, k3=k), grid), k, "q")
    hist = HistoryBuffer(sized_system(2, 1, k1=kernel), grid)
    for _ in range(3):
        hist.append(np.ones(2), np.zeros(1))
    assert history_sum(hist, kernel, "u").shape == (2,)
    # p is read by no kernel, so it has neither a recurrence nor rows
    with pytest.raises(ValueError, match="stored states"):
        history_sum(hist, kernel, "p")
    # q is read by no kernel either: its direct sum would read stored u
    with pytest.raises(ValueError, match="needs 3 stored states"):
        history_sum(hist, kernel, "q")


def test_scalar_stepper_tracks_creep_factor_second_order():
    # the B-row of the 1x1 saddle system is exactly the scalar Volterra
    # equation of the creep factor, so the stepper error at T must decay
    # at the trapezoid rate
    kernel = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    exact_T = 2.0 / 3.0 + np.exp(-3.0 * 2.0) / 3.0
    errs = []
    for n_steps in (50, 100, 200):
        sys = scalar_system(k3=kernel)
        grid = TimeGrid(T=2.0, n_steps=n_steps)
        last = {}
        VolterraStepper(sys, grid).run(
            const_load(0.0), const_load(1.0),
            on_step=lambda n, times, u, p, basis: last.update(u=u[0, -1]))
        errs.append(abs(last["u"] - exact_T))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.9)


def test_stepper_audit_recurrence_vs_direct():
    kernel = beam_kernel(PronySLS(1.0, 1.0, 1.0))
    grid = TimeGrid(T=2.0, n_steps=200)
    steps, deviation = audit(scalar_system(k3=kernel), grid,
                             const_load(0.0), const_load(1.0))
    assert steps == 200
    assert deviation <= 1e-12
    # no exponential kernel, no recurrence to audit: the blocked run of
    # the general kernel against its direct side, node by node
    steps, deviation = audit(scalar_system(k3=direct_form(kernel)), grid,
                             const_load(0.0), const_load(1.0))
    assert steps == 0
    assert deviation <= 1e-12


def test_audit_steps_the_system_at_its_blocked_width(monkeypatch):
    # the system as given steps in blocks, as every run of it does; its
    # direct form steps one node at a time beside it
    kernel = MemoryKernel.exp_convolution(c=-1.0, rate=1.0)
    sys_ = sized_system(2000, 900, k3=kernel)
    grid = TimeGrid(T=1.0, n_steps=50)
    widths = {}
    traced = volterra.step

    def counted(sys, hist, f, g):
        u, p, basis = traced(sys, hist, f, g)
        widths.setdefault(sys is sys_, []).append(u.shape[1])
        return u, p, basis

    monkeypatch.setattr(volterra, "step", counted)
    steps, deviation = audit(
        sys_, grid, lambda times: np.full((2000, len(times)), times),
        lambda times: np.full((900, len(times)), 1.0 + times))
    assert steps == 50 and deviation <= 1e-12
    assert widths[True] == [22, 22, 7]
    assert widths[False] == [1] * 51


def test_audit_direct_side_makes_one_plain_lu_solve_per_node(monkeypatch):
    # the run solves its one load vector once; the direct side solves
    # each node, on its loads made dense, by the same factorization
    sys_ = sized_system(6, 2, k3=beam_kernel(PronySLS(1.0, 1.0, 1.0)))
    grid = TimeGrid(T=2.0, n_steps=200)
    stepping, lu = [None], []
    traced, solve = volterra.step, SaddleFactorization.solve

    def marked(sys, hist, f, g):
        stepping[0] = "run" if sys is sys_ else "direct"
        return traced(sys, hist, f, g)

    def counted(fact, f, g):
        lu.append((stepping[0], f.shape))
        return solve(fact, f, g)

    monkeypatch.setattr(volterra, "step", marked)
    monkeypatch.setattr(SaddleFactorization, "solve", counted)
    steps, deviation = audit(sys_, grid, sys_.zero_load, pair_load(1.0, 2.0))
    assert steps == 200 and deviation <= 1e-12
    assert lu == [("run", (6, 1))] + [("direct", (6, 1))] * 201


def test_audit_sees_perturbed_recycled_solves(monkeypatch):
    # the run's one solve 1e-9 relative off, after its check, moves every
    # state of the run by as much, and the direct side shows it
    kernel = MemoryKernel.exp_convolution(c=-1.0, rate=1.0)
    sys_ = sized_system(6, 2, k3=kernel)
    grid = TimeGrid(T=1.0, n_steps=100)
    loads = sys_.zero_load, pair_load(1.0, 2.0)
    assert audit(sys_, grid, *loads)[1] <= 1e-12
    checked, calls = SaddleFactorization.checked_solve, []

    def off(fact, f, g):
        calls.append(f.shape)
        u, p = checked(fact, f, g)
        return u * (1.0 + 1e-9), p * (1.0 + 1e-9)

    monkeypatch.setattr(SaddleFactorization, "checked_solve", off)
    deviation = audit(sys_, grid, *loads)[1]
    assert calls == [(6, 1)]
    assert deviation > 1e-12 and abs(deviation - 1e-9) < 1e-11


def test_audit_fails_when_eval_disagrees_with_the_recurrence():
    # an eval 1e-9 relative off its (c, rate): the two forms step
    # different kernels, and the deviation shows it
    c, rate = -0.5, 1.0
    off = MemoryKernel(eval=lambda t, s: (1.0 + 1e-9) * c * np.exp(
        -rate * (np.asarray(t) - np.asarray(s))), bound=0.5, c=c, rate=rate)
    grid = TimeGrid(T=2.0, n_steps=200)
    steps, deviation = audit(scalar_system(k3=off), grid,
                             const_load(0.0), const_load(1.0))
    assert steps == 200
    assert 1e-12 < deviation < 1e-8


def assert_stepper_paths_agree(*slots):
    """An exponential kernel object on each slot steps the same states
    as the same eval wrapped in ``from_callable`` (the direct sum)."""
    kernel = MemoryKernel.exp_convolution(c=-0.6, rate=1.2)
    rng = np.random.RandomState(17)
    n, m = 8, 3
    r = rng.standard_normal((n, n))
    a = sp.csr_matrix(r @ r.T + n * np.eye(n))
    b = sp.csr_matrix(rng.standard_normal((m, n)))
    grid = TimeGrid(T=1.5, n_steps=40)

    def run(k):
        stepper = VolterraStepper(BlockSaddleSystem(a, b, **dict.fromkeys(slots, k)),
                                  grid)
        out = []
        stepper.run(block_load(lambda t: np.full(n, math.sin(t))),
                    block_load(lambda t: np.full(m, math.cos(t))),
                    on_step=lambda nn, times, u, p, basis: out.append((u.copy(), p.copy())))
        return out

    direct = run(direct_form(kernel))
    recur = run(kernel)
    assert len(direct) == len(recur) == grid.n_steps + 1
    for (ud, pd), (ur, pr) in zip(direct, recur):
        assert np.max(np.abs(ud - ur)) <= 1e-11 * max(1.0, np.max(np.abs(ud)))
        assert np.max(np.abs(pd - pr)) <= 1e-11 * max(1.0, np.max(np.abs(pd)))


def test_stepper_direct_and_recurrence_paths_agree():
    # k1 reads u and k3 reads q = B u: the one kernel object needs a
    # recurrence for each family
    assert_stepper_paths_agree("k1", "k3")


def test_stepper_same_kernel_on_u_and_p_families():
    # k1 reads u and k2 reads p: the one kernel object needs a
    # recurrence for each family
    assert_stepper_paths_agree("k1", "k2")


def scalar_runner(kernel):
    sys_ = scalar_system(k3=kernel)

    def run(grid, collect):
        def on_step(n, times, u, p, basis):
            for j, t in enumerate(times):
                collect(n + j, t, u[:, j], p[:, j])

        stepper = VolterraStepper(sys_, grid)
        stepper.run(const_load(0.0), lambda times: 1.0 + times[None, :],
                    on_step=on_step)
        return stepper
    return run


def beam_runner(kernel):
    from memfem.beam import BeamProblem, joined_profile
    prob = BeamProblem(joined_profile(d=0.001), 8, kernel, 1.0, np.exp, None)
    return lambda grid, collect: prob.run(grid, collect=collect)[1]


def laplace_runner(kernel):
    prob = LaplaceProblem(24, delta=0.01, kernel=kernel)
    return lambda grid, collect: prob.run(grid, collect=collect)[1]


@pytest.mark.parametrize("runner, width, n_steps", [
    (scalar_runner, 64, 150), (beam_runner, 64, 100),
    (laplace_runner, 22, 50)], ids=["scalar", "beam", "laplace"])
def test_blocked_states_match_the_direct_form(runner, width, n_steps):
    # an exponential k3 steps in blocks, with a last block shorter than
    # the rest; the same kernel as a general one steps in the same blocks,
    # row 2 by a triangular solve in place of the recurrence's map
    kernel = beam_kernel(PronySLS(1.0, 1.0, 1.0)) if runner is not laplace_runner \
        else MemoryKernel.exp_convolution(c=-100.0, rate=100.0)
    grid = TimeGrid(T=0.5, n_steps=n_steps)
    assert (n_steps + 1) % width != 0

    def collector(kept, copies):
        def collect(n, t, u, p):
            kept.append((u, p))         # no copy: a view into its block
            copies.append((u.copy(), p.copy()))
        return collect

    kept, copies, direct = [], [], []
    blocked = runner(kernel)(grid, collector(kept, copies))
    assert blocked.width == width
    general = runner(direct_form(kernel))(grid, collector(direct, []))
    assert general.width == width
    assert len(kept) == len(direct) == n_steps + 1
    for (u, p), (u_copy, p_copy), (u_ref, p_ref) in zip(kept, copies, direct):
        # later blocks never wrote over the states handed out
        assert_array_equal(u, u_copy)
        assert_array_equal(p, p_copy)
        assert np.max(np.abs(u - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
        assert np.max(np.abs(p - p_ref)) <= 1e-12 * max(np.max(np.abs(p_ref)),
                                                        1e-300)


@pytest.mark.parametrize("n_v, n_q, width, n_steps", [
    (1, 1, 64, 150), (2000, 900, 22, 50), (15000, 6000, 3, 10),
    (3, 2, 1, 5)], ids=["64", "22", "3", "1"])
def test_on_step_sees_every_block_once_in_order(n_v, n_q, width, n_steps):
    # the stepper's width follows from the system's size (one node at a
    # time under a k1 or k2); the last block is shorter than the rest
    kernel = MemoryKernel.exp_convolution(c=-1.0, rate=1.0)
    slots = {"k2": kernel} if width == 1 else {"k3": kernel}
    sys_ = BlockSaddleSystem(sp.identity(n_v, format="csr"),
                             sp.eye(n_q, n_v, format="csr"), **slots)
    grid = TimeGrid(T=1.0, n_steps=n_steps)
    blocks = []

    def on_step(n, times, u, p, basis):
        blocks.append((n, times, u, p, u.copy(), p.copy()))

    stepper = VolterraStepper(sys_, grid)
    assert stepper.width == width
    stepper.run(lambda times: np.full((n_v, len(times)), times),
                lambda times: np.full((n_q, len(times)), 1.0 + times),
                on_step=on_step)
    assert [n for n, *_ in blocks] == list(range(0, n_steps + 1, width))
    assert width == 1 or (n_steps + 1) % width != 0
    for n, times, u, p, u_copy, p_copy in blocks:
        k = min(width, n_steps + 1 - n)
        assert_array_equal(times, grid.times[n:n + k])
        assert u.shape == (n_v, k) and p.shape == (n_q, k)
        # later blocks never wrote over the arrays handed out
        assert_array_equal(u, u_copy)
        assert_array_equal(p, p_copy)
    assert stepper.n_done == n_steps + 1


def step_node_by_node_and_in_blocks(k3):
    """The blocks of 64, 64 and 23 nodes that a run of an 8 x 3 system
    under ``k3`` takes, and ``step`` fed one node at a time: ``(blocks,
    single, run history, node-by-node history)``."""
    rng = np.random.RandomState(21)
    n, m = 8, 3
    r = rng.standard_normal((n, n))
    sys_ = BlockSaddleSystem(sp.csr_matrix(r @ r.T + n * np.eye(n)),
                             sp.csr_matrix(rng.standard_normal((m, n))), k3=k3)
    grid = TimeGrid(T=1.5, n_steps=150)

    def f_of_t(t):
        return np.sin(t + np.arange(n))

    def g_of_t(t):
        return np.cos(2.0 * t + np.arange(m))

    blocks = []
    stepper = VolterraStepper(sys_, grid)
    stepper.run(block_load(f_of_t), block_load(g_of_t),
                on_step=lambda n0, times, u, p, basis: blocks.append((u, p)))
    assert [u.shape[1] for u, _ in blocks] == [64, 64, 23]
    hist = HistoryBuffer(sys_, grid)
    single = [step(sys_, hist, f_of_t(t)[:, None], g_of_t(t)[:, None])[:2]
              for t in grid.times]
    for blocked, one in zip((np.hstack([u for u, _ in blocks]),
                             np.hstack([p for _, p in blocks])),
                            (np.hstack([u for u, _ in single]),
                             np.hstack([p for _, p in single]))):
        assert np.max(np.abs(blocked - one)) <= 1e-12 * np.max(np.abs(one))
    return stepper.hist, hist


def test_step_node_by_node_equals_a_blocked_run():
    # each node with the row-2 map of a block of one
    blocked, single = step_node_by_node_and_in_blocks(
        MemoryKernel.exp_convolution(c=-0.7, rate=1.3))
    assert set(blocked._maps) == {(True, 64), (False, 64), (False, 23)}
    assert set(single._maps) == {(True, 1), (False, 1)}


def test_step_node_by_node_equals_a_blocked_run_under_a_general_k3(
        monkeypatch):
    # each node with its own history sum and a triangular system of one;
    # a block's history before it is one history sum
    sums = []
    orig = volterra.history_sum

    def counted(hist, kernel, which, k=None):
        sums.append((len(hist), k))
        return orig(hist, kernel, which, k)

    monkeypatch.setattr(volterra, "history_sum", counted)
    blocked, single = step_node_by_node_and_in_blocks(
        MemoryKernel.from_callable(
            lambda t, s: -0.7 * np.exp(-1.3 * (np.asarray(t) - np.asarray(s)))
            * (1.0 + 0.5 * np.sin(3.0 * np.asarray(t))), bound=1.05))
    assert sums == [(64, 64), (128, 23)] + [(n, 1) for n in range(1, 151)]
    assert blocked._maps == single._maps == {}
    assert_array_equal(blocked.vectors("u").shape, (151, 8))


def test_blocked_run_has_no_per_node_python(monkeypatch):
    # a blocked beam run: no history sum, the gate at most twice a block
    # and the row-2 map built for the first block, the full blocks and the
    # tail only
    from memfem.beam import BeamProblem, joined_profile
    calls = {"step": 0, "history_sum": 0, "step_gammas": 0,
             "_constraint_map": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(volterra, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(volterra, name, counted)
    prob = BeamProblem(joined_profile(d=0.001), 8,
                       beam_kernel(PronySLS(1.0, 1.0, 1.0)), 1.0, np.exp, None)
    _, stepper = prob.run(TimeGrid(T=2.0, n_steps=300))
    assert stepper.width == 64 and stepper.n_done == 301
    assert calls["step"] == 5                   # 4 x 64 + 45 nodes
    assert calls["history_sum"] == 0
    assert calls["step_gammas"] == calls["step"] + 1
    assert calls["_constraint_map"] == 3


def test_stability_constants_zero_kernels():
    out = stability_constants(alpha0=0.5, beta=0.25, norm_a=2.0,
                              c_k1=0.0, c_k2=0.0, c_k3=0.0, c_ktilde=0.0, T=3.0)
    assert out.c1 == 1.0 / 0.5
    assert out.c2 == (1.0 / 0.25) * (1.0 + 2.0 / 0.5)
    assert out.c3 == 1.0 + 2.0 * out.c1
    assert out.c4 == 2.0 * out.c2
    unit = stability_constants(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    assert (unit.c1, unit.c2, unit.c3, unit.c4) == (1.0, 2.0, 2.0, 2.0)


def test_stability_constants_single_exponential():
    out = stability_constants(alpha0=1.0, beta=1.0, norm_a=1.0,
                              c_k1=0.0, c_k2=0.0, c_k3=0.0, c_ktilde=1.0, T=1.0)
    assert_allclose(out.c1, 1.0 + math.e, rtol=1e-15)


def test_stability_constants_overflow_raises_estimator_error():
    # T D = 15 * 80 = 1200: e^{T D} overflows a double
    with pytest.raises(EstimatorError,
                       match=r"overflows at this horizon.*T\*D = 1200"):
        stability_constants(alpha0=1.0, beta=1.0, norm_a=79.0, c_k1=0.0,
                            c_k2=0.0, c_k3=1.0, c_ktilde=1.0, T=15.0)
    # e^{T D} itself fits, T D e^{T D} does not
    with pytest.raises(EstimatorError, match="overflows"):
        stability_constants(1.0, 1.0, 708.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(EstimatorError, match="overflows"):
        error_constants(1.0, 1.0, 79.0, 1.0, 0.0, 0.0, 1.0, 1.0, 15.0)
    # just inside the range the constants stay finite
    ok = stability_constants(1.0, 1.0, 79.0, 0.0, 0.0, 1.0, 1.0, 8.0)
    assert math.isfinite(ok.c4)


def test_stability_constants_validation():
    with pytest.raises(ValueError):
        stability_constants(0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        stability_constants(1.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        stability_constants(1.0, 1.0, 1.0, -0.1, 0.0, 0.0, 0.0, 1.0)


def test_constants_monotone_in_horizon():
    rng = np.random.RandomState(23)
    for _ in range(100):
        alpha0, beta = np.exp(rng.uniform(-1, 1, size=2))
        norm_a = np.exp(rng.uniform(-1, 1))
        cks = rng.uniform(0.0, 1.5, size=4)
        T = rng.uniform(0.1, 2.0)
        lo = stability_constants(alpha0, beta, norm_a, *cks, T)
        hi = stability_constants(alpha0, beta, norm_a, *cks, 2.0 * T)
        assert hi.c1 >= lo.c1 and hi.c2 >= lo.c2
        assert hi.c3 >= lo.c3 and hi.c4 >= lo.c4


def test_error_constants_zero_kernels():
    out = error_constants(alpha0_star=2.0, beta_star=0.5, norm_a=3.0,
                          norm_b=1.5, c_k1=0.0, c_k2=0.0, c_k3=0.0,
                          c_ktilde=0.0, T=1.0)
    assert out.c1u == out.c1s * 3.0 + out.c2s * 1.5 + 1.0
    assert out.c1p == out.c1s * 1.5
    assert out.c2u == out.c3s * 3.0 + out.c4s * 1.5
    assert out.c2p == out.c3s * 1.5 + 1.0


def test_error_constants_unit_inputs_frozen():
    # frozen from an independent evaluation of the printed formulas
    out = error_constants(alpha0_star=1.0, beta_star=1.0, norm_a=1.0,
                          norm_b=1.0, c_k1=1.0, c_k2=1.0, c_k3=1.0,
                          c_ktilde=0.0, T=1.0)
    assert_allclose(out.c1s, 3.718281828459045, rtol=1e-15)
    assert_allclose(out.c2s, 7.43656365691809, rtol=1e-15)
    assert_allclose(out.c3s, 31.369521340156524, rtol=1e-15)
    assert_allclose(out.c4s, 55.30247902339496, rtol=1e-15)
    assert_allclose(out.c1u, 23.30969097075427, rtol=1e-15)
    assert_allclose(out.c1p, 7.43656365691809, rtol=1e-15)
    assert_allclose(out.c2u, 173.34400072710298, rtol=1e-15)
    assert_allclose(out.c2p, 63.73904268031305, rtol=1e-15)
    assert out.c1u > out.c1p


@pytest.mark.parametrize("slot", ["k3", "k2"])
def test_observer_of_five_arguments_gets_the_basis(slot):
    # each block's states are (C Y)^T on the solved load vectors; a k2
    # adds a dense history sum from node 1 on, so those nodes are one
    # dense solve each, without a basis
    kernel = {slot: MemoryKernel.exp_convolution(c=-1.0, rate=1.0)}
    sys_ = sized_system(3, 2, **kernel)
    grid = TimeGrid(T=1.0, n_steps=8)
    blocks = []
    VolterraStepper(sys_, grid).run(
        pair_load(1.0, 0.0, 2.0), pair_load(1.0, -1.0),
        on_step=lambda n, times, u, p, basis: blocks.append((u, p, basis)))
    for n, (u, p, basis) in enumerate(blocks):
        if slot == "k2" and n:
            assert basis is None
            continue
        c, y = basis
        x = np.concatenate((u, p))
        assert np.max(np.abs(c @ y - x.T)) <= 1e-14 * np.max(np.abs(x))
    assert len(blocks) == (1 if slot == "k3" else grid.n_steps + 1)


@pytest.mark.parametrize("general", [False, True], ids=["exp", "general"])
def test_loads_may_switch_between_pairs_and_arrays(general):
    # row 2 loaded by a pair, then by the same load as an array for one
    # block, then by pairs on a new vector: the history of q gains a dense
    # part, so the later blocks are dense solves too, and every state is
    # that of the run on arrays throughout
    kernel = MemoryKernel.exp_convolution(c=-1.5, rate=0.7)
    sys_ = sized_system(5, 2, k3=direct_form(kernel) if general else kernel)
    grid = TimeGrid(T=2.0, n_steps=200)
    v, w = frozen([[1.0], [-2.0]]), frozen([[2.0], [-4.0]])

    def pairs(times):
        if times[0] < grid.times[64]:
            return v, np.cos(times)[None, :]
        if times[0] < grid.times[128]:
            return v @ np.cos(times)[None, :]
        return w, 0.5 * np.cos(times)[None, :]

    runs = []
    for load in (pairs, lambda times: dense_load(pairs(times))):
        blocks = []
        VolterraStepper(sys_, grid).run(
            sys_.zero_load, load,
            on_step=lambda n, times, u, p, basis: blocks.append(
                (np.concatenate((u, p)), basis is None)))
        runs.append(blocks)
    assert [dense for _, dense in runs[0]] == [False, True, True, True]
    assert [dense for _, dense in runs[1]] == [True] * 4
    x, ref = (np.hstack([x for x, _ in blocks]) for blocks in runs)
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("view", [False, True], ids=["writeable", "view"])
def test_a_vector_that_can_change_loads_as_its_array(monkeypatch, view):
    # one buffer, refilled in place for every block, as V: it is never
    # solved as a load vector, even as a read-only view of the buffer, so
    # every block is one dense solve and reads the buffer's new contents
    kernel = MemoryKernel.exp_convolution(c=-1.5, rate=0.7)
    sys_ = sized_system(5, 2, k3=kernel)
    grid = TimeGrid(T=2.0, n_steps=200)
    buf = np.empty((2, 1))

    def refilled(times):
        buf[:, 0] = [1.0, -2.0 - times[0]]
        v = buf[:]
        v.flags.writeable = not view
        return v, np.cos(times)[None, :]

    def dense(times):
        return np.array([[1.0], [-2.0 - times[0]]]) @ np.cos(times)[None, :]

    runs = []
    for load in (refilled, dense):
        solves, blocks = record_solves(monkeypatch), []
        stepper = VolterraStepper(sys_, grid).run(
            sys_.zero_load, load,
            on_step=lambda n, times, u, p, basis: blocks.append(
                (np.concatenate((u, p)), basis)))
        assert len(stepper.hist.y) == 0
        assert [f.shape[1] for _, f, _ in solves] == [64, 64, 64, 9]
        assert all(basis is None for _, basis in blocks)
        runs.append(np.hstack([x for x, _ in blocks]))
    assert np.max(np.abs(runs[0] - runs[1])) <= 1e-14 * np.max(np.abs(runs[1]))


def test_new_vectors_past_the_bound_load_as_their_arrays(monkeypatch):
    # a new read-only V of three columns for every node: a run solves
    # them while their columns number at most _LOAD_VECTORS, and loads
    # every later pair as its array, one dense solve per node
    sys_ = sized_system(5, 2, k2=MemoryKernel.exp_convolution(c=-1.0,
                                                              rate=1.0))
    grid = TimeGrid(T=1.0, n_steps=30)
    rng = np.random.default_rng(4)
    loads = [(frozen(rng.standard_normal((2, 3))), rng.standard_normal((3, 1)))
             for _ in grid.times]
    kept = volterra._LOAD_VECTORS // 3
    solves = record_solves(monkeypatch)
    hists = HistoryBuffer(sys_, grid), HistoryBuffer(sys_, grid)
    for g in loads:
        x = np.concatenate(step(sys_, hists[0], sys_.zero_load([0.0]), g)[:2])
        ref = np.concatenate(step(sys_, hists[1], np.zeros((5, 1)),
                                  dense_load(g))[:2])
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert len(hists[0].y) == 3 * kept and len(hists[1].y) == 0
    # per node: the run's solve of a kept V, then, with k2's history
    # from node 1 on, its dense solve; then the reference's solve
    assert [f.shape[1] for _, f, _ in solves] \
        == [3, 1] + [3, 1, 1] * (kept - 1) + [1, 1] * (31 - kept)
