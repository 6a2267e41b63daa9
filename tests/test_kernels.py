import numpy as np
import pytest
from numpy.testing import assert_allclose

from memfem.errors import OracleError
from memfem.kernels import (
    MemoryKernel,
    PronySLS,
    beam_kernel,
    closed_form_creep,
    creep_factor,
    fickian_kernel,
    modulus_kernel,
    sls_relaxation,
    _trapezoid_creep,
)
from memfem.volterra import TimeGrid

UNIT_SLS = PronySLS(k1=1.0, k2=1.0, eta2=1.0)


def test_sls_validation():
    with pytest.raises(ValueError):
        PronySLS(k1=0.0, k2=1.0, eta2=1.0)
    with pytest.raises(ValueError):
        PronySLS(k1=1.0, k2=-2.0, eta2=1.0)
    with pytest.raises(ValueError):
        sls_relaxation(UNIT_SLS, -0.1)


def test_sls_relaxation_values():
    assert sls_relaxation(UNIT_SLS, 0.0) == 1.0
    # long-time limit is k1 k2 / (k1 + k2)
    assert_allclose(sls_relaxation(UNIT_SLS, 1e9), 0.5, rtol=0, atol=1e-15)
    # tau = 0.5, so E(0.5) = 0.5 + 0.5 e^{-1}
    assert_allclose(sls_relaxation(UNIT_SLS, 0.5), 0.6839397205857212, rtol=1e-15)


def test_sls_relaxation_monotone_nonincreasing():
    rng = np.random.RandomState(13)
    for _ in range(20):
        p = PronySLS(*np.exp(rng.uniform(-2, 2, size=3)))
        t = np.linspace(0.0, 10.0, 1000)
        e = sls_relaxation(p, t)
        assert np.all(np.diff(e) <= 0.0)
        assert e[0] == p.k1


def test_beam_kernel_values():
    k = beam_kernel(UNIT_SLS)
    # dE/dt(0) = -(k1 - E_inf)/tau = -1 and E(0) = 1
    assert_allclose(k.eval(3.0, 3.0), -1.0, rtol=1e-15)
    assert_allclose(k.eval(3.0, 2.5), -0.36787944117144233, rtol=1e-15)
    assert k.bound == 1.0
    assert k.is_exp and k.rate == 2.0


def test_beam_kernel_shift_invariance():
    rng = np.random.RandomState(7)
    for _ in range(5):
        p = PronySLS(*np.exp(rng.uniform(-1, 1, size=3)))
        k = beam_kernel(p)
        t = rng.uniform(1.0, 5.0)
        s = t - rng.uniform(0.0, 1.0)
        for shift in (0.3, 1.7, 12.0):
            assert_allclose(k.eval(t, s), k.eval(t + shift, s + shift), rtol=1e-14)


def test_kernel_bound_sampled():
    rng = np.random.RandomState(3)
    for k in (beam_kernel(PronySLS(2.0, 0.7, 1.3)), fickian_kernel(0.05),
              modulus_kernel(1.0, 0.5, 1.0)):
        t = rng.uniform(0.0, 10.0, size=10000)
        s = t * rng.uniform(0.0, 1.0, size=10000)
        assert np.max(np.abs(k.eval(t, s))) <= k.bound + 1e-14


def test_fickian_kernel():
    k = fickian_kernel(0.01)
    assert_allclose(k.eval(2.0, 2.0), 100.0, rtol=1e-15)
    assert_allclose(k.eval(1.0, 0.99), 100.0 * np.exp(-1.0), rtol=1e-14)
    assert fickian_kernel(1.0).eval(5.0, 5.0) == 1.0
    assert k.bound == 100.0
    with pytest.raises(ValueError):
        fickian_kernel(0.0)
    with pytest.raises(ValueError):
        fickian_kernel(-1.0)


def test_modulus_kernel_matches_sls():
    p = PronySLS(2.0, 3.0, 0.5)
    direct = beam_kernel(p)
    override = modulus_kernel(p.e0, p.e_inf, p.tau)
    assert_allclose(direct.c, override.c, rtol=1e-15)
    assert_allclose(direct.rate, override.rate, rtol=1e-15)


def test_creep_factor_zero_kernel():
    zero = MemoryKernel.from_callable(lambda t, s: np.zeros_like(np.asarray(s, float)),
                                      bound=0.0)
    grid = TimeGrid(T=2.0, n_steps=40)
    phi = creep_factor(zero, grid)
    assert_allclose(phi.samples, np.ones(41), rtol=0, atol=1e-14)
    assert phi.residual < 1e-10


def test_creep_factor_closed_form_sls():
    grid = TimeGrid(T=5.0, n_steps=500)
    phi = creep_factor(beam_kernel(UNIT_SLS), grid)
    assert phi.samples[0] == 1.0
    exact = 2.0 / 3.0 + np.exp(-3.0 * grid.times) / 3.0
    assert_allclose(phi.samples, exact, rtol=0, atol=1e-12)
    assert phi.residual < 1e-10
    # spot value frozen from the Laplace-transform solution
    assert_allclose(phi(0.7), 0.7074854760843272, rtol=0, atol=1e-6)


def test_creep_quadrature_path_matches_closed_form():
    # run the kernel through the general (non-exponential) route by
    # wrapping its pointwise values in a bare callable
    k = beam_kernel(UNIT_SLS)
    wrapped = MemoryKernel.from_callable(k.eval, bound=k.bound)
    grid = TimeGrid(T=5.0, n_steps=100)
    phi = creep_factor(wrapped, grid)
    exact = closed_form_creep(k.c, k.rate, grid.times)
    assert_allclose(phi.samples, exact, rtol=0, atol=1e-8)
    assert phi.residual < 1e-10


def loop_trapezoid_creep(kernel, T, n):
    """The implicit trapezoid creep recurrence, row by row (reference)."""
    dt = T / n
    t = dt * np.arange(n + 1)
    phi = np.ones(n + 1)
    for j in range(1, n + 1):
        k_row = np.asarray(kernel.eval(t[j], t[:j + 1]), float)
        acc = dt * (np.dot(k_row[1:j], phi[1:j]) + 0.5 * k_row[0] * phi[0])
        phi[j] = (1.0 + acc) / (1.0 - 0.5 * dt * k_row[j])
    return phi


def test_trapezoid_creep_evaluates_the_kernel_by_blocks_of_rows():
    # one eval per block of rows, at most 16384 values and never above
    # the diagonal, and the samples of the row-by-row recurrence
    calls = []

    def k(t, s):
        t, s = np.broadcast_arrays(np.asarray(t, float), np.asarray(s, float))
        calls.append((t.size, bool((s <= t).all())))
        return -1.2 * np.exp(-0.8 * (t - s)) * (1.0 + 0.5 * np.sin(t + 1.0))

    kernel = MemoryKernel.from_callable(k, bound=1.8)
    for n, blocks in ((300, 6), (1000, 63)):    # 54 and 16 rows a block
        calls.clear()
        phi = _trapezoid_creep(kernel, 15.0, n)
        assert len(calls) == blocks
        assert all(size <= 16384 and below for size, below in calls)
        assert_allclose(phi, loop_trapezoid_creep(kernel, 15.0, n),
                        rtol=1e-14, atol=0)


def test_creep_resubstitution_residual():
    # substitute the creep factor back into the discrete equation at 4x
    # time resolution; the defect must stay under 1e-8, which requires a
    # fine grid since the check quadrature itself is only second order
    k = beam_kernel(UNIT_SLS)
    grid = TimeGrid(T=5.0, n_steps=20000)
    phi = creep_factor(k, grid)
    fine = TimeGrid(T=5.0, n_steps=4 * grid.n_steps)
    ft = fine.times
    vals = phi(ft)
    worst = 0.0
    for j in range(0, fine.n_steps + 1, 250):
        kv = np.asarray(k.eval(ft[j], ft[: j + 1]), float)
        w = np.full(j + 1, fine.dt)
        if j == 0:
            w[:] = 0.0
        else:
            w[0] = w[-1] = 0.5 * fine.dt
        defect = vals[j] - 1.0 - np.dot(w, kv * vals[: j + 1])
        worst = max(worst, abs(defect))
    assert worst < 1e-8


def test_creep_resonant_case():
    # c == rate makes the closed form linear in t
    k = MemoryKernel.exp_convolution(c=0.5, rate=0.5)
    grid = TimeGrid(T=2.0, n_steps=20)
    phi = creep_factor(k, grid)
    assert_allclose(phi.samples, 1.0 + 0.5 * grid.times, rtol=1e-14)


def test_creep_oracle_failure_reported():
    # a wildly growing kernel cannot be refined to the gate in one round
    nasty = MemoryKernel.from_callable(
        lambda t, s: 40.0 * np.cos(60.0 * (np.asarray(t) - np.asarray(s))),
        bound=40.0)
    grid = TimeGrid(T=6.0, n_steps=4)
    with pytest.raises(OracleError):
        creep_factor(nasty, grid, max_refinements=1)
