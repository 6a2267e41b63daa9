"""Round-off oracle for the stepper with a general (non-convolution) kernel.

Both drivers load only the constraint row, with a fixed vector times a
scalar ``c(t)``, and the kernel sits on that row.  The fully discrete
solution is then exactly ``x_n = s_n x_*``: ``x_*`` is one spatial solve
and ``s_n`` is the scalar trapezoid recurrence on the same grid,

    s_0 = c(t_0),
    (1 - dt/2 k(t_n,t_n)) s_n = c(t_n) + sum_{j<n} w_nj k(t_n,t_j) s_j.

A kernel whose ``k(t,t)`` varies moves every node's block scaling, so the
check covers the scalings applied in each solve, the direct history sum
before each block and the triangular solve of row 2 inside it.  A property test draws convolution kernels and checks
the identity for both history forms: the recurrence of the exponential
kernel and the direct sum of the same kernel as a general callable, on
the drivers' loads, pairs ``(V, C)`` that the stepper solves once, and
on the same loads made dense, one LU solve per block.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memfem.beam import BeamProblem, joined_profile
from memfem.kernels import MemoryKernel, PronySLS, beam_kernel
from memfem.laplace_mem import LaplaceProblem
from memfem.volterra import TimeGrid, dense_load


def varying_kernel(c, rate, a):
    """c e^{-rate (t-s)} (1 + a sin(t + s)): k(t,t) changes every step."""
    def k(t, s):
        t = np.asarray(t, float)
        s = np.asarray(s, float)
        return c * np.exp(-rate * (t - s)) * (1.0 + a * np.sin(t + s))

    return MemoryKernel.from_callable(k, bound=abs(c) * (1.0 + a))


def scalar_factor(kernel, grid, load):
    times, dt = grid.times, grid.dt
    s = np.empty(grid.n_steps + 1)
    s[0] = load(times[0])
    for n in range(1, grid.n_steps + 1):
        w = np.full(n, dt)
        w[0] = 0.5 * dt
        k_row = np.asarray(kernel.eval(times[n], times[:n]), float)
        s[n] = (load(times[n]) + np.dot(w * k_row, s[:n])) \
            / (1.0 - 0.5 * dt * float(kernel.eval(times[n], times[n])))
    return s


def max_factor_deviation(states, s):
    """Largest ``max|x_n - s_n x_*| / max|x_n|`` over the run."""
    assert len(states) == len(s)
    x_star = states[0] / s[0]
    return max(float(np.max(np.abs(x - s_n * x_star)) / np.max(np.abs(x)))
               for x, s_n in zip(states, s))


def max_scaled_deviation(states, s):
    """Largest ``max|x_n - s_n x_*|`` over the largest state up to step n.

    Step n solves for x_n from the load and a sum of the earlier states,
    so its round-off scales with those.  Dividing by ``max|x_n|`` alone
    would blow up wherever ``s_n`` crosses zero.
    """
    assert len(states) == len(s)
    x_star = states[0] / s[0]
    scale = np.maximum.accumulate([np.max(np.abs(x)) for x in states])
    return max(float(np.max(np.abs(x - s_n * x_star))) / sc
               for x, s_n, sc in zip(states, s, scale))


def collector(states):
    return lambda n, t, u, p: states.append(np.concatenate([u, p]))


@pytest.mark.parametrize("c, rate, a", [(-1.5, 1.0, 0.5), (0.8, 2.0, 0.3)])
def test_laplace_general_kernel_is_scalar_times_spatial(c, rate, a):
    kernel = varying_kernel(c, rate, a)
    grid = TimeGrid(T=1.0, n_steps=40)
    # delta=None: the load is cos(t) times a fixed cell vector
    prob = LaplaceProblem(4, delta=None, kernel=kernel)
    states = []
    prob.run(grid, collect=collector(states))
    s = scalar_factor(kernel, grid, math.cos)
    assert max_factor_deviation(states, s) <= 1e-12


@pytest.mark.parametrize("c, rate, a", [(-1.0, 1.0, 0.5), (0.6, 0.5, 0.7)])
def test_beam_general_kernel_is_scalar_times_spatial(c, rate, a):
    kernel = varying_kernel(c, rate, a)
    grid = TimeGrid(T=3.0, n_steps=60)
    # unit step load on the constraint row
    prob = BeamProblem(joined_profile(d=0.001), 8, kernel, 1.0, np.exp, None)
    states = []
    prob.run(grid, collect=collector(states))
    s = scalar_factor(kernel, grid, lambda t: 1.0)
    assert max_factor_deviation(states, s) <= 1e-12


def dense_loads(prob):
    """``prob`` loaded by its loads made dense.  Every state of a run on
    the pairs ``(V, C)`` is a scalar times one solved column by
    construction, so only a dense run, one LU solve per block, checks
    the solves."""
    factored = prob.rhs
    prob.rhs = lambda times: dense_load(factored(times))
    return prob


SOLVES = (lambda prob: prob, dense_loads)   # in this order on one problem

DRIVERS = {
    # (problem for a kernel, c(t) of its constraint-row load)
    "laplace": (lambda k: LaplaceProblem(4, delta=None, kernel=k), math.cos),
    "beam": (lambda k: BeamProblem(joined_profile(d=0.001), 8, k, 1.0, np.exp,
                                   None), lambda t: 1.0),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@settings(max_examples=100, deadline=None)
@given(c=st.floats(-5.0, 5.0), rate=st.floats(0.0, 5.0),
       T=st.floats(0.1, 3.0), n_steps=st.integers(1, 40))
def test_convolution_kernel_is_scalar_times_spatial(driver, c, rate, T,
                                                    n_steps):
    grid = TimeGrid(T=T, n_steps=n_steps)
    assume(abs(grid.dt * c / 2.0) < 0.9)    # inside the stability gate
    problem, load = DRIVERS[driver]
    exp = MemoryKernel.exp_convolution(c=c, rate=rate)
    s = scalar_factor(exp, grid, load)
    # the recurrence, then the direct sum of the same kernel, each on
    # factored and on dense loads
    for kernel in (exp, MemoryKernel.from_callable(exp.eval, bound=exp.bound)):
        prob = problem(kernel)
        for solves in SOLVES:
            states = []
            solves(prob).run(grid, collect=collector(states))
            assert max_scaled_deviation(states, s) <= 1e-12


@pytest.mark.parametrize("c, rate", [(-1.5, 0.7), (2.0, 0.3)])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_convolution_kernel_is_scalar_times_spatial_across_blocks(driver, c,
                                                                  rate):
    # 201 nodes: three full blocks of 64 and a tail of 9, so the history
    # crosses three block boundaries, through the affine map of row 2 and,
    # for the same kernel as a general one, through its direct sum
    grid = TimeGrid(T=2.0, n_steps=200)
    problem, load = DRIVERS[driver]
    exp = MemoryKernel.exp_convolution(c=c, rate=rate)
    s = scalar_factor(exp, grid, load)
    for solves in SOLVES:
        runs = []
        for kernel in (exp,
                       MemoryKernel.from_callable(exp.eval, bound=exp.bound)):
            states = []
            _, stepper = solves(problem(kernel)).run(
                grid, collect=collector(states))
            assert max_scaled_deviation(states, s) <= 1e-12
            runs.append((stepper.width, np.array(states)))
        (width, blocked), (direct_width, direct) = runs
        assert (width, direct_width) == (64, 64)
        assert np.max(np.abs(blocked - direct)) \
            <= 1e-12 * np.max(np.abs(direct))


STUDIES = {
    # (problem of a level, levels): the study kernel of each driver
    "laplace": (lambda m: LaplaceProblem(m), (4, 8, 16)),
    "beam": (lambda n: BeamProblem(joined_profile(d=0.001), n,
                                   beam_kernel(PronySLS(1.0, 1.0, 1.0)), 1.0,
                                   np.exp, None), (8, 16, 32)),
}


@pytest.mark.parametrize("driver", sorted(STUDIES))
def test_factored_and_dense_loads_step_the_same_states(driver):
    # every level of a small study: the run on the pairs (V, C), one LU
    # solve and its coefficients, and on the same loads made dense, one
    # LU solve per block, agree to 1e-13 at every node
    problem, levels = STUDIES[driver]
    grid = TimeGrid(T=1.0, n_steps=300)
    for level in levels:
        runs = []
        for solves in SOLVES:
            states = []
            solves(problem(level)).run(grid, collect=collector(states))
            runs.append(np.array(states))
        factored, dense = runs
        assert np.max(np.abs(factored - dense)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("levels, driver", [
    ((4, 8, 16, 32), "laplace"), ((8, 16, 32), "beam")])
def test_states_free_run_measures_what_a_collected_run_measures(levels,
                                                                driver):
    # every level of a small study: a run with no collect forms no states
    # and steps 64 nodes a block; the same run with a collect forms them,
    # at the capped width (12 at Laplace m = 32), and measures the same
    # errors from the same coefficients
    problem = STUDIES[driver][0]
    grid = TimeGrid(T=1.0, n_steps=300)
    reference = problem(levels[0]).reference(grid, levels[-1])
    for level in levels:
        prob = problem(level)
        free, free_stepper = prob.run(grid, reference=reference)
        kept, kept_stepper = prob.run(grid, reference=reference,
                                      collect=lambda *node: None)
        n = prob.system.n_v + prob.system.n_q
        assert free_stepper.width == 64
        assert kept_stepper.width == max(1, min(64, 65536 // n))
        for name, norms in kept.items():
            for norm, value in norms.items():
                assert free[name][norm] == pytest.approx(value, rel=1e-14)
