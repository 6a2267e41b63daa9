"""An all-at-once oracle for the stepper, sharing no code with ``step``.

The scheme in ``memfem.volterra``'s docstring is one block
lower-triangular system over all N + 1 nodes.  Block row n holds

    [[g1 A, g2 B^T], [g3 B, 0]]                     on the diagonal,
    -w_nj [[k1(t_n,t_j) A, k2(t_n,t_j) B^T],
           [k3(t_n,t_j) B, 0]]                      at node j < n,

with the composite trapezoid weights of [0, t_n] (dt/2 at both ends, dt
between), ``g_i = 1 - (dt/2) k_i(t_n, t_n)`` and, at node 0, the
memory-free block.  ``oracle`` assembles it densely from those formulas,
reading the kernels through ``eval`` only, and solves it with
``numpy.linalg.solve``.  A property test then checks that
``VolterraStepper.run`` gives the same states, on its recycled solves and
on plain LU solves, for random well-posed pairs, kernels and loads.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from memfem.kernels import MemoryKernel
from memfem.volterra import BlockSaddleSystem, TimeGrid, VolterraStepper


def oracle(a, b, kernels, T, N, f, g):
    """States ``(u, p)``, one column per node, of the whole scheme at once;
    ``f`` and ``g`` hold the loads of the N + 1 nodes as columns."""
    n_v, n_q = a.shape[0], b.shape[0]
    dt = T / N
    t = T * np.arange(N + 1) / N
    # trapezoid weights w_nj of [0, t_n], row n; row 0 has no memory
    w = np.tril(np.full((N + 1, N + 1), dt))
    w[1:, 0] = dt / 2
    w[np.diag_indices(N + 1)] = dt / 2
    w[0, 0] = 0.0
    # block row n of slot i: (1 - w_nn k_i(t_n, t_n)) on the diagonal and
    # -w_nj k_i(t_n, t_j) before it; an absent kernel leaves the identity
    zero_v, zero_q = np.zeros((n_v, n_v)), np.zeros((n_q, n_q))
    parts = (np.block([[a, 0 * b.T], [0 * b, zero_q]]),
             np.block([[zero_v, b.T], [0 * b, zero_q]]),
             np.block([[zero_v, 0 * b.T], [b, zero_q]]))
    system = sum(np.kron(np.eye(N + 1) if kernel is None else
                         np.eye(N + 1) - w * kernel.eval(t[:, None], t[None, :]),
                         part) for kernel, part in zip(kernels, parts))
    rhs = np.concatenate((f, g)).T.ravel()
    x = np.linalg.solve(system, rhs).reshape(N + 1, n_v + n_q).T
    return x[:n_v], x[n_v:]


def exponential(c, rate, a):
    return MemoryKernel.exp_convolution(c, rate)


def general(c, rate, a):
    """c e^{-rate (t - s)} (1 + a sin(t + s)): not a convolution."""
    def k(t, s):
        t, s = np.asarray(t, float), np.asarray(s, float)
        return c * np.exp(-rate * (t - s)) * (1.0 + a * np.sin(t + s))
    return MemoryKernel.from_callable(k, bound=abs(c) * (1.0 + abs(a)))


KERNELS = {"absent": None, "exponential": exponential, "general": general}


def plain(sys_):
    """``sys_`` stepping on plain LU solves, as the audit's direct side."""
    sys_._fact = sys_.factorization().plain
    return sys_


def loads(rng, n, N, separable):
    """``(n, N + 1)`` loads: a fixed vector times ``cos(w t + phi)``, or
    loads of full rank."""
    if not separable:
        return rng.standard_normal((n, N + 1))
    w, phi = rng.uniform(0.0, 3.0, 2)
    return np.outer(rng.standard_normal(n), np.cos(w * np.arange(N + 1) + phi))


@settings(max_examples=40, deadline=None, derandomize=True)
# blocks of 64, 64 and 23 nodes under full-rank and separable loads
@example(seed=5, n_v=8, n_q=2, N=150, T=1.5, k1="absent", k2="absent",
         k3="exponential", separable=False)
@example(seed=6, n_v=5, n_q=3, N=150, T=2.0, k1="absent", k2="absent",
         k3="absent", separable=False)
@given(seed=st.integers(0, 2 ** 32 - 1), n_v=st.integers(1, 8),
       n_q=st.integers(0, 7), N=st.integers(1, 150), T=st.floats(0.1, 3.0),
       k1=st.sampled_from(sorted(KERNELS)), k2=st.sampled_from(sorted(KERNELS)),
       k3=st.sampled_from(sorted(KERNELS)), separable=st.booleans())
def test_stepper_matches_the_all_at_once_oracle(seed, n_v, n_q, N, T, k1, k2,
                                                k3, separable):
    n_q = 1 + n_q % n_v                             # n_q <= n_v
    rng = np.random.RandomState(seed)
    r = rng.standard_normal((n_v, n_v))
    a = r @ r.T + n_v * np.eye(n_v)
    a = 0.5 * (a + a.T)
    b = rng.standard_normal((n_q, n_v))
    assume(np.linalg.cond(b) < 1e3)                 # full row rank
    kernels = []
    for name in (k1, k2, k3):
        make = KERNELS[name]
        c = rng.uniform(-4.0, 4.0)
        kernels.append(None if make is None
                       else make(c, rng.uniform(0.0, 3.0), rng.uniform(-0.5, 0.5)))
    # inside the stability gate |(dt/2) k(t, t)| < 1
    assume(all(kern is None or 0.5 * T / N * kern.bound < 0.9
               for kern in kernels))
    f, g = loads(rng, n_v, N, separable), loads(rng, n_q, N, separable)
    u_ref, p_ref = oracle(a, b, kernels, T, N, f, g)
    grid = TimeGrid(T=T, n_steps=N)

    def columns(x):
        return lambda times: x[:, np.searchsorted(grid.times, times)]

    for solves in (lambda sys_: sys_, plain):
        sys_ = solves(BlockSaddleSystem(sp.csr_matrix(a), sp.csr_matrix(b),
                                        *kernels))
        us, ps = [], []
        VolterraStepper(sys_, grid).run(
            columns(f), columns(g),
            on_step=lambda n, times, u, p, basis: (us.append(u), ps.append(p)))
        for x, ref in ((np.hstack(us), u_ref), (np.hstack(ps), p_ref)):
            assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
