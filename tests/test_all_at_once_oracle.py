"""An all-at-once oracle for the stepper, sharing no code with ``step``.

The scheme in ``memfem.volterra``'s docstring is one block
lower-triangular system over all N + 1 nodes.  Block row n holds

    [[g1 A, g2 B^T], [g3 B, 0]]                     on the diagonal,
    -w_nj [[k1(t_n,t_j) A, k2(t_n,t_j) B^T],
           [k3(t_n,t_j) B, 0]]                      at node j < n,

with the composite trapezoid weights of [0, t_n] (dt/2 at both ends, dt
between), ``g_i = 1 - (dt/2) k_i(t_n, t_n)`` and, at node 0, the
memory-free block.  ``oracle`` assembles it densely from those formulas,
reading the kernels through ``eval`` only, and solves it by LU with one
step of refinement.  A property test then checks that
``VolterraStepper.run`` gives the same states, on dense loads and so one
LU solve per block, for random well-posed pairs, kernels and loads, and
that ``audit`` finds each run within the same bound of its direct form.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from memfem.kernels import MemoryKernel
from memfem.volterra import (BlockSaddleSystem, HistoryBuffer, TimeGrid,
                             VolterraStepper, audit, step)


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
    # one step of refinement on a long-double residual, 256 rows at a
    # time: near the gate the LU alone can be off by more than the stepper
    # (1.9e-10 against 3.9e-11 of a 40-digit solve, on a draw with
    # condition number 7.6e7)
    lu = scipy.linalg.lu_factor(system)
    x = scipy.linalg.lu_solve(lu, rhs)
    x += scipy.linalg.lu_solve(lu, np.concatenate([
        rhs[i:i + 256] - system[i:i + 256].astype(np.longdouble) @ x
        for i in range(0, len(rhs), 256)]).astype(float))
    x = x.reshape(N + 1, n_v + n_q).T
    return x[:n_v], x[n_v:]


def exponential(c, rate, a):
    return MemoryKernel.exp_convolution(c, rate)


def general(c, rate, a):
    """c e^{-rate (t - s)} (1 + a sin(t + s)): not a convolution."""
    def k(t, s):
        t, s = np.asarray(t, float), np.asarray(s, float)
        return c * np.exp(-rate * (t - s)) * (1.0 + a * np.sin(t + s))
    return MemoryKernel.from_callable(k, bound=abs(c) * (1.0 + abs(a)))


def wrapped(c, rate, a):
    """An exponential's eval as a general kernel: the direct sum of it."""
    return MemoryKernel.from_callable(exponential(c, rate, a).eval, abs(c))


KERNELS = {"absent": None, "exponential": exponential, "general": general,
           "wrapped": wrapped}


def loads(rng, n, N, separable):
    """``(n, N + 1)`` loads: a fixed vector times ``cos(w t + phi)``, or
    loads of full rank."""
    if not separable:
        return rng.standard_normal((n, N + 1))
    w, phi = rng.uniform(0.0, 3.0, 2)
    return np.outer(rng.standard_normal(n), np.cos(w * np.arange(N + 1) + phi))


DRAWS = dict(
    seed=st.integers(0, 2 ** 32 - 1), n_v=st.integers(1, 8),
    n_q=st.integers(0, 7), N=st.integers(1, 150), T=st.floats(0.1, 3.0),
    k1=st.sampled_from(sorted(KERNELS)), k2=st.sampled_from(sorted(KERNELS)),
    k3=st.sampled_from(sorted(KERNELS)), separable=st.booleans())


@settings(max_examples=40, deadline=None, derandomize=True)
# blocks of 64, 64 and 23 nodes under full-rank and separable loads
@example(seed=5, n_v=8, n_q=2, N=150, T=1.5, k1="absent", k2="absent",
         k3="exponential", separable=False)
@example(seed=6, n_v=5, n_q=3, N=150, T=2.0, k1="absent", k2="absent",
         k3="absent", separable=False)
# a general k3, and an exponential's eval as one: blocks of 64, 64
# and 23 or 13 nodes
@example(seed=7, n_v=6, n_q=1, N=150, T=1.5, k1="absent", k2="absent",
         k3="general", separable=False)
@example(seed=8, n_v=4, n_q=2, N=140, T=2.5, k1="absent", k2="absent",
         k3="wrapped", separable=True)
# memory in row 1 too: blocks of 64, 64 and 23 nodes under each slot
@example(seed=9, n_v=7, n_q=2, N=150, T=2.0, k1="exponential", k2="general",
         k3="general", separable=False)
@example(seed=10, n_v=5, n_q=3, N=150, T=1.5, k1="general", k2="wrapped",
         k3="exponential", separable=True)
@given(**DRAWS)
def test_stepper_matches_the_all_at_once_oracle(seed, n_v, n_q, N, T, k1, k2,
                                                k3, separable):
    check_draw(seed, n_v, n_q, N, T, k1, k2, k3, separable)


@settings(phases=[Phase.explicit], deadline=None)
# condition number 7.6e7, k1 at |w k| = 0.85, and p 4e6 times smaller
# than u at the last node: the run, one block of 8 nodes, reads p 6.7e-11
# from the oracle (2.7e-11 when it stepped node by node).  Its
# audit is not checked: the direct form that audit steps beside it reads
# p 2.1e-10 from the oracle, 5e-17 of the largest state
@example(seed=333838, n_v=4, n_q=0, N=7, T=3.0, k1="exponential",
         k2="exponential", k3="exponential", separable=True)
@given(**DRAWS)
def test_ill_conditioned_draw_matches_the_all_at_once_oracle(
        seed, n_v, n_q, N, T, k1, k2, k3, separable):
    check_draw(seed, n_v, n_q, N, T, k1, k2, k3, separable, audited=False)


def make_draw(seed, n_v, n_q, N, k1, k2, k3, separable):
    """``(a, b, kernels, f, g)`` of one draw, with ``1 + n_q % n_v``
    multipliers."""
    n_q = 1 + n_q % n_v                             # n_q <= n_v
    rng = np.random.RandomState(seed)
    r = rng.standard_normal((n_v, n_v))
    a = r @ r.T + n_v * np.eye(n_v)
    a = 0.5 * (a + a.T)
    b = rng.standard_normal((n_q, n_v))
    kernels = []
    for name in (k1, k2, k3):
        make = KERNELS[name]
        c = rng.uniform(-4.0, 4.0)
        kernels.append(None if make is None
                       else make(c, rng.uniform(0.0, 3.0), rng.uniform(-0.5, 0.5)))
    f, g = loads(rng, n_v, N, separable), loads(rng, n_q, N, separable)
    return a, b, kernels, f, g


def run_states(stepper, f, g):
    """``(u, p)`` of a run on the loads ``f`` and ``g``, a column a node."""
    times = stepper.grid.times
    us, ps = [], []
    stepper.run(lambda t: f[:, np.searchsorted(times, t)],
                lambda t: g[:, np.searchsorted(times, t)],
                on_step=lambda n, t, u, p, basis: (us.append(u), ps.append(p)))
    return np.hstack(us), np.hstack(ps)


def check_draw(seed, n_v, n_q, N, T, k1, k2, k3, separable, audited=True):
    """The run of one draw against the oracle, and its audit."""
    a, b, kernels, f, g = make_draw(seed, n_v, n_q, N, k1, k2, k3, separable)
    assume(np.linalg.cond(b) < 1e3)                 # full row rank
    # inside the stability gate |(dt/2) k(t, t)| < 1
    assume(all(kern is None or 0.5 * T / N * kern.bound < 0.9
               for kern in kernels))
    u_ref, p_ref = oracle(a, b, kernels, T, N, f, g)
    grid = TimeGrid(T=T, n_steps=N)

    def columns(x):
        return lambda times: x[:, np.searchsorted(grid.times, times)]

    sys_ = BlockSaddleSystem(sp.csr_matrix(a), sp.csr_matrix(b), *kernels)
    states = run_states(VolterraStepper(sys_, grid), f, g)
    for x, ref in zip(states, (u_ref, p_ref)):
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
    if not audited:
        return
    # the run, blocked or not, against each kernel in direct form, node by
    # node, to the bound of each against the oracle: the
    # direct side rounds too (1,489 draws like these, k1 and k2 absent,
    # read at most 5.7e-11, where the blocked run was 6.3e-12 from the
    # oracle and the node-by-node side 6.4e-11)
    steps, deviation = audit(BlockSaddleSystem(sp.csr_matrix(a),
                                               sp.csr_matrix(b), *kernels),
                             grid, columns(f), columns(g))
    assert steps == (N if "exponential" in (k1, k2, k3) else 0)
    assert deviation <= 1e-10


def test_node_by_node_general_k3_reads_q_as_row_2_fixed_it():
    # the draw seed=1206959966, n_v=5, n_q=4, N=102, T=1.6811228533893323,
    # k3 general, full-rank loads: a square B with cond(B) = 317.  Stepped
    # node by node (one-column step calls) and in blocks, each reads
    # 2.4e-12 from the oracle.  When the node-by-node history of q read
    # B u_j of the stored u, up to cond(B) ulps off the q_j that row 2
    # fixed, that run read 2.9e-11 and the blocked 4.7e-12
    T, N = 1.6811228533893323, 102
    a, b, kernels, f, g = make_draw(1206959966, 5, 4, N, "absent", "absent",
                                    "general", False)
    assert 300 < np.linalg.cond(b) < 400 and b.shape == (5, 5)
    u_ref, p_ref = oracle(a, b, kernels, T, N, f, g)
    grid = TimeGrid(T=T, n_steps=N)
    sys_ = BlockSaddleSystem(sp.csr_matrix(a), sp.csr_matrix(b), k3=kernels[2])
    stepper = VolterraStepper(sys_, grid)
    assert stepper.width == 64
    hist = HistoryBuffer(sys_, grid)
    single = [step(sys_, hist, f[:, n:n + 1], g[:, n:n + 1])[:2]
              for n in range(N + 1)]
    for states in (run_states(stepper, f, g),
                   [np.hstack(x) for x in zip(*single)]):
        for x, ref in zip(states, (u_ref, p_ref)):
            assert np.max(np.abs(x - ref)) <= 1e-11 * np.max(np.abs(ref))
