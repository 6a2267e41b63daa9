"""Time stepping for block saddle-point systems with Volterra memory.

At each time node the scheme solves

    g1 A u_n + g2 B^T p_n = f_n + sum_{j<n} w_{n,j} [k1(t_n,t_j) A u_j
                                                   + k2(t_n,t_j) B^T p_j],
    g3 B u_n             = g_n + sum_{j<n} w_{n,j} k3(t_n,t_j) B u_j,

where the w are composite trapezoid weights on [0, t_n], the current-time
quadrature term has been moved to the left as the scalar block scaling
``g_i = 1 - w_{n,n} k_i(t_n, t_n)``, and step 0 is the memory-free solve
with data (f_0, g_0) (Volterra equations of the second kind need no
initial condition).  Scheme well-posedness requires the stability gate
``|w_{n,n} k(t_n, t_n)| < 1`` for every attached kernel.

The scalings are scalars, so every step shares one SuperLU LU of the
unscaled ``K = [[A, B^T], [B, 0]]``, and :func:`step` applies them in
time.  A load block is a dense ``(n, k)`` array or a pair ``(V,
C)`` of vectors ``V`` ``(n, r)`` and coefficients ``C`` ``(r, k)``, the
load ``V C``.  A run solves ``Y = K^{-1} V`` once per read-only ``V``
and steps the coefficients alone: both drivers load row 2 with one
vector times a scalar, so a run makes one LU solve.  The history kept
is what the attached kernels read: an exponential kernel gets an O(1)
recurrence, a general kernel one product of its weighted values with
the stored ``(N+1, n)`` rows of the family it reads.  :func:`audit`
checks a run against the same kernels in that direct form.

Every kernel is scalar, so in time slot i is a lower-triangular matrix
``L_i`` (``g_i`` on its diagonal, ``-w_{n,j} k_i(t_n,t_j)`` below).  Row
2 alone reads ``Q L3^T = G``, its history kept on the ``q`` it fixes,
never read back as ``B u``; then ``K [U L1^T; P L2^T] = [F; Q L1^T]``,
so every system steps in blocks (Hairer, Lubich & Schlichte, SIAM J.
Sci. Stat. Comput. 6, 1985; see :func:`step`).  A block of ``max(1,
min(64, 65536 // (n_v + n_q)))`` nodes, 512 KiB of right-hand side,
keeps its states about cache-sized; wider blocks saved at most a few
percent, or lost.  A run that forms no states takes 64 nodes.

L1-in-time error norms take each solved block at once: from the
coefficients of its states on ``Y``, or else in dof space (see
:class:`L1NormAccumulator`).  The module also evaluates the
closed-form stability and error constants of the theory.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from .errors import EstimatorError, SaddleSolverError, StabilityGateError
from .kernels import MemoryKernel
from .sparsela import SaddleFactorization, as_csr, factorize_saddle

__all__ = [
    "TimeGrid",
    "BlockSaddleSystem",
    "HistoryBuffer",
    "VolterraStepper",
    "L1NormAccumulator",
    "StabilityConstants",
    "ErrorConstants",
    "audit",
    "dense_load",
    "step",
    "step_gammas",
    "history_sum",
    "stability_constants",
    "error_constants",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into ``n_steps`` steps."""

    T: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"need n_steps >= 1, got {self.n_steps}")
        if not self.T > 0.0:
            raise ValueError(f"need T > 0, got {self.T}")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @functools.cached_property
    def times(self) -> np.ndarray:
        """The n_steps + 1 nodes, computed once and read-only."""
        times = self.T * np.arange(self.n_steps + 1) / self.n_steps
        times.flags.writeable = False
        return times

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Composite trapezoid weights over [0, T] at the n_steps + 1
        nodes, computed once and read-only.  Those of [0, t_n] at nodes
        j < n are ``weights[:n]``, for every n <= n_steps."""
        w = np.full(self.n_steps + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        w.flags.writeable = False
        return w


class L1NormAccumulator:
    """Trapezoid-in-time L1 norms of point-evaluated errors, in dof space.

    Each norm is a triple ``(E, W, r)``: a sparse operator ``E`` from the
    state ``x = (u, p)`` to the values it sums (of a field, or of a field
    and its slope, at quadrature nodes), their weights ``W`` (a vector, or
    a sparse symmetric positive definite matrix) and the oracle's spatial
    part ``r`` there; the oracle at time t is ``c(t) r``.  On the dofs
    ``S`` that ``E`` reads, node n adds ``w_n ||E x_n - c r||_W``.  The
    build takes the Gram ``G = E^T W E``, the projection ``G rho = E^T W r``,
    and from ``t = r - E rho`` (in long double) the terms ``s = E^T W t``
    and ``res = t.W t``.  With ``z = x_n[S] - c rho`` the error is
    ``E z - c t``, so for whatever ``rho`` the solve returns

        ||E x_n - c r||_W^2 = z.(G z - 2c s) + c^2 res.

    ``z`` is the error against the projection and ``t`` the
    best-approximation error, so every term has the size of the error,
    unlike the expansion ``x.Gx - 2c x.g + c^2 r.Wr``, which cancels once
    the error is small against the field.  :meth:`add` takes a block of
    nodes, with one product of the block-diagonal Gram, and :meth:`result`
    takes the roots and sums them once.  ``G`` must be nonsingular on ``S``.

    States ``x = (C Y)^T`` on the rows of a basis ``Y`` cost no
    state-sized work.  Each row ``y`` is split once, per norm, as
    ``y[S] = mu rho + delta``, ``mu`` its G-projection on ``rho``, and
    ``delta^T = Q R`` with G-orthonormal ``Q``.  Then
    ``z = beta rho + delta^T C`` with ``beta = mu.C - c`` (``delta`` and
    ``beta`` in long double), and node n adds, with no Gram
    ``C.(delta G delta^T) C`` to square a cancellation among the
    coefficients,

        |R C|^2 + beta (2 C.(delta G rho) + beta rho.G rho)
                - 2c (C.(delta s) + beta rho.s) + c^2 res.
    """

    def __init__(self, grid: TimeGrid, factor: Callable, norms: dict):
        """``norms`` maps ``(field, norm)`` to ``(E, W, r)``; ``factor`` is c(t)."""
        self._keys = list(norms)
        take, grams, rho, s, res = zip(*(_project(*norm)
                                         for norm in norms.values()))
        self._take = np.concatenate(take)
        sizes = [x.size for x in take]
        self._starts = starts = np.cumsum(sizes) - sizes
        nnz = np.cumsum([0] + [g.nnz for g in grams])
        self._gram = sp.csr_matrix(     # block-diagonal, from the blocks' CSR
            (np.concatenate([g.data for g in grams]),
             np.concatenate([g.indices + k for g, k in zip(grams, starts)]),
             np.concatenate([g.indptr[:-1] + k for g, k in zip(grams, nnz)]
                            + [nnz[-1:]])), shape=(sum(sizes), sum(sizes)))
        self._rho = np.concatenate(rho)
        self._s = np.concatenate(s)
        self._scale = np.asarray(factor(grid.times), dtype=float)
        self._weights = grid.weights
        # per node and norm: c^2 res, and what add adds to it
        self._squares = self._scale[:, None] ** 2 * np.array(res)
        self._count = 0
        # states on a basis: per norm rho.G rho, rho.s and R, per basis
        # row mu, delta.G rho and delta.s of every norm, and a row of Q
        self._sizes = sizes
        self._grho = self._gram @ self._rho
        self._rgr, self._rs = np.add.reduceat(
            self._rho * [self._grho, self._s], starts, axis=1)
        self._terms = np.empty((0, 3 * len(sizes)))
        self._q = np.empty((0, sum(sizes)))
        self._rfac = np.empty((len(sizes), 0, 0))

    @np.errstate(over="ignore")         # an overflow reads inf
    def add(self, n: int, u, p, basis=None) -> None:
        """Add nodes ``n, n + 1, ...``: the vectors of one node, or
        ``(n_v, k)`` and ``(n_q, k)`` arrays, one column per node.  A node
        adds the same bits whatever block it comes in.  A block given the
        ``basis`` ``(C, Y)`` of its solve (see :func:`step`) is measured
        from ``C``, whose k rows count its nodes, and may come with ``u =
        p = None``; rows of ``Y`` seen before must not have changed."""
        if u is not None:
            u, p = u.T.reshape(-1, len(u)), p.T.reshape(-1, len(p))
            if len(p) != len(u):
                raise ValueError(f"u holds {len(u)} nodes and p {len(p)}")
        elif basis is None:
            raise ValueError("a block needs its states or its basis")
        k = len(u) if basis is None else len(basis[0])  # a row per node on
        if u is not None and len(u) != k:
            raise ValueError(f"u holds {len(u)} nodes and the basis {k}")
        if n != self._count:        # nodes come in order, from 0
            raise ValueError(f"expected node {self._count}, got {n}")
        if n + k > len(self._weights):
            raise ValueError(f"nodes {n}..{n + k - 1} run past the last "
                             f"node {len(self._weights) - 1} of the grid")
        c = self._scale[n:n + k, None]
        if basis is None:
            z = np.concatenate((u, p), axis=1)[:, self._take]
            z -= c * self._rho
            q = np.ascontiguousarray((self._gram @ z.T).T)  # a row per node
            q -= (2.0 * c) * self._s
            q *= z
            self._squares[n:n + k] += np.add.reduceat(q, self._starts, axis=1)
        else:                       # states (C Y)^T: see the class docstring
            coef, y = basis
            for row in y[len(self._terms):]:
                self._split(row)
            r = coef.shape[1]
            terms = coef.astype(np.longdouble) @ self._terms[:r]
            terms[:, :len(self._sizes)] -= c            # beta
            beta, dgr, ds = terms.astype(float).reshape(k, 3, -1).swapaxes(0, 1)
            rc = self._rfac[:, :r, :r] @ coef.T         # (norm, r, k)
            self._squares[n:n + k] += (rc * rc).sum(axis=1).T + beta * (
                2.0 * dgr + beta * self._rgr) - 2.0 * c * (ds + beta * self._rs)
        self._count += k

    def _split(self, y) -> None:
        """Split one more basis row ``y``; ``R`` gains a column by
        Gram-Schmidt in G, run twice (Daniel et al., Math. Comp. 30, 1976)."""
        starts, sizes, gram, q = self._starts, self._sizes, self._gram, self._q
        y = y[self._take]
        mu = np.divide(np.add.reduceat(y * self._grho, starts), self._rgr,
                       out=np.zeros(len(sizes)), where=self._rgr > 0.0)
        # y and mu rho are near: their difference in long double, as t
        w = (y - np.repeat(mu, sizes).astype(np.longdouble)
             * self._rho).astype(float)
        terms = np.add.reduceat(w * [self._grho, self._s], starts, axis=1)
        self._terms = np.vstack((self._terms, np.concatenate((mu, *terms))))
        col = np.zeros((len(sizes), len(q) + 1))
        for _ in range(2):
            a = np.add.reduceat(q * (gram @ w), starts, axis=1)    # (r, norm)
            w = w - (np.repeat(a, sizes, axis=1) * q).sum(axis=0)
            col[:, :-1] += a.T
        col[:, -1] = norm = np.sqrt(np.maximum(
            np.add.reduceat(w * (gram @ w), starts), 0.0))
        norm = np.repeat(norm, sizes)
        self._q = np.vstack((q, np.divide(w, norm, out=np.zeros_like(w),
                                          where=norm > 0.0)))
        self._rfac = np.pad(self._rfac, ((0, 0), (0, 1), (0, 1)))
        self._rfac[:, :, -1] = col

    def result(self) -> dict:
        """``{field: {norm: value}}``; needs every node of the grid."""
        if self._count != len(self._weights):
            raise ValueError(f"{self._count} states added, grid needs "
                             f"{len(self._weights)}")
        # the squares are >= 0 up to round-off
        sums = self._weights @ np.sqrt(np.maximum(self._squares, 0.0))
        out = {}
        for (name, norm), value in zip(self._keys, sums):
            out.setdefault(name, {})[norm] = float(value)
        return out


def _project(e, w, r) -> tuple:
    """``(S, G, rho, s, res)`` of a norm ``(E, W, r)`` on the dofs ``S`` it reads."""
    e, r = e.tocsr(copy=True), np.ravel(r)
    if not sp.issparse(w):              # a vector: the diagonal W, in CSR
        w = np.ravel(w)
        w = sp.csr_matrix((w, np.arange(w.size), np.arange(w.size + 1)))
    e.eliminate_zeros()                 # e is a copy, changed in place
    used = np.bincount(e.indices) > 0   # the dofs S that E reads
    e = sp.csr_matrix((e.data, (np.cumsum(used) - 1)[e.indices], e.indptr),
                      shape=(e.shape[0], int(used.sum())))      # E on S
    ewt = (w @ e).T.tocsr()             # E^T W, as W is symmetric
    gram = ewt @ e
    rho = ewt @ r                       # zero for a zero oracle: no LU
    if rho.any():
        rho = splu(gram.tocsc()).solve(rho)
    # t is a small difference of near-equal vectors: in double, E rho would
    # round at ulp(r), so it is formed in long double, 8192 rows at a time,
    # each a CSR matrix on slices of E's own arrays
    rho_ld, t = rho.astype(np.longdouble), np.empty(r.size)
    for i in range(0, r.size, 8192):
        ptr = e.indptr[i:i + 8193]
        rows = sp.csr_matrix((e.data[ptr[0]:ptr[-1]].astype(np.longdouble),
                              e.indices[ptr[0]:ptr[-1]], ptr - ptr[0]),
                             shape=(len(ptr) - 1, e.shape[1]))
        t[i:i + len(ptr) - 1] = r[i:i + len(ptr) - 1] - rows @ rho_ld
    return np.flatnonzero(used), gram, rho, ewt @ t, float(t @ (w @ t))


class BlockSaddleSystem:
    """Sparse blocks A (n_v x n_v), B (n_q x n_v) with kernel attachments.

    A must be symmetric (checked to 1e-12 entrywise on construction) and
    positive semi-definite; B must have full row rank.  Each of the three
    kernel slots is a :class:`MemoryKernel` or None (absent).  One
    SuperLU LU of the unscaled system, :attr:`saddle`, serves every
    step's scalings.
    """

    SYMMETRY_TOL = 1e-12

    def __init__(self, a, b, k1: Optional[MemoryKernel] = None,
                 k2: Optional[MemoryKernel] = None,
                 k3: Optional[MemoryKernel] = None):
        self.a = as_csr(a)
        self.b = as_csr(b)
        if self.a.shape[0] != self.a.shape[1]:
            raise ValueError(f"A must be square, got {self.a.shape}")
        if self.b.shape[1] != self.a.shape[0]:
            raise ValueError(
                f"B columns {self.b.shape[1]} != A size {self.a.shape[0]}")
        asym = abs(self.a - self.a.T)
        max_asym = asym.max() if asym.nnz else 0.0
        if max_asym >= self.SYMMETRY_TOL:
            raise ValueError(f"A is not symmetric: max |A - A^T| = {max_asym:.3e}")
        self.k1 = k1
        self.k2 = k2
        self.k3 = k3
        self._zero = np.empty((self.n_v, 0))
        self._zero.flags.writeable = False

    @property
    def n_v(self) -> int:
        return self.a.shape[0]

    @property
    def n_q(self) -> int:
        return self.b.shape[0]

    @property
    def kernels(self):
        return (self.k1, self.k2, self.k3)

    def zero_load(self, times):
        """The zero first-row load of the nodes ``times``: rank 0."""
        return self._zero, np.empty((0, len(times)))

    @functools.cached_property
    def saddle(self) -> SaddleFactorization:
        """The LU of the unscaled system, factored on first use."""
        return factorize_saddle(self.a, self.b)


class HistoryBuffer:
    """Past states of a system, kept in the form its kernels read.

    Each kernel slot reads one family of states: ``k1`` reads ``u`` (as
    ``A u``), ``k2`` reads ``p`` (as ``B^T p``) and ``k3`` reads
    ``q = B u``, as row 2 fixes it.  The attached kernels fix what is kept:

    * an exponential kernel gets a recurrence per (kernel, family),
      updated in place by :func:`step`, a block at a time, that holds the
      history sum of node ``len(self)``;
    * ``u`` or ``p`` is stored, as the rows of an ``(n_steps + 1, n)``
      array, only when a general kernel reads it: ``(n_steps + 1) * n *
      8`` bytes, with ``n = n_v`` for ``u`` and ``n = n_q`` for ``p``;
    * under a general ``k3``, :func:`step` stores each node's ``q`` in
      the layout of :func:`history_sum`, its dense part from the first
      block with one (the rows before it zero);
    * a family that no general kernel reads is never stored.

    The rows of ``y`` are ``K^{-1}`` of the columns of each ``V`` that
    the run solved (see :func:`step`), on its block row of ``K``, and are
    only added; an exponential ``k3`` keeps its history of ``q`` on them.
    """

    def __init__(self, sys: BlockSaddleSystem, grid: TimeGrid):
        self.grid = grid
        reads = [(kernel, which) for kernel, which
                 in zip(sys.kernels, ("u", "p", "q")) if kernel is not None]
        size = {"u": sys.n_v, "p": sys.n_q, "q": sys.n_q}
        # (exp(-rate dt), recurrence) for each distinct (kernel, family)
        self._recur = {key: (math.exp(-key[0].rate * grid.dt),
                             np.zeros(size[key[1]]))
                       for key in reads if key[0].is_exp}
        # family -> (n_steps + 1, n) rows; q's start with no columns
        self._stored = {w: np.empty((grid.n_steps + 1, 0 if w == "q" else size[w]))
                        for kernel, w in reads if not kernel.is_exp}
        self._maps = {}         # (family, block starts at node 0, k) -> map
        self._count = 0         # solved states appended
        self._loads = {}        # (block row, id(V)) -> (V, its rows of y)
        self.y = np.empty((0, sys.n_v + sys.n_q))   # K^{-1} [V; 0] or [0; V]
        self._q = np.zeros(0)   # an exponential k3's q history on y
        # whether it reads the solved states: a k1 or k2 keeps u or p
        self.reads_states = sys.k1 is not None or sys.k2 is not None

    def __len__(self) -> int:
        return self._count

    @property
    def store_full(self) -> bool:
        """Whether the states ``u`` or ``p`` are stored."""
        return "u" in self._stored or "p" in self._stored

    def append(self, u, p, k: int = 1) -> None:
        """Add solved states from node ``len(self)`` on: the vectors of
        one node, or ``(n, k)`` arrays with one column per node; or, when
        the history reads no states, count ``k`` nodes with ``u = p =
        None``.  Stores the families a general kernel reads."""
        if u is None and self.reads_states:
            raise ValueError("this history reads the states it is given")
        n = self._count
        k = k if u is None else 1 if u.ndim == 1 else u.shape[1]
        for which, x in (("u", u), ("p", p)):
            rows = self._stored.get(which)
            if rows is not None:
                rows[n:n + k] = x.T
        self._count += k

    def vectors(self, which: str) -> np.ndarray:
        """The stored rows of one family, one filled row per node; empty
        for a family that is not stored."""
        rows = self._stored.get(which)
        return np.empty((0, 0)) if rows is None else rows[:self._count]


def history_sum(hist: HistoryBuffer, kernel: MemoryKernel, which: str,
                k: Optional[int] = None) -> np.ndarray:
    """Weighted history sum ``sum_{j<n} w_{n,j} k(t_n, t_j) x_j`` of one
    stored family at the next node, ``n = len(hist)``, as one product of
    the weighted kernel values with the stored rows; given ``k``, its part
    over j < n at each of the k nodes from n, one column a node.  That of
    ``q`` is its coefficients on ``hist.y``, then its dense part, if any.
    """
    n = len(hist)
    if n < 1:
        raise ValueError("history sums start at step 1")
    times, weights, rows = hist.grid.times, hist.grid.weights, k or 1
    xs = hist.vectors(which)
    if len(xs) < n:
        raise ValueError(f"history sum of {which!r} at step {n} needs {n} "
                         f"stored states, and the buffer holds {len(xs)}")
    # eval on a (rows, 1) column of the block's times against a (1, cols)
    # row of past ones, at most 4096 pairs a call; a factor in t alone is
    # computed once a row
    t, cols = times[n:n + rows, None], max(1, 4096 // rows)
    direct = np.zeros((rows, xs.shape[1]))
    for j in range(0, n, cols):
        s = times[j:min(j + cols, n)]
        kv = np.broadcast_to(np.asarray(kernel.eval(t, s[None]), dtype=float),
                             (rows, len(s)))
        direct += (weights[j:j + len(s)] * kv) @ xs[j:j + len(s)]
    return direct.T if k else direct[0]


def step_gammas(sys: BlockSaddleSystem, grid: TimeGrid, n: int):
    """Left-hand block scalings for step n, enforcing the stability gate.

    A non-finite ``k(t_n, t_n)`` raises :class:`SaddleSolverError`; with
    a finite one the gate keeps every scaling in (0, 2)."""
    w_nn = 0.0 if n == 0 else 0.5 * grid.dt
    gammas = []
    for kernel in sys.kernels:
        if kernel is None or kernel.is_exp:
            # absent: zero; exponential: c exp(-rate 0), which is c exactly
            k_nn = 0.0 if kernel is None else kernel.c
        else:
            k_nn = float(kernel.eval(grid.times[n], grid.times[n]))
        if not math.isfinite(k_nn):
            raise SaddleSolverError(f"kernel diagonal k(t_n, t_n) = {k_nn} "
                                    f"at step {n} (t_n = {grid.times[n]:g})")
        if abs(w_nn * k_nn) >= 1.0:
            bound = kernel.bound if kernel.bound > 0 else abs(k_nn)
            raise StabilityGateError(
                f"dt too large for kernel: |w_nn k(t_n,t_n)| = "
                f"{abs(w_nn * k_nn):.4g} >= 1 at step {n}; "
                f"choose dt < {2.0 / bound:.4g} (2/C_k)")
        gammas.append(1.0 - w_nn * k_nn)
    return tuple(gammas)


def _gammas(sys: BlockSaddleSystem, grid: TimeGrid, n: int, k: int):
    """``[g1, g2, g3]`` of the k nodes from n: the scalar of every node
    after node 0 for an absent or exponential kernel, the k nodes' array
    for a general one.  The gate is checked at node n, at node 1 in a block
    holding node 0 and at every node of a general kernel, as by
    :func:`step_gammas`, which raises at the first node that fails."""
    gammas = step_gammas(sys, grid, n)
    if n == 0 and k > 1:
        gammas = step_gammas(sys, grid, 1)      # nodes 1, ..., k - 1
    gammas, bad = list(gammas), k
    for i, kernel in enumerate(sys.kernels):
        if kernel is not None and not kernel.is_exp:    # k(t, t) varies
            t = grid.times[n:n + k]
            diag = np.asarray(kernel.eval(t, t), dtype=float)
            wk = np.where(np.arange(n, n + k) > 0, 0.5 * grid.dt * diag, 0.0)
            fails = np.flatnonzero(~np.isfinite(diag) | (np.abs(wk) >= 1.0))
            bad = min([bad, *fails[:1]])
            gammas[i] = 1.0 - wk
    if bad < k:
        step_gammas(sys, grid, n + int(bad))
    return gammas


def step(sys: BlockSaddleSystem, hist: HistoryBuffer, f, g,
         states: bool = True):
    """Advance the k nodes ``n = len(hist), ...`` loaded by the block
    loads ``f`` (row 1, ``n_v`` rows) and ``g`` (row 2, ``n_q`` rows):
    each a dense ``(rows, k)`` array or a pair ``(V, C)`` (see the module
    docstring).  Returns ``(u, p, basis)``: one column per node, and
    ``basis`` ``(C, Y)``, the block's ``(k, r)`` coefficients on the rows
    ``Y = hist.y`` with ``[u; p] = (C Y)^T``, or None when a dense part
    entered the solve or ``k1`` or ``k2`` is attached.  Without
    ``states``, a block solved on the basis forms no states, u = p =
    None, when its history reads none (not ``hist.reads_states``).

    A pair's ``V`` is known by identity and solved once per run, by
    :meth:`SaddleFactorization.checked_solve`, only when it owns its data
    and is read-only, as it must stay for the run; any other pair, or one
    past the run's first ``_LOAD_VECTORS`` solved vectors, loads as ``V C``.

    The gate is checked before the solve (see :func:`_gammas`).  With
    ``L_ib`` slot i's ``(k, k)`` block of ``L_i`` and ``H_i`` its history
    from before the block, row 2 gives ``Q = (G + H3) L3b^{-T}``, one
    solve ``K [U'; P'] = [F; Q L1b^T - B H1]`` and ``U = (U' + H1)
    L1b^{-T}``, ``P = (P' + H2) L2b^{-T}`` (see :func:`_in_time`).  These
    act on the time axis alone, so they step a pair's coefficients and
    the dense part apart.  ``[U'; P']`` is ``Y^T C`` on the solutions ``Y``
    of the pairs' vectors plus, when the block has a dense part (dense
    loads, ``k1``'s history or a dense ``q``), one checked multi-column LU
    solve of that part alone.
    """
    grid, n = hist.grid, len(hist)
    k = (f[1] if isinstance(f, tuple) else f).shape[1]
    gammas = _gammas(sys, grid, n, k)
    (fd, fc), (gd, gc) = _load_parts(sys, hist, f, g, k)
    qc, qd = _in_time(sys, hist, 2, n, k, gammas[2], gc, gd)
    h1 = None
    if sys.k1 is not None:      # row 2 of the solve: Q L1^T - B H1
        l1t = (np.diag(np.where(np.arange(n, n + k) > 0, gammas[0], 1.0))
               - _in_block(sys.k1, grid, n, k)).T
        qc, qd = qc @ l1t, None if qd is None else qd @ l1t
        if n >= 1 and sys.k1.is_exp:
            decay, h = hist._recur[(sys.k1, "u")]
            qd = _plus(qd, np.outer(sys.b @ -h, decay ** np.arange(k)))
        elif n >= 1:
            h1 = history_sum(hist, sys.k1, "u", k)
            qd = _plus(qd, sys.b @ -h1)
    c = fc + qc
    if not np.isfinite(c).all():
        raise SaddleSolverError("non-finite load coefficients")
    dense = fd is not None or qd is not None
    if not (dense or states or hist.reads_states):
        hist.append(None, None, k)
        return None, None, (c.T, hist.y)
    x, basis = np.dot(hist.y.T, c), None if dense else (c.T, hist.y)
    if dense:                   # one checked solve of the dense part alone
        x += np.concatenate(sys.saddle.checked_solve(
            np.zeros((sys.n_v, k)) if fd is None else fd,
            np.zeros((sys.n_q, k)) if qd is None else qd))
    u, p = x[:sys.n_v], x[sys.n_v:]
    if sys.k1 is not None or sys.k2 is not None:
        u = _in_time(sys, hist, 0, n, k, gammas[0], None, u, h1)[1]
        p = _in_time(sys, hist, 1, n, k, gammas[1], None, p)[1]
        basis = None                # u and p have their own coefficients
    hist.append(u, p)
    return u, p, basis


def _in_block(kernel: MemoryKernel, grid: TimeGrid, n: int, k: int):
    """``w_j k(t_i, t_j)`` of the k nodes from n below the diagonal, else 0."""
    t = grid.times[n:n + k, None]           # s = min(t_i, t_j) keeps s <= t
    kv = np.broadcast_to(np.asarray(kernel.eval(t, np.minimum(t, t.T)),
                                    dtype=float), (k, k))
    return np.tril(kv * grid.weights[n:n + k], -1)


def _in_time(sys, hist, slot, n, k, g, xc, xd, before=None):
    """``(xc, xd)`` of ``X = (X' + H) L^{-T}`` for slot 0, 1 or 2 (``u``,
    ``p``, ``q``) at the k nodes from n, from those of ``X'``: its
    coefficients on ``hist.y`` (``q``'s alone, else None) and dense part;
    the history gains ``X``.  An exponential kernel takes the affine map
    ``X = X' M + h v``, ``h <- X' d + e h`` (:func:`_exp_map`); a
    general one adds ``H`` (``before``, if given) and solves ``L``, each
    row divided by its ``g_i``, as a block of one is ``x / g`` bit for bit."""
    kernel, which = sys.kernels[slot], "upq"[slot]
    if kernel is None:
        return xc, xd
    if kernel.is_exp:
        decay, h = hist._recur[(kernel, which)]
        key = (which, n == 0, k)
        if key not in hist._maps:
            hist._maps[key] = _exp_map(kernel.c, decay, hist.grid.dt, g,
                                       *key[1:])
        m, v, d, e = hist._maps[key]
        if xc is not None:
            xc, hist._q = xc @ m + hist._q[:, None] * v, hist._q * e + xc @ d
        out = _plus(None if xd is None else xd @ m,
                    h[:, None] * v if h.any() else None)
        h *= e
        if xd is not None:
            h += xd @ d
        return xc, out
    x = xd
    if which == "q":            # on q's rows: coefficients, then dense part
        rows, r = hist._stored["q"], len(xc)
        if xd is not None and rows.shape[1] == r:       # the first dense part
            rows = hist._stored["q"] = np.pad(rows, ((0, 0), (0, sys.n_q)))
        x = np.concatenate((xc, np.zeros((rows.shape[1] - r, k))
                            if xd is None else xd))
    if n >= 1:                  # the history before the block
        x += history_sum(hist, kernel, which, k) if before is None else before
    low = _in_block(kernel, hist.grid, n, k) / g[:, None]
    x = solve_triangular(-low, (x / g).T, lower=True, unit_diagonal=True,
                         check_finite=False)
    if which != "q":
        return None, x.T
    rows[n:n + k] = x
    return x[:, :r].T, x[:, r:].T if x.shape[1] > r else None


def _plus(x, y):
    """``x + y``, where None is zero."""
    return x if y is None else y if x is None else x + y


def dense_load(load) -> np.ndarray:
    """The ``(rows, k)`` array of a block load: ``V @ C`` of a pair."""
    return load[0] @ load[1] if isinstance(load, tuple) else load


# the load vectors a run solves once; see step
_LOAD_VECTORS = 16


def _load_parts(sys, hist, f, g, k):
    """``(D, C)`` of each block load ``f``, ``g`` of k nodes: its dense
    part, or None, and its ``(r, k)`` coefficients on the rows of
    ``hist.y``.  A pair's ``V`` that :func:`step` keeps is solved when
    first seen, by one checked LU solve of its columns."""
    n_v, loads = sys.n_v, []
    for row, load in enumerate((f, g)):
        if isinstance(load, tuple) and (row, id(load[0])) not in hist._loads:
            v, r = load[0], len(hist.y)
            if not v.shape[1] or v.flags.writeable or not v.flags.owndata \
                    or r + v.shape[1] > _LOAD_VECTORS:
                load = dense_load(load) if v.shape[1] else None
            else:
                rhs = np.zeros((n_v + sys.n_q, v.shape[1]))
                rhs[slice(n_v, None) if row else slice(n_v)] = v
                y = sys.saddle.checked_solve(rhs[:n_v], rhs[n_v:])
                hist.y = np.vstack((hist.y, np.concatenate(y).T))
                hist._q = np.append(hist._q, np.zeros(v.shape[1]))
                if "q" in hist._stored:     # zero columns before the dense
                    hist._stored["q"] = np.insert(
                        hist._stored["q"], [r] * v.shape[1], 0.0, axis=1)
                # V is kept, so its id is not reused while the run holds it
                hist._loads[(row, id(v))] = (v, slice(r, len(hist.y)))
        loads.append(load)
    parts = []
    for row, load in enumerate(loads):
        c = np.zeros((len(hist.y), k))
        if isinstance(load, tuple):
            c[hist._loads[(row, id(load[0]))][1]] = load[1]
        parts.append((None if isinstance(load, tuple) else load, c))
    return parts


def _exp_map(c, decay, dt, g, first, k):
    """``(M, v, d, e)`` of one family over k nodes under the kernel ``c
    e^{-rate t}``, from the scalar trapezoid recurrence run once on k + 1
    unit inputs: the k loads, then the history.  Node 0 (``first``) has
    weight dt/2 and scaling 1, every other node ``g``."""
    q = np.eye(k + 1, k)                # one row per unit input
    h = np.eye(k + 1)[k]
    for i in range(k):
        w, s = (0.5 * dt, 1.0) if first and i == 0 else (dt, g)
        q[:, i] = (q[:, i] + h) / s
        h = (h + w * c * q[:, i]) * decay
    return q[:k], q[k], h[:k], h[k]


def _join(loads):
    """One block load of node loads: a pair if all are pairs on one V."""
    if all(isinstance(x, tuple) and x[0] is loads[0][0] for x in loads):
        return loads[0][0], np.hstack([x[1] for x in loads])
    return np.hstack([dense_load(x) for x in loads])


class VolterraStepper:
    """Single-owner driver object for stepping a system through a grid.

    The history it keeps is what the system's kernels read (see
    :class:`HistoryBuffer`).  ``width`` nodes share a solve (see the
    module docstring).  ``states=False`` promises an observer that reads
    only each block's ``basis`` where it has one (see :func:`step`).
    """

    def __init__(self, sys: BlockSaddleSystem, grid: TimeGrid,
                 states: bool = True):
        self.sys = sys
        self.grid = grid
        self.hist = HistoryBuffer(sys, grid)
        self.states = states
        free = not (states or self.hist.reads_states)
        self.width = 64 if free else max(1, min(64, 65536 // (sys.n_v + sys.n_q)))

    @property
    def n_done(self) -> int:
        return len(self.hist)

    def run(self, f_of_t: Callable, g_of_t: Callable,
            on_step: Optional[Callable] = None):
        """Step through the whole grid, ``width`` nodes per :func:`step`.

        ``f_of_t(times)`` and ``g_of_t(times)`` are asked once per block,
        in node order, for the block loads of its nodes (dense ``(n_v,
        k)`` and ``(n_q, k)`` arrays or pairs, see :func:`step`); under a
        general ``k3``, once all of its nodes pass the gate, node by node
        (``benchmark/test_benchmark.py`` pins a probe of the benchmark's
        meter, taken at each load, per node of such a run), and a node's
        pairs on one ``V`` make one pair.  ``on_step(n, times, u, p,
        basis)`` gets each block once it is solved: its nodes ``times``
        from node ``n`` on, states of the same shapes that no later block
        writes, and the block's ``basis`` from :func:`step`; without
        ``states``, ``u`` and ``p`` are None on a block with a ``basis``.
        Without ``k1`` and ``k2``, pairs alone give every block a basis.
        """
        times, k3 = self.grid.times, self.sys.k3
        general = k3 is not None and not k3.is_exp
        for start in range(0, len(times), self.width):
            block = times[start:start + self.width]
            if general:         # the block's gate, then its loads node by node
                _gammas(self.sys, self.grid, start, len(block))
                f, g = map(_join, zip(*[(f_of_t(t), g_of_t(t))
                                        for t in block[:, None]]))
            else:
                f, g = f_of_t(block), g_of_t(block)
            u, p, basis = step(self.sys, self.hist, f, g, self.states)
            if on_step is not None:
                on_step(start, block, u, p, basis)
            del u, p, basis             # not alive through the next solve
        return self


def audit(sys: BlockSaddleSystem, grid: TimeGrid, f_of_t: Callable,
          g_of_t: Callable):
    """Step ``sys`` under the block loads ``f_of_t``, ``g_of_t`` as every
    run does, and in lockstep the same system with each kernel in direct
    form (a general kernel of the same ``eval``), node by node on the
    same loads made dense, one solve each on the same LU.  Returns
    ``(steps, deviation)``: ``grid.n_steps``, or 0 when no kernel is
    exponential, and the larger over ``u`` and ``p`` of ``max_n |x_n -
    x'_n|_inf / max_n |x'_n|_inf`` against the direct-form states ``x'``."""
    sys.saddle                      # factored once: the copy shares it,
    direct = copy.copy(sys)         # as the kernels do not enter it
    direct.k1, direct.k2, direct.k3 = (
        None if k is None else MemoryKernel.from_callable(k.eval, k.bound)
        for k in sys.kernels)
    hist = HistoryBuffer(direct, grid)
    worst = np.zeros((2, 2))        # rows u, p: max |x - x'|, max |x'|

    def compare(n, times, u, p, basis):
        f, g = dense_load(f_of_t(times)), dense_load(g_of_t(times))
        for j in range(len(times)):
            pairs = zip((u[:, j:j + 1], p[:, j:j + 1]),
                        step(direct, hist, f[:, j:j + 1], g[:, j:j + 1])[:2])
            np.maximum(worst, [(abs(x - ref).max(), abs(ref).max())
                               for x, ref in pairs], out=worst)

    VolterraStepper(sys, grid).run(f_of_t, g_of_t, on_step=compare)
    exp = any(k is not None and k.is_exp for k in sys.kernels)
    return (grid.n_steps if exp else 0,
            float(np.max(worst[:, 0] / np.maximum(worst[:, 1], 1e-300))))


# ---------------------------------------------------------------------------
# Closed-form stability and error constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityConstants:
    """Data-dependence constants of the continuous well-posedness bound.

    The bound reads ``||u||_{L1(V)} + ||p||_{L1(Q)} <=
    (C1 + C3) ||f||_{L1(V')} + (C2 + C4) ||g||_{L1(Q')}``.
    """

    c1: float
    c2: float
    c3: float
    c4: float


def _check_constant_inputs(alpha0, beta, norm_a, cks, T):
    if not alpha0 > 0.0:
        raise ValueError(f"alpha0 must be positive, got {alpha0!r}")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta!r}")
    if norm_a < 0.0 or any(c < 0.0 for c in cks):
        raise ValueError("operator norm and kernel bounds must be nonnegative")
    if not T > 0.0:
        raise ValueError(f"T must be positive, got {T!r}")


def stability_constants(alpha0: float, beta: float, norm_a: float,
                        c_k1: float, c_k2: float, c_k3: float,
                        c_ktilde: float, T: float) -> StabilityConstants:
    """Evaluate the four stability constants exactly as printed.

    With ``D = (||a||/alpha0) C_ktilde + C_k3``:

        C1 = (1/alpha0) [1 + T D e^{T D}]
        C2 = (1/beta) [1 + ||a||/alpha0] [1 + T D e^{T D}]
        C3 = 1 + C_k2 e^{T C_k2} + C1 ||a|| [1 + C_k1
                                             + C_k2 e^{T C_k2}(1 + T C_k1)]
        C4 = C2 ||a|| [1 + C_k1 + C_k2 e^{T C_k2}(1 + T C_k1)]
    """
    _check_constant_inputs(alpha0, beta, norm_a, (c_k1, c_k2, c_k3, c_ktilde), T)
    d = (norm_a / alpha0) * c_ktilde + c_k3
    try:
        growth = 1.0 + T * d * math.exp(T * d)
        creep = c_k2 * math.exp(T * c_k2)
    except OverflowError:
        growth = creep = math.inf
    bracket = 1.0 + c_k1 + creep * (1.0 + T * c_k1)
    c1 = growth / alpha0
    c2 = (1.0 / beta) * (1.0 + norm_a / alpha0) * growth
    c3 = 1.0 + creep + c1 * norm_a * bracket
    c4 = c2 * norm_a * bracket
    if not all(map(math.isfinite, (c1, c2, c3, c4))):
        raise EstimatorError(
            f"the stability bound overflows at this horizon: T*D = {T * d:.4g}, "
            f"T*C_k2 = {T * c_k2:.4g} at T = {T:g} (e^x overflows above 709.78)")
    return StabilityConstants(c1=c1, c2=c2, c3=c3, c4=c4)


@dataclass(frozen=True)
class ErrorConstants:
    """Constants of the semi-discrete quasi-optimality estimate.

    The estimate reads ``||e_u|| + ||e_p|| <= (C1u + C2u) inf ||u - v||
    + (C1p + C2p) inf ||p - q||`` in L1-in-time norms.
    """

    c1s: float
    c2s: float
    c3s: float
    c4s: float
    c1u: float
    c1p: float
    c2u: float
    c2p: float


def error_constants(alpha0_star: float, beta_star: float, norm_a: float,
                    norm_b: float, c_k1: float, c_k2: float, c_k3: float,
                    c_ktilde: float, T: float) -> ErrorConstants:
    """Starred constants and the derived error-estimate coefficients.

    The starred block mirrors the stability constants with the discrete
    ellipticity and inf-sup constants; then, with
    ``m = 1 + T max(C_k1, C_k2)``:

        C1u = C1* m ||a|| + C2* ||b|| (1 + C_k3) + 1
        C1p = C1* m ||b||
        C2u = C3* m ||a|| + C4* ||b|| (1 + C_k3)
        C2p = C3* m ||b|| + 1
    """
    _check_constant_inputs(alpha0_star, beta_star, norm_a,
                           (norm_b, c_k1, c_k2, c_k3, c_ktilde), T)
    base = stability_constants(alpha0_star, beta_star, norm_a,
                               c_k1, c_k2, c_k3, c_ktilde, T)
    c1s, c2s, c3s, c4s = base.c1, base.c2, base.c3, base.c4
    m = 1.0 + T * max(c_k1, c_k2)
    c1u = c1s * m * norm_a + c2s * norm_b * (1.0 + c_k3) + 1.0
    c1p = c1s * m * norm_b
    c2u = c3s * m * norm_a + c4s * norm_b * (1.0 + c_k3)
    c2p = c3s * m * norm_b + 1.0
    return ErrorConstants(c1s=c1s, c2s=c2s, c3s=c3s, c4s=c4s, c1u=c1u,
                          c1p=c1p, c2u=c2u, c2p=c2p)
