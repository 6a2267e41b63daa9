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
unscaled ``K = [[A, B^T], [B, 0]]``, and :func:`step` applies them around
its solves.  A load block is a dense ``(n, k)`` array or a pair ``(V,
C)`` of vectors ``V`` ``(n, r)`` and coefficients ``C`` ``(r, k)``, the
load ``V C``.  A run solves ``Y = K^{-1} V`` once per read-only ``V``
and steps the coefficients alone: both drivers load row 2 with one
vector times a scalar, so a run makes one LU solve.  The history kept
is what the attached kernels read: an exponential kernel gets an O(1)
recurrence, a general kernel one product of its weighted values with
the stored ``(N+1, n)`` states of the family it reads.  :func:`audit`
checks a run against the same kernels in that direct form.

Row 2 alone reads ``g3_n q_n - sum_{j<n} w_{n,j} k3(t_n,t_j) q_j = g_n``.
Without ``k1`` and ``k2`` (``HistoryBuffer.blocked``), every ``(f_n,
q_n)`` is known before any solve: the stepper solves blocks of ``max(1,
min(64, 65536 // (n_v + n_q)))`` nodes after row 2, which under a
general ``k3`` is one product with the states before the block and one
triangular solve inside it (Hairer, Lubich & Schlichte, SIAM J. Sci.
Stat. Comput. 6, 1985).  That bound, 512 KiB of right-hand side, keeps
a block's states about cache-sized; wider blocks saved at most a few
percent, or lost, and cost memory.  Every other system solves one node
at a time.

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
        n_state = next(iter(norms.values()))[0].shape[1]
        self._take = np.concatenate(take)
        if np.array_equal(self._take, np.arange(n_state)):
            self._take = None                   # every dof once, in order
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
    def add(self, n: int, u: np.ndarray, p: np.ndarray, basis=None) -> None:
        """Add nodes ``n, n + 1, ...``: the vectors of one node, or
        ``(n_v, k)`` and ``(n_q, k)`` arrays, one column per node.  A node
        adds the same bits whatever block it comes in.  A block given the
        ``basis`` ``(C, Y)`` of its solve (see :func:`step`) is measured
        from ``C``; rows of ``Y`` seen before must not have changed."""
        u, p = u.T.reshape(-1, len(u)), p.T.reshape(-1, len(p))
        k = len(u)                  # one row per node from here on
        if len(p) != k:
            raise ValueError(f"u holds {k} nodes and p {len(p)}")
        if n != self._count:        # nodes come in order, from 0
            raise ValueError(f"expected node {self._count}, got {n}")
        if n + k > len(self._weights):
            raise ValueError(f"nodes {n}..{n + k - 1} run past the last "
                             f"node {len(self._weights) - 1} of the grid")
        c = self._scale[n:n + k, None]
        if basis is None:
            z = np.concatenate((u, p), axis=1)
            if self._take is not None:
                z = z[:, self._take]
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
        y = y if self._take is None else y[self._take]
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
    ``q = B u``.  The attached kernels fix what is kept:

    * an exponential kernel gets a recurrence per (kernel, family),
      updated in place, that holds the history sum of node ``len(self)``
      (see :func:`history_sum`): :meth:`append` advances those of ``u``
      and ``p`` by one node, and :func:`step` that of ``q`` by a block;
    * ``u`` or ``p`` is stored, as the rows of an ``(n_steps + 1, n)``
      array, only when a general kernel reads it, where ``q`` counts as
      ``u``.  That costs ``(n_steps + 1) * n * 8`` bytes, with
      ``n = n_v`` for ``u`` and ``n = n_q`` for ``p``;
    * a family that no general kernel reads is never stored.

    The rows of ``y`` are ``K^{-1}`` of the columns of each ``V`` that
    the run solved (see :func:`step`), on its block row of ``K``, and are
    only added; an exponential ``k3`` keeps its history of ``q`` on them.

    ``blocked``: several nodes may share a solve (see the module docstring).
    """

    def __init__(self, sys: BlockSaddleSystem, grid: TimeGrid):
        self.grid = grid
        self.b = sys.b
        self.blocked = sys.k1 is None and sys.k2 is None
        reads = [(kernel, which) for kernel, which
                 in zip(sys.kernels, ("u", "p", "q")) if kernel is not None]
        size = {"u": sys.n_v, "p": sys.n_q, "q": sys.n_q}
        # (exp(-rate dt), recurrence) for each distinct (kernel, family)
        self._recur = {key: (math.exp(-key[0].rate * grid.dt),
                             np.zeros(size[key[1]]))
                       for key in reads if key[0].is_exp}
        # family -> (n_steps + 1, n) rows; the direct sum of q reads u
        self._stored = {_ROWS[which]: np.empty((grid.n_steps + 1,
                                                size[_ROWS[which]]))
                        for kernel, which in reads if not kernel.is_exp}
        self._maps = {}         # (block starts at node 0, k) -> row 2's map
        self._count = 0         # solved states appended
        self._loads = {}        # (block row, id(V)) -> (V, its rows of y)
        self.y = np.empty((0, sys.n_v + sys.n_q))   # K^{-1} [V; 0] or [0; V]
        self._q = np.zeros(0)   # k3's history of q on the rows of y

    def __len__(self) -> int:
        return self._count

    @property
    def store_full(self) -> bool:
        """Whether the states of any family are stored."""
        return bool(self._stored)

    def append(self, u: np.ndarray, p: np.ndarray) -> None:
        """Add solved states from node ``len(self)`` on: the vectors of
        one node, or ``(n, k)`` arrays with one column per node."""
        n = self._count
        k = 1 if u.ndim == 1 else u.shape[1]
        for which, x in (("u", u), ("p", p)):
            rows = self._stored.get(which)
            if rows is not None:
                rows[n:n + k] = x.T
        # k1 and k2 step one node at a time: node n's trapezoid weight
        w = self.grid.dt if n else 0.5 * self.grid.dt
        for (kernel, which), (decay, acc) in self._recur.items():
            if which != "q":
                x = u if which == "u" else p
                acc += w * kernel.c * x.reshape(acc.shape)
                acc *= decay
        self._count += k

    def vectors(self, which: str) -> np.ndarray:
        """The stored states of one family, one filled row per append;
        empty for a family that is not stored."""
        rows = self._stored.get(which)
        return np.empty((0, 0)) if rows is None else rows[:self._count]


# the stored family a direct history sum of each family reads
_ROWS = {"u": "u", "p": "p", "q": "u"}


def history_sum(hist: HistoryBuffer, kernel: MemoryKernel, which: str,
                k: Optional[int] = None) -> np.ndarray:
    """Weighted history sum ``sum_{j<n} w_{n,j} k(t_n, t_j) x_j`` of one
    family at the next node, ``n = len(hist)``; given ``k``, its part
    over j < n at each of the k nodes from n, one column a node.

    Taken from the buffer's recurrence for ``(kernel, which)`` when it
    holds one and ``k`` is not given, and otherwise as one product of the
    weighted ``(k, n)`` kernel block with the stored states (for ``q``,
    ``B`` times that of the stored ``u``).
    """
    n = len(hist)
    if n < 1:
        raise ValueError("history sums start at step 1")
    recur = hist._recur.get((kernel, which))
    if recur is not None and k is None:
        # a copy: the next append updates the recurrence in place
        if which == "q":        # and that of row 2's solved V
            return recur[1] + sum(v @ hist._q[rows] for (row, _), (v, rows)
                                  in hist._loads.items() if row)
        return recur[1].copy()
    times, weights, rows = hist.grid.times, hist.grid.weights, k or 1
    xs = hist.vectors(_ROWS[which])
    if len(xs) < n:
        raise ValueError(f"history sum of {which!r} at step {n} needs {n} "
                         f"stored states, and the buffer holds {len(xs)}")
    # eval on equal-length 1-D arrays of at most 4096 values
    cols, direct = max(1, 4096 // rows), np.zeros((rows, xs.shape[1]))
    for j in range(0, n, cols):
        s = times[j:min(j + cols, n)]
        kv = kernel.eval(np.repeat(times[n:n + rows], len(s)), np.tile(s, rows))
        direct += (weights[j:j + len(s)] * np.reshape(
            np.asarray(kv, dtype=float), (rows, len(s)))) @ xs[j:j + len(s)]
    direct = hist.b @ direct.T if which == "q" else direct.T
    return direct if k else direct[:, 0]


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


def _k3_gammas(sys: BlockSaddleSystem, grid: TimeGrid, n: int, k: int):
    """``g3`` of a general ``k3`` at the k nodes from n; the first node
    that fails the gate raises as in :func:`step_gammas`."""
    t = grid.times[n:n + k]
    diag = np.asarray(sys.k3.eval(t, t), dtype=float)
    wk = np.where(np.arange(n, n + k) > 0, 0.5 * grid.dt * diag, 0.0)
    bad = np.flatnonzero(~np.isfinite(diag) | (np.abs(wk) >= 1.0))
    if bad.size:
        step_gammas(sys, grid, n + int(bad[0]))
    return 1.0 - wk


def step(sys: BlockSaddleSystem, hist: HistoryBuffer, f, g):
    """Advance the k nodes ``n = len(hist), ...`` loaded by the block
    loads ``f`` (row 1, ``n_v`` rows) and ``g`` (row 2, ``n_q`` rows):
    each a dense ``(rows, k)`` array or a pair ``(V, C)`` (see the module
    docstring); more than one node needs ``hist.blocked``.  Returns ``(u,
    p, basis)``: one column per node, and ``basis`` ``(C, Y)``, the
    block's ``(k, r)`` coefficients on the rows ``Y = hist.y`` with
    ``[u; p] = (C Y)^T``, or None when a dense part entered the solve.

    A pair's ``V`` is known by identity and solved once per run, by
    :meth:`SaddleFactorization.checked_solve`, only when it owns its data
    and is read-only, as it must stay for the run; any other pair, or one
    past the run's first ``_LOAD_VECTORS`` solved vectors, loads as ``V C``.

    The stability gate is checked before the solve: at node n and, in a
    block holding node 0, at node 1, whose scalings every later node
    shares, or under a general ``k3`` at every node.  Row 2 then gives
    ``q = B u`` of every node: under an exponential ``k3`` as one affine
    map of the loads ``G`` and the history ``H``, ``Q = G M + H v`` and
    ``H <- G d + e H``; under a general one by a triangular solve, with
    ``g3_i`` and ``-w_ij k3(t_i, t_j)``, of the loads plus the history
    before the block.  Both act on the time axis alone, so they step a
    pair's coefficients and the dense part apart.  The scalings are
    scalars, so

        [[g1 A, g2 B^T], [g3 B, 0]] = diag(g1 I, g3 I) K diag(I, (g2/g1) I)

    with ``K = [[A, B^T], [B, 0]]``: ``g3`` is folded into ``q``, and the
    columns ``(f_n / g1, q_n)`` give ``u`` and ``(g2 / g1) p``: from the
    solutions ``Y`` of the pairs' vectors, solved once per run, or, when
    the block has a dense part (dense loads, the ``k1`` and ``k2``
    history sums, a general ``k3``'s history before the block), by one
    multi-column LU solve of the whole right-hand side.  Every block
    scaling is applied here.
    """
    grid, n = hist.grid, len(hist)
    k = (f[1] if isinstance(f, tuple) else f).shape[1]
    if k > 1 and not hist.blocked:
        raise ValueError("a block of several nodes needs k1 and k2 absent")
    general = sys.k3 is not None and not sys.k3.is_exp
    g1, g2, g3 = step_gammas(sys, grid, n)
    if general:
        g3 = _k3_gammas(sys, grid, n, k)        # k3(t, t) varies with t
    elif n == 0 and k > 1:
        g3 = step_gammas(sys, grid, 1)[2]       # that of nodes 1, ..., k - 1
    (fd, fc), (gd, gc) = _load_parts(sys, hist, f, g, k)
    if n >= 1:                  # one node, unless the system is blocked
        if sys.k1 is not None:
            fd = _plus(fd, sys.a @ history_sum(hist, sys.k1, "u")[:, None])
        if sys.k2 is not None:
            fd = _plus(fd, sys.b.T @ history_sum(hist, sys.k2, "p")[:, None])
        if general:             # the history before the block, from B u
            gd = _plus(gd, history_sum(hist, sys.k3, "q", k))
    if general:                 # rows over g3: a block of one is g / g3
        t = grid.times[n:n + k]
        kv = np.reshape(sys.k3.eval(np.repeat(t, k), np.tile(t, k)), (k, k))
        low = np.tril(kv * grid.weights[n:n + k], -1) / g3[:, None]

        def row2(x):
            return x if x is None else solve_triangular(
                -low, (x / g3).T, lower=True, unit_diagonal=True,
                check_finite=False).T
        qd, qc = row2(gd), row2(gc) if len(gc) else gc
    elif sys.k3 is not None:
        decay, h = hist._recur[(sys.k3, "q")]
        key = (n == 0, k)
        if key not in hist._maps:
            hist._maps[key] = _constraint_map(sys.k3.c, decay, grid.dt, g3, *key)
        m, v, d, e = hist._maps[key]
        qc = gc @ m + hist._q[:, None] * v
        hist._q = hist._q * e + gc @ d
        qd = _plus(None if gd is None else gd @ m,
                   h[:, None] * v if h.any() else None)
        h *= e
        if gd is not None:
            h += gd @ d
    else:
        qd, qc = (None if gd is None else gd / g3), gc / g3
    # g1 and g2 are those of every node of the block
    c = fc / g1 + qc if g1 != 1.0 else fc + qc
    if fd is None and qd is None:
        if not np.isfinite(c).all():
            raise SaddleSolverError("non-finite load coefficients")
        x, basis = np.dot(hist.y.T, c), (c.T, hist.y)
    else:                       # one solve of the whole right-hand side
        x = np.zeros((sys.n_v + sys.n_q, k))
        for (row, _), (v, rows) in hist._loads.items():
            x[slice(sys.n_v, None) if row else slice(sys.n_v)] += v @ c[rows]
        if fd is not None:
            x[:sys.n_v] += fd / g1 if g1 != 1.0 else fd
        if qd is not None:
            x[sys.n_v:] += qd
        x, basis = np.concatenate(sys.saddle.solve(x[:sys.n_v],
                                                   x[sys.n_v:])), None
    u, p = x[:sys.n_v], x[sys.n_v:]
    if g1 != g2:
        p *= g1 / g2
        basis = None                # p is no longer that of the basis
    hist.append(u, p)
    return u, p, basis


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


def _constraint_map(c, decay, dt, g3, first, k):
    """``(M, v, d, e)`` of row 2 over k nodes under ``k3 = c e^{-rate t}``,
    from the scalar trapezoid recurrence run once on k + 1 unit inputs:
    the k loads, then the history.  Node 0 (``first``) has weight dt/2."""
    q = np.eye(k + 1, k)                # one row per unit input
    h = np.eye(k + 1)[k]
    for i in range(k):
        w, s = (0.5 * dt, 1.0) if first and i == 0 else (dt, g3)
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
    module docstring): one for a system with ``k1`` or ``k2``, whose sums
    read solved states.
    """

    def __init__(self, sys: BlockSaddleSystem, grid: TimeGrid):
        self.sys = sys
        self.grid = grid
        self.hist = HistoryBuffer(sys, grid)
        self.width = max(1, min(64, 65536 // (sys.n_v + sys.n_q))) \
            if self.hist.blocked else 1

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
        writes, and the block's ``basis`` from :func:`step`.
        """
        times, k3 = self.grid.times, self.sys.k3
        general = self.hist.blocked and k3 is not None and not k3.is_exp
        for start in range(0, len(times), self.width):
            block = times[start:start + self.width]
            if general:         # the block's gate, then its loads node by node
                _k3_gammas(self.sys, self.grid, start, len(block))
                f, g = map(_join, zip(*[(f_of_t(t), g_of_t(t))
                                        for t in block[:, None]]))
            else:
                f, g = f_of_t(block), g_of_t(block)
            u, p, basis = step(self.sys, self.hist, f, g)
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
