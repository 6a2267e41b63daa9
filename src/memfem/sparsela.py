"""Sparse saddle-point factorization and the spectral estimators that feed
stability certificates.

Matrices are stored as scipy CSR/CSC (compressed row storage with sorted,
duplicate-free indices); factorization is direct sparse LU, which is
robust at the desk scales this package targets.  A saddle system is
factored once, by one SuperLU LU of the whole indefinite system, and
reused for every solve; the stepper's solves are checked by their
backward error.  No estimator forms a dense array: the
spectral ones run shift-invert Lanczos on saddle LUs, and the two
operator norms are bounded from above by Sylvester's law of
inertia, read off the pivots of an unpivoted LU (``_definite_lu``), up to
the rounding of that LU.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EstimatorError, SaddleSolverError

__all__ = [
    "SaddleFactorization",
    "factorize_saddle",
    "infsup_estimate",
    "kernel_ellipticity",
    "operator_norm_b",
    "operator_norm_estimate",
]


def as_csr(matrix) -> sp.csr_matrix:
    """Canonical CSR form: sorted, duplicate-free column indices; a CSR
    input is copied, not rewritten, when it is not canonical."""
    out = sp.csr_matrix(matrix)
    if not out.has_canonical_format:
        out = out.copy()
        out.sum_duplicates()            # sorts the indices too
    return out


# the largest normwise backward error, per block row of K, that
# SaddleFactorization.checked_solve returns (see its docstring): about
# 100 times the largest the stepper's solves read in the tests, 8.8e-15
SOLVE_BACKWARD_TOL = 1e-12


class SaddleFactorization:
    """Reusable factorization of ``K = [[A, B^T], [B, 0]]``.

    ``lu`` is an LU of ``K`` that solves for a stacked right-hand side
    (``lu.solve``): the SuperLU object of :func:`factorize_saddle`, which
    also counts its stored entries (``lu.nnz``), or the beam oracle's
    banded LU.  The CSR blocks ``a`` and ``b`` check solves.
    """

    def __init__(self, lu, a, b):
        self._lu = lu
        self._a, self._b = a, b
        self.n_q, self.n_v = b.shape

    @functools.cached_property
    def _check(self):
        """``B^T`` in CSR, and ``norms``: ``[max|u|, max|p|] @ norms`` is
        ``||K|| ||x||`` per block row, with ``||A||``, ``||B^T||`` and
        ``||B||`` in the infinity norm."""
        a, b = self._a, self._b
        return b.T.tocsr(), np.array([[spla.norm(a, np.inf),
                                       spla.norm(b, np.inf)],
                                      [spla.norm(b, 1), 0.0]])

    def solve(self, f: np.ndarray, g: np.ndarray):
        """Solve ``K (u, p) = (f, g)``, for one right-hand side or, with
        ``f`` of shape ``(n_v, k)`` and ``g`` of shape ``(n_q, k)``, for k
        columns at once; a non-finite solution entry raises
        :class:`SaddleSolverError`."""
        sol = self._lu.solve(np.concatenate((f, g), dtype=float))
        if not np.isfinite(sol).all():
            raise SaddleSolverError("saddle solve produced non-finite values")
        return sol[:self.n_v], sol[self.n_v:]

    def checked_solve(self, f: np.ndarray, g: np.ndarray):
        """:meth:`solve`, checked by one product with ``K``.

        Per column and block row F (f or g), the normwise backward error
        (Rigal & Gaches, J. ACM 14, 1967)

            max|(K x - r)_F| / ((||K|| ||x||)_F + max|r_F|),

        with ``(||K|| ||x||)_f = ||A|| max|u| + ||B^T|| max|p|`` and
        ``(||K|| ||x||)_g = ||B|| max|u|`` (infinity norms), must be at
        most ``SOLVE_BACKWARD_TOL``, or :class:`SaddleSolverError` is
        raised.  A zero column is solved exactly.
        """
        u, p = self.solve(f, g)
        (bt, norms), n_v = self._check, self.n_v
        k = 1 if u.ndim == 1 else u.shape[1]
        x = np.concatenate((u, p)).reshape(-1, k)   # a column per solve
        r = np.concatenate((f, g), dtype=float).reshape(-1, k)
        with np.errstate(all="ignore"):     # an overflow fails the check
            res = np.concatenate((self._a @ x[:n_v] + bt @ x[n_v:],
                                  self._b @ x[:n_v])) - r
            # max |.| per column of each block row
            peak_x, peak_r, worst = (np.maximum.reduceat(abs(m), [0, n_v])
                                     for m in (x, r, res))
            eta = worst / (norms.T @ peak_x + peak_r)
        eta[worst == 0.0] = 0.0
        if not eta.max(initial=0.0) <= SOLVE_BACKWARD_TOL:
            raise SaddleSolverError(
                f"saddle solve backward error {eta.max():.3e} exceeds "
                f"{SOLVE_BACKWARD_TOL:g}")
        return u, p


def _rank_detail(b) -> str:
    """Why a saddle system failed to factor, when B has an exactly zero row."""
    row_norms = np.asarray(abs(b).sum(axis=1)).ravel()
    if b.shape[0] and row_norms.min() == 0.0:
        return f"; B is rank deficient (zero row {int(np.argmin(row_norms))})"
    return ""


def factorize_saddle(a, b) -> SaddleFactorization:
    """Factor the block system ``[[A, B^T], [B, 0]]`` by one SuperLU LU.

    Parameters
    ----------
    a : sparse (n_v, n_v), symmetric positive semi-definite
    b : sparse (n_q, n_v), full row rank

    Raises
    ------
    SaddleSolverError
        On structural or numerical singularity; the message reports rank
        deficiency when B has an exactly zero row.
    """
    a = as_csr(a)
    b = as_csr(b)
    n_v = a.shape[0]
    n_q = b.shape[0]
    if a.shape[1] != n_v or b.shape[1] != n_v:
        raise SaddleSolverError(
            f"inconsistent block shapes A{a.shape} B{b.shape}")
    kkt = sp.bmat([[a, b.T], [b, None]], format="csc")
    try:
        lu = spla.splu(kkt)
    except RuntimeError as exc:
        raise SaddleSolverError(
            f"saddle factorization failed{_rank_detail(b)}: {exc}") from exc
    return SaddleFactorization(lu, a, b)


def assemble(blocks, index, shape) -> sp.csr_matrix:
    """``sum_T P_T^T blocks[T] P_T``, where ``P_T`` picks the entries
    ``index[T]``."""
    k = index.shape[1]
    return sp.csr_matrix((blocks.ravel(), (np.repeat(index, k, axis=1).ravel(),
                                           np.tile(index, (1, k)).ravel())),
                         shape)


def infsup_estimate(gram_v, gram_q, b) -> float:
    """Discrete inf-sup constant of ``b`` in the norms of the two Grams.

    The smallest singular value of ``Gq^{-1/2} B Gv^{-1/2}``: the square
    root of the smallest eigenvalue of ``(S, Gq)``, ``S = B Gv^{-1} B^T``,
    by shift-invert Lanczos at zero, where ``S^{-1} y`` is minus the
    q-block of ``[[Gv, B^T], [B, 0]]^{-1} (0, y)``.  Rank-deficient B
    returns 0.0; a Lanczos failure raises :class:`EstimatorError`.
    """
    try:
        saddle = factorize_saddle(gram_v, b)
    except SaddleSolverError:
        return 0.0
    n_q, n_v = saddle.n_q, saddle.n_v
    schur_inv = spla.LinearOperator(
        (n_q, n_q), dtype=float,
        matvec=lambda y: -saddle.solve(np.zeros(n_v), y)[1])
    try:
        # shift-invert mode applies only OPinv and M: a zero S gives the shape
        lam = spla.eigsh(sp.csr_matrix((n_q, n_q)), k=1, M=as_csr(gram_q),
                         sigma=0.0, OPinv=schur_inv, v0=np.ones(n_q),
                         return_eigenvectors=False)
    except spla.ArpackError as exc:
        raise EstimatorError(f"inf-sup Lanczos failed: {exc}") from exc
    return math.sqrt(max(float(lam[0]), 0.0))


def _definite_lu(matrix):
    """LU of the symmetric ``matrix`` if it is positive definite, else None.

    Sylvester's law of inertia: an LU without pivoting under a symmetric
    ordering is ``L D L^T`` up to row scaling, so the matrix is definite
    iff the row and column orders agree and every pivot of ``U`` is
    positive.  An exactly zero pivot (``RuntimeError``) is not definite.
    In floating point the answer is that of a matrix within about
    ``n eps ||matrix||`` of the given one, so it decides definiteness only
    up to the rounding of the LU.
    """
    try:
        lu = spla.splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:
        return None
    if np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0):
        return lu
    return None


def operator_norm_b(b, gram_v, gram_q) -> float:
    """Norm of the constraint form, bounded from above by inertia tests.

    ``mu = ||b||^2`` is the largest eigenvalue of ``(S, Gq)``,
    ``S = B Gv^{-1} B^T``, and ``Q(s) = [[Gv, B^T], [B, s Gq]]`` is
    positive definite exactly when ``s > mu``: its Schur complement is
    ``s Gq - S``.  So ``mu`` is bracketed by sparse LUs of ``Q`` alone:

    * the lower end starts at 0 and the first test sits at ``s = 1``; the
      upper end grows from there by doubling steps until ``Q`` is
      definite.  One is the scale of ``mu``: in the V and Q Gram norms
      ``||b||`` is the form's continuity constant (1.0 on RT0 x P0, 1.39
      on the beam), and any other scale costs only doublings or
      bisections within the 200 tests;
    * the inertia test then shrinks the bracket.  Each definite ``Q(s)``
      also runs four steps of inverse iteration with
      ``(s Gq - S)^{-1} Gq``, which raise the lower end to a Rayleigh
      quotient.  The next test sits ten of its last steps above the lower
      end, never past the midpoint: the bracket closes once the quotient
      settles, and is bisected while it does not.

    Returns the square root of the upper end once the bracket is 1e-13
    wide, relative.  That end is an upper bound up to the rounding of the
    inertia test (``_definite_lu``): at fine meshes the gap it must
    resolve, ``(s - mu) lambda_min(Gq)``, falls below ``n eps ||Q||``, so
    the last digits of the bound are only as good as the LU.

    The spectrum clusters at the top (RT0: within 5e-7 of ``mu`` at
    m = 24), where Lanczos alone stalls; nothing dense is formed.  At
    Laplace m = 24, 48 and 64 that takes 8, 8 and 9 tests (0.05, 0.19
    and 0.34 s on a Xeon, one BLAS thread).
    """
    rtol = 1e-13
    b = as_csr(b)
    n_q, n_v = b.shape
    if not np.any(b.data):
        return 0.0
    gram_v, gram_q = as_csr(gram_v), as_csr(gram_q)
    bt = b.T.tocsr()
    fixed = sp.bmat([[gram_v, bt], [b, None]], format="csc")
    q_block = sp.bmat([[sp.csc_matrix((n_v, n_v)), None], [None, gram_q]],
                      format="csc")
    p = np.random.RandomState(1).standard_normal(n_q)
    lo, hi = 0.0, math.inf
    step = trial = 1.0
    for _ in range(200):
        lu = _definite_lu(fixed + trial * q_block)
        if lu is None:
            lo, ahead = trial, math.inf
        else:
            hi = trial
            rho = math.nan
            for _ in range(4):
                sol = lu.solve(np.concatenate([np.zeros(n_v), gram_q @ p]))
                u, p = sol[:n_v], sol[n_v:]
                # u = -Gv^{-1} B^T p, so p^T S p = -(B^T p) . u
                rho_prev, rho = rho, -((bt @ p) @ u) / (p @ (gram_q @ p))
                p /= np.linalg.norm(p)
            lo = max(lo, rho)
            # inverse iteration converges linearly: about ten of its last
            # steps remain to mu unless the contraction is slower than 0.9
            ahead = 10.0 * abs(rho - rho_prev)
        if math.isinf(hi):
            step *= 2.0
            trial = lo + step
        elif hi - lo <= rtol * hi:
            return math.sqrt(hi)
        else:
            trial = lo + min(max(ahead, 0.5 * rtol * hi), 0.5 * (hi - lo))
    raise EstimatorError(
        f"norm of b: no bracket after 200 inertia tests ({lo:.6e}, {hi:.6e});"
        " are the Grams positive definite?")


def kernel_ellipticity(a, b, gram_v) -> float:
    """Smallest generalized eigenvalue of ``a`` restricted to null(B).

    Shift-invert Lanczos on ``(A, Gv)``: the v-block of
    ``[[A - shift Gv, B^T], [B, 0]]^{-1} (y, 0)`` inverts the shifted pencil
    on null(B) and lies in it, so the start vector ``OPinv(Gv 1)`` does too.
    B has full row rank when that LU succeeds, so null(B) has dimension
    ``n_v - n_q``; an empty nullspace yields ``inf``.  Rank-deficient B or a
    Lanczos failure raises :class:`EstimatorError`.
    """
    n_q, n_v = b.shape
    if n_v == n_q:
        return math.inf
    shift = -1e-3   # below the spectrum of a semi-definite a
    gram_v = as_csr(gram_v)
    try:
        saddle = factorize_saddle(as_csr(a) - shift * gram_v, b)
    except SaddleSolverError as exc:
        raise EstimatorError(f"ellipticity estimate: {exc}") from exc
    op_inv = spla.LinearOperator(
        (n_v, n_v), dtype=float,
        matvec=lambda y: saddle.solve(y, np.zeros(n_q))[0])
    try:
        lam = spla.eigsh(a, k=1, M=gram_v, sigma=shift,
                         OPinv=op_inv, v0=op_inv.matvec(gram_v @ np.ones(n_v)),
                         return_eigenvectors=False)
    except spla.ArpackError as exc:
        raise EstimatorError(f"ellipticity Lanczos failed: {exc}") from exc
    return float(lam[0])


# relative tolerance and iteration cap of operator_norm_estimate
NORM_RTOL = 1e-10
NORM_MAX_ITER = 2000


def operator_norm_estimate(a, gram_v) -> float:
    """Operator norm of the bilinear form ``a`` in the Gram norm.

    Largest generalized eigenvalue of ``(A, Gv)`` by power iteration with
    a factored Gram solve.  Its Rayleigh quotients approach from below, so
    once they settle to ``NORM_RTOL`` the iteration also needs
    ``lam (1 + NORM_RTOL) Gv - A`` to be positive definite before it
    returns ``lam``: the returned value is within ``NORM_RTOL`` of an upper
    bound (up to the rounding of that LU).  A settled ``lam`` that fails
    the test is still short of the top; the iteration goes on and tests
    again only once the change per step has fallen tenfold, so slow
    contraction costs power steps, not one LU each.  It gives up after
    ``NORM_MAX_ITER`` steps.
    """
    a = as_csr(a)
    gram = as_csr(gram_v)
    lu = spla.splu(sp.csc_matrix(gram))
    rng = np.random.RandomState(1)
    x = rng.standard_normal(a.shape[0])
    lam_prev = 0.0
    gate = NORM_RTOL
    for _ in range(NORM_MAX_ITER):
        ax = a @ x
        lam = float(abs(x @ ax) / (x @ (gram @ x)))
        y = lu.solve(ax)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        x = y / norm
        change = abs(lam - lam_prev) / max(lam, 1e-300)
        if change <= gate:
            if _definite_lu(lam * (1.0 + NORM_RTOL) * gram - a) is not None:
                return lam
            if change == 0.0:
                break   # fixed short of the top: more steps cannot help
            gate = 0.1 * change
        lam_prev = lam
    raise EstimatorError(
        f"operator norm power iteration stalled at {lam_prev:.6e}"
        " without a certified upper bound")
