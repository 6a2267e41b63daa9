"""Sparse saddle-point factorization and the spectral estimators that feed
stability certificates.

Matrices are stored as scipy CSR/CSC (compressed row storage with sorted,
duplicate-free indices); factorization is direct sparse LU, which is
robust at the desk scales this package targets.  Of the estimators, only
``operator_norm_b`` densifies: an ``n_q x n_q`` Schur complement, O(n_q^3).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EstimatorError, SaddleSolverError

__all__ = [
    "SaddleFactorization",
    "KernelEllipticity",
    "factorize_saddle",
    "infsup_estimate",
    "kernel_ellipticity",
    "operator_norm_b",
    "operator_norm_estimate",
]


def as_csr(matrix) -> sp.csr_matrix:
    """Canonical CSR form: sorted, duplicate-free column indices."""
    out = sp.csr_matrix(matrix)
    out.sum_duplicates()
    out.sort_indices()
    return out


class SaddleFactorization:
    """Reusable LU factorization of ``K = [[A, B^T], [B, 0]]``.

    Scalar block scalings need no factorization of their own:

        [[g1 A, g2 B^T], [g3 B, 0]] = diag(g1 I, g3 I) K diag(I, (g2/g1) I),

    so :meth:`solve` applies them to the right-hand side and to ``p``.
    """

    def __init__(self, lu, n_v: int, n_q: int):
        self._lu = lu
        self.n_v = n_v
        self.n_q = n_q

    def solve(self, f: np.ndarray, g: np.ndarray, gammas=(1.0, 1.0, 1.0)):
        """Solve ``[[g1 A, g2 B^T], [g3 B, 0]] (u, p) = (f, g)``; a zero or
        non-finite gamma or solution raises :class:`SaddleSolverError`."""
        g1, g2, g3 = gammas
        if not (g1 and g2 and g3 and math.isfinite(g1)
                and math.isfinite(g2) and math.isfinite(g3)):
            raise SaddleSolverError(f"block scalings {gammas!r} are singular")
        n_v = self.n_v
        rhs = np.concatenate([np.asarray(f, float), np.asarray(g, float)])
        if g1 != 1.0:
            rhs[:n_v] /= g1
        if g3 != 1.0:
            rhs[n_v:] /= g3
        sol = self._lu.solve(rhs)
        if g1 != g2:
            sol[n_v:] *= g1 / g2
        if not np.all(np.isfinite(sol)):
            raise SaddleSolverError(
                f"saddle solve produced non-finite values (gammas={gammas})")
        return sol[:n_v], sol[n_v:]


def factorize_saddle(a, b) -> SaddleFactorization:
    """Factor the block system ``[[A, B^T], [B, 0]]``.

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
        row_norms = np.asarray(abs(b).sum(axis=1)).ravel()
        detail = ""
        if n_q and row_norms.min() == 0.0:
            dead = int(np.argmin(row_norms))
            detail = f"; B is rank deficient (zero row {dead})"
        raise SaddleSolverError(
            f"saddle factorization failed{detail}: {exc}") from exc
    return SaddleFactorization(lu, n_v, n_q)


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
    gv_lu = spla.splu(sp.csc_matrix(gram_v))
    schur = spla.LinearOperator(
        (n_q, n_q), dtype=float, matvec=lambda x: b @ gv_lu.solve(b.T @ x))
    schur_inv = spla.LinearOperator(
        (n_q, n_q), dtype=float,
        matvec=lambda y: -saddle.solve(np.zeros(n_v), y)[1])
    try:
        lam = spla.eigsh(schur, k=1, M=as_csr(gram_q), sigma=0.0,
                         OPinv=schur_inv, v0=np.ones(n_q),
                         return_eigenvectors=False)
    except spla.ArpackError as exc:
        raise EstimatorError(f"inf-sup Lanczos failed: {exc}") from exc
    return math.sqrt(max(float(lam[0]), 0.0))


def operator_norm_b(b, gram_v, gram_q) -> float:
    """Norm of the constraint form: largest weighted singular value.

    Square root of the largest eigenvalue of the pencil
    (B Gv^{-1} B^T, Gq), evaluated densely (the spectrum clusters at the
    top, which stalls power iteration and Lanczos alike).
    """
    b = as_csr(b)
    s = b @ spla.splu(sp.csc_matrix(gram_v)).solve(b.T.toarray())
    lam = scipy.linalg.eigh(0.5 * (s + s.T), sp.csr_matrix(gram_q).toarray(),
                            eigvals_only=True,
                            subset_by_index=[b.shape[0] - 1] * 2)
    return math.sqrt(max(float(lam[0]), 0.0))


class KernelEllipticity(NamedTuple):
    """Coercivity constant of ``a`` on null(B) plus the nullspace size."""

    alpha: float
    null_dim: int


def kernel_ellipticity(a, b, gram_v) -> KernelEllipticity:
    """Smallest generalized eigenvalue of ``a`` restricted to null(B).

    Shift-invert Lanczos on ``(A, Gv)``: the v-block of
    ``[[A - shift Gv, B^T], [B, 0]]^{-1} (y, 0)`` inverts the shifted pencil
    on null(B) and lies in it, so the start vector ``OPinv(Gv 1)`` does too.
    B has full row rank when that LU succeeds, so ``null_dim = n_v - n_q``;
    an empty nullspace yields ``alpha = inf``.  Rank-deficient B or a
    Lanczos failure raises :class:`EstimatorError`.
    """
    n_q, n_v = b.shape
    if n_v == n_q:
        return KernelEllipticity(alpha=math.inf, null_dim=0)
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
    return KernelEllipticity(alpha=float(lam[0]), null_dim=n_v - n_q)


def operator_norm_estimate(a, gram_v, tol: float = 1e-10,
                           max_iter: int = 2000) -> float:
    """Operator norm of the bilinear form ``a`` in the Gram norm.

    Largest generalized eigenvalue of ``(A, Gv)`` by power iteration with
    a factored Gram solve.
    """
    a = as_csr(a)
    gram = as_csr(gram_v)
    lu = spla.splu(sp.csc_matrix(gram))
    rng = np.random.RandomState(1)
    x = rng.standard_normal(a.shape[0])
    lam_prev = 0.0
    for _ in range(max_iter):
        ax = a @ x
        lam = float(abs(x @ ax) / (x @ (gram @ x)))
        y = lu.solve(ax)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        x = y / norm
        if abs(lam - lam_prev) <= tol * max(lam, 1e-300):
            return lam
        lam_prev = lam
    raise EstimatorError(
        f"operator norm power iteration stalled at {lam_prev:.6e}")
