"""Sparse saddle-point factorization and the spectral estimators that feed
stability certificates.

Matrices are stored as scipy CSR/CSC (compressed row storage with sorted,
duplicate-free indices); factorization is direct sparse LU, which is
robust at the desk scales this package targets.  The estimators
(``infsup_estimate``, ``kernel_ellipticity``, ``operator_norm_estimate``)
are test and certificate utilities and may densify small matrices.
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


def _dense_schur(gram_v, b) -> np.ndarray:
    """Dense S = B Gv^{-1} B^T via one multi-RHS sparse solve."""
    gram_v = sp.csc_matrix(gram_v)
    b = as_csr(b)
    lu = spla.splu(gram_v)
    x = lu.solve(b.T.toarray())
    s = b @ x
    return 0.5 * (s + s.T)


def infsup_estimate(gram_v, gram_q, b, tol: float = 1e-10,
                    max_iter: int = 500) -> float:
    """Discrete inf-sup constant of ``b`` in the norms of the two Grams.

    Equals the smallest singular value of ``Gq^{-1/2} B Gv^{-1/2}``,
    computed by inverse iteration on the generalized eigenproblem
    ``(B Gv^{-1} B^T) q = lambda Gq q``.  A singular Schur complement
    (rank-deficient B) returns 0.0.

    Raises
    ------
    EstimatorError
        If the iteration does not converge; the message reports the last
        iterate.
    """
    s = _dense_schur(gram_v, b)
    gq = np.asarray(sp.csr_matrix(gram_q).todense())
    try:
        cho = scipy.linalg.cho_factor(s)
    except scipy.linalg.LinAlgError:
        return 0.0
    rng = np.random.RandomState(0)
    x = rng.standard_normal(s.shape[0])
    x /= math.sqrt(x @ gq @ x)
    lam_prev = math.inf
    for _ in range(max_iter):
        y = scipy.linalg.cho_solve(cho, gq @ x)
        if not np.all(np.isfinite(y)):
            return 0.0
        y /= math.sqrt(y @ gq @ y)
        lam = float(y @ s @ y)
        if abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
            return math.sqrt(max(lam, 0.0))
        lam_prev = lam
        x = y
    raise EstimatorError(
        f"inf-sup inverse iteration stalled at lambda={lam_prev:.6e}")


def operator_norm_b(b, gram_v, gram_q) -> float:
    """Norm of the constraint form: largest weighted singular value.

    Square root of the largest eigenvalue of the pencil
    (B Gv^{-1} B^T, Gq), evaluated densely like the inf-sup estimator
    (the spectrum clusters at the top, which defeats power iteration).
    """
    s = _dense_schur(gram_v, b)
    gq = sp.csr_matrix(gram_q).toarray()
    eigs = scipy.linalg.eigh(s, gq, eigvals_only=True)
    return math.sqrt(max(float(eigs[-1]), 0.0))


class KernelEllipticity(NamedTuple):
    """Coercivity constant of ``a`` on null(B) plus the nullspace size."""

    alpha: float
    null_dim: int


def kernel_ellipticity(a, b, gram_v) -> KernelEllipticity:
    """Smallest generalized eigenvalue of ``a`` restricted to null(B).

    Extracts the nullspace densely (test utility: intended for small
    meshes only) and solves the projected pencil ``(Z^T A Z, Z^T Gv Z)``.
    An empty nullspace yields ``alpha = inf`` with ``null_dim = 0``.
    """
    b_dense = sp.csr_matrix(b).toarray()
    z = scipy.linalg.null_space(b_dense)
    if z.shape[1] == 0:
        return KernelEllipticity(alpha=math.inf, null_dim=0)
    a_z = z.T @ (sp.csr_matrix(a) @ z)
    g_z = z.T @ (sp.csr_matrix(gram_v) @ z)
    eigs = scipy.linalg.eigh(a_z, g_z, eigvals_only=True)
    return KernelEllipticity(alpha=float(eigs[0]), null_dim=z.shape[1])


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
