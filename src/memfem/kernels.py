"""Relaxation moduli, the Volterra kernels derived from them, and the
scalar creep-factor oracle.

The memory kernels used by the drivers all have the convolution form
``k(t, s) = c * exp(-rate * (t - s))``: the standard-linear-solid (SLS)
relaxation modulus yields ``c = dE/dt(0) / E(0)``, and the non-fickian
flow kernel is ``(1/delta) * exp(-(t - s)/delta)``.  General two-time
kernels are supported as plain callables with a stated bound.

For a separable step load the time modulation of every field is the
creep factor ``phi``, the solution of the scalar Volterra equation

    phi(t) = 1 + int_0^t k(t, s) phi(s) ds.

``creep_factor`` solves it in closed form for convolution kernels and by
Richardson-refined trapezoid quadrature otherwise; either way the result
carries a residual estimate that acts as the oracle quality gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import OracleError

__all__ = [
    "PronySLS",
    "MemoryKernel",
    "CreepFactor",
    "sls_relaxation",
    "beam_kernel",
    "fickian_kernel",
    "modulus_kernel",
    "creep_factor",
    "closed_form_creep",
]

CREEP_RESIDUAL_GATE = 1e-10     # the largest residual creep_factor returns


@dataclass(frozen=True)
class PronySLS:
    """Standard linear solid: one-term truncated Prony series.

    Parameters
    ----------
    k1, k2 : float
        Spring stiffnesses (N/m^2).  ``E(0) = k1`` and the long-time
        modulus is ``k1*k2/(k1 + k2)``.
    eta2 : float
        Dashpot viscosity (N.s/m^2).  The relaxation time is
        ``tau = eta2/(k1 + k2)``.
    """

    k1: float
    k2: float
    eta2: float

    def __post_init__(self):
        for name in ("k1", "k2", "eta2"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"PronySLS.{name} must be positive, got {value!r}")

    @property
    def e0(self) -> float:
        return self.k1

    @property
    def e_inf(self) -> float:
        return self.k1 * self.k2 / (self.k1 + self.k2)

    @property
    def tau(self) -> float:
        return self.eta2 / (self.k1 + self.k2)


def sls_relaxation(p: PronySLS, t):
    """Relaxation modulus ``E(t) = E_inf + (k1 - E_inf) exp(-t/tau)``.

    Accepts a scalar or array of times; all times must be nonnegative.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("relaxation modulus is defined for t >= 0 only")
    e_inf = p.e_inf
    out = e_inf + (p.k1 - e_inf) * np.exp(-t / p.tau)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class MemoryKernel:
    """Bounded two-time Volterra kernel on the triangle 0 <= s <= t.

    Attributes
    ----------
    eval : callable
        ``eval(t, s)`` with s <= t, vectorized over numpy arrays.
    bound : float
        A constant ``C_k`` with ``|eval(t, s)| <= C_k``.
    c, rate : float or None
        Set when the kernel has the convolution structure
        ``c * exp(-rate * (t - s))``; None for general kernels.
    """

    eval: Callable = field(compare=False)
    bound: float = 0.0
    c: Optional[float] = None
    rate: Optional[float] = None

    @property
    def is_exp(self) -> bool:
        return self.c is not None

    @staticmethod
    def exp_convolution(c: float, rate: float) -> "MemoryKernel":
        """Kernel ``c * exp(-rate*(t-s))`` with bound |c| (rate >= 0)."""
        if not (np.isfinite(c) and 0.0 <= rate < np.inf):
            raise ValueError("exponential kernel needs finite c and finite, "
                             f"nonnegative rate, got c={c!r}, rate={rate!r}")

        def _eval(t, s, _c=float(c), _r=float(rate)):
            return _c * np.exp(-_r * (np.asarray(t, float) - np.asarray(s, float)))

        return MemoryKernel(eval=_eval, bound=abs(float(c)), c=float(c), rate=float(rate))

    @staticmethod
    def from_callable(fn: Callable, bound: float) -> "MemoryKernel":
        """General kernel from a callable and a stated bound."""
        if bound < 0.0:
            raise ValueError("kernel bound must be nonnegative")
        return MemoryKernel(eval=fn, bound=float(bound))


def beam_kernel(p: PronySLS) -> MemoryKernel:
    """Hereditary kernel ``dE/dt(t-s) / E(0)`` of an SLS modulus: that of
    its one-exponential modulus (:func:`modulus_kernel`), ``E(0) = k1``."""
    return modulus_kernel(p.e0, p.e_inf, p.tau)


def modulus_kernel(e0: float, e_inf: float, tau: float) -> MemoryKernel:
    """Hereditary kernel of a generic one-exponential relaxation modulus.

    For ``E(t) = e_inf + (e0 - e_inf) exp(-t/tau)`` the kernel
    ``dE/dt(t-s)/E(0)`` is ``-(e0 - e_inf)/(tau*e0) * exp(-(t-s)/tau)``.
    This is the direct override used when a printed modulus (rather than
    SLS spring/dashpot data) defines the material.
    """
    if not (e0 > 0.0 and tau > 0.0):
        raise ValueError("modulus requires e0 > 0 and tau > 0")
    c = -(e0 - e_inf) / (tau * e0)
    return MemoryKernel.exp_convolution(c=c, rate=1.0 / tau)


def fickian_kernel(delta: float) -> MemoryKernel:
    """Non-fickian flow kernel ``(1/delta) exp(-(t-s)/delta)``."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta!r}")
    return MemoryKernel.exp_convolution(c=1.0 / delta, rate=1.0 / delta)


@dataclass(frozen=True)
class CreepFactor:
    """Sampled creep factor with its equation-residual estimate."""

    times: np.ndarray
    samples: np.ndarray
    residual: float
    exact: Optional[Callable] = field(default=None, compare=False)

    def __call__(self, t):
        """Evaluate at arbitrary times.

        Uses the closed form when available (convolution kernels) and
        piecewise-linear interpolation of the samples otherwise.
        """
        if self.exact is not None:
            return self.exact(t)
        return np.interp(t, self.times, self.samples)


def closed_form_creep(c: float, rate: float, t):
    """Exact solution of ``phi = 1 + int c e^{-rate(t-s)} phi(s) ds``.

    Laplace transform gives ``phi(t) = (rate - c e^{-(rate-c)t})/(rate-c)``
    for ``rate != c`` and ``phi(t) = 1 + c t`` in the resonant case.
    """
    t = np.asarray(t, dtype=float)
    a = rate - c
    if a == 0.0:
        return 1.0 + c * t
    return (rate - c * np.exp(-a * t)) / a


def _closed_form_residual(c: float, rate: float, times: np.ndarray,
                          samples: np.ndarray) -> float:
    # The convolution of the closed-form phi with the kernel is itself
    # elementary: int_0^t c e^{-r(t-s)} phi(s) ds = (c/a)(1 - e^{-a t})
    # for a = r - c, and c*t when a = 0.
    a = rate - c
    if a == 0.0:
        integral = c * times
    else:
        integral = (c / a) * (1.0 - np.exp(-a * times))
    defect = samples - 1.0 - integral
    return float(np.max(np.abs(defect))) if defect.size else 0.0


def _trapezoid_creep(kernel: MemoryKernel, T: float, n: int) -> np.ndarray:
    """Solve the scalar Volterra equation by implicit trapezoid stepping."""
    dt = T / n
    t = dt * np.arange(n + 1)
    phi = np.empty(n + 1)
    phi[0] = 1.0
    for j in range(1, n + 1):
        k_row = np.asarray(kernel.eval(t[j], t[:j]), dtype=float)
        acc = dt * (np.dot(k_row[1:j], phi[1:j]) + 0.5 * k_row[0] * phi[0])
        k_jj = float(kernel.eval(t[j], t[j]))
        gamma = 1.0 - 0.5 * dt * k_jj
        if gamma <= 0.0:
            raise OracleError(
                f"creep oracle step too large: 1 - (dt/2) k(t,t) = {gamma:.3e}")
        phi[j] = (1.0 + acc) / gamma
    return phi


def creep_factor(kernel: MemoryKernel, grid,
                 max_refinements: int = 8) -> CreepFactor:
    """Creep factor on the nodes of ``grid`` (a :class:`volterra.TimeGrid`).

    Convolution kernels use the closed form; the residual is then the
    defect of the integral equation evaluated with the exact convolution
    integral (machine precision).  General kernels are solved by
    trapezoid quadrature starting at the grid's own resolution, halving
    the step and Richardson-extrapolating until the estimated residual
    meets the gate ``CREEP_RESIDUAL_GATE``.

    Raises
    ------
    OracleError
        If refinement does not reach the residual gate.
    """
    times = grid.times
    if kernel.is_exp:
        samples = np.asarray(closed_form_creep(kernel.c, kernel.rate, times), float)
        res = _closed_form_residual(kernel.c, kernel.rate, times, samples)
        if res > CREEP_RESIDUAL_GATE:
            raise OracleError(f"closed-form creep residual {res:.3e} above gate")
        exact = lambda t, c=kernel.c, r=kernel.rate: closed_form_creep(c, r, t)
        return CreepFactor(times=times.copy(), samples=samples, residual=res,
                           exact=exact)

    n0 = grid.n_steps
    coarse = _trapezoid_creep(kernel, grid.T, n0)
    fine = _trapezoid_creep(kernel, grid.T, 2 * n0)
    # trapezoid is second order, so (4 fine - coarse)/3 is fourth order;
    # consecutive extrapolations bound the error of the reported samples
    extra = (4.0 * fine[::2] - coarse) / 3.0
    n = n0
    for _ in range(max_refinements):
        finer = _trapezoid_creep(kernel, grid.T, 4 * n)
        extra_next = (4.0 * finer[::2] - fine) / 3.0
        gap = float(np.max(np.abs(extra_next[::2] - extra)))
        if gap < CREEP_RESIDUAL_GATE:
            stride = (2 * n) // grid.n_steps
            samples = extra_next[::stride].copy()
            return CreepFactor(times=times.copy(), samples=samples,
                               residual=gap)
        n *= 2
        fine = finer
        extra = extra_next
    raise OracleError(
        f"creep oracle did not reach residual {CREEP_RESIDUAL_GATE:.1e} "
        f"after {max_refinements} refinements (last estimate {gap:.3e})")
