"""Bending-moment mixed formulation of the viscoelastic Timoshenko beam.

The unknown pair is u = (M, V) in continuous P1 x P1 (bending moment and
shear) against p = (beta, w) in P0 x P0 (rotation and deflection).  The
bilinear forms are

    a((M,V),(tau,xi)) = (M/Ihat, tau) + eps^2 (V/kappa, xi),
    b((tau,xi),(eta,v)) = (eta, tau' - xi) - (v, xi'),

with Ihat = I/eps^3, Ahat = ks A/eps, kappa = Ahat/(2(1+nu)), and the
load row carries -(f_E, v) - (g_E, eta) with f_E = f/E(0) for the scaled,
thickness-independent loads.  The hereditary term sits in the constraint
row only (k1 = k2 absent, k3 = dE/dt(t-s)/E(0)).

Clamped ends are natural here: no essential conditions are imposed on
(M, V), and none exist for the multiplier pair.

The exact-solution oracle uses the separability of step loads: every
field equals its memory-free spatial solution times the scalar creep
factor.  The spatial part is taken from a fine reference mesh, the time
factor from the closed-form creep solution, so the oracle never touches
the Volterra stepping path it is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .kernels import CreepFactor, MemoryKernel, creep_factor
from .mesh import Mesh1D, uniform_mesh1d
from .sparsela import assemble, factorize_saddle
from .volterra import (BlockSaddleSystem, L1NormAccumulator, TimeGrid,
                       VolterraStepper)

__all__ = [
    "BeamConfig",
    "BeamReference",
    "BeamProblem",
    "joined_profile",
    "smooth_profile",
    "assemble_beam_a",
    "assemble_beam_b",
    "beam_rhs",
    "beam_gram_v",
    "beam_gram_q",
    "beam_exact_reference",
    "beam_accumulator",
    "beam_reference_norms",
]

# Gauss-Legendre nodes/weights on (-1, 1)
_G2 = (np.array([-1.0, 1.0]) / math.sqrt(3.0), np.array([1.0, 1.0]))
_G4 = (np.array([-0.8611363115940526, -0.3399810435848563,
                 0.3399810435848563, 0.8611363115940526]),
       np.array([0.3478548451374538, 0.6521451548625461,
                 0.6521451548625461, 0.3478548451374538]))


def _gauss_points(mesh: Mesh1D, rule):
    """Physical quadrature points and weights, shape (n_elements, n_q)."""
    xi, w = rule
    x0 = mesh.nodes[:-1][:, None]
    ell = mesh.cell_lengths[:, None]
    xq = x0 + 0.5 * ell * (1.0 + xi[None, :])
    wq = 0.5 * ell * w[None, :]
    return xq, wq


def _p1_at(rule):
    """P1 basis values on the reference element for a Gauss rule."""
    xi, _ = rule
    return np.column_stack([0.5 * (1.0 - xi), 0.5 * (1.0 + xi)])


def _split(n: int, u: np.ndarray, p: np.ndarray) -> dict:
    """The fields of a state on n elements: (M, V) at the nodes, then
    (beta, w) on the cells."""
    return {"M": u[:n + 1], "V": u[n + 1:], "beta": p[:n], "w": p[n:]}


@dataclass(frozen=True)
class BeamConfig:
    """Geometry and material layout of one beam configuration.

    ``I`` and ``A`` are callables of position (vectorized); ``eps`` is
    the thickness parameter with ``eps^2 = (1/L) int I/(A L^2)``.
    """

    profile: str
    L: float
    nu: float
    ks: float
    eps: float
    I: Callable
    A: Callable

    def __post_init__(self):
        if not (self.L > 0.0 and self.eps > 0.0 and self.ks > 0.0):
            raise ConfigError("beam needs positive length, eps, and ks")
        if not -1.0 < self.nu < 0.5:
            raise ConfigError(f"Poisson ratio {self.nu} out of range")
        x = np.linspace(0.0, self.L, 257)
        if np.any(self.ihat(x) <= 0.0) or np.any(self.ahat(x) <= 0.0):
            raise ConfigError("Ihat and Ahat must be positive on the beam")

    def ihat(self, x):
        return self.I(x) / self.eps ** 3

    def ahat(self, x):
        return self.ks * self.A(x) / self.eps

    def kappa(self, x):
        return self.ahat(x) / (2.0 * (1.0 + self.nu))


def joined_profile(d: float, L: float = 1.0, nu: float = 0.35,
                   ks: float = 5.0 / 6.0) -> BeamConfig:
    """Two rigidly joined clamped beams with a section jump at L/2.

    Cross-section 9e-2 d on the left half and 3e-2 d on the right;
    moments of inertia 27e-2 d^3/4 and 1e-2 d^3/4.  The thickness
    parameter satisfies eps^2 = 5 d^2 / (12 L^2).
    """
    if not d > 0.0:
        raise ConfigError(f"thickness must be positive, got d={d}")
    half = L / 2.0

    def area(x):
        x = np.asarray(x, float)
        return np.where(x <= half, 9e-2 * d, 3e-2 * d)

    def inertia(x):
        x = np.asarray(x, float)
        return np.where(x <= half, 27e-2 * d ** 3 / 4.0, 1e-2 * d ** 3 / 4.0)

    eps = math.sqrt(5.0 * d * d / (12.0 * L * L))
    return BeamConfig(profile="joined", L=L, nu=nu, ks=ks, eps=eps,
                      I=inertia, A=area)


def smooth_profile(nu: float = 0.35, ks: float = 5.0 / 6.0) -> BeamConfig:
    """Clamped unit-length beam with I = e^x/12 and A = 12 e^{-x}.

    There eps^2 = (e^2 - 1)/288, so eps ~ 0.14894.
    """
    eps = math.sqrt((math.e ** 2 - 1.0) / 288.0)
    return BeamConfig(profile="smooth", L=1.0, nu=nu, ks=ks, eps=eps,
                      I=lambda x: np.exp(np.asarray(x, float)) / 12.0,
                      A=lambda x: 12.0 * np.exp(-np.asarray(x, float)))


def beam_mesh(cfg: BeamConfig, n: int) -> Mesh1D:
    """Uniform mesh honoring the joined-profile parity rule."""
    if cfg.profile == "joined" and n % 2 != 0:
        raise ConfigError(
            f"joined beams need an even element count so x=L/2 is a node, got n={n}")
    return uniform_mesh1d(cfg.L, n)


def assemble_beam_a(cfg: BeamConfig, mesh: Mesh1D) -> sp.csr_matrix:
    """Block-diagonal Gram matrix of the a-form, 2(n+1) square.

    The M-block carries the 1/Ihat weight and the V-block eps^2/kappa,
    both integrated with 2-point Gauss per element.
    """
    xq, wq = _gauss_points(mesh, _G2)
    phi = _p1_at(_G2)
    w_m = wq / cfg.ihat(xq)
    w_v = wq * (cfg.eps ** 2) / cfg.kappa(xq)
    if np.any(~np.isfinite(w_m)) or np.any(~np.isfinite(w_v)):
        raise ConfigError("beam coefficients evaluate to non-finite values")
    loc_m = np.einsum("eq,qi,qj->eij", w_m, phi, phi)
    loc_v = np.einsum("eq,qi,qj->eij", w_v, phi, phi)

    n = mesh.n_elements
    conn = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return sp.block_diag([assemble(loc, conn, (n + 1, n + 1))
                          for loc in (loc_m, loc_v)], format="csr")


def assemble_beam_b(mesh: Mesh1D) -> sp.csr_matrix:
    """Constraint matrix of (eta, tau' - xi) - (v, xi'), 2n x 2(n+1).

    All pairings are exact: tau' is elementwise constant and xi is P1,
    so every entry is +-1 or a half cell length.
    """
    n = mesh.n_elements
    n_nodes = n + 1
    i = np.arange(n)
    one = np.ones(n)
    half = -0.5 * mesh.cell_lengths
    # per element: the beta-row against M (integrals of the P1 derivatives)
    # and V (minus integrals of the P1 basis), the w-row against V (minus
    # integrals of the P1 derivatives)
    rows = np.column_stack([i, i, i, i, n + i, n + i]).ravel()
    cols = np.column_stack([i, i + 1, n_nodes + i, n_nodes + i + 1,
                            n_nodes + i, n_nodes + i + 1]).ravel()
    vals = np.column_stack([-one, one, half, half, one, -one]).ravel()
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(2 * n, 2 * n_nodes)).tocsr()


def beam_rhs(cfg: BeamConfig, mesh: Mesh1D, f: Optional[Callable],
             g: Optional[Callable], e0: float = 1.0) -> np.ndarray:
    """The b-row load of the spatial loads f(x), g(x); the a-row is not
    loaded.

    Its entries are -(f_E, v) on the w cells and -(g_E, eta) on the
    beta cells with f_E = f/E(0), integrated with 4-point Gauss (exact to
    machine precision for the exponential loads used in practice).
    """
    n = mesh.n_elements
    xq, wq = _gauss_points(mesh, _G4)
    rhs = np.zeros(2 * n)
    if g is not None:
        rhs[:n] = -np.sum(wq * np.asarray(g(xq), float), axis=1) / e0
    if f is not None:
        rhs[n:] = -np.sum(wq * np.asarray(f(xq), float), axis=1) / e0
    return rhs


def beam_gram_v(mesh: Mesh1D) -> sp.csr_matrix:
    """H1 x H1 Gram matrix of the (M, V) space."""
    n = mesh.n_elements
    ell = mesh.cell_lengths
    # element matrix: mass [[l/3, l/6], [l/6, l/3]] plus stiffness
    # [[1, -1], [-1, 1]] / l
    diag = ell / 3.0 + 1.0 / ell
    off = ell / 6.0 - 1.0 / ell
    local = np.column_stack([diag, off, off, diag]).reshape(n, 2, 2)
    h1 = assemble(local, np.add.outer(np.arange(n), [0, 1]), (n + 1, n + 1))
    return sp.block_diag([h1, h1], format="csr")


def beam_gram_q(mesh: Mesh1D) -> sp.csr_matrix:
    """L2 x L2 Gram matrix of the (beta, w) space (diagonal)."""
    ell = mesh.cell_lengths
    return sp.diags(np.concatenate([ell, ell]), format="csr")


class BeamReference:
    """Separable exact-solution evaluator: elastic(x) times creep(t)."""

    def __init__(self, mesh: Mesh1D, u: np.ndarray, p: np.ndarray,
                 phi: CreepFactor):
        self.mesh = mesh
        self.coeff = _split(mesh.n_elements, u, p)
        self.phi = phi

    def _locate(self, x):
        x = np.asarray(x, float)
        h = self.mesh.length / self.mesh.n_elements
        e = np.clip((x / h).astype(int), 0, self.mesh.n_elements - 1)
        return e, x

    def spatial(self, x):
        """Elastic fields and derivatives at positions x (dict of arrays)."""
        e, x = self._locate(x)
        x0 = self.mesh.nodes[e]
        ell = self.mesh.cell_lengths[e]
        s = (x - x0) / ell
        out = {}
        for name in ("M", "V"):
            left, right = self.coeff[name][e], self.coeff[name][e + 1]
            out[name] = (1.0 - s) * left + s * right
            out["d" + name] = (right - left) / ell
        for name in ("beta", "w"):
            out[name] = self.coeff[name][e]
        return out

    def __call__(self, x, t):
        """Field values (M, V, beta, w) at (x, t)."""
        base = self.spatial(x)
        factor = self.phi(t)
        return {k: v * factor for k, v in base.items()
                if not k.startswith("d")}


def beam_exact_reference(cfg: BeamConfig, f_space: Callable,
                         g_space: Optional[Callable], grid: TimeGrid,
                         kernel: Optional[MemoryKernel], e0: float = 1.0,
                         n_ref: int = 4096) -> BeamReference:
    """Reference evaluator for a separable step load ``q(x) H(t)``.

    Solves the memory-free mixed system on a fine mesh (``n_ref``
    elements) and modulates it with the closed-form creep factor of the
    attached kernel.
    """
    if cfg.profile == "joined" and n_ref % 2 != 0:
        n_ref += 1
    fine = BeamProblem(cfg, n_ref, None, e0, f_space, g_space)
    u, p = factorize_saddle(fine.a, fine.b).solve(np.zeros(fine.n_v),
                                                  fine._load[:, 0])
    if kernel is None:          # the zero kernel: its creep factor is 1 + 0 t
        kernel = MemoryKernel.exp_convolution(0.0, 0.0)
    return BeamReference(fine.mesh, u, p, creep_factor(kernel, grid))


def beam_accumulator(mesh: Mesh1D, reference: BeamReference,
                     grid: TimeGrid) -> L1NormAccumulator:
    """L1-in-time errors against the oracle: e0 of every field, e1 of M, V.

    Fields are evaluated at the 4-point Gauss nodes; the state is (M, V)
    at the mesh nodes followed by (beta, w) on the cells.  Each norm's
    operator maps the state to them directly, one Gauss node per row.
    """
    n = mesh.n_elements
    xq, wq = _gauss_points(mesh, _G4)
    n_q = xq.shape[1]
    ref = reference.spatial(xq.ravel())
    # per Gauss node: its element's two nodes, their P1 values and slopes
    ends = np.repeat(np.add.outer(np.arange(n), [0, 1]), n_q, axis=0).ravel()
    value = np.tile(_p1_at(_G4).ravel(), n)
    slope = np.repeat(1.0 / mesh.cell_lengths, 2 * n_q) * np.tile([-1.0, 1.0], n * n_q)

    def operator(cols, data, per_row):
        return sp.csr_matrix((data, cols, np.arange(0, data.size + 1, per_row)),
                             shape=(data.size // per_row, 4 * n + 2))

    norms = {}                  # in the order of BeamProblem.FIELDS
    for name, first in (("M", 0), ("V", n + 1)):
        norms[name, "e0"] = (operator(first + ends, value, 2), wq, ref[name])
        norms[name, "e1"] = (operator(np.tile(first + ends, 2),
                                      np.concatenate((value, slope)), 2),
                             np.tile(wq.ravel(), 2),
                             np.concatenate((ref[name], ref["d" + name])))
    for name, first in (("w", 3 * n + 2), ("beta", 2 * n + 2)):
        norms[name, "e0"] = (operator(first + np.repeat(np.arange(n), n_q),
                                      np.ones(wq.size), 1), wq, ref[name])
    return L1NormAccumulator(grid, reference.phi, norms)


def beam_reference_norms(reference: BeamReference, grid: TimeGrid,
                         mesh: Mesh1D):
    """L1-in-time field norms of the oracle itself (for relative errors)."""
    acc = beam_accumulator(mesh, reference, grid)
    n, nodes = mesh.n_elements, grid.n_steps + 1     # every node in one block
    acc.add(0, np.zeros((2 * n + 2, nodes)), np.zeros((2 * n, nodes)))
    return acc.result()


class BeamProblem:
    """One beam discretization wired to loads and a memory kernel."""

    FIELDS = ("M", "V", "w", "beta")

    def __init__(self, cfg: BeamConfig, n_elements: int,
                 kernel: Optional[MemoryKernel], e0: float,
                 f_space: Optional[Callable], g_space: Optional[Callable]):
        self.cfg = cfg
        self.mesh = beam_mesh(cfg, n_elements)
        self.kernel = kernel
        self.e0 = e0
        self.f_space = f_space
        self.g_space = g_space
        self.a = assemble_beam_a(cfg, self.mesh)
        self.b = assemble_beam_b(self.mesh)
        self.system = BlockSaddleSystem(self.a, self.b, k3=kernel)
        # row 2's load vector: one read-only owner, one LU solve a run
        self._load = np.array(
            beam_rhs(cfg, self.mesh, f_space, g_space, e0=e0)[:, None])
        self._load.flags.writeable = False
        self.n_v = 2 * (self.mesh.n_elements + 1)
        self.n_q = 2 * self.mesh.n_elements

    @property
    def dofs(self) -> int:
        # tables index the nodal pair only
        return self.n_v

    @property
    def h(self) -> float:
        # L/n exactly: Mesh1D.h, the largest cell length, can differ in
        # the last bit and would change the report tables
        return self.cfg.L / self.mesh.n_elements

    def grams(self):
        """(H1 x H1 Gram, L2 x L2 Gram): the norms of the two unknowns."""
        return beam_gram_v(self.mesh), beam_gram_q(self.mesh)

    def rhs(self, times):
        """Row 2's load of the nodes ``times``, the pair ``(V, C)``: its one
        vector, and a unit step."""
        return self._load, np.ones((1, len(times)))

    def reference(self, grid: TimeGrid, finest: int) -> BeamReference:
        """The study oracle of every level: the fine-mesh reference on 64
        times the finest level's elements."""
        return beam_exact_reference(self.cfg, self.f_space, self.g_space,
                                    grid, self.kernel, e0=self.e0,
                                    n_ref=64 * finest)

    def write_run(self, grid: TimeGrid, cfg: dict, write: Callable) -> str:
        """Step the grid and ``write`` the final fields at the nodes and the
        cell midpoints; returns the line to print."""
        last = {}
        self.run(grid, collect=lambda n, t, u, p: last.update(u=u, p=p))
        fields = _split(self.mesh.n_elements, last["u"], last["p"])
        nodes = self.mesh.nodes
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        nodal = "x,M,V\n" + "".join("%.6e,%.6e,%.6e\n" % row for row in
                                    zip(nodes, fields["M"], fields["V"]))
        cells = "x,beta,w\n" + "".join("%.6e,%.6e,%.6e\n" % row for row in
                                       zip(mids, fields["beta"], fields["w"]))
        out_dir = write({"beam_nodal.csv": nodal, "beam_cells.csv": cells})
        return (f"beam n={self.mesh.n_elements}: final fields written to "
                f"{out_dir}/beam_nodal.csv and {out_dir}/beam_cells.csv")

    def run(self, grid: TimeGrid, reference: Optional[BeamReference] = None,
            collect: Optional[Callable] = None):
        """Step through the grid; returns (errors, stepper).

        Errors against ``reference`` are None when no reference is given.
        """
        stepper = VolterraStepper(self.system, grid)
        acc = None if reference is None else \
            beam_accumulator(self.mesh, reference, grid)

        def on_step(n, times, u, p, basis):
            if acc is not None:
                acc.add(n, u, p, basis)
            if collect is not None:
                for j in range(len(times)):     # cheaper than iterating times
                    collect(n + j, times[j], u[:, j], p[:, j])

        stepper.run(self.system.zero_load, self.rhs, on_step=on_step)
        return (acc.result() if acc is not None else None), stepper
