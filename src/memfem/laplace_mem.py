"""Lowest-order Raviart-Thomas / P0 discretization of the Laplace problem
with memory (non-fickian flow).

The strong model is -lap(u) = f + int_0^t k(t-s) lap(u)(s) ds with the
convolution kernel k(t-s) = (1/delta) e^{-(t-s)/delta}.  The mixed pair
is sigma = grad u in RT0 against u in elementwise constants:

    (sigma, tau) + (u, div tau) = 0,
    (div sigma, v) = -(f, v) - int_0^t k(t,s) (div sigma(s), v) ds,

so the kernel attached to the constraint row is the NEGATED k (k1 = k2
absent, k3 = -k): that sign is forced by substituting div sigma = lap u
into the strong form, and it keeps the memory feedback contractive (the
row resolvent decays from 1 to 1/2 instead of growing linearly).  The
homogeneous Dirichlet condition on u is natural in this formulation, so
every edge carries a flux dof and no rows are constrained.

RT0 basis functions are normalized to unit normal-flux density across
their edge, oriented low vertex index -> high vertex index, so the
divergence pairing integrates to +-|edge| exactly.  All other integrals
use the edge-midpoint (3-point) rule, which is exact for the quadratic
RT0 pairings.

The verification problem is manufactured: u = cos(t) x(1-x) y(1-y), for
which the memory convolution of the load has the closed form coded in
:class:`ManufacturedSolution` (cross-checked against adaptive quadrature
in the test suite before use).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .kernels import MemoryKernel, fickian_kernel
from .mesh import TriMesh, structured_unit_square
from .sparsela import assemble
from .volterra import (BlockSaddleSystem, L1NormAccumulator, TimeGrid,
                       VolterraStepper)

__all__ = [
    "RT0Space",
    "ManufacturedSolution",
    "LaplaceProblem",
    "assemble_rt0_mass",
    "assemble_rt0_div",
    "gram_hdiv",
    "gram_p0",
    "laplace_accumulator",
    "probe_cell_index",
]


class RT0Space:
    """RT0 geometry tables: signed basis data and midpoint quadrature."""

    def __init__(self, mesh: TriMesh):
        self.mesh = mesh
        p = mesh.vertices
        t = mesh.triangles
        self.areas = mesh.areas
        elen = mesh.edge_lengths

        # quadrature: the three edge midpoints, weight |K|/3 each
        corners = p[t]                                   # (nt, 3, 2)
        mids = 0.5 * (corners[:, [1, 2, 0]] + corners[:, [2, 0, 1]])
        self.quad_x = mids                               # (nt, 3, 2)
        self.quad_w = np.repeat(self.areas[:, None] / 3.0, 3, axis=1)

        # basis phi_loc(x) = sign * |e|/(2|K|) (x - P_opposite)
        sgn = mesh.tri_edge_signs
        ell = elen[mesh.tri_edges]                       # (nt, 3)
        coef = sgn * ell / (2.0 * self.areas[:, None])   # (nt, 3)
        diff = mids[:, :, None, :] - corners[:, None, :, :]   # (nt, q, loc, 2)
        self.basis_q = coef[:, None, :, None] * diff     # (nt, q, loc, 2)
        self.div = sgn * ell / self.areas[:, None]       # (nt, 3), constant

    @property
    def n_edges(self) -> int:
        return self.mesh.n_edges

    @property
    def n_cells(self) -> int:
        return self.mesh.n_triangles

    def flux_operator(self) -> sp.csr_matrix:
        """Sparse map from edge dofs to the vector field at the quadrature
        points, rows ordered (cell, point, component)."""
        nt = self.n_cells
        shape = self.basis_q.shape                       # (nt, q, loc, 2)
        rows = np.broadcast_to(np.arange(6 * nt).reshape(nt, 3, 1, 2), shape)
        cols = np.broadcast_to(self.mesh.tri_edges[:, None, :, None], shape)
        return sp.csr_matrix((self.basis_q.ravel(), (rows.ravel(), cols.ravel())),
                             shape=(6 * nt, self.n_edges))


def assemble_rt0_mass(space: RT0Space) -> sp.csr_matrix:
    """L2 mass matrix of the RT0 space (midpoint rule, exact here)."""
    if np.any(space.areas <= 0.0):
        raise ConfigError("degenerate triangle in the mesh")
    local = np.einsum("kq,kqld,kqmd->klm", space.quad_w, space.basis_q,
                      space.basis_q)
    n = space.n_edges
    return assemble(local, space.mesh.tri_edges, (n, n))


def assemble_rt0_div(space: RT0Space) -> sp.csr_matrix:
    """Divergence pairing (div tau, v): entries are signed edge lengths."""
    te = space.mesh.tri_edges
    vals = space.div * space.areas[:, None]              # sign * |e|
    rows = np.repeat(np.arange(space.n_cells), 3)
    return sp.coo_matrix((vals.ravel(), (rows, te.ravel())),
                         shape=(space.n_cells, space.n_edges)).tocsr()


def gram_hdiv(space: RT0Space) -> sp.csr_matrix:
    """H(div) Gram matrix: (sigma, tau) + (div sigma, div tau)."""
    local = np.einsum("k,kl,km->klm", space.areas, space.div, space.div)
    n = space.n_edges
    divdiv = assemble(local, space.mesh.tri_edges, (n, n))
    return (assemble_rt0_mass(space) + divdiv).tocsr()


def gram_p0(space: RT0Space) -> sp.csr_matrix:
    """L2 Gram of the cellwise-constant space (diagonal of areas)."""
    return sp.diags(space.areas, format="csr")


class ManufacturedSolution:
    """u = cos(t) x(1-x) y(1-y) with the exponential memory kernel.

    The load is f = -lap(u) - int_0^t k(t-s) lap(u)(s) ds; with
    k = (1/delta) e^{-(t-s)/delta} the convolution of cos against the
    kernel has the closed form

        int_0^t (1/d) e^{-(t-s)/d} cos(s) ds
            = a (a cos t + sin t - a e^{-a t}) / (a^2 + 1),  a = 1/d.
    """

    def __init__(self, delta: Optional[float]):
        if delta is not None and delta <= 0.0:
            raise ConfigError(f"delta must be positive, got {delta}")
        self.delta = delta

    @staticmethod
    def shape(x, y):
        return (x - x * x) * (y - y * y)

    @staticmethod
    def shape_lap_factor(x, y):
        # -lap of the spatial shape
        return 2.0 * ((x - x * x) + (y - y * y))

    def u(self, x, y, t):
        return math.cos(t) * self.shape(x, y)

    def sigma(self, x, y, t):
        gx = (1.0 - 2.0 * x) * (y - y * y)
        gy = (x - x * x) * (1.0 - 2.0 * y)
        return math.cos(t) * np.stack([gx, gy], axis=-1)

    def memory_integral(self, t):
        """Closed form of the kernel/cosine convolution at time t."""
        if self.delta is None:
            return 0.0 * np.asarray(t, float)
        a = 1.0 / self.delta
        t = np.asarray(t, float)
        return a * (a * np.cos(t) + np.sin(t) - a * np.exp(-a * t)) / (a * a + 1.0)

    def load_factor(self, t):
        return np.cos(np.asarray(t, float)) + self.memory_integral(t)

    def f(self, x, y, t):
        return self.shape_lap_factor(x, y) * float(self.load_factor(t))


def manufactured_rhs_base(space: RT0Space,
                          manufactured: ManufacturedSolution) -> np.ndarray:
    """Time-independent part of the load cells (the f factorizes)."""
    xq = space.quad_x
    shape_vals = manufactured.shape_lap_factor(xq[..., 0], xq[..., 1])
    return -np.sum(space.quad_w * shape_vals, axis=1)


def probe_cell_index(m: int, point) -> int:
    """Triangle containing ``point`` in the structured m x m mesh.

    Points on the SW-NE diagonal resolve to the lower triangle, which
    makes the probe deterministic.
    """
    x, y = float(point[0]), float(point[1])
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"probe point {point} outside the unit square")
    i = min(int(x * m), m - 1)
    j = min(int(y * m), m - 1)
    xi = x * m - i
    eta = y * m - j
    lower = xi >= eta
    return 2 * (j * m + i) + (0 if lower else 1)


def laplace_accumulator(space: RT0Space, manufactured: ManufacturedSolution,
                        grid: TimeGrid) -> L1NormAccumulator:
    """L1-in-time L2 errors of sigma and u against the manufactured solution."""
    xq = space.quad_x
    w = space.quad_w.ravel()
    cells = sp.kron(sp.identity(space.n_cells), np.ones((3, 1)))
    e = sp.block_diag([space.flux_operator(), cells], format="csr")
    return L1NormAccumulator(grid, np.cos, {
        ("sigma", "e0"): (e[:2 * w.size], np.repeat(w, 2),
                          manufactured.sigma(xq[..., 0], xq[..., 1], 0.0)),
        ("u", "e0"): (e[2 * w.size:], w,
                      manufactured.shape(xq[..., 0], xq[..., 1])),
    })


class LaplaceProblem:
    """One structured-mesh discretization of the non-fickian flow model.

    ``delta`` sets the memory of the manufactured load (None: no memory).
    The constraint row carries ``kernel``, or without one the negated
    fickian kernel of ``delta`` (none when ``delta`` is None).
    """

    FIELDS = ("sigma", "u")

    def __init__(self, m: int, delta: Optional[float] = 0.01,
                 kernel: Optional[MemoryKernel] = None):
        self.m = m
        self.mesh = structured_unit_square(m)
        self.space = RT0Space(self.mesh)
        self.manufactured = ManufacturedSolution(delta)
        if kernel is None and delta is not None:
            # constraint row carries -k(t-s); see the module docstring
            base = fickian_kernel(delta)
            kernel = MemoryKernel.exp_convolution(c=-base.c, rate=base.rate)
        self.kernel = kernel
        self.a = assemble_rt0_mass(self.space)
        self.b = assemble_rt0_div(self.space)
        self.system = BlockSaddleSystem(self.a, self.b, k3=kernel)
        # row 2's load vector: one read-only owner, one LU solve a run
        self._load = np.array(
            manufactured_rhs_base(self.space, self.manufactured)[:, None])
        self._load.flags.writeable = False
        self.h = math.sqrt(2.0) / m

    @property
    def dofs(self) -> int:
        return self.space.n_edges + self.space.n_cells

    def rhs(self, times):
        """Row 2's load of the nodes ``times``, the pair ``(V, C)``: its one
        vector, and the load factor at each node; row 1 has none."""
        return self._load, self.manufactured.load_factor(times)[None, :]

    def grams(self):
        """(H(div) Gram, L2 Gram): the norms of the two unknowns."""
        return gram_hdiv(self.space), gram_p0(self.space)

    def reference(self, grid: TimeGrid, finest: int) -> ManufacturedSolution:
        """The study oracle: the manufactured solution depends only on
        ``delta``, so one object serves every level."""
        return self.manufactured

    def write_run(self, grid: TimeGrid, cfg: dict, write: Callable) -> str:
        """Step the grid against the manufactured solution and ``write``
        the u series of the cell holding ``cfg["probe"]``, if one is set;
        returns the lines to print."""
        probe = cfg.get("probe")
        lines = ["t,u_h,u_exact"]
        collect = None
        if probe is not None:
            x, y = probe
            cell = probe_cell_index(self.m, probe)

            def collect(n, t, sig, u):
                lines.append("%.6e,%.6e,%.6e"
                             % (t, u[cell], self.manufactured.u(x, y, t)))

        errors, _ = self.run(grid, reference=self.manufactured, collect=collect)
        text = (f"laplace m={self.m}: e0(sigma)={errors['sigma']['e0']:.6e} "
                f"e0(u)={errors['u']['e0']:.6e}")
        if probe is not None:
            out_dir = write({"probe.csv": "\n".join(lines) + "\n"})
            text += f"\nprobe series written to {out_dir / 'probe.csv'}"
        return text

    def run(self, grid: TimeGrid,
            reference: Optional[ManufacturedSolution] = None,
            collect: Optional[Callable] = None):
        """Step through the grid; returns (errors, stepper).

        Errors against ``reference`` (usually ``self.manufactured``) are
        None when no reference is given.
        """
        stepper = VolterraStepper(self.system, grid)
        acc = None if reference is None else \
            laplace_accumulator(self.space, reference, grid)

        def on_step(n, times, sig, u, basis):
            if acc is not None:
                acc.add(n, sig, u, basis)
            if collect is not None:
                for j in range(len(times)):     # cheaper than iterating times
                    collect(n + j, times[j], sig[:, j], u[:, j])

        stepper.run(self.system.zero_load, self.rhs, on_step=on_step)
        return (acc.result() if acc is not None else None), stepper
