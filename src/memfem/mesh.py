"""Interval partitions and structured triangulations of the unit square.

All meshes are exactly uniform and deterministically numbered: vertices
in lexicographic grid order, triangles cell by cell (each square cell
split along its SW-NE diagonal), and edges in first-seen order while
walking the triangles.  Edge orientation is global and fixed as
low vertex index -> high vertex index; lowest-order Raviart-Thomas basis
signs derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh1D",
    "TriMesh",
    "uniform_mesh1d",
    "structured_unit_square",
]


@dataclass(frozen=True)
class Mesh1D:
    """Partition of [0, L] into intervals (x_{i-1}, x_i)."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = self.nodes
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("Mesh1D needs at least two nodes")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("Mesh1D nodes must be strictly increasing")

    @property
    def n_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def length(self) -> float:
        return float(self.nodes[-1])

    @property
    def h(self) -> float:
        return float(np.max(np.diff(self.nodes)))

    @property
    def cell_lengths(self) -> np.ndarray:
        return np.diff(self.nodes)


def uniform_mesh1d(L: float, n: int) -> Mesh1D:
    """Equispaced mesh with ``n`` elements on [0, L].

    Nodes are computed as ``L*i/n`` so that doubling ``n`` reproduces the
    old nodes bitwise (refinement nesting).
    """
    if n < 1:
        raise ValueError(f"need at least one element, got n={n}")
    if not L > 0.0:
        raise ValueError(f"length must be positive, got L={L}")
    nodes = L * np.arange(n + 1, dtype=float) / n
    return Mesh1D(nodes=nodes)


class TriMesh:
    """Conforming triangulation with globally oriented edges.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise vertex triples
    edges : (ne, 2) int array, each row (a, b) with a < b
    tri_edges : (nt, 3) int array, global edge of each local edge; local
        edge ``l`` of a triangle is the one opposite local vertex ``l``
    tri_edge_signs : (nt, 3) int array, +1 when the triangle's outward
        normal on that edge agrees with the global edge normal
    areas : (nt,) float array
    boundary_edge : (ne,) bool array
    """

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)

        p = self.vertices
        t = self.triangles
        d1 = p[t[:, 1]] - p[t[:, 0]]
        d2 = p[t[:, 2]] - p[t[:, 0]]
        cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(cross <= 0.0):
            raise ValueError("triangles must be counterclockwise")
        self.areas = 0.5 * cross

        # local edge l runs counterclockwise from a to b; edges are numbered
        # in the order they first appear, oriented low -> high vertex index
        a, b = t[:, [1, 2, 0]].ravel(), t[:, [2, 0, 1]].ravel()
        n_v = p.shape[0]
        keys, first, inverse, counts = np.unique(
            np.minimum(a, b) * n_v + np.maximum(a, b), return_index=True,
            return_inverse=True, return_counts=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.edges = np.column_stack([keys[order] // n_v, keys[order] % n_v])
        self.tri_edges = rank[inverse].reshape(t.shape)
        self.tri_edge_signs = np.where(a < b, 1, -1).reshape(t.shape)
        if np.any(counts > 2):
            raise ValueError("non-conforming mesh: edge shared by > 2 triangles")
        self.boundary_edge = counts[order] == 1

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def edge_lengths(self) -> np.ndarray:
        vec = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return np.hypot(vec[:, 0], vec[:, 1])


def structured_unit_square(m: int) -> TriMesh:
    """Structured triangulation of the unit square, ``2*m*m`` triangles.

    Each of the ``m x m`` cells is split along its SW-NE diagonal.  The
    mesh size (longest edge) is ``sqrt(2)/m``.
    """
    if m < 1:
        raise ValueError(f"need at least one division per side, got m={m}")
    side = np.arange(m + 1, dtype=float) / m
    xx, yy = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # south-west vertex of each cell, cells row by row
    v00 = (np.arange(m) + (m + 1) * np.arange(m)[:, None]).ravel()
    v10, v01, v11 = v00 + 1, v00 + m + 1, v00 + m + 2
    tris = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    return TriMesh(vertices, tris)
