"""Pointwise and per-cell oracles that only the tests use.

They evaluate the discrete spaces one cell or one point at a time, the
slow and obvious way, so that the tests can check the vectorized
assembly and the cell-constant fields of `porobiot.fem` against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from porobiot.fem import FeFunction, SpaceKind
from porobiot.mesh import MeshError


@dataclass(frozen=True)
class CellGeometry:
    """Affine geometry of one triangle: area, barycentric gradients, diameter."""

    area: float
    grads: np.ndarray  # (3, 2), gradients of the barycentric coordinates
    diameter: float


def cell_geometry(mesh, cell):
    """Area, barycentric gradients and diameter of one cell."""
    if not 0 <= cell < mesh.n_cells:
        raise ValueError(f"cell index {cell} out of range")
    area = float(mesh.areas[cell])
    if area <= 0.0:
        raise MeshError(f"degenerate cell {cell}")
    return CellGeometry(area, mesh.grads[cell].copy(), float(mesh.diameters[cell]))


def edge_normal(mesh, edge):
    """Unit normal of the globally oriented edge (tangent rotated by -90 deg)."""
    a, b = mesh.edges[edge]
    t = mesh.vertices[b] - mesh.vertices[a]
    t = t / np.linalg.norm(t)
    return np.array([t[1], -t[0]])


def rt0_basis(mesh, cell, point):
    """The three RT0 basis functions of a cell at a point inside it.

    Returns a list of (value, divergence) pairs ordered like the cell's
    edges.  Basis i has unit normal trace along the global normal of its
    edge and zero trace on the other two.
    """
    point = np.asarray(point, dtype=float)
    lam = mesh._bary(cell, point)
    if lam.min() < -1e-12:
        raise ValueError(f"point {point} outside cell {cell}")
    area = mesh.areas[cell]
    out = []
    for i in range(3):
        eid = mesh.cell_edge_ids[cell, i]
        sign = mesh.cell_edge_signs[cell, i]
        elen = mesh.edge_lengths[eid]
        opp = mesh.vertices[mesh.cells[cell, i]]
        value = sign * elen / (2.0 * area) * (point - opp)
        div = sign * elen / area
        out.append((value, float(div)))
    return out


def p1_vector_eval(mesh, cell, coeffs, point=None):
    """Value, gradient, divergence and strain of a local P1 vector field.

    `coeffs` holds the six local coefficients (x0, y0, x1, y1, x2, y2);
    gradient, divergence and strain are constant over the cell.  The value
    is taken at `point` (cell barycenter when omitted).
    """
    coeffs = np.asarray(coeffs, dtype=float).reshape(3, 2)
    grads = mesh.grads[cell]
    grad = coeffs.T @ grads  # grad[c, d] = d u_c / d x_d
    div = float(np.trace(grad))
    strain = 0.5 * (grad + grad.T)
    if point is None:
        lam = np.full(3, 1 / 3)
    else:
        lam = mesh._bary(cell, np.asarray(point, dtype=float))
    value = lam @ coeffs
    return value, grad, div, strain


def p1_vector_div_cells(f: FeFunction):
    """Cellwise (constant) divergence of a vector P1 function, shape (F,)."""
    _require(f, SpaceKind.P1_VECTOR)
    mesh = f.mesh
    local = f.coeffs[f.dofmap.cell_to_dofs].reshape(-1, 3, 2)
    return np.einsum("fvc,fvc->f", local, mesh.grads)


def rt0_div_cells(f: FeFunction):
    """Cellwise (constant) divergence of an RT0 function, shape (F,)."""
    _require(f, SpaceKind.RT0)
    mesh = f.mesh
    local = f.coeffs[f.dofmap.cell_to_dofs]
    signed_len = mesh.cell_edge_signs * mesh.edge_lengths[mesh.cell_edge_ids]
    return (local * signed_len).sum(axis=1) / mesh.areas


def _require(f, kind):
    if f.kind is not kind:
        raise ValueError(f"expected a {kind.value} function, got {f.kind.value}")
