"""Discrete spaces on triangle meshes: vector P1, lowest-order Raviart-Thomas, P0.

DOF conventions
---------------
* vector P1: two DOFs per vertex, interleaved (x-component at 2*v, y at 2*v+1);
* RT0: one DOF per edge, the constant normal component of the field along the
  globally oriented edge normal;
* P0: one DOF per cell.

Set-up kernels
--------------
Per-cell arrays are formed with the cells on the last axis, so that each
product runs along the cells: the quadrature points
(`quadrature_points`), the RT0 basis values (`_rt0_values_at`) and the
RT0 local masses, whose sums run in the order the einsums they replace
summed in, so that no bit moves.  `scatter` is the one element-to-CSR
scatter: it sums element matrices by one COO to CSR conversion, and two
matrices on one pattern by one conversion onto one shared structure.
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh


class SpaceKind(enum.Enum):
    P1_VECTOR = "p1_vector"
    RT0 = "rt0"
    P0 = "p0"


class DofMap:
    """Cell-to-global DOF map for one discrete space on one mesh."""

    def __init__(self, mesh: Mesh, kind: SpaceKind):
        self.mesh = mesh
        self.kind = kind
        if kind is SpaceKind.P1_VECTOR:
            self.n_dofs = 2 * mesh.n_vertices
            c = mesh.cells
            self.cell_to_dofs = np.stack(
                [2 * c[:, 0], 2 * c[:, 0] + 1,
                 2 * c[:, 1], 2 * c[:, 1] + 1,
                 2 * c[:, 2], 2 * c[:, 2] + 1], axis=1)
        elif kind is SpaceKind.RT0:
            self.n_dofs = mesh.n_edges
            self.cell_to_dofs = mesh.cell_edge_ids.copy()
        elif kind is SpaceKind.P0:
            self.n_dofs = mesh.n_cells
            self.cell_to_dofs = np.arange(mesh.n_cells, dtype=np.int64)[:, None]
        else:
            raise ValueError(f"unknown space kind {kind}")
        self.cell_to_dofs.flags.writeable = False
        self._mass = None

    @property
    def mass_matrix(self):
        """Global mass matrix of the space (CSR, assembled lazily)."""
        if self._mass is None:
            self._mass = _assemble_mass(self)
        return self._mass


class FeFunction:
    """Coefficient vector bound to a DofMap, or an (n, k) block of k of
    them."""

    def __init__(self, dofmap: DofMap, coeffs=None):
        self.dofmap = dofmap
        if coeffs is None:
            coeffs = np.zeros(dofmap.n_dofs)
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape[:1] != (dofmap.n_dofs,) or self.coeffs.ndim > 2:
            raise ValueError("coefficient length does not match the DOF map")

    @property
    def mesh(self):
        return self.dofmap.mesh

    @property
    def kind(self):
        return self.dofmap.kind

    def copy(self):
        return FeFunction(self.dofmap, self.coeffs.copy())


class QuadratureRule:
    """Barycentric points and weights on the reference triangle, weights sum
    to 1; read-only, as `quadrature` hands the same rule to every caller."""

    def __init__(self, points, weights):
        self.points = np.array(points, dtype=float)
        self.weights = np.array(weights, dtype=float)
        self.points.flags.writeable = self.weights.flags.writeable = False


_RULES = {}


def quadrature(degree) -> QuadratureRule:
    """Quadrature rule exact for polynomials up to `degree` (1, 2 or 4)."""
    if degree in _RULES:
        return _RULES[degree]
    if degree == 1:
        pts = [(1 / 3, 1 / 3, 1 / 3)]
        wts = [1.0]
    elif degree == 2:
        pts = [(2 / 3, 1 / 6, 1 / 6), (1 / 6, 2 / 3, 1 / 6), (1 / 6, 1 / 6, 2 / 3)]
        wts = [1 / 3] * 3
    elif degree == 4:
        a1, a2 = 0.445948490915965, 0.091576213509771
        w1, w2 = 0.223381589678011, 0.109951743655322
        pts, wts = [], []
        for a, w in ((a1, w1), (a2, w2)):
            b = 1.0 - 2.0 * a
            pts += [(b, a, a), (a, b, a), (a, a, b)]
            wts += [w] * 3
    else:
        raise ValueError(f"unsupported quadrature degree {degree}")
    rule = QuadratureRule(pts, wts)
    _RULES[degree] = rule
    return rule


def quadrature_points(mesh, rule):
    """Coordinates (x, y) of the points of `rule` in every cell, shape
    (2, F, nq)."""
    corners = mesh.vertices.T[:, mesh.cells.T]      # (2, 3, F)
    return np.ascontiguousarray(_points(corners, rule).transpose(0, 2, 1))


def _points(corners, rule):
    """The points of `rule` in cells of corners (2, 3, F), shape (2, nq, F):
    sum_v lam_v x_v, summed in vertex order."""
    return sum(rule.points[None, :, v, None] * corners[:, None, v]
               for v in range(3))


def _rt0_local_mass(mesh, weight=1.0):
    """Per-cell RT0 mass matrices int weight phi_i . phi_j, shape (F, 3, 3).

    `weight` is a constant; the degree-2 rule is exact for products of
    linear fields.  The products run along the cells and sum each point's
    two components first, then the points in turn.  Each local matrix is
    averaged with its transpose, whose products round apart, so that the
    assembled mass equals its transpose to the last bit.
    """
    rule = quadrature(2)
    loc = 0.0
    for w, (vx, vy) in zip(rule.weights * weight, _rt0_values_at(mesh, rule)):
        loc = loc + ((w * vx)[:, None] * vx + (w * vy)[:, None] * vy)
    loc = loc * mesh.areas
    return (0.5 * (loc + loc.transpose(1, 0, 2))).transpose(2, 0, 1)


def _rt0_values_at(mesh, rule):
    """RT0 basis values at the points of `rule` in every cell, shape
    (nq, 2, 3, F): component d of basis i at point q of cell f."""
    corners = mesh.vertices.T[:, mesh.cells.T]      # (2, 3, F)
    pts = _points(corners, rule).transpose(1, 0, 2)  # (nq, 2, F)
    signed = mesh.cell_edge_signs.T * mesh.edge_lengths[mesh.cell_edge_ids.T]
    scale = signed / (2.0 * mesh.areas)             # (3, F)
    return scale * (pts[:, :, None, :] - corners)


def scatter(shape, rows, cols, *local):
    """The CSR matrix of `shape` that sums the element matrices `local`, or
    one such matrix per array when two are given: entry (f, i, j) of an
    array adds to row rows[f, i, j] and column cols[f, i, j], where `rows`
    and `cols` broadcast against the arrays.  Entries at a negative row or
    column are left out.

    The entries are summed by scipy's COO to CSR conversion in their
    (f, i, j) order, which fixes the order of each sum and so its bits.
    Two arrays share one structure and one conversion, as the real and
    imaginary parts of one complex array: the conversion orders entries by
    their indices alone, so each part is summed as on its own.
    """
    dropped = min(rows.min(), cols.min()) < 0
    # the index type scipy would choose, so that it keeps these arrays
    index = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    rows, cols = (np.broadcast_to(a, local[0].shape).astype(index, order="C")
                  .ravel() for a in (rows, cols))
    if len(local) == 1:
        values = local[0].ravel()
    else:
        first, second = local
        values = np.empty(first.shape, dtype=complex)
        values.real, values.imag = first, second
        values = values.ravel()
    if dropped:
        kept = (rows >= 0) & (cols >= 0)
        rows, cols, values = rows[kept], cols[kept], values[kept]
    csr = sp.coo_matrix((values, (rows, cols)), shape=shape).tocsr()
    if len(local) == 1:
        return csr
    return tuple(sp.csr_matrix((part.copy(), csr.indices, csr.indptr),
                               shape=shape)
                 for part in (csr.data.real, csr.data.imag))


def _assemble_mass(dofmap: DofMap, numbering=None, n=None):
    """The mass matrix of the space (CSR), or R^T M R where DOF i is
    unknown numbering[i] of n (dropped where that is negative), assembled
    without zero local entries: the two displacement components, which do
    not couple, as two scalar P1 masses.  It is averaged with its
    transpose, whose sums over the DOFs of one unknown (a tie group) round
    apart, so that it equals its transpose to the last bit."""
    if numbering is None:
        numbering, n = np.arange(dofmap.n_dofs), dofmap.n_dofs
    mesh = dofmap.mesh
    dofs = numbering[dofmap.cell_to_dofs]
    if dofmap.kind is SpaceKind.P1_VECTOR:
        m3 = (np.ones((3, 3)) + np.eye(3)) / 12.0  # int lam_i lam_j / area
        dofs = dofs.reshape(-1, 3, 2).transpose(0, 2, 1)   # (F, component, vertex)
        loc = np.broadcast_to((mesh.areas[:, None, None] * m3)[:, None],
                              dofs.shape + (3,))
    elif dofmap.kind is SpaceKind.RT0:
        loc = _rt0_local_mass(mesh)
    else:
        loc = mesh.areas[:, None, None]
    mass = scatter((n, n), np.where(loc != 0.0, dofs[..., :, None], -1),
                   dofs[..., None, :], loc)
    return (0.5 * (mass + mass.T)).tocsr()


def l2_inner(f: FeFunction, g: FeFunction):
    """L2 inner product of two functions from the same space."""
    if f.dofmap is not g.dofmap:
        if f.kind is not g.kind or f.dofmap.n_dofs != g.dofmap.n_dofs \
                or f.mesh is not g.mesh:
            raise ValueError("functions live in different spaces")
    return float(f.coeffs @ (f.dofmap.mass_matrix @ g.coeffs))


def l2_norm(f, mass=None):
    """L2 norm of a finite element function (mass-matrix weighted), or of
    the coefficients `f` measured in `mass`: a sparse matrix, or the
    diagonal of a diagonal one.

    A block of coefficients gives the array of its columns' norms by one
    `np.vecdot` of contiguous copies of the columns: it makes the BLAS dot
    of a vector on each, so each norm has the bits of its column's, where
    a dot over strided columns may sum in another order.
    """
    if mass is None:   # the P0 mass is the diagonal of the cell areas
        f, mass = f.coeffs, (f.mesh.areas if f.kind is SpaceKind.P0
                             else f.dofmap.mass_matrix)
    mf = per_row(mass, f) * f if mass.ndim == 1 else mass @ f
    if f.ndim == 1:
        return float(np.sqrt(max(f @ mf, 0.0)))
    sq = np.vecdot(np.ascontiguousarray(f.T), np.ascontiguousarray(mf.T))
    return np.sqrt(np.maximum(sq, 0.0))


def per_row(v, x):
    """`v`, one value per row of `x`, shaped to broadcast against `x`: a
    coefficient vector or an (n, k) block of k of them."""
    return v if x.ndim == 1 else v[:, None]


def _values(fn, x, y, shape):
    """Values of `fn` at the points (x, y), as a new array of `shape`.

    A vector field returns a pair of parts or an array with a trailing
    component axis; scalars, scalar parts and constant arrays are
    broadcast over the points.
    """
    val = fn(x, y)
    if isinstance(val, (tuple, list)):
        val = np.stack([np.broadcast_to(np.asarray(v, dtype=float), x.shape)
                        for v in val], axis=-1)
    return np.array(np.broadcast_to(np.asarray(val, dtype=float), shape))


def interpolate(dofmap: DofMap, fn) -> FeFunction:
    """Canonical interpolation of a callable field.

    P0 takes cell-centroid values, vector P1 vertex values and RT0 the
    normal component at edge midpoints (exact for fields with edgewise
    linear normal traces).  `fn` is called once, on the arrays (x, y) of
    all those points, and returns an array of values for P0 and, for the
    vector spaces, a pair of parts or an array with a trailing component
    axis of length 2.  Scalars, scalar parts and constant arrays are
    broadcast over the points.
    """
    mesh = dofmap.mesh
    if dofmap.kind is SpaceKind.P0:
        cent = mesh.cell_centroids()
        coeffs = _values(fn, cent[:, 0], cent[:, 1], (mesh.n_cells,))
    elif dofmap.kind is SpaceKind.P1_VECTOR:
        v = mesh.vertices
        coeffs = _values(fn, v[:, 0], v[:, 1], (mesh.n_vertices, 2)).ravel()
    elif dofmap.kind is SpaceKind.RT0:
        a = mesh.vertices[mesh.edges[:, 0]]
        b = mesh.vertices[mesh.edges[:, 1]]
        mid = 0.5 * (a + b)
        val = _values(fn, mid[:, 0], mid[:, 1], (mesh.n_edges, 2))
        # unit normal of the globally oriented edge: the tangent rotated by -90 deg
        t = (b - a) / mesh.edge_lengths[:, None]
        coeffs = val[:, 0] * t[:, 1] + val[:, 1] * -t[:, 0]
    else:
        raise ValueError(f"unknown space kind {dofmap.kind}")
    return FeFunction(dofmap, coeffs)
