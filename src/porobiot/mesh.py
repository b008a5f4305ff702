"""Structured triangulations of axis-aligned rectangles.

Each grid quad is split along its lower-left to upper-right diagonal,
giving a deterministic conforming triangle mesh with globally oriented
edges (low vertex index to high vertex index).  The per-cell edge signs
convert the global edge normal into the cell-outward normal, which is
the bookkeeping lowest-order Raviart-Thomas elements need.
"""

from __future__ import annotations

import enum

import numpy as np


class MeshError(RuntimeError):
    """Invalid mesh topology or degenerate geometry."""


class Side(enum.Enum):
    """Boundary side tags of the rectangle."""

    LEFT = "left"
    RIGHT = "right"
    BOTTOM = "bottom"
    TOP = "top"


class Mesh:
    """Conforming triangulation of a rectangle with oriented edge data.

    Attributes
    ----------
    vertices : (V, 2) float array
    cells : (F, 3) int array
        Vertex indices, counter-clockwise.
    edges : (E, 2) int array
        Vertex index pairs, low index first.
    cell_edge_ids : (F, 3) int array
        Global edge index of the edge opposite each local vertex.
    cell_edge_signs : (F, 3) int array
        +1 where the global edge normal is cell-outward, -1 otherwise.
    boundary_tags : dict[int, Side]
        Side tag for every boundary edge; the edges of each side are
        gathered once into the sorted read-only array `boundary_edges` returns.
    """

    def __init__(self, vertices, cells, edges, cell_edge_ids, cell_edge_signs,
                 boundary_tags, structured=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.edges = np.asarray(edges, dtype=np.int64)
        self.cell_edge_ids = np.asarray(cell_edge_ids, dtype=np.int64)
        self.cell_edge_signs = np.asarray(cell_edge_signs, dtype=np.int64)
        self.boundary_tags = dict(boundary_tags)
        # (origin, extent, nx, ny) when built by generate_rect_mesh
        self.structured = structured
        self._compute_geometry()
        self._side_edges = {
            side: np.array(sorted(e for e, t in self.boundary_tags.items()
                                  if t is side), dtype=np.int64)
            for side in Side}
        for arr in (self.vertices, self.cells, self.edges,
                    self.cell_edge_ids, self.cell_edge_signs,
                    self.areas, self.grads, self.diameters, self.edge_lengths,
                    *self._side_edges.values()):
            arr.flags.writeable = False

    def _compute_geometry(self):
        # corner coordinates with the cells last, (3, F) each: the element
        # passes run along the cells
        cx, cy = self.vertices.T[:, self.cells.T]
        twice_area = ((cx[1] - cx[0]) * (cy[2] - cy[0])
                      - (cy[1] - cy[0]) * (cx[2] - cx[0]))
        # the negated test also refuses NaN areas
        if not np.all(twice_area > 0.0):
            raise MeshError("non-positive cell area (cells must be counter-clockwise)")
        self.areas = 0.5 * twice_area
        # gradient of barycentric i = perp(opposite edge vector) / (2 area),
        # the edge running from corner i + 1 to corner i + 2
        nxt, prv = [1, 2, 0], [2, 0, 1]
        grads = np.stack([-(cy[prv] - cy[nxt]), cx[prv] - cx[nxt]]) / twice_area
        self.grads = np.ascontiguousarray(grads.transpose(2, 1, 0))
        ev = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        self.edge_lengths = np.sqrt(ev[:, 0] * ev[:, 0] + ev[:, 1] * ev[:, 1])
        # the sides of a cell are the edges opposite its corners
        self.diameters = self.edge_lengths[self.cell_edge_ids].max(axis=1)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def h(self):
        """Mesh size: maximum cell diameter."""
        return float(self.diameters.max())

    def boundary_edges(self, tag):
        """Edge indices on the given boundary side: ascending, read-only."""
        return self._side_edges[tag]

    def cell_centroids(self):
        return self.vertices[self.cells].mean(axis=1)

    def locate_cell(self, point):
        """Index of a cell containing `point` (structured fast path, else scan)."""
        point = np.asarray(point, dtype=float)
        if not np.all(np.isfinite(point)):
            raise MeshError(f"point {point} lies outside the mesh")
        if self.structured is not None:
            origin, extent, nx, ny = self.structured
            fx = (point[0] - origin[0]) / extent[0] * nx
            fy = (point[1] - origin[1]) / extent[1] * ny
            ix = min(max(int(fx), 0), nx - 1)
            iy = min(max(int(fy), 0), ny - 1)
            base = 2 * (iy * nx + ix)
            # lower triangle of the quad holds points below the diagonal
            if (fx - ix) >= (fy - iy):
                cand = (base, base + 1)
            else:
                cand = (base + 1, base)
            for c in cand:
                if self._bary(c, point).min() >= -1e-12:
                    return c
        for c in range(self.n_cells):
            if self._bary(c, point).min() >= -1e-12:
                return c
        raise MeshError(f"point {point} lies outside the mesh")

    def _bary(self, cell, point):
        corners = self.vertices[self.cells[cell]]
        lam = np.empty(3)
        for i in range(3):
            g = self.grads[cell, i]
            lam[i] = 1.0 + g @ (point - corners[i])
        return lam


def generate_rect_mesh(origin, extent, nx, ny):
    """Triangulate [origin, origin+extent] with an nx-by-ny grid of split quads.

    Parameters
    ----------
    origin, extent : length-2 sequences of finite numbers, extent positive
    nx, ny : int
        Number of quads per direction; each quad yields two triangles.
    """
    for n in (nx, ny):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"nx and ny must be integers, not {n!r}")
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    origin = np.asarray(origin, dtype=float)
    extent = np.asarray(extent, dtype=float)
    if not (np.all(np.isfinite(origin)) and np.all(np.isfinite(extent))):
        raise ValueError("origin and extent must be finite")
    if extent[0] <= 0 or extent[1] <= 0:
        raise ValueError("extents must be positive")

    xs = origin[0] + extent[0] * np.arange(nx + 1) / nx
    ys = origin[1] + extent[1] * np.arange(ny + 1) / ny
    xx, yy = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # quad k = j nx + i (lower-left vertex v00) yields cell 2k below its
    # v00-v11 diagonal and cell 2k + 1 above it
    jj, ii = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    v00 = (jj * (nx + 1) + ii).ravel()
    v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
    cells = np.empty((2 * nx * ny, 3), dtype=np.int64)
    cells[0::2] = np.column_stack([v00, v10, v11])
    cells[1::2] = np.column_stack([v00, v11, v01])

    # global edges: the sorted vertex pairs (a, b) in lexicographic order.
    # Vertex a starts its horizontal edge to a + 1, its vertical edge to
    # a + nx + 1 and its diagonal edge to a + nx + 2, in that order, where
    # the grid has them, so the edges are numbered in turn over these
    # (vertex, kind) pairs
    has = np.zeros((ny + 1, nx + 1, 3), dtype=bool)
    has[:, :nx, 0] = has[:ny, :, 1] = has[:ny, :nx, 2] = True
    hor, ver, diag = (np.cumsum(has.ravel()) - 1).reshape(-1, 3).T
    a, kind = np.divmod(np.flatnonzero(has), 3)
    edges = np.column_stack([a, a + np.array([1, nx + 1, nx + 2])[kind]])
    # the edge opposite each corner of the cells below and above the diagonal
    cell_edge_ids = np.empty_like(cells)
    cell_edge_ids[0::2] = np.column_stack([ver[v10], diag[v00], hor[v00]])
    cell_edge_ids[1::2] = np.column_stack([hor[v01], ver[v00], diag[v00]])
    # +1 where the global normal, the tangent b - a turned by -90 degrees,
    # points away from the opposite corner: out of the lower cell through
    # its vertical and horizontal sides, out of the upper one through the
    # diagonal
    signs = np.tile(np.array([[1, -1, 1], [-1, -1, 1]]), (nx * ny, 1))

    counts = np.bincount(cell_edge_ids.ravel(), minlength=len(edges))
    if not np.all((counts == 1) | (counts == 2)):
        raise MeshError("edge shared by more than two cells")
    boundary = np.nonzero(counts == 1)[0]

    x0, y0 = origin
    x1, y1 = origin + extent
    atol = 1e-12 * max(extent)
    pa, pb = vertices[edges[boundary, 0]], vertices[edges[boundary, 1]]

    def on(coord, value):
        return ((np.abs(pa[:, coord] - value) < atol)
                & (np.abs(pb[:, coord] - value) < atol))

    # the first side that holds both end points tags the edge
    on_side = [on(0, x0), on(0, x1), on(1, y0), on(1, y1)]
    if not np.all(np.any(on_side, axis=0)):
        raise MeshError("boundary edge not on the rectangle boundary")
    sides = np.array([Side.LEFT, Side.RIGHT, Side.BOTTOM, Side.TOP])
    boundary_tags = dict(zip(boundary.tolist(), sides[np.argmax(on_side, axis=0)]))

    return Mesh(vertices, cells, edges, cell_edge_ids, signs, boundary_tags,
                structured=(tuple(origin), tuple(extent), nx, ny))
