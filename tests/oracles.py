"""Pointwise, per-cell and direct-solve oracles that only the tests use.

They evaluate the discrete spaces one cell or one point at a time, the
slow and obvious way, so that the tests can check the vectorized
assembly and the cell-constant fields of `porobiot.fem` against them.
`lu_solve` solves the nonsymmetric block systems (the 3x3 monolithic and
the 2x2 flux-pressure block) that no run factors, `vector_step` is one
scheme iteration by vectors in full coordinates, the reference of the
step in reduced coordinates, `full_increment_norms` measures an
increment on the full fields, the reference of the reduced masses, and
`step_chain` marches by one `iterate_to_convergence` call per step, the
reference of the march that carries its iterate.
The reference kernels (`einsum_points`, `einsum_rt0_values`,
`reference_operators`, `reference_mass`, `reference_mesh`) are the
set-up formulas that `porobiot` replaced by products along the cells and
one scatter: einsums, strided writes, one COO to CSR conversion per
matrix, and a mesh built by `np.unique` with orientations from geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porobiot.fem import FeFunction, SpaceKind, l2_norm, quadrature
from porobiot.linalg import gmres
from porobiot.mesh import MeshError
from porobiot.schemes import BiotState, iterate_to_convergence


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


def lu_solve(matrix, b):
    """x with matrix @ x = b, for a nonsingular sparse matrix of any
    symmetry.  The matrix is equilibrated by the inverse square roots of
    its diagonal magnitudes (of its largest row entry where the diagonal
    is zero), factored with the COLAMD ordering and partial pivoting, and
    each column of x whose relative residual exceeds 1e-12 is refined
    once."""
    a = sp.csc_matrix(matrix)
    a.sum_duplicates()
    d = np.abs(a.diagonal())
    rowmax = np.abs(a).max(axis=1).toarray().ravel()
    s = 1.0 / np.sqrt(np.where(d > 0.0, d, np.where(rowmax > 0.0, rowmax, 1.0)))
    col = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
    scaled = sp.csc_matrix((s[a.indices] * a.data * s[col], a.indices.copy(),
                            a.indptr.copy()), shape=a.shape)
    scaled.eliminate_zeros()
    lu = spla.splu(scaled)

    def raw(rhs):
        sr = s if rhs.ndim == 1 else s[:, None]
        return sr * lu.solve(sr * rhs)

    b = np.asarray(b, dtype=float)
    x = raw(b)
    r = b - a @ x
    # each column's norms are np.linalg.norm's of its own vector
    rs, bs = (np.ascontiguousarray(v.reshape(len(v), -1).T) for v in (r, b))
    refine = [j for j, (rj, bj) in enumerate(zip(rs, bs))
              if np.sqrt(rj @ rj) > 1e-12 * np.sqrt(bj @ bj)]
    if refine:
        x.reshape(len(x), -1)[:, refine] += raw(r.reshape(len(r), -1)[:, refine])
    return x


def vector_step(solver, cur, ctx):
    """One iteration of the `SchemeSolver` `solver` from the `BiotState`
    `cur`, by vectors in full coordinates: the right-hand side is formed
    from the fields of `cur`, restricted by the sparse product R^T, R the
    `BlockConstraints.composed` restriction of the fields that the step
    solves for, solved (by the matrix built here from the assembled blocks,
    or by the solver's factorization), and expanded by R, GMRES started
    from the reduced coordinates that the index of R gives `cur` and
    forced on the solver's blocks (`SchemeSolver.forcing`).
    `SchemeSolver.step` forms the same iteration in reduced coordinates."""
    ops, cfg, alpha, tau = solver.ops, solver.cfg, solver.ops.mat.alpha, ctx.tau
    names = ("u", "q", "p")
    if solver.mono_lu is not None:
        names = ("u", "q")
    elif cfg.kind == "monolithic":
        matrix = ops.monolithic_system(cfg.L1, cfg.L2, tau)
    else:   # the splitting operator, which the sweep inverts
        matrix = ops._reduced(sp.bmat(
            [[ops.a_e + cfg.L2 * ops.d_div, None, -alpha * ops.b_up],
             [None, ops.m_q, -ops.b_qp_t],
             [None, tau * ops.b_qp, cfg.L1 * ops.m_p]], format="csr"), names)
    R = ops.constraints.composed(names)
    u, p = cur.u.coeffs, cur.p.coeffs
    divu = ops.divu_dual(u)
    rhs_u = ctx.f_vec + cfg.L2 * (ops.d_div @ u) - ops.hu_dual(u)
    rhs_p = ctx.mass_const - ops.bp_dual(p) + cfg.L1 * (ops.mesh.areas * p)
    if solver.mono_lu is not None:
        l1_areas = cfg.L1 * ops.mesh.areas
        w = rhs_p / l1_areas
        rhs = np.concatenate([rhs_u + alpha * (ops.b_up @ w),
                              tau * (ctx.g_vec + ops.b_qp_t @ w)])
    else:
        if cfg.kind == "splitting":
            rhs_p = rhs_p - alpha * divu
        rhs = np.concatenate([rhs_u, ctx.g_vec, rhs_p])
    r = R.T @ rhs
    if solver.mono_lu is not None:
        x_red = solver.mono_lu.solve(r)
    elif cfg.kind == "monolithic":
        x0 = np.empty(R.shape[1])
        x0[R.indices] = np.concatenate([u, cur.q.coeffs, p])[np.diff(R.indptr) > 0]
        opts = ops.solver
        x_red = gmres(matrix, r, preconditioner=solver.sweep,
                      restart=opts.restart, rtol=opts.rtol,
                      maxiter=opts.maxiter, x0=x0, blocks=solver.forcing)[0]
    else:
        x_red = solver.sweep.matvec(r)
    x = R @ x_red
    nu, nq = ops.dofmap_u.n_dofs, ops.dofmap_q.n_dofs
    u, q, p = x[:nu], x[nu:nu + nq], x[nu + nq:]
    if solver.mono_lu is not None:
        p = (rhs_p - (alpha * ops.divu_dual(u)
                      + tau * (ops.b_qp @ q))) / l1_areas
    return BiotState(FeFunction(ops.dofmap_u, u), FeFunction(ops.dofmap_q, q),
                     FeFunction(ops.dofmap_p, p), ctx.t_new)


def full_increment_norms(solver, dx):
    """The L2 norms (dp, dq, du) of the fields of the increment dx, a
    vector or a block of the `SchemeSolver` `solver`'s reduced coordinates:
    each field is expanded by the sparse product with its restriction R and
    measured by `l2_norm` in the mass of its space.
    `SchemeSolver.increment_norms` measures dx in reduced coordinates."""
    ops, con, (nu, nq, _) = solver.ops, solver.ops.constraints, solver.sizes
    return (l2_norm(FeFunction(ops.dofmap_p, dx[nu + nq:])),
            l2_norm(FeFunction(ops.dofmap_q,
                               con.q.restriction @ dx[nu:nu + nq])),
            l2_norm(FeFunction(ops.dofmap_u, con.u.restriction @ dx[:nu])))


def step_chain(ops, cfg, tau, n_steps, initial):
    """The (state, trace) pairs of n_steps time steps from `initial`, each
    one `iterate_to_convergence` call from the state the step before
    returned, with its loads assembled and its step context built from
    that state's full fields.  `schemes.march` carries the reduced iterate
    from step to step, with one `SchemeSolver` for the run."""
    prev, out = initial, []
    for _ in range(n_steps):
        prev, trace = iterate_to_convergence(prev, cfg, ops, ops.mat,
                                             ops.problem, tau)
        out.append((prev, trace))
    return out


# -- reference set-up kernels ----------------------------------------------

def einsum_points(mesh, rule):
    """Quadrature points of every cell by einsum, shape (F, nq, 2)."""
    return np.einsum("qv,fvd->fqd", rule.points, mesh.vertices[mesh.cells])


def einsum_rt0_values(mesh, rule):
    """RT0 basis values at the points of `rule`, shape (F, nq, 3, 2)."""
    corners = mesh.vertices[mesh.cells]
    signed = mesh.cell_edge_signs * mesh.edge_lengths[mesh.cell_edge_ids]
    scale = signed / (2.0 * mesh.areas[:, None])
    diff = einsum_points(mesh, rule)[:, :, None, :] - corners[:, None, :, :]
    return scale[:, None, :, None] * diff


def einsum_rt0_mass(mesh, weight=1.0):
    """Local RT0 masses by the four-operand einsum, symmetrized."""
    rule = quadrature(2)
    vals = einsum_rt0_values(mesh, rule)
    w = np.broadcast_to(rule.weights * weight, (mesh.n_cells, len(rule.weights)))
    loc = np.einsum("fq,fqid,fqjd->fij", w, vals, vals) * mesh.areas[:, None, None]
    return 0.5 * (loc + loc.transpose(0, 2, 1))


def coo_csr(row_dofs, col_dofs, local, shape):
    """One COO to CSR conversion of the element matrices `local` (F, i, j)."""
    rows = np.repeat(row_dofs, col_dofs.shape[1], axis=1).ravel()
    cols = np.tile(col_dofs, (1, row_dofs.shape[1])).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()


def reference_operators(mesh, mat, dofmap_u, dofmap_q):
    """The six blocks {name: CSR matrix} by the reference kernels."""
    grads, areas, n_cells = mesh.grads, mesh.areas, mesh.n_cells
    gg = np.einsum("fvd,fwd->fvw", grads, grads)
    a_loc = np.zeros((n_cells, 6, 6))
    for c in range(2):
        for cp in range(2):
            term = np.einsum("fw,fv->fvw", grads[:, :, c], grads[:, :, cp])
            if c == cp:
                term = term + gg
            a_loc[:, c::2, cp::2] = term
    a_loc *= (mat.mu * areas)[:, None, None]
    divloc = grads.reshape(n_cells, 6)
    d_loc = areas[:, None, None] * divloc[:, :, None] * divloc[:, None, :]
    du, dq = dofmap_u.cell_to_dofs, dofmap_q.cell_to_dofs
    cells = np.arange(n_cells)[:, None]
    n_u, n_q = dofmap_u.n_dofs, dofmap_q.n_dofs
    signed = mesh.cell_edge_signs * mesh.edge_lengths[mesh.cell_edge_ids]
    return {
        "a_e": coo_csr(du, du, a_loc, (n_u, n_u)),
        "d_div": coo_csr(du, du, d_loc, (n_u, n_u)),
        "b_up": coo_csr(du, cells, (areas[:, None] * divloc)[:, :, None],
                        (n_u, n_cells)),
        "m_q": coo_csr(dq, dq, einsum_rt0_mass(mesh, mat.nu_f / mat.permeability),
                       (n_q, n_q)),
        "b_qp": coo_csr(cells, dq, signed[:, None, :], (n_cells, n_q)),
        "m_p": sp.diags(areas).tocsr(),
    }


def reference_mass(dofmap, numbering, n):
    """R^T M R of the space by its (F, k, k) local masses, without the
    zero entries and the DOFs numbered negative."""
    mesh = dofmap.mesh
    if dofmap.kind is SpaceKind.P1_VECTOR:
        m3 = (np.ones((3, 3)) + np.eye(3)) / 12.0
        loc = np.zeros((6, 6))
        for i in range(3):
            for j in range(3):
                loc[2 * i, 2 * j] = loc[2 * i + 1, 2 * j + 1] = m3[i, j]
        loc = mesh.areas[:, None, None] * loc[None, :, :]
    elif dofmap.kind is SpaceKind.RT0:
        loc = einsum_rt0_mass(mesh)
    else:
        loc = mesh.areas[:, None, None]
    loc = loc.ravel()
    dofs = numbering[dofmap.cell_to_dofs]
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    kept = (loc != 0.0) & (rows >= 0) & (cols >= 0)
    return sp.coo_matrix((loc[kept], (rows[kept], cols[kept])),
                         shape=(n, n)).tocsr()


def reference_mesh(mesh):
    """The edges, cell edges, signs and geometry of `mesh` rebuilt from its
    vertices and cells: the edges by `np.unique` of the sorted local vertex
    pairs, each sign from the normal and the opposite corner, lengths and
    diameters by `np.linalg.norm`.  {attribute name: array}."""
    vertices, cells = mesh.vertices, mesh.cells
    n_vertices = len(vertices)
    local = np.stack([cells[:, [1, 2]], cells[:, [2, 0]], cells[:, [0, 1]]], axis=1)
    pairs = np.sort(local.reshape(-1, 2), axis=1)
    keys, inverse = np.unique(pairs[:, 0] * n_vertices + pairs[:, 1],
                              return_inverse=True)
    edges = np.column_stack([keys // n_vertices, keys % n_vertices])
    cell_edge_ids = inverse.reshape(-1, 3)
    signs = np.empty_like(cell_edge_ids)
    for loc in range(3):
        a = vertices[edges[cell_edge_ids[:, loc], 0]]
        b = vertices[edges[cell_edge_ids[:, loc], 1]]
        t = b - a
        normal = np.column_stack([t[:, 1], -t[:, 0]])
        away = np.einsum("ij,ij->i", normal, 0.5 * (a + b) - vertices[cells[:, loc]])
        signs[:, loc] = np.where(away > 0, 1, -1)
    p0, p1, p2 = (vertices[cells[:, i]] for i in range(3))
    d1, d2 = p1 - p0, p2 - p0
    twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    grads = np.empty((len(cells), 3, 2))
    corners = (p0, p1, p2)
    for i in range(3):
        e = corners[(i + 2) % 3] - corners[(i + 1) % 3]
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= twice_area[:, None, None]
    sides = np.stack([np.linalg.norm(p1 - p0, axis=1),
                      np.linalg.norm(p2 - p1, axis=1),
                      np.linalg.norm(p0 - p2, axis=1)])
    ev = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    return {"edges": edges, "cell_edge_ids": cell_edge_ids,
            "cell_edge_signs": signs, "areas": 0.5 * twice_area,
            "grads": grads, "diameters": sides.max(axis=0),
            "edge_lengths": np.linalg.norm(ev, axis=1)}
