"""Sparse operators, load vectors and essential constraints of the Biot system.

Assembled blocks (with Z the vector P1 space, V the RT0 space, W the P0
space):

* ``a_e``   : 2 mu <eps(u) : eps(z)>        on Z x Z
* ``d_div`` : <div u, div z>                on Z x Z
* ``b_up``  : <p, div z>                    W -> Z dual
* ``m_q``   : nu_f <K^-1 q, v>              on V x V
* ``b_qp``  : <div q, w>                    V -> W dual (entries: signed |e|)
* ``m_p``   : <p, w>                        on W x W (diagonal of cell areas)

Because P0 pressures and P1 divergences are cellwise constant, the
non-linear terms <b(p), w> and <h(div u), div z> are assembled exactly
without quadrature.  The local matrices are broadcast products along the
cells, and every block is summed by `fem.scatter`; ``a_e`` and ``d_div``
share one conversion and one structure.  Essential conditions (zero displacements, zero normal
displacements, zero no-flow edges, the tied rigid-plate group) are
homogeneous and applied by symmetric master-slave reduction, which keeps
the diagonal blocks definite for the preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import (DofMap, SpaceKind, per_row, quadrature, quadrature_points,
                  scatter, _assemble_mass, _rt0_local_mass)
from .mesh import Mesh, Side
from .physics import MaterialModel, ProblemDefinition


class ConstraintConflictError(ValueError):
    """A DOF received conflicting essential constraints."""


def assemble_mechanics(mesh: Mesh, mat: MaterialModel, dofmap_u: DofMap,
                       dofmap_p: DofMap):
    """Elasticity, div-div and pressure-coupling blocks.

    The local matrices are formed with the cells last, so that every
    product runs along the cells, and turned to (F, 6, 6) as they are
    scattered; a_e and d_div are scattered at once and share one structure.

    Returns
    -------
    a_e, d_div : csr_matrix, shape (n_u, n_u)
    b_up : csr_matrix, shape (n_u, n_p)
    """
    grads = np.ascontiguousarray(mesh.grads.transpose(1, 2, 0))   # (3, 2, F)
    areas = mesh.areas
    n_cells = mesh.n_cells

    # 2 mu eps(u) : eps(z) of local bases (v, c) and (w, c'), j = 2v + c:
    # mu (g_w[c] g_v[c'] + [c = c'] g_v . g_w) times the area
    gg = (grads[:, None, 0] * grads[None, :, 0]
          + grads[:, None, 1] * grads[None, :, 1])
    a_loc = grads.transpose(1, 0, 2)[None, :, :, None] * grads[:, None, None]
    a_loc[:, 0, :, 0] += gg
    a_loc[:, 1, :, 1] += gg
    a_loc *= mat.mu * areas
    div = grads.reshape(6, n_cells)           # div of local basis j = 2v + c
    d_loc = areas * div[:, None] * div[None, :]
    # averaged with its transpose, whose products round apart, so that the
    # assembled block equals its transpose to the last bit
    d_loc = 0.5 * (d_loc + d_loc.transpose(1, 0, 2))

    dofs = dofmap_u.cell_to_dofs
    a_e, d_div = scatter((dofmap_u.n_dofs,) * 2, dofs[:, :, None],
                         dofs[:, None, :],
                         a_loc.reshape(6, 6, n_cells).transpose(2, 0, 1),
                         d_loc.transpose(2, 0, 1))
    b_up = scatter((dofmap_u.n_dofs, dofmap_p.n_dofs), dofs[:, :, None],
                   np.arange(n_cells)[:, None, None],
                   (areas * div).T[:, :, None])
    return a_e, d_div, b_up


def assemble_flow(mesh: Mesh, mat: MaterialModel, dofmap_q: DofMap,
                  dofmap_p: DofMap):
    """RT0 mass weighted by nu_f / K, flux-divergence map and P0 mass.

    Returns
    -------
    m_q : csr_matrix, shape (n_q, n_q)
    b_qp : csr_matrix, shape (n_p, n_q), entries are signed edge lengths
    m_p : dia/csr matrix, diagonal of cell areas
    """
    dofs = dofmap_q.cell_to_dofs
    m_q = scatter((dofmap_q.n_dofs,) * 2, dofs[:, :, None], dofs[:, None, :],
                  _rt0_local_mass(mesh, mat.nu_f / mat.permeability))
    signed = (mesh.cell_edge_signs * mesh.edge_lengths[mesh.cell_edge_ids])
    b_qp = scatter((dofmap_p.n_dofs, dofmap_q.n_dofs),
                   np.arange(mesh.n_cells)[:, None, None], dofs[:, None, :],
                   signed[:, None, :])
    m_p = sp.diags(mesh.areas).tocsr()
    return m_q, b_qp, m_p


class FieldConstraints:
    """Homogeneous essential constraints on one field via master-slave
    reduction: x_full = R x_reduced, with one reduced unknown per free DOF
    and per tie group, and zero at the `pinned` DOFs.  A system reduces to
    R^T A R, R^T b.
    """

    def __init__(self, n_full, pinned=(), ties=()):
        pinned = set(pinned)
        self.ties = [list(t) for t in ties]
        tied = set()
        for group in self.ties:
            for d in group:
                if d in pinned:
                    raise ConstraintConflictError(f"DOF {d} both pinned and tied")
                if d in tied:
                    raise ConstraintConflictError(f"DOF {d} in two tie groups")
                tied.add(d)
        # reduced unknowns follow the DOF order; a tie group takes its
        # unknown at its lowest DOF, which every DOF of the group stands for
        leader = np.arange(n_full)
        for group in self.ties:
            if group:
                leader[group] = min(group)
        kept = np.ones(n_full, dtype=bool)
        kept[list(pinned)] = False
        first = kept & (leader == np.arange(n_full))
        self.n_reduced = int(first.sum())
        self.reduced_of = np.where(kept, (np.cumsum(first) - 1)[leader], -1)
        rows = np.nonzero(kept)[0]
        self.restriction = sp.coo_matrix(
            (np.ones(len(rows)), (rows, self.reduced_of[rows])),
            shape=(n_full, self.n_reduced)).tocsr()
        self._restriction_t = self.restriction.T   # a view of R's arrays
        self._gather = np.where(kept, self.reduced_of, self.n_reduced)
        self._first = np.nonzero(first)[0]   # each unknown's first DOF

    def restrict(self, b):
        """R^T b, column by column for an (n, k) block."""
        return self._restriction_t @ b

    def expand(self, x):
        """R x of an (n_reduced, k) block by a gather, in which pinned DOFs
        read a zero row past the unknowns: the sparse product, but for the
        sign of a -0.0."""
        padded = np.concatenate([x, np.zeros((1, x.shape[1]))])
        return padded.take(self._gather, axis=0)

    def coordinates(self, full):
        """Each unknown's value at its first DOF of the full vector `full`:
        the inverse of `expand` where `full` meets the constraints."""
        return full[self._first]


@dataclass
class BlockConstraints:
    """Constraints of the (u, q, p) fields."""

    u: FieldConstraints
    q: FieldConstraints
    p: FieldConstraints

    def composed(self, names):
        """Block-diagonal restriction of the named fields.

        The restriction has one unit entry in each row that is not pinned,
        in the column of its field's unknown, numbered past the unknowns of
        the fields before it.  Its CSR arrays equal those of `sp.block_diag`
        of the field restrictions, built in about a third of its time."""
        fields = [getattr(self, n) for n in names]
        offsets = np.cumsum([0] + [f.n_reduced for f in fields])
        index = np.concatenate([f.reduced_of + o for f, o in zip(fields, offsets)])
        kept = np.concatenate([f.reduced_of >= 0 for f in fields])
        indptr = np.concatenate([[0], np.cumsum(kept)])
        R = sp.csr_matrix((np.ones(int(indptr[-1])), index[kept], indptr),
                          shape=(index.size, int(offsets[-1])))
        return R


# displacement component normal to each side
_NORMAL_COMP = {Side.LEFT: 0, Side.RIGHT: 0, Side.BOTTOM: 1, Side.TOP: 1}


def build_constraints(problem: ProblemDefinition, mesh: Mesh,
                      dofmap_u: DofMap, dofmap_q: DofMap,
                      dofmap_p: DofMap) -> BlockConstraints:
    """Translate the problem's boundary conditions into DOF constraints;
    `ValueError` for an essential condition whose value is not zero."""
    pinned_u, ties = set(), []
    for side, bc in problem.u_bc.items():
        verts = np.unique(mesh.edges[mesh.boundary_edges(side)]).tolist()
        c = _NORMAL_COMP[side]
        if bc.kind == "fixed":
            if np.any(bc.value):
                raise ValueError(f"{side.value} side: fixed displacement "
                                 f"{bc.value} is not zero")
            pinned_u.update(2 * v + k for v in verts for k in (0, 1))
        elif bc.kind == "normal_zero":
            pinned_u.update(2 * v + c for v in verts)
        elif bc.kind == "tied_normal":
            ties.append([2 * v + c for v in verts])
        elif bc.kind == "free":
            pass
        else:
            raise ValueError(f"unknown displacement BC kind {bc.kind!r}")

    pinned_q = set()
    for side, bc in problem.q_bc.items():
        if bc.kind == "noflow":
            if bc.value:
                raise ValueError(f"{side.value} side: no-flow flux {bc.value} "
                                 f"is not zero")
            pinned_q.update(mesh.boundary_edges(side).tolist())
        elif bc.kind == "pressure":
            pass  # natural in the mixed form, handled by the load assembly
        else:
            raise ValueError(f"unknown flux BC kind {bc.kind!r}")

    return BlockConstraints(
        u=FieldConstraints(dofmap_u.n_dofs, pinned_u, ties),
        q=FieldConstraints(dofmap_q.n_dofs, pinned_q),
        p=FieldConstraints(dofmap_p.n_dofs))


class BiotOperators:
    """All constant operators of one discretized problem.

    The six bilinear-form blocks are assembled once, together with the
    load quadrature points and the boundary edge orientations; the
    `*_system` methods build from them the constraint-reduced L-scheme
    matrices R^T A R, bare sparse matrices with R of
    `BlockConstraints.composed`: the mechanics block and the flux block
    with the pressure eliminated (splitting and the fixed-stress sweep),
    the (u, q) block with the pressure eliminated (monolithic, direct
    solves), the 3x3 block (monolithic, GMRES) and the 2x2 flux-pressure
    block (a test oracle only).  The first three are the factored ones:
    symmetric positive definite, CSC, and built equal to their transposes
    to the last bit (`_reduced_spd`).  Each call builds a new matrix; its
    user keeps it and owns its factorization.
    """

    def __init__(self, mesh: Mesh, mat: MaterialModel,
                 problem: ProblemDefinition, solver=None):
        self.mesh = mesh
        self.mat = mat
        self.problem = problem
        self.dofmap_u = DofMap(mesh, SpaceKind.P1_VECTOR)
        self.dofmap_q = DofMap(mesh, SpaceKind.RT0)
        self.dofmap_p = DofMap(mesh, SpaceKind.P0)
        self.a_e, self.d_div, self.b_up = assemble_mechanics(
            mesh, mat, self.dofmap_u, self.dofmap_p)
        self.m_q, self.b_qp, self.m_p = assemble_flow(
            mesh, mat, self.dofmap_q, self.dofmap_p)
        # transposed views: they share the blocks' arrays, and building a
        # transpose per product would cost more than the product itself
        self.b_up_t, self.b_qp_t = self.b_up.T, self.b_qp.T
        self.constraints = build_constraints(
            problem, mesh, self.dofmap_u, self.dofmap_q, self.dofmap_p)
        # degree-4 points of the body force and the source, per cell
        self.load_points = quadrature_points(mesh, quadrature(4))
        # net orientation sign per edge: +-1 on boundary edges, 0 inside
        sign_sum = np.zeros(mesh.n_edges, dtype=np.int64)
        np.add.at(sign_sum, mesh.cell_edge_ids.ravel(),
                  mesh.cell_edge_signs.ravel())
        self.boundary_edge_sign = sign_sum
        # inner linear-solver selection and per-solve reports (see linalg)
        self.solver = solver
        self.solver_log = []

    # -- exact non-linear and coupling functionals ------------------------

    def div_u_cells(self, u_coeffs):
        """Cellwise divergence of a displacement coefficient vector."""
        return (self.b_up_t @ u_coeffs) / self.mesh.areas

    def divu_dual(self, u_coeffs):
        """<div u, w> against all P0 tests."""
        return self.b_up_t @ u_coeffs

    def bp_dual(self, p_cells):
        """<b(p), w> against all P0 tests (exact, p is cellwise constant);
        of each column when `p_cells` is a block of pressures."""
        return per_row(self.mesh.areas, p_cells) * np.asarray(
            self.mat.b_law(p_cells), dtype=float)

    def hu_dual(self, u_coeffs):
        """<h(div u), div z> against all displacement tests (exact); of
        each column when `u_coeffs` is a block of displacements, as in
        `bp_dual`."""
        divu = self.divu_dual(u_coeffs)
        div = divu / per_row(self.mesh.areas, divu)
        return self.b_up @ np.asarray(self.mat.h_law(div), dtype=float)

    def reduced_couplings(self):
        """The couplings between the reduced displacement and flux and the
        cell pressures, as CSR: R_u^T B_u, whose product with cellwise
        values v is <v, div z> on the reduced tests, and B R_q."""
        con = self.constraints
        return ((con.u.restriction.T @ self.b_up).tocsr(),
                (self.b_qp @ con.q.restriction).tocsr())

    def reduced_masses(self):
        """The displacement and flux masses R^T M R (CSR) of the reduced
        unknowns, assembled in the reduced numbering."""
        con = self.constraints
        return tuple(_assemble_mass(dofmap, c.reduced_of, c.n_reduced)
                     for dofmap, c in ((self.dofmap_u, con.u),
                                       (self.dofmap_q, con.q)))

    # -- scheme system matrices (reduced) -----------------------------------

    def _reduced(self, full, names):
        """R^T full R as CSR, R = `constraints.composed(names)`: the matrix
        of the reduced unknowns x_red, x = R x_red, for the rhs R^T b."""
        R = self.constraints.composed(names)
        return (R.T @ full @ R).tocsr()

    def _reduced_spd(self, full, names):
        """`_reduced` for a symmetric positive definite operator, made
        symmetric to the last bit: the sparse products that form and reduce
        it round its (i, j) and (j, i) entries apart, and `CachedLU` refuses
        a matrix that differs from its transpose by an ulp.  It is stored in
        CSC, the format `CachedLU` factors and multiplies in, so the
        factorization shares its arrays instead of holding a second copy."""
        matrix = self._reduced(full, names)
        return (0.5 * (matrix + matrix.T)).tocsc()

    def mech_system(self, L2):
        return self._reduced_spd((self.a_e + L2 * self.d_div).tocsr(), ("u",))

    def flow_system(self, L1, tau):
        full = sp.bmat([[self.m_q, -self.b_qp_t],
                        [tau * self.b_qp, L1 * self.m_p]], format="csr")
        return self._reduced(full, ("q", "p"))

    def flow_schur_system(self, L1, tau):
        """Flux system with the pressure eliminated through the diagonal mass."""
        mp_inv = sp.diags(1.0 / self.mesh.areas)
        full = (self.m_q
                + (tau / L1) * (self.b_qp_t @ mp_inv @ self.b_qp)).tocsr()
        return self._reduced_spd(full, ("q",))

    def monolithic_schur_system(self, L1, L2, tau):
        """The (u, q) system of the monolithic step with the pressure
        eliminated through the diagonal mass and the flux row scaled by tau:
        blockdiag(A + L2 D, tau M_q) + (1/L1) C^T M_p^-1 C with
        C = [alpha B_u^T, tau B], symmetric positive definite."""
        coupling = sp.hstack([self.mat.alpha * self.b_up_t, tau * self.b_qp])
        mp_inv = sp.diags(1.0 / self.mesh.areas)
        full = (sp.block_diag([self.a_e + L2 * self.d_div, tau * self.m_q])
                + (1.0 / L1) * (coupling.T @ mp_inv @ coupling)).tocsr()
        return self._reduced_spd(full, ("u", "q"))

    def monolithic_system(self, L1, L2, tau):
        alpha = self.mat.alpha
        full = sp.bmat(
            [[self.a_e + L2 * self.d_div, None, -alpha * self.b_up],
             [None, self.m_q, -self.b_qp_t],
             [alpha * self.b_up_t, tau * self.b_qp, L1 * self.m_p]],
            format="csr")
        return self._reduced(full, ("u", "q", "p"))


def build_operators(mesh: Mesh, mat: MaterialModel, problem: ProblemDefinition,
                    solver=None) -> BiotOperators:
    return BiotOperators(mesh, mat, problem, solver)


def assemble_loads(ops: BiotOperators, t):
    """Load vectors at time t: body force, boundary pressure, source.

    The body force and the fluid source use a degree-4 rule (exact for the
    polynomial manufactured data) at the points `BiotOperators` builds
    once; plate loads of tied sides enter as a uniform traction on the
    side, and non-homogeneous boundary pressures of the mixed form enter
    the Darcy right-hand side, over the side edges of `Mesh.boundary_edges`.
    A body force or source of None is zero and is not evaluated.
    """
    mesh, problem = ops.mesh, ops.problem
    rule = quadrature(4)
    x, y = ops.load_points

    f_vec = np.zeros(ops.dofmap_u.n_dofs)
    fvals = (0.0 if problem.body_force is None
             else np.asarray(problem.body_force(x, y, t), dtype=float))
    if np.any(fvals != 0.0):
        floc = np.einsum("q,fqc,qv->fvc", rule.weights, fvals, rule.points)
        floc = floc.reshape(mesh.n_cells, 6) * mesh.areas[:, None]
        np.add.at(f_vec, ops.dofmap_u.cell_to_dofs.ravel(), floc.ravel())

    for side, bc in problem.u_bc.items():
        if bc.kind != "tied_normal" or not bc.value:
            continue
        edges = mesh.boundary_edges(side)
        # summed edge by edge (np.sum would pair the terms in another order)
        traction = float(bc.value) / float(sum(mesh.edge_lengths[edges]))
        half = 0.5 * mesh.edge_lengths[edges] * traction
        np.add.at(f_vec, 2 * mesh.edges[edges] + _NORMAL_COMP[side],
                  np.column_stack([half, half]))

    g_vec = np.zeros(ops.dofmap_q.n_dofs)
    for side, bc in problem.q_bc.items():
        if bc.kind == "pressure" and bc.value != 0.0:
            edges = mesh.boundary_edges(side)
            g_vec[edges] -= (bc.value * ops.boundary_edge_sign[edges]
                             * mesh.edge_lengths[edges])

    svals = (0.0 if problem.source is None
             else np.asarray(problem.source(x, y, t), dtype=float))
    if np.any(svals != 0.0):
        s_vec = mesh.areas * np.einsum("q,fq->f", rule.weights, svals)
    else:
        s_vec = np.zeros(ops.dofmap_p.n_dofs)
    return f_vec, g_vec, s_vec
