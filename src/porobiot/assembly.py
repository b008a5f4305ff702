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
without quadrature.  Essential conditions (displacement Dirichlet, no-flow
edges, the tied rigid-plate group) are applied by symmetric master-slave
reduction, which keeps the diagonal blocks definite for the preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .fem import DofMap, SpaceKind, per_row, quadrature, _rt0_local_mass
from .mesh import Mesh, Side
from .physics import MaterialModel, ProblemDefinition


class ConstraintConflictError(ValueError):
    """A DOF received conflicting essential constraints."""


@dataclass
class ReducedSystem:
    """A constraint-reduced operator with its restriction and lift.

    Given a full right-hand side b, the reduced system reads
    ``matrix @ x_red = R^T b - rhs_shift`` with R the restriction, and the
    full solution is ``R @ x_red + lift``.  R has one unit entry in every
    row of a DOF that is not pinned, in the column `reduced_of` gives (-1
    where pinned), so `restrict` and `expand` apply R^T to a vector and R
    through that index instead of sparse products, with the same sums in
    the same order.  Both also take an (n, k) block of k vectors, column by
    column: `restrict` by the sparse product R^T, which sums each column
    in the order of the index.
    """

    matrix: sp.spmatrix
    rhs_shift: np.ndarray
    restriction: sp.spmatrix
    lift: np.ndarray
    reduced_of: np.ndarray

    def __post_init__(self):
        # pinned DOFs map to one unknown past the reduced ones, which
        # `restrict` drops and `expand` reads as zero
        self._n = self.restriction.shape[1]
        self._index = np.where(self.reduced_of >= 0, self.reduced_of, self._n)
        self._restriction_t = self.restriction.T   # a view of R's arrays

    def restrict(self, b):
        """R^T b: the full vector summed into the reduced unknowns."""
        if b.ndim == 2:
            return self._restriction_t @ b
        return np.bincount(self._index, weights=b, minlength=self._n + 1)[:self._n]

    def expand(self, x_red):
        """R x_red + lift."""
        padded = np.concatenate([x_red, np.zeros((1,) + x_red.shape[1:])])
        return padded.take(self._index, axis=0) + per_row(self.lift, x_red)


def assemble_mechanics(mesh: Mesh, mat: MaterialModel, dofmap_u: DofMap,
                       dofmap_p: DofMap):
    """Elasticity, div-div and pressure-coupling blocks.

    Returns
    -------
    a_e, d_div : csr_matrix, shape (n_u, n_u)
    b_up : csr_matrix, shape (n_u, n_p)
    """
    grads = mesh.grads                      # (F, 3, 2)
    areas = mesh.areas
    n_cells = mesh.n_cells

    gg = np.einsum("fvd,fwd->fvw", grads, grads)
    a_loc = np.zeros((n_cells, 6, 6))
    for c in range(2):
        for cp in range(2):
            term = np.einsum("fw,fv->fvw", grads[:, :, c], grads[:, :, cp])
            if c == cp:
                term = term + gg
            a_loc[:, c::2, cp::2] = term
    a_loc *= (mat.mu * areas)[:, None, None]

    divloc = grads.reshape(n_cells, 6)      # div of local basis j = 2v + c
    d_loc = areas[:, None, None] * divloc[:, :, None] * divloc[:, None, :]

    dofs = dofmap_u.cell_to_dofs
    rows = np.repeat(dofs, 6, axis=1).ravel()
    cols = np.tile(dofs, (1, 6)).ravel()
    shape = (dofmap_u.n_dofs, dofmap_u.n_dofs)
    a_e = sp.coo_matrix((a_loc.ravel(), (rows, cols)), shape=shape).tocsr()
    d_div = sp.coo_matrix((d_loc.ravel(), (rows, cols)), shape=shape).tocsr()

    bu_vals = (areas[:, None] * divloc).ravel()
    bu_rows = dofs.ravel()
    bu_cols = np.repeat(np.arange(n_cells), 6)
    b_up = sp.coo_matrix((bu_vals, (bu_rows, bu_cols)),
                         shape=(dofmap_u.n_dofs, dofmap_p.n_dofs)).tocsr()
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
    m_loc = _rt0_local_mass(mesh, mat.nu_f / mat.permeability)

    dofs = dofmap_q.cell_to_dofs
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    m_q = sp.coo_matrix((m_loc.ravel(), (rows, cols)),
                        shape=(dofmap_q.n_dofs, dofmap_q.n_dofs)).tocsr()

    signed = (mesh.cell_edge_signs * mesh.edge_lengths[mesh.cell_edge_ids])
    bq_rows = np.repeat(np.arange(mesh.n_cells), 3)
    b_qp = sp.coo_matrix((signed.ravel(), (bq_rows, dofs.ravel())),
                         shape=(dofmap_p.n_dofs, dofmap_q.n_dofs)).tocsr()

    m_p = sp.diags(mesh.areas).tocsr()
    return m_q, b_qp, m_p


class FieldConstraints:
    """Essential constraints on one field via master-slave reduction.

    x_full = R x_reduced + lift, with one reduced unknown per free DOF and
    per tie group.  Reduction of a system is R^T A R, R^T (b - A lift).
    """

    def __init__(self, n_full, pinned=None, ties=()):
        pinned = dict(pinned or {})
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
        self.lift = np.zeros(n_full)
        self.lift[list(pinned)] = list(pinned.values())


@dataclass
class BlockConstraints:
    """Constraints of the (u, q, p) fields."""

    u: FieldConstraints
    q: FieldConstraints
    p: FieldConstraints

    def composed(self, names):
        """Block-diagonal restriction and stacked lift of the named fields.

        The CSR arrays are built from `composed_index`: one unit entry in
        each row that is not pinned.  They equal those of `sp.block_diag`
        of the field restrictions, built in about a third of its time."""
        fields = [getattr(self, n) for n in names]
        index = self.composed_index(names)
        kept = index >= 0
        indptr = np.concatenate([[0], np.cumsum(kept)])
        R = sp.csr_matrix((np.ones(int(indptr[-1])), index[kept], indptr),
                          shape=(index.size, sum(f.n_reduced for f in fields)))
        return R, np.concatenate([f.lift for f in fields])

    def composed_index(self, names):
        """Stacked `reduced_of` of the named fields, numbered like the
        columns of `composed`'s restriction (-1 where pinned)."""
        parts, offset = [], 0
        for f in (getattr(self, n) for n in names):
            parts.append(np.where(f.reduced_of >= 0, f.reduced_of + offset, -1))
            offset += f.n_reduced
        return np.concatenate(parts)


# displacement component normal to each side
_NORMAL_COMP = {Side.LEFT: 0, Side.RIGHT: 0, Side.BOTTOM: 1, Side.TOP: 1}


def build_constraints(problem: ProblemDefinition, mesh: Mesh,
                      dofmap_u: DofMap, dofmap_q: DofMap,
                      dofmap_p: DofMap) -> BlockConstraints:
    """Translate the problem's boundary conditions into DOF constraints."""
    pinned_u = {}
    ties = []

    def pin(dof, value):
        if dof in pinned_u and pinned_u[dof] != value:
            raise ConstraintConflictError(
                f"displacement DOF {dof} pinned to both {pinned_u[dof]} and {value}")
        pinned_u[dof] = value

    for side, bc in problem.u_bc.items():
        verts = np.unique(mesh.edges[mesh.boundary_edges(side)]).tolist()
        c = _NORMAL_COMP[side]
        if bc.kind == "fixed":
            vx, vy = bc.value
            for v in verts:
                pin(2 * v, float(vx))
                pin(2 * v + 1, float(vy))
        elif bc.kind == "normal_zero":
            for v in verts:
                pin(2 * v + c, 0.0)
        elif bc.kind == "tied_normal":
            ties.append([2 * v + c for v in verts])
        elif bc.kind == "free":
            pass
        else:
            raise ValueError(f"unknown displacement BC kind {bc.kind!r}")

    pinned_q = {}
    for side, bc in problem.q_bc.items():
        if bc.kind == "noflow":
            pinned_q.update(dict.fromkeys(mesh.boundary_edges(side).tolist(),
                                          float(bc.value)))
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
    `*_system` methods build the constraint-reduced L-scheme matrices from
    them: the mechanics block and the flux block with the pressure
    eliminated (splitting and the fixed-stress sweep), the symmetric
    positive definite (u, q) block with the pressure eliminated
    (monolithic, direct solves), the 3x3 block (monolithic, GMRES) and
    the 2x2 flux-pressure block (a test oracle only).  Each call builds a
    new matrix; its user keeps it and owns its factorization.
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
        self.load_points = np.einsum("qv,fvd->fqd", quadrature(4).points,
                                     mesh.vertices[mesh.cells])
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

    def hu_dual(self, u_coeffs, divu=None):
        """<h(div u), div z> against all displacement tests (exact).

        `divu` is `divu_dual(u_coeffs)`, when the caller has it already;
        both may be blocks of displacements, as in `bp_dual`.
        """
        div = self.div_u_cells(u_coeffs) if divu is None \
            else divu / per_row(self.mesh.areas, divu)
        return self.b_up @ np.asarray(self.mat.h_law(div), dtype=float)

    # -- scheme system matrices (reduced) -----------------------------------

    def _reduced(self, full, names):
        R, lift = self.constraints.composed(names)
        shift = R.T @ (full @ lift) if np.any(lift != 0.0) \
            else np.zeros(R.shape[1])
        return ReducedSystem((R.T @ full @ R).tocsr(), shift, R, lift,
                             self.constraints.composed_index(names))

    def _reduced_spd(self, full, names):
        """`_reduced` for a symmetric positive definite operator, made
        symmetric to the last bit: the sparse products that form and reduce
        it round its (i, j) and (j, i) entries apart, and a matrix that
        differs from its transpose by an ulp loses the symmetric
        factorization of `CachedLU`.  It is stored in CSC, the format
        `CachedLU` factors and multiplies in, so the factorization shares
        its arrays instead of holding a second copy."""
        system = self._reduced(full, names)
        return replace(system,
                       matrix=(0.5 * (system.matrix + system.matrix.T)).tocsc())

    def mech_system(self, L2):
        return self._reduced((self.a_e + L2 * self.d_div).tocsr(), ("u",))

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


def assemble_loads(problem: ProblemDefinition, ops: BiotOperators, t):
    """Load vectors at time t: body force, boundary pressure, source.

    The body force and the fluid source use a degree-4 rule (exact for the
    polynomial manufactured data) at the points `BiotOperators` builds
    once; plate loads of tied sides enter as a uniform traction on the
    side, and non-homogeneous boundary pressures of the mixed form enter
    the Darcy right-hand side, over the side edges of `Mesh.boundary_edges`.
    """
    mesh = ops.mesh
    rule = quadrature(4)
    x, y = ops.load_points[:, :, 0], ops.load_points[:, :, 1]

    fvals = np.asarray(problem.body_force(x, y, t), dtype=float)
    f_vec = np.zeros(ops.dofmap_u.n_dofs)
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

    svals = np.asarray(problem.source(x, y, t), dtype=float)
    if np.any(svals != 0.0):
        s_vec = mesh.areas * np.einsum("q,fq->f", rule.weights, svals)
    else:
        s_vec = np.zeros(ops.dofmap_p.n_dofs)
    return f_vec, g_vec, s_vec
