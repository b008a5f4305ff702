"""Sparse direct solves, restarted GMRES and the fixed-stress preconditioner.

Factorizations use SuperLU through scipy and are kept by the object that
reuses them (the L-scheme matrices are constant across iterations and time
steps).  The fixed-stress preconditioner performs one linearized splitting
sweep per application: a flow solve with the stabilized mass row, then a
mechanics solve driven by the updated pressure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class FactorizationError(RuntimeError):
    """Sparse LU factorization failed (singular or structurally singular)."""


class LinearSolveError(RuntimeError):
    """An iterative linear solve did not reach its tolerance."""


@dataclass
class SolverOptions:
    """Inner linear-solver selection for the scheme iterations.

    method 'lu' uses cached factorizations; 'gmres' solves the monolithic
    block system with fixed-stress-preconditioned GMRES (the split
    sub-solves keep their factorizations either way).
    """

    method: str = "lu"
    restart: int = 50
    rtol: float = 1e-10
    maxiter: int = 1000

    def __post_init__(self):
        if self.method not in ("lu", "gmres"):
            raise ValueError(f"unknown solver method {self.method!r}")


def write_solver_reports_csv(rows, path):
    """Serialize (label, SolverReport) pairs as linsys,iters,relres,seconds."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("linsys,iters,relres,seconds\n")
        for label, rep in rows:
            fh.write(f"{label},{rep.iterations},{rep.relres:.17g},"
                     f"{rep.seconds:.6f}\n")


@dataclass
class BlockSystem:
    """Assembled global sparse system with a named block layout."""

    matrix: sp.spmatrix
    rhs: np.ndarray
    blocks: tuple = ()   # ((name, size), ...)

    def __post_init__(self):
        n = self.matrix.shape[0]
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("system matrix must be square")
        if self.rhs.shape != (n,):
            raise ValueError("rhs length does not match the matrix")
        if self.blocks and sum(s for _, s in self.blocks) != n:
            raise ValueError("block sizes do not sum to the matrix dimension")
        if not np.all(np.isfinite(self.rhs)):
            raise ValueError("rhs contains non-finite entries")


@dataclass
class SolverReport:
    method: str
    iterations: int
    relres: float
    seconds: float
    converged: bool = True
    status: str = "converged"


class CachedLU:
    """SuperLU factorization reused across many right-hand sides.

    The matrix is symmetrically equilibrated by inverse square roots of its
    diagonal magnitudes before factorizing (the Biot blocks mix scales over
    twenty orders of magnitude in SI units).  A matrix equal to its
    transpose is factored in SuperLU's symmetric mode: a minimum-degree
    ordering of A^T + A and diagonal pivots, which is stable because every
    symmetric matrix porobiot factors is positive definite.  Any other
    matrix gets the COLAMD ordering with partial pivoting.  A solve runs
    up to `refine` steps of iterative refinement, each only while the
    relative residual exceeds 1e-12.
    """

    def __init__(self, matrix, refine=1):
        t0 = time.perf_counter()
        matrix = sp.csc_matrix(matrix)
        self.matrix = matrix
        self.refine = refine
        d = np.abs(matrix.diagonal())
        rowmax = np.abs(matrix).max(axis=1).toarray().ravel()
        d = np.where(d > 0.0, d, np.where(rowmax > 0.0, rowmax, 1.0))
        self.scale = 1.0 / np.sqrt(d)
        scaled = sp.diags(self.scale) @ matrix @ sp.diags(self.scale)
        ordering = {}
        if (matrix != matrix.T).nnz == 0:
            ordering = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
        try:
            self._lu = spla.splu(scaled.tocsc(), **ordering)
        except RuntimeError as exc:
            raise FactorizationError(str(exc)) from exc
        self.factor_seconds = time.perf_counter() - t0
        self.shape = matrix.shape

    def _raw_solve(self, b):
        return self.scale * self._lu.solve(self.scale * b)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        x = self._raw_solve(b)
        bound = 1e-12 * np.linalg.norm(b)
        for _ in range(self.refine):
            r = b - self.matrix @ x
            if np.linalg.norm(r) <= bound:
                break
            x += self._raw_solve(r)
        return x


def gmres(system: BlockSystem, preconditioner=None, restart=50, rtol=1e-10,
          maxiter=1000, keep_history=False):
    """Restarted GMRES; `preconditioner` approximates the inverse operator.

    `maxiter` caps the total number of inner iterations.  Reports that
    count and the true relative residual; the recorded history holds the
    preconditioned residual norms, which are non-increasing inside each
    restart cycle.
    """
    n = system.matrix.shape[0]
    history = []

    def cb(pr_norm):
        history.append(float(pr_norm))

    M = None
    if preconditioner is not None:
        M = spla.LinearOperator((n, n), matvec=preconditioner) \
            if callable(preconditioner) and not isinstance(
                preconditioner, spla.LinearOperator) else preconditioner

    restart = min(restart, n)
    cycles = max(1, -(-maxiter // restart))  # scipy counts restart cycles
    t0 = time.perf_counter()
    x, info = spla.gmres(system.matrix, system.rhs, M=M, restart=restart,
                         rtol=rtol, atol=0.0, maxiter=cycles,
                         callback=cb, callback_type="pr_norm")
    seconds = time.perf_counter() - t0

    bnorm = np.linalg.norm(system.rhs)
    res = np.linalg.norm(system.matrix @ x - system.rhs)
    relres = res / bnorm if bnorm > 0 else res
    converged = info == 0
    status = "converged" if converged else (
        "maxiter" if info > 0 else "breakdown")
    report = SolverReport("gmres", len(history), float(relres), seconds,
                          converged=converged, status=status)
    if keep_history:
        report.history = history
    return x, report


class FixedStressPreconditioner:
    """One splitting sweep as a stationary linear operator.

    Applied to a monolithic residual (r_u, r_q, r_p): first the 2x2 flow
    block with the L1-stabilized mass row is solved for (dq, dp), then the
    L2-stabilized mechanics block is solved with the pressure update on the
    right-hand side.  Both inner blocks are factorized once.
    """

    def __init__(self, ops, cfg, mat, tau):
        self.sizes = tuple(
            [ops.constraints.u.n_reduced, ops.constraints.q.n_reduced,
             ops.constraints.p.n_reduced])
        self.flow_lu = CachedLU(ops.flow_system(cfg.L1, tau).matrix)
        self.mech_lu = CachedLU(ops.mech_system(cfg.L2).matrix)
        Ru = ops.constraints.u.restriction
        self.b_up_red = (Ru.T @ ops.b_up).tocsr()  # pressure field is unreduced
        self.alpha = mat.alpha
        self.shape = (sum(self.sizes),) * 2
        self.dtype = np.dtype(float)

    def matvec(self, r):
        nu, nq, npp = self.sizes
        r_u, r_qp = r[:nu], r[nu:]
        d_qp = self.flow_lu.solve(r_qp)
        d_p = d_qp[nq:]
        d_u = self.mech_lu.solve(r_u + self.alpha * (self.b_up_red @ d_p))
        return np.concatenate([d_u, d_qp])

    def __call__(self, r):
        return self.matvec(r)

    def as_linear_operator(self):
        return spla.LinearOperator(self.shape, matvec=self.matvec)
