"""Sparse direct solves, restarted GMRES and the fixed-stress sweep.

Factorizations use SuperLU through scipy and are kept by the object that
reuses them (the L-scheme matrices are constant across iterations and time
steps).  The fixed-stress sweep is one linearized splitting sweep: a flux
solve with the pressure eliminated through the diagonal P0 mass (the flow
half), then a mechanics solve driven by the updated pressure (the
mechanics half).  Each half owns its factorization; the splitting step
composes them, and so does the sweep that preconditions GMRES on the
monolithic system.
"""

from __future__ import annotations

import ctypes
import sys
import time
from dataclasses import dataclass, field

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
    """Assembled global sparse system and its right-hand side."""

    matrix: sp.spmatrix
    rhs: np.ndarray

    def __post_init__(self):
        n = self.matrix.shape[0]
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("system matrix must be square")
        if self.rhs.shape != (n,):
            raise ValueError("rhs length does not match the matrix")
        if not np.all(np.isfinite(self.rhs)):
            raise ValueError("rhs contains non-finite entries")


@dataclass
class SolverReport:
    iterations: int
    relres: float
    seconds: float
    converged: bool = True
    status: str = "converged"
    history: list = field(default_factory=list)


class CachedLU:
    """SuperLU factorization reused across many right-hand sides.

    The matrix is symmetrically equilibrated by inverse square roots of its
    diagonal magnitudes before factorizing (the Biot blocks mix scales over
    twenty orders of magnitude in SI units).  A matrix equal to its
    transpose is factored in SuperLU's symmetric mode: a minimum-degree
    ordering of A^T + A and diagonal pivots.  Every matrix a run factors is
    symmetric positive definite; any other matrix (the tests' 3x3 oracles)
    gets the COLAMD ordering with partial pivoting.  `solve` takes one
    right-hand side of shape (n,) or k of them as the columns of an
    (n, k) block, solved in one SuperLU call.

    Accuracy is certified once per factorization, not per solve: diagonal
    pivoting of an SPD matrix, equilibrated near-optimally (van der Sluis,
    Numer. Math. 1969), is backward stable as Cholesky is (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed. 2002, ch. 10).  For any
    b the computed x then solves (A + E) x = b with ||E|| / ||A|| a small
    multiple of the unit round-off, which the constructor measures on the
    probe b = A z of a fixed z.  A symmetric factor whose probe's relative
    residual is at most 1e-12 is certified: each solve is one triangular
    solve.  Any other factor refines once each column whose relative
    residual exceeds 1e-12, as that column's own vector solve would.  A
    matrix with a non-finite entry raises `FactorizationError` before it
    is scaled.
    """

    def __init__(self, matrix):
        matrix = sp.csc_matrix(matrix)
        # canonical before `_equilibrated` shares its index arrays: splu
        # would otherwise sort them in place under `self.matrix`
        matrix.sum_duplicates()
        if not np.all(np.isfinite(matrix.data)):
            raise FactorizationError("matrix has non-finite entries")
        self.matrix = matrix
        d = np.abs(matrix.diagonal())
        rowmax = np.abs(matrix).max(axis=1).toarray().ravel()
        d = np.where(d > 0.0, d, np.where(rowmax > 0.0, rowmax, 1.0))
        self.scale = 1.0 / np.sqrt(d)
        ordering = {}
        if (matrix != matrix.T).nnz == 0:
            ordering = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
        scaled = self._equilibrated()
        # A factorization is a run's largest allocation.  Beneath it glibc
        # keeps resident the heap freed before it (by earlier runs, by the
        # assembly of this matrix), so a run's peak memory would depend on
        # what ran before it and when.
        libc = ctypes.CDLL(None) if sys.platform == "linux" else None
        if hasattr(libc, "malloc_trim"):
            libc.malloc_trim(0)
        try:
            self._lu = spla.splu(scaled, **ordering)
        except RuntimeError as exc:
            raise FactorizationError(str(exc)) from exc
        self.shape = matrix.shape
        probe = matrix @ np.random.default_rng(0).standard_normal(self.shape[0])
        self.certified = bool(ordering) and bool(np.linalg.norm(
            probe - matrix @ self._raw_solve(probe))
            <= 1e-12 * np.linalg.norm(probe))

    def _equilibrated(self):
        """diag(scale) A diag(scale), formed on A's arrays: the entries
        (s_i a_ij) s_j, exact zeros dropped, as the sparse products
        diag(s) @ A @ diag(s) form them.  It shares A's index arrays unless
        a zero is dropped, and its temporaries end with the call."""
        a, s = self.matrix, self.scale
        col = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
        scaled = sp.csc_matrix((s[a.indices] * a.data * s[col], a.indices,
                                a.indptr), shape=a.shape)
        if not np.all(scaled.data):
            scaled = scaled.copy()   # eliminate_zeros edits the index arrays
            scaled.eliminate_zeros()
        return scaled

    def _raw_solve(self, b):
        s = self.scale if b.ndim == 1 else self.scale[:, None]
        return s * self._lu.solve(s * b)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        x = self._raw_solve(b)
        if self.certified:
            return x
        r = b - self.matrix @ x
        # a vector is a block of one column; each column's norms are
        # np.linalg.norm's of its own vector: the root of a contiguous dot
        rs, bs = (np.ascontiguousarray(a.reshape(len(a), -1).T) for a in (r, b))
        refine = [j for j, (rj, bj) in enumerate(zip(rs, bs))
                  if np.sqrt(rj @ rj) > 1e-12 * np.sqrt(bj @ bj)]
        if refine:
            x.reshape(len(x), -1)[:, refine] += self._raw_solve(
                r.reshape(len(r), -1)[:, refine])
        return x


def gmres(system: BlockSystem, preconditioner=None, restart=50, rtol=1e-10,
          maxiter=1000):
    """Restarted GMRES; `preconditioner` approximates the inverse operator
    as a matrix, a `LinearOperator` or an object with `shape`, `matvec` and
    `dtype`, such as `FixedStressPreconditioner`.  `maxiter` caps the total
    number of inner iterations.  Reports that count, the true relative
    residual and the history of preconditioned residual norms, which are
    non-increasing inside each restart cycle.
    """
    n = system.matrix.shape[0]
    history = []

    def cb(pr_norm):
        history.append(float(pr_norm))

    restart = min(restart, n)
    cycles = max(1, -(-maxiter // restart))  # scipy counts restart cycles
    t0 = time.perf_counter()
    x, info = spla.gmres(system.matrix, system.rhs, M=preconditioner,
                         restart=restart, rtol=rtol, atol=0.0, maxiter=cycles,
                         callback=cb, callback_type="pr_norm")
    seconds = time.perf_counter() - t0

    bnorm = np.linalg.norm(system.rhs)
    res = np.linalg.norm(system.matrix @ x - system.rhs)
    relres = res / bnorm if bnorm > 0 else res
    converged = info == 0
    status = "converged" if converged else (
        "maxiter" if info > 0 else "breakdown")
    return x, SolverReport(len(history), float(relres), seconds,
                           converged=converged, status=status, history=history)


class FlowHalf:
    """The flow half of a fixed-stress sweep, which depends on (L1, tau)
    alone: it builds the flux system of `flow_schur_system`, with the
    pressure eliminated through the diagonal P0 mass, and owns its
    factorization."""

    def __init__(self, ops, L1, tau):
        self.lu = CachedLU(ops.flow_schur_system(L1, tau).matrix)
        # the pressure field is unreduced
        self.b_red = (ops.b_qp @ ops.constraints.q.restriction).tocsr()
        self.b_red_t = self.b_red.T
        self.L1, self.tau = L1, tau
        self.l1_areas = L1 * ops.mesh.areas

    def step(self, r_q, r_p):
        """(d_q, d_p) for the flux and mass residuals: with
        w = r_p / (L1 M_p), d_q solves the flux system for r_q + B^T w and
        d_p = w - tau B d_q / (L1 M_p)."""
        l1_areas = self.l1_areas if r_p.ndim == 1 else self.l1_areas[:, None]
        w = r_p / l1_areas
        d_q = self.lu.solve(r_q + self.b_red_t @ w)
        return d_q, w - self.tau * (self.b_red @ d_q) / l1_areas


class MechHalf:
    """The mechanics half of a fixed-stress sweep, which depends on L2
    alone: it builds the L2-stabilized mechanics block of `mech_system`
    and owns its factorization."""

    def __init__(self, ops, L2):
        self.system = ops.mech_system(L2)
        self.lu = CachedLU(self.system.matrix)
        self.b_up_red = (ops.constraints.u.restriction.T @ ops.b_up).tocsr()
        self.alpha = ops.mat.alpha

    def step(self, r_u, d_p):
        """d_u for the mechanics residual, driven by the pressure update
        d_p."""
        return self.lu.solve(r_u + self.alpha * (self.b_up_red @ d_p))


class FixedStressPreconditioner:
    """One splitting sweep as a stationary linear operator: the flow half
    of (L1, tau), then the mechanics half of L2 with the pressure update
    on its right-hand side, applied to a reduced (r_u, r_q, r_p).  The
    monolithic GMRES solves pass the sweep itself to `gmres`.  Each half,
    and so `matvec`, takes a vector or an (n, k) block of k of them, whose
    columns it solves in one multi-column `CachedLU.solve`, to the same
    bits as k vector calls.
    """

    def __init__(self, ops, cfg, tau):
        self.flow, self.mech = FlowHalf(ops, cfg.L1, tau), MechHalf(ops, cfg.L2)
        self.sizes = (self.mech.lu.shape[0], self.flow.lu.shape[0],
                      ops.mesh.n_cells)
        self.shape = (sum(self.sizes),) * 2
        self.dtype = np.dtype(float)

    def matvec(self, r):
        nu, nq, _ = self.sizes
        d_q, d_p = self.flow.step(r[nu:nu + nq], r[nu + nq:])
        return np.concatenate([self.mech.step(r[:nu], d_p), d_q, d_p])
