"""Sparse direct solves, restarted GMRES and the fixed-stress sweep.

Factorizations use SuperLU through scipy and are kept by the object that
reuses them (the L-scheme matrices are constant across iterations and time
steps).  Every factored matrix is symmetric positive definite, and
`CachedLU` refuses any other.  The fixed-stress sweep,
`FixedStressPreconditioner`, is one linearized splitting sweep: a flux
solve with the pressure eliminated through the diagonal P0 mass (the flow
half, `FlowHalf`), then a mechanics solve driven by the updated pressure.
It is both the splitting step and the preconditioner of GMRES on the
monolithic system.

Both solvers work on the same symmetric diagonal equilibration
S = diag(|a_ii|)^-1/2 (`_equilibration`): `CachedLU` factors S A S, and
`gmres` iterates on it and stops on the equilibrated relative residual
||S (b - A x)|| / ||S b||, which does not depend on the units of the
unknowns or of the equations.
"""

from __future__ import annotations

import ctypes
import numbers
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class FactorizationError(RuntimeError):
    """A matrix is not symmetric positive definite to `CachedLU`: refused,
    singular, or its factor fails the backward-error probe."""


class LinearSolveError(RuntimeError):
    """An iterative linear solve did not reach its tolerance."""


@dataclass
class SolverOptions:
    """Inner linear-solver selection for the scheme iterations.

    method 'lu' uses cached factorizations; 'gmres' solves the monolithic
    block system with fixed-stress-preconditioned GMRES (the split
    sub-solves keep their factorizations either way).  GMRES restarts
    after `restart` inner iterations, makes at most `maxiter` of them per
    solve (one sweep each), and stops when the equilibrated relative
    residual ||S (b - A x)|| / ||S b|| of `gmres` is at most `rtol`.
    `ValueError` is raised for an unknown method, for a `restart` or
    `maxiter` that is not an integer of at least 1, and for an `rtol`
    outside the open interval (0, 1).
    """

    method: str = "lu"
    restart: int = 50
    rtol: float = 1e-10
    maxiter: int = 1000

    def __post_init__(self):
        if self.method not in ("lu", "gmres"):
            raise ValueError(f"unknown solver method {self.method!r}")
        for name in ("restart", "maxiter"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool) or value < 1):
                raise ValueError(f"solver {name} must be an integer of at "
                                 f"least 1, got {value!r}")
        if not (isinstance(self.rtol, numbers.Real)
                and 0.0 < self.rtol < 1.0):   # also refuses NaN
            raise ValueError(f"solver rtol must lie strictly between 0 and 1, "
                             f"got {self.rtol!r}")


def write_solver_reports_csv(rows, path):
    """Serialize (label, SolverReport) pairs as linsys,iters,relres,seconds:
    the inner iterations of a GMRES solve (one sweep each), the
    equilibrated relative residual ||S (b - A x)|| / ||S b|| its stop
    tested, and its seconds."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("linsys,iters,relres,seconds\n")
        for label, rep in rows:
            fh.write(f"{label},{rep.iterations},{rep.relres:.17g},"
                     f"{rep.seconds:.6f}\n")


@dataclass
class SolverReport:
    iterations: int
    relres: float
    seconds: float
    converged: bool = True
    status: str = "converged"


def _equilibration(diagonal):
    """The symmetric scaling S = diag(|a_ii|)^-1/2 of a matrix with the
    given diagonal, 1 where a_ii = 0: `CachedLU` factors S A S, and
    `gmres` iterates on it."""
    d = np.abs(diagonal)
    return 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))


class CachedLU:
    """SuperLU factorization of a symmetric positive definite matrix,
    reused across many right-hand sides.

    The matrix is symmetrically equilibrated by the inverse square roots
    of its diagonal (`_equilibration`; the Biot blocks mix scales over
    twenty orders of magnitude in SI units) and factored in SuperLU's
    symmetric mode: a minimum-degree ordering of A^T + A and diagonal
    pivots.  `solve` takes
    one right-hand side of shape (n,) or k of them as the columns of an
    (n, k) block, and makes one equilibrated triangular solve of them: one
    call of SuperLU's transposed kernel, which solves the same system as
    the factored matrix is symmetric to the last bit, gives each block
    column the bits of its vector solve, and is the faster kernel on these
    factors.  The constructor's probe makes the same call.

    Accuracy is certified once per factorization, not per solve: diagonal
    pivoting of an SPD matrix, equilibrated near-optimally (van der Sluis,
    Numer. Math. 1969), is backward stable as Cholesky is (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed. 2002, ch. 10).  For any
    b the computed x then solves (A + E) x = b with ||E|| / ||A|| a small
    multiple of the unit round-off, which the constructor measures on the
    probe b = A z of a fixed z.  `FactorizationError` is raised for a
    matrix with a non-finite entry (before it is scaled), for one that is
    not exactly symmetric or has a diagonal entry that is not positive,
    for a failed factorization, and for a factor whose probe's relative
    residual exceeds 1e-12.
    """

    def __init__(self, matrix):
        matrix = sp.csc_matrix(matrix)
        # canonical before `_equilibrated` shares its index arrays: splu
        # would otherwise sort them in place under `self.matrix`
        matrix.sum_duplicates()
        if not np.all(np.isfinite(matrix.data)):
            raise FactorizationError("matrix has non-finite entries")
        d = matrix.diagonal()
        if (matrix != matrix.T).nnz or not np.all(d > 0.0):
            raise FactorizationError(
                "matrix is not symmetric with a positive diagonal")
        self.matrix, self.shape = matrix, matrix.shape
        self.scale = _equilibration(d)
        scaled = self._equilibrated()
        # A factorization is a run's largest allocation.  Beneath it glibc
        # keeps resident the heap freed before it (by earlier runs, by the
        # assembly of this matrix), so a run's peak memory would depend on
        # what ran before it and when.
        libc = ctypes.CDLL(None) if sys.platform == "linux" else None
        if hasattr(libc, "malloc_trim"):
            libc.malloc_trim(0)
        try:
            self._lu = spla.splu(scaled, permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0,
                                 options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise FactorizationError(str(exc)) from exc
        probe = matrix @ np.random.default_rng(0).standard_normal(self.shape[0])
        miss = np.linalg.norm(probe - matrix @ self._raw_solve(probe))
        if not miss <= 1e-12 * np.linalg.norm(probe):
            raise FactorizationError("factor fails its backward-error probe")

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
        return s * self._lu.solve(s * b, trans="T")

    def solve(self, b):
        return self._raw_solve(np.asarray(b, dtype=float))


def gmres(A, b, preconditioner=None, restart=50, rtol=1e-10, maxiter=1000,
          x0=None):
    """Restarted, right-preconditioned flexible GMRES (Saad, "A flexible
    inner-outer preconditioned GMRES algorithm", SISC 1993) on the
    equilibrated system S A S y = S b, x = S y, with S of `_equilibration`.
    `ValueError` is raised for a sparse matrix A that is not square and for
    a vector b whose length is not A's.

    `preconditioner` approximates the inverse of A: a matrix, a
    `LinearOperator` or an object with `shape`, `matvec` and `dtype`, such
    as `FixedStressPreconditioner`.  It acts on the equilibrated system as
    S^-1 M S^-1; without one, GMRES runs on S A S alone.  Each inner
    iteration applies it once, and the solution update needs no further
    application, because the preconditioned directions are kept.

    The iteration starts from `x0` (zero when None), restarts after
    `restart` inner iterations and makes at most `maxiter` of them.  It
    stops when the true equilibrated relative residual
    ||S (b - A x)|| / ||S b||, b the whole right-hand side, is at most
    `rtol`; a zero b returns zeros.  The report holds the inner
    iterations and that residual as `relres`.  Status 'breakdown' marks a
    cycle whose Hessenberg column was singular or not finite, short of the
    tolerance, and a b with a non-finite entry, which returns NaN as a
    direct solve would.
    """
    t0 = time.perf_counter()
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("system matrix must be square")
    if b.shape != (n,):
        raise ValueError("rhs length does not match the matrix")
    if not np.all(np.isfinite(b)):
        return np.full(n, np.nan), SolverReport(
            0, np.nan, time.perf_counter() - t0, False, "breakdown")
    s = _equilibration(A.diagonal())
    bnorm = np.linalg.norm(s * b)
    if bnorm == 0.0:
        return np.zeros(n), SolverReport(0, 0.0, time.perf_counter() - t0)
    M = (None if preconditioner is None
         else spla.aslinearoperator(preconditioner))
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    eps = np.finfo(float).eps
    iterations, status = 0, None
    while True:
        r = s * (b - A @ x)
        rnorm = np.linalg.norm(r)
        if rnorm <= rtol * bnorm:
            status = "converged"
            break
        if status == "breakdown" or not np.isfinite(rnorm):
            status = "breakdown"
            break
        if iterations == maxiter:
            status = "maxiter"
            break
        m = min(restart, n, maxiter - iterations)
        # Arnoldi on S A S with the directions S^-1 M S^-1 v_j, each kept
        # as the x-space direction z_j = M S^-1 v_j; the basis V grows
        # with the cycle, so a short cycle holds a few vectors only
        V = np.empty((min(m + 1, 8), n))
        V[0] = r / rnorm
        Z, H = [], np.zeros((m + 1, m))
        g = np.zeros(m + 1)
        g[0] = rnorm
        rotations = []
        for j in range(m):
            Z.append(s * V[j] if M is None else M.matvec(V[j] / s))
            w = s * (A @ Z[j])
            h = np.zeros(j + 2)
            h0 = np.linalg.norm(w)
            for _ in range(2):   # classical Gram-Schmidt, twice
                c = V[:j + 1] @ w
                w -= c @ V[:j + 1]
                h[:j + 1] += c
            h[j + 1] = np.linalg.norm(w)
            lucky = h[j + 1] <= eps * h0   # the basis spans the solution
            if lucky:
                h[j + 1] = 0.0
            elif j + 1 < m:
                if j + 1 == len(V):
                    grown = np.empty((min(2 * len(V), m + 1), n))
                    grown[:len(V)] = V
                    V = grown
                V[j + 1] = w / h[j + 1]
            for i, (cs, sn) in enumerate(rotations):
                h[i], h[i + 1] = (cs * h[i] + sn * h[i + 1],
                                  cs * h[i + 1] - sn * h[i])
            iterations += 1
            rho = np.hypot(h[j], h[j + 1])
            if not rho > 0.0:   # H_j singular or not finite: drop column j
                Z.pop()
                status = "breakdown"
                break
            cs, sn = h[j] / rho, h[j + 1] / rho
            rotations.append((cs, sn))
            H[:j, j], H[j, j] = h[:j], rho
            g[j], g[j + 1] = cs * g[j], -sn * g[j]
            if lucky or abs(g[j + 1]) <= rtol * bnorm:
                break
        k = len(Z)
        if k:
            y = sla.solve_triangular(H[:k, :k], g[:k], check_finite=False)
            for yj, zj in zip(y, Z):
                x += yj * zj
    seconds = time.perf_counter() - t0
    return x, SolverReport(iterations, float(rnorm / bnorm), seconds,
                           converged=status == "converged", status=status)


class FlowHalf:
    """The flow half of a fixed-stress sweep, which depends on (L1, tau)
    alone: the factored flux system of `flow_schur_system`, with the
    pressure eliminated through the diagonal P0 mass.  Sweeps of several
    L2 may share it."""

    def __init__(self, ops, L1, tau):
        self.lu = CachedLU(ops.flow_schur_system(L1, tau))
        self.L1, self.tau = L1, tau


class FixedStressPreconditioner:
    """One splitting sweep as a stationary linear operator on a reduced
    (r_u, r_q, r_p), the splitting step of `SchemeSolver` and the
    preconditioner its GMRES solves pass to `gmres`.  It holds the flow
    halves `flows` of step size `tau` (one of `cfg.L1` when None), the
    factored mechanics block `mech` of `cfg.L2`, and the two couplings.
    """

    def __init__(self, ops, cfg, tau, flows=None):
        if flows is not None and any(f.tau != tau for f in flows):
            raise ValueError("flow halves built for another step size")
        self.flows = flows or [FlowHalf(ops, cfg.L1, tau)]
        self.mech_lu = CachedLU(ops.mech_system(cfg.L2))
        # the pressure field is unreduced
        self.b_up_red, self.b_red = ops.reduced_couplings()
        self.b_red_t = self.b_red.T
        self.alpha, self.tau = ops.mat.alpha, tau
        self.L1 = np.array([f.L1 for f in self.flows])
        self.l1_areas = ops.mesh.areas[:, None] * self.L1
        self.sizes = (self.mech_lu.shape[0], self.flows[0].lu.shape[0],
                      ops.mesh.n_cells)
        self.shape = (sum(self.sizes),) * 2
        self.dtype = np.dtype(float)

    def matvec(self, r, cells=None):
        """The sweep of r, a vector or an (n, k) block whose column j uses
        the flow half cells[j] (the first when None): with
        w = r_p / (L1 M_p), d_q solves the flux system for r_q + B^T w,
        d_p = w - tau B d_q / (L1 M_p), and d_u the mechanics system for
        r_u + alpha B_u^T d_p, all written into one new block.  A column
        gets the bits of its vector sweep.
        """
        block = r if r.ndim == 2 else r[:, None]
        cells = [0] * block.shape[1] if cells is None else cells
        nu, nq, _ = self.sizes
        l1_areas = self.l1_areas[:, cells]
        out = np.empty(block.shape)   # (d_u, d_q, d_p), filled in place
        d_u, d_q, d_p = out[:nu], out[nu:nu + nq], out[nu + nq:]
        w = np.divide(block[nu + nq:], l1_areas, out=d_p)
        rhs_q = block[nu:nu + nq] + self.b_red_t @ w
        for j, c in enumerate(cells):   # each flux solve into its column
            d_q[:, j] = self.flows[c].lu.solve(rhs_q[:, j])
        d_p -= self.tau * (self.b_red @ d_q) / l1_areas
        d_u[:] = self.mech_lu.solve(block[:nu]
                                    + self.alpha * (self.b_up_red @ d_p))
        return out if r.ndim == 2 else out[:, 0]
