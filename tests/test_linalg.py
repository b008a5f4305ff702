import numpy as np
import pytest
import scipy.sparse as sp

from porobiot.assembly import build_operators
from porobiot.bench import manufactured_setup, run_mandel, sweep_L
from porobiot.linalg import (BlockSystem, CachedLU, FactorizationError,
                             FixedStressPreconditioner, SolverOptions, gmres)
from porobiot.mesh import generate_rect_mesh
from porobiot.physics import (MandelConfig, mandel_material, mandel_problem,
                              manufactured_material, manufactured_problem)
from porobiot.schemes import (SchemeConfig, SchemeSolver, StepContext,
                              build_initial_state, suggested_tuning)


def monolithic_linear_system(nx=8, alpha=1.0, tau=0.25):
    mat = manufactured_material("linear", alpha=alpha)
    prob = manufactured_problem(mat)
    mesh = generate_rect_mesh((0, 0), (1, 1), nx, nx)
    ops = build_operators(mesh, mat, prob)
    prev = build_initial_state(prob, ops)
    ctx = StepContext.build(ops, prob, prev, tau)
    sysd = ops.monolithic_system(1.0, 1.0, tau)
    rhs = sysd.restriction.T @ np.concatenate([ctx.f_vec, ctx.g_vec, ctx.mass_const]) \
        - sysd.rhs_shift
    return BlockSystem(sysd.matrix, rhs), ops, mat


def mandel_si_operators(nx=20):
    """SI consolidation operators: blocks twenty orders of magnitude apart."""
    cfg = MandelConfig()
    mat = mandel_material("linear", cfg)
    prob = mandel_problem(mat, cfg, final_time=10.0)
    mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), nx, nx)
    L1, L2 = suggested_tuning(mat, "monolithic")
    return build_operators(mesh, mat, prob), L1, L2


def count_raw_solves(lu):
    """Record every triangular solve pair that `lu` performs."""
    calls = []
    raw = lu._raw_solve

    def counted(b):
        calls.append(b)
        return raw(b)

    lu._raw_solve = counted
    return calls


def column_relres(A, B, X):
    """Each column's relative residual ||b - A x|| / ||b||."""
    B, X = (np.reshape(a, (len(a), -1)) for a in (B, X))
    return np.linalg.norm(B - A @ X, axis=0) / np.linalg.norm(B, axis=0)


def checked_solve(lu, b):
    """`CachedLU.solve` as it ran before factors were certified: each
    column whose relative residual exceeds 1e-12 is refined once."""
    b = np.asarray(b, dtype=float)
    x = lu._raw_solve(b)
    r = b - lu.matrix @ x
    rs, bs = (np.ascontiguousarray(a.reshape(len(a), -1).T) for a in (r, b))
    refine = [j for j, (rj, bj) in enumerate(zip(rs, bs))
              if np.sqrt(rj @ rj) > 1e-12 * np.sqrt(bj @ bj)]
    if refine:
        x.reshape(len(x), -1)[:, refine] += lu._raw_solve(
            r.reshape(len(r), -1)[:, refine])
    return x


class TestLU:
    def test_identity(self):
        x = CachedLU(sp.eye(5, format="csr")).solve(np.arange(5.0))
        assert np.allclose(x, np.arange(5.0))

    def test_diagonal(self):
        x = CachedLU(sp.diags([2.0, 4.0]).tocsr()).solve(np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_residual_oracle_on_biot_system(self):
        system, _, _ = monolithic_linear_system(nx=6)
        rng = np.random.default_rng(3)
        system = BlockSystem(system.matrix,
                             rng.standard_normal(system.matrix.shape[0]))
        x = CachedLU(system.matrix).solve(system.rhs)
        res = np.linalg.norm(system.matrix @ x - system.rhs)
        assert res / np.linalg.norm(system.rhs) <= 1e-11

    def test_singular_matrix(self):
        # symmetric and nonsymmetric: both orderings report the failure
        for entries in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [1.0, 2.0]]):
            with pytest.raises(FactorizationError):
                CachedLU(sp.csr_matrix(np.array(entries)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_matrix_fails_before_it_is_scaled(self):
        # an infinite diagonal would scale its row and column by 0, and
        # 0 * inf is NaN: the matrix is refused before the equilibration
        for bad in (np.inf, np.nan):
            A = sp.csr_matrix(np.array([[bad, 1.0], [1.0, 2.0]]))
            with pytest.raises(FactorizationError, match="non-finite"):
                CachedLU(A)

    def test_symmetric_one_triangular_solve(self):
        # the SI (u, q) system with the pressure eliminated is SPD: its
        # symmetric factorization meets the residual test without refinement
        ops, L1, L2 = mandel_si_operators()
        A = ops.monolithic_schur_system(L1, L2, 1.0).matrix
        lu = CachedLU(A)
        assert np.array_equal(lu._lu.perm_r, lu._lu.perm_c)
        calls = count_raw_solves(lu)
        rng = np.random.default_rng(11)
        for _ in range(3):
            b = rng.standard_normal(A.shape[0])
            x = lu.solve(b)
            assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
        assert len(calls) == 3

    def test_nonsymmetric_ill_scaled_refined(self):
        # the SI 3x3 block matrix misses the residual test after one solve:
        # it is refined, exactly as every solve was before refinement became
        # conditional
        ops, L1, L2 = mandel_si_operators()
        A = ops.monolithic_system(L1, L2, 1.0).matrix
        lu = CachedLU(A)
        b = np.random.default_rng(12).standard_normal(A.shape[0])
        x_once = lu._raw_solve(b)
        x_refined = x_once + lu._raw_solve(b - A @ x_once)
        calls = count_raw_solves(lu)
        x = lu.solve(b)
        assert len(calls) == 2
        assert np.linalg.norm(b - A @ x_once) > 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(b - A @ x) <= np.linalg.norm(b - A @ x_refined)

    @pytest.mark.parametrize("system", ["schur", "3x3"])
    def test_block_solve_is_column_solves(self, system):
        # one multi-column solve gives each column the bits of its own
        # vector solve, refined (3x3) or not (schur) alike
        ops, L1, L2 = mandel_si_operators(nx=8)
        A = (ops.monolithic_schur_system(L1, L2, 1.0) if system == "schur"
             else ops.monolithic_system(L1, L2, 1.0)).matrix
        lu = CachedLU(A)
        B = np.random.default_rng(14).standard_normal((A.shape[0], 4))
        X = lu.solve(B)
        assert X.shape == B.shape
        for j in range(B.shape[1]):
            assert X[:, j].tobytes() == lu.solve(B[:, j]).tobytes()

    def test_block_refinement_is_decided_per_column(self):
        # perturb one column of the first triangular solve: that column
        # alone is refined, and the others keep their unrefined bits.  A
        # certified factor checks no solve, so this runs on a
        # well-conditioned nonsymmetric one
        A = monolithic_linear_system(nx=8)[0].matrix
        lu = CachedLU(A)
        assert not lu.certified
        B = np.random.default_rng(15).standard_normal((A.shape[0], 3))
        want = [lu.solve(B[:, j]) for j in range(3)]

        class Perturbed:
            def __init__(self, factor):
                self.factor, self.shapes = factor, []

            def solve(self, b):
                x = self.factor.solve(b)
                if not self.shapes:
                    x[:, 1] *= 1.0 + 1e-6
                self.shapes.append(b.shape)
                return x

        lu._lu = Perturbed(lu._lu)
        X = lu.solve(B)
        assert lu._lu.shapes == [B.shape, (A.shape[0], 1)]
        assert X[:, 0].tobytes() == want[0].tobytes()
        assert X[:, 2].tobytes() == want[2].tobytes()
        assert np.linalg.norm(B[:, 1] - A @ X[:, 1]) <= 1e-12 * np.linalg.norm(
            B[:, 1])

    def test_cached_lu_reuse(self):
        A = sp.diags([1.0, 2.0, 3.0]).tocsr()
        lu = CachedLU(A)
        for b in (np.ones(3), np.array([3.0, 2.0, 1.0])):
            assert np.allclose(A @ lu.solve(b), b)


class TestCertificate:
    def test_certified_solve_is_one_triangular_solve(self):
        # a vector and an (n, k) block alike: no residual is formed, and
        # the bits are those of the residual-checked solve, which refines
        # none of them
        ops, L1, L2 = mandel_si_operators(nx=8)
        A = ops.monolithic_schur_system(L1, L2, 1.0).matrix
        lu = CachedLU(A)
        assert lu.certified
        M = lu.matrix

        class Products:
            def __init__(self):
                self.count = 0

            def __matmul__(self, x):
                self.count += 1
                return M @ x

        rng = np.random.default_rng(21)
        for b in (rng.standard_normal(A.shape[0]),
                  rng.standard_normal((A.shape[0], 4))):
            want = checked_solve(lu, b)
            calls, lu.matrix = count_raw_solves(lu), Products()
            x = lu.solve(b)
            assert len(calls) == 1 and calls[0].shape == b.shape
            assert lu.matrix.count == 0
            lu.matrix = M
            assert x.tobytes() == want.tobytes()
            assert column_relres(A, b, x).max() <= 1e-12

    @pytest.mark.parametrize("matrix", ["si-3x3", "linear-3x3", "triangular"])
    def test_nonsymmetric_never_certified(self, matrix):
        if matrix == "si-3x3":
            ops, L1, L2 = mandel_si_operators(nx=8)
            A = ops.monolithic_system(L1, L2, 1.0).matrix
        elif matrix == "linear-3x3":
            A = monolithic_linear_system(nx=4)[0].matrix
        else:   # exact in one solve: its probe would pass
            A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 4.0]]))
        lu = CachedLU(A)
        assert not lu.certified
        B = np.random.default_rng(22).standard_normal((A.shape[0], 2))
        assert lu.solve(B).tobytes() == checked_solve(lu, B).tobytes()

    def test_failed_probe_keeps_per_column_refinement(self):
        # symmetric but not definite: diagonal pivots of the equilibrated
        # matrix grow by 1e18, and so does the backward error
        eps = 1e-9
        A = sp.csr_matrix(np.array([[eps, 1.0, 0.0], [1.0, eps, 0.0],
                                    [0.0, 0.0, 2.0]]))
        lu = CachedLU(A)
        assert np.array_equal(lu._lu.perm_r, lu._lu.perm_c)
        assert not lu.certified
        B = np.zeros((3, 3))
        B[:, 0], B[:, 1], B[2, 2] = [1.0, 1.0, 0.0], [1.0, -1.0, 1.0], 1.0
        refined = column_relres(A, B, lu._raw_solve(B)) > 1e-12
        assert refined.tolist() == [True, True, False]
        calls = count_raw_solves(lu)
        X = lu.solve(B)
        assert [c.shape for c in calls] == [B.shape, (3, 2)]
        assert X.tobytes() == checked_solve(lu, B).tobytes()
        for j in range(3):
            assert X[:, j].tobytes() == lu.solve(B[:, j]).tobytes()

    @pytest.mark.parametrize("problem", ["mandel", "t1c1"])
    def test_every_scheme_factor_certified(self, monkeypatch, problem):
        # the monolithic LU, the GMRES sweep and the splitting sweep, at
        # the suggested tuning and at the corners of the benchmark's L-grid
        from porobiot import linalg
        built = []
        original = linalg.CachedLU.__init__

        def recording_init(lu, matrix):
            original(lu, matrix)
            built.append(lu)

        monkeypatch.setattr(linalg.CachedLU, "__init__", recording_init)
        ops = (mandel_si_operators(nx=8)[0] if problem == "mandel"
               else manufactured_setup("t1c1", 8)[0])
        cells = [(kind, *suggested_tuning(ops.mat, kind))
                 for kind in ("monolithic", "splitting")]
        cells += [("splitting", l1, l2) for l1 in (1e-2, 1e2)
                  for l2 in (1e-2, 1e2)]
        for method in ("lu", "gmres"):
            ops.solver = SolverOptions(method)
            for kind, L1, L2 in cells:
                SchemeSolver(ops, SchemeConfig(kind, L1=L1, L2=L2), 0.25)
        # monolithic LU 1, GMRES sweep 2, five splitting sweeps twice 2
        assert len(built) == 23
        assert all(lu.certified for lu in built)

    def test_run_solves_meet_the_residual_bound(self, monkeypatch):
        # the check that certified factors no longer make on every solve,
        # made here on every column of every solve of short runs: SI
        # Mandel by each scheme and solver, and a lock-step L-sweep
        from porobiot import linalg
        worst, solve = [], linalg.CachedLU.solve

        def checked(lu, b):
            x = solve(lu, b)
            worst.append(column_relres(lu.matrix, b, x).max())
            return x

        monkeypatch.setattr(linalg.CachedLU, "solve", checked)
        for kind, method in [("monolithic", "lu"), ("monolithic", "gmres"),
                             ("splitting", "lu")]:
            run_mandel(scheme_kind=kind, n_steps=3, nx=8, ny=8,
                       solver=SolverOptions(method))
        grid = sweep_L("t1c1", "splitting", [1e-2, 1.0, 1e2],
                       [1e-2, 1.0, 1e2], nx=8)
        assert "converged" in {s for row in grid.status for s in row}
        assert len(worst) > 100
        assert max(worst) <= 1e-12


class TestBlockSystem:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BlockSystem(sp.eye(3, 4, format="csr"), np.zeros(3))
        with pytest.raises(ValueError):
            BlockSystem(sp.eye(3, format="csr"), np.zeros(4))
        with pytest.raises(ValueError):
            BlockSystem(sp.eye(3, format="csr"), np.array([1.0, np.nan, 0.0]))


class TestGMRES:
    def test_spd_diagonal_krylov_exactness(self):
        # n distinct eigenvalues: converges in at most n iterations
        diag = np.arange(1.0, 9.0)
        system = BlockSystem(sp.diags(diag).tocsr(), np.ones(8))
        x, rep = gmres(system, rtol=1e-12)
        assert rep.converged
        assert rep.iterations <= 8
        assert np.allclose(x, 1.0 / diag)

    def test_exact_inverse_preconditioner_one_iteration(self):
        rng = np.random.default_rng(5)
        A = sp.csr_matrix(rng.standard_normal((12, 12)) + 12 * np.eye(12))
        b = rng.standard_normal(12)
        inv = np.linalg.inv(A.toarray())
        x, rep = gmres(BlockSystem(A, b), preconditioner=inv,
                       rtol=1e-10)
        assert rep.converged
        assert rep.iterations <= 1
        assert np.allclose(A @ x, b, atol=1e-8)

    def test_residual_history_monotone_within_cycle(self):
        system, ops, mat = monolithic_linear_system(nx=6)
        d = np.abs(system.matrix.diagonal())
        S = sp.diags(1.0 / np.sqrt(np.where(d > 0, d, 1.0)))
        scaled = BlockSystem((S @ system.matrix @ S).tocsr(), S @ system.rhs)
        x, rep = gmres(scaled, restart=40, rtol=1e-10, maxiter=200)
        hist = rep.history
        for i in range(1, len(hist)):
            if i % 40 != 0:  # inside one restart cycle
                assert hist[i] <= hist[i - 1] * (1 + 1e-12)

    def test_maxiter_status(self):
        system, _, _ = monolithic_linear_system(nx=6)
        x, rep = gmres(system, rtol=1e-12, maxiter=5)
        assert not rep.converged
        assert rep.status == "maxiter"
        assert rep.iterations <= 5 + 49  # rounded up to whole restart cycles


class TestFixedStressPreconditioner:
    def test_zero_residual_zero_correction(self):
        _, ops, mat = monolithic_linear_system(nx=4)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        M = FixedStressPreconditioner(ops, cfg, 0.25)
        out = M.matvec(np.zeros(M.shape[0]))
        assert np.allclose(out, 0.0)

    def test_linearity(self):
        _, ops, mat = monolithic_linear_system(nx=4)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        M = FixedStressPreconditioner(ops, cfg, 0.25)
        rng = np.random.default_rng(6)
        r1 = rng.standard_normal(M.shape[0])
        r2 = rng.standard_normal(M.shape[0])
        left = M.matvec(2.5 * r1 + r2)
        right = 2.5 * M.matvec(r1) + M.matvec(r2)
        scale = max(np.abs(left).max(), 1.0)
        assert np.abs(left - right).max() <= 1e-12 * scale

    def test_block_sweep_is_column_sweeps(self):
        # both halves, and so the sweep, take blocks column by column
        _, ops, mat = monolithic_linear_system(nx=4)
        M = FixedStressPreconditioner(
            ops, SchemeConfig("splitting", L1=0.3, L2=3.0), 0.25)
        R = np.random.default_rng(16).standard_normal((M.shape[0], 3))
        got = M.matvec(R)
        for j in range(R.shape[1]):
            assert got[:, j].tobytes() == M.matvec(R[:, j]).tobytes()

    def test_decoupled_block_exactness(self):
        # alpha = 0 decouples mechanics from flow: the sweep is an exact
        # inverse and GMRES converges immediately
        system, ops, mat = monolithic_linear_system(nx=6, alpha=0.0)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        M = FixedStressPreconditioner(ops, cfg, 0.25)
        rng = np.random.default_rng(7)
        system = BlockSystem(system.matrix,
                             rng.standard_normal(system.matrix.shape[0]))
        x, rep = gmres(system, preconditioner=M,
                       rtol=1e-10)
        assert rep.converged
        assert rep.iterations <= 2

    def test_mesh_robust_iteration_counts(self):
        counts = []
        for nx in (8, 16, 32):
            system, ops, mat = monolithic_linear_system(nx=nx)
            cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
            M = FixedStressPreconditioner(ops, cfg, 0.25)
            x, rep = gmres(system, preconditioner=M,
                           rtol=1e-10)
            assert rep.converged
            counts.append(rep.iterations)
        assert max(counts) <= 15
        assert max(counts) - min(counts) <= 3

    def test_direct_vs_preconditioned_gmres(self):
        system, ops, mat = monolithic_linear_system(nx=8)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        M = FixedStressPreconditioner(ops, cfg, 0.25)
        xg, repg = gmres(system, preconditioner=M,
                         rtol=1e-12)
        xd = CachedLU(system.matrix).solve(system.rhs)
        assert np.linalg.norm(xg - xd) / np.linalg.norm(xd) <= 1e-8


@pytest.mark.parametrize("case", ["t1c1", "mandel"])
def test_sweep_matches_two_by_two_flow_oracle(case):
    # oracle: one sweep, whose flow step eliminates the pressure, against
    # the same sweep solved with the 2x2 flux-pressure block
    if case == "mandel":
        ops, _, _ = mandel_si_operators()
        mat, tau = ops.mat, 1.0
    else:
        mat = manufactured_material(case)
        ops = build_operators(generate_rect_mesh((0, 0), (1, 1), 8, 8), mat,
                              manufactured_problem(mat))
        tau = 0.25
    L1, L2 = suggested_tuning(mat, "splitting")
    M = FixedStressPreconditioner(ops, SchemeConfig("monolithic", L1, L2),
                                  tau)
    nu, nq, _ = M.sizes
    r = np.random.default_rng(13).standard_normal(M.shape[0])
    d_qp = CachedLU(ops.flow_system(L1, tau).matrix).solve(r[nu:])
    b_up_red = ops.constraints.u.restriction.T @ ops.b_up
    d_u = CachedLU(ops.mech_system(L2).matrix).solve(
        r[:nu] + mat.alpha * (b_up_red @ d_qp[nq:]))
    got = M.matvec(r)
    for block in (slice(0, nu), slice(nu, nu + nq), slice(nu + nq, None)):
        want = np.concatenate([d_u, d_qp])[block]
        assert np.linalg.norm(got[block] - want) <= 1e-10 * np.linalg.norm(want)
