import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porobiot.assembly import build_operators
from porobiot.bench import manufactured_setup, run_mandel, sweep_L
from porobiot.linalg import (CachedLU, FactorizationError,
                             FixedStressPreconditioner, FlowHalf,
                             SolverOptions, gmres)
from porobiot.mesh import generate_rect_mesh
from porobiot.physics import (MandelConfig, mandel_material, mandel_problem,
                              manufactured_material, manufactured_problem)
from porobiot.schemes import (SchemeConfig, SchemeSolver, StepContext,
                              build_initial_state, suggested_tuning)

from oracles import lu_solve


def monolithic_linear_system(nx=8, alpha=1.0, tau=0.25):
    """The reduced 3x3 matrix and right-hand side of one linear monolithic
    step (L1 = L2 = 1) on the nx-by-nx unit square, its operators and
    material."""
    mat = manufactured_material("linear", alpha=alpha)
    prob = manufactured_problem(mat)
    mesh = generate_rect_mesh((0, 0), (1, 1), nx, nx)
    ops = build_operators(mesh, mat, prob)
    prev = build_initial_state(prob, ops)
    ctx = StepContext.build(ops, prev, tau)
    R = ops.constraints.composed(("u", "q", "p"))
    rhs = R.T @ np.concatenate([ctx.f_vec, ctx.g_vec, ctx.mass_const])
    return ops.monolithic_system(1.0, 1.0, tau), rhs, ops, mat


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


class TestLU:
    def test_identity(self):
        x = CachedLU(sp.eye(5, format="csr")).solve(np.arange(5.0))
        assert np.allclose(x, np.arange(5.0))

    def test_diagonal(self):
        x = CachedLU(sp.diags([2.0, 4.0]).tocsr()).solve(np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_residual_oracle_on_biot_system(self):
        # the (u, q) system with the pressure eliminated, the one a
        # monolithic LU step factors
        _, _, ops, _ = monolithic_linear_system(nx=6)
        A = ops.monolithic_schur_system(1.0, 1.0, 0.25)
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        x = CachedLU(A).solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-11

    def test_singular_matrix(self):
        # symmetric: SuperLU meets a zero pivot; nonsymmetric: refused
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
        A = ops.monolithic_schur_system(L1, L2, 1.0)
        lu = CachedLU(A)
        assert np.array_equal(lu._lu.perm_r, lu._lu.perm_c)
        calls = count_raw_solves(lu)
        rng = np.random.default_rng(11)
        for _ in range(3):
            b = rng.standard_normal(A.shape[0])
            x = lu.solve(b)
            assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
        assert len(calls) == 3

    @pytest.mark.parametrize("system", ["schur", "mech"])
    def test_block_solve_is_column_solves(self, system):
        # one multi-column solve gives each column the bits of its own
        # vector solve
        ops, L1, L2 = mandel_si_operators(nx=8)
        A = (ops.monolithic_schur_system(L1, L2, 1.0) if system == "schur"
             else ops.mech_system(L2))
        lu = CachedLU(A)
        B = np.random.default_rng(14).standard_normal((A.shape[0], 4))
        X = lu.solve(B)
        assert X.shape == B.shape
        for j in range(B.shape[1]):
            assert X[:, j].tobytes() == lu.solve(B[:, j]).tobytes()

    def test_one_column_block_solve_is_the_vector_solve(self):
        # a one-column block is solved with the bits of its vector, which
        # SuperLU's transposed kernel gives the block itself, in one call
        # of the solve
        ops, L1, L2 = mandel_si_operators(nx=8)
        lu = CachedLU(ops.monolithic_schur_system(L1, L2, 1.0))
        b = np.random.default_rng(15).standard_normal(lu.shape[0])
        s = lu.scale[:, None]
        block = s * lu._lu.solve(s * b[:, None], trans="T")
        calls = count_raw_solves(lu)
        x = lu.solve(b[:, None])
        assert len(calls) == 1 and x.shape == (b.size, 1)
        assert x.tobytes() == lu.solve(b).tobytes() == block.tobytes()

    def test_every_solve_is_one_transposed_kernel_call(self, monkeypatch):
        # the probe, a vector, a one-column block and a 4-column block each
        # reach SuperLU as exactly one call of its transposed kernel
        calls, splu = [], spla.splu

        class Recording:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs, trans="N"):
                calls.append((rhs.shape, trans))
                return self.lu.solve(rhs, trans=trans)

        monkeypatch.setattr(spla, "splu",
                            lambda *args, **kwargs: Recording(splu(*args, **kwargs)))
        ops, L1, L2 = mandel_si_operators(nx=8)
        lu = CachedLU(ops.mech_system(L2))
        n = lu.shape[0]
        assert calls == [((n,), "T")]
        rng = np.random.default_rng(16)
        for shape in ((n,), (n, 1), (n, 4)):
            calls.clear()
            b = rng.standard_normal(shape)
            x = lu.solve(b)
            assert calls == [(shape, "T")] and x.shape == shape
            assert column_relres(lu.matrix, b, x).max() <= 1e-12

    def test_cached_lu_reuse(self):
        A = sp.diags([1.0, 2.0, 3.0]).tocsr()
        lu = CachedLU(A)
        for b in (np.ones(3), np.array([3.0, 2.0, 1.0])):
            assert np.allclose(A @ lu.solve(b), b)


class TestCertificate:
    def test_certified_solve_is_one_triangular_solve(self):
        # a vector and an (n, k) block alike: no residual is formed, and
        # every column meets the bound the probe certified
        ops, L1, L2 = mandel_si_operators(nx=8)
        A = ops.monolithic_schur_system(L1, L2, 1.0)
        lu = CachedLU(A)
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
            want = lu._raw_solve(b)
            calls, lu.matrix = count_raw_solves(lu), Products()
            x = lu.solve(b)
            assert len(calls) == 1 and calls[0].shape == b.shape
            assert lu.matrix.count == 0
            lu.matrix = M
            assert x.tobytes() == want.tobytes()
            assert column_relres(A, b, x).max() <= 1e-12

    @pytest.mark.parametrize("matrix", ["si-3x3", "linear-3x3", "triangular"])
    def test_nonsymmetric_never_certified(self, matrix):
        # a nonsymmetric matrix is refused, not factored
        if matrix == "si-3x3":
            ops, L1, L2 = mandel_si_operators(nx=8)
            A = ops.monolithic_system(L1, L2, 1.0)
        elif matrix == "linear-3x3":
            A = monolithic_linear_system(nx=4)[0]
        else:   # exact in one solve: its probe would pass
            A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 4.0]]))
        with pytest.raises(FactorizationError, match="not symmetric"):
            CachedLU(A)

    @pytest.mark.parametrize("diagonal", [0.0, -1.0])
    def test_non_positive_diagonal_refused(self, diagonal):
        # symmetric, with one diagonal entry that is zero or negative: not
        # definite, and it has no inverse square root to scale by
        A = sp.csr_matrix(np.array([[diagonal, 1.0, 0.0], [1.0, 4.0, 0.0],
                                    [0.0, 0.0, 2.0]]))
        with pytest.raises(FactorizationError, match="positive diagonal"):
            CachedLU(A)

    def test_failed_probe_refused(self, monkeypatch):
        # symmetric with a positive diagonal but not definite: diagonal
        # pivots of the equilibrated matrix grow by 1e18, and so does the
        # backward error.  The probe runs on the private triangular solve,
        # never through `solve`.
        solves = []
        monkeypatch.setattr(CachedLU, "solve",
                            lambda lu, b: solves.append(b))
        eps = 1e-9
        A = sp.csr_matrix(np.array([[eps, 1.0, 0.0], [1.0, eps, 0.0],
                                    [0.0, 0.0, 2.0]]))
        with pytest.raises(FactorizationError, match="probe"):
            CachedLU(A)
        CachedLU(A + sp.eye(3))
        assert solves == []

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
        # and L1, L2 at 1e-12 and 1e12 times the suggested tuning
        s1, s2 = cells[0][1:]
        cells += [("monolithic", s1 * f1, s2 * f2) for f1 in (1e-12, 1e12)
                  for f2 in (1e-12, 1e12)]
        for method in ("lu", "gmres"):
            ops.solver = SolverOptions(method)
            for kind, L1, L2 in cells:
                SchemeSolver(ops, SchemeConfig(kind, L1=L1, L2=L2), 0.25)
        # each factor passed its probe, or its constructor would have
        # raised: five monolithic cells by LU 1 and by GMRES sweep 2, and
        # five splitting sweeps twice 2
        assert len(built) == 5 * (1 + 2) + 5 * 2 * 2

    def test_run_solves_meet_the_residual_bound(self, monkeypatch):
        # the check that no solve makes, made here on every column of
        # every solve of short runs: SI Mandel by each scheme and solver,
        # and a lock-step L-sweep
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


# a division by a zero norm in the Krylov code (a lucky breakdown, a zero
# right-hand side) fails the test instead of passing with NaNs
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGMRES:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            gmres(sp.eye(3, 4, format="csr"), np.zeros(3))
        with pytest.raises(ValueError, match="length"):
            gmres(sp.eye(3, format="csr"), np.zeros(4))

    def test_non_finite_rhs_returns_nan(self):
        # as a direct solve would, not the start x0: no iteration is made,
        # and the report says breakdown
        x, rep = gmres(sp.eye(3, format="csr"), np.array([1.0, np.nan, 0.0]),
                       x0=np.ones(3))
        assert np.all(np.isnan(x))
        assert not rep.converged and rep.status == "breakdown"
        assert rep.iterations == 0

    def test_spd_diagonal_krylov_exactness(self):
        # n distinct eigenvalues: converges in at most n iterations
        diag = np.arange(1.0, 9.0)
        x, rep = gmres(sp.diags(diag).tocsr(), np.ones(8), rtol=1e-12)
        assert rep.converged
        assert rep.iterations <= 8
        assert np.allclose(x, 1.0 / diag)

    def test_exact_inverse_preconditioner_one_iteration(self):
        rng = np.random.default_rng(5)
        A = sp.csr_matrix(rng.standard_normal((12, 12)) + 12 * np.eye(12))
        b = rng.standard_normal(12)
        inv = np.linalg.inv(A.toarray())
        x, rep = gmres(A, b, preconditioner=inv, rtol=1e-10)
        assert rep.converged
        assert rep.iterations <= 1
        assert np.allclose(A @ x, b, atol=1e-8)

    def test_maxiter_status(self):
        A, b, _, _ = monolithic_linear_system(nx=6)
        x, rep = gmres(A, b, rtol=1e-12, maxiter=5)
        assert not rep.converged
        assert rep.status == "maxiter"
        assert rep.iterations == 5   # the cap counts inner iterations exactly

    def test_warm_start_at_the_solution_takes_no_iteration(self):
        A, b, ops, _ = monolithic_linear_system(nx=6)
        M = FixedStressPreconditioner(
            ops, SchemeConfig("monolithic", L1=1.0, L2=1.0), 0.25)
        x = lu_solve(A, b)
        got, rep = gmres(A, b, preconditioner=M, rtol=1e-10, x0=x)
        assert rep.converged and rep.iterations == 0 and rep.relres <= 1e-10
        assert got.tobytes() == x.tobytes() and got is not x

    def test_zero_rhs_returns_zeros(self):
        A, _, _, _ = monolithic_linear_system(nx=4)
        x, rep = gmres(A, np.zeros(A.shape[0]), x0=np.ones(A.shape[0]))
        assert rep.converged and rep.iterations == 0 and rep.relres == 0.0
        assert not np.any(x)

    def test_lucky_breakdown_converges(self):
        # b is an eigenvector: the first inner iteration spans the solution
        x, rep = gmres(sp.diags([2.0, 3.0, 5.0]).tocsr(),
                       np.array([0.0, 6.0, 0.0]))
        assert rep.converged and rep.iterations == 1
        assert np.allclose(x, [0.0, 2.0, 0.0])

    def test_stop_is_unit_invariant(self):
        # the system in other units, D A D (D^-1 x) = D b with D spanning
        # twenty decades, preconditioned by the sweep in the same units:
        # the stop tests the same equilibrated residual, so the same
        # iterations, final residual and solution follow
        A, b, ops, _ = monolithic_linear_system(nx=8)
        M = FixedStressPreconditioner(
            ops, SchemeConfig("monolithic", L1=1.0, L2=1.0), 0.25)
        n = A.shape[0]
        d = 10.0 ** np.random.default_rng(17).uniform(-10.0, 10.0, n)
        D = sp.diags(d)
        M_d = spla.LinearOperator((n, n), matvec=lambda v: M.matvec(v / d) / d)
        x, rep = gmres(A, b, preconditioner=M, rtol=1e-10)
        x_d, rep_d = gmres((D @ A @ D).tocsr(), d * b, preconditioner=M_d,
                           rtol=1e-10)
        assert rep.converged and rep_d.converged
        assert rep_d.iterations == rep.iterations
        assert rep_d.relres == pytest.approx(rep.relres, rel=1e-6)
        assert np.linalg.norm(d * x_d - x) <= 1e-10 * np.linalg.norm(x)


class TestSolverOptions:
    @pytest.mark.parametrize("field, value", [
        ("restart", 0), ("restart", 2.5), ("restart", True),
        ("maxiter", 0), ("maxiter", -3), ("maxiter", 10.0),
        ("rtol", 0.0), ("rtol", -1.0), ("rtol", 1.0), ("rtol", np.nan),
        ("rtol", np.inf), ("method", "cg")])
    def test_invalid_values_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverOptions(**{"method": "gmres", field: value})

    def test_valid_values_kept(self):
        opts = SolverOptions("gmres", restart=1, rtol=0.5, maxiter=1)
        assert (opts.restart, opts.rtol, opts.maxiter) == (1, 0.5, 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFixedStressPreconditioner:
    def test_zero_residual_zero_correction(self):
        _, _, ops, mat = monolithic_linear_system(nx=4)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        M = FixedStressPreconditioner(ops, cfg, 0.25)
        out = M.matvec(np.zeros(M.shape[0]))
        assert np.allclose(out, 0.0)

    def test_linearity(self):
        _, _, ops, mat = monolithic_linear_system(nx=4)
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
        # every column of a block uses the first flow half, to the bits
        # of its own vector sweep
        _, _, ops, mat = monolithic_linear_system(nx=4)
        M = FixedStressPreconditioner(
            ops, SchemeConfig("splitting", L1=0.3, L2=3.0), 0.25)
        R = np.random.default_rng(16).standard_normal((M.shape[0], 3))
        got = M.matvec(R)
        for j in range(R.shape[1]):
            assert got[:, j].tobytes() == M.matvec(R[:, j]).tobytes()

    def test_block_columns_use_their_flow_halves(self):
        # a block of nine columns over nine flow halves, taken in a permuted
        # order, as a lock-step L-sweep's first block: each column is the
        # vector sweep of a sweep built for its cell alone
        _, _, ops, mat = monolithic_linear_system(nx=4)
        cfgs = [SchemeConfig("splitting", L1=l1, L2=3.0)
                for l1 in np.logspace(-2.0, 2.0, 9)]
        M = FixedStressPreconditioner(
            ops, cfgs[0], 0.25, [FlowHalf(ops, c.L1, 0.25) for c in cfgs])
        rng = np.random.default_rng(18)
        R = rng.standard_normal((M.shape[0], 9))
        cells = rng.permutation(9).tolist()
        assert cells != sorted(cells)
        got = M.matvec(R, cells)
        for j, c in enumerate(cells):
            own = FixedStressPreconditioner(ops, cfgs[c], 0.25)
            assert got[:, j].tobytes() == own.matvec(R[:, j]).tobytes()

    def test_decoupled_block_exactness(self):
        # alpha = 0 decouples mechanics from flow: the sweep is an exact
        # inverse and GMRES converges immediately
        A, _, ops, mat = monolithic_linear_system(nx=6, alpha=0.0)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        M = FixedStressPreconditioner(ops, cfg, 0.25)
        b = np.random.default_rng(7).standard_normal(A.shape[0])
        x, rep = gmres(A, b, preconditioner=M, rtol=1e-10)
        assert rep.converged
        assert rep.iterations <= 2

    def test_mesh_robust_iteration_counts(self):
        counts = []
        for nx in (8, 16, 32):
            A, b, ops, mat = monolithic_linear_system(nx=nx)
            cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
            M = FixedStressPreconditioner(ops, cfg, 0.25)
            x, rep = gmres(A, b, preconditioner=M, rtol=1e-10)
            assert rep.converged
            counts.append(rep.iterations)
        assert max(counts) <= 15
        assert max(counts) - min(counts) <= 3

    def test_direct_vs_preconditioned_gmres(self):
        A, b, ops, mat = monolithic_linear_system(nx=8)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        M = FixedStressPreconditioner(ops, cfg, 0.25)
        xg, repg = gmres(A, b, preconditioner=M, rtol=1e-12)
        xd = lu_solve(A, b)
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
    d_qp = lu_solve(ops.flow_system(L1, tau), r[nu:])
    b_up_red = ops.constraints.composed(("u",)).T @ ops.b_up
    d_u = CachedLU(ops.mech_system(L2)).solve(
        r[:nu] + mat.alpha * (b_up_red @ d_qp[nq:]))
    got = M.matvec(r)
    for block in (slice(0, nu), slice(nu, nu + nq), slice(nu + nq, None)):
        want = np.concatenate([d_u, d_qp])[block]
        assert np.linalg.norm(got[block] - want) <= 1e-10 * np.linalg.norm(want)
