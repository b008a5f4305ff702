import platform
import warnings
from dataclasses import replace

import numpy as np
import pytest

from porobiot.assembly import build_operators
from porobiot.fem import FeFunction, l2_norm
from porobiot.linalg import SolverOptions
from porobiot.mesh import Side, generate_rect_mesh
from porobiot.physics import (MandelConfig, NonlinearLaw, QBc, UBc,
                              make_material, law_catalog, mandel_material,
                              mandel_problem, manufactured_material,
                              manufactured_problem)
from porobiot.schemes import (BiotState, DivergenceError, SchemeConfig,
                              SchemeConfigError, SchemeSolver, StepContext,
                              build_initial_state, iterate_lockstep,
                              iterate_to_convergence, residual_norms, stop_status, suggested_tuning,
                              time_march, write_trace_csv)

from oracles import lu_solve


def linear_setup(nx=8):
    mat = manufactured_material("linear")
    prob = manufactured_problem(mat)
    mesh = generate_rect_mesh((0, 0), (1, 1), nx, nx)
    ops = build_operators(mesh, mat, prob)
    prev = build_initial_state(prob, ops)
    return mesh, mat, prob, ops, prev


def reduced_solve(system, rhs_full):
    """Solve a reduced system by LU and lift the solution to the full space."""
    R = system.restriction
    return R @ lu_solve(system.matrix, R.T @ rhs_full - system.rhs_shift) \
        + system.lift


def direct_solve(ops, prob, prev, tau, L1=1.0, L2=1.0):
    """Oracle: one-shot solve of the coupled linear discrete system."""
    ctx = StepContext.build(ops, prob, prev, tau)
    sysd = ops.monolithic_system(L1, L2, tau)
    x = reduced_solve(sysd, np.concatenate([ctx.f_vec, ctx.g_vec,
                                            ctx.mass_const]))
    nu, nq = ops.dofmap_u.n_dofs, ops.dofmap_q.n_dofs
    return BiotState(FeFunction(ops.dofmap_u, x[:nu]),
                     FeFunction(ops.dofmap_q, x[nu:nu + nq]),
                     FeFunction(ops.dofmap_p, x[nu + nq:]), prev.time + tau)


def field_errors(ops, a, b):
    return (l2_norm(FeFunction(ops.dofmap_p, a.p.coeffs - b.p.coeffs)),
            l2_norm(FeFunction(ops.dofmap_q, a.q.coeffs - b.q.coeffs)),
            l2_norm(FeFunction(ops.dofmap_u, a.u.coeffs - b.u.coeffs)))


class TestSchemeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig("newton", 1.0, 1.0)
        with pytest.raises(ValueError):
            SchemeConfig("splitting", -1.0, 1.0)
        with pytest.raises(ValueError):
            SchemeConfig("splitting", 1.0, 1.0, tol=0.0)
        # both schemes eliminate the pressure through L1 M_p
        with pytest.raises(ValueError):
            SchemeConfig("splitting", L1=0.0, L2=1.0)
        with pytest.raises(ValueError):
            SchemeConfig("monolithic", L1=0.0, L2=1.0)

    @pytest.mark.parametrize("bad", [
        {"max_iter": 0}, {"max_iter": -3}, {"max_iter": 2.5},
        {"max_iter": True}, {"divergence_factor": float("nan")},
        {"divergence_factor": -1.0}, {"divergence_factor": 0.5},
        {"divergence_factor": float("inf")}])
    def test_stop_controls_validated(self, bad):
        # a non-integer or non-positive max_iter, and a divergence factor
        # that is not finite or below 1, would end or disable the stop rule
        with pytest.raises(SchemeConfigError):
            SchemeConfig("splitting", 1.0, 1.0, **bad)

    def test_stop_controls_accepted(self):
        cfg = SchemeConfig("splitting", 1.0, 1.0, max_iter=np.int64(3),
                           divergence_factor=1.0)
        assert cfg.max_iter == 3 and cfg.divergence_factor == 1.0

    def test_stop_status_order(self):
        cfg = SchemeConfig("splitting", 1.0, 1.0, tol=1e-8, max_iter=3,
                           divergence_factor=10.0)
        assert stop_status(float("nan"), 1.0, 1, cfg) == "diverged"
        assert stop_status(float("inf"), 1.0, 2, cfg) == "diverged"
        # at max_iter, a converged or diverged increment says so
        assert stop_status(1e-8, 1.0, 3, cfg) == "converged"
        assert stop_status(10.5, 1.0, 3, cfg) == "diverged"
        assert stop_status(10.0, 1.0, 3, cfg) == "maxiter"
        assert stop_status(10.0, 1.0, 2, cfg) is None
        # the first increment never exceeds itself
        assert stop_status(5.0, 5.0, 1, replace(cfg, divergence_factor=1.0)) \
            is None

    def test_theorem_flags(self):
        mat = manufactured_material("t1c1")  # b_m = 1/e, L_b = e, L_h = 0.75
        safe = SchemeConfig("splitting", L1=mat.L_b,
                            L2=mat.L_h + 1.0 / mat.b_m)
        assert safe.splitting_safe(mat)
        assert not SchemeConfig("splitting", L1=mat.L_b / 2,
                                L2=100.0).splitting_safe(mat)
        assert not SchemeConfig("splitting", L1=mat.L_b,
                                L2=mat.L_h).splitting_safe(mat)
        assert SchemeConfig("monolithic", L1=mat.L_b / 2,
                            L2=mat.L_h).monolithic_safe(mat)
        assert not SchemeConfig("monolithic", L1=mat.L_b / 4,
                                L2=mat.L_h).monolithic_safe(mat)

    def test_degenerate_floor_never_splitting_safe(self):
        mat = manufactured_material("t1c2")  # b_m = 0
        assert not SchemeConfig("splitting", L1=10.0,
                                L2=1e12).splitting_safe(mat)

    def test_suggested_tuning_linear_presets(self):
        mat = manufactured_material("linear")
        assert suggested_tuning(mat, "splitting") == pytest.approx((1.0, 2.0))
        assert suggested_tuning(mat, "monolithic") == pytest.approx((1.0, 1.0))


class TestFixedPoints:
    def test_zero_data_zero_fixed_point(self):
        # zero loads and zero previous state: the first iterate is already
        # the fixed point for both schemes
        from porobiot.physics import ProblemDefinition, UBc, QBc
        from porobiot.mesh import Side
        mat = manufactured_material("linear")
        zero_s = lambda x, y, t: np.zeros_like(np.asarray(x, float))
        zero_v = lambda x, y, t: np.zeros(np.asarray(x, float).shape + (2,))
        prob = ProblemDefinition(
            final_time=1.0,
            u_bc={s: UBc("fixed", (0.0, 0.0)) for s in Side},
            q_bc={s: QBc("pressure", 0.0) for s in Side},
            body_force=zero_v, source=zero_s,
            initial_u=lambda x, y: (0.0, 0.0),
            initial_p=lambda x, y: 0.0,
            initial_q=lambda x, y: (0.0, 0.0))
        mesh = generate_rect_mesh((0, 0), (1, 1), 4, 4)
        ops = build_operators(mesh, mat, prob)
        prev = build_initial_state(prob, ops)
        ctx = StepContext.build(ops, prob, prev, 0.25)
        for kind in ("splitting", "monolithic"):
            cfg = SchemeConfig(kind, L1=1.0, L2=2.0)
            new = SchemeSolver(ops, cfg, 0.25).step(prev.copy(), ctx)
            assert np.allclose(new.p.coeffs, 0.0, atol=1e-14)
            assert np.allclose(new.q.coeffs, 0.0, atol=1e-14)
            assert np.allclose(new.u.coeffs, 0.0, atol=1e-14)

    def test_already_converged_input_one_iteration(self):
        mesh, mat, prob, ops, prev = linear_setup(4)
        tau = 0.25
        state, _ = iterate_to_convergence(
            prev, SchemeConfig("monolithic", L1=1.0, L2=1.0), ops, mat,
            prob, tau)
        # re-enter with the converged state as both previous and seed:
        # backward Euler from t to t+tau with unchanged loads will not be
        # stationary, so instead re-run the same step
        state2, trace2 = iterate_to_convergence(
            prev, SchemeConfig("monolithic", L1=1.0, L2=1.0), ops, mat,
            prob, tau)
        assert trace2.converged
        assert np.allclose(state2.p.coeffs, state.p.coeffs, atol=1e-13)

    def test_undrained_split_matrix_identity(self):
        # linear laws with L1 = 1/M, L2 = lam + M alpha^2 turn the split
        # mechanics operator into the undrained elasticity block
        mesh, mat, prob, ops, prev = linear_setup(4)
        lam, m_mod, alpha = 1.0, 1.0, 1.0
        L2 = lam + m_mod * alpha ** 2
        mech = ops.mech_system(L2).matrix
        R = ops.constraints.u.restriction
        undrained = (R.T @ (ops.a_e + L2 * ops.d_div) @ R).toarray()
        assert np.abs(mech.toarray() - undrained).max() < 1e-14
        flow = ops.flow_system(1.0 / m_mod, 0.25).matrix
        import scipy.sparse as sp
        Rqp, _ = ops.constraints.composed(("q", "p"))
        expect = (Rqp.T @ sp.bmat(
            [[ops.m_q, -ops.b_qp.T],
             [0.25 * ops.b_qp, (1.0 / m_mod) * ops.m_p]]) @ Rqp).toarray()
        assert np.abs(flow.toarray() - expect).max() < 1e-14


class TestLinearConvergence:
    @pytest.mark.parametrize("kind,L1,L2", [("splitting", 1.0, 2.0),
                                            ("monolithic", 0.5, 1.0)])
    def test_converges_to_direct_solve(self, kind, L1, L2):
        mesh, mat, prob, ops, prev = linear_setup(8)
        tau = 0.25
        direct = direct_solve(ops, prob, prev, tau)
        cfg = SchemeConfig(kind, L1=L1, L2=L2, tol=1e-9)
        state, trace = iterate_to_convergence(prev, cfg, ops, mat, prob, tau)
        assert trace.converged
        ep, eq, eu = field_errors(ops, state, direct)
        assert max(ep, eq, eu) <= 1e-9

    @pytest.mark.parametrize("kind,method", [("splitting", "lu"),
                                             ("monolithic", "lu"),
                                             ("monolithic", "gmres")])
    def test_nonzero_essential_values(self, kind, method):
        # a displacement pinned off zero and an imposed boundary flux give
        # both fields a non-zero lift, which every solve path must carry,
        # also next to a tie group
        mat = manufactured_material("linear")
        u_bcs = [{Side.LEFT: UBc("fixed", (0.01, 0.0)),
                  Side.BOTTOM: UBc("normal_zero"),
                  Side.RIGHT: UBc("free"), Side.TOP: UBc("free")},
                 {Side.LEFT: UBc("normal_zero"),
                  Side.BOTTOM: UBc("fixed", (0.0, 0.01)),
                  Side.TOP: UBc("tied_normal", -0.5),
                  Side.RIGHT: UBc("free")}]
        for u_bc in u_bcs:
            prob = replace(manufactured_problem(mat), u_bc=u_bc,
                           q_bc={Side.LEFT: QBc("pressure", 0.3),
                                 Side.RIGHT: QBc("pressure", 0.0),
                                 Side.BOTTOM: QBc("noflow", 0.05),
                                 Side.TOP: QBc("noflow", 0.0)})
            ops = build_operators(generate_rect_mesh((0, 0), (1, 1), 6, 6),
                                  mat, prob)
            assert np.any(ops.constraints.u.lift != 0.0)
            assert np.any(ops.constraints.q.lift != 0.0)
            ops.solver = SolverOptions(method, rtol=1e-12)
            prev = build_initial_state(prob, ops)
            tau = 0.25
            direct = direct_solve(ops, prob, prev, tau)  # the exact linear preset
            cfg = SchemeConfig(kind, L1=1.0, L2=2.0, tol=1e-11)
            state, trace = iterate_to_convergence(prev, cfg, ops, mat, prob,
                                                  tau)
            assert trace.converged
            assert bool(ops.solver_log) == (method == "gmres")
            assert max(field_errors(ops, state, direct)) <= 1e-10

    def test_residual_within_ten_tol(self):
        mesh, mat, prob, ops, prev = linear_setup(8)
        tau = 0.25
        for kind, L1, L2 in (("splitting", 1.0, 2.0), ("monolithic", 0.5, 1.0)):
            cfg = SchemeConfig(kind, L1=L1, L2=L2, tol=1e-8)
            state, trace = iterate_to_convergence(prev, cfg, ops, mat, prob, tau)
            res = residual_norms(state, prev, ops, mat, prob, tau)
            assert max(res.values()) <= 10 * cfg.tol

    def test_schur_flow_equivalent(self):
        # oracle: the splitting sweep, whose flow step eliminates the
        # pressure, against the same sweep with the 2x2 flux-pressure block
        mat = manufactured_material("t1c1")
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), 6, 6)
        ops = build_operators(mesh, mat, prob)
        prev = build_initial_state(prob, ops)
        tau, L1, L2 = 0.25, mat.L_b, mat.L_h + 1.0 / mat.b_m
        ctx = StepContext.build(ops, prob, prev, tau)
        solver = SchemeSolver(ops, SchemeConfig("splitting", L1, L2), tau)
        nq = ops.dofmap_q.n_dofs
        cur = prev.copy()
        for _ in range(3):
            rhs_p = (ctx.mass_const - ops.bp_dual(cur.p.coeffs)
                     + L1 * (ops.m_p @ cur.p.coeffs)
                     - mat.alpha * ops.divu_dual(cur.u.coeffs))
            qp = reduced_solve(ops.flow_system(L1, tau),
                               np.concatenate([ctx.g_vec, rhs_p]))
            rhs_u = (ctx.f_vec + mat.alpha * (ops.b_up @ qp[nq:])
                     + L2 * (ops.d_div @ cur.u.coeffs) - ops.hu_dual(cur.u.coeffs))
            expect = BiotState(
                FeFunction(ops.dofmap_u, reduced_solve(ops.mech_system(L2), rhs_u)),
                FeFunction(ops.dofmap_q, qp[:nq]),
                FeFunction(ops.dofmap_p, qp[nq:]), ctx.t_new)
            got = solver.step(cur, ctx)
            assert max(field_errors(ops, got, expect)) <= 1e-10
            assert l2_norm(FeFunction(ops.dofmap_p, got.p.coeffs)) > 1e-4
            cur = got

    @pytest.mark.parametrize("case", ["t1c1", "mandel"])
    def test_monolithic_pressure_elimination_equivalent(self, case):
        # oracle: one monolithic LU iteration, which solves the (u, q)
        # system with the pressure eliminated, against the same iteration
        # solved with the 3x3 block system
        if case == "mandel":
            cfg = MandelConfig()
            mat = mandel_material("linear", cfg)
            prob = mandel_problem(mat, cfg, final_time=10.0)
            mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), 20, 20)
            tau = 1.0
        else:
            mat = manufactured_material(case)
            prob = manufactured_problem(mat)
            mesh = generate_rect_mesh((0, 0), (1, 1), 8, 8)
            tau = 0.25
        ops = build_operators(mesh, mat, prob)
        prev = build_initial_state(prob, ops)
        L1, L2 = suggested_tuning(mat, "monolithic")
        ctx = StepContext.build(ops, prob, prev, tau)
        got = SchemeSolver(ops, SchemeConfig("monolithic", L1, L2), tau).step(
            prev, ctx)
        u, p = prev.u.coeffs, prev.p.coeffs
        rhs_u = ctx.f_vec + L2 * (ops.d_div @ u) - ops.hu_dual(u)
        rhs_p = ctx.mass_const - ops.bp_dual(p) + L1 * (ops.m_p @ p)
        x = reduced_solve(ops.monolithic_system(L1, L2, tau),
                          np.concatenate([rhs_u, ctx.g_vec, rhs_p]))
        nu, nq = ops.dofmap_u.n_dofs, ops.dofmap_q.n_dofs
        for have, want in ((got.u.coeffs, x[:nu]), (got.q.coeffs, x[nu:nu + nq]),
                           (got.p.coeffs, x[nu + nq:])):
            assert np.linalg.norm(want) > 0.0
            assert np.linalg.norm(have - want) <= 1e-10 * np.linalg.norm(want)

    def test_incompressible_fluid_monolithic(self):
        # b = 0 (zero storage): the monolithic iteration still contracts
        zero_b = NonlinearLaw(lambda x: np.zeros_like(np.asarray(x, float)),
                              lambda x: np.zeros_like(np.asarray(x, float)),
                              "zero", (-1.0, 1.0))
        _, h = law_catalog("linear")
        mat = make_material(1.0, 1.0, zero_b, h, 1.0, 1.0)
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), 8, 8)
        ops = build_operators(mesh, mat, prob)
        prev = build_initial_state(prob, ops)
        cfg = SchemeConfig("monolithic", L1=0.05, L2=1.0)
        state, trace = iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25)
        assert trace.converged
        totals = trace.totals
        assert all(b <= a * (1 + 1e-9) for a, b in zip(totals, totals[1:]))


class TestIterationControl:
    def test_seeding_bitwise(self):
        mesh, mat, prob, ops, prev = linear_setup(4)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        _, _, archive = iterate_to_convergence(prev, cfg, ops, mat, prob,
                                               0.25, keep_iterates=True)
        assert np.array_equal(archive[0].p.coeffs, prev.p.coeffs)
        assert np.array_equal(archive[0].q.coeffs, prev.q.coeffs)
        assert np.array_equal(archive[0].u.coeffs, prev.u.coeffs)

    def test_rates_defined_from_second_iteration(self):
        mesh, mat, prob, ops, prev = linear_setup(6)
        cfg = SchemeConfig("splitting", L1=1.0, L2=2.0)
        _, trace = iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25)
        assert np.isnan(trace.rates[0])
        assert all(np.isfinite(r) for r in trace.rates[1:])
        assert all(r < 1.0 for r in trace.rates[1:])

    def test_exponential_case_contracts_when_safe(self):
        # exponential/cubic pair at the theorem tuning: every observed rate
        # stays below one
        mat = manufactured_material("t1c1")
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), 8, 8)
        ops = build_operators(mesh, mat, prob)
        prev = build_initial_state(prob, ops)
        cfg = SchemeConfig("splitting", L1=mat.L_b,
                           L2=mat.L_h + 1.0 / mat.b_m)
        assert cfg.splitting_safe(mat)
        _, trace = iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25)
        assert trace.converged
        assert all(r < 1.0 for r in trace.rates[1:])

    def test_max_iter_reported_not_fatal(self):
        mesh, mat, prob, ops, prev = linear_setup(4)
        cfg = SchemeConfig("splitting", L1=1.0, L2=2.0, max_iter=2)
        state, trace = iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25)
        assert not trace.converged
        assert trace.iterations == 2

    def test_divergence_guard_or_slow_convergence_recorded(self):
        # L2 = 0 with a strongly non-linear volumetric stress: the run must
        # either converge, stop at the cap, or abort; never hang silently
        mat = manufactured_material("t1c4")
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), 8, 8)
        ops = build_operators(mesh, mat, prob)
        prev = build_initial_state(prob, ops)
        cfg = SchemeConfig("splitting", L1=mat.L_b, L2=0.0, max_iter=300)
        try:
            state, trace = iterate_to_convergence(prev, cfg, ops, mat, prob,
                                                  0.25)
            assert trace.iterations <= 300
            assert isinstance(trace.converged, bool)
        except DivergenceError as exc:
            assert "increment" in str(exc)

    def test_divergence_abort_on_blowup(self):
        # a deliberately mis-tuned monolithic run (L1 far below the local
        # storage slope) oscillates and trips the safeguard or the cap
        mat = manufactured_material("t1c3")
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), 8, 8)
        ops = build_operators(mesh, mat, prob)
        prev = build_initial_state(prob, ops)
        cfg = SchemeConfig("monolithic", L1=1e-6, L2=0.75, max_iter=100,
                           divergence_factor=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                _, trace = iterate_to_convergence(prev, cfg, ops, mat, prob,
                                                  0.25)
                assert not trace.converged
            except DivergenceError:
                pass


def test_lockstep_cells_must_share_one_mechanics_half():
    # a column's block has one mechanics solve: cells of another L2, or of
    # the monolithic scheme, are refused instead of solved with it; a flow
    # half the map lacks is built and kept, one it holds is used
    mesh, mat, prob, ops, prev = linear_setup(4)
    cfgs = [SchemeConfig("splitting", L1=1.0, L2=l2) for l2 in (1.0, 2.0)]
    ctx = StepContext.build(ops, prob, prev, 0.25)
    flows = {}
    with pytest.raises(ValueError):
        iterate_lockstep(ops, prev, cfgs, ctx, flows)
    with pytest.raises(ValueError):
        iterate_lockstep(ops, prev, [replace(cfgs[0], kind="monolithic")],
                         ctx, flows)
    assert flows == {}
    want = [(iterate_to_convergence(prev, cfgs[0], ops, mat, prob,
                                    0.25)[1].iterations, "converged")]
    assert iterate_lockstep(ops, prev, cfgs[:1], ctx, flows) == want
    half = flows[1.0]
    assert list(flows) == [1.0] and half.L1 == 1.0 and half.tau == 0.25
    assert iterate_lockstep(ops, prev, cfgs[1:], ctx, flows) == [
        (iterate_to_convergence(prev, cfgs[1], ops, mat, prob,
                                0.25)[1].iterations, "converged")]
    assert list(flows) == [1.0] and flows[1.0] is half


@pytest.mark.parametrize("case", ["t1c1", "mandel"])
@pytest.mark.parametrize("kind", ["splitting", "monolithic"])
def test_one_column_block_step_is_the_vector_step(case, kind):
    # a block of one column is stepped with the arithmetic of its vector,
    # on the manufactured problem and on the tied, pinned Mandel slab
    if case == "mandel":
        cfg = MandelConfig()
        mat = mandel_material("linear", cfg)
        prob = mandel_problem(mat, cfg, final_time=10.0)
        mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), 10, 6)
        tau = 1.0
    else:
        mat = manufactured_material(case)
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), 6, 6)
        tau = 0.25
    ops = build_operators(mesh, mat, prob)
    prev = build_initial_state(prob, ops)
    solver = SchemeSolver(ops, SchemeConfig(kind, *suggested_tuning(mat, kind)),
                          tau)
    ctx = StepContext.build(ops, prob, prev, tau)
    vec, blk = prev, BiotState(*(FeFunction(f.dofmap, f.coeffs[:, None])
                                 for f in (prev.u, prev.q, prev.p)), prev.time)
    for _ in range(3):
        vec, blk = solver.step(vec, ctx), solver.step(blk, ctx, cells=[0])
        for a, b in zip((vec.u, vec.q, vec.p), (blk.u, blk.q, blk.p)):
            assert b.coeffs.shape == (a.coeffs.size, 1)
            assert b.coeffs[:, 0].tobytes() == a.coeffs.tobytes()


def test_block_step_columns_are_their_cells_vector_steps():
    # a splitting solver of three cells of one L2 steps a block of two of
    # them: each column as a fresh solver of its cell steps its vector
    from porobiot.linalg import FlowHalf
    mat = manufactured_material("t1c1")
    prob = manufactured_problem(mat)
    ops = build_operators(generate_rect_mesh((0, 0), (1, 1), 6, 6), mat, prob)
    prev = build_initial_state(prob, ops)
    ctx = StepContext.build(ops, prob, prev, 0.25)
    cfgs = [SchemeConfig("splitting", L1=l1, L2=2.0) for l1 in (0.5, 1.0, 3.0)]
    solver = SchemeSolver(ops, cfgs[0], 0.25,
                          [FlowHalf(ops, c.L1, 0.25) for c in cfgs])
    fresh = [SchemeSolver(ops, c, 0.25) for c in cfgs]
    states = [f.step(prev, ctx) for f in fresh]   # distinct iterates
    cells = [2, 0]
    blk = BiotState(*(FeFunction(getattr(prev, n).dofmap, np.column_stack(
        [getattr(states[c], n).coeffs for c in cells])) for n in "uqp"),
        ctx.t_new)
    got = solver.step(blk, ctx, cells=cells)
    for j, c in enumerate(cells):
        want = fresh[c].step(states[c], ctx)
        for n in "uqp":
            assert (getattr(got, n).coeffs[:, j].tobytes()
                    == getattr(want, n).coeffs.tobytes())
    with pytest.raises(ValueError):
        SchemeSolver(ops, replace(cfgs[0], kind="monolithic"), 0.25,
                     solver.sweep.flows)
    with pytest.raises(ValueError):
        SchemeSolver(ops, cfgs[0], 0.5, solver.sweep.flows)


class TestTimeMarch:
    def test_single_step_equals_iterate_call(self):
        mesh, mat, prob, ops, prev = linear_setup(6)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        results = time_march(prob, mesh, mat, cfg, 0.25, 1, ops=ops)
        state, _ = iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25)
        assert len(results) == 1
        assert np.allclose(results[0][0].p.coeffs, state.p.coeffs, atol=1e-15)

    def test_states_advance_in_time(self):
        mesh, mat, prob, ops, prev = linear_setup(4)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        results = time_march(prob, mesh, mat, cfg, 0.25, 4, ops=ops)
        assert [round(st.time, 10) for st, _ in results] == [0.25, 0.5, 0.75, 1.0]

    def test_self_convergence_under_refinement(self):
        # final-time errors shrink from h = 1/8 to h = 1/16
        from porobiot.bench import error_norms
        errs = {}
        for nx in (8, 16):
            mat = manufactured_material("linear")
            prob = manufactured_problem(mat)
            mesh = generate_rect_mesh((0, 0), (1, 1), nx, nx)
            cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
            results = time_march(prob, mesh, mat, cfg, 0.25, 4)
            errs[nx] = error_norms(results[-1][0], prob.exact)
        for fld in ("p", "u", "q", "div_u"):
            assert errs[16][fld] < errs[8][fld]

    @pytest.mark.parametrize("kind,method,factors", [
        ("splitting", "lu", 2), ("monolithic", "lu", 1),
        ("monolithic", "gmres", 2)])
    def test_factorizations_built_once_per_run(self, monkeypatch, kind, method,
                                               factors):
        # GMRES factors the two blocks of its fixed-stress preconditioner
        from porobiot import linalg
        built = []
        original = linalg.CachedLU.__init__

        def counting_init(lu, matrix, *args, **kwargs):
            built.append(matrix.shape)
            original(lu, matrix, *args, **kwargs)

        monkeypatch.setattr(linalg.CachedLU, "__init__", counting_init)
        mesh, mat, prob, ops, prev = linear_setup(4)
        ops.solver = linalg.SolverOptions(method=method)
        cfg = SchemeConfig(kind, L1=1.0, L2=2.0)
        results = time_march(prob, mesh, mat, cfg, 0.25, 3, ops=ops)
        assert len(built) == factors
        per_iteration = 2 if kind == "splitting" else 1
        assert all(tr.n_linear_solves == per_iteration * tr.iterations
                   for _, tr in results)

    def test_every_factored_matrix_symmetric(self, monkeypatch):
        # every matrix a run, or the residual check, factors equals its
        # transpose to the last bit: t1c1, and SI Mandel on meshes whose
        # products round the mechanics block's (i, j) and (j, i) apart
        from porobiot import linalg
        asymmetric = []
        original = linalg.CachedLU.__init__

        def recording_init(lu, matrix):
            asymmetric.append((matrix != matrix.T).nnz)
            original(lu, matrix)

        monkeypatch.setattr(linalg.CachedLU, "__init__", recording_init)
        cfg = MandelConfig()
        mandel = mandel_material("linear", cfg)
        setups = [(manufactured_material("t1c1"), (1.0, 1.0), (16, 16), 0.25)]
        setups += [(mandel, (cfg.a, cfg.b), n, 1.0) for n in ((8, 3), (13, 7))]
        for mat, corner, (nx, ny), tau in setups:
            prob = (manufactured_problem(mat) if mat is not mandel
                    else mandel_problem(mat, cfg, final_time=10.0))
            mesh = generate_rect_mesh((0, 0), corner, nx, ny)
            ops = build_operators(mesh, mat, prob)
            prev = build_initial_state(prob, ops)
            for kind, method in (("splitting", "lu"), ("monolithic", "lu"),
                                 ("monolithic", "gmres")):
                ops.solver = linalg.SolverOptions(method=method)
                cfg_k = SchemeConfig(kind, *suggested_tuning(mat, kind))
                state, _ = time_march(prob, mesh, mat, cfg_k, tau, 1,
                                      ops=ops)[0]
            residual_norms(state, prev, ops, mat, prob, tau)
        assert len(asymmetric) == 3 * (2 + 1 + 2 + 2)
        assert asymmetric == [0] * len(asymmetric)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="returns glibc heap pages")
    def test_solver_returns_the_heap_earlier_runs_freed(self):
        # 20 MiB of 64 KiB heap blocks, each pinned by a live block above
        # it, stay resident once freed until the next solver is built
        def resident_mib():
            with open("/proc/self/status", encoding="ascii") as fh:
                return next(int(line.split()[1]) / 1024.0 for line in fh
                            if line.startswith("VmRSS:"))

        mesh, mat, prob, ops, prev = linear_setup(4)
        blocks, pins = [], []
        for _ in range(320):
            blocks.append(np.ones(8192))
            pins.append(np.ones(256))
        full = resident_mib()
        del blocks
        SchemeSolver(ops, SchemeConfig("monolithic", L1=1.0, L2=1.0), 0.5)
        assert full - resident_mib() > 15.0

    def test_solver_for_another_step_rejected(self):
        mesh, mat, prob, ops, prev = linear_setup(4)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        solver = SchemeSolver(ops, cfg, 0.5)
        with pytest.raises(ValueError):
            iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25,
                                   solver=solver)

    def test_context_for_another_step_rejected(self):
        mesh, mat, prob, ops, prev = linear_setup(4)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        ctx = StepContext.build(ops, prob, prev, 0.5)
        state, _ = iterate_to_convergence(prev, cfg, ops, mat, prob, 0.5)
        given, _ = iterate_to_convergence(prev, cfg, ops, mat, prob, 0.5,
                                          ctx=ctx)
        assert given.p.coeffs.tobytes() == state.p.coeffs.tobytes()
        with pytest.raises(ValueError):   # another step size
            iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25, ctx=ctx)
        with pytest.raises(ValueError):   # another start
            iterate_to_convergence(state, cfg, ops, mat, prob, 0.5, ctx=ctx)

    def test_bad_step_count(self):
        mesh, mat, prob, ops, prev = linear_setup(4)
        with pytest.raises(ValueError):
            time_march(prob, mesh, mat,
                       SchemeConfig("monolithic", 1.0, 1.0), 0.25, 0)


@pytest.mark.parametrize("kind, method", [("splitting", "lu"),
                                          ("monolithic", "lu"),
                                          ("monolithic", "gmres")])
def test_step_builds_no_sparse_transpose(monkeypatch, kind, method):
    # an iteration multiplies by the transposes its operators built once:
    # a transpose built per product costs more than the product
    import scipy.sparse as sp
    from porobiot.linalg import SolverOptions
    mat = manufactured_material("t1c1")
    prob = manufactured_problem(mat)
    ops = build_operators(generate_rect_mesh((0, 0), (1, 1), 6, 6), mat, prob)
    ops.solver = SolverOptions(method=method)
    prev = build_initial_state(prob, ops)
    solver = SchemeSolver(ops, SchemeConfig(kind, *suggested_tuning(mat, kind)),
                          0.25)
    ctx = StepContext.build(ops, prob, prev, 0.25)
    built = []
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.csr_array, sp.csc_array):
        def counting(matrix, *args, _original=cls.transpose, **kwargs):
            built.append(type(matrix).__name__)
            return _original(matrix, *args, **kwargs)
        monkeypatch.setattr(cls, "transpose", counting)
    ops.b_up.T
    assert built == ["csr_matrix"]
    built.clear()
    cur = prev
    for _ in range(2):
        cur = solver.step(cur, ctx)
    assert built == []


def test_gmres_backed_monolithic_matches_lu():
    from porobiot.linalg import SolverOptions
    mesh, mat, prob, ops, prev = linear_setup(8)
    cfg = SchemeConfig("monolithic", L1=0.5, L2=1.0, tol=1e-9)
    lu_state, _ = iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25)
    ops2 = build_operators(mesh, mat, prob)
    ops2.solver = SolverOptions(method="gmres", rtol=1e-12)
    g_state, trace = iterate_to_convergence(prev, cfg, ops2, mat, prob, 0.25)
    assert trace.converged
    ep, eq, eu = field_errors(ops, lu_state, g_state)
    assert max(ep, eq, eu) <= 1e-8
    assert len(ops2.solver_log) == trace.n_linear_solves
    label, report = ops2.solver_log[0]
    assert report.converged and report.iterations <= 15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gmres_step_applies_the_sweep_once_per_inner_iteration(monkeypatch):
    # one monolithic t1c1 step: each sweep application is one inner
    # iteration, none goes to a preconditioned right-hand side or an
    # initial residual, and each solve starts from the iterate, so the
    # solves get shorter as the iterates settle
    from porobiot.linalg import FixedStressPreconditioner
    applied, matvec = [], FixedStressPreconditioner.matvec

    def counted(sweep, r):
        applied.append(r.shape)
        return matvec(sweep, r)

    monkeypatch.setattr(FixedStressPreconditioner, "matvec", counted)
    mat = manufactured_material("t1c1")
    prob = manufactured_problem(mat)
    ops = build_operators(generate_rect_mesh((0, 0), (1, 1), 8, 8), mat, prob,
                          SolverOptions("gmres"))
    cfg = SchemeConfig("monolithic", *suggested_tuning(mat, "monolithic"))
    _, trace = iterate_to_convergence(build_initial_state(prob, ops), cfg,
                                      ops, mat, prob, 0.25)
    iters = [rep.iterations for _, rep in ops.solver_log]
    assert trace.converged and len(iters) == trace.iterations > 2
    assert len(applied) == sum(iters)
    assert iters[-1] < iters[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_splitting_applies_the_sweep_once_per_iteration(monkeypatch):
    # a splitting iteration is one application of the sweep: to a vector
    # for one cell, and to the block of the cells still running when
    # cells iterate in lock step
    from porobiot.linalg import FixedStressPreconditioner
    applied, matvec = [], FixedStressPreconditioner.matvec

    def counted(sweep, r, cells=None):
        applied.append(r.shape)
        return matvec(sweep, r, cells)

    monkeypatch.setattr(FixedStressPreconditioner, "matvec", counted)
    mat = manufactured_material("t1c1")
    prob = manufactured_problem(mat)
    ops = build_operators(generate_rect_mesh((0, 0), (1, 1), 6, 6), mat, prob)
    prev = build_initial_state(prob, ops)
    cfg = SchemeConfig("splitting", *suggested_tuning(mat, "splitting"))
    _, trace = iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25)
    assert trace.converged and trace.iterations > 2
    assert len(applied) == trace.iterations
    assert all(len(shape) == 1 for shape in applied)
    applied.clear()
    cfgs = [replace(cfg, L1=f * cfg.L1) for f in (1.0, 4.0, 16.0)]
    out = iterate_lockstep(ops, prev, cfgs, StepContext.build(
        ops, prob, prev, 0.25), {})
    assert len(applied) == max(n for n, _ in out)
    assert applied[0][1] == 3 and len({n for n, _ in out}) > 1
    assert sum(shape[1] for shape in applied) == sum(n for n, _ in out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gmres_confirming_iteration_takes_no_inner_iteration():
    # the exact monolithic preset solves a linear step in one iteration;
    # the second, started from that solution, only confirms it
    mesh, mat, prob, _, prev = linear_setup(8)
    ops = build_operators(mesh, mat, prob, SolverOptions("gmres"))
    cfg = SchemeConfig("monolithic", *suggested_tuning(mat, "monolithic"))
    _, trace = iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25)
    assert trace.converged
    assert [rep.iterations for _, rep in ops.solver_log][1:] == [0]


def test_solver_reports_csv(tmp_path):
    from porobiot.linalg import SolverOptions, write_solver_reports_csv
    mesh, mat, prob, ops, prev = linear_setup(4)
    ops.solver = SolverOptions(method="gmres")
    cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
    iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25)
    path = tmp_path / "linsolve.csv"
    write_solver_reports_csv(ops.solver_log, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "linsys,iters,relres,seconds"
    assert len(lines) == 1 + len(ops.solver_log)


def test_trace_csv_schema(tmp_path):
    mesh, mat, prob, ops, prev = linear_setup(4)
    cfg = SchemeConfig("splitting", L1=1.0, L2=2.0)
    results = time_march(prob, mesh, mat, cfg, 0.25, 2, ops=ops)
    path = tmp_path / "trace.csv"
    write_trace_csv([tr for _, tr in results], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,iter,dp,dq,du,sum,rate"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1" and first[6] == ""
    n_rows = sum(tr.iterations for _, tr in results)
    assert len(lines) == 1 + n_rows
