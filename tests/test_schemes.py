import platform
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from porobiot.assembly import build_operators
from porobiot.fem import FeFunction, l2_norm
from porobiot.linalg import SolverOptions
from porobiot.mesh import generate_rect_mesh
from porobiot.physics import (AdmissibleRangeWarning, MandelConfig,
                              NonlinearLaw, make_material, law_catalog,
                              mandel_material, mandel_problem,
                              manufactured_material, manufactured_problem)
from porobiot.schemes import (DIVERGENCE_FACTOR, BiotState, DivergenceError,
                              SchemeConfig, SchemeConfigError, SchemeSolver,
                              StepContext, build_initial_state,
                              iterate_lockstep, iterate_to_convergence,
                              march, residual_norms, stop_status,
                              suggested_tuning, time_march, write_trace_csv)

from oracles import full_increment_norms, lu_solve, step_chain, vector_step


def linear_setup(nx=8):
    mat = manufactured_material("linear")
    prob = manufactured_problem(mat)
    mesh = generate_rect_mesh((0, 0), (1, 1), nx, nx)
    ops = build_operators(mesh, mat, prob)
    prev = build_initial_state(prob, ops)
    return mesh, mat, prob, ops, prev


def step(solver, x, ctx, cells=None):
    """`SchemeSolver.step` from the block x alone, whose divergences are
    formed here: the new block."""
    return solver.step(x, solver.divu_dual(x), ctx, cells)[0]


def reduced_solve(ops, matrix, names, rhs_full):
    """Solve the reduced system `matrix` of the fields `names` by LU and
    expand the solution to the full space."""
    R = ops.constraints.composed(names)
    return R @ lu_solve(matrix, R.T @ rhs_full)


def direct_solve(ops, prev, tau, L1=1.0, L2=1.0):
    """Oracle: one-shot solve of the coupled linear discrete system."""
    ctx = StepContext.build(ops, prev, tau)
    sysd = ops.monolithic_system(L1, L2, tau)
    x = reduced_solve(ops, sysd, ("u", "q", "p"),
                      np.concatenate([ctx.f_vec, ctx.g_vec, ctx.mass_const]))
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
        {"max_iter": True}])
    def test_stop_controls_validated(self, bad):
        # a non-integer or non-positive max_iter would end or disable the
        # stop rule
        with pytest.raises(SchemeConfigError):
            SchemeConfig("splitting", 1.0, 1.0, **bad)

    def test_stop_controls_accepted(self):
        cfg = SchemeConfig("splitting", 1.0, 1.0, max_iter=np.int64(3))
        assert cfg.max_iter == 3

    def test_stop_status_order(self):
        cfg = SchemeConfig("splitting", 1.0, 1.0, tol=1e-8, max_iter=3)
        big = DIVERGENCE_FACTOR
        assert stop_status(float("nan"), 1.0, 1, cfg) == "diverged"
        assert stop_status(float("inf"), 1.0, 2, cfg) == "diverged"
        # at max_iter, a converged or diverged increment says so
        assert stop_status(1e-8, 1.0, 3, cfg) == "converged"
        assert stop_status(1.05 * big, 1.0, 3, cfg) == "diverged"
        assert stop_status(big, 1.0, 3, cfg) == "maxiter"
        assert stop_status(big, 1.0, 2, cfg) is None
        # the factor scales the first increment, not a fixed bound
        assert stop_status(1.05 * big, 2.0, 2, cfg) is None
        assert stop_status(2.05 * big, 2.0, 2, cfg) == "diverged"

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
        ctx = StepContext.build(ops, prev, 0.25)
        for kind in ("splitting", "monolithic"):
            cfg = SchemeConfig(kind, L1=1.0, L2=2.0)
            solver = SchemeSolver(ops, [cfg], 0.25)
            new = solver.state(step(solver, solver.coordinates(prev), ctx),
                               ctx.t_new)
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
        mech = ops.mech_system(L2)
        R = ops.constraints.composed(("u",))
        undrained = (R.T @ (ops.a_e + L2 * ops.d_div) @ R).toarray()
        assert np.abs(mech.toarray() - undrained).max() < 1e-14
        flow = ops.flow_system(1.0 / m_mod, 0.25)
        import scipy.sparse as sp
        Rqp = ops.constraints.composed(("q", "p"))
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
        direct = direct_solve(ops, prev, tau)
        cfg = SchemeConfig(kind, L1=L1, L2=L2, tol=1e-9)
        state, trace = iterate_to_convergence(prev, cfg, ops, mat, prob, tau)
        assert trace.converged
        ep, eq, eu = field_errors(ops, state, direct)
        assert max(ep, eq, eu) <= 1e-9

    def test_residual_within_ten_tol(self):
        mesh, mat, prob, ops, prev = linear_setup(8)
        tau = 0.25
        for kind, L1, L2 in (("splitting", 1.0, 2.0), ("monolithic", 0.5, 1.0)):
            cfg = SchemeConfig(kind, L1=L1, L2=L2, tol=1e-8)
            state, trace = iterate_to_convergence(prev, cfg, ops, mat, prob, tau)
            res = residual_norms(state, prev, ops, tau)
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
        ctx = StepContext.build(ops, prev, tau)
        solver = SchemeSolver(ops, [SchemeConfig("splitting", L1, L2)], tau)
        nq = ops.dofmap_q.n_dofs
        cur, x = prev.copy(), solver.coordinates(prev)
        for _ in range(3):
            rhs_p = (ctx.mass_const - ops.bp_dual(cur.p.coeffs)
                     + L1 * (ops.m_p @ cur.p.coeffs)
                     - mat.alpha * ops.divu_dual(cur.u.coeffs))
            qp = reduced_solve(ops, ops.flow_system(L1, tau), ("q", "p"),
                               np.concatenate([ctx.g_vec, rhs_p]))
            rhs_u = (ctx.f_vec + mat.alpha * (ops.b_up @ qp[nq:])
                     + L2 * (ops.d_div @ cur.u.coeffs) - ops.hu_dual(cur.u.coeffs))
            expect = BiotState(
                FeFunction(ops.dofmap_u, reduced_solve(
                    ops, ops.mech_system(L2), ("u",), rhs_u)),
                FeFunction(ops.dofmap_q, qp[:nq]),
                FeFunction(ops.dofmap_p, qp[nq:]), ctx.t_new)
            x = step(solver, x, ctx)
            got = solver.state(x, ctx.t_new)
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
        ctx = StepContext.build(ops, prev, tau)
        solver = SchemeSolver(ops, [SchemeConfig("monolithic", L1, L2)], tau)
        got = solver.state(step(solver, solver.coordinates(prev), ctx), ctx.t_new)
        u, p = prev.u.coeffs, prev.p.coeffs
        rhs_u = ctx.f_vec + L2 * (ops.d_div @ u) - ops.hu_dual(u)
        rhs_p = ctx.mass_const - ops.bp_dual(p) + L1 * (ops.m_p @ p)
        x = reduced_solve(ops, ops.monolithic_system(L1, L2, tau),
                          ("u", "q", "p"),
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
        archive = []
        iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25,
                               archive=archive)
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
        # L2 = 0, far below the volumetric slope lam = 100 of a linear law,
        # amplifies every iterate: the summed increment passes
        # DIVERGENCE_FACTOR times the first while still finite, and the
        # safeguard aborts with that factor in the message
        mat = manufactured_material("linear", lam=100.0)
        prob = manufactured_problem(mat)
        ops = build_operators(generate_rect_mesh((0, 0), (1, 1), 4, 4), mat,
                              prob)
        prev = build_initial_state(prob, ops)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=0.0, max_iter=100)
        with pytest.raises(DivergenceError, match=re.escape(
                f"exceeds {DIVERGENCE_FACTOR:g} x first increment")):
            iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25)

    @pytest.mark.parametrize("method", ["lu", "gmres"])
    def test_non_finite_rhs_diverges_by_either_solver(self, method):
        # exp(800) overflows the storage law of t1c1, so the first
        # right-hand side is not finite: GMRES ends as the LU solve does,
        # with a divergence (a solver failure to the CLI), not a ValueError
        from porobiot.bench import manufactured_setup
        ops, prev = manufactured_setup("t1c1", 4,
                                       solver=SolverOptions(method=method))
        prev.p.coeffs[:] = 800.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DivergenceError,
                               match="non-finite increment at iteration 1"):
                iterate_to_convergence(
                    prev, SchemeConfig("monolithic", 1.0, 1.0), ops, ops.mat,
                    ops.problem, 0.25)


def test_lockstep_blocks_mix_mechanics_halves():
    # cells of two L1 and two L2 share one block, each with the iterations
    # of its own run, to the bit
    mesh, mat, prob, ops, prev = linear_setup(4)
    cfgs = [SchemeConfig("splitting", L1=l, L2=l) for l in (1.0, 2.0)]
    ctx = StepContext.build(ops, prev, 0.25)
    want = [iterate_to_convergence(prev, c, ops, mat, prob, 0.25)[1]
            for c in cfgs]
    got = iterate_lockstep(ops, prev, cfgs, ctx)
    assert [(t.iterations, t.status) for t in got] == [
        (w.iterations, "converged") for w in want]
    assert [[v.hex() for v in t.totals] for t in got] == [
        [v.hex() for v in w.totals] for w in want]


def test_solver_refuses_cells_it_cannot_hold(monkeypatch):
    # no cell, cells of two kinds and two monolithic cells are refused by
    # the solver before anything is factored, and so by the lock-step
    # step, which refuses a monolithic cell as well
    from porobiot import linalg
    mesh, mat, prob, ops, prev = linear_setup(4)
    ctx = StepContext.build(ops, prev, 0.25)
    split = SchemeConfig("splitting", L1=1.0, L2=1.0)
    mono = replace(split, kind="monolithic")

    def refused(lu, matrix):
        raise AssertionError("a refused solver factored a matrix")

    monkeypatch.setattr(linalg.CachedLU, "__init__", refused)
    for cells in ([], [split, mono], [mono, split], [mono, mono]):
        with pytest.raises(ValueError, match="cell"):
            SchemeSolver(ops, cells, 0.25)
    for cells in ([], [mono], [split, mono]):
        with pytest.raises(ValueError, match="cell"):
            iterate_lockstep(ops, prev, cells, ctx)


def case_setup(case, nx, ny, solver=None):
    """Operators, initial state and step size of the manufactured `case`
    on the nx-by-ny unit square, or of the tied, pinned Mandel slab."""
    if case == "mandel":
        cfg = MandelConfig()
        mat = mandel_material("linear", cfg)
        prob = mandel_problem(mat, cfg, final_time=10.0)
        mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), nx, ny)
        tau = 1.0
    else:
        mat = manufactured_material(case)
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), nx, ny)
        tau = 0.25
    ops = build_operators(mesh, mat, prob, solver)
    return ops, build_initial_state(prob, ops), tau


@pytest.mark.parametrize("case", ["t1c1", "mandel"])
@pytest.mark.parametrize("kind", ["splitting", "monolithic"])
def test_one_column_block_step_is_the_vector_step(case, kind):
    # a block of one column, stepped in reduced coordinates, follows the
    # vector step in full coordinates to round-off, by LU, by GMRES and by
    # the sweep, on the manufactured problem and on the tied, pinned Mandel
    # slab: each field within 1e-12 of its largest
    # value, after each of three steps (sums are formed in another order)
    for method in ("lu", "gmres") if kind == "monolithic" else ("lu",):
        ops, prev, tau = case_setup(case, *((10, 6) if case == "mandel"
                                            else (6, 6)), SolverOptions(method))
        solver = SchemeSolver(ops, [SchemeConfig(
            kind, *suggested_tuning(ops.mat, kind))], tau)
        ctx = StepContext.build(ops, prev, tau)
        x = solver.coordinates(prev)
        vec = solver.state(x, prev.time)
        for _ in range(3):
            vec, x = vector_step(solver, vec, ctx), step(solver, x, ctx, cells=[0])
            blk = solver.state(x, ctx.t_new)
            assert x.shape == (sum(solver.sizes), 1)
            for a, b in zip((vec.u, vec.q, vec.p), (blk.u, blk.q, blk.p)):
                scale = np.max(np.abs(a.coeffs))
                assert scale > 0.0
                assert np.max(np.abs(b.coeffs - a.coeffs)) <= 1e-12 * scale


@pytest.mark.parametrize("case", ["t1c1", "mandel"])
def test_state_and_iterate_round_trip_bit_for_bit(case):
    # x = coordinates(state) and state(x) invert each other to the last bit,
    # on the initial state and after one step of each scheme, also across
    # the tie group and the pins of the Mandel slab; a pinned DOF reads
    # zero, so the -0.0 that the initial slab holds there comes back as 0.0
    ops, prev, tau = case_setup(case, 10, 10)
    ctx = StepContext.build(ops, prev, tau)
    for kind in ("splitting", "monolithic"):
        solver = SchemeSolver(ops, [SchemeConfig(
            kind, *suggested_tuning(ops.mat, kind))], tau)
        x = solver.coordinates(prev)
        states = [(solver.state(x, prev.time), prev, x)]
        x = step(solver, x, ctx)
        new = solver.state(x, ctx.t_new)
        states.append((new, solver.state(solver.coordinates(new), ctx.t_new), x))
        for got, want, coords in states:
            assert solver.coordinates(got).tobytes() == coords.tobytes()
            assert got.time == want.time
            for n in "uqp":
                a, b = getattr(got, n).coeffs, getattr(want, n).coeffs
                free = getattr(ops.constraints, n).reduced_of >= 0
                assert np.array_equal(a, b)
                assert a[free].tobytes() == b[free].tobytes()
        assert np.any(states[1][0].u.coeffs != prev.u.coeffs)


def test_block_step_columns_are_their_cells_vector_steps():
    # a splitting solver of three cells of one L2 steps a block of two of
    # them: each column as a fresh solver of its cell steps its column
    mat = manufactured_material("t1c1")
    prob = manufactured_problem(mat)
    ops = build_operators(generate_rect_mesh((0, 0), (1, 1), 6, 6), mat, prob)
    prev = build_initial_state(prob, ops)
    ctx = StepContext.build(ops, prev, 0.25)
    cfgs = [SchemeConfig("splitting", L1=l1, L2=2.0) for l1 in (0.5, 1.0, 3.0)]
    solver = SchemeSolver(ops, cfgs, 0.25)
    fresh = [SchemeSolver(ops, [c], 0.25) for c in cfgs]
    xs = [step(f, f.coordinates(prev), ctx) for f in fresh]   # distinct iterates
    cells = [2, 0]
    got = step(solver, np.hstack([xs[c] for c in cells]), ctx, cells=cells)
    for j, c in enumerate(cells):
        want = step(fresh[c], xs[c], ctx)
        assert got[:, j].tobytes() == want[:, 0].tobytes()


def test_block_step_takes_its_cells_as_a_list_or_an_array():
    # the cells of a block step index the solver's cells as the sweep
    # does: a list and an index array give the same bits
    ops, prev, tau = case_setup("t1c1", 6, 6)
    ctx = StepContext.build(ops, prev, tau)
    cfgs = [SchemeConfig("splitting", L1=l1, L2=2.0) for l1 in (0.5, 1.0, 3.0)]
    solver = SchemeSolver(ops, cfgs, tau)
    x = np.repeat(solver.coordinates(prev), 2, axis=1)
    for cells in ([2, 0], [1]):
        block = x[:, :len(cells)]
        want = step(solver, block, ctx, cells=cells)
        got = step(solver, block, ctx, cells=np.array(cells))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("path", ["splitting", "lu", "gmres"])
def test_each_step_returns_a_block_of_its_own(path):
    # two steps in a row, as `_iterate` holds an iterate and the next one at
    # once: the second leaves the bytes of the first's block and
    # divergences as they were, and no result shares memory with the block
    # it was stepped from; a step that reused one output buffer fails both
    ops, prev, tau = case_setup("t1c1", 6, 6, SolverOptions(
        "gmres" if path == "gmres" else "lu"))
    ctx = StepContext.build(ops, prev, tau)
    if path == "splitting":   # a lock-step block of three cells
        cfgs = [SchemeConfig("splitting", L1=l1, L2=2.0)
                for l1 in (0.5, 1.0, 3.0)]
        solver = SchemeSolver(ops, cfgs, tau)
        cells = [0, 1, 2]
    else:
        solver = SchemeSolver(ops, [SchemeConfig(
            "monolithic", *suggested_tuning(ops.mat, "monolithic"))], tau)
        cells = [0]
    x = np.repeat(solver.coordinates(prev), len(cells), axis=1)
    first = solver.step(x, solver.divu_dual(x), ctx, cells)
    kept = [a.tobytes() for a in first]
    second = solver.step(*first, ctx, cells)
    assert [a.tobytes() for a in first] == kept
    assert second[0].tobytes() != kept[0]
    for new, old in ((first, x), (second, first[0])):
        assert new[0].shape == x.shape
        assert not np.shares_memory(new[0], old)
        assert not np.shares_memory(new[1], old)


@pytest.mark.parametrize("case", ["t1c1", "mandel"])
def test_reduced_increment_norms_are_the_full_field_norms(case):
    # the increments measured by the reduced masses R^T M R and the cell
    # areas are the norms of the expanded fields, to round-off: on t1c1
    # with its pins and on the SI Mandel slab with its pins and tied plate,
    # for a vector and a 3-column block, whose columns have the bits of
    # their vectors
    ops, prev, tau = case_setup(case, *((10, 6) if case == "mandel"
                                        else (6, 6)))
    ctx = StepContext.build(ops, prev, tau)
    solver = SchemeSolver(ops, [SchemeConfig(
        "splitting", *suggested_tuning(ops.mat, "splitting"))], tau)
    xs = [solver.coordinates(prev)]
    for _ in range(3):
        xs.append(step(solver, xs[-1], ctx))
    block = np.hstack([b - a for a, b in zip(xs, xs[1:])])
    columns = [solver.increment_norms(block[:, j].copy()) for j in range(3)]
    for dx in (block[:, 0], block):
        got, want = solver.increment_norms(dx), full_increment_norms(solver, dx)
        for g, w in zip(got, want):
            assert np.all(w > 0.0)
            assert np.all(np.abs(g - w) <= 1e-13 * w)
    got = solver.increment_norms(block)
    for f in range(3):
        assert [float(v).hex() for v in got[f]] == [
            float(c[f]).hex() for c in columns]


class TestTimeMarch:
    def test_single_step_equals_iterate_call(self):
        mesh, mat, prob, ops, prev = linear_setup(6)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        results = time_march(ops, cfg, 0.25, 1)
        state, _ = iterate_to_convergence(prev, cfg, ops, mat, prob, 0.25)
        assert len(results) == 1
        assert np.allclose(results[0][0].p.coeffs, state.p.coeffs, atol=1e-15)

    def test_states_advance_in_time(self):
        mesh, mat, prob, ops, prev = linear_setup(4)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        results = time_march(ops, cfg, 0.25, 4)
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
            results = time_march(build_operators(mesh, mat, prob), cfg,
                                 0.25, 4)
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
        results = time_march(ops, cfg, 0.25, 3)
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
                state, _ = time_march(ops, cfg_k, tau, 1)[0]
            residual_norms(state, prev, ops, tau)
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
        SchemeSolver(ops, [SchemeConfig("monolithic", L1=1.0, L2=1.0)], 0.5)
        assert full - resident_mib() > 15.0

    def test_context_for_another_step_rejected(self):
        mesh, mat, prob, ops, prev = linear_setup(4)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        ctx = StepContext.build(ops, prev, 0.5)
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
            time_march(ops, SchemeConfig("monolithic", 1.0, 1.0), 0.25, 0)


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
    solver = SchemeSolver(
        ops, [SchemeConfig(kind, *suggested_tuning(mat, kind))], 0.25)
    ctx = StepContext.build(ops, prev, 0.25)
    built = []
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.csr_array, sp.csc_array):
        def counting(matrix, *args, _original=cls.transpose, **kwargs):
            built.append(type(matrix).__name__)
            return _original(matrix, *args, **kwargs)
        monkeypatch.setattr(cls, "transpose", counting)
    ops.b_up.T
    assert built == ["csr_matrix"]
    built.clear()
    x = solver.coordinates(prev)
    for _ in range(2):
        x = step(solver, x, ctx)
    assert built == []


@pytest.mark.parametrize("kind, method", [("splitting", "lu"),
                                          ("monolithic", "lu"),
                                          ("monolithic", "gmres")])
def test_step_stays_in_reduced_coordinates(monkeypatch, kind, method):
    # a step neither expands its iterate into full fields nor restricts a
    # full right-hand side, and forms L2 D u and <h(div u), div z> by
    # R_u^T B_u, without D; the range check of a step takes the final
    # divergence from the same coupling.  Pins and a tie group present.
    from porobiot import schemes
    from porobiot.assembly import BiotOperators, FieldConstraints
    ops, prev, tau = case_setup("mandel", 10, 6, SolverOptions(method))
    cfg = SchemeConfig(kind, *suggested_tuning(ops.mat, kind))
    solver = SchemeSolver(ops, [cfg], tau)
    ctx = StepContext.build(ops, prev, tau)
    calls = []
    for cls, name in ((FieldConstraints, "expand"), (FieldConstraints, "restrict"),
                      (BiotOperators, "divu_dual"), (BiotOperators, "hu_dual"),
                      (BiotOperators, "div_u_cells")):
        def counting(obj, *args, _name=name, _original=getattr(cls, name),
                     **kwargs):
            calls.append(_name)
            return _original(obj, *args, **kwargs)
        monkeypatch.setattr(cls, name, counting)

    class CountedProducts:
        def __init__(self, matrix):
            self.matrix = matrix

        def __matmul__(self, other):
            calls.append("d_div")
            return self.matrix @ other

    monkeypatch.setattr(ops, "d_div", CountedProducts(ops.d_div))
    x = solver.coordinates(prev)
    for _ in range(2):
        x = step(solver, x, ctx)
    assert calls == []
    x = solver.coordinates(prev)
    _, _, [trace] = schemes._iterate(solver, x, solver.divu_dual(x), ctx)
    assert trace.converged
    assert not {"restrict", "divu_dual", "hu_dual", "div_u_cells",
                "d_div"} & set(calls)
    calls.clear()   # the counters count
    ops.div_u_cells(ops.d_div @ np.zeros(ops.dofmap_u.n_dofs))
    ops.hu_dual(prev.u.coeffs)
    solver.state(x, ctx.t_new)
    ops.constraints.p.restrict(ctx.mass_const)
    assert sorted(calls) == ["d_div", "div_u_cells", "divu_dual", "expand",
                             "expand", "hu_dual", "restrict"]


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
    # a splitting iteration is one application of the sweep: to a block of
    # one column for one cell, and to the block of the cells still running
    # when cells iterate in lock step
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
    assert all(shape[1:] == (1,) for shape in applied)
    applied.clear()
    cfgs = [replace(cfg, L1=f * cfg.L1) for f in (1.0, 4.0, 16.0)]
    out = iterate_lockstep(ops, prev, cfgs, StepContext.build(
        ops, prev, 0.25))
    counts = [tr.iterations for tr in out]
    assert len(applied) == max(counts)
    assert applied[0][1] == 3 and len(set(counts)) > 1
    assert sum(shape[1] for shape in applied) == sum(counts)


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
    results = time_march(ops, cfg, 0.25, 2)
    path = tmp_path / "trace.csv"
    write_trace_csv([tr for _, tr in results], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,iter,dp,dq,du,sum,rate"
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1" and first[6] == ""
    n_rows = sum(tr.iterations for _, tr in results)
    assert len(lines) == 1 + n_rows


# -- the march carries the reduced iterate ----------------------------------

@pytest.mark.parametrize("case, kind, method", [
    ("mandel", "monolithic", "lu"), ("mandel", "splitting", "lu"),
    ("mandel", "monolithic", "gmres"), ("t1c1", "monolithic", "lu"),
    ("t1c1", "splitting", "lu")])
def test_march_is_a_chain_of_steps(case, kind, method):
    # the march, which carries x and its divergences from step to step and
    # seeds each step from them, against one iterate_to_convergence call
    # per step from the full fields: equal traces, and states within 1e-11
    # of each field's largest value.  The tied plate's two entries of a
    # cell are summed in another order by B_u^T R_u x_u than by B_u^T u;
    # t1c1 has no tie, and there the march keeps every bit, while its
    # loads change every step
    ops, prev, tau = case_setup(case, *((10, 6) if case == "mandel"
                                        else (6, 6)), SolverOptions(method))
    cfg = SchemeConfig(kind, *suggested_tuning(ops.mat, kind))
    got = list(march(ops, cfg, tau, 5, prev))
    want = step_chain(ops, cfg, tau, 5, prev)
    assert len(got) == len(want) == 5
    for (a, ta), (b, tb) in zip(got, want):
        assert a.time == b.time
        assert (ta.iterations, ta.converged, ta.n_linear_solves,
                ta.range_excursions) == (tb.iterations, tb.converged,
                                         tb.n_linear_solves, tb.range_excursions)
        if (case, kind, method) == ("mandel", "monolithic", "lu"):
            # the exact preset of linear laws: one direct solve per step
            assert ta.status == "exact" and ta.iterations == 1
        else:
            assert ta.converged and ta.iterations > 1
        for n in "uqp":
            fa, fb = getattr(a, n).coeffs, getattr(b, n).coeffs
            scale = np.max(np.abs(fb))
            assert scale > 0.0
            assert np.max(np.abs(fa - fb)) <= 1e-11 * scale
            if case == "t1c1":
                assert fa.tobytes() == fb.tobytes()
        if case == "t1c1":
            assert ta.totals == tb.totals


@pytest.mark.parametrize("case, calls", [("mandel", 1), ("t1c1", 5)])
def test_march_assembles_steady_loads_once(monkeypatch, case, calls):
    # the Mandel slab has no body force or source (None), so its loads do
    # not depend on time and a 5-step march assembles them once; the
    # manufactured loads change every step
    from porobiot import schemes
    made, assemble = [], schemes.assemble_loads

    def counting(ops, t):
        made.append(t)
        return assemble(ops, t)

    monkeypatch.setattr(schemes, "assemble_loads", counting)
    ops, prev, tau = case_setup(case, 6, 6)
    cfg = SchemeConfig("monolithic", *suggested_tuning(ops.mat, "monolithic"))
    results = list(march(ops, cfg, tau, 5, prev))
    assert len(results) == 5 and len(made) == calls
    assert made[0] == prev.time + tau


@pytest.mark.parametrize("kind, method", [("splitting", "lu"),
                                          ("monolithic", "lu"),
                                          ("monolithic", "gmres")])
def test_steps_carry_the_divergences_of_their_blocks(monkeypatch, kind,
                                                      method):
    # every step takes the divergences of its block and returns those of
    # the new one, with the bits of B_u^T R_u x_u, across the steps of a
    # march of one column and in a lock-step block whose columns leave it
    calls, original = [], SchemeSolver.step

    def checked(solver, x, divu, ctx, cells=None):
        new, new_divu = original(solver, x, divu, ctx, cells)
        nu = solver.sizes[0]
        for block, div in ((x, divu), (new, new_divu)):
            assert div.shape == (solver.sizes[2], block.shape[1])
            assert div.tobytes() == (solver.b_up_red_t @ block[:nu]).tobytes()
        calls.append(x.shape[1])
        return new, new_divu

    monkeypatch.setattr(SchemeSolver, "step", checked)
    ops, prev, tau = case_setup("mandel", 10, 6, SolverOptions(method))
    cfg = SchemeConfig(kind, *suggested_tuning(ops.mat, kind))
    results = list(march(ops, cfg, tau, 3, prev))
    assert len(calls) == sum(tr.iterations for _, tr in results)
    if kind == "splitting":
        calls.clear()
        cfgs = [replace(cfg, L1=f * cfg.L1) for f in (1.0, 4.0, 16.0)]
        out = iterate_lockstep(ops, prev, cfgs,
                               StepContext.build(ops, prev, tau))
        assert calls[0] == 3 and 0 < calls[-1] < 3
        assert len({tr.iterations for tr in out}) > 1


def test_lu_iteration_makes_four_sparse_products():
    # an LU iteration multiplies by the reduced couplings four times: the
    # mechanics and flux right-hand sides, and the pressure recovery's two
    # products, of which B_u^T R_u (u, q) is the new divergence; the step
    # that formed its divergences from x made a fifth
    ops, prev, tau = case_setup("mandel", 10, 6)
    solver = SchemeSolver(ops, [SchemeConfig(
        "monolithic", *suggested_tuning(ops.mat, "monolithic"))], tau)
    ctx = StepContext.build(ops, prev, tau)
    x = solver.coordinates(prev)
    divu = solver.divu_dual(x)
    products = []

    class Counted:
        def __init__(self, name, matrix):
            self.name, self.matrix = name, matrix

        def __matmul__(self, other):
            products.append(self.name)
            return self.matrix @ other

    for name in ("b_up_red", "b_up_red_t", "b_red", "b_red_t"):
        setattr(solver, name, Counted(name, getattr(solver, name)))
    for _ in range(2):
        products.clear()
        x, divu = solver.step(x, divu, ctx)
        assert sorted(products) == ["b_red", "b_red_t", "b_up_red",
                                    "b_up_red_t"]


def test_march_divergence_names_the_step():
    # a diverged step ends the march with its index and time attached
    mat = manufactured_material("linear", lam=100.0)
    prob = manufactured_problem(mat)
    mesh = generate_rect_mesh((0, 0), (1, 1), 4, 4)
    cfg = SchemeConfig("monolithic", L1=1.0, L2=0.0, max_iter=100)
    with pytest.raises(DivergenceError, match=re.escape(
            f"step 1 (t=0.25): increment ")):
        list(march(build_operators(mesh, mat, prob), cfg, 0.25, 3))



# -- an exact linearization stops after its one direct solve ---------------

@pytest.mark.parametrize("case", ["linear", "mandel"])
@pytest.mark.parametrize("name", ["L1", "L2"])
def test_one_ulp_off_the_slopes_confirms_by_a_second_solve(case, name):
    # at L1 = b' and L2 = h' of linear laws the LU step is exact and stops
    # after one iteration; one ulp above either slope it is not, and takes
    # the confirming second iteration.  Both states agree within 1e-11 of
    # each field's largest value
    ops, prev, tau = case_setup(case, *((10, 6) if case == "mandel"
                                        else (6, 6)))
    exact = SchemeConfig("monolithic",
                         *suggested_tuning(ops.mat, "monolithic"))
    off = replace(exact, **{name: np.nextafter(getattr(exact, name), np.inf)})
    assert SchemeSolver(ops, [exact], tau).exact
    assert not SchemeSolver(ops, [off], tau).exact
    a, ta = iterate_to_convergence(prev, exact, ops, ops.mat, ops.problem, tau)
    b, tb = iterate_to_convergence(prev, off, ops, ops.mat, ops.problem, tau)
    assert (ta.iterations, ta.status, ta.n_linear_solves) == (1, "exact", 1)
    assert ta.converged and len(ta.totals) == 1
    assert (tb.iterations, tb.status) == (2, "converged")
    assert ta.totals[0] == pytest.approx(tb.totals[0], rel=1e-9)
    for n in "uqp":
        fa, fb = getattr(a, n).coeffs, getattr(b, n).coeffs
        scale = np.max(np.abs(fb))
        assert scale > 0.0
        assert np.max(np.abs(fa - fb)) <= 1e-11 * scale


def test_an_exact_step_is_solved_at_any_max_iter():
    # the one iteration of an exact step solves it: max_iter = 1 stops it
    # as 'exact', not as 'maxiter'
    ops, prev, tau = case_setup("mandel", 10, 6)
    cfg = SchemeConfig("monolithic", *suggested_tuning(ops.mat, "monolithic"),
                       max_iter=1)
    traces = [tr for _, tr in march(ops, cfg, tau, 3, prev)]
    assert [(tr.iterations, tr.status) for tr in traces] == [(1, "exact")] * 3


@pytest.mark.parametrize("case, kind, method", [
    ("linear", "splitting", "lu"), ("mandel", "monolithic", "gmres"),
    ("t2c1", "monolithic", "lu")])
def test_inexact_solves_and_curved_laws_are_never_exact(case, kind, method):
    # a splitting sweep at the laws' slopes keeps its splitting error,
    # GMRES on the exact preset solves inexactly, and t2c1 adds a cube to
    # each linear law: each iterates until its increment converges
    if case == "t2c1":
        cfg = MandelConfig()
        mat = mandel_material("t2c1", cfg)
        ops = build_operators(
            generate_rect_mesh((0, 0), (cfg.a, cfg.b), 8, 8), mat,
            mandel_problem(mat, cfg, final_time=3.0))
        prev, tau = build_initial_state(ops.problem, ops), 1.0
    else:
        ops, prev, tau = case_setup(case, *((10, 6) if case == "mandel"
                                            else (6, 6)), SolverOptions(method))
    slopes = SchemeConfig(kind, *suggested_tuning(ops.mat, "monolithic"))
    assert not SchemeSolver(ops, [slopes], tau).exact
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdmissibleRangeWarning)
        traces = [tr for _, tr in march(ops, slopes, tau, 3, prev)]
    assert [tr.status for tr in traces] == ["converged"] * 3
    assert all(tr.iterations > 1 for tr in traces)


def test_an_exact_cell_is_the_fastest_cell_of_its_sweep():
    # the linear laws' slopes (1, 1) take one LU solve; every other cell of
    # the monolithic grid converges in more, and argmin returns the exact one
    from porobiot.bench import sweep_L
    grid = sweep_L("linear", "monolithic", [0.5, 1.0, 2.0], [0.5, 1.0, 2.0],
                   nx=4, n_workers=1)
    status = np.array(grid.status)
    assert status[1, 1] == "exact" and grid.iterations[1, 1] == 1
    assert set(status.ravel()) == {"exact", "converged"}
    assert (grid.iterations[status == "converged"] > 1).all()
    assert grid.argmin() == (1.0, 1.0)

class TestOneProblem:
    # `ops` holds the problem a step iterates: `iterate_to_convergence`
    # refuses a material or problem other than its own, and `march` and
    # `residual_norms` take neither
    @pytest.mark.parametrize("piece", ["mat", "problem"])
    def test_iterate_to_convergence_refuses_another_piece(self, piece):
        from porobiot.bench import manufactured_setup
        ops, prev = manufactured_setup("t1c1", 8)
        other = manufactured_material("t1c2", alpha=5.0)
        mat, prob = ops.mat, ops.problem
        if piece == "mat":
            mat = other
        else:
            prob = manufactured_problem(other)
        with pytest.raises(ValueError, match="ops was built from"):
            iterate_to_convergence(prev, SchemeConfig("monolithic", 1.0, 1.0),
                                   ops, mat, prob, 0.25)

    def test_march_and_residual_norms_take_no_pieces(self):
        from porobiot.bench import manufactured_setup
        ops, prev = manufactured_setup("t1c1", 8)
        other = manufactured_material("t1c2", alpha=5.0)
        cfg = SchemeConfig("monolithic", 1.0, 1.0)
        with pytest.raises(TypeError):
            march(manufactured_problem(other),
                  generate_rect_mesh((0, 0), (3, 3), 2, 2), other, cfg, 0.25,
                  2, ops=ops, initial=prev)
        with pytest.raises(TypeError):
            residual_norms(prev, prev, ops, other, ops.problem, 0.25)


class TestStepInputs:
    # a step size that is not finite and positive, and a step count that
    # is not an integer of at least 1, are refused by name before any
    # system is built or factored
    BAD_TAU = [0.0, -1.0, -0.5, float("nan"), float("inf"), -float("inf"),
               True, "0.25", None]

    @pytest.mark.parametrize("tau", BAD_TAU)
    def test_iterate_to_convergence_refuses_the_step_size(self, tau):
        from porobiot.bench import manufactured_setup
        ops, prev = manufactured_setup("t1c1", 4)
        with pytest.raises(ValueError, match="step size tau"):
            iterate_to_convergence(prev, SchemeConfig("splitting", 1, 1), ops,
                                   ops.mat, ops.problem, tau)

    @pytest.mark.parametrize("tau", BAD_TAU)
    def test_march_refuses_the_step_size(self, tau):
        mesh, mat, prob, ops, prev = linear_setup(4)
        with pytest.raises(ValueError, match="step size tau"):
            next(march(ops, SchemeConfig("monolithic", 1.0, 1.0), tau, 2))

    @pytest.mark.parametrize("dt", [-1.0, 0.0, float("nan"), float("inf")])
    def test_run_mandel_refuses_the_step_size(self, dt):
        from porobiot.bench import run_mandel
        with pytest.raises(ValueError, match="step size tau"):
            run_mandel(dt=dt, n_steps=2, nx=4, ny=4)

    @pytest.mark.parametrize("kind", ["splitting", "monolithic"])
    @pytest.mark.parametrize("tau", [-1.0, float("nan")])
    def test_sweep_refuses_the_step_size(self, kind, tau):
        # a splitting column of two cells iterates in lock step, from flow
        # halves built before any solver: its step context refuses first
        from porobiot.bench import sweep_L
        with pytest.raises(ValueError, match="step size tau"):
            sweep_L("t1c1", kind, [1.0, 2.0], [1.0], nx=4, tau=tau,
                    n_workers=1)

    @pytest.mark.parametrize("n_steps", [True, False, 2.5, "3", 0, -1, None])
    def test_march_refuses_the_step_count(self, n_steps):
        mesh, mat, prob, ops, prev = linear_setup(4)
        with pytest.raises(ValueError, match="n_steps"):
            next(march(ops, SchemeConfig("monolithic", 1.0, 1.0), 0.25,
                       n_steps))

    def test_integer_and_float_types_of_numpy_are_taken(self):
        mesh, mat, prob, ops, prev = linear_setup(4)
        cfg = SchemeConfig("monolithic", 1.0, 1.0)
        results = time_march(ops, cfg, np.float64(0.25), np.int64(2))
        assert [st.time for st, _ in results] == [0.25, 0.5]
