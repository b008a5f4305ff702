"""The two non-linear iterations per implicit time step, and time marching.

Both schemes replace the non-linear storage and volumetric-stress terms by
constant-slope updates with tuning parameters L1 and L2:

* splitting: one fixed-stress sweep (`linalg.FixedStressPreconditioner`):
  the flow step (Darcy row plus L1-stabilized mass row, the displacement
  coupling taken explicitly) for the new flux, with the pressure
  eliminated through the diagonal P0 mass and recovered cellwise, then
  the L2-stabilized mechanics block driven by that pressure;
* monolithic: one solve of the coupled system in (u, q, p) with the same
  stabilized rows.  Direct solves eliminate the pressure through the
  diagonal P0 mass as well, which leaves a symmetric positive definite
  (u, q) system, and recover it cellwise; GMRES solves the 3x3 block
  system, preconditioned by one splitting sweep.

All system matrices are constant across iterations and time steps, so a
`SchemeSolver` builds them and their factorizations once and reuses them.
Iterations start from the previous time-step solution and stop when the
summed L2 norms of the field increments drop below the tolerance
(`stop_status`).  `iterate_lockstep` iterates several splitting cells of
one L2 together, their iterates the columns of one block.
"""

from __future__ import annotations

import numbers
import time as _time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .assembly import (BiotOperators, ReducedSystem, assemble_loads,
                       build_operators)
from .fem import FeFunction, interpolate, l2_norm, l2_norms, per_row
from .linalg import (BlockSystem, CachedLU, FixedStressPreconditioner,
                     LinearSolveError, gmres)
from .mesh import Mesh
from .physics import MaterialModel, ProblemDefinition, check_admissible


class DivergenceError(RuntimeError):
    """The combined increment blew past the divergence safeguard."""


class SchemeConfigError(ValueError):
    """An invalid scheme kind, stabilization parameter or tolerance."""


SCHEME_KINDS = ("splitting", "monolithic")


@dataclass
class SchemeConfig:
    """Scheme kind, stabilization parameters and stopping controls."""

    kind: str
    L1: float
    L2: float
    tol: float = 1e-8
    max_iter: int = 500
    divergence_factor: float = 1e6

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise SchemeConfigError(f"scheme kind must be one of {SCHEME_KINDS}")
        if not np.all(np.isfinite([self.L1, self.L2, self.tol])):
            raise SchemeConfigError("L1, L2 and tol must be finite")
        if self.L1 < 0 or self.L2 < 0:
            raise SchemeConfigError("stabilization parameters must be non-negative")
        if self.tol <= 0:
            raise SchemeConfigError("tolerance must be positive")
        if self.L1 == 0:
            raise SchemeConfigError(
                "both schemes eliminate the pressure through L1 M_p: they need L1 > 0")
        if (not isinstance(self.max_iter, numbers.Integral)
                or isinstance(self.max_iter, bool) or self.max_iter < 1):
            raise SchemeConfigError("max_iter must be an integer of at least 1")
        if not (np.isfinite(self.divergence_factor)
                and self.divergence_factor >= 1):
            raise SchemeConfigError(
                "divergence_factor must be finite and at least 1")

    def splitting_safe(self, mat: MaterialModel) -> bool:
        """L1 >= L_b and L2 >= L_h + alpha^2 / b_m (with the estimated constants)."""
        if not np.isfinite(mat.L_b) or self.L1 < mat.L_b:
            return False
        if mat.alpha == 0.0:
            return self.L2 >= mat.L_h
        if mat.b_m <= 0.0:
            return False
        return self.L2 >= mat.L_h + mat.alpha ** 2 / mat.b_m

    def monolithic_safe(self, mat: MaterialModel) -> bool:
        """L1 >= L_b / 2 and L2 >= L_h (with the estimated constants)."""
        return (np.isfinite(mat.L_b) and self.L1 >= mat.L_b / 2.0
                and np.isfinite(mat.L_h) and self.L2 >= mat.L_h)

    def theorem_safe(self, mat: MaterialModel) -> bool:
        if self.kind == "splitting":
            return self.splitting_safe(mat)
        return self.monolithic_safe(mat)


def suggested_tuning(mat: MaterialModel, kind):
    """Default (L1, L2) from the estimated law constants.

    L1 = L_b for both schemes (at or above both convergence conditions).
    The splitting L2 adds the alpha^2 / b_m coupling margin when that is
    finite and the sum at most 50 max(1, L_h) (a degenerate monotonicity
    floor would stall the mechanics update); otherwise, and for the
    monolithic scheme, L2 = L_h.  For linear laws this reproduces the
    undrained-split preset (1/M, lambda + M alpha^2) and the exact
    monolithic preset (1/M, lambda).
    """
    if kind not in SCHEME_KINDS:
        raise SchemeConfigError(f"scheme kind must be one of {SCHEME_KINDS}")
    if not np.isfinite(mat.L_b) or not np.isfinite(mat.L_h):
        raise ValueError("law constants are not finite; certify a range first")
    L1 = mat.L_b
    L2 = mat.L_h
    if kind == "splitting" and mat.alpha > 0 and mat.b_m > 0:
        candidate = mat.L_h + mat.alpha ** 2 / mat.b_m
        if candidate <= 50.0 * max(1.0, mat.L_h):
            L2 = candidate
    return L1, L2


@dataclass
class BiotState:
    """The discrete triple (u, q, p) at one time level."""

    u: FeFunction
    q: FeFunction
    p: FeFunction
    time: float

    def copy(self):
        return BiotState(self.u.copy(), self.q.copy(), self.p.copy(), self.time)


@dataclass
class IterationTrace:
    """Per-iteration increment norms, rates and run bookkeeping."""

    dp: list = dc_field(default_factory=list)
    dq: list = dc_field(default_factory=list)
    du: list = dc_field(default_factory=list)
    totals: list = dc_field(default_factory=list)
    rates: list = dc_field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    n_linear_solves: int = 0
    seconds: float = 0.0
    range_excursions: int = 0   # certified law ranges the final iterate left

    def record(self, dp, dq, du):
        total = dp + dq + du
        rate = total / self.totals[-1] if self.totals and self.totals[-1] > 0 \
            else float("nan")
        self.dp.append(dp)
        self.dq.append(dq)
        self.du.append(du)
        self.totals.append(total)
        self.rates.append(rate)
        self.iterations += 1


@dataclass
class StepContext:
    """Loads and previous-state terms that are constant over one time step."""

    t_new: float
    tau: float
    f_vec: np.ndarray
    g_vec: np.ndarray
    mass_const: np.ndarray   # tau <S_f, w> + <b(p_prev), w> + alpha <div u_prev, w>

    @classmethod
    def build(cls, ops: BiotOperators, problem, prev: BiotState, tau):
        t_new = prev.time + tau
        f_vec, g_vec, s_vec = assemble_loads(problem, ops, t_new)
        mass_const = (tau * s_vec + ops.bp_dual(prev.p.coeffs)
                      + ops.mat.alpha * ops.divu_dual(prev.u.coeffs))
        return cls(t_new, tau, f_vec, g_vec, mass_const)


def _lscheme_rhs(ops: BiotOperators, ctx: StepContext, u, p, L1, L2,
                 splitting):
    """The mechanics and mass rows (rhs_u, rhs_p) of the L-scheme
    right-hand side at the iterate (u, p).

    The splitting takes the displacement coupling of the mass row
    explicitly.  (u, p) may be blocks whose columns are k iterates, with
    `L1` an array of their k values: each column is formed with the
    arithmetic of a vector.
    """
    divu = ops.divu_dual(u)
    rhs_u = (per_row(ctx.f_vec, u) + L2 * (ops.d_div @ u)
             - ops.hu_dual(u, divu))
    rhs_p = (per_row(ctx.mass_const, p) - ops.bp_dual(p)
             + L1 * (per_row(ops.mesh.areas, p) * p))
    if splitting:
        rhs_p -= ops.mat.alpha * divu
    return rhs_u, rhs_p


def _splitting_system(ops: BiotOperators, sweep: FixedStressPreconditioner,
                      tau):
    """The stacked (u, q, p) restriction of a splitting step, whose shift
    is the splitting operator [[A + L2 D, 0, -alpha B_u], [0, M_q, -B^T],
    [0, tau B, L1 M_p]] applied to the lifts.  The sweep inverts its
    restriction, so the system carries no matrix; its shift depends on L2
    (through the sweep's mechanics half) and tau alone."""
    con, names = ops.constraints, ("u", "q", "p")
    lift_q = con.q.lift
    shift = np.concatenate([sweep.mech.rhs_shift,
                            con.q.restriction.T @ (ops.m_q @ lift_q),
                            tau * (ops.b_qp @ lift_q)])
    return ReducedSystem(None, shift, *con.composed(names),
                         con.composed_index(names))


class SchemeSolver:
    """The linear solves of one scheme at one step size, with their
    factorizations.

    A splitting iteration is one application of the fixed-stress sweep
    (`linalg.FixedStressPreconditioner`): the flux system with the
    pressure eliminated, then the mechanics block.  The monolithic scheme
    solves the (u, q) system with the pressure eliminated by its LU
    factorization or, when ``ops.solver`` selects GMRES, the 3x3 block
    system by GMRES preconditioned with the same sweep.  Each matrix is
    built and factored once, here.  `step` performs one iteration of the
    scheme.

    No attribute holds a bound method of the solver or of its sweep: that
    reference cycle would keep their factorizations alive until the cyclic
    garbage collector runs, past the end of the run that built them.
    """

    def __init__(self, ops: BiotOperators, cfg: SchemeConfig, tau):
        self.ops, self.cfg, self.tau = ops, cfg, tau
        self.sweep = self.mono_lu = None
        if cfg.kind == "monolithic" and (ops.solver is None
                                         or ops.solver.method != "gmres"):
            self.system = ops.monolithic_schur_system(cfg.L1, cfg.L2, tau)
            self.mono_lu = CachedLU(self.system.matrix)
            return
        self.sweep = FixedStressPreconditioner(ops, cfg, tau)
        if cfg.kind == "monolithic":
            self.system = ops.monolithic_system(cfg.L1, cfg.L2, tau)
        else:
            self.system = _splitting_system(ops, self.sweep, tau)

    def _gmres(self, rhs_red):
        opts, cfg = self.ops.solver, self.cfg
        x_red, report = gmres(BlockSystem(self.system.matrix, rhs_red),
                              preconditioner=self.sweep,
                              restart=opts.restart, rtol=opts.rtol,
                              maxiter=opts.maxiter)
        self.ops.solver_log.append((f"mono/L1={cfg.L1:g}/L2={cfg.L2:g}", report))
        if not report.converged:
            raise LinearSolveError(
                f"preconditioned GMRES stopped at {report.status} with relative "
                f"residual {report.relres:.2e}")
        return x_red

    def step(self, cur: BiotState, ctx: StepContext,
             trace: IterationTrace = None) -> BiotState:
        """One iteration of the scheme from the iterate `cur`.

        Both schemes share the L-scheme right-hand side (rhs_u, g, rhs_p),
        but for the displacement coupling of the mass row, which the
        splitting takes explicitly.  The sweep (splitting) and GMRES solve
        for its restriction.  The monolithic LU solve eliminates the
        pressure from the mass row alpha B_u^T u + tau B q + L1 M_p p = rhs_p: with
        w = rhs_p / (L1 M_p) the (u, q) system of `monolithic_schur_system`
        has the right-hand side (rhs_u + alpha B_u w, tau (g + B^T w)), and
        p is recovered cellwise, M_p being the diagonal P0 mass.
        """
        ops, cfg, alpha = self.ops, self.cfg, self.ops.mat.alpha
        nu, nq = ops.dofmap_u.n_dofs, ops.dofmap_q.n_dofs
        rhs_u, rhs_p = _lscheme_rhs(ops, ctx, cur.u.coeffs, cur.p.coeffs,
                                    cfg.L1, cfg.L2, cfg.kind == "splitting")
        if self.mono_lu is None:
            rhs = np.concatenate([rhs_u, ctx.g_vec, rhs_p])
            solve = self.sweep.matvec if cfg.kind == "splitting" else self._gmres
        else:
            l1_areas = cfg.L1 * ops.mesh.areas
            w = rhs_p / l1_areas
            rhs = np.concatenate([rhs_u + alpha * (ops.b_up @ w),
                                  ctx.tau * (ctx.g_vec + ops.b_qp_t @ w)])
            solve = self.mono_lu.solve
        x = self.system.expand(solve(self.system.restrict(rhs)
                                     - self.system.rhs_shift))
        u, q, p = x[:nu], x[nu:nu + nq], x[nu + nq:]
        if self.mono_lu is not None:
            p = (rhs_p - (alpha * ops.divu_dual(u)
                          + ctx.tau * (ops.b_qp @ q))) / l1_areas
        if trace is not None:
            # a sweep solves the flux and the mechanics systems
            trace.n_linear_solves += 2 if cfg.kind == "splitting" else 1
        return BiotState(FeFunction(ops.dofmap_u, u), FeFunction(ops.dofmap_q, q),
                         FeFunction(ops.dofmap_p, p), ctx.t_new)


def stop_status(total, first_total, iterations, cfg: SchemeConfig):
    """The stop rule after `iterations` iterations whose last and first
    summed increments are `total` and `first_total`: 'diverged' (not
    finite, or above divergence_factor times the first), 'converged' (at
    most tol), 'maxiter', or None to go on."""
    if not np.isfinite(total):
        return "diverged"
    if total <= cfg.tol:
        return "converged"
    if total > cfg.divergence_factor * first_total:
        return "diverged"
    if iterations >= cfg.max_iter:
        return "maxiter"
    return None


def iterate_to_convergence(prev: BiotState, cfg: SchemeConfig,
                           ops: BiotOperators, mat: MaterialModel,
                           problem: ProblemDefinition, tau,
                           keep_iterates=False, solver: SchemeSolver = None):
    """Iterate one scheme until the summed increment norms fall below tol.

    The first iterate is seeded with the previous time-step solution.  A
    combined increment that is not finite or above divergence_factor times
    the first one aborts with `DivergenceError`; exhausting max_iter
    returns with converged=False (`stop_status`).  `solver` reuses the
    factorizations of an earlier call with the same operators, scheme and
    step size; without it they are built here.  Returns the final state,
    the trace and (optionally) the archived iterates.
    """
    t0 = _time.perf_counter()
    if solver is None:
        solver = SchemeSolver(ops, cfg, tau)
    elif solver.ops is not ops or solver.cfg != cfg or solver.tau != tau:
        raise ValueError("solver was built for other operators, scheme or step")
    ctx = StepContext.build(ops, problem, prev, tau)
    cur = prev.copy()
    cur.time = ctx.t_new
    trace = IterationTrace()
    archive = [cur.copy()] if keep_iterates else None

    status = None
    while status is None:
        new = solver.step(cur, ctx, trace)
        dp = l2_norm(FeFunction(ops.dofmap_p, new.p.coeffs - cur.p.coeffs))
        dq = l2_norm(FeFunction(ops.dofmap_q, new.q.coeffs - cur.q.coeffs))
        du = l2_norm(FeFunction(ops.dofmap_u, new.u.coeffs - cur.u.coeffs))
        trace.record(dp, dq, du)
        if keep_iterates:
            archive.append(new.copy())
        cur = new
        total, first_total = trace.totals[-1], trace.totals[0]
        status = stop_status(total, first_total, trace.iterations, cfg)
    if status == "diverged":
        if not np.isfinite(total):
            raise DivergenceError(
                f"non-finite increment at iteration {trace.iterations}")
        raise DivergenceError(
            f"increment {total:.3e} exceeds {cfg.divergence_factor:g} x "
            f"first increment {first_total:.3e}")
    trace.converged = status == "converged"
    trace.seconds = _time.perf_counter() - t0

    trace.range_excursions = check_admissible(
        mat, cur.p.coeffs, ops.div_u_cells(cur.u.coeffs),
        context=f"t={ctx.t_new:g}: ")
    if keep_iterates:
        return cur, trace, archive
    return cur, trace


def iterate_lockstep(ops: BiotOperators, prev: BiotState, cfgs, tau, sweeps):
    """One splitting time step from `prev` for k cells of one L2, iterated
    in lock step: each cell's (iterations, status) in `cfgs` order.

    `sweeps` are the cells' fixed-stress sweeps, which share one mechanics
    half.  The iterates of the cells still running are the columns of one
    block: an iteration restricts the block's right-hand sides, solves
    each cell's flux step with its own flow half and the block's
    mechanics step with one multi-column solve, and expands the block.
    Each column is formed and measured with the arithmetic of
    `SchemeSolver.step` and `l2_norm` and stopped by `stop_status`, so a
    cell stops where `iterate_to_convergence` would, but a divergence is
    a status, not an error.  Range excursions are not checked.
    """
    mech = sweeps[0]
    if any(c.kind != "splitting" for c in cfgs) or any(
            s.mech_lu is not mech.mech_lu for s in sweeps):
        raise ValueError("lock-step cells are splitting cells that share "
                         "one mechanics half")
    ctx = StepContext.build(ops, ops.problem, prev, tau)
    system = _splitting_system(ops, mech, tau)
    nu, nq = ops.dofmap_u.n_dofs, ops.dofmap_q.n_dofs
    ru, rq, _ = mech.sizes
    live = list(range(len(cfgs)))   # the cell of each column
    u, q, p = (np.repeat(f.coeffs[:, None], len(live), axis=1)
               for f in (prev.u, prev.q, prev.p))
    first, out = {}, [None] * len(cfgs)
    iterations = 0
    while live:
        iterations += 1
        rhs_u, rhs_p = _lscheme_rhs(ops, ctx, u, p,
                                    np.array([cfgs[c].L1 for c in live]),
                                    mech.L2, True)
        g = np.broadcast_to(ctx.g_vec[:, None], (nq, len(live)))
        r = (system.restrict(np.concatenate([rhs_u, g, rhs_p]))
             - system.rhs_shift[:, None])
        flows = [sweeps[c].flow_step(r[ru:ru + rq, j], r[ru + rq:, j])
                 for j, c in enumerate(live)]
        d_q, d_p = (np.column_stack(d) for d in zip(*flows))
        x = system.expand(np.concatenate([mech.mech_step(r[:ru], d_p),
                                          d_q, d_p]))
        new_u, new_q, new_p = x[:nu], x[nu:nu + nq], x[nu + nq:]
        totals = (l2_norms(ops.dofmap_p, new_p - p)
                  + l2_norms(ops.dofmap_q, new_q - q)
                  + l2_norms(ops.dofmap_u, new_u - u))
        going = []
        for j, c in enumerate(live):
            first.setdefault(c, totals[j])
            status = stop_status(totals[j], first[c], iterations, cfgs[c])
            if status is None:
                going.append(j)
            else:
                out[c] = (iterations, status)
        u, q, p = new_u, new_q, new_p
        if len(going) < len(live):
            live = [live[j] for j in going]
            u, q, p = u[:, going], q[:, going], p[:, going]
    return out


def build_initial_state(problem: ProblemDefinition, ops: BiotOperators) -> BiotState:
    """Interpolate the problem's initial data onto the discrete spaces."""
    return BiotState(
        interpolate(ops.dofmap_u, problem.initial_u),
        interpolate(ops.dofmap_q, problem.initial_q),
        interpolate(ops.dofmap_p, problem.initial_p),
        0.0)


def march(problem: ProblemDefinition, mesh: Mesh, mat: MaterialModel,
          cfg: SchemeConfig, tau, n_steps, ops: BiotOperators = None,
          initial: BiotState = None):
    """March n_steps implicit steps; each seeds from the previous solution.

    A generator: it builds one `SchemeSolver` for the run and yields one
    (state, trace) pair per step, holding no state but the previous one,
    so a run's memory does not grow with n_steps unless its caller keeps
    the states.  Non-converged steps are yielded (flagged in the trace);
    divergence aborts with the step index attached.
    """
    if n_steps < 1:
        raise ValueError("need at least one time step")
    ops = ops or build_operators(mesh, mat, problem)
    prev = initial if initial is not None else build_initial_state(problem, ops)
    solver = SchemeSolver(ops, cfg, tau)
    for n in range(1, n_steps + 1):
        try:
            prev, trace = iterate_to_convergence(prev, cfg, ops, mat, problem,
                                                 tau, solver=solver)
        except DivergenceError as exc:
            raise DivergenceError(f"step {n} (t={prev.time + tau:g}): {exc}") from exc
        yield prev, trace


def time_march(problem: ProblemDefinition, mesh: Mesh, mat: MaterialModel,
               cfg: SchemeConfig, tau, n_steps, ops: BiotOperators = None,
               initial: BiotState = None):
    """The list of `march`'s (state, trace) pairs, one per step.

    It keeps every step's state; a long run that reports only part of
    them iterates `march` instead.
    """
    return list(march(problem, mesh, mat, cfg, tau, n_steps, ops=ops,
                      initial=initial))


def residual_norms(state: BiotState, prev: BiotState, ops: BiotOperators,
                   mat: MaterialModel, problem: ProblemDefinition, tau,
                   ctx: StepContext = None):
    """Dual norms of the non-linear discrete residual at a state.

    Residuals of the mechanics, Darcy and mass rows are restricted to the
    constrained (reduced) spaces and measured in inverse-mass norms; the
    reduced mass matrices are factored on every call.
    """
    ctx = ctx or StepContext.build(ops, problem, prev, tau)
    u, q, p = state.u.coeffs, state.q.coeffs, state.p.coeffs
    alpha = mat.alpha
    r_u = ops.a_e @ u + ops.hu_dual(u) - alpha * (ops.b_up @ p) - ctx.f_vec
    r_q = ops.m_q @ q - ops.b_qp.T @ p - ctx.g_vec
    r_p = (ops.bp_dual(p) + alpha * ops.divu_dual(u) + tau * (ops.b_qp @ q)
           - ctx.mass_const)

    def dual(con, r, mass):
        rr = con.restriction.T @ r
        lu = CachedLU((con.restriction.T @ mass @ con.restriction).tocsr())
        return float(np.sqrt(max(rr @ lu.solve(rr), 0.0)))

    res_u = dual(ops.constraints.u, r_u, ops.dofmap_u.mass_matrix)
    res_q = dual(ops.constraints.q, r_q, ops.dofmap_q.mass_matrix)
    res_p = float(np.sqrt(np.sum(r_p * r_p / ops.mesh.areas)))
    return {"u": res_u, "q": res_q, "p": res_p}


def write_trace_csv(traces, path):
    """Serialize per-step iteration traces as step,iter,dp,dq,du,sum,rate."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step,iter,dp,dq,du,sum,rate\n")
        for step, trace in enumerate(traces, start=1):
            for i in range(trace.iterations):
                rate = trace.rates[i]
                rate_s = f"{rate:.17g}" if np.isfinite(rate) else ""
                fh.write(f"{step},{i + 1},{trace.dp[i]:.17g},{trace.dq[i]:.17g},"
                         f"{trace.du[i]:.17g},{trace.totals[i]:.17g},{rate_s}\n")
