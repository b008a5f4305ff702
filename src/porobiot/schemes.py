"""The two non-linear iterations per implicit time step, and time marching.

Both schemes replace the non-linear storage and volumetric-stress terms by
constant-slope updates with tuning parameters L1 and L2:

* splitting: one fixed-stress sweep (`linalg.FixedStressPreconditioner`):
  the flow half (Darcy row plus L1-stabilized mass row, the displacement
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
from dataclasses import dataclass, field as dc_field

import numpy as np

from .assembly import (BiotOperators, ReducedSystem, assemble_loads,
                       build_operators)
from .fem import FeFunction, interpolate, l2_norm, per_row
from .linalg import (BlockSystem, CachedLU, FixedStressPreconditioner,
                     FlowHalf, LinearSolveError, gmres)
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


class SchemeSolver:
    """The linear solves of one scheme at one step size, with their
    factorizations.

    A splitting iteration is one application of the fixed-stress sweep
    `sweep` (`linalg.FixedStressPreconditioner`), which holds the flow
    halves `flows` of k cells of `cfg.L2`, the first `cfg`'s (one built
    there when None).  The monolithic scheme solves the (u, q) system
    with the pressure eliminated by its LU factorization or, when
    ``ops.solver`` selects GMRES, the 3x3 block system by GMRES
    preconditioned with the sweep, applied once per inner iteration.
    GMRES starts from the iterate it is given, so it solves for the
    increment.  Each matrix is built and factored once.  `step` performs
    one iteration of the scheme and depends on its iterate and step
    context alone: the solver keeps no solution from one call to the next.

    No attribute holds a bound method of the solver or its sweep: that
    reference cycle would keep their factorizations alive until the cyclic
    garbage collector runs, past the end of the run that built them.
    """

    def __init__(self, ops: BiotOperators, cfg: SchemeConfig, tau,
                 flows=None):
        self.ops, self.cfg, self.tau = ops, cfg, tau
        self.mono_lu = None
        if flows is not None and cfg.kind != "splitting":
            raise ValueError("only a splitting solver takes flow halves")
        if cfg.kind == "monolithic" and (ops.solver is None
                                         or ops.solver.method != "gmres"):
            self.system = ops.monolithic_schur_system(cfg.L1, cfg.L2, tau)
            self.mono_lu = CachedLU(self.system.matrix)
            return
        self.sweep = FixedStressPreconditioner(ops, cfg, tau, flows)
        if cfg.kind == "monolithic":
            self.system = ops.monolithic_system(cfg.L1, cfg.L2, tau)
            return
        # the stacked restriction, shifted by the splitting operator
        # [[A + L2 D, 0, -alpha B_u], [0, M_q, -B^T], [0, tau B, L1 M_p]]
        # on the lifts; the sweep inverts it, so it carries no matrix
        con, names = ops.constraints, ("u", "q", "p")
        lift_q = con.q.lift
        shift = np.concatenate([self.sweep.mech.rhs_shift,
                                con.q.restriction.T @ (ops.m_q @ lift_q),
                                tau * (ops.b_qp @ lift_q)])
        self.system = ReducedSystem(None, shift, *con.composed(names),
                                    con.composed_index(names))

    def _gmres(self, rhs_red, cur: BiotState):
        """The reduced monolithic solution by GMRES, started from the
        reduced coordinates of `cur`: the solve is one for the increment,
        and a converged iterate needs no inner iteration."""
        opts, cfg, index = self.ops.solver, self.cfg, self.system.reduced_of
        free = index >= 0
        x0 = np.empty(self.system.matrix.shape[0])
        x0[index[free]] = np.concatenate([cur.u.coeffs, cur.q.coeffs,
                                          cur.p.coeffs])[free]
        x_red, report = gmres(BlockSystem(self.system.matrix, rhs_red),
                              preconditioner=self.sweep,
                              restart=opts.restart, rtol=opts.rtol,
                              maxiter=opts.maxiter, x0=x0)
        self.ops.solver_log.append((f"mono/L1={cfg.L1:g}/L2={cfg.L2:g}", report))
        if not report.converged:
            raise LinearSolveError(
                f"preconditioned GMRES stopped at {report.status} with relative "
                f"residual {report.relres:.2e}")
        return x_red

    def step(self, cur: BiotState, ctx: StepContext, cells=None) -> BiotState:
        """One iteration of the scheme from the iterate `cur`.

        Both schemes form the L-scheme right-hand side (rhs_u, g, rhs_p),
        but for the displacement coupling of the mass row, which the
        splitting takes explicitly.  The sweep (splitting) and GMRES solve
        for its restriction, GMRES from the reduced coordinates of `cur`.
        The monolithic LU solve eliminates the
        pressure from the mass row alpha B_u^T u + tau B q + L1 M_p p = rhs_p: with
        w = rhs_p / (L1 M_p) the (u, q) system of `monolithic_schur_system`
        has the right-hand side (rhs_u + alpha B_u w, tau (g + B^T w)), and
        p is recovered cellwise, M_p being the diagonal P0 mass.

        The fields of `cur` may be (n, k) blocks (not for GMRES), each
        column computed with the arithmetic of a vector.  The columns of a
        splitting block iterate the cells `cells`, indices into the flow
        halves of the sweep.
        """
        ops, cfg, alpha = self.ops, self.cfg, self.ops.mat.alpha
        nu, nq = ops.dofmap_u.n_dofs, ops.dofmap_q.n_dofs
        u, p = cur.u.coeffs, cur.p.coeffs
        block = cfg.kind == "splitting" and u.ndim == 2
        L1 = self.sweep.L1[cells] if block else cfg.L1
        divu = ops.divu_dual(u)
        rhs_u = (per_row(ctx.f_vec, u) + cfg.L2 * (ops.d_div @ u)
                 - ops.hu_dual(u, divu))
        rhs_p = (per_row(ctx.mass_const, p) - ops.bp_dual(p)
                 + L1 * (per_row(ops.mesh.areas, p) * p))
        if self.mono_lu is not None:
            l1_areas = per_row(L1 * ops.mesh.areas, p)
            w = rhs_p / l1_areas
            rhs = np.concatenate([rhs_u + alpha * (ops.b_up @ w),
                                  ctx.tau * (per_row(ctx.g_vec, w)
                                             + ops.b_qp_t @ w)])
        else:
            if cfg.kind == "splitting":
                rhs_p -= alpha * divu
            g = np.broadcast_to(per_row(ctx.g_vec, u), (nq,) + u.shape[1:])
            rhs = np.concatenate([rhs_u, g, rhs_p])
        r = self.system.restrict(rhs) - per_row(self.system.rhs_shift, rhs)
        if self.mono_lu is not None:
            x_red = self.mono_lu.solve(r)
        elif cfg.kind == "monolithic":
            x_red = self._gmres(r, cur)
        else:
            x_red = self.sweep.matvec(r, cells)
        x = self.system.expand(x_red)
        u, q, p = x[:nu], x[nu:nu + nq], x[nu + nq:]
        if self.mono_lu is not None:
            p = (rhs_p - (alpha * ops.divu_dual(u)
                          + ctx.tau * (ops.b_qp @ q))) / l1_areas
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


def _iterate(solver: SchemeSolver, cur: BiotState, ctx: StepContext, cfgs,
             trace: IterationTrace = None, archive=None):
    """Iterate `solver` from `cur`, one cell's vectors or the (n, k) block
    of its k cells (`cfgs`), until `stop_status` stops every cell; a
    stopped cell's column leaves the block.  `trace` and `archive` record
    a vector cell's increments and iterates.  Returns the last iterate
    and each cell's (iterations, status).
    """
    ops = solver.ops
    live = list(range(len(cfgs)))   # the cell of each column
    first, out, iterations = {}, [None] * len(cfgs), 0
    while live:
        iterations += 1
        new = solver.step(cur, ctx, live)
        dp = l2_norm(FeFunction(ops.dofmap_p, new.p.coeffs - cur.p.coeffs))
        dq = l2_norm(FeFunction(ops.dofmap_q, new.q.coeffs - cur.q.coeffs))
        du = l2_norm(FeFunction(ops.dofmap_u, new.u.coeffs - cur.u.coeffs))
        if trace is not None:
            trace.record(dp, dq, du)
        if archive is not None:
            archive.append(new.copy())
        cur, totals, going = new, np.atleast_1d(dp + dq + du), []
        for j, c in enumerate(live):
            status = stop_status(totals[j], first.setdefault(c, totals[j]),
                                 iterations, cfgs[c])
            if status is None:
                going.append(j)
            else:
                out[c] = (iterations, status)
        if len(going) < len(live):
            live = [live[j] for j in going]
            if live:
                cur = BiotState(*(FeFunction(f.dofmap, f.coeffs[:, going])
                                  for f in (cur.u, cur.q, cur.p)), cur.time)
    return cur, out


def iterate_to_convergence(prev: BiotState, cfg: SchemeConfig,
                           ops: BiotOperators, mat: MaterialModel,
                           problem: ProblemDefinition, tau,
                           keep_iterates=False, solver: SchemeSolver = None,
                           ctx: StepContext = None):
    """Iterate one scheme until the summed increment norms fall below tol.

    The first iterate is seeded with the previous time-step solution.  A
    combined increment that is not finite or above divergence_factor times
    the first one aborts with `DivergenceError`; exhausting max_iter
    returns with converged=False (`stop_status`).  `solver` reuses the
    factorizations of an earlier call with the same operators, scheme and
    step size, and `ctx` the step context built from `prev` and `tau`;
    without them they are built here.  Returns the final state, the trace
    and (optionally) the archived iterates.
    """
    if solver is None:
        solver = SchemeSolver(ops, cfg, tau)
    elif solver.ops is not ops or solver.cfg != cfg or solver.tau != tau:
        raise ValueError("solver was built for other operators, scheme or step")
    if ctx is None:
        ctx = StepContext.build(ops, problem, prev, tau)
    elif ctx.tau != tau or ctx.t_new != prev.time + tau:
        raise ValueError("step context was built for another step")
    cur = BiotState(prev.u, prev.q, prev.p, ctx.t_new)
    trace = IterationTrace()
    archive = [cur.copy()] if keep_iterates else None
    cur, [(_, status)] = _iterate(solver, cur, ctx, [cfg], trace, archive)
    # a sweep solves the flux and the mechanics systems
    trace.n_linear_solves = (2 if cfg.kind == "splitting" else 1) * \
        trace.iterations
    if status == "diverged":
        total, first_total = trace.totals[-1], trace.totals[0]
        if not np.isfinite(total):
            raise DivergenceError(
                f"non-finite increment at iteration {trace.iterations}")
        raise DivergenceError(
            f"increment {total:.3e} exceeds {cfg.divergence_factor:g} x "
            f"first increment {first_total:.3e}")
    trace.converged = status == "converged"

    trace.range_excursions = check_admissible(
        mat, cur.p.coeffs, ops.div_u_cells(cur.u.coeffs),
        context=f"t={ctx.t_new:g}: ")
    if keep_iterates:
        return cur, trace, archive
    return cur, trace


def iterate_lockstep(ops: BiotOperators, prev: BiotState, cfgs,
                     ctx: StepContext, flows):
    """One splitting time step from `prev` for k cells of one L2, iterated
    in lock step: each cell's (iterations, status) in `cfgs` order.

    `ctx` is the step's context and `flows` maps L1 to the `FlowHalf`
    built for it and the step's tau; a half it lacks is built and added.
    The cells still running are the columns of one block of a
    `SchemeSolver` whose sweep holds their flow halves and the mechanics
    block of their L2, so a cell stops where `iterate_to_convergence`
    would, but a divergence is a status, not an error.  Range excursions
    are not checked.
    """
    if any(c.kind != "splitting" or c.L2 != cfgs[0].L2 for c in cfgs):
        raise ValueError("lock-step cells are splitting cells of one L2")
    for c in cfgs:
        if c.L1 not in flows:
            flows[c.L1] = FlowHalf(ops, c.L1, ctx.tau)
    solver = SchemeSolver(ops, cfgs[0], ctx.tau, [flows[c.L1] for c in cfgs])
    cur = BiotState(*(FeFunction(f.dofmap, np.repeat(f.coeffs[:, None],
                                                     len(cfgs), axis=1))
                      for f in (prev.u, prev.q, prev.p)), ctx.t_new)
    return _iterate(solver, cur, ctx, cfgs)[1]


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
    reduced mass matrices, symmetric positive definite like every
    factored matrix, are factored by `CachedLU` on every call.
    """
    ctx = ctx or StepContext.build(ops, problem, prev, tau)
    u, q, p = state.u.coeffs, state.q.coeffs, state.p.coeffs
    alpha = mat.alpha
    r_u = ops.a_e @ u + ops.hu_dual(u) - alpha * (ops.b_up @ p) - ctx.f_vec
    r_q = ops.m_q @ q - ops.b_qp.T @ p - ctx.g_vec
    r_p = (ops.bp_dual(p) + alpha * ops.divu_dual(u) + tau * (ops.b_qp @ q)
           - ctx.mass_const)

    def dual(name, r, mass):
        system = ops._reduced_spd(mass, (name,))
        rr = system.restriction.T @ r
        return float(np.sqrt(max(rr @ CachedLU(system.matrix).solve(rr), 0.0)))

    res_u = dual("u", r_u, ops.dofmap_u.mass_matrix)
    res_q = dual("q", r_q, ops.dofmap_q.mass_matrix)
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
