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
An iterate, an (n, k) block of reduced coordinates with one column per
cell, carries its divergences B_u^T R_u x_u, of which the law h and the
L2 stabilization are formed by the reduced coupling R_u^T B_u.  `march`
carries it from step to step, forms full fields only to yield them, and
restricts the loads (`StepContext`) once per run when they do not depend
on time.  The essential conditions are homogeneous, so no constraint
enters a right-hand side.  Iterations stop when the summed L2 norms of the
field increments drop below the tolerance, and abort when they are not
finite or exceed `DIVERGENCE_FACTOR` times the first (`stop_status`),
norms taken in reduced coordinates too (`SchemeSolver.increment_norms`).
When both laws have a constant slope and L1, L2 equal those slopes, the
stabilized system is the backward Euler system itself, and the monolithic
LU solve of the first iteration is the step's solution: such a solver is
`SchemeSolver.exact`, and its first iterate stops with the status 'exact',
at any max_iter, unless it converged or diverged (GMRES solves inexactly,
and a splitting sweep carries its splitting error, so neither is exact).  One
loop (`_iterate`) traces each cell of one step or of a lock-step block
of splitting cells of one L2 (`iterate_lockstep`), range check included.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .assembly import BiotOperators, assemble_loads
from .fem import FeFunction, interpolate, l2_norm
from .linalg import (CachedLU, FixedStressPreconditioner, FlowHalf,
                     LinearSolveError, gmres)
from .physics import MaterialModel, ProblemDefinition, check_admissible


class DivergenceError(RuntimeError):
    """The combined increment blew past the divergence safeguard."""


class SchemeConfigError(ValueError):
    """An invalid scheme kind, stabilization parameter or tolerance."""


SCHEME_KINDS = ("splitting", "monolithic")
DIVERGENCE_FACTOR = 1e6   # a summed increment this many times the first diverges


@dataclass
class SchemeConfig:
    """Scheme kind, stabilization parameters and stopping controls."""

    kind: str
    L1: float
    L2: float
    tol: float = 1e-8
    max_iter: int = 500

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


def _check_step_size(tau):
    """`ValueError` unless the step size tau is a finite positive number."""
    if (not isinstance(tau, numbers.Real) or isinstance(tau, bool)
            or not np.isfinite(tau) or tau <= 0):
        raise ValueError(f"step size tau must be finite and positive, "
                         f"not {tau!r}")


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
    status: str = None   # `stop_status`'s verdict, or 'exact'
    n_linear_solves: int = 0
    range_excursions: int = 0   # certified law ranges the final iterate left
    converged = property(lambda self: self.status in ("converged", "exact"))

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
    """Loads, also restricted once, and previous-state terms that are
    constant over one time step; `seeded` adds the latter to `loads`."""

    t_new: float
    tau: float
    f_vec: np.ndarray
    g_vec: np.ndarray
    mass_const: np.ndarray   # tau <S_f, w> + <b(p_prev), w> + alpha <div u_prev, w>
    f_red: np.ndarray        # R_u^T f_vec
    g_red: np.ndarray        # R_q^T g_vec

    @classmethod
    def loads(cls, ops: BiotOperators, t_new, tau):
        _check_step_size(tau)
        f_vec, g_vec, s_vec = assemble_loads(ops, t_new)
        con = ops.constraints
        return cls(t_new, tau, f_vec, g_vec, tau * s_vec,
                   con.u.restrict(f_vec), con.q.restrict(g_vec))

    def seeded(self, ops: BiotOperators, t_new, p, divu):
        """These loads at t_new, seeded by pressures p and divergences divu."""
        return replace(self, t_new=t_new, mass_const=self.mass_const
                       + ops.bp_dual(p) + ops.mat.alpha * divu)

    @classmethod
    def build(cls, ops: BiotOperators, prev: BiotState, tau):
        return cls.loads(ops, prev.time + tau, tau).seeded(
            ops, prev.time + tau, prev.p.coeffs, ops.divu_dual(prev.u.coeffs))


class SchemeSolver:
    """The linear solves of one scheme at one step size, with their
    factorizations.

    An iterate x is an (n, k) block of k reduced (u, q, p), numbered as in
    `BlockConstraints.composed`; `coordinates` and `state` convert it,
    `step` maps it and its divergences (`divu_dual`) to the next ones, and
    `increment_norms` measures the difference of two.  tau must be finite
    and positive (`_check_step_size`), as for `StepContext`.

    A splitting iteration is one application of the fixed-stress sweep
    `sweep` (`linalg.FixedStressPreconditioner`), which holds the flow
    halves `flows` of k cells of `cfg.L2`, the first `cfg`'s (one built
    there when None).  The monolithic scheme solves the (u, q) system
    with the pressure eliminated by its LU factorization or, when
    ``ops.solver`` selects GMRES, the 3x3 block system by GMRES
    preconditioned with the sweep, applied once per inner iteration.
    GMRES starts from the iterate it is given, so it solves for the
    increment.  Each matrix is built and factored once, and after them
    the couplings of `BiotOperators.reduced_couplings`, shared with the
    sweep.  `step` performs one iteration of the scheme and depends on its
    iterate, its divergences and the step context alone: the solver keeps
    no solution from one call to the next.  `exact`: an LU monolithic
    solver whose L1 and L2 are the slopes of two constant-slope laws.

    No attribute holds a bound method of the solver or its sweep: that
    reference cycle would keep their factorizations alive until the cyclic
    garbage collector runs, past the end of the run that built them.
    """

    def __init__(self, ops: BiotOperators, cfg: SchemeConfig, tau,
                 flows=None):
        _check_step_size(tau)
        self.ops, self.cfg, self.tau = ops, cfg, tau
        con = ops.constraints
        self.sizes = (con.u.n_reduced, con.q.n_reduced, con.p.n_reduced)
        self.L1 = np.array([f.L1 for f in flows] if flows else [cfg.L1])
        self.mono_lu = None
        if flows is not None and cfg.kind != "splitting":
            raise ValueError("only a splitting solver takes flow halves")
        if cfg.kind == "monolithic" and (ops.solver is None
                                         or ops.solver.method != "gmres"):
            self.mono_lu = CachedLU(
                ops.monolithic_schur_system(cfg.L1, cfg.L2, tau))
            self.b_up_red, self.b_red = ops.reduced_couplings()
            self.b_red_t = self.b_red.T
        else:
            self.sweep = FixedStressPreconditioner(ops, cfg, tau, flows)
            self.b_up_red = self.sweep.b_up_red
            if cfg.kind == "monolithic":
                self.matrix = ops.monolithic_system(cfg.L1, cfg.L2, tau)
        self.b_up_red_t = self.b_up_red.T   # B_u^T R_u, a view
        mat = ops.mat
        self.exact = (self.mono_lu is not None and mat.b_law.constant_slope
                      and mat.h_law.constant_slope
                      and cfg.L1 == mat.b_m == mat.L_b
                      and cfg.L2 == mat.h_m == mat.L_h)
        # after the factorizations, whose working memory is a run's peak
        self.mass_u, self.mass_q = ops.reduced_masses()

    def coordinates(self, state: BiotState):
        """The one-column x of `state` (`FieldConstraints.coordinates`)."""
        con = self.ops.constraints
        return np.concatenate([con.u.coordinates(state.u.coeffs),
                               con.q.coordinates(state.q.coeffs),
                               state.p.coeffs])[:, None]

    def state(self, x, time):
        """The `BiotState` at `time` of the first column of x."""
        ops, con, (nu, nq, _) = self.ops, self.ops.constraints, self.sizes
        return BiotState(
            FeFunction(ops.dofmap_u, con.u.expand(x[:nu, :1])[:, 0]),
            FeFunction(ops.dofmap_q, con.q.expand(x[nu:nu + nq, :1])[:, 0]),
            FeFunction(ops.dofmap_p, x[nu + nq:, 0].copy()), time)

    def increment_norms(self, dx):
        """The L2 norms (dp, dq, du) of each column of the increment dx,
        by the reduced masses R^T M R of u and q and the cell areas of p."""
        nu, nq, _ = self.sizes
        return (l2_norm(dx[nu + nq:], self.ops.mesh.areas),
                l2_norm(dx[nu:nu + nq], self.mass_q),
                l2_norm(dx[:nu], self.mass_u))

    def divu_dual(self, x):
        """<div u, w> against all P0 tests, u = R_u x_u the displacement of
        each column of x: B_u^T R_u x_u."""
        return self.b_up_red_t @ x[:self.sizes[0]]

    def step(self, x, divu, ctx: StepContext, cells=None):
        """The next iterate after the (n, k) block x, whose divergences
        `divu_dual`(x) are divu: the new block and its divergences.

        Both schemes form the L-scheme right-hand side in reduced
        coordinates, with nothing to add for the homogeneous essential
        conditions.  As D = B_u M_p^-1 B_u^T,
        the mechanics row is r_u = f_red + R_u^T B_u (L2 div - h(div)),
        div = `divu_dual`(x) / |K|.  The mass row rhs_p = mass_const -
        <b(p), w> + L1 M_p p takes the displacement coupling explicitly in
        the splitting.  The sweep (splitting) and GMRES solve for
        (r_u, g_red, rhs_p), GMRES from x itself.  The monolithic LU solve
        eliminates the pressure from the mass row alpha B_u^T u + tau B q
        + L1 M_p p = rhs_p: with w = rhs_p / (L1 M_p) the (u, q) system of
        `monolithic_schur_system` has the right-hand side (r_u + alpha
        R_u^T B_u w, tau (g_red + R_q^T B^T w)), and p is recovered
        cellwise from the new (u, q) by the same couplings, M_p being the
        diagonal P0 mass, the new divergences among them.

        Column j gets the bits of its own one-column step and iterates the
        cell cells[j], a list or an index array into the sweep's flow halves
        (the first when None).  GMRES takes one column.  The sweep and GMRES
        solve for one right-hand side block that the call allocates and
        fills in place.
        """
        ops, cfg, alpha = self.ops, self.cfg, self.ops.mat.alpha
        nu, nq, _ = self.sizes
        L1 = self.L1[[0] if cells is None else cells]
        p, areas = x[nu + nq:], ops.mesh.areas[:, None]
        div = divu / areas
        mech = cfg.L2 * div - np.asarray(ops.mat.h_law(div), dtype=float)
        r = np.empty(x.shape)   # (r_u, r_q, rhs_p), filled in place
        r_u, r_q, rhs_p = r[:nu], r[nu:nu + nq], r[nu + nq:]
        np.add(ctx.mass_const[:, None] - ops.bp_dual(p), L1 * (areas * p),
               out=rhs_p)
        f_red, g_red = ctx.f_red[:, None], ctx.g_red[:, None]
        if self.mono_lu is not None:
            l1_areas = areas * L1
            w = rhs_p / l1_areas
            uq = self.mono_lu.solve(np.concatenate([
                f_red + self.b_up_red @ (mech + alpha * w),
                ctx.tau * (g_red + self.b_red_t @ w)]))
            divu = self.divu_dual(uq)
            p = (rhs_p - alpha * divu
                 - ctx.tau * (self.b_red @ uq[nu:])) / l1_areas
            return np.concatenate([uq, p]), divu
        if cfg.kind == "splitting":
            rhs_p -= alpha * divu
        np.add(f_red, self.b_up_red @ mech, out=r_u)
        r_q[:] = g_red
        if cfg.kind == "splitting":
            new = self.sweep.matvec(r, cells)
            return new, self.divu_dual(new)
        opts = ops.solver
        x_red, report = gmres(self.matrix, r.ravel(), preconditioner=self.sweep,
                              restart=opts.restart, rtol=opts.rtol,
                              maxiter=opts.maxiter, x0=x.ravel())
        ops.solver_log.append((f"mono/L1={cfg.L1:g}/L2={cfg.L2:g}", report))
        # a NaN solution, of a non-finite rhs, diverges as the LU path's does
        if not report.converged and np.all(np.isfinite(x_red)):
            raise LinearSolveError(
                f"preconditioned GMRES stopped at {report.status} with relative "
                f"residual {report.relres:.2e}")
        return x_red[:, None], self.divu_dual(x_red[:, None])


def stop_status(total, first_total, iterations, cfg: SchemeConfig):
    """The stop rule after `iterations` iterations whose last and first
    summed increments are `total` and `first_total`: 'diverged' (not
    finite, or above `DIVERGENCE_FACTOR` times the first), 'converged' (at
    most cfg.tol), 'maxiter' (cfg.max_iter reached), or None to go on;
    `_iterate` stops an `SchemeSolver.exact` solver as 'exact' in place of
    the last two."""
    if not np.isfinite(total):
        return "diverged"
    if total <= cfg.tol:
        return "converged"
    if total > DIVERGENCE_FACTOR * first_total:
        return "diverged"
    if iterations >= cfg.max_iter:
        return "maxiter"
    return None


def _iterate(solver: SchemeSolver, x, divu, ctx: StepContext, cfgs,
             archive=None):
    """Iterate `solver` from the (n, k) block x of its k cells (`cfgs`),
    whose divergences are divu, until `stop_status` stops every cell (an
    `SchemeSolver.exact` one after its first iteration), whose column then
    leaves the block.  Increments are measured in reduced
    coordinates (`SchemeSolver.increment_norms`), a cell's last column,
    unless it diverged, is range-checked (`check_admissible` of `ops.mat`)
    and `archive` records the states of a single cell.  Returns the last
    block, its divergences and each cell's trace.
    """
    traces = [IterationTrace() for _ in cfgs]
    live = list(range(len(cfgs)))   # the cell of each column
    nuq, areas = sum(solver.sizes[:2]), solver.ops.mesh.areas
    solves = 2 if solver.cfg.kind == "splitting" else 1   # flux, mechanics
    while live:
        new, divu = solver.step(x, divu, ctx, live)
        dp, dq, du = solver.increment_norms(new - x)
        if archive is not None:
            archive.append(solver.state(new, ctx.t_new))
        x, going = new, []
        for j, c in enumerate(live):
            tr = traces[c]
            tr.record(dp[j], dq[j], du[j])
            tr.n_linear_solves += solves
            tr.status = stop_status(tr.totals[-1], tr.totals[0],
                                    tr.iterations, cfgs[c])
            if solver.exact and tr.status in (None, "maxiter"):
                tr.status = "exact"   # solved, even where max_iter is 1
            if tr.status is None:
                going.append(j)
            elif tr.status != "diverged":
                tr.range_excursions = check_admissible(
                    solver.ops.mat, x[nuq:, j], divu[:, j] / areas,
                    context=f"t={ctx.t_new:g}: ")
        if going and len(going) < len(live):
            x, divu = x[:, going], divu[:, going]
        live = [live[j] for j in going]
    return x, divu, traces


def _divergence(trace: IterationTrace, prefix=""):
    """The `DivergenceError` of a diverged trace, its text after `prefix`."""
    total, first_total = trace.totals[-1], trace.totals[0]
    return DivergenceError(prefix + (
        f"increment {total:.3e} exceeds {DIVERGENCE_FACTOR:g} x first "
        f"increment {first_total:.3e}" if np.isfinite(total) else
        f"non-finite increment at iteration {trace.iterations}"))


def iterate_to_convergence(prev: BiotState, cfg: SchemeConfig,
                           ops: BiotOperators, mat: MaterialModel,
                           problem: ProblemDefinition, tau,
                           archive=None, ctx: StepContext = None):
    """Iterate one scheme until the summed increment norms fall below tol.

    The iterate starts at `SchemeSolver.coordinates` of the previous
    time-step solution, and the state is formed from the last one.  A
    combined increment that is not finite or above `DIVERGENCE_FACTOR`
    times the first one aborts with `DivergenceError`; exhausting max_iter
    returns with converged=False (`stop_status`), and an
    `SchemeSolver.exact` solver stops after its first iteration with the
    status 'exact' unless that one converged by the tolerance.  The
    problem iterated is `ops`'s: `mat` and `problem` must be `ops.mat` and
    `ops.problem` (`ValueError` otherwise).  `ctx` is the step context of
    `prev` and `tau`, built here when None.  A list `archive` receives a
    copy of `prev`, then each iterate's state.  Returns the final state
    and trace.
    """
    if mat is not ops.mat or problem is not ops.problem:
        raise ValueError("mat and problem must be those ops was built from")
    solver = SchemeSolver(ops, cfg, tau)
    if ctx is None:
        ctx = StepContext.build(ops, prev, tau)
    elif ctx.tau != tau or ctx.t_new != prev.time + tau:
        raise ValueError("step context was built for another step")
    if archive is not None:
        archive.append(prev.copy())
    x = solver.coordinates(prev)
    x, _, [trace] = _iterate(solver, x, solver.divu_dual(x), ctx, [cfg],
                             archive)
    if trace.status == "diverged":
        raise _divergence(trace)
    return solver.state(x, ctx.t_new), trace


def iterate_lockstep(ops: BiotOperators, prev: BiotState, cfgs,
                     ctx: StepContext, flows):
    """One splitting time step from `prev` for k cells of one L2, iterated
    in lock step: each cell's trace, in `cfgs` order.

    `ctx` is the step's context and `flows` maps L1 to the `FlowHalf`
    built for it and the step's tau; a half it lacks is built and added.
    The cells still running are the columns of one block of a
    `SchemeSolver` whose sweep holds their flow halves and the mechanics
    block of their L2, so a cell stops and is range-checked where
    `iterate_to_convergence` would, but a divergence is a status.
    """
    if any(c.kind != "splitting" or c.L2 != cfgs[0].L2 for c in cfgs):
        raise ValueError("lock-step cells are splitting cells of one L2")
    for c in cfgs:
        if c.L1 not in flows:
            flows[c.L1] = FlowHalf(ops, c.L1, ctx.tau)
    solver = SchemeSolver(ops, cfgs[0], ctx.tau, [flows[c.L1] for c in cfgs])
    x = np.repeat(solver.coordinates(prev), len(cfgs), axis=1)
    return _iterate(solver, x, solver.divu_dual(x), ctx, cfgs)[2]


def build_initial_state(problem: ProblemDefinition, ops: BiotOperators) -> BiotState:
    """Interpolate the problem's initial data onto the discrete spaces."""
    return BiotState(
        interpolate(ops.dofmap_u, problem.initial_u),
        interpolate(ops.dofmap_q, problem.initial_q),
        interpolate(ops.dofmap_p, problem.initial_p),
        0.0)


def march(ops: BiotOperators, cfg: SchemeConfig, tau, n_steps,
          initial: BiotState = None):
    """March n_steps implicit steps of `ops`'s problem from `initial` (its
    initial state when None); each seeds from the previous solution.

    A generator: it builds one `SchemeSolver` for the run, carries its
    iterate x and divergences from step to step, seeds each step's
    `mass_const` from them, and assembles the loads once when the body
    force and source are None.  It yields one (state, trace) pair per step,
    so a run's memory does not grow with n_steps unless its caller keeps
    the states.  Non-converged steps are yielded (flagged in the trace);
    divergence aborts with the step index attached.  A last time level
    that is not finite is a `ValueError`, as is a step size that is not
    finite and positive.
    """
    if (not isinstance(n_steps, numbers.Integral) or isinstance(n_steps, bool)
            or n_steps < 1):
        raise ValueError(f"n_steps must be an integer of at least 1, "
                         f"not {n_steps!r}")
    problem = ops.problem
    prev = initial if initial is not None else build_initial_state(problem, ops)
    _check_step_size(tau)
    if not np.isfinite(prev.time + n_steps * tau):
        raise ValueError(f"{n_steps} steps of {tau!r} from t={prev.time:g} "
                         f"end at a time that is not finite")
    solver = SchemeSolver(ops, cfg, tau)
    x, time, loads = solver.coordinates(prev), prev.time, None
    divu, nuq = solver.divu_dual(x), sum(solver.sizes[:2])
    for n in range(1, n_steps + 1):
        time += tau
        if loads is None or problem.body_force or problem.source:
            loads = StepContext.loads(ops, time, tau)
        ctx = loads.seeded(ops, time, x[nuq:, 0], divu[:, 0])
        x, divu, [trace] = _iterate(solver, x, divu, ctx, [cfg])
        if trace.status == "diverged":
            raise _divergence(trace, f"step {n} (t={time:g}): ")
        yield solver.state(x, time), trace


def time_march(ops: BiotOperators, cfg: SchemeConfig, tau, n_steps,
               initial: BiotState = None):
    """The list of `march`'s (state, trace) pairs, one per step.

    It keeps every step's state; a long run that reports only part of
    them iterates `march` instead.
    """
    return list(march(ops, cfg, tau, n_steps, initial))


def residual_norms(state: BiotState, prev: BiotState, ops: BiotOperators,
                   tau, ctx: StepContext = None):
    """Dual norms of the non-linear discrete residual at a state.

    Residuals of the mechanics, Darcy and mass rows are restricted to the
    constrained (reduced) spaces and measured in inverse-mass norms; the
    reduced mass matrices, symmetric positive definite like every
    factored matrix, are factored by `CachedLU` on every call.
    """
    ctx = ctx or StepContext.build(ops, prev, tau)
    u, q, p = state.u.coeffs, state.q.coeffs, state.p.coeffs
    alpha = ops.mat.alpha
    r_u = ops.a_e @ u + ops.hu_dual(u) - alpha * (ops.b_up @ p) - ctx.f_vec
    r_q = ops.m_q @ q - ops.b_qp.T @ p - ctx.g_vec
    r_p = (ops.bp_dual(p) + alpha * ops.divu_dual(u) + tau * (ops.b_qp @ q)
           - ctx.mass_const)

    def dual(name, r, mass):
        rr = getattr(ops.constraints, name).restrict(r)
        lu = CachedLU(ops._reduced_spd(mass, (name,)))
        return float(np.sqrt(max(rr @ lu.solve(rr), 0.0)))

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
