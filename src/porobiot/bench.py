"""Benchmark runners: error norms, tuning sweeps, sensitivity grids,
contraction verification and the consolidation time series.

All outputs are plain CSV with deterministic float formatting so repeated
runs are byte-identical.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .assembly import build_operators
from .fem import quadrature, quadrature_points, _rt0_values_at
from .mesh import Side, generate_rect_mesh
from .physics import (CENTIPOISE, DARCY, AdmissibleRangeWarning,
                      MandelConfig, mandel_material, mandel_problem,
                      manufactured_material, manufactured_problem)
from .schemes import (BiotState, DivergenceError, SchemeConfig, StepContext,
                      build_initial_state, iterate_lockstep,
                      iterate_to_convergence, march, suggested_tuning)


def _fmt(x):
    return f"{x:.17g}"


def worker_count():
    """Worker cap from POROBIOT_THREADS (serial when unset or not a number),
    at most the number of CPUs this process may run on."""
    raw = os.environ.get("POROBIOT_THREADS", "")
    try:
        wanted = max(1, int(raw))
    except ValueError:
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(wanted, cpus)


def manufactured_setup(case_id, nx, material=None, final_time=1.0,
                       solver=None):
    """Operators and initial state of the verification problem on the
    nx-by-nx unit square; `ops.mat` and `ops.problem` hold its material and
    problem.  `material` holds the `manufactured_material` keywords past the
    case id (its defaults when omitted), `solver` the `linalg.SolverOptions`
    of the monolithic solves (LU when None)."""
    mat = manufactured_material(case_id, **(material or {}))
    prob = manufactured_problem(mat, final_time=final_time)
    ops = build_operators(generate_rect_mesh((0, 0), (1, 1), nx, nx), mat,
                          prob, solver)
    return ops, build_initial_state(prob, ops)


# ---------------------------------------------------------------------------
# error norms and convergence orders
# ---------------------------------------------------------------------------

def error_norms(state: BiotState, exact):
    """L2 errors of (p, u, div u, q) against an analytic triple at state.time.

    Integrated cellwise with a degree-4 rule; the numeric fields are
    evaluated from their coefficient vectors (P0 constant, P1 affine, RT0
    linear).
    """
    t = state.time
    mesh = state.p.mesh
    rule = quadrature(4)
    x, y = quadrature_points(mesh, rule)
    w, areas = rule.weights, mesh.areas

    def cell_sq(diff_sq):
        return float(np.einsum("q,fq->", w, diff_sq * areas[:, None]))

    p_num = state.p.coeffs[:, None]
    err_p2 = cell_sq((p_num - exact.p(x, y, t)) ** 2)

    local_u = state.u.coeffs[state.u.dofmap.cell_to_dofs].reshape(-1, 3, 2)
    u_num = np.einsum("qv,fvc->fqc", rule.points, local_u)
    err_u2 = cell_sq(((u_num - exact.u(x, y, t)) ** 2).sum(axis=-1))

    divu_num = np.einsum("fvc,fvc->f", local_u, mesh.grads)
    err_divu2 = cell_sq((divu_num[:, None] - exact.div_u(x, y, t)) ** 2)

    vals = np.ascontiguousarray(_rt0_values_at(mesh, rule).transpose(3, 0, 2, 1))
    local_q = state.q.coeffs[state.q.dofmap.cell_to_dofs]
    q_num = np.einsum("fi,fqic->fqc", local_q, vals)
    err_q2 = cell_sq(((q_num - exact.q(x, y, t)) ** 2).sum(axis=-1))

    return {"p": np.sqrt(err_p2), "u": np.sqrt(err_u2),
            "div_u": np.sqrt(err_divu2), "q": np.sqrt(err_q2)}


@dataclass
class ErrorRow:
    h: float
    tau: float
    err_p: float
    err_u: float
    err_divu: float
    err_q: float
    order_p: float = float("nan")
    order_u: float = float("nan")


def estimate_orders(rows):
    """Fill the observed orders between consecutive refinements in place."""
    for prev, cur in zip(rows, rows[1:]):
        ratio = np.log(prev.h / cur.h)
        if ratio > 0:
            if prev.err_p > 0 and cur.err_p > 0:
                cur.order_p = float(np.log(prev.err_p / cur.err_p) / ratio)
            if prev.err_u > 0 and cur.err_u > 0:
                cur.order_u = float(np.log(prev.err_u / cur.err_u) / ratio)
    return rows


def manufactured_convergence(case_id, scheme_kind, L1, L2, levels=3,
                             nx0=8, tau0=0.25, tol=1e-8, max_iter=500,
                             final_time=1.0, material=None, solver=None,
                             solver_rows=None):
    """March the verification problem over a refinement ladder.

    Returns ErrorRows at the final time with observed orders; the time step
    halves with the mesh (the linear exact solution makes the implicit
    stepping exact in time, so the orders isolate space).  `tau0` must
    divide `final_time` into a whole number of steps (up to round-off), so
    that every level ends at `final_time`; otherwise ValueError.  Each
    level keeps only its final state; a step that stops at `max_iter`
    raises DivergenceError.  `material` and `solver` are as in
    `manufactured_setup`; `solver_rows` collects every level's
    linear-solve reports.  `final_time` must be finite and positive.
    """
    if not 0 < final_time < np.inf:
        raise ValueError(f"final_time must be finite and positive, "
                         f"not {final_time!r}")
    n_steps = int(round(final_time / tau0)) if tau0 > 0 else 0
    if n_steps < 1 or abs(n_steps * tau0 - final_time) > 1e-12 * final_time:
        raise ValueError(f"tau0={tau0:g} does not divide final_time="
                         f"{final_time:g} into whole steps")
    cfg = SchemeConfig(scheme_kind, L1=L1, L2=L2, tol=tol, max_iter=max_iter)
    rows = []
    for lev in range(levels):
        tau = tau0 * (0.5 ** lev)
        ops, initial = manufactured_setup(case_id, nx0 * (2 ** lev), material,
                                          final_time, solver)
        for state, trace in march(ops, cfg, tau, n_steps * 2 ** lev, initial):
            if not trace.converged:
                raise DivergenceError(f"level {lev}: the step to t="
                                      f"{state.time:g} stopped at max_iter")
        if solver_rows is not None:
            solver_rows.extend(ops.solver_log)
        errs = error_norms(state, ops.problem.exact)
        rows.append(ErrorRow(ops.mesh.h, tau, errs["p"], errs["u"],
                             errs["div_u"], errs["q"]))
    return estimate_orders(rows)


def write_errors_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("h,tau,err_p,err_u,err_divu,err_q,order_p,order_u\n")
        for r in rows:
            op = _fmt(r.order_p) if np.isfinite(r.order_p) else ""
            ou = _fmt(r.order_u) if np.isfinite(r.order_u) else ""
            fh.write(f"{_fmt(r.h)},{_fmt(r.tau)},{_fmt(r.err_p)},{_fmt(r.err_u)},"
                     f"{_fmt(r.err_divu)},{_fmt(r.err_q)},{op},{ou}\n")


# ---------------------------------------------------------------------------
# single-step runs, sweeps and sensitivity grids
# ---------------------------------------------------------------------------

def cells_per_side(h):
    """The nx of an nx-by-nx unit square of mesh size h: `ValueError`
    unless 1/h is a whole number of at least 1 (up to round-off)."""
    nx = int(round(1.0 / h)) if h > 0 else 0
    if nx < 1 or abs(nx * h - 1.0) > 1e-12:
        raise ValueError(f"1/h is not a whole number: h={h:g}")
    return nx


def _single_step(ops, prev, cfg: SchemeConfig, tau, ctx=None):
    """The (iterations, status, range excursions) of one time step from
    `prev`, whose step context `ctx` may be given; a diverged step reports
    max_iter and, as its iterate is not range-checked, no excursion."""
    try:
        with warnings.catch_warnings():
            # counted in trace.range_excursions
            warnings.simplefilter("ignore", AdmissibleRangeWarning)
            _, trace = iterate_to_convergence(prev, cfg, ops, ops.mat,
                                              ops.problem, tau, ctx=ctx)
    except DivergenceError:
        return cfg.max_iter, "diverged", 0
    return trace.iterations, trace.status, trace.range_excursions


def _sweep_groups(args):
    """Each cell's (iterations, status, range excursions), group by group,
    from one set-up and one step context.  A group of several cells is one
    L2 column of a splitting grid, and the cells of every column go
    through one lock-step block (`iterate_lockstep`) as wide as the cells
    have distinct L1 values, which takes in the next cell, column by
    column, as soon as one stops; its solver, with its factors, couplings
    and masses, serves every column.  A group of one cell is stepped by
    `_single_step` with its own solver.  A diverged cell reports max_iter."""
    case_id, nx, material, groups, tau = args
    ops, prev = manufactured_setup(case_id, nx, material)
    ctx = StepContext.build(ops, prev, tau)
    if max(map(len, groups)) == 1:
        return [_single_step(ops, prev, cfg, tau, ctx) for [cfg] in groups]
    cfgs = list(chain.from_iterable(groups))
    with warnings.catch_warnings():
        # counted in each trace's range_excursions
        warnings.simplefilter("ignore", AdmissibleRangeWarning)
        traces = iterate_lockstep(ops, prev, cfgs, ctx)
    return [(c.max_iter, "diverged", 0) if t.status == "diverged"
            else (t.iterations, t.status, t.range_excursions)
            for c, t in zip(cfgs, traces)]


@dataclass
class SweepGrid:
    L1_values: np.ndarray
    L2_values: np.ndarray
    iterations: np.ndarray     # (len(L1), len(L2)) int
    status: list               # nested list of status strings
    range_excursions: np.ndarray   # (len(L1), len(L2)) int: certified law
                                   # ranges each cell's last iterate left

    def argmin(self):
        """(L1, L2) of the fastest converged (or exact) cell."""
        it = np.where(np.isin(self.status, ("converged", "exact")),
                      self.iterations, np.inf)
        if not np.isfinite(it).any():
            raise RuntimeError("no cell of the sweep converged")
        i, j = np.unravel_index(np.argmin(it), it.shape)
        return float(self.L1_values[i]), float(self.L2_values[j])


def sweep_L(case_id, scheme_kind, L1_values, L2_values, nx=16, tau=0.25,
            tol=1e-8, max_iter=200, n_workers=None, material=None):
    """Iteration counts of one time step over an (L1, L2) grid.

    Failures (cap or divergence) are recorded as markers and the sweep
    continues.  `material` is as in `manufactured_setup`.

    The cells are split into groups, run by `_sweep_groups`.  On a
    splitting grid a group is one L2 column.  With at least 2 L1 values a
    runner iterates the cells of all its columns in lock step, their
    iterates the columns of one block as wide as the number of distinct
    L1 values, which takes in the next cell, column by column, as soon as
    one stops; the mechanics steps of the cells of one L2 are one
    multi-column solve, and the runner's solver factors each distinct L1
    and L2 once.  A column of one cell runs on its own.  On a monolithic
    grid a group is one cell with its own solver.
    Each cell keeps the count, status and range excursions it has on its
    own.  With POROBIOT_THREADS or n_workers = n > 1, worker w of a process
    pool runs the groups w, w + n, ..., from its own set-up and step
    context; otherwise one runner takes every group in-process.  The
    results keep the L1-major order.
    """
    L1_values = np.asarray(list(L1_values), dtype=float)
    L2_values = np.asarray(list(L2_values), dtype=float)
    if L1_values.size == 0 or L2_values.size == 0:
        raise ValueError("parameter grids must be non-empty")
    n_workers = worker_count() if n_workers is None else max(1, n_workers)
    cfgs = [SchemeConfig(scheme_kind, L1=l1, L2=l2, tol=tol, max_iter=max_iter)
            for l1 in L1_values for l2 in L2_values]
    n1, n2 = L1_values.size, L2_values.size
    if scheme_kind == "splitting":
        groups = [list(range(j, n1 * n2, n2)) for j in range(n2)]
    else:
        groups = [[k] for k in range(n1 * n2)]
    n = min(n_workers, len(groups))
    args = [(case_id, nx, material, [[cfgs[k] for k in g]
                                     for g in groups[w::n]], tau)
            for w in range(n)]
    if n > 1:
        with ProcessPoolExecutor(max_workers=n) as pool:
            parts = list(pool.map(_sweep_groups, args))
    else:
        parts = list(map(_sweep_groups, args))
    order = [k for w in range(n) for g in groups[w::n] for k in g]
    results = dict(zip(order, chain.from_iterable(parts)))
    iterations, status, excursions = zip(*(results[k]
                                           for k in range(n1 * n2)))
    return SweepGrid(L1_values, L2_values,
                     np.array(iterations).reshape(n1, n2),
                     [list(status[k:k + n2]) for k in range(0, n1 * n2, n2)],
                     np.array(excursions).reshape(n1, n2))


def write_sweep_csv(grid: SweepGrid, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("L1,L2,iters,status\n")
        for i, l1 in enumerate(grid.L1_values):
            for j, l2 in enumerate(grid.L2_values):
                fh.write(f"{_fmt(l1)},{_fmt(l2)},{grid.iterations[i, j]},"
                         f"{grid.status[i][j]}\n")


def sensitivity_grid(case_id, scheme_kind, axis, values, L1, L2, nx=16,
                     tau=0.25, tol=1e-8, max_iter=500, material=None):
    """Iteration counts of one time step along one parameter axis.

    axis is one of 'h' (values are mesh sizes of the unit square, each
    checked by `cells_per_side` before the first run), 'tau', 'K' or
    'alpha'; the manufactured data are rebuilt per value so the
    problem stays consistent.  `material` is as in
    `manufactured_setup`; the axis overrides only its own key.
    """
    if axis not in ("h", "tau", "K", "alpha"):
        raise ValueError(f"unknown sensitivity axis {axis!r}")
    cfg = SchemeConfig(scheme_kind, L1=L1, L2=L2, tol=tol, max_iter=max_iter)
    runs = []
    for v in values:
        nx_v, tau_v, material_v = nx, tau, dict(material or {})
        if axis == "h":
            nx_v = cells_per_side(float(v))
        elif axis == "tau":
            tau_v = float(v)
        elif axis == "K":
            material_v["permeability"] = float(v)
        else:
            material_v["alpha"] = float(v)
        runs.append((float(v), nx_v, material_v, tau_v))
    return [(axis, v, *_single_step(*manufactured_setup(case_id, n, m), cfg,
                                    t)[:2])
            for v, n, m, t in runs]


def write_sensitivity_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("axis,value,iters,status\n")
        for axis, value, iters, status in rows:
            fh.write(f"{axis},{_fmt(value)},{iters},{status}\n")


# ---------------------------------------------------------------------------
# contraction-inequality verification
# ---------------------------------------------------------------------------

@dataclass
class ContractionReport:
    kind: str
    values: np.ndarray
    monotone: bool
    strictly_decreasing: bool


def _div_norm_sq(ops, u_coeffs):
    s = ops.div_u_cells(u_coeffs)
    return float(np.sum(ops.mesh.areas * s * s))


def _p_norm_sq(ops, p_coeffs):
    return float(np.sum(ops.mesh.areas * p_coeffs * p_coeffs))


def verify_contraction(archive, reference: BiotState, cfg: SchemeConfig, ops):
    """Weighted error functionals along an archived iterate sequence.

    For the splitting scheme the errors are taken against the converged
    reference and weighted by (L1 - b_m, L2 - h_m), constants of `ops.mat`;
    for the monolithic scheme consecutive-iterate differences are weighted
    by (L1, L2 - h_m).  Monotone decrease is asserted above a floor of
    (L1 + L2) (10 tol)^2, up to a relative slack of 1e-9.
    """
    L1, L2, mat = cfg.L1, cfg.L2, ops.mat
    if cfg.kind == "splitting":
        wp, wd = L1 - mat.b_m, L2 - mat.h_m
        seq = [(st.p.coeffs - reference.p.coeffs,
                st.u.coeffs - reference.u.coeffs) for st in archive]
    else:
        wp, wd = L1, L2 - mat.h_m
        seq = [(b.p.coeffs - a.p.coeffs, b.u.coeffs - a.u.coeffs)
               for a, b in zip(archive, archive[1:])]
    values = np.array([wp * _p_norm_sq(ops, ep) + wd * _div_norm_sq(ops, eu)
                       for ep, eu in seq])
    floor = (L1 + L2) * (10.0 * cfg.tol) ** 2
    monotone = True
    strict = True
    for a, b in zip(values, values[1:]):
        if a <= floor and b <= floor:
            continue
        if b > a * (1.0 + 1e-9):
            monotone = False
            strict = False
            break
        if b >= a:
            strict = False
    return ContractionReport(cfg.kind, values, monotone, strict)


def write_contraction_csv(report: ContractionReport, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iter,functional\n")
        for i, v in enumerate(report.values):
            fh.write(f"{i},{_fmt(v)}\n")


# ---------------------------------------------------------------------------
# consolidation benchmark time series
# ---------------------------------------------------------------------------

@dataclass
class MandelSeries:
    times: np.ndarray
    p_probe: np.ndarray
    uy_top: np.ndarray
    probe: tuple
    initial_pressure: float


def mandel_report(initial: BiotState, results, probe=None,
                  initial_pressure=float("nan")):
    """Probe-pressure and plate-displacement series over a consolidation run.

    `results` is any iterable of (state, trace) pairs, one per step, such
    as `march`: it is read once, in order, and no state is kept, so a run
    reported from the generator holds one step's state at a time.  The
    default probe sits at (a/4, b/2) of the mesh of `initial`.  The top
    displacement is read from any tied top vertex.
    """
    mesh = initial.p.mesh
    if probe is None:
        (x0, y0), (ex, ey) = ((mesh.vertices[:, 0].min(), mesh.vertices[:, 1].min()),
                              (np.ptp(mesh.vertices[:, 0]), np.ptp(mesh.vertices[:, 1])))
        probe = (x0 + ex / 4.0, y0 + ey / 2.0)
    cell = mesh.locate_cell(probe)
    top_vertex = int(mesh.edges[mesh.boundary_edges(Side.TOP)[0], 0])
    states = chain([initial], (st for st, _ in results))
    times, p_probe, uy_top = np.array(
        [(st.time, st.p.coeffs[cell], st.u.coeffs[2 * top_vertex + 1])
         for st in states]).T
    return MandelSeries(times, p_probe, uy_top, tuple(probe), initial_pressure)


def write_mandel_csv(series: MandelSeries, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,p_probe,uy_top\n")
        for t, p, uy in zip(series.times, series.p_probe, series.uy_top):
            fh.write(f"{_fmt(t)},{_fmt(p)},{_fmt(uy)}\n")


def run_mandel(case_id="linear", cfg: MandelConfig = None, scheme_kind="monolithic",
               L1=None, L2=None, dt=1.0, n_steps=500, nx=40, ny=40,
               probe=None, tol=1e-8, max_iter=500, permeability=100.0 * DARCY,
               viscosity=10.0 * CENTIPOISE, p_range=None, s_range=None,
               solver=None):
    """Convenience driver: construct, march and report the slab benchmark.

    Stabilization defaults to the estimated law constants; for the linear
    law the monolithic scheme then runs the exact preset L1 = 1/M,
    L2 = lambda and the splitting scheme the undrained preset L2 = lambda +
    M alpha^2.  With LU the exact preset's stabilized system is the
    backward Euler system, so each step stops after its one direct solve
    with the status 'exact' (`SchemeSolver.exact`); by GMRES it takes two
    iterations per step, the second confirming the first.

    Returns (series, results, (ops, scheme)).  `results` holds one (state,
    trace) pair per step, but only the last pair holds its state; the
    earlier ones hold None, because the run streams `march` into
    `mandel_report` and keeps only what it reports; `ops.solver_log` holds
    the linear-solve reports.  Excursions out of the certified law
    ranges are not warned about; each trace counts its own in
    `range_excursions`.
    """
    cfg = cfg or MandelConfig()
    mat = mandel_material(case_id, cfg, permeability, viscosity, p_range,
                          s_range)
    prob = mandel_problem(mat, cfg, final_time=dt * n_steps)
    mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), nx, ny)
    if L1 is None or L2 is None:
        s1, s2 = suggested_tuning(mat, scheme_kind)
        L1 = s1 if L1 is None else L1
        L2 = s2 if L2 is None else L2
    scheme = SchemeConfig(scheme_kind, L1=L1, L2=L2, tol=tol, max_iter=max_iter)
    ops = build_operators(mesh, mat, prob, solver)
    initial = build_initial_state(prob, ops)
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdmissibleRangeWarning)
        series = mandel_report(
            initial, _keep_last_state(march(ops, scheme, dt, n_steps, initial),
                                      results),
            probe=probe, initial_pressure=cfg.initial_pressure)
    return series, results, (ops, scheme)


def _keep_last_state(pairs, kept):
    """Pass (state, trace) pairs through, appending (None, trace) for each
    to `kept`; the last one keeps its state."""
    for state, trace in pairs:
        kept.append((None, trace))
        yield state, trace
    kept[-1] = (state, trace)
