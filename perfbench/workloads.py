"""The three workloads, driven only through porobiot's public API.

Every call into porobiot goes through a module attribute
(`bench.run_mandel`, `schemes.iterate_to_convergence`, ...) so that the
traced run sees it.  Each workload has:

* `warmup()`: a short untimed run at the round's mesh size;
* `setup_parts()`: (name, callable) pairs; each callable is one set-up of
  (part of) the round's inputs (material with its law constants, problem,
  mesh, tuning, operators, initial state), timed on its own for `setup_s`.
  For `mandel` and `lsweep` it repeats the public calls that `run_mandel`
  and `sweep_L` make before their first non-linear iteration; for `scale`
  it is the code the round itself runs at each mesh size;
* `run()`: one timed round, set-up included, returning an `Outcome`;
* `check(payload)`: failures against `references`, computed apart from
  porobiot; an empty list means the round's outputs are correct;
* `calibration_solves`: how many large triangular solves the host-speed
  kernel adds to its compute part (`hostspeed.Calibration`).

The seed only reorders or relocates what a round reads, never how much
work it does, so every seed attempts the same operations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from porobiot import assembly, bench, linalg, mesh, physics, schemes

import references as refs


@dataclass
class Outcome:
    iterations: int       # non-linear (L-scheme) iterations of the round
    failed: int           # operations of the round that failed
    payload: object       # what check() inspects
    # set-up part -> (start, end) perf_counter intervals timed in the round
    setups: dict = field(default_factory=dict)


def _manufactured_setup(case, nx):
    """The set-up `sweep_L` makes before its first cell, on the unit square."""
    mat = physics.manufactured_material(case)
    prob = physics.manufactured_problem(mat)
    grid = mesh.generate_rect_mesh((0.0, 0.0), (1.0, 1.0), nx, nx)
    ops = assembly.build_operators(grid, mat, prob)
    prev = schemes.build_initial_state(prob, ops)
    return mat, prob, grid, ops, prev


def _mandel_config():
    m = refs.MANDEL
    return physics.MandelConfig(a=m["a"], b=m["b"], force=m["force"],
                                lam=m["lam"], biot_modulus=m["biot_modulus"],
                                mu=m["mu"], alpha=m["alpha"])


class Mandel:
    """Consolidation run: linear law, monolithic exact preset, 40x40, 500 steps.

    One operation is one time step.  The seed places the probe anywhere in
    0.1 a <= x <= 0.3 a, 0.2 b <= y <= 0.8 b, where the pressure rises above
    p0 before it drains.
    """

    NX = 40
    DT = 1.0
    STEPS = 500
    ops_per_round = STEPS
    # SuperLU triangular solves with a factor larger than the caches take
    # about 70% of a round, so the host-speed kernel times such solves too
    calibration_solves = 2

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        a, b = refs.MANDEL["a"], refs.MANDEL["b"]
        self.probe = (a * rng.uniform(0.1, 0.3), b * rng.uniform(0.2, 0.8))
        self.ref = refs.mandel_reference()

    def _run_mandel(self, n_steps, nx):
        return bench.run_mandel(
            case_id="linear", cfg=_mandel_config(), scheme_kind="monolithic",
            dt=self.DT, n_steps=n_steps, nx=nx, ny=nx, probe=self.probe,
            permeability=refs.MANDEL["permeability"],
            viscosity=refs.MANDEL["viscosity"])

    def warmup(self):
        self._run_mandel(20, self.NX)

    def _setup(self):
        # the calls run_mandel makes before time_march, in its order
        cfg = _mandel_config()
        mat = physics.mandel_material(
            "linear", cfg, permeability=refs.MANDEL["permeability"],
            viscosity=refs.MANDEL["viscosity"])
        prob = physics.mandel_problem(mat, cfg, final_time=self.DT * self.STEPS)
        grid = mesh.generate_rect_mesh((0.0, 0.0), (cfg.a, cfg.b),
                                       self.NX, self.NX)
        L1, L2 = schemes.suggested_tuning(mat, "monolithic")
        schemes.SchemeConfig("monolithic", L1=L1, L2=L2)
        ops = assembly.build_operators(grid, mat, prob)
        schemes.build_initial_state(prob, ops)

    def setup_parts(self):
        return [("mandel", self._setup)]

    def run(self):
        series, results, _ = self._run_mandel(self.STEPS, self.NX)
        converged = np.array([tr.converged for _, tr in results])
        return Outcome(sum(tr.iterations for _, tr in results),
                       int(np.sum(~converged)),
                       (series.times.copy(), series.p_probe.copy(), converged))

    def check(self, payload):
        times, p_probe, converged = payload
        return refs.check_mandel(times, p_probe, converged, self.probe[0],
                                 self.NX, self.ref)


class LSweep:
    """Splitting sweep of t1c1 over logspace(-2, 2, 9)^2 at nx=16, one step.

    One operation is one (L1, L2) cell.  The seed permutes the order in
    which both axes are visited; cells that reach max_iter are outcomes of
    the method, not failures, and a cell that diverges counts as failed.
    """

    CASE = "t1c1"
    NX = 16
    TAU = 0.25
    MAX_ITER = 200
    GRID = np.logspace(-2.0, 2.0, 9)
    ops_per_round = GRID.size ** 2
    calibration_solves = 0

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.perm1 = rng.permutation(self.GRID.size)
        self.perm2 = rng.permutation(self.GRID.size)

    def warmup(self):
        bench.sweep_L(self.CASE, "splitting", self.GRID[3:6], self.GRID[3:6],
                      nx=self.NX, tau=self.TAU, max_iter=self.MAX_ITER,
                      n_workers=1)

    def setup_parts(self):
        return [("lsweep", lambda: _manufactured_setup(self.CASE, self.NX))]

    def run(self):
        res = bench.sweep_L(self.CASE, "splitting", self.GRID[self.perm1],
                            self.GRID[self.perm2], nx=self.NX, tau=self.TAU,
                            max_iter=self.MAX_ITER, n_workers=1)
        n = self.GRID.size
        iters = np.empty((n, n), dtype=int)
        iters[np.ix_(self.perm1, self.perm2)] = res.iterations
        status = [[""] * n for _ in range(n)]
        for a, i in enumerate(self.perm1):
            for b, j in enumerate(self.perm2):
                status[i][j] = res.status[a][b]
        failed = sum(s == "diverged" for row in status for s in row)
        return Outcome(int(iters.sum()), failed, (iters, status))

    def check(self, payload):
        iters, status = payload
        conv = np.array([[s == "converged" for s in row] for row in status])
        if not conv.any():
            return ["no cell converged"]
        masked = np.where(conv, iters, np.iinfo(int).max)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        mat, prob, grid, ops, prev = _manufactured_setup(self.CASE, self.NX)
        cfg = schemes.SchemeConfig("splitting", L1=float(self.GRID[i]),
                                   L2=float(self.GRID[j]),
                                   max_iter=self.MAX_ITER)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", physics.AdmissibleRangeWarning)
            state, _ = schemes.iterate_to_convergence(prev, cfg, ops, mat,
                                                      prob, self.TAU)
        err = refs.p0_error(grid.vertices, grid.cells, state.p.coeffs, self.TAU)
        return refs.check_sweep(self.GRID, self.GRID, iters, status, self.TAU,
                                err)


class Scale:
    """One t1c1 monolithic step at nx = 32, 64, 128, by cached LU and by GMRES.

    One operation is one (nx, solver) step, each on its own freshly built
    operators so that no factorization is shared.  The seed permutes the
    order of the six operations.
    """

    CASE = "t1c1"
    NXS = (32, 64, 128)
    TAU = 0.25
    SOLVERS = ("lu", "gmres")
    ops_per_round = len(NXS) * len(SOLVERS)
    calibration_solves = 0

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        pairs = [(nx, s) for nx in self.NXS for s in self.SOLVERS]
        self.order = [pairs[k] for k in rng.permutation(len(pairs))]

    def _setup_one(self, nx, solver):
        """Everything the step does before its first non-linear iteration."""
        mat, prob, grid, ops, prev = _manufactured_setup(self.CASE, nx)
        ops.solver = linalg.SolverOptions(method=solver)
        L1, L2 = schemes.suggested_tuning(mat, "monolithic")
        cfg = schemes.SchemeConfig("monolithic", L1=L1, L2=L2)
        return mat, prob, grid, ops, prev, cfg

    def _step(self, nx, solver):
        t0 = perf_counter()
        mat, prob, grid, ops, prev, cfg = self._setup_one(nx, solver)
        setup = (t0, perf_counter())
        try:
            state, trace = schemes.iterate_to_convergence(prev, cfg, ops, mat,
                                                          prob, self.TAU)
        except (linalg.LinearSolveError, linalg.FactorizationError,
                schemes.DivergenceError):
            return 0, setup, {"converged": False, "state": None}
        return trace.iterations, setup, {
            "converged": trace.converged,
            "state": np.concatenate([state.u.coeffs, state.q.coeffs,
                                     state.p.coeffs]),
            "p": state.p.coeffs.copy(),
            "vertices": grid.vertices, "cells": grid.cells,
            "inner_iters": [rep.iterations for _, rep in ops.solver_log]}

    def warmup(self):
        for solver in self.SOLVERS:
            self._step(self.NXS[0], solver)

    def setup_parts(self):
        return [(f"nx{nx}", lambda nx=nx: self._setup_one(nx, "lu"))
                for nx in self.NXS]

    def run(self):
        levels = {nx: {} for nx in self.NXS}
        setups = {f"nx{nx}": [] for nx in self.NXS}
        iterations = failed = 0
        for nx, solver in self.order:
            its, setup, result = self._step(nx, solver)
            iterations += its
            failed += not result["converged"]
            levels[nx][solver] = result
            setups[f"nx{nx}"].append(setup)
        return Outcome(iterations, failed, levels, setups)

    def check(self, levels):
        if any(run["state"] is None for lv in levels.values() for run in lv.values()):
            return ["a step raised instead of returning a state"]
        for lv in levels.values():
            lu = lv["lu"]
            lu["p_error"] = refs.p0_error(lu["vertices"], lu["cells"], lu["p"],
                                          self.TAU)
        return refs.check_scale(levels)


WORKLOADS = {"mandel": Mandel, "lsweep": LSweep, "scale": Scale}
