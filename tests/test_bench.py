import os
import warnings
import weakref

import numpy as np
import pytest

from porobiot import schemes
from porobiot.assembly import build_operators
from porobiot.bench import (ContractionReport, _single_step, error_norms,
                            manufactured_convergence, manufactured_setup,
                            mandel_report, run_mandel, sensitivity_grid,
                            sweep_L, verify_contraction, write_errors_csv,
                            write_mandel_csv, write_sensitivity_csv,
                            write_sweep_csv)
from porobiot.fem import interpolate
from porobiot.mesh import generate_rect_mesh
from porobiot.physics import AdmissibleRangeWarning, MandelConfig, \
    manufactured_material, manufactured_problem
from porobiot.schemes import (SchemeConfig, build_initial_state,
                              iterate_to_convergence)


def fresh_trace(ops, prev, cfg, tau):
    """The trace of one step of one cell on a solver of its own, by
    `iterate_to_convergence`, or by the loop itself when the cell diverges,
    which that call raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AdmissibleRangeWarning)
            return iterate_to_convergence(prev, cfg, ops, ops.mat,
                                          ops.problem, tau)[1]
    except schemes.DivergenceError:
        solver = schemes.SchemeSolver(ops, cfg, tau)
        x = solver.coordinates(prev)
        ctx = schemes.StepContext.build(ops, prev, tau)
        return schemes._iterate(solver, x, solver.divu_dual(x), ctx,
                                [cfg])[2][0]


def linear_setup(nx=8):
    mat = manufactured_material("linear")
    prob = manufactured_problem(mat)
    mesh = generate_rect_mesh((0, 0), (1, 1), nx, nx)
    ops = build_operators(mesh, mat, prob)
    prev = build_initial_state(prob, ops)
    return mat, prob, mesh, ops, prev


class TestErrorNorms:
    def test_zero_state_measures_exact_norm(self):
        # against the zero state the p-error is ||p(., 1)|| = 1/30
        mat, prob, mesh, ops, prev = linear_setup(16)
        prev.time = 1.0
        errs = error_norms(prev, prob.exact)
        assert errs["p"] == pytest.approx(1.0 / 30.0, rel=1e-10)

    def test_interpolated_exact_fields_have_small_errors(self):
        mat, prob, mesh, ops, prev = linear_setup(16)
        t = 1.0
        from porobiot.schemes import BiotState
        state = BiotState(
            interpolate(ops.dofmap_u, lambda x, y: prob.exact.u(
                np.asarray(x), np.asarray(y), t)),
            interpolate(ops.dofmap_q, lambda x, y: prob.exact.q(
                np.asarray(x), np.asarray(y), t)),
            interpolate(ops.dofmap_p, lambda x, y: prob.exact.p(
                np.asarray(x), np.asarray(y), t)),
            t)
        errs = error_norms(state, prob.exact)
        # interpolation errors only, far below the solution scale 1/30
        assert errs["p"] < 0.1 * (1.0 / 30.0)
        assert errs["u"] < 0.02 * (1.0 / 30.0)
        assert errs["q"] < 0.3 * (1.0 / 6.0)

    def test_refinement_ratio_first_order_pressure(self):
        rows = manufactured_convergence("linear", "monolithic", 1.0, 1.0,
                                        levels=2, nx0=8, tau0=0.25)
        ratio = rows[0].err_p / rows[1].err_p
        assert 1.7 <= ratio <= 2.6
        assert rows[1].order_p == pytest.approx(np.log2(ratio), rel=1e-12)

    @pytest.mark.parametrize("tau0,final_time", [(0.3, 1.0), (2.0, 1.0),
                                                 (0.25, 1.1), (-0.25, 1.0),
                                                 (0.0, 1.0)])
    def test_step_that_does_not_divide_the_final_time_rejected(
            self, tau0, final_time):
        # every level must end at final_time: 0.3 would end them at 0.9,
        # 1.05 and 0.975
        with pytest.raises(ValueError, match="whole steps"):
            manufactured_convergence("linear", "monolithic", 1.0, 1.0,
                                     levels=3, nx0=4, tau0=tau0,
                                     final_time=final_time)

    @pytest.mark.parametrize("final_time", [float("inf"), float("nan"), 0.0,
                                            -1.0])
    def test_final_time_must_be_finite_and_positive(self, final_time):
        with pytest.raises(ValueError, match="final_time must be finite"):
            manufactured_convergence("linear", "monolithic", 1.0, 1.0,
                                     levels=1, nx0=4, final_time=final_time)

    @pytest.mark.parametrize("tau0,final_time", [(0.1, 1.0), (0.5, 1.5)])
    def test_every_level_ends_at_the_final_time(self, monkeypatch, tau0,
                                                final_time):
        from porobiot import bench
        ends, original = [], bench.error_norms

        def recording(state, exact):
            ends.append(state.time)
            return original(state, exact)

        monkeypatch.setattr(bench, "error_norms", recording)
        rows = manufactured_convergence("linear", "monolithic", 1.0, 1.0,
                                        levels=2, nx0=4, tau0=tau0,
                                        final_time=final_time)
        assert [r.tau for r in rows] == [tau0, tau0 / 2]
        assert ends == pytest.approx([final_time] * 2, rel=1e-12)

    def test_errors_csv_schema(self, tmp_path):
        rows = manufactured_convergence("linear", "monolithic", 1.0, 1.0,
                                        levels=2, nx0=4, tau0=0.25)
        path = tmp_path / "errors.csv"
        write_errors_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "h,tau,err_p,err_u,err_divu,err_q,order_p,order_u"
        assert len(lines) == 3
        assert lines[1].endswith(",,")  # first row has no orders


class TestSweep:
    def test_theorem_safe_corner_converges_and_csv(self, tmp_path):
        grid = sweep_L("linear", "splitting", [1.0], [2.0], nx=8)
        assert grid.status[0][0] == "converged"
        assert grid.iterations[0, 0] > 0
        path = tmp_path / "sweep.csv"
        write_sweep_csv(grid, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "L1,L2,iters,status"
        assert len(lines) == 2

    def test_failures_recorded_sweep_continues(self):
        # L1 ~ 0 (the splitting needs L1 > 0) and L2 = 0 on a strongly
        # non-linear case may hit the cap or diverge; the sweep must record
        # a marker and keep going
        grid = sweep_L("t1c4", "splitting", [1e-6, 3.0], [0.0, 1.05],
                       nx=8, max_iter=40)
        assert grid.status[1][1] == "converged"
        flat = [s for row in grid.status for s in row]
        assert all(s in ("converged", "maxiter", "diverged") for s in flat)

    @pytest.mark.parametrize("kind,factors", [("splitting", 6),
                                              ("monolithic", 9)])
    def test_splitting_sweep_factors_each_half_once(self, monkeypatch, kind,
                                                    factors):
        # one flow factorization per L1 and one mechanics factorization
        # per L2; a monolithic cell's system couples L1 and L2
        from porobiot import linalg
        built = []
        original = linalg.CachedLU.__init__

        def counting_init(lu, matrix, *args, **kwargs):
            built.append(matrix.shape)
            original(lu, matrix, *args, **kwargs)

        monkeypatch.setattr(linalg.CachedLU, "__init__", counting_init)
        grid = sweep_L("t1c1", kind, [0.3, 1.0, 3.0], [0.1, 1.0, 10.0], nx=8)
        assert len(built) == factors
        assert all(s == "converged" for row in grid.status for s in row)

    def test_shared_halves_match_fresh_cells(self):
        # converged, max_iter and diverged cells alike: a cell whose sweep
        # shares its halves with earlier cells iterates as a fresh one
        L1s, L2s, material = [0.3, 3.0, 10.0], [0.0, 3.0, 10.0], {"alpha": 6.0}
        grid = sweep_L("t1c4", "splitting", L1s, L2s, nx=8, max_iter=40,
                       material=material)
        ops, prev = manufactured_setup("t1c4", 8, material)
        fresh = [[_single_step(ops, prev, SchemeConfig(
            "splitting", L1=l1, L2=l2, max_iter=40), 0.25) for l2 in L2s]
            for l1 in L1s]
        assert grid.iterations.tolist() == [[n for n, _ in row]
                                            for row in fresh]
        assert grid.status == [[s for _, s in row] for row in fresh]
        assert {s for row in grid.status for s in row} == {
            "converged", "maxiter", "diverged"}

    def test_lockstep_columns_shrink_and_match_fresh_cells(self,
                                                          monkeypatch):
        # t1c1 at nx=8: the cells of each L2 column stop at different
        # iterations, so the lock-step block shrinks mid-column; every
        # increment of every cell has the bits of a fresh per-cell run
        L1s, L2s = [0.3, 1.0, 3.0, 10.0], [0.3, 1.0, 3.0]
        seen, rule = {}, schemes.stop_status

        def recording(total, first, iterations, cfg):
            seen[side][cfg.L1, cfg.L2, iterations] = float(total).hex()
            return rule(total, first, iterations, cfg)

        monkeypatch.setattr(schemes, "stop_status", recording)
        side = "grid"
        seen[side] = {}
        grid = sweep_L("t1c1", "splitting", L1s, L2s, nx=8, max_iter=25)
        side = "fresh"
        seen[side] = {}
        ops, prev = manufactured_setup("t1c1", 8)
        fresh = [[_single_step(ops, prev, SchemeConfig(
            "splitting", L1=l1, L2=l2, max_iter=25), 0.25) for l2 in L2s]
            for l1 in L1s]
        assert grid.iterations.tolist() == [[n for n, _ in row]
                                            for row in fresh]
        assert grid.status == [[s for _, s in row] for row in fresh]
        assert {s for row in grid.status for s in row} == {"converged",
                                                           "maxiter"}
        assert all(len(set(grid.iterations[:, j])) > 1
                   for j in range(len(L2s)))
        assert len(seen["grid"]) == int(grid.iterations.sum())
        assert seen["grid"] == seen["fresh"]

    @pytest.mark.parametrize("case, material, L1s, L2s, tau, max_iter", [
        ("t1c4", {"alpha": 6.0}, [0.3, 3.0, 10.0], [0.0, 3.0, 10.0], 0.25,
         40),
        ("t1c1", None, [1.0, 2.72, 5.0, 10.0], [3.0], 4.0, 200)])
    def test_lockstep_traces_are_fresh_traces(self, case, material, L1s, L2s,
                                              tau, max_iter):
        # each cell of a lock-step column, converged, stopped at max_iter,
        # diverged or out of a certified range, has the trace of its own
        # one-column run: every increment to the bit, the stop, the solve
        # count and the range check; a lock-step column warns of each
        # excursion it counts
        ops, prev = setup = manufactured_setup(case, 8 if case == "t1c4"
                                               else 4, material)
        ctx = schemes.StepContext.build(ops, prev, tau)
        flows, got, warned, want = {}, [], 0, []
        for l2 in L2s:
            cfgs = [SchemeConfig("splitting", L1=l1, L2=l2,
                                 max_iter=max_iter) for l1 in L1s]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", AdmissibleRangeWarning)
                got += schemes.iterate_lockstep(ops, prev, cfgs, ctx, flows)
            warned += len(caught)
            want += [fresh_trace(*setup, cfg, tau) for cfg in cfgs]
        fields = ("iterations", "status", "n_linear_solves",
                  "range_excursions")
        for a, b in zip(got, want, strict=True):
            for name in ("dp", "dq", "du", "totals"):
                assert ([v.hex() for v in getattr(a, name)]
                        == [v.hex() for v in getattr(b, name)])
            assert ([getattr(a, n) for n in fields]
                    == [getattr(b, n) for n in fields])
        assert warned == sum(tr.range_excursions for tr in got)
        if case == "t1c4":
            assert {tr.status for tr in got} == {"converged", "maxiter",
                                                 "diverged"}
        else:
            assert {tr.status for tr in got} == {"converged"}
            assert warned > 0

    def test_lockstep_sweep_lets_no_range_warning_out(self):
        # the t1c1 column at tau = 4 leaves a certified range in lock step
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid = sweep_L("t1c1", "splitting", [1.0, 2.72, 5.0, 10.0], [3.0],
                           nx=4, tau=4.0)
        assert {s for row in grid.status for s in row} == {"converged"}
        assert not [w for w in caught
                    if issubclass(w.category, AdmissibleRangeWarning)]

    def test_argmin(self):
        grid = sweep_L("t1c1", "splitting", [0.3, 2.72], [0.3, 0.75], nx=8)
        l1, l2 = grid.argmin()
        assert l1 in (0.3, 2.72)
        assert l2 in (0.3, 0.75)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_L("linear", "splitting", [], [1.0])

    @pytest.mark.parametrize("kind,l1s,l2s", [
        ("splitting", [1.0], [0.3, 1.0, 3.0]),
        ("monolithic", [0.3, 1.0, 3.0], [1.0])])
    def test_line_sweep_assembles_the_loads_once(self, monkeypatch, kind,
                                                 l1s, l2s):
        # every cell steps from the same state with the same tau: one
        # step context serves the sweep
        calls, assemble = [], schemes.assemble_loads

        def counting(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(schemes, "assemble_loads", counting)
        grid = sweep_L("t1c1", kind, l1s, l2s, nx=8)
        assert len(calls) == 1
        assert grid.iterations.size == 3

    def test_parallel_workers_match_serial(self):
        serial = sweep_L("linear", "monolithic", [0.5, 1.0], [1.0], nx=4)
        parallel = sweep_L("linear", "monolithic", [0.5, 1.0], [1.0], nx=4,
                           n_workers=2)
        assert np.array_equal(serial.iterations, parallel.iterations)
        assert serial.status == parallel.status

    def test_pool_workers_keep_the_cell_order(self):
        # each worker runs every second L2 column; the grid is put back in
        # L1-major order.  The t1c4 grid has converged, max_iter and
        # diverged cells.
        for case, L1s, L2s, kwargs in [
                ("t1c1", [0.3, 1.0, 3.0], [0.3, 3.0], {}),
                ("t1c4", [0.3, 3.0, 10.0], [0.0, 3.0, 10.0],
                 {"max_iter": 40, "material": {"alpha": 6.0}})]:
            serial = sweep_L(case, "splitting", L1s, L2s, nx=8, **kwargs)
            parallel = sweep_L(case, "splitting", L1s, L2s, nx=8,
                               n_workers=2, **kwargs)
            assert len(set(serial.iterations.ravel())) > 2
            assert np.array_equal(serial.iterations, parallel.iterations)
            assert serial.status == parallel.status
        assert {s for row in parallel.status for s in row} == {
            "converged", "maxiter", "diverged"}

    def test_one_runner_factors_each_half_of_its_columns_once(self,
                                                             monkeypatch):
        # two L2 columns of a 3-L1 grid in one runner: 3 flow halves,
        # shared across the columns, and one mechanics half per column
        from porobiot import bench, linalg
        built = []
        original = linalg.CachedLU.__init__

        def counting_init(lu, matrix, *args, **kwargs):
            built.append(matrix.shape[0])
            original(lu, matrix, *args, **kwargs)

        monkeypatch.setattr(linalg.CachedLU, "__init__", counting_init)
        columns = [[SchemeConfig("splitting", L1=l1, L2=l2) for l1 in
                    (0.3, 1.0, 3.0)] for l2 in (0.3, 3.0)]
        out = bench._sweep_groups(("t1c1", 8, None, columns, 0.25))
        ops, _ = manufactured_setup("t1c1", 8)
        n_flow = ops.constraints.q.restriction.shape[1]
        n_mech = ops.constraints.u.restriction.shape[1]
        assert sorted(built) == sorted([n_flow] * 3 + [n_mech] * 2)
        assert [s for _, s in out] == ["converged"] * 6

    def test_l1_line_is_one_lockstep_column(self, monkeypatch):
        # a splitting sweep over L1 at one L2 is one L2 column: 3 flow
        # halves and 1 mechanics half, and each cell as a fresh one,
        # converged or stopped at max_iter
        from porobiot import linalg
        built = []
        original = linalg.CachedLU.__init__

        def counting_init(lu, matrix, *args, **kwargs):
            built.append(matrix.shape[0])
            original(lu, matrix, *args, **kwargs)

        monkeypatch.setattr(linalg.CachedLU, "__init__", counting_init)
        L1s = [0.3, 1.0, 100.0]
        grid = sweep_L("t1c1", "splitting", L1s, [1.0], nx=8, max_iter=25)
        ops, prev = manufactured_setup("t1c1", 8)
        n_flow = ops.constraints.q.restriction.shape[1]
        n_mech = ops.constraints.u.restriction.shape[1]
        assert sorted(built) == sorted([n_flow] * 3 + [n_mech])
        fresh = [_single_step(ops, prev, SchemeConfig(
            "splitting", L1=l1, L2=1.0, max_iter=25), 0.25) for l1 in L1s]
        assert grid.iterations.ravel().tolist() == [n for n, _ in fresh]
        assert [row[0] for row in grid.status] == [s for _, s in fresh]
        assert {s for _, s in fresh} == {"converged", "maxiter"}


class TestSensitivity:
    def test_decoupled_alpha_zero(self):
        # alpha = 0 decouples the subproblems; with the exact linear presets
        # (L1 = 1/M, L2 = lam) the split converges in one sweep plus the
        # confirming iteration
        rows = sensitivity_grid("linear", "splitting", "alpha", [0.0],
                                L1=1.0, L2=1.0, nx=8)
        axis, value, iters, status = rows[0]
        assert status == "converged"
        assert iters <= 2

    def test_permeability_trend_cubic_storage(self):
        # cubic-law problem: lower permeability removes the flow damping of
        # the pressure update and the counts grow sharply
        rows = sensitivity_grid("t1c2", "monolithic", "K", [1e-2, 1.0],
                                L1=3.0, L2=0.75, nx=8, max_iter=2000)
        counts = [r[2] for r in rows]
        assert all(r[3] == "converged" for r in rows)
        assert counts[1] < counts[0]

    def test_tau_axis_recorded_without_trend_claim(self):
        # the time-step influence has no asserted direction for the
        # verification problem; runs are recorded either way
        rows = sensitivity_grid("t1c1", "splitting", "tau", [0.25, 0.125],
                                L1=2.72, L2=3.47, nx=8)
        assert all(r[3] == "converged" for r in rows)
        assert all(r[2] >= 1 for r in rows)

    @pytest.mark.parametrize("values", [[0.3], [0.0], [0.25, 1 / 3, 0.4]])
    def test_h_must_split_the_unit_square(self, monkeypatch, values):
        # 0.3 and 1/3 would both run the 3x3 mesh and 0.0 divide by zero:
        # every h is checked before the first run
        from porobiot import bench
        built = []
        monkeypatch.setattr(bench, "manufactured_setup",
                            lambda *args: built.append(args))
        with pytest.raises(ValueError, match="whole number"):
            sensitivity_grid("t1c1", "splitting", "h", values, 1.0, 1.0)
        assert built == []

    def test_cells_per_side(self):
        from porobiot.bench import cells_per_side
        assert [cells_per_side(h) for h in (1.0, 1 / 3, 0.25, 0.125, 0.0625,
                                            1 / 32)] == [1, 3, 4, 8, 16, 32]
        for h in (0.3, 0.4, 2.0, 0.0, -0.25, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                cells_per_side(h)

    def test_axis_validation_and_csv(self, tmp_path):
        with pytest.raises(ValueError):
            sensitivity_grid("linear", "splitting", "zeta", [1.0], 1.0, 1.0)
        rows = sensitivity_grid("linear", "monolithic", "h", [0.25, 0.125],
                                L1=1.0, L2=1.0)
        path = tmp_path / "sens.csv"
        write_sensitivity_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "axis,value,iters,status"
        assert len(lines) == 3
        assert lines[1].startswith("h,")


class TestContraction:
    def test_splitting_undrained_strictly_decreasing(self):
        mat, prob, mesh, ops, prev = linear_setup(8)
        cfg = SchemeConfig("splitting", L1=1.0, L2=2.0)
        archive = []
        state, trace = iterate_to_convergence(
            prev, cfg, ops, mat, prob, 0.25, archive=archive)
        assert cfg.splitting_safe(mat)
        report = verify_contraction(archive, state, cfg, ops)
        assert report.monotone
        assert report.strictly_decreasing
        assert report.values[0] > report.values[1]

    def test_monolithic_incompressible_nonincreasing(self):
        from porobiot.physics import NonlinearLaw, law_catalog, make_material
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
        archive = []
        state, trace = iterate_to_convergence(
            prev, cfg, ops, mat, prob, 0.25, archive=archive)
        report = verify_contraction(archive, state, cfg, ops)
        assert report.monotone

    def test_single_iteration_vacuously_monotone(self):
        mat, prob, mesh, ops, prev = linear_setup(4)
        cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
        archive = []
        state, trace = iterate_to_convergence(
            prev, cfg, ops, mat, prob, 0.25, archive=archive)
        report = verify_contraction(archive[:2], archive[1], cfg, ops)
        assert report.monotone


@pytest.fixture(scope="module")
def short_run():
    return run_mandel(n_steps=25)


class TestMandelSeries:
    def test_initial_entry_matches_formula(self, short_run):
        series, _, _ = short_run
        cfg = MandelConfig()
        assert series.times[0] == 0.0
        assert abs(series.p_probe[0] - cfg.initial_pressure) < 1e-10

    def test_pressure_rise_above_initial(self, short_run):
        series, _, _ = short_run
        assert series.p_probe.max() > series.initial_pressure
        assert 0 < series.times[np.argmax(series.p_probe)] <= 25.0

    def test_default_probe_location(self, short_run):
        series, _, _ = short_run
        assert series.probe == (25.0, 5.0)

    def test_high_permeability_drains_immediately(self):
        # multiplying the permeability by 1e6 removes the early rise: the
        # series decays monotonically from the initial value
        from porobiot.physics import DARCY
        series, _, _ = run_mandel(n_steps=10, nx=10, ny=4,
                                  permeability=1e6 * 100.0 * DARCY)
        p = series.p_probe
        assert p[1] < p[0]
        assert all(b <= a + 1e-12 for a, b in zip(p, p[1:]))
        assert series.times[np.argmax(series.p_probe)] == 0.0

    def test_tied_plate_exact_after_solve(self, short_run):
        _, results, (ops, _) = short_run
        mesh = ops.mesh
        y_top = mesh.vertices[:, 1].max()
        top = [v for v in range(mesh.n_vertices)
               if abs(mesh.vertices[v, 1] - y_top) < 1e-9]
        uy = results[-1][0].u.coeffs[[2 * v + 1 for v in top]]
        assert np.ptp(uy) == 0.0

    def test_noflow_edges_zero_after_solve(self, short_run):
        from porobiot.mesh import Side
        _, results, (ops, _) = short_run
        q = results[-1][0].q.coeffs
        for side in (Side.LEFT, Side.BOTTOM, Side.TOP):
            for e in ops.mesh.boundary_edges(side):
                assert q[e] == 0.0

    def test_worker_count_env(self, monkeypatch):
        from porobiot.bench import worker_count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        monkeypatch.delenv("POROBIOT_THREADS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("POROBIOT_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("POROBIOT_THREADS", "junk")
        assert worker_count() == 1

    def test_worker_count_capped_at_usable_cpus(self, monkeypatch):
        # the CPUs this process may run on, or all of them where the
        # affinity is unknown; a capped sweep of one worker starts no pool
        from porobiot import bench
        monkeypatch.setenv("POROBIOT_THREADS", "64")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert bench.worker_count() == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert bench.worker_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert bench.worker_count() == 1

        def no_pool(*args, **kwargs):
            raise AssertionError("a capped sweep started a pool")

        monkeypatch.setattr(bench, "ProcessPoolExecutor", no_pool)
        grid = sweep_L("linear", "monolithic", [0.5, 1.0], [1.0], nx=4)
        # (1, 1) is the linear laws' own slopes: its one LU solve is exact
        assert grid.status == [["converged"], ["exact"]]

    def test_gmres_agrees_with_lu_on_si_mandel(self):
        # the SI blocks span about twenty orders of magnitude: GMRES must
        # reach the pressures of the LU solves.  On the exact preset LU
        # stops after its one direct solve; GMRES, inexact, confirms it
        # with a second iteration
        from porobiot.linalg import SolverOptions
        lu, lu_results, _ = run_mandel(n_steps=10, nx=8, ny=8)
        gm, gm_results, _ = run_mandel(n_steps=10, nx=8, ny=8,
                                       solver=SolverOptions(method="gmres"))
        assert [(tr.iterations, tr.status) for _, tr in lu_results] == [
            (1, "exact")] * 10
        assert [(tr.iterations, tr.status) for _, tr in gm_results] == [
            (2, "converged")] * 10
        assert np.abs(gm.p_probe - lu.p_probe).max() <= 1e-6 * np.abs(
            lu.p_probe).max()

    def test_csv_schema(self, short_run, tmp_path):
        series, _, _ = short_run
        path = tmp_path / "mandel.csv"
        write_mandel_csv(series, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,p_probe,uy_top"
        assert len(lines) == 27  # header + initial + 25 steps
        assert lines[1].split(",")[0] == "0"


class StateLog:
    """Weak references to every state the time march yields (each step's
    converged iterate), and how many earlier ones were alive as each
    arrived."""

    def __init__(self):
        self.refs, self.alive_before = [], []

    def record(self, state):
        self.alive_before.append(len(self.alive()))
        self.refs.append(weakref.ref(state))

    def alive(self):
        return [state for state in (r() for r in self.refs) if state is not None]


@pytest.fixture
def yielded_states(monkeypatch):
    # the march forms each state it yields from its iterate
    log = StateLog()
    state = schemes.SchemeSolver.state

    def recording(solver, *args, **kwargs):
        out = state(solver, *args, **kwargs)
        log.record(out)
        return out

    monkeypatch.setattr(schemes.SchemeSolver, "state", recording)
    return log


class TestStreamingMarch:
    def test_run_mandel_keeps_only_the_final_state(self, yielded_states):
        series, results, _ = run_mandel(n_steps=30, nx=8, ny=4)
        assert len(yielded_states.refs) == len(results) == 30
        assert len(series.times) == 31
        # while marching, only the state the next step starts from
        assert max(yielded_states.alive_before) == 1
        alive = yielded_states.alive()
        assert len(alive) == 1 and alive[0] is results[-1][0]
        assert all(state is None for state, _ in results[:-1])
        assert all(tr.converged for _, tr in results)

    def test_manufactured_convergence_keeps_final_states(self, yielded_states):
        rows = manufactured_convergence("linear", "monolithic", 1.0, 1.0,
                                        levels=2, nx0=4, tau0=0.25)
        assert len(rows) == 2
        assert len(yielded_states.refs) == 4 + 8
        # while marching, only the state the next step starts from (or, at
        # the first step of a level, the final state of the level before)
        assert max(yielded_states.alive_before) == 1
        assert yielded_states.alive() == []


def test_range_excursion_counted_under_single_step_filter(monkeypatch):
    # a t1c1 step of tau = 4 leaves a certified range: _single_step silences
    # the warning, and the trace still counts the excursion
    traces = []
    step = schemes.iterate_to_convergence

    def recording(*args, **kwargs):
        out = step(*args, **kwargs)
        traces.append(out[1])
        return out

    monkeypatch.setattr("porobiot.bench.iterate_to_convergence", recording)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, status = _single_step(*manufactured_setup("t1c1", 4),
                                 SchemeConfig("splitting", L1=2.72, L2=3.0,
                                              max_iter=200), 4.0)
    assert status == "converged"
    assert [tr.range_excursions for tr in traces] == [1]
    assert not [w for w in caught if issubclass(w.category,
                                                AdmissibleRangeWarning)]
