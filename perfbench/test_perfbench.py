"""Self-tests of the benchmark: references, the checks that use them, tracing.

Each check accepts a correct result and rejects a perturbed one.  All of
these run in a few seconds on synthetic data or tiny meshes.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import references as refs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# ---------------------------------------------------------------------------
# Mandel
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mandel():
    return refs.mandel_reference()


def test_mandel_series_starts_at_p0_and_drains(mandel):
    xs = np.linspace(0.0, 0.5 * mandel.a, 11)
    start = np.array([mandel.pressure(x, [0.0])[0] for x in xs])
    assert np.allclose(start, mandel.p0, rtol=5e-3)
    assert abs(mandel.p0 - 40.0) < 1e-9
    assert abs(mandel.pressure(0.25 * mandel.a, [1e5])[0]) < 1e-9


def test_mandel_consolidation_coefficient_matches_storage_form(mandel):
    m = refs.MANDEL
    mobility = m["permeability"] / m["viscosity"]
    stiff = m["lam"] + 2.0 * m["mu"]
    c = mobility * m["biot_modulus"] * stiff / (stiff + m["alpha"] ** 2 * m["biot_modulus"])
    assert mandel.c == pytest.approx(c, rel=1e-12)


def _analytic_run(mandel, probe_x, nx=40, steps=500, lag=0, scale=1.0, ref=None):
    times = np.arange(steps + 1, dtype=float)
    src = ref or mandel
    x = refs.probe_cell_x(probe_x, mandel.a, nx)
    p = scale * src.pressure(x, np.maximum(times - lag, 0.0))
    p[0] = mandel.p0
    return times, p, np.ones(steps, dtype=bool)


def test_check_mandel_accepts_the_series(mandel):
    for probe_x in (10.0, 25.0, 30.0):
        times, p, conv = _analytic_run(mandel, probe_x)
        assert refs.check_mandel(times, p, conv, probe_x, 40, mandel) == []


def test_check_mandel_rejects_perturbed_runs(mandel):
    probe_x = 25.0
    times, p, conv = _analytic_run(mandel, probe_x, lag=1)
    assert any("deviates" in f for f in refs.check_mandel(times, p, conv, probe_x, 40, mandel))
    times, p, conv = _analytic_run(mandel, probe_x, scale=1.01)
    assert any("deviates" in f for f in refs.check_mandel(times, p, conv, probe_x, 40, mandel))
    slow = refs.MandelSeries(**dict(refs.MANDEL, permeability=0.9 * refs.MANDEL["permeability"]))
    times, p, conv = _analytic_run(mandel, probe_x, ref=slow)
    assert any("deviates" in f for f in refs.check_mandel(times, p, conv, probe_x, 40, mandel))
    times, p, conv = _analytic_run(mandel, probe_x)
    conv[7] = False
    assert any("converge" in f for f in refs.check_mandel(times, p, conv, probe_x, 40, mandel))
    flat = np.full_like(p, mandel.p0)
    fails = refs.check_mandel(times, flat, np.ones_like(conv), probe_x, 40, mandel)
    assert any("never rises" in f for f in fails)
    assert any("not below p0" in f for f in fails)


# ---------------------------------------------------------------------------
# manufactured solution, sweep and scale checks
# ---------------------------------------------------------------------------

def unit_square(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    vx, vy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([vx.ravel(), vy.ravel()])
    vid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    a, b = vid[:-1, :-1].ravel(), vid[1:, :-1].ravel()
    c, d = vid[1:, 1:].ravel(), vid[:-1, 1:].ravel()
    cells = np.concatenate([np.column_stack([a, b, c]), np.column_stack([a, c, d])])
    return verts, cells


def test_t1c1_slopes_closed_form():
    b_m, L_b, h_m, L_h = refs.t1c1_slopes(0.25)
    assert (b_m, h_m) == (1.0, 0.0)
    assert L_b == pytest.approx(math.exp(0.25 / 16.0), rel=1e-12)
    assert L_h == pytest.approx(3.0 * (0.25 / 4.0) ** 2, rel=1e-12)


def test_p0_error_integrates_the_exact_pressure():
    verts, cells = unit_square(16)
    zero = refs.p0_error(verts, cells, np.zeros(len(cells)), 0.25)
    assert zero == pytest.approx(refs.exact_p_norm(0.25), rel=1e-4)
    cent = verts[cells].mean(axis=1)
    interp = refs.p0_error(verts, cells, refs.exact_p(cent[:, 0], cent[:, 1], 0.25), 0.25)
    assert interp / refs.exact_p_norm(0.25) < refs.SWEEP_REL_ERR


GRID = np.logspace(-2.0, 2.0, 9)


def _sweep(best=(4, 2)):
    iters = np.full((9, 9), 30)
    iters[best] = 6
    status = [["converged"] * 9 for _ in range(9)]
    return iters, status


def test_check_sweep_accepts_a_tuned_sweep():
    iters, status = _sweep()
    err = 0.066 * refs.exact_p_norm(0.25)
    assert refs.check_sweep(GRID, GRID, iters, status, 0.25, err) == []


def test_check_sweep_rejects_perturbed_sweeps():
    err = 0.066 * refs.exact_p_norm(0.25)
    iters, status = _sweep(best=(0, 8))        # (0.01, 100): far from the band
    assert any("decade" in f for f in refs.check_sweep(GRID, GRID, iters, status, 0.25, err))
    iters, status = _sweep()
    status[6][6] = "diverged"                  # (10, 10) is theorem-safe
    assert any("diverged" in f for f in refs.check_sweep(GRID, GRID, iters, status, 0.25, err))
    iters, status = _sweep()
    bad = refs.exact_p_norm(0.25)               # the state before the step
    assert any("error" in f for f in refs.check_sweep(GRID, GRID, iters, status, 0.25, bad))


def _levels(errors=(2.7e-4, 1.37e-4, 6.9e-5), diff=0.0, inner=5, converged=True):
    rng = np.random.default_rng(0)
    levels = {}
    for nx, e in zip((32, 64, 128), errors):
        state = rng.random(50)
        levels[nx] = {
            "lu": {"state": state, "p_error": e, "converged": True},
            "gmres": {"state": state * (1.0 + diff), "converged": converged,
                      "inner_iters": [inner] * 11}}
    return levels


def test_check_scale_accepts_agreeing_solvers():
    assert refs.check_scale(_levels()) == []


def test_check_scale_rejects_perturbed_results():
    assert any("differ" in f for f in refs.check_scale(_levels(diff=1e-4)))
    assert any("order" in f for f in refs.check_scale(_levels(errors=(2.7e-4, 2e-4, 1.5e-4))))
    assert any("inner" in f for f in refs.check_scale(_levels(inner=16)))
    assert any("converge" in f for f in refs.check_scale(_levels(converged=False)))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_tracer_records_layers_and_restores_the_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tracing
    from porobiot import bench, fem, linalg, schemes

    before = (schemes.l2_norm, bench.generate_rect_mesh, linalg.CachedLU.solve)
    tracer = tracing.Tracer()
    with tracer:
        assert schemes.l2_norm is not before[0]
        grid = bench.sweep_L("t1c1", "splitting", [1.0], [0.1, 1.0], nx=4,
                             n_workers=1)
    assert (schemes.l2_norm, bench.generate_rect_mesh, linalg.CachedLU.solve) == before
    assert fem.l2_norm is before[0]
    m = tracer.layer_values(0.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(m) == {p["name"] for p in spec["per_layer"]}
    assert m["schemes.steps"] == 2
    assert m["fem.norm_calls"] == 3 * int(grid.iterations.sum())
    assert m["schemes.linear_solves"] == m["linalg.solves"] == 2 * int(grid.iterations.sum())
    assert m["linalg.factors"] == 4 and m["linalg.fill_nnz"] > 0
    assert m["schemes.step_s"] > m["linalg.solve_s"] > 0.0
    names, dur, self_time = tracer._arrays()
    assert np.all(self_time >= -1e-9) and self_time.sum() <= dur.sum() + 1e-9


def test_lsweep_round_maps_the_permuted_grid_back():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    from porobiot import bench

    class Tiny(workloads.LSweep):
        NX = 4
        GRID = np.array([0.1, 1.0, 10.0])

    sweep = Tiny(seed=3)
    assert (list(sweep.perm1), list(sweep.perm2)) != ([0, 1, 2], [0, 1, 2])
    iters, status = sweep.run().payload
    ref = bench.sweep_L("t1c1", "splitting", Tiny.GRID, Tiny.GRID, nx=4,
                        tau=Tiny.TAU, max_iter=Tiny.MAX_ITER, n_workers=1)
    assert np.array_equal(iters, ref.iterations)
    assert status == ref.status


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

def test_adjusted_time_integrates_the_sampled_speed():
    import hostspeed

    speed = hostspeed.HostSpeed()
    ref = speed.kernel.reference_s
    # speeds 1, 1 and 0.5 of the reference, sampled at t = 0, 1 and 2 s
    speed.samples = [(0.0, ref), (1.0, 1.0 + ref), (2.0, 2.0 + 2.0 * ref)]
    assert speed.speeds() == pytest.approx([1.0, 1.0, 0.5])
    assert speed.adjusted(0.5, 1.5) == pytest.approx(0.5 + (0.5 - ref) * 0.75)
    # the samples' own time is left out
    assert speed.adjusted(0.0, 3.0) == pytest.approx(1.75 * (1.0 - ref))


def test_host_speed_samples_while_timing_and_restores_the_handler():
    import signal
    from time import perf_counter

    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        t0 = perf_counter()
        while perf_counter() - t0 < 3 * hostspeed.SAMPLE_SECONDS:
            sum(range(1000))
        t1 = perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 4
    kernel_time = sum(e - s for s, e in speed.samples if t0 < s < t1)
    assert 0.0 < speed.adjusted(t0, t1)
    assert all(0.0 < v for v in speed.speeds())
    assert kernel_time < t1 - t0
