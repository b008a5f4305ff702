"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Heavier runs share module-scoped fixtures.
"""

import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from porobiot.assembly import build_operators
from porobiot.bench import (error_norms, manufactured_convergence,
                            sensitivity_grid, sweep_L, verify_contraction,
                            write_sweep_csv)
from porobiot.fem import FeFunction, l2_norm
from porobiot.linalg import FixedStressPreconditioner, gmres
from porobiot.mesh import generate_rect_mesh
from porobiot.physics import (estimate_constants, manufactured_material,
                              manufactured_problem)
from porobiot.schemes import (BiotState, SchemeConfig, StepContext,
                              build_initial_state, iterate_to_convergence,
                              residual_norms)

from oracles import lu_solve, rt0_div_cells

warnings.simplefilter("ignore")

T1_CASES = ("t1c1", "t1c2", "t1c3", "t1c4", "t1c5")


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {n}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE criterion {n}: PASS - {label}")


def field_diffs(ops, a, b):
    return {"p": l2_norm(FeFunction(ops.dofmap_p, a.p.coeffs - b.p.coeffs)),
            "q": l2_norm(FeFunction(ops.dofmap_q, a.q.coeffs - b.q.coeffs)),
            "u": l2_norm(FeFunction(ops.dofmap_u, a.u.coeffs - b.u.coeffs))}


def direct_step(ops, prev, tau):
    """Oracle for the linear law: one direct solve of the coupled system."""
    ctx = StepContext.build(ops, prev, tau)
    R = ops.constraints.composed(("u", "q", "p"))
    rhs = R.T @ np.concatenate([ctx.f_vec, ctx.g_vec, ctx.mass_const])
    x = R @ lu_solve(ops.monolithic_system(1.0, 1.0, tau), rhs)
    nu, nq = ops.dofmap_u.n_dofs, ops.dofmap_q.n_dofs
    return BiotState(FeFunction(ops.dofmap_u, x[:nu]),
                     FeFunction(ops.dofmap_q, x[nu:nu + nq]),
                     FeFunction(ops.dofmap_p, x[nu + nq:]), prev.time + tau)


def padded_range(values, pad=0.2, floor=1e-12):
    lo, hi = float(np.min(values)), float(np.max(values))
    span = max(hi - lo, floor)
    return lo - pad * span, hi + pad * span


def observed_constants(mat, archive, ops):
    """Law constants certified a posteriori over all visited iterates."""
    ps = np.concatenate([st.p.coeffs for st in archive])
    ss = np.concatenate([ops.div_u_cells(st.u.coeffs) for st in archive])
    with np.errstate(divide="ignore"):
        b_m, L_b = estimate_constants(mat.b_law, rng=padded_range(ps),
                                      samples=1001)
        h_m, L_h = estimate_constants(mat.h_law, rng=padded_range(ss),
                                      samples=1001)
    return b_m, L_b, h_m, L_h


def a_posteriori_safe(cfg, mat, archive, ops):
    b_m, L_b, h_m, L_h = observed_constants(mat, archive, ops)
    if cfg.kind == "splitting":
        if not np.isfinite(L_b) or cfg.L1 < L_b or b_m <= 0:
            return False
        return cfg.L2 >= L_h + mat.alpha ** 2 / b_m
    return np.isfinite(L_b) and cfg.L1 >= L_b / 2 and cfg.L2 >= L_h


def suggested_case_tuning(mat, kind):
    """Theorem-informed per-case tuning used throughout the suite."""
    L1 = mat.L_b
    if kind == "splitting" and mat.b_m > 0:
        cand = mat.L_h + mat.alpha ** 2 / mat.b_m
        if cand <= 50.0 * max(1.0, mat.L_h):
            return L1, cand
    return L1, mat.L_h


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------

def test_criterion_1_linear_oracle_equivalence():
    with criterion(1, "linear schemes match the direct coupled solve"):
        t0 = time.perf_counter()
        mat = manufactured_material("linear")
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), 16, 16)
        ops = build_operators(mesh, mat, prob)
        tau, n_steps = 0.25, 4
        configs = {"splitting": SchemeConfig("splitting", L1=1.0, L2=2.0,
                                             tol=1e-9),
                   "monolithic": SchemeConfig("monolithic", L1=0.5, L2=1.0,
                                              tol=1e-9)}
        prev_direct = build_initial_state(prob, ops)
        prev = {k: prev_direct.copy() for k in configs}
        for _ in range(n_steps):
            direct = direct_step(ops, prev_direct, tau)
            for kind, cfg in configs.items():
                state, trace = iterate_to_convergence(prev[kind], cfg, ops,
                                                      mat, prob, tau)
                assert trace.converged
                prev[kind] = state
            prev_direct = direct
        for kind in configs:
            diffs = field_diffs(ops, prev[kind], prev_direct)
            assert max(diffs.values()) <= 1e-7, (kind, diffs)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criteria 2 and 3 (shared runs)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def t1_runs():
    runs = {}
    mesh = generate_rect_mesh((0, 0), (1, 1), 16, 16)
    tau = 0.25
    for case in T1_CASES:
        mat = manufactured_material(case)
        prob = manufactured_problem(mat)
        ops = build_operators(mesh, mat, prob)
        prev = build_initial_state(prob, ops)
        entry = {"mat": mat, "prob": prob, "ops": ops, "prev": prev,
                 "tau": tau}
        for kind in ("splitting", "monolithic"):
            L1, L2 = suggested_case_tuning(mat, kind)
            cfg = SchemeConfig(kind, L1=L1, L2=L2, tol=1e-10, max_iter=6000)
            archive = []
            state, trace = iterate_to_convergence(
                prev, cfg, ops, mat, prob, tau, archive=archive)
            entry[kind] = {"cfg": cfg, "state": state, "trace": trace,
                           "archive": archive}
        runs[case] = entry
    return runs


def test_criterion_2_nonlinear_cross_scheme_agreement(t1_runs):
    with criterion(2, "five non-linear cases agree across schemes"):
        for case, entry in t1_runs.items():
            ops, mat, prob = entry["ops"], entry["mat"], entry["prob"]
            split, mono = entry["splitting"], entry["monolithic"]
            assert split["trace"].converged, case
            assert mono["trace"].converged, case
            diffs = field_diffs(ops, split["state"], mono["state"])
            assert max(diffs.values()) <= 1e-6, (case, diffs)
            for run in (split, mono):
                res = residual_norms(run["state"], entry["prev"], ops,
                                     entry["tau"])
                assert max(res.values()) <= 1e-7, (case, run["cfg"].kind, res)


def test_criterion_3_contraction_functionals(t1_runs):
    with criterion(3, "contraction functionals decrease for certified runs"):
        checked, strict_subset = [], []
        for case, entry in t1_runs.items():
            ops, mat = entry["ops"], entry["mat"]
            for kind in ("splitting", "monolithic"):
                run = entry[kind]
                if not run["cfg"].theorem_safe(mat):
                    continue
                report = verify_contraction(run["archive"], run["state"],
                                            run["cfg"], ops)
                assert report.monotone, (case, kind)
                if kind == "splitting":
                    assert report.strictly_decreasing, (case, kind)
                checked.append((case, kind))
                # note where the certification also holds over every
                # iterate actually visited (cube-root runs self-exclude)
                if a_posteriori_safe(run["cfg"], mat, run["archive"], ops):
                    strict_subset.append((case, kind))
        # the certified set must not be vacuous and must include both kinds
        assert len(checked) >= 3, checked
        assert any(k == "splitting" for _, k in checked)
        assert any(k == "monolithic" for _, k in checked)
        print(f"  theorem-safe runs checked: {checked}")
        print(f"  of those, certified over all visited iterates: "
              f"{strict_subset}")


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------

def test_criterion_4_tuning_band(tmp_path):
    with criterion(4, "sweep argmin within one decade of (L_b, L_h)"):
        t0 = time.perf_counter()
        mat = manufactured_material("t1c1")
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), 16, 16)
        ops = build_operators(mesh, mat, prob)
        prev = build_initial_state(prob, ops)
        # constants over the observed converged-solution range (the law
        # slopes at the solution scale, which the band claim refers to)
        ref_cfg = SchemeConfig("splitting", *suggested_case_tuning(
            mat, "splitting"), tol=1e-10)
        ref_state, _ = iterate_to_convergence(prev, ref_cfg, ops, mat, prob,
                                              0.25)
        _, L_b, _, L_h = observed_constants(mat, [ref_state], ops)
        grids = np.logspace(-2, 2, 9)
        for kind in ("splitting", "monolithic"):
            grid = sweep_L("t1c1", kind, grids, grids, nx=16, tau=0.25,
                           max_iter=200)
            write_sweep_csv(grid, tmp_path / f"sweep_{kind}.csv")
            l1_best, l2_best = grid.argmin()
            assert abs(np.log10(l1_best / L_b)) <= 1.0, (kind, l1_best, L_b)
            assert abs(np.log10(l2_best / L_h)) <= 1.0, (kind, l2_best, L_h)
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"sweep wall time {elapsed:.0f}s"
        print(f"  (L_b, L_h) at solution scale: ({L_b:.3f}, {L_h:.4f}); "
              f"9x9 sweeps took {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 5
# ---------------------------------------------------------------------------

def test_criterion_5_permeability_trend():
    label = "iteration counts non-increasing in permeability"
    with criterion(5, label):
        # run the trend on the cubic pair b(p) = p^3, h(s) = s^3: its
        # slopes stay bounded near zero pressure, so all three
        # permeabilities converge (a cube-root storage law has unbounded
        # slope at zero and stalls once low permeability removes the flow
        # damping)
        rows = sensitivity_grid("t1c2", "monolithic", "K", [1e-4, 1e-2, 1.0],
                                L1=3.0, L2=0.75, nx=16, tau=0.25,
                                max_iter=8000)
        counts = [r[2] for r in rows]
        assert all(r[3] == "converged" for r in rows), rows
        assert counts[0] >= counts[1] >= counts[2], counts
        print(f"  counts across K=1e-4,1e-2,1: {counts}")


# ---------------------------------------------------------------------------
# criterion 6
# ---------------------------------------------------------------------------

def test_criterion_6_mesh_independence():
    with criterion(6, "iteration counts flat across mesh sizes"):
        mat = manufactured_material("t1c1")
        for kind in ("splitting", "monolithic"):
            counts = []
            for h in (1 / 8, 1 / 16, 1 / 32):
                rows = sensitivity_grid("t1c1", kind, "h", [h],
                                        L1=mat.L_b, L2=mat.L_h, tau=0.25)
                assert rows[0][3] == "converged"
                counts.append(rows[0][2])
            assert max(counts) - min(counts) <= 2, (kind, counts)


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------

def test_criterion_7_mandel_cryer_effect():
    with criterion(7, "pressure rises above the undrained value, then drains"):
        from porobiot.bench import run_mandel
        series, results, _ = run_mandel(case_id="linear", dt=1.0, n_steps=500,
                                        nx=40, ny=40)
        assert all(tr.converged for _, tr in results)
        p0 = series.initial_pressure
        assert abs(series.p_probe[0] - p0) < 1e-10
        peak = series.p_probe.max()
        peak_time = series.times[np.argmax(series.p_probe)]
        final = series.p_probe[-1]
        assert peak > p0
        assert 0 < peak_time < 50.0
        assert final < p0
        assert len(series.times) == 501
        print(f"  p0={p0:.6f}, peak={peak:.4f} at t={peak_time:.0f}s,"
              f" final={final:.4f}")


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------

def _linear_monolithic_system(nx, tau=0.25):
    mat = manufactured_material("linear")
    prob = manufactured_problem(mat)
    mesh = generate_rect_mesh((0, 0), (1, 1), nx, nx)
    ops = build_operators(mesh, mat, prob)
    prev = build_initial_state(prob, ops)
    ctx = StepContext.build(ops, prev, tau)
    R = ops.constraints.composed(("u", "q", "p"))
    rhs = R.T @ np.concatenate([ctx.f_vec, ctx.g_vec, ctx.mass_const])
    return ops.monolithic_system(1.0, 1.0, tau), rhs, ops, mat


def test_criterion_8_preconditioned_gmres_mesh_robust():
    with criterion(8, "fixed-stress GMRES mesh-robust; bare GMRES degrades"):
        precond_counts = []
        for nx in (8, 16, 32, 64):
            A, b, ops, mat = _linear_monolithic_system(nx)
            cfg = SchemeConfig("monolithic", L1=1.0, L2=1.0)
            M = FixedStressPreconditioner(ops, cfg, 0.25)
            _, rep = gmres(A, b, preconditioner=M, rtol=1e-10)
            assert rep.converged, nx
            precond_counts.append(rep.iterations)
        assert max(precond_counts) <= 15, precond_counts

        bare_counts = []
        for nx in (8, 16, 32):
            A, b, _, _ = _linear_monolithic_system(nx)
            d = np.abs(A.diagonal())
            S = sp.diags(1.0 / np.sqrt(np.where(d > 0, d, 1.0)))
            _, rep = gmres((S @ A @ S).tocsr(), S @ b, rtol=1e-6,
                           maxiter=15000)
            bare_counts.append(rep.iterations)
        assert bare_counts[0] < bare_counts[1] < bare_counts[2], bare_counts
        print(f"  preconditioned: {precond_counts}; bare: {bare_counts}")


# ---------------------------------------------------------------------------
# criterion 9
# ---------------------------------------------------------------------------

def test_criterion_9_discrete_orders():
    with criterion(9, "observed orders: p, q first order; u second order"):
        rows = manufactured_convergence("linear", "monolithic", 1.0, 1.0,
                                        levels=3, nx0=8, tau0=0.25, tol=1e-9)
        for prev_row, row in zip(rows, rows[1:]):
            ratio = np.log(prev_row.h / row.h)
            order_q = np.log(prev_row.err_q / row.err_q) / ratio
            assert row.order_p >= 0.9, rows
            assert order_q >= 0.9, rows
            assert row.order_u >= 1.7, rows
        print("  orders (p, u):",
              [(round(r.order_p, 2), round(r.order_u, 2)) for r in rows[1:]])


# ---------------------------------------------------------------------------
# criterion 10
# ---------------------------------------------------------------------------

def test_criterion_10_invariant_suites():
    with criterion(10, "reference-element, Korn, exactness, determinism"):
        mat = manufactured_material("linear")
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), 6, 6)
        ops = build_operators(mesh, mat, prob)
        rng = np.random.default_rng(101)

        # Korn-type bound on 100 random constrained fields
        R = ops.constraints.u.restriction
        for _ in range(100):
            v = R @ rng.standard_normal(R.shape[1])
            lhs = v @ (ops.a_e @ v) / (2.0 * mat.mu)
            rhs = 0.5 * (v @ (ops.d_div @ v))
            assert lhs >= rhs - 1e-12 * max(1.0, abs(lhs))

        # RT0/P0 exactness: cellwise divergence identities hold to round-off
        q = FeFunction(ops.dofmap_q, rng.standard_normal(ops.dofmap_q.n_dofs))
        assert np.allclose(ops.b_qp @ q.coeffs,
                           rt0_div_cells(q) * mesh.areas, rtol=1e-12)
        u = rng.standard_normal(ops.dofmap_u.n_dofs)
        s = ops.div_u_cells(u)
        assert np.allclose(ops.b_up.T @ u, s * mesh.areas, rtol=1e-12)

        # reference-element oracle: exact local integrals on the 2-cell mesh
        # (closed forms; independent of the assembly quadrature)
        m1 = generate_rect_mesh((0, 0), (1, 1), 1, 1)
        ops1 = build_operators(m1, mat, prob)
        # P0 mass: cell areas exactly
        assert np.abs(ops1.m_p.diagonal() - 0.5).max() < 1e-15
        # B_qp entries: signed edge lengths exactly
        for cell in range(2):
            for j in range(3):
                e = m1.cell_edge_ids[cell, j]
                expect = m1.cell_edge_signs[cell, j] * m1.edge_lengths[e]
                assert abs(ops1.b_qp[cell, e] - expect) < 1e-12
        # RT0 mass against the exact integral for the constant field (1, 0)
        from porobiot.fem import interpolate
        qc = interpolate(ops1.dofmap_q, lambda x, y: (1.0, 0.0))
        assert abs(qc.coeffs @ (ops1.m_q @ qc.coeffs) - 1.0) < 1e-12
        # elastic energy of u = (x, y): 2 mu int eps:eps = 4 mu exactly
        uc = interpolate(ops1.dofmap_u, lambda x, y: (x, y))
        assert abs(uc.coeffs @ (ops1.a_e @ uc.coeffs) - 4.0 * mat.mu) < 1e-12

        # determinism: two identical sweeps produce identical tables
        g1 = sweep_L("t1c1", "splitting", [1.0, 2.0], [0.1, 1.0], nx=8)
        g2 = sweep_L("t1c1", "splitting", [1.0, 2.0], [0.1, 1.0], nx=8)
        assert np.array_equal(g1.iterations, g2.iterations)
        assert g1.status == g2.status
