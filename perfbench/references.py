"""Reference solutions and output checks, computed apart from porobiot.

Only numpy, scipy and the standard library are used here, so a fault in
the solver cannot leak into the figures it is checked against:

* the analytic Mandel series for the consolidation run;
* the manufactured exact solution p = u1 = u2 = t x(1-x) y(1-y) and the
  closed-form slopes of the t1c1 laws (b = exp, h = s^3) over its range;
* the check functions, which take plain arrays and return a list of
  failure messages (empty when the output is correct).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

# ---------------------------------------------------------------------------
# Mandel's problem (plane strain, quarter domain [0, a] x [0, b])
# ---------------------------------------------------------------------------

# standard parameter set of the consolidation benchmark, SI units
MANDEL = dict(a=100.0, b=10.0, force=1.0e4, lam=1.65e9, biot_modulus=1.65e10,
              mu=2.475e9, alpha=1.0, permeability=100.0 * 9.869233e-13,
              viscosity=10.0 * 1.0e-3)

# Largest |p_h - p_exact| allowed at the probe cell over the whole run, as a
# share of p0 = 40 Pa.  The 40x40 monolithic run (dt = 1, 500 steps) deviates
# by at most 0.23 Pa (0.56% of p0) for probes with 0.1 a <= x <= 0.3 a; the
# same series shifted by one time step deviates by 0.40 Pa.
MANDEL_REL_TOL = 0.0075


class MandelSeries:
    """Pressure p(x, t) of Mandel's problem by its Fourier series.

    Roots of tan(alpha) = (1 - nu) / (nu_u - nu) * alpha, one in each
    interval (n pi, n pi + pi/2); c is the consolidation coefficient.
    """

    def __init__(self, a, b, force, lam, biot_modulus, mu, alpha,
                 permeability, viscosity, n_terms=400):
        self.a = a
        nu = lam / (2.0 * (lam + mu))
        k_drained = lam + 2.0 * mu / 3.0
        skempton = alpha * biot_modulus / (k_drained + alpha ** 2 * biot_modulus)
        ab = alpha * skempton * (1.0 - 2.0 * nu)
        nu_u = (3.0 * nu + ab) / (3.0 - ab)
        self.p0 = force * skempton * (1.0 + nu_u) / (3.0 * a)
        mobility = permeability / viscosity
        self.c = (2.0 * mobility * skempton ** 2 * mu * (1.0 - nu)
                  * (1.0 + nu_u) ** 2 / (9.0 * (1.0 - nu_u) * (nu_u - nu)))
        k = (1.0 - nu) / (nu_u - nu)

        def g(x):
            return math.sin(x) - k * x * math.cos(x)

        roots = []
        for n in range(n_terms):
            lo = n * math.pi + 1e-12
            hi = n * math.pi + 0.5 * math.pi - 1e-12
            roots.append(brentq(g, lo, hi, xtol=1e-14, rtol=1e-15))
        al = np.array(roots)
        self.alphas = al
        self.coef = np.sin(al) / (al - np.sin(al) * np.cos(al))

    def pressure(self, x, times):
        """p(x, t) for one abscissa and an array of times."""
        al = self.alphas
        shape = np.cos(al * x / self.a) - np.cos(al)
        decay = np.exp(-np.outer(np.asarray(times, dtype=float),
                                 al ** 2 * self.c / self.a ** 2))
        return 2.0 * self.p0 * decay @ (self.coef * shape)


def mandel_reference():
    return MandelSeries(**MANDEL)


def probe_cell_x(probe_x, a, nx):
    """Centre abscissa of the mesh column that holds the probe.

    The P0 pressure is a cell average, so the series is evaluated at the
    centre of the probe's column rather than at the probe itself.
    """
    h = a / nx
    i = min(int(probe_x // h), nx - 1)
    return (i + 0.5) * h


def check_mandel(times, p_probe, converged, probe_x, nx, ref=None):
    """Failures of a consolidation run against the analytic series."""
    ref = ref or mandel_reference()
    times = np.asarray(times, dtype=float)
    p = np.asarray(p_probe, dtype=float)
    p0 = ref.p0
    out = []
    if not np.all(converged):
        out.append(f"{int(np.size(converged) - np.sum(converged))} steps did not converge")
    if abs(p[0] - p0) > 1e-9 * p0:
        out.append(f"initial pressure {p[0]:.6g} differs from p0 = {p0:.6g}")
    exact = ref.pressure(probe_cell_x(probe_x, ref.a, nx), times[1:])
    dev = float(np.max(np.abs(p[1:] - exact)))
    if not dev <= MANDEL_REL_TOL * p0:
        out.append(f"probe pressure deviates {dev:.4g} Pa from the analytic "
                   f"series (bound {MANDEL_REL_TOL * p0:.4g} Pa)")
    peak = int(np.argmax(p))
    if not p[peak] > p0:
        out.append(f"pressure never rises above p0 (max {p[peak]:.6g})")
    if not 0.0 < times[peak] < 50.0:
        out.append(f"pressure peaks at t = {times[peak]:g}, not before t = 50")
    if not p[-1] < p0:
        out.append(f"final pressure {p[-1]:.6g} is not below p0")
    return out


# ---------------------------------------------------------------------------
# manufactured problem on the unit square (all material constants 1)
# ---------------------------------------------------------------------------

def exact_p(x, y, t):
    return t * x * (1.0 - x) * y * (1.0 - y)


def exact_div_u(x, y, t):
    return t * ((1.0 - 2.0 * x) * y * (1.0 - y) + x * (1.0 - x) * (1.0 - 2.0 * y))


def t1c1_slopes(t, n=401):
    """(b_m, L_b, h_m, L_h) of b = exp(p), h = s^3 over the exact range at t.

    The slopes are exp(p) and 3 s^2 in closed form; the ranges of p and
    div u are sampled on an n x n grid of the unit square.
    """
    xs = np.linspace(0.0, 1.0, n)
    x, y = np.meshgrid(xs, xs)
    p = exact_p(x, y, t)
    s = exact_div_u(x, y, t)
    b_m, L_b = math.exp(p.min()), math.exp(p.max())
    s2 = s * s
    return b_m, L_b, 3.0 * float(s2.min()), 3.0 * float(s2.max())


# Dunavant's degree-4 rule on the reference triangle: barycentric points and
# weights that sum to one (the integral is area times the weighted sum).
_A1, _B1, _W1 = 0.445948490915965, 0.108103018168070, 0.223381589678011
_A2, _B2, _W2 = 0.091576213509771, 0.816847572980459, 0.109951743655322
QUAD_BARY = np.array([[_A1, _A1, _B1], [_A1, _B1, _A1], [_B1, _A1, _A1],
                      [_A2, _A2, _B2], [_A2, _B2, _A2], [_B2, _A2, _A2]])
QUAD_W = np.array([_W1] * 3 + [_W2] * 3)


def p0_error(vertices, cells, p_cells, t):
    """L2 error of a cellwise-constant pressure against exact_p at time t."""
    corners = np.asarray(vertices, dtype=float)[np.asarray(cells)]   # (F, 3, 2)
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    pts = np.einsum("qv,fvd->fqd", QUAD_BARY, corners)
    diff = np.asarray(p_cells, dtype=float)[:, None] - exact_p(pts[..., 0], pts[..., 1], t)
    return float(np.sqrt(np.sum(areas * (diff ** 2 @ QUAD_W))))


# Pressure error bound of one nx=16 step at tau = 0.25, relative to the L2
# norm of the exact pressure.  The P0 interpolation of the exact pressure
# already errs by 0.066 of it at this mesh, and converged steps at three
# different (L1, L2) cells measure 0.066 too; the state at the start of the
# step measures 1.0.
SWEEP_REL_ERR = 0.1


def exact_p_norm(t):
    """||t x(1-x) y(1-y)||_L2 of the unit square: t / 30."""
    return t / 30.0


def check_sweep(L1_values, L2_values, iterations, status, tau, argmin_error):
    """Failures of an (L1, L2) splitting sweep of t1c1 at one step of tau.

    iterations and status are indexed [i, j] for (L1_values[i],
    L2_values[j]).  argmin_error is the pressure L2 error of the fastest
    cell, re-solved apart from the sweep.
    """
    b_m, L_b, h_m, L_h = t1c1_slopes(tau)
    iterations = np.asarray(iterations)
    out = []
    safe_l2 = L_h + 1.0 / b_m      # alpha = 1
    for i, l1 in enumerate(L1_values):
        for j, l2 in enumerate(L2_values):
            if l1 >= L_b and l2 >= safe_l2 and status[i][j] == "diverged":
                out.append(f"theorem-safe cell (L1={l1:g}, L2={l2:g}) diverged")
    conv = np.array([[s == "converged" for s in row] for row in status])
    if not conv.any():
        return out + ["no cell converged"]
    best = iterations[conv].min()
    for i, j in zip(*np.nonzero(conv & (iterations == best))):
        l1, l2 = L1_values[i], L2_values[j]
        if abs(math.log10(l1 / L_b)) > 1.0 or abs(math.log10(l2 / L_h)) > 1.0:
            out.append(f"fastest cell (L1={l1:g}, L2={l2:g}) lies more than a "
                       f"decade from (L_b, L_h) = ({L_b:.4g}, {L_h:.4g})")
    rel = argmin_error / exact_p_norm(tau)
    if not rel <= SWEEP_REL_ERR:
        out.append(f"fastest cell's pressure error {rel:.3g} of ||p|| "
                   f"exceeds {SWEEP_REL_ERR:g}")
    return out


# GMRES inner iterations allowed per monolithic solve, at every mesh size.
GMRES_MAX_ITERS = 15
# Largest relative difference between the LU and the GMRES state.
SOLVER_AGREEMENT = 1e-6
# Smallest observed order of the pressure error under mesh halving.
MIN_PRESSURE_ORDER = 0.9


def check_scale(levels):
    """Failures of the mesh-scale step.

    levels maps nx to a dict with 'lu' and 'gmres' entries, each holding
    'state' (concatenated u, q, p), 'p_error', 'converged' and, for GMRES,
    'inner_iters' (one count per monolithic solve).
    """
    out = []
    nxs = sorted(levels)
    for nx in nxs:
        lu, gm = levels[nx]["lu"], levels[nx]["gmres"]
        for name, run in (("lu", lu), ("gmres", gm)):
            if not run["converged"]:
                out.append(f"nx={nx} {name} step did not converge")
        diff = np.max(np.abs(lu["state"] - gm["state"]))
        scale = max(np.max(np.abs(lu["state"])), 1e-300)
        if not diff <= SOLVER_AGREEMENT * scale:
            out.append(f"nx={nx}: LU and GMRES states differ by "
                       f"{diff / scale:.3g} (relative)")
        iters = gm["inner_iters"]
        if len(iters) == 0 or max(iters) > GMRES_MAX_ITERS:
            out.append(f"nx={nx}: GMRES inner iterations {list(iters)} "
                       f"exceed {GMRES_MAX_ITERS} per solve")
    for coarse, fine in zip(nxs, nxs[1:]):
        e0 = levels[coarse]["lu"]["p_error"]
        e1 = levels[fine]["lu"]["p_error"]
        order = math.log(e0 / e1) / math.log(fine / coarse) if e0 > 0 and e1 > 0 \
            else float("nan")
        if not order >= MIN_PRESSURE_ORDER:
            out.append(f"pressure order {order:.3g} between nx={coarse} and "
                       f"nx={fine} is below {MIN_PRESSURE_ORDER:g}")
    return out
