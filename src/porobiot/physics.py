"""Material laws, their monotonicity/Lipschitz constants, and benchmark problems.

The law catalog collects the linear pair b(p) = p/M, h(s) = lambda*s and the
non-linear test pairs (exponential, cubic, odd cube roots).  Cube-root laws
are extended to negative arguments as odd functions so iterates that cross
zero stay defined.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import Side

# Field-unit conversions used for the consolidation benchmark inputs.
DARCY = 9.869233e-13      # m^2
CENTIPOISE = 1.0e-3       # Pa*s


class MonotonicityError(ValueError):
    """A coefficient law has a negative derivative on the probed range."""


class AdmissibleRangeWarning(UserWarning):
    """Observed iterates left the range on which law constants are certified."""


@dataclass
class NonlinearLaw:
    """Scalar coefficient law with derivative and certified range.

    eval/deriv are vectorized callables; admissible_range is the interval on
    which the monotonicity and Lipschitz constants are certified.  Laws with
    constant slope are certified everywhere.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    label: str
    admissible_range: tuple[float, float]
    constant_slope: bool = False

    def __call__(self, x):
        return self.eval(x)


def _odd_cbrt_deriv(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.abs(x) ** (-2.0 / 3.0) / 3.0


def _law_exp(scale=1.0, rng=(-1.0, 1.0)):
    return NonlinearLaw(lambda p: scale * np.exp(p),
                        lambda p: scale * np.exp(p),
                        "exp", rng)


def _law_cube(scale=1.0, rng=(-1.0, 1.0)):
    # products, not `**`: numpy's power is about ten times slower here
    def ev(x):
        x = np.asarray(x, dtype=float)
        return scale * (x * x * x)

    def dv(x):
        x = np.asarray(x, dtype=float)
        return 3.0 * scale * (x * x)

    return NonlinearLaw(ev, dv, "cube", rng)


def _law_cbrt(scale=1.0, rng=(1e-4, 1.0)):
    return NonlinearLaw(lambda x: scale * np.cbrt(x),
                        lambda x: scale * _odd_cbrt_deriv(x),
                        "cbrt", rng)


def _law_cbrt5(scale=1.0, rng=(-0.5, 0.5)):
    def ev(x):
        x = np.asarray(x, dtype=float)
        return scale * np.sign(x) * np.abs(x) ** (5.0 / 3.0)

    def dv(x):
        x = np.asarray(x, dtype=float)
        return scale * (5.0 / 3.0) * np.abs(x) ** (2.0 / 3.0)

    return NonlinearLaw(ev, dv, "cbrt5", rng)


def _law_linear(scale, label, rng=(-np.inf, np.inf)):
    return NonlinearLaw(lambda x: scale * np.asarray(x, dtype=float),
                        lambda x: scale * np.ones_like(np.asarray(x, dtype=float)),
                        label, rng, constant_slope=True)


def _law_sum(a: NonlinearLaw, b: NonlinearLaw, label):
    rng = (max(a.admissible_range[0], b.admissible_range[0]),
           min(a.admissible_range[1], b.admissible_range[1]))
    return NonlinearLaw(lambda x: a.eval(x) + b.eval(x),
                        lambda x: a.deriv(x) + b.deriv(x),
                        label, rng)


LAW_CASES = ("linear", "t1c1", "t1c2", "t1c3", "t1c4", "t1c5",
             "t2c1", "t2c2", "t2c3")


def law_catalog(case_id, m_modulus=1.0, lam=1.0,
                p_range=None, s_range=None):
    """Coefficient-function pair (b_law, h_law) for a named test case.

    The first benchmark family (t1c1..t1c5) uses unscaled laws; the
    consolidation family (t2c1..t2c3) and the linear case scale by the
    compressibility modulus and the first Lame parameter.  Certified
    ranges default to solution-informed intervals and can be overridden.
    """
    case = str(case_id).lower()
    if case == "linear":
        b = _law_linear(1.0 / m_modulus, "p/M")
        h = _law_linear(lam, "lam*s")
    elif case == "t1c1":
        b, h = _law_exp(), _law_cube(rng=(-0.5, 0.5))
    elif case == "t1c2":
        b, h = _law_cube(), _law_cube(rng=(-0.5, 0.5))
    elif case == "t1c3":
        b, h = _law_cbrt(), _law_cube(rng=(-0.5, 0.5))
    elif case == "t1c4":
        b, h = _law_cube(), _law_cbrt5()
    elif case == "t1c5":
        b, h = _law_cbrt(), _law_cbrt5()
    elif case == "t2c1":
        b = _law_sum(_law_linear(1.0, "p"), _law_cube(), "(p+p^3)/M")
        b = _scale_law(b, 1.0 / m_modulus, "(p+p^3)/M", rng=(1e-2, 60.0))
        h = _law_sum(_law_linear(lam, "lam*s"), _law_cube(lam, rng=(-1e-4, 1e-4)),
                     "lam*(s+s^3)")
    elif case == "t2c2":
        b = _law_sum(_law_linear(1.0, "p"), _law_cbrt(), "p+cbrt(p)")
        b = _scale_law(b, 1.0 / m_modulus, "(p+cbrt(p))/M", rng=(1e-2, 60.0))
        h = _law_sum(_law_linear(lam, "lam*s"), _law_cbrt5(lam, rng=(-1e-4, 1e-4)),
                     "lam*(s+cbrt(s^5))")
    elif case == "t2c3":
        b = _law_exp(1.0 / m_modulus, rng=(0.0, 45.0))
        b.label = "exp(p)/M"
        h = _law_sum(_law_linear(lam, "lam*s"), _law_cbrt5(lam, rng=(-1e-4, 1e-4)),
                     "lam*(s+cbrt(s^5))")
    else:
        raise ValueError(f"unknown law case {case_id!r}; known: {LAW_CASES}")
    if p_range is not None:
        b.admissible_range = tuple(p_range)
    if s_range is not None:
        h.admissible_range = tuple(s_range)
    return b, h


def _scale_law(law, scale, label, rng):
    return NonlinearLaw(lambda x: scale * law.eval(x),
                        lambda x: scale * law.deriv(x),
                        label, rng)


def estimate_constants(law: NonlinearLaw, rng=None, samples=101):
    """(min, max) of the law derivative over a uniform sample grid.

    Used to populate the monotonicity floor and the Lipschitz bound of a
    law.  A strictly negative derivative anywhere on the grid violates the
    monotonicity assumption and raises; a zero minimum or an infinite
    maximum is returned as-is (degenerate but admissible).
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    lo, hi = law.admissible_range if rng is None else rng
    if law.constant_slope and not (np.isfinite(lo) and np.isfinite(hi)):
        c = float(np.asarray(law.deriv(np.zeros(1)))[0])
        if c < 0.0:
            raise MonotonicityError(f"law {law.label!r} has negative slope")
        return c, c
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid range ({lo}, {hi})")
    grid = np.linspace(lo, hi, samples)
    d = np.asarray(law.deriv(grid), dtype=float)
    if np.any(d < 0.0):
        bad = grid[np.argmin(d)]
        raise MonotonicityError(
            f"law {law.label!r} has negative derivative at {bad:g}")
    return float(d.min()), float(d.max())


@dataclass
class MaterialModel:
    """Poromechanical material: coupling constants, laws and permeability.

    `permeability` is one positive constant K and nu_f the positive (dynamic)
    fluid viscosity; the Darcy weak form weighs the flux by nu_f / K.  The
    law constants (b_m, L_b, h_m, L_h) are estimates over the laws' certified
    ranges and feed the theorem-compliance flags.  No gravity load.
    """

    alpha: float
    mu: float
    b_law: NonlinearLaw
    h_law: NonlinearLaw
    permeability: float
    nu_f: float
    b_m: float = 0.0
    L_b: float = np.inf
    h_m: float = 0.0
    L_h: float = np.inf

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ValueError("Biot coefficient must be finite")
        if not 0 < self.mu < np.inf:
            raise ValueError("shear modulus must be finite > 0")
        if not (0 < self.permeability < np.inf and 0 < self.nu_f < np.inf):
            raise ValueError("permeability and viscosity must be finite > 0")
        if not 0 <= self.b_m <= self.L_b:
            raise ValueError("need 0 <= b_m <= L_b")
        if not 0 <= self.h_m <= self.L_h:
            raise ValueError("need 0 <= h_m <= L_h")


def make_material(alpha, mu, b_law, h_law, permeability, nu_f):
    """Build a MaterialModel of one positive permeability K, estimating the
    law constants from 201 samples of each certified range.  No gravity
    load."""
    b_m, L_b = estimate_constants(b_law, samples=201)
    h_m, L_h = estimate_constants(h_law, samples=201)
    return MaterialModel(alpha=alpha, mu=mu, b_law=b_law, h_law=h_law,
                         permeability=float(permeability), nu_f=nu_f,
                         b_m=b_m, L_b=L_b, h_m=h_m, L_h=L_h)


def check_admissible(mat: MaterialModel, p_values, s_values, context=""):
    """Warn when observed pressures / dilatations leave the certified ranges.

    Returns how many of the two ranges were left (0, 1 or 2), so that a
    caller that silences the warning still counts the excursion.
    """
    left = 0
    if not mat.b_law.constant_slope:
        plo, phi = mat.b_law.admissible_range
        pmin, pmax = float(np.min(p_values)), float(np.max(p_values))
        if pmin < plo - 1e-14 or pmax > phi + 1e-14:
            warnings.warn(
                f"{context}pressure range [{pmin:g}, {pmax:g}] leaves certified "
                f"range [{plo:g}, {phi:g}]", AdmissibleRangeWarning, stacklevel=2)
            left += 1
    if not mat.h_law.constant_slope:
        slo, shi = mat.h_law.admissible_range
        smin, smax = float(np.min(s_values)), float(np.max(s_values))
        if smin < slo - 1e-14 or smax > shi + 1e-14:
            warnings.warn(
                f"{context}dilatation range [{smin:g}, {smax:g}] leaves certified "
                f"range [{slo:g}, {shi:g}]", AdmissibleRangeWarning, stacklevel=2)
            left += 1
    return left


@dataclass
class UBc:
    """Displacement condition on one side.

    kind: 'fixed' (both components prescribed), 'normal_zero' (u.n = 0),
    'free' (natural), or 'tied_normal' (all normal components on the side
    equal one master unknown; `value` is the total normal load on the side).
    """

    kind: str
    value: object = None


@dataclass
class QBc:
    """Flux condition on one side.

    kind: 'noflow' (essential q.n = value, default 0) or 'pressure'
    (natural; `value` is the boundary pressure entering the Darcy RHS).
    """

    kind: str
    value: float = 0.0


@dataclass
class ExactSolution:
    """Analytic fields (vectorized in x, y for fixed t)."""

    p: Callable
    u: Callable
    q: Callable
    div_u: Callable


@dataclass
class ProblemDefinition:
    """One initial-boundary-value problem on a rectangle; `final_time` is
    recorded only, a run's step size and count set how far it marches."""

    final_time: float
    u_bc: dict
    q_bc: dict
    body_force: Callable       # f(x, y, t) -> (..., 2)
    source: Callable           # S_f(x, y, t) -> (...)
    initial_u: Callable        # (x, y) -> (2,)
    initial_p: Callable        # (x, y) -> scalar
    initial_q: Callable        # (x, y) -> (2,)
    exact: Optional[ExactSolution] = None

    def __post_init__(self):
        for side in Side:
            if side not in self.u_bc or side not in self.q_bc:
                raise ValueError(f"boundary side {side} lacks a condition")


def manufactured_problem(mat: MaterialModel, final_time=1.0) -> ProblemDefinition:
    """Unit-square verification problem with a known polynomial solution.

    The pressure and both displacement components equal t*x(1-x)*y(1-y);
    the flux is -K/nu_f grad p.  The body force and fluid source are
    generated by exact differentiation of these fields through the material
    laws, so any admissible (b, h) pair yields a consistent problem.
    Homogeneous conditions: displacement fixed, boundary pressure zero
    (natural in the mixed form); all initial data vanish.
    """
    kk = mat.permeability / mat.nu_f
    alpha, mu = mat.alpha, mat.mu
    bp, hp = mat.b_law.deriv, mat.h_law.deriv

    def g(x, y):
        return x * (1 - x) * y * (1 - y)

    def g_x(x, y):
        return (1 - 2 * x) * y * (1 - y)

    def g_y(x, y):
        return x * (1 - x) * (1 - 2 * y)

    def g_xx(x, y):
        return -2 * y * (1 - y)

    def g_yy(x, y):
        return -2 * x * (1 - x)

    def g_xy(x, y):
        return (1 - 2 * x) * (1 - 2 * y)

    def p_ex(x, y, t):
        return t * g(x, y)

    def u_ex(x, y, t):
        val = t * g(x, y)
        return np.stack([val, val], axis=-1)

    def q_ex(x, y, t):
        return np.stack([-kk * t * g_x(x, y), -kk * t * g_y(x, y)], axis=-1)

    def div_u_ex(x, y, t):
        return t * (g_x(x, y) + g_y(x, y))

    def source(x, y, t):
        # d/dt[b(p) + alpha div u] + div q
        dp_dt = g(x, y)
        ddivu_dt = g_x(x, y) + g_y(x, y)
        div_q = -kk * t * (g_xx(x, y) + g_yy(x, y))
        return bp(p_ex(x, y, t)) * dp_dt + alpha * ddivu_dt + div_q

    def body_force(x, y, t):
        # -div(2 mu eps(u)) - grad h(div u) + alpha grad p
        lap = t * (g_xx(x, y) + g_yy(x, y))
        ddiv_dx = t * (g_xx(x, y) + g_xy(x, y))
        ddiv_dy = t * (g_xy(x, y) + g_yy(x, y))
        hprime = hp(div_u_ex(x, y, t))
        fx = -mu * (lap + ddiv_dx) - hprime * ddiv_dx + alpha * t * g_x(x, y)
        fy = -mu * (lap + ddiv_dy) - hprime * ddiv_dy + alpha * t * g_y(x, y)
        return np.stack([fx, fy], axis=-1)

    zero2 = lambda x, y: (0.0, 0.0)
    return ProblemDefinition(
        final_time=final_time,
        u_bc={s: UBc("fixed", (0.0, 0.0)) for s in Side},
        q_bc={s: QBc("pressure", 0.0) for s in Side},
        body_force=body_force,
        source=source,
        initial_u=zero2,
        initial_p=lambda x, y: 0.0,
        initial_q=zero2,
        exact=ExactSolution(p=p_ex, u=u_ex, q=q_ex, div_u=div_u_ex))


@dataclass
class MandelConfig:
    """Geometry, plate load and linear elastic constants of the slab benchmark.

    The quarter domain is [0, a] x [0, b]; `force` is the load per unit
    depth applied through the rigid plate.  The drained Poisson ratio, the
    Skempton coefficient and the undrained Poisson ratio follow from the
    standard poroelastic identities.
    """

    a: float = 100.0
    b: float = 10.0
    force: float = 1.0e4
    lam: float = 1.65e9
    biot_modulus: float = 1.65e10
    mu: float = 2.475e9
    alpha: float = 1.0

    @property
    def nu(self):
        return self.lam / (2.0 * (self.lam + self.mu))

    @property
    def k_drained(self):
        return self.lam + 2.0 * self.mu / 3.0

    @property
    def skempton(self):
        am = self.alpha * self.biot_modulus
        return am / (self.k_drained + self.alpha * am)

    @property
    def nu_undrained(self):
        bb = self.alpha * self.skempton * (1.0 - 2.0 * self.nu)
        return (3.0 * self.nu + bb) / (3.0 - bb)

    @property
    def initial_pressure(self):
        return self.force * self.skempton * (1.0 + self.nu_undrained) / (3.0 * self.a)

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.a, self.b, self.force)):
            raise ValueError("dimensions and plate load must be finite > 0")
        if not 0.0 < self.nu < 0.5:
            raise ValueError(f"drained Poisson ratio {self.nu:g} outside (0, 1/2)")
        if not 0.0 < self.skempton <= 1.0:
            raise ValueError(f"Skempton coefficient {self.skempton:g} outside (0, 1]")
        if not self.nu <= self.nu_undrained < 0.5:
            raise ValueError("undrained Poisson ratio out of range")


def mandel_problem(mat: MaterialModel, cfg: MandelConfig,
                   final_time=500.0) -> ProblemDefinition:
    """Consolidation benchmark on the quarter slab [0,a] x [0,b].

    Symmetry sides are impermeable with zero normal displacement, the
    right side drains at zero pressure and is traction free, and the top
    carries the rigid frictionless plate: zero shear, all vertical
    displacements tied to one master unknown loaded by the total force.
    The initial state is the instantaneous undrained response (uniform
    pressure, zero flux, linear displacement).
    """
    a, force = cfg.a, cfg.force
    nu_u, mu = cfg.nu_undrained, cfg.mu
    p0 = cfg.initial_pressure

    def u0(x, y):
        return (force * nu_u * x / (2.0 * mu * a),
                -force * (1.0 - nu_u) * y / (2.0 * mu * a))

    def zero_vec(x, y, t):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (2,))

    def zero_scalar(x, y, t):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ProblemDefinition(
        final_time=final_time,
        u_bc={Side.LEFT: UBc("normal_zero"),
              Side.BOTTOM: UBc("normal_zero"),
              Side.RIGHT: UBc("free"),
              Side.TOP: UBc("tied_normal", -force)},
        q_bc={Side.LEFT: QBc("noflow"),
              Side.BOTTOM: QBc("noflow"),
              Side.TOP: QBc("noflow"),
              Side.RIGHT: QBc("pressure", 0.0)},
        body_force=zero_vec,
        source=zero_scalar,
        initial_u=u0,
        initial_p=lambda x, y: p0,
        initial_q=lambda x, y: (0.0, 0.0),
        exact=None)


def mandel_material(case_id="linear", cfg: Optional[MandelConfig] = None,
                    permeability=100.0 * DARCY, viscosity=10.0 * CENTIPOISE,
                    p_range=None, s_range=None):
    """Material for the consolidation benchmark (field units already in SI)."""
    cfg = cfg or MandelConfig()
    b_law, h_law = law_catalog(case_id, m_modulus=cfg.biot_modulus, lam=cfg.lam,
                               p_range=p_range, s_range=s_range)
    return make_material(alpha=cfg.alpha, mu=cfg.mu, b_law=b_law, h_law=h_law,
                         permeability=permeability, nu_f=viscosity)


def manufactured_material(case_id="linear", permeability=1.0, alpha=1.0,
                          mu=1.0, lam=1.0, m_modulus=1.0, nu_f=1.0,
                          p_range=None, s_range=None):
    """Material for the unit-square verification problem (all defaults 1)."""
    b_law, h_law = law_catalog(case_id, m_modulus=m_modulus, lam=lam,
                               p_range=p_range, s_range=s_range)
    return make_material(alpha=alpha, mu=mu, b_law=b_law, h_law=h_law,
                         permeability=permeability, nu_f=nu_f)
