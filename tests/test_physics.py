import numpy as np
import pytest
import sympy as sy

from porobiot.mesh import Side
from porobiot.physics import (AdmissibleRangeWarning, MandelConfig,
                              MonotonicityError, check_admissible,
                              estimate_constants, law_catalog, make_material,
                              mandel_material, mandel_problem,
                              manufactured_material, manufactured_problem)


class TestLawCatalog:
    def test_t1c1_at_zero(self):
        b, h = law_catalog("t1c1")
        assert float(b(0.0)) == pytest.approx(1.0)
        assert float(b.deriv(0.0)) == pytest.approx(1.0)
        assert float(h(2.0)) == pytest.approx(8.0)

    def test_linear_unit_parameters(self):
        b, h = law_catalog("linear", m_modulus=1.0, lam=1.0)
        assert float(b(2.0)) == pytest.approx(2.0)
        assert float(h(3.0)) == pytest.approx(3.0)

    def test_t2c2_scaled(self):
        b, _ = law_catalog("t2c2", m_modulus=1.65e10)
        assert float(b(1.0)) == pytest.approx(2.0 / 1.65e10, rel=1e-14)

    def test_t2c1_pair(self):
        b, h = law_catalog("t2c1", m_modulus=2.0, lam=3.0)
        assert float(b(2.0)) == pytest.approx((2.0 + 8.0) / 2.0)
        assert float(h(2.0)) == pytest.approx(3.0 * 2.0 + 3.0 * 8.0)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            law_catalog("t9c9")

    @pytest.mark.parametrize("m_modulus", [0.0, -1.0, float("nan"),
                                           float("inf")])
    def test_modulus_must_be_finite_and_positive(self, m_modulus):
        with pytest.raises(ValueError, match="modulus"):
            law_catalog("linear", m_modulus=m_modulus)

    def test_odd_extension_of_cube_roots(self):
        b, h = law_catalog("t1c5")
        assert float(b(-8.0)) == pytest.approx(-2.0)
        assert float(h(-1.0)) == pytest.approx(-1.0)
        # odd symmetry
        for v in (0.3, 1.7):
            assert float(b(-v)) == pytest.approx(-float(b(v)))
            assert float(h(-v)) == pytest.approx(-float(h(v)))

    @pytest.mark.parametrize("case", ["t1c1", "t1c2", "t1c3", "t1c4", "t1c5",
                                      "t2c1", "t2c2", "t2c3"])
    def test_derivatives_match_finite_differences(self, case):
        b, h = law_catalog(case)
        rng = np.random.default_rng(1)
        for law in (b, h):
            lo, hi = law.admissible_range
            xs = rng.uniform(lo, hi, 25)
            eps = 1e-6 * max(1.0, hi - lo)
            fd = (law(xs + eps) - law(xs - eps)) / (2 * eps)
            assert np.allclose(law.deriv(xs), fd, rtol=5e-4, atol=1e-12)
            assert np.all(law.deriv(xs) >= 0.0)


class TestEstimateConstants:
    def test_exponential_endpoints(self):
        b, _ = law_catalog("t1c1")
        lo, hi = estimate_constants(b, rng=(0.0, 0.1), samples=101)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(np.exp(0.1))

    def test_cube_with_zero_minimum(self):
        _, h = law_catalog("t1c1")
        lo, hi = estimate_constants(h, rng=(-0.2, 0.2), samples=101)
        assert lo == pytest.approx(0.0, abs=1e-15)
        assert hi == pytest.approx(3 * 0.2 ** 2)

    def test_cbrt_derivative_formula(self):
        b, _ = law_catalog("t1c3")
        lo, hi = estimate_constants(b, rng=(0.01, 1.0), samples=100)
        assert lo == pytest.approx(1.0 / 3.0)
        assert hi == pytest.approx((1.0 / 3.0) * 0.01 ** (-2.0 / 3.0))

    def test_monotonicity_violation(self):
        from porobiot.physics import NonlinearLaw
        law = NonlinearLaw(lambda x: -x, lambda x: -np.ones_like(x),
                           "dec", (-1.0, 1.0))
        with pytest.raises(MonotonicityError):
            estimate_constants(law)

    def test_secant_slopes_within_constants(self):
        # mean-value property: secants lie in [min deriv, max deriv]
        rng = np.random.default_rng(42)
        for case in ("t1c1", "t1c2", "t1c4"):
            b, h = law_catalog(case)
            for law in (b, h):
                lo, hi = law.admissible_range
                b_m, L_b = estimate_constants(law, samples=1001)
                x = rng.uniform(lo, hi, 10000)
                y = rng.uniform(lo, hi, 10000)
                keep = np.abs(y - x) > 1e-9
                slopes = (law(y[keep]) - law(x[keep])) / (y[keep] - x[keep])
                assert slopes.min() >= b_m - 1e-10
                assert slopes.max() <= L_b + 1e-10

    def test_bad_inputs(self):
        b, _ = law_catalog("t1c1")
        with pytest.raises(ValueError):
            estimate_constants(b, samples=1)
        with pytest.raises(ValueError):
            estimate_constants(b, rng=(1.0, 0.0))


class TestMaterialModel:
    def test_invariants(self):
        b, h = law_catalog("t1c1")
        with pytest.raises(ValueError):
            make_material(1.0, -1.0, b, h, 1.0, 1.0)
        with pytest.raises(ValueError):
            make_material(1.0, 1.0, b, h, 0.0, 1.0)

    @pytest.mark.parametrize("field, value", [
        ("alpha", np.nan), ("alpha", np.inf), ("alpha", -np.inf),
        ("mu", np.nan), ("mu", np.inf), ("permeability", np.nan),
        ("permeability", np.inf), ("nu_f", np.nan), ("nu_f", np.inf)])
    def test_non_finite_inputs_refused(self, field, value):
        b, h = law_catalog("t1c1")
        args = dict(alpha=1.0, mu=1.0, b_law=b, h_law=h, permeability=1.0,
                    nu_f=1.0)
        with pytest.raises(ValueError):
            make_material(**{**args, field: value})

    def test_zero_coupling_is_valid(self):
        # the sensitivity study's alpha axis starts at the decoupled limit
        assert manufactured_material("t1c1", alpha=0.0).alpha == 0.0

    @pytest.mark.parametrize("alpha", [-1.0, -1e-300])
    def test_negative_biot_coefficient_refused(self, alpha):
        with pytest.raises(ValueError):
            manufactured_material("t1c1", alpha=alpha)

    def test_constants_populated(self):
        mat = manufactured_material("t1c1")
        assert mat.b_m == pytest.approx(np.exp(-1.0))
        assert mat.L_b == pytest.approx(np.exp(1.0))
        assert mat.h_m == pytest.approx(0.0, abs=1e-15)
        assert mat.L_h == pytest.approx(3 * 0.5 ** 2)

    def test_admissible_warning(self):
        mat = manufactured_material("t1c1")
        with pytest.warns(AdmissibleRangeWarning):
            check_admissible(mat, np.array([5.0]), np.array([0.0]))
        # linear laws are certified everywhere
        lin = manufactured_material("linear")
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_admissible(lin, np.array([1e9]), np.array([1e9]))


class TestManufactured:
    def test_source_value_at_center(self):
        # linear case, all parameters one: S_f(0.5, 0.5, 1) = 17/16
        mat = manufactured_material("linear")
        prob = manufactured_problem(mat)
        val = float(prob.source(np.array(0.5), np.array(0.5), 1.0))
        assert val == pytest.approx(17.0 / 16.0, rel=1e-14)

    def test_pressure_norm_at_final_time(self):
        # ||p(., 1)|| = 1/30 (symbolic integral of (x(1-x)y(1-y))^2)
        x, y = sy.symbols("x y")
        expr = (x * (1 - x) * y * (1 - y)) ** 2
        exact = sy.sqrt(sy.integrate(sy.integrate(expr, (x, 0, 1)), (y, 0, 1)))
        assert float(exact) == pytest.approx(1.0 / 30.0, rel=1e-14)
        mat = manufactured_material("linear")
        prob = manufactured_problem(mat)
        # sample-based check of the field against the closed form
        rng = np.random.default_rng(0)
        xs, ys = rng.uniform(0, 1, (2, 20))
        assert np.allclose(prob.exact.p(xs, ys, 1.0),
                           xs * (1 - xs) * ys * (1 - ys))

    def test_all_fields_vanish_at_t0(self):
        mat = manufactured_material("t1c2")
        prob = manufactured_problem(mat)
        xs = np.linspace(0, 1, 7)
        assert np.allclose(prob.exact.p(xs, xs, 0.0), 0.0)
        assert np.allclose(prob.exact.u(xs, xs, 0.0), 0.0)
        assert np.allclose(prob.exact.q(xs, xs, 0.0), 0.0)
        assert np.allclose(prob.exact.div_u(xs, xs, 0.0), 0.0)
        assert np.allclose(prob.body_force(xs, xs, 0.0), 0.0)
        # the source keeps its time-derivative forcing at t = 0
        g = xs * (1 - xs) * xs * (1 - xs)
        gx = (1 - 2 * xs) * xs * (1 - xs)
        gy = xs * (1 - xs) * (1 - 2 * xs)
        expected = mat.b_law.deriv(np.zeros_like(xs)) * g + mat.alpha * (gx + gy)
        assert np.allclose(prob.source(xs, xs, 0.0), expected)

    @pytest.mark.parametrize("case", ["linear", "t1c1", "t1c2", "t1c4"])
    def test_strong_form_residual_symbolic_oracle(self, case):
        # independent route: differentiate the exact fields with sympy and
        # substitute into the strong equations together with the generated
        # f and S_f; residuals must vanish at random space-time points
        mat = manufactured_material(case)
        prob = manufactured_problem(mat)
        x, y, t = sy.symbols("x y t")
        g = x * (1 - x) * y * (1 - y)
        p = t * g
        u = (t * g, t * g)
        kk = mat.permeability / mat.nu_f
        q = (-kk * sy.diff(p, x), -kk * sy.diff(p, y))
        div_u = sy.diff(u[0], x) + sy.diff(u[1], y)
        div_q = sy.diff(q[0], x) + sy.diff(q[1], y)
        dt_p = sy.diff(p, t)
        dt_divu = sy.diff(div_u, t)
        # mechanics: -div(2 mu eps(u)) has components
        eps_xx = sy.diff(u[0], x)
        eps_yy = sy.diff(u[1], y)
        eps_xy = (sy.diff(u[0], y) + sy.diff(u[1], x)) / 2
        mech_x = -(sy.diff(2 * mat.mu * eps_xx, x) + sy.diff(2 * mat.mu * eps_xy, y))
        mech_y = -(sy.diff(2 * mat.mu * eps_xy, x) + sy.diff(2 * mat.mu * eps_yy, y))
        grad_divu = (sy.diff(div_u, x), sy.diff(div_u, y))
        grad_p = (sy.diff(p, x), sy.diff(p, y))
        funcs = {name: sy.lambdify((x, y, t), expr) for name, expr in
                 [("p", p), ("divu", div_u), ("divq", div_q), ("dtp", dt_p),
                  ("dtdivu", dt_divu), ("mx", mech_x), ("my", mech_y),
                  ("gdx", grad_divu[0]), ("gdy", grad_divu[1]),
                  ("gpx", grad_p[0]), ("gpy", grad_p[1])]}

        rng = np.random.default_rng(13)
        xs = rng.uniform(0, 1, 100)
        ys = rng.uniform(0, 1, 100)
        ts = rng.uniform(0, 1, 100)
        a = mat.alpha
        s_f = prob.source(xs, ys, ts)
        mass_res = (mat.b_law.deriv(funcs["p"](xs, ys, ts)) * funcs["dtp"](xs, ys, ts)
                    + a * funcs["dtdivu"](xs, ys, ts)
                    + funcs["divq"](xs, ys, ts) - s_f)
        assert np.max(np.abs(mass_res)) < 1e-10

        f = prob.body_force(xs, ys, ts)
        hp = mat.h_law.deriv(funcs["divu"](xs, ys, ts))
        mom_x = (funcs["mx"](xs, ys, ts) - hp * funcs["gdx"](xs, ys, ts)
                 + a * funcs["gpx"](xs, ys, ts) - f[..., 0])
        mom_y = (funcs["my"](xs, ys, ts) - hp * funcs["gdy"](xs, ys, ts)
                 + a * funcs["gpy"](xs, ys, ts) - f[..., 1])
        assert np.max(np.abs(mom_x)) < 1e-10
        assert np.max(np.abs(mom_y)) < 1e-10

    def test_boundary_conditions_homogeneous(self):
        mat = manufactured_material("linear")
        prob = manufactured_problem(mat)
        for side in Side:
            assert prob.u_bc[side].kind == "fixed"
            assert prob.q_bc[side].kind == "pressure"
            assert prob.q_bc[side].value == 0.0


class TestMandel:
    def test_derived_constants_table_values(self):
        cfg = MandelConfig()
        assert cfg.nu == pytest.approx(0.2, rel=1e-12)
        assert cfg.k_drained == pytest.approx(3.3e9, rel=1e-12)
        assert cfg.skempton == pytest.approx(1.65e10 / 1.98e10, rel=1e-12)
        assert cfg.nu_undrained == pytest.approx(0.44, rel=1e-12)

    def test_undrained_poisson_second_route(self):
        # independent identity: nu_u = (3 K_u - 2 mu) / (2 (3 K_u + mu))
        # with the undrained bulk modulus K_u = K_dr + alpha^2 M
        cfg = MandelConfig()
        k_u = cfg.k_drained + cfg.alpha ** 2 * cfg.biot_modulus
        nu_u = (3 * k_u - 2 * cfg.mu) / (2 * (3 * k_u + cfg.mu))
        assert cfg.nu_undrained == pytest.approx(nu_u, rel=1e-12)
        # and the Skempton coefficient as alpha M / K_u
        assert cfg.skempton == pytest.approx(cfg.alpha * cfg.biot_modulus / k_u,
                                             rel=1e-12)

    def test_initial_pressure_value(self):
        cfg = MandelConfig(force=1e4)
        assert cfg.initial_pressure == pytest.approx(40.0, rel=1e-12)

    def test_initial_state_zero_fluid_content_symbolic(self):
        # the instantaneous response carries no fluid exchange:
        # B (1 + nu_u) / (3 M) = alpha (1 - 2 nu_u) / (2 mu a) * a holds
        # identically in (lam, mu, alpha, M); verified symbolically
        lam, mu, alpha, M = sy.symbols("lam mu alpha M", positive=True)
        k_dr = lam + 2 * mu / 3
        B = alpha * M / (k_dr + alpha ** 2 * M)
        nu = lam / (2 * (lam + mu))
        nu_u = (3 * nu + alpha * B * (1 - 2 * nu)) / (3 - alpha * B * (1 - 2 * nu))
        lhs = B * (1 + nu_u) / (3 * M)
        rhs = alpha * (1 - 2 * nu_u) / (2 * mu)
        assert sy.simplify(lhs - rhs) == 0

    def test_problem_initial_and_bcs(self):
        cfg = MandelConfig()
        mat = mandel_material("linear", cfg)
        prob = mandel_problem(mat, cfg)
        assert prob.initial_p(12.0, 3.0) == pytest.approx(40.0)
        assert prob.initial_u(0.0, 0.0) == (0.0, 0.0)
        assert prob.initial_q(5.0, 5.0) == (0.0, 0.0)
        assert prob.u_bc[Side.LEFT].kind == "normal_zero"
        assert prob.u_bc[Side.BOTTOM].kind == "normal_zero"
        assert prob.u_bc[Side.RIGHT].kind == "free"
        assert prob.u_bc[Side.TOP].kind == "tied_normal"
        assert prob.u_bc[Side.TOP].value == pytest.approx(-1e4)
        assert prob.q_bc[Side.RIGHT].kind == "pressure"
        for side in (Side.LEFT, Side.BOTTOM, Side.TOP):
            assert prob.q_bc[side].kind == "noflow"

    def test_si_conversion(self):
        mat = mandel_material("linear")
        assert mat.permeability == pytest.approx(9.869233e-11, rel=1e-12)
        assert mat.nu_f == pytest.approx(1e-2, rel=1e-12)

    def test_initial_pressure_field_uniform(self):
        from porobiot.fem import DofMap, FeFunction, SpaceKind, interpolate, \
            l2_norm
        from porobiot.mesh import generate_rect_mesh
        cfg = MandelConfig()
        mat = mandel_material("linear", cfg)
        prob = mandel_problem(mat, cfg)
        mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), 8, 8)
        p0 = interpolate(DofMap(mesh, SpaceKind.P0), prob.initial_p)
        dev = FeFunction(p0.dofmap, p0.coeffs - cfg.initial_pressure)
        assert l2_norm(dev) < 1e-12

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            MandelConfig(force=-1.0)
        for value in (np.nan, np.inf):
            for field in ("a", "b", "force"):
                with pytest.raises(ValueError):
                    MandelConfig(**{field: value})
        with pytest.raises(ValueError):
            MandelConfig(lam=-5e9)
