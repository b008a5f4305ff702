import numpy as np
import pytest
import sympy as sy

from porobiot.bench import manufactured_setup
from porobiot.fem import (DofMap, FeFunction, SpaceKind, interpolate,
                          l2_inner, l2_norm, quadrature)
from porobiot.mesh import generate_rect_mesh
from porobiot.physics import MandelConfig, mandel_material, mandel_problem

from oracles import (edge_normal, p1_vector_div_cells, p1_vector_eval,
                     rt0_basis, rt0_div_cells)


def reference_integral(expr):
    """Symbolic integral over the reference triangle (oracle)."""
    x, y = sy.symbols("x y")
    return sy.integrate(sy.integrate(expr, (y, 0, 1 - x)), (x, 0, 1))


def quad_value(rule, f):
    """Apply a rule on the reference triangle (area 1/2)."""
    total = 0.0
    for (l1, l2, l3), w in zip(rule.points, rule.weights):
        # cartesian point of the reference triangle
        total += w * f(l2, l3)
    return 0.5 * total


class TestQuadrature:
    def test_degree1_midpoint(self):
        rule = quadrature(1)
        assert len(rule.weights) == 1
        assert rule.weights.sum() == pytest.approx(1.0)
        assert quad_value(rule, lambda x, y: 1.0) == pytest.approx(0.5)

    def test_degree2_exactness_symbolic(self):
        x, y = sy.symbols("x y")
        rule = quadrature(2)
        lam = (1 - x - y, x, y)
        for i in range(3):
            for j in range(3):
                exact = float(reference_integral(lam[i] * lam[j]))
                got = quad_value(rule, sy.lambdify((x, y), lam[i] * lam[j]))
                assert got == pytest.approx(exact, abs=1e-15)
        # int lam_i lam_j = area / 12 for i != j
        assert float(reference_integral(lam[0] * lam[1])) == pytest.approx(0.5 / 12)

    def test_degree4_exactness_symbolic(self):
        x, y = sy.symbols("x y")
        rule = quadrature(4)
        for expr in (x ** 4, y ** 4, (1 - x - y) ** 4, x ** 2 * y ** 2,
                     x ** 3 * y, x * y, x ** 2):
            exact = float(reference_integral(expr))
            got = quad_value(rule, sy.lambdify((x, y), expr))
            assert got == pytest.approx(exact, abs=1e-15)
        # int lam^4 = area / 15
        assert float(reference_integral(x ** 4)) == pytest.approx(0.5 / 15)

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            quadrature(3)

    @pytest.mark.parametrize("degree", [1, 2, 4])
    def test_cached_rules_are_read_only(self, degree):
        # every caller gets the same rule, so one write would corrupt the
        # assembly of every later caller
        rule = quadrature(degree)
        assert quadrature(degree) is rule
        for arr in (rule.points, rule.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestRT0:
    def setup_method(self):
        self.mesh = generate_rect_mesh((0, 0), (1, 1), 1, 1)

    def test_normal_trace_duality(self):
        # on every edge midpoint, basis j has unit normal component on its
        # own edge (along the global normal) and zero on the others
        mesh = self.mesh
        for cell in range(mesh.n_cells):
            for j in range(3):
                eid = mesh.cell_edge_ids[cell, j]
                for k in range(3):
                    other = mesh.cell_edge_ids[cell, k]
                    a, b = mesh.edges[other]
                    mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
                    vals = rt0_basis(mesh, cell, mid)
                    n = edge_normal(mesh, other)
                    trace = vals[j][0] @ n
                    assert trace == pytest.approx(1.0 if other == eid else 0.0,
                                                  abs=1e-13)

    def test_divergence_value(self):
        # hypotenuse basis on a half-unit-square cell: |e|/|T| = 2 sqrt(2)
        mesh = self.mesh
        cell = 0
        lengths = mesh.edge_lengths[mesh.cell_edge_ids[cell]]
        j = int(np.argmax(lengths))
        vals = rt0_basis(mesh, cell, mesh.cell_centroids()[cell])
        assert abs(vals[j][1]) == pytest.approx(2 * np.sqrt(2.0))
        sign = mesh.cell_edge_signs[cell, j]
        assert vals[j][1] == pytest.approx(sign * 2 * np.sqrt(2.0))

    def test_point_outside_cell(self):
        with pytest.raises(ValueError):
            rt0_basis(self.mesh, 0, (-2.0, -2.0))

    def test_reproduces_own_space(self):
        # interpolating an RT0 coefficient field returns it exactly
        mesh = generate_rect_mesh((0, 0), (1, 1), 3, 3)
        dm = DofMap(mesh, SpaceKind.RT0)
        rng = np.random.default_rng(3)
        f = FeFunction(dm, rng.standard_normal(dm.n_dofs))

        def point_field(x, y):
            cell = mesh.locate_cell((x, y))
            vals = rt0_basis(mesh, cell, (x, y))
            dofs = dm.cell_to_dofs[cell]
            return sum(f.coeffs[d] * v[0] for d, (v) in zip(dofs, vals))

        def field(xs, ys):
            return np.array([point_field(x, y) for x, y in zip(xs, ys)])

        g = interpolate(dm, field)
        assert np.allclose(g.coeffs, f.coeffs, atol=1e-12)

    def test_divergence_in_p0(self):
        mesh = generate_rect_mesh((0, 0), (1, 1), 2, 2)
        dm = DofMap(mesh, SpaceKind.RT0)
        rng = np.random.default_rng(5)
        f = FeFunction(dm, rng.standard_normal(dm.n_dofs))
        divs = rt0_div_cells(f)
        # pointwise divergence equals the cell constant everywhere
        for cell in range(mesh.n_cells):
            corners = mesh.vertices[mesh.cells[cell]]
            for lam in ((0.2, 0.3, 0.5), (0.6, 0.2, 0.2)):
                pt = lam @ corners
                vals = rt0_basis(mesh, cell, pt)
                div = sum(f.coeffs[d] * v[1]
                          for d, v in zip(dm.cell_to_dofs[cell], vals))
                assert div == pytest.approx(divs[cell], rel=1e-12)


class TestP1Vector:
    def setup_method(self):
        self.mesh = generate_rect_mesh((0, 0), (1, 1), 2, 2)
        self.dm = DofMap(self.mesh, SpaceKind.P1_VECTOR)

    def test_rigid_translation(self):
        coeffs = np.tile([3.0, -2.0], 3)
        val, grad, div, strain = p1_vector_eval(self.mesh, 0, coeffs)
        assert np.allclose(val, [3.0, -2.0])
        assert np.allclose(grad, 0.0)
        assert div == 0.0
        assert np.allclose(strain, 0.0)

    def test_identity_field(self):
        f = interpolate(self.dm, lambda x, y: (x, y))
        for cell in range(self.mesh.n_cells):
            local = f.coeffs[self.dm.cell_to_dofs[cell]]
            _, grad, div, strain = p1_vector_eval(self.mesh, cell, local)
            assert div == pytest.approx(2.0)
            assert np.allclose(strain, np.eye(2), atol=1e-14)
            assert abs(np.trace(strain) - div) < 1e-14

    def test_pure_shear(self):
        f = interpolate(self.dm, lambda x, y: (y, 0.0))
        local = f.coeffs[self.dm.cell_to_dofs[1]]
        _, grad, div, strain = p1_vector_eval(self.mesh, 1, local)
        assert div == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(strain, [[0.0, 0.5], [0.5, 0.0]], atol=1e-14)

    def test_div_cells_constant(self):
        rng = np.random.default_rng(11)
        f = FeFunction(self.dm, rng.standard_normal(self.dm.n_dofs))
        divs = p1_vector_div_cells(f)
        for cell in (0, 3, 5):
            local = f.coeffs[self.dm.cell_to_dofs[cell]]
            _, _, div, _ = p1_vector_eval(self.mesh, cell, local)
            assert div == pytest.approx(divs[cell], rel=1e-13)


class TestNorms:
    def test_p0_constant_one(self):
        mesh = generate_rect_mesh((0, 0), (1, 1), 3, 3)
        dm = DofMap(mesh, SpaceKind.P0)
        f = FeFunction(dm, np.ones(dm.n_dofs))
        assert l2_norm(f) == pytest.approx(1.0, rel=1e-14)

    def test_p1_component_x(self):
        # the vector field (x, 0) on the unit square has L2 norm 1/sqrt(3)
        mesh = generate_rect_mesh((0, 0), (1, 1), 4, 4)
        dm = DofMap(mesh, SpaceKind.P1_VECTOR)
        f = interpolate(dm, lambda x, y: (x, 0.0))
        assert l2_norm(f) == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-13)

    def test_rt0_constant_field(self):
        mesh = generate_rect_mesh((0, 0), (1, 1), 3, 3)
        dm = DofMap(mesh, SpaceKind.RT0)
        f = interpolate(dm, lambda x, y: (1.0, 0.0))
        assert l2_norm(f) == pytest.approx(1.0, rel=1e-13)

    def test_norm_homogeneity(self):
        mesh = generate_rect_mesh((0, 0), (2, 1), 3, 2)
        rng = np.random.default_rng(23)
        for kind in SpaceKind:
            dm = DofMap(mesh, kind)
            f = FeFunction(dm, rng.standard_normal(dm.n_dofs))
            base = l2_norm(f)
            for alpha in (-3.7, 0.0, 0.125, 40.0):
                g = FeFunction(dm, alpha * f.coeffs)
                assert l2_norm(g) == pytest.approx(abs(alpha) * base,
                                                   rel=1e-13, abs=1e-15)

    def test_block_norms_are_column_norms(self):
        # each column's norm has the bits of `l2_norm` on that column, for
        # the block widths of a lock-step L-sweep, by each space's mass and
        # by the reduced masses and cell areas of its t1c1 set-up at
        # nx=16; the meshes are large enough for the BLAS dot to take its
        # vector kernel
        mesh = generate_rect_mesh((0, 0), (2, 1), 12, 8)
        ops, _ = manufactured_setup("t1c1", 16)
        rng = np.random.default_rng(24)
        for width in (1, 3, 9):
            for kind in SpaceKind:
                dm = DofMap(mesh, kind)
                block = rng.standard_normal((dm.n_dofs, width))
                got = l2_norm(FeFunction(dm, block))
                assert [float(v).hex() for v in got] == [
                    l2_norm(FeFunction(dm, block[:, j].copy())).hex()
                    for j in range(width)]
            for mass in ops.reduced_masses() + (ops.mesh.areas,):
                block = rng.standard_normal((mass.shape[0], width))
                got = l2_norm(block, mass)
                assert [float(v).hex() for v in got] == [
                    l2_norm(block[:, j].copy(), mass).hex()
                    for j in range(width)]

    def test_inner_space_mismatch(self):
        mesh = generate_rect_mesh((0, 0), (1, 1), 2, 2)
        f = FeFunction(DofMap(mesh, SpaceKind.P0))
        g = FeFunction(DofMap(mesh, SpaceKind.RT0))
        with pytest.raises(ValueError):
            l2_inner(f, g)

    def test_zero_iff_zero_coeffs(self):
        mesh = generate_rect_mesh((0, 0), (1, 1), 2, 2)
        dm = DofMap(mesh, SpaceKind.P0)
        assert l2_norm(FeFunction(dm)) == 0.0
        f = FeFunction(dm, np.zeros(dm.n_dofs))
        f.coeffs[3] = 1e-8
        assert l2_norm(f) > 0.0


def test_dofmap_sizes():
    mesh = generate_rect_mesh((0, 0), (1, 1), 3, 2)
    assert DofMap(mesh, SpaceKind.P1_VECTOR).n_dofs == 2 * mesh.n_vertices
    assert DofMap(mesh, SpaceKind.RT0).n_dofs == mesh.n_edges
    assert DofMap(mesh, SpaceKind.P0).n_dofs == mesh.n_cells


def test_fefunction_length_check():
    mesh = generate_rect_mesh((0, 0), (1, 1), 2, 2)
    dm = DofMap(mesh, SpaceKind.P0)
    with pytest.raises(ValueError):
        FeFunction(dm, np.zeros(dm.n_dofs + 1))


class TestInterpolateArrays:
    """`interpolate` calls its field once on arrays of points; the result
    equals a pointwise loop to the last bit."""

    @staticmethod
    def pointwise(dm, fn):
        mesh = dm.mesh
        out = np.empty(dm.n_dofs)
        if dm.kind is SpaceKind.P0:
            for c, (x, y) in enumerate(mesh.cell_centroids()):
                out[c] = fn(x, y)
        elif dm.kind is SpaceKind.P1_VECTOR:
            for v, (x, y) in enumerate(mesh.vertices):
                out[2 * v], out[2 * v + 1] = fn(x, y)
        else:
            for e, (a, b) in enumerate(mesh.edges):
                va, vb = mesh.vertices[a], mesh.vertices[b]
                fx, fy = fn(0.5 * (va[0] + vb[0]), 0.5 * (va[1] + vb[1]))
                tx = (vb[0] - va[0]) / mesh.edge_lengths[e]
                ty = (vb[1] - va[1]) / mesh.edge_lengths[e]
                out[e] = fx * ty + fy * -tx
        return out

    @pytest.mark.parametrize("field", ["mandel_u0", "constant", "x_tuple"])
    @pytest.mark.parametrize("kind", [SpaceKind.P0, SpaceKind.P1_VECTOR,
                                      SpaceKind.RT0])
    def test_matches_pointwise_loop(self, field, kind):
        cfg = MandelConfig()
        prob = mandel_problem(mandel_material("linear", cfg), cfg)
        fn = {"mandel_u0": prob.initial_u,
              "constant": lambda x, y: (2.5, -1.25),
              "x_tuple": lambda x, y: (x, 0.0)}[field]
        if kind is SpaceKind.P0:
            vector_fn = fn

            def fn(x, y):
                return vector_fn(x, y)[0]
        mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), 7, 5)
        dm = DofMap(mesh, kind)
        got = interpolate(dm, fn).coeffs
        assert got.tobytes() == self.pointwise(dm, fn).tobytes()
        assert got.flags.writeable

    def test_array_with_trailing_components(self):
        mesh = generate_rect_mesh((0, 0), (1, 1), 3, 2)
        dm = DofMap(mesh, SpaceKind.P1_VECTOR)
        f = interpolate(dm, lambda x, y: np.stack([x, 2 * y], axis=-1))
        g = interpolate(dm, lambda x, y: (x, 2 * y))
        assert f.coeffs.tobytes() == g.coeffs.tobytes()
        const = interpolate(dm, lambda x, y: np.array([1.0, -1.0]))
        assert const.coeffs.tolist() == [1.0, -1.0] * mesh.n_vertices
