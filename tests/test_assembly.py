import re
from dataclasses import replace

import numpy as np
import pytest
import sympy as sy

import scipy.sparse as sp

from porobiot.assembly import (BiotOperators, BlockConstraints,
                               ConstraintConflictError, FieldConstraints,
                               assemble_loads, build_operators)
from porobiot.fem import FeFunction, _rt0_values_at, interpolate, quadrature
from porobiot.linalg import CachedLU
from porobiot.mesh import Side, generate_rect_mesh
from porobiot.physics import (MandelConfig, QBc, UBc, mandel_material,
                              mandel_problem, manufactured_material,
                              manufactured_problem)
from porobiot.schemes import build_initial_state

from oracles import (einsum_points, einsum_rt0_values, reference_mass,
                     reference_operators)


@pytest.fixture(scope="module")
def unit_ops():
    mat = manufactured_material("linear")
    prob = manufactured_problem(mat)
    mesh = generate_rect_mesh((0, 0), (1, 1), 2, 2)
    return build_operators(mesh, mat, prob), mat, prob


@pytest.mark.parametrize("build, args, named", [
    ("mech_system", (1e308,), "L2=1e+308"),
    ("flow_schur_system", (1.0, 1e308), "step size tau=1e+308"),
    ("monolithic_schur_system", (1.0, 1.0, 1e308), "step size tau=1e+308"),
    ("monolithic_system", (1.0, 1e308, 0.25), "L2=1e+308"),
    ("monolithic_schur_system", (1e-320, 1.0, 0.25), "L1=9.99989e-321")])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_system_that_is_not_finite_is_refused(unit_ops, build, args,
                                                named):
    # a system matrix is built from its arguments and the constant blocks
    # alone: an entry that overflows is bad input, named by its arguments,
    # and no overflow warning escapes; a finite one is built as before
    ops, _, _ = unit_ops
    with pytest.raises(ValueError, match=rf"{build} of .*{re.escape(named)}"
                                         r".* not finite"):
        getattr(ops, build)(*args)
    finite = getattr(ops, build)(*(1.0 for _ in args))
    assert np.all(np.isfinite(finite.data))


class TestMechanics:
    def test_rigid_translation_in_nullspace(self, unit_ops):
        ops, _, _ = unit_ops
        v = np.tile([0.7, -1.3], ops.mesh.n_vertices)
        assert np.abs(ops.a_e @ v).max() < 1e-13

    def test_div_div_energy_of_identity_field(self, unit_ops):
        # u = (x, y): div u = 2, so u^T D u = int (div u)^2 = 4
        ops, _, _ = unit_ops
        u = interpolate(ops.dofmap_u, lambda x, y: (x, y))
        assert u.coeffs @ (ops.d_div @ u.coeffs) == pytest.approx(4.0, rel=1e-13)

    def test_coupling_divergence_theorem(self, unit_ops):
        # p = 1, z = (x, 0): p^T B_up^T z = int div z = |Omega| = 1
        ops, _, _ = unit_ops
        z = interpolate(ops.dofmap_u, lambda x, y: (x, 0.0))
        p = np.ones(ops.dofmap_p.n_dofs)
        assert p @ (ops.b_up.T @ z.coeffs) == pytest.approx(1.0, rel=1e-13)

    def test_elastic_energy_identity_field(self, unit_ops):
        # u = (x, y): eps = I, 2 mu int eps:eps = 4 with mu = 1
        ops, _, _ = unit_ops
        u = interpolate(ops.dofmap_u, lambda x, y: (x, y))
        assert u.coeffs @ (ops.a_e @ u.coeffs) == pytest.approx(4.0, rel=1e-13)

    @pytest.mark.parametrize("case", ["t1c1", "mandel"])
    def test_div_div_is_the_coupling_through_the_inverse_mass(self, case):
        # D = B_u M_p^-1 B_u^T, to the rounding of the cell terms (exactly
        # on some meshes), so a step applies L2 D u and <h(div u), div z>
        # together as one product with R_u^T B_u
        if case == "mandel":
            cfg = MandelConfig()
            mat = mandel_material("linear", cfg)
            prob = mandel_problem(mat, cfg, final_time=10.0)
            mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), 12, 8)
        else:
            mat = manufactured_material(case)
            prob = manufactured_problem(mat)
            mesh = generate_rect_mesh((0, 0), (1, 1), 8, 8)
        ops = build_operators(mesh, mat, prob)
        product = ops.b_up @ sp.diags(1.0 / mesh.areas) @ ops.b_up_t
        assert abs(ops.d_div).max() > 0.0
        assert (abs(ops.d_div - product).max()
                <= 8 * np.finfo(float).eps * abs(ops.d_div).max())

    def test_spd_structure(self, unit_ops):
        ops, _, _ = unit_ops
        assert (ops.a_e != ops.a_e.T).nnz == 0
        assert (ops.d_div != ops.d_div.T).nnz == 0
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.standard_normal(ops.dofmap_u.n_dofs)
            assert v @ (ops.a_e @ v) >= -1e-12
            assert v @ (ops.d_div @ v) >= -1e-12


class TestFlow:
    def test_p0_mass_is_cell_areas(self):
        mat = manufactured_material("linear")
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), 1, 1)
        ops = build_operators(mesh, mat, prob)
        assert np.allclose(ops.m_p.diagonal(), [0.5, 0.5])

    def test_rt0_mass_constant_field(self, unit_ops):
        ops, _, _ = unit_ops
        q = interpolate(ops.dofmap_q, lambda x, y: (1.0, 0.0))
        assert q.coeffs @ (ops.m_q @ q.coeffs) == pytest.approx(1.0, rel=1e-13)

    def test_flux_divergence_rows_vs_edge_sums(self, unit_ops):
        # adjoint consistency: row T of B_qp holds the signed edge lengths
        ops, _, _ = unit_ops
        mesh = ops.mesh
        dense = ops.b_qp.toarray()
        for cell in range(mesh.n_cells):
            expected = np.zeros(mesh.n_edges)
            for j in range(3):
                e = mesh.cell_edge_ids[cell, j]
                expected[e] = mesh.cell_edge_signs[cell, j] * mesh.edge_lengths[e]
            assert np.allclose(dense[cell], expected, atol=1e-14)

    def test_divergence_theorem_rt0(self, unit_ops):
        # (B_qp q)_T = sum of signed edge fluxes = int_T div q, exact
        ops, _, _ = unit_ops
        rng = np.random.default_rng(8)
        q = rng.standard_normal(ops.dofmap_q.n_dofs)
        from oracles import rt0_div_cells
        divs = rt0_div_cells(FeFunction(ops.dofmap_q, q))
        assert np.allclose(ops.b_qp @ q, divs * ops.mesh.areas, rtol=1e-12)

    def test_mass_spd(self, unit_ops):
        ops, _, _ = unit_ops
        assert (ops.m_q != ops.m_q.T).nnz == 0
        rng = np.random.default_rng(4)
        for _ in range(10):
            v = rng.standard_normal(ops.dofmap_q.n_dofs)
            assert v @ (ops.m_q @ v) > 0

    def test_schur_systems_exactly_symmetric(self, monkeypatch):
        # at this size the sparse products that form and reduce the systems
        # with the pressure eliminated round their (i, j) and (j, i) entries
        # apart, yet the systems must stay symmetric to the last bit
        mat = manufactured_material("t1c1")
        ops = build_operators(generate_rect_mesh((0, 0), (1, 1), 40, 40),
                              mat, manufactured_problem(mat))
        builders = (lambda L1: ops.flow_schur_system(L1, 0.25),
                    lambda L1: ops.monolithic_schur_system(L1, 1.0, 0.25))
        with monkeypatch.context() as m:
            m.setattr(ops, "_reduced_spd", ops._reduced)
            for build in builders:
                raw = build(100.0)
                assert (raw != raw.T).nnz > 0
        for L1 in (0.1, 100.0):
            for build in builders:
                matrix = build(L1)
                assert (matrix != matrix.T).nnz == 0

    @pytest.mark.parametrize("builder, args, names, factored", [
        ("mech_system", (2.0,), ("u",), True),
        ("flow_system", (1.0, 0.25), ("q", "p"), False),
        ("flow_schur_system", (1.0, 0.25), ("q",), True),
        ("monolithic_schur_system", (1.0, 2.0, 0.25), ("u", "q"), True),
        ("monolithic_system", (1.0, 2.0, 0.25), ("u", "q", "p"), False)])
    def test_system_builders_return_bare_reduced_matrices(
            self, builder, args, names, factored):
        # each builder returns the sparse matrix itself, square in the
        # reduced unknowns of its fields (pins and a tie group present);
        # the factored ones in CSC, the format CachedLU factors in
        cfg = MandelConfig()
        mat = mandel_material("linear", cfg)
        ops = build_operators(generate_rect_mesh((0, 0), (cfg.a, cfg.b), 6, 4),
                              mat, mandel_problem(mat, cfg))
        matrix = getattr(ops, builder)(*args)
        n = sum(getattr(ops.constraints, f).n_reduced for f in names)
        assert sp.issparse(matrix) and matrix.shape == (n, n)
        assert n < sum(getattr(ops, f"dofmap_{f}").n_dofs for f in names)
        assert matrix.format == ("csc" if factored else "csr")

    def test_nonpositive_permeability_rejected(self):
        from porobiot.physics import law_catalog, make_material
        b, h = law_catalog("linear")
        for permeability in (0.0, -1.0):
            with pytest.raises(ValueError, match="permeability"):
                make_material(1.0, 1.0, b, h, permeability, 1.0)


@pytest.fixture(scope="module")
def symbolic():
    """Independent symbolic integration of all operators, two-cell square."""
    mat = manufactured_material("linear")
    prob = manufactured_problem(mat)
    mesh = generate_rect_mesh((0, 0), (1, 1), 1, 1)
    ops = build_operators(mesh, mat, prob)
    x, y = sy.symbols("x y")

    n_u, n_q, n_p = (ops.dofmap_u.n_dofs, ops.dofmap_q.n_dofs,
                     ops.dofmap_p.n_dofs)
    A_e = sy.zeros(n_u, n_u)
    D = sy.zeros(n_u, n_u)
    B_up = sy.zeros(n_u, n_p)
    M_q = sy.zeros(n_q, n_q)
    B_qp = sy.zeros(n_p, n_q)
    M_p = sy.zeros(n_p, n_p)

    for cell in range(mesh.n_cells):
        verts = [sy.Matrix(mesh.vertices[v]) for v in mesh.cells[cell]]
        # affine map from the reference triangle, area element 2A
        xi, eta = sy.symbols("xi eta")
        pt = verts[0] + xi * (verts[1] - verts[0]) + eta * (verts[2] - verts[0])
        jac = sy.Abs((verts[1] - verts[0]).T @ sy.Matrix(
            [[0, -1], [1, 0]]) @ (verts[2] - verts[0]))[0]

        def tri_integral(expr):
            expr = expr.subs({x: pt[0], y: pt[1]})
            inner = sy.integrate(expr, (eta, 0, 1 - xi))
            return sy.integrate(inner, (xi, 0, 1)) * jac

        # barycentric coordinates as affine polynomials
        lams = []
        for i in range(3):
            a0, a1, a2 = sy.symbols(f"a0_{i} a1_{i} a2_{i}")
            lam = a0 + a1 * x + a2 * y
            sol = sy.solve([lam.subs({x: verts[j][0], y: verts[j][1]})
                            - (1 if j == i else 0) for j in range(3)],
                           [a0, a1, a2])
            lams.append(lam.subs(sol))

        udofs = ops.dofmap_u.cell_to_dofs[cell]
        grads = [(sy.diff(l, x), sy.diff(l, y)) for l in lams]
        for lj in range(6):
            vj, cj = divmod(lj, 2)
            for lk in range(6):
                vk, ck = divmod(lk, 2)
                # eps(phi_j):eps(phi_k) for phi = lam * e_c
                gj, gk = grads[vj], grads[vk]
                val = sy.Rational(1, 2) * ((1 if cj == ck else 0)
                                           * (gj[0] * gk[0] + gj[1] * gk[1])
                                           + gj[ck] * gk[cj])
                A_e[udofs[lj], udofs[lk]] += tri_integral(2 * 1 * val)
                D[udofs[lj], udofs[lk]] += tri_integral(gj[cj] * gk[ck])
            B_up[udofs[lj], cell] += tri_integral(grads[vj][cj])

        qdofs = ops.dofmap_q.cell_to_dofs[cell]
        area = sy.Rational(1, 1) * jac / 2
        phis = []
        for i in range(3):
            eid = mesh.cell_edge_ids[cell, i]
            sign = int(mesh.cell_edge_signs[cell, i])
            elen = sy.sqrt(sum((sy.Rational(0) + mesh.vertices[
                mesh.edges[eid, 1], d] - mesh.vertices[mesh.edges[eid, 0], d]) ** 2
                for d in range(2)))
            opp = verts[i]
            phis.append(sy.Matrix([sign * elen / (2 * area) * (x - opp[0]),
                                   sign * elen / (2 * area) * (y - opp[1])]))
        for i in range(3):
            for j in range(3):
                M_q[qdofs[i], qdofs[j]] += tri_integral(
                    phis[i].dot(phis[j]))
            div_i = sy.diff(phis[i][0], x) + sy.diff(phis[i][1], y)
            B_qp[cell, qdofs[i]] += tri_integral(div_i)
        M_p[cell, cell] = area
    to_np = lambda m: np.array(m.evalf(20)).astype(float)
    return ops, {"a_e": to_np(A_e), "d_div": to_np(D), "b_up": to_np(B_up),
                 "m_q": to_np(M_q), "b_qp": to_np(B_qp), "m_p": to_np(M_p)}

@pytest.mark.parametrize("name", ["a_e", "d_div", "b_up", "m_q", "b_qp",
                                  "m_p"])
def test_operator_matches_symbolic(symbolic, name):
    ops, ref = symbolic
    got = getattr(ops, name).toarray()
    assert np.abs(got - ref[name]).max() < 1e-12

class TestNonlinearRhs:
    def test_constant_pressure_linear_law(self, unit_ops):
        ops, mat, _ = unit_ops
        state = build_initial_state(ops.problem, ops)
        state.p.coeffs[:] = 3.0
        bp = ops.bp_dual(state.p.coeffs)
        assert np.allclose(bp, 3.0 * ops.mesh.areas, rtol=1e-14)

    def test_cubic_volumetric_stress(self):
        # u = (x, y), h(s) = s^3: <h(div u), div z> with div z = 1 gives
        # 8 * total area
        mat = manufactured_material("t1c1")
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), 2, 2)
        ops = build_operators(mesh, mat, prob)
        u = interpolate(ops.dofmap_u, lambda x, y: (x, y))
        hu = ops.hu_dual(u.coeffs)
        z = interpolate(ops.dofmap_u, lambda x, y: (x, 0.0))  # div z = 1
        assert z.coeffs @ hu == pytest.approx(8.0, rel=1e-13)

    def test_duals_of_a_block_are_its_columns_duals(self):
        # each column of a block gets the bits of its own vector
        mat = manufactured_material("t1c1")
        ops = build_operators(generate_rect_mesh((0, 0), (1, 1), 3, 3), mat,
                              manufactured_problem(mat))
        rng = np.random.default_rng(3)
        U = 0.1 * rng.standard_normal((ops.dofmap_u.n_dofs, 2))
        P = 0.1 * rng.standard_normal((ops.dofmap_p.n_dofs, 2))
        blocks = (ops.hu_dual(U), ops.bp_dual(P))
        for j in range(2):
            u, p = U[:, j].copy(), P[:, j].copy()
            for blk, vec in zip(blocks, (ops.hu_dual(u), ops.bp_dual(p))):
                assert blk.shape == (vec.size, 2)
                assert blk[:, j].tobytes() == vec.tobytes()

    def test_zero_state_exponential(self):
        # b(0) = 1 for the exponential law: entries are the cell areas
        mat = manufactured_material("t1c1")
        prob = manufactured_problem(mat)
        mesh = generate_rect_mesh((0, 0), (1, 1), 2, 2)
        ops = build_operators(mesh, mat, prob)
        state = build_initial_state(prob, ops)
        bp, hu = ops.bp_dual(state.p.coeffs), ops.hu_dual(state.u.coeffs)
        assert np.allclose(bp, mesh.areas, rtol=1e-14)
        assert np.allclose(hu, 0.0)


class TestLoads:
    def test_mandel_loads_vanish(self):
        cfg = MandelConfig()
        mat = mandel_material("linear", cfg)
        prob = mandel_problem(mat, cfg)
        mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), 4, 2)
        ops = build_operators(mesh, mat, prob)
        f, g, s = assemble_loads(ops, 5.0)
        assert np.allclose(g, 0.0)
        assert np.allclose(s, 0.0)
        # only the plate traction remains, totalling the applied force
        y_top = mesh.vertices[:, 1].max()
        total = f.sum()
        assert total == pytest.approx(-cfg.force, rel=1e-13)
        for v, (x, y) in enumerate(mesh.vertices):
            if abs(y - y_top) > 1e-9:
                assert f[2 * v + 1] == 0.0
            assert f[2 * v] == 0.0

    @pytest.mark.parametrize("case", ["mandel", "manufactured"])
    def test_none_loads_are_the_zero_callables(self, case):
        # a body force and source of None are zero: the same bits as the
        # callables that return zeros, with the plate traction of the slab
        # and the boundary data kept
        if case == "mandel":
            cfg = MandelConfig()
            mat = mandel_material("linear", cfg)
            prob = mandel_problem(mat, cfg)
            mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), 7, 3)
        else:
            mat = manufactured_material("linear")
            prob = replace(manufactured_problem(mat), body_force=None,
                           source=None)
            mesh = generate_rect_mesh((0, 0), (1, 1), 5, 5)
        assert prob.body_force is None and prob.source is None
        zeros = replace(
            prob, body_force=lambda x, y, t: np.zeros(np.shape(x) + (2,)),
            source=lambda x, y, t: np.zeros(np.shape(x)))
        ops = build_operators(mesh, mat, prob)
        ops_zeros = build_operators(mesh, mat, zeros)
        for t in (0.0, 2.5):
            got, want = assemble_loads(ops, t), assemble_loads(ops_zeros, t)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert np.any(got[0] != 0.0) == (case == "mandel")

    def test_manufactured_body_loads_vanish_at_t0(self, unit_ops):
        ops, _, prob = unit_ops
        f, g, _ = assemble_loads(ops, 0.0)
        assert np.allclose(f, 0.0)
        assert np.allclose(g, 0.0)

    def test_source_vector_vs_symbolic_integral(self, unit_ops):
        # degree-4 quadrature is exact for the quartic linear-case source
        ops, mat, prob = unit_ops
        mesh = ops.mesh
        _, _, s_vec = assemble_loads(ops, 1.0)
        x, y, xi, eta = sy.symbols("x y xi eta")
        g = x * (1 - x) * y * (1 - y)
        s_f = (g + sy.diff((1 - 2 * x) * y * (1 - y)
                           + x * (1 - x) * (1 - 2 * y), x) * 0
               + ((1 - 2 * x) * y * (1 - y) + x * (1 - x) * (1 - 2 * y))
               - (sy.diff(g, x, 2) + sy.diff(g, y, 2)))
        for cell in (0, 3, 7):
            verts = [sy.Matrix(mesh.vertices[v]) for v in mesh.cells[cell]]
            pt = verts[0] + xi * (verts[1] - verts[0]) + eta * (verts[2] - verts[0])
            jac = 2 * mesh.areas[cell]
            expr = s_f.subs({x: pt[0], y: pt[1]})
            val = sy.integrate(sy.integrate(expr, (eta, 0, 1 - xi)),
                               (xi, 0, 1)) * jac
            assert s_vec[cell] == pytest.approx(float(val), rel=1e-13)


class TestConstraints:
    def test_homogeneous_dirichlet_zeros(self, unit_ops):
        ops, mat, prob = unit_ops
        con = ops.constraints.u
        rng = np.random.default_rng(9)
        x = con.restriction @ rng.standard_normal(con.n_reduced)
        mesh = ops.mesh
        for v, (vx, vy) in enumerate(mesh.vertices):
            on_boundary = (vx in (0.0, 1.0)) or (vy in (0.0, 1.0))
            if on_boundary:
                assert x[2 * v] == 0.0 and x[2 * v + 1] == 0.0

    def test_noflow_edges_pinned(self):
        cfg = MandelConfig()
        mat = mandel_material("linear", cfg)
        prob = mandel_problem(mat, cfg)
        mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), 4, 2)
        ops = build_operators(mesh, mat, prob)
        rng = np.random.default_rng(10)
        con = ops.constraints.q
        q = con.restriction @ rng.standard_normal(con.n_reduced)
        for side in (Side.LEFT, Side.BOTTOM, Side.TOP):
            for e in mesh.boundary_edges(side):
                assert q[e] == 0.0
        for e in mesh.boundary_edges(Side.RIGHT):
            assert q[e] != 0.0  # natural pressure side stays free

    def test_tied_plate_single_unknown(self):
        cfg = MandelConfig()
        mat = mandel_material("linear", cfg)
        prob = mandel_problem(mat, cfg)
        mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), 5, 3)
        ops = build_operators(mesh, mat, prob)
        con = ops.constraints.u
        rng = np.random.default_rng(12)
        x = con.restriction @ rng.standard_normal(con.n_reduced)
        y_top = mesh.vertices[:, 1].max()
        top = [v for v in range(mesh.n_vertices)
               if abs(mesh.vertices[v, 1] - y_top) < 1e-9]
        vals = [x[2 * v + 1] for v in top]
        assert np.ptp(vals) == 0.0
        assert len(top) == 6

    def test_conflicting_constraints_rejected(self):
        with pytest.raises(ConstraintConflictError):
            FieldConstraints(4, pinned=[1], ties=[[1, 2]])
        with pytest.raises(ConstraintConflictError):
            FieldConstraints(4, ties=[[0, 1], [1, 2]])

    def test_apply_essential_bc_roundtrip(self, unit_ops):
        # the reduced mechanics system, solved and expanded back, satisfies
        # the free equations of the full one
        ops, mat, prob = unit_ops
        A = (ops.a_e + ops.d_div).tocsr()
        b = np.ones(ops.dofmap_u.n_dofs)
        R = ops.constraints.composed(("u",))
        x = R @ CachedLU(ops.mech_system(1.0)).solve(R.T @ b)
        assert np.abs(R.T @ (A @ x - b)).max() < 1e-10

    @pytest.mark.parametrize("side, u_bc, q_bc", [
        (Side.LEFT, UBc("fixed", (0.01, 0.0)), None),
        (Side.BOTTOM, None, QBc("noflow", 0.05))], ids=["fixed", "noflow"])
    def test_nonzero_essential_values_refused(self, side, u_bc, q_bc):
        # essential conditions are homogeneous: a non-zero value is refused,
        # with the side it was set on
        mat = manufactured_material("linear")
        prob = manufactured_problem(mat)
        prob = replace(prob, u_bc={**prob.u_bc, **({side: u_bc} if u_bc else {})},
                       q_bc={**prob.q_bc, **({side: q_bc} if q_bc else {})})
        with pytest.raises(ValueError, match=f"{side.value} side"):
            build_operators(generate_rect_mesh((0, 0), (1, 1), 4, 4), mat, prob)


class TestIndexMaps:
    """`FieldConstraints.expand` applies R by a gather, equal to the sparse
    product, and `coordinates` inverts it; `FieldConstraints.restrict` maps
    a block column by column, to the last bit of the sparse product."""

    @staticmethod
    def assert_maps_match(con, seed):
        R = con.restriction
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((R.shape[1], 3))
        X[::5] = -0.0
        expanded = con.expand(X)
        for j in range(3):
            x = X[:, j].copy()
            assert np.array_equal(expanded[:, j], R @ x)   # zeros may keep a sign
            assert con.coordinates(expanded[:, j]).tobytes() == x.tobytes()

    @staticmethod
    def assert_restricts_by_columns(con, seed):
        R = con.restriction
        B = np.random.default_rng(seed).standard_normal((R.shape[0], 3))
        B[::7] = -0.0
        restricted = con.restrict(B)
        for j in range(3):
            b = B[:, j].copy()
            assert restricted[:, j].tobytes() == con.restrict(b).tobytes()
            assert restricted[:, j].tobytes() == (R.T @ b).tobytes()

    def test_blocks_map_column_by_column(self):
        cons = BlockConstraints(
            u=FieldConstraints(12, pinned=[0, 7], ties=[[3, 5, 9]]),
            q=FieldConstraints(5, pinned=[4]),
            p=FieldConstraints(4))
        for seed, name in enumerate("uqp"):
            self.assert_maps_match(getattr(cons, name), seed)
            self.assert_restricts_by_columns(getattr(cons, name), seed + 5)

    def test_numbering_follows_the_dofs(self):
        con = FieldConstraints(8, pinned=[0, 6], ties=[[5, 2, 7]])
        assert con.reduced_of.tolist() == [-1, 0, 1, 2, 3, 1, -1, 1]
        assert con.n_reduced == 4

    def test_pinned_values_and_a_tie_group(self):
        con = FieldConstraints(12, pinned=[0, 7, 11], ties=[[3, 5, 9]])
        self.assert_maps_match(con, seed=1)
        # a field off its constraints is projected: the tie group takes its
        # first DOF's value, and the pinned DOFs read zero
        full = np.arange(12.0)
        back = con.expand(con.coordinates(full)[:, None])[:, 0]
        assert back[[3, 5, 9]].tolist() == [3.0, 3.0, 3.0]
        assert back[[0, 7, 11]].tolist() == [0.0, 0.0, 0.0]

    def test_mandel_composed_systems(self):
        cfg = MandelConfig()
        mat = mandel_material("linear", cfg)
        prob = mandel_problem(mat, cfg)
        ops = build_operators(generate_rect_mesh((0, 0), (cfg.a, cfg.b), 6, 4),
                              mat, prob)
        assert ops.constraints.u.ties  # the tied top plate
        self.assert_maps_match(ops.constraints.u, 1)
        self.assert_maps_match(ops.constraints.q, 2)
        self.assert_restricts_by_columns(ops.constraints.u, 3)
        self.assert_restricts_by_columns(ops.constraints.q, 4)

    @pytest.mark.parametrize("case", ["mandel", "t1c1"])
    def test_composed_restriction_matches_block_diag(self, case):
        if case == "mandel":
            cfg = MandelConfig()
            mat = mandel_material("linear", cfg)
            prob = mandel_problem(mat, cfg)
            mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), 6, 4)
        else:
            mat = manufactured_material(case)
            prob = manufactured_problem(mat)
            mesh = generate_rect_mesh((0, 0), (1, 1), 8, 8)
        cons = build_operators(mesh, mat, prob).constraints
        assert bool(cons.u.ties) == (case == "mandel")
        for names in (("u", "q", "p"), ("u", "q")):
            R = cons.composed(names)
            ref = sp.block_diag([getattr(cons, n).restriction for n in names],
                                format="csr")
            assert R.shape == ref.shape
            for attr in ("indptr", "indices", "data"):
                a, b = getattr(R, attr), getattr(ref, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module", params=["unit 1x1", "unit 3x3", "slab 7x4"])
def reference_case(request):
    """Operators on a 1x1 and a 3x3 unit square (t1c1, pins) and on a 7x4
    grid of the 100 x 10 Mandel slab (cells 14.3 by 2.5, pins and the tied
    plate), where the reference kernels round d_div and the reduced
    displacement mass apart from their transposes."""
    if request.param == "slab 7x4":
        cfg = MandelConfig()
        mat = mandel_material("linear", cfg)
        prob = mandel_problem(mat, cfg)
        mesh = generate_rect_mesh((0, 0), (cfg.a, cfg.b), 7, 4)
    else:
        mat = manufactured_material("t1c1")
        prob = manufactured_problem(mat)
        n = int(request.param[-1])
        mesh = generate_rect_mesh((0, 0), (1, 1), n, n)
    return build_operators(mesh, mat, prob)


class TestReferenceKernels:
    """The set-up kernels against the einsum and per-matrix COO formulas
    of `oracles`: the same structure, values at relative 1e-14."""

    @staticmethod
    def assert_same_matrix(got, want):
        assert got.format == "csr" and got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-14, atol=0.0)

    def test_blocks_match_the_reference_kernels(self, reference_case):
        ops = reference_case
        want = reference_operators(ops.mesh, ops.mat, ops.dofmap_u, ops.dofmap_q)
        for name, matrix in want.items():
            self.assert_same_matrix(getattr(ops, name), matrix)
        # a_e and d_div are scattered at once onto one structure
        assert np.shares_memory(ops.a_e.indices, ops.d_div.indices)
        assert np.shares_memory(ops.a_e.indptr, ops.d_div.indptr)

    def test_reduced_masses_match_the_reference_kernels(self, reference_case):
        ops = reference_case
        con = ops.constraints
        for got, dofmap, c in zip(ops.reduced_masses(),
                                  (ops.dofmap_u, ops.dofmap_q), (con.u, con.q)):
            self.assert_same_matrix(got, reference_mass(dofmap, c.reduced_of,
                                                        c.n_reduced))
        for dofmap in (ops.dofmap_u, ops.dofmap_q, ops.dofmap_p):
            n = dofmap.n_dofs
            self.assert_same_matrix(dofmap.mass_matrix,
                                    reference_mass(dofmap, np.arange(n), n))

    def test_points_and_rt0_values_match_the_reference_kernels(
            self, reference_case):
        mesh = reference_case.mesh
        np.testing.assert_allclose(
            reference_case.load_points,
            einsum_points(mesh, quadrature(4)).transpose(2, 0, 1),
            rtol=1e-14, atol=0.0)
        for degree in (2, 4):
            rule = quadrature(degree)
            np.testing.assert_allclose(
                _rt0_values_at(mesh, rule),
                einsum_rt0_values(mesh, rule).transpose(1, 3, 2, 0),
                rtol=1e-14, atol=0.0)

    def test_masses_and_elastic_blocks_exactly_symmetric(self, reference_case):
        ops = reference_case
        for matrix in (ops.m_q, ops.a_e, ops.d_div, *ops.reduced_masses()):
            assert (matrix != matrix.T).nnz == 0


def test_korn_type_bound():
    # pointwise 2D bound: eps(v):eps(v) >= (1/2) (div v)^2, so the assembled
    # quadratic forms satisfy v^T (A_e / 2mu) v >= 0.5 v^T D v
    mat = manufactured_material("linear")
    prob = manufactured_problem(mat)
    mesh = generate_rect_mesh((0, 0), (1, 1), 6, 6)
    ops = build_operators(mesh, mat, prob)
    R = ops.constraints.u.restriction
    rng = np.random.default_rng(77)
    for _ in range(100):
        v = R @ rng.standard_normal(R.shape[1])
        lhs = v @ (ops.a_e @ v) / (2.0 * mat.mu)
        rhs = 0.5 * (v @ (ops.d_div @ v))
        assert lhs >= rhs - 1e-12 * max(1.0, abs(lhs))

