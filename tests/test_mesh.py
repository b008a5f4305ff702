import numpy as np
import pytest

from porobiot.mesh import Mesh, MeshError, Side, generate_rect_mesh

from oracles import cell_geometry, reference_mesh


def test_smallest_mesh_counts():
    m = generate_rect_mesh((0, 0), (1, 1), 1, 1)
    assert m.n_vertices == 4
    assert m.n_edges == 5
    assert m.n_cells == 2
    assert m.n_vertices - m.n_edges + m.n_cells == 1


def test_2x2_counts():
    m = generate_rect_mesh((0, 0), (1, 1), 2, 2)
    assert (m.n_vertices, m.n_edges, m.n_cells) == (9, 16, 8)


def test_mandel_grid_counts():
    m = generate_rect_mesh((0, 0), (100, 10), 40, 40)
    assert m.n_vertices == 1681
    assert m.n_cells == 3200


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (8, 8)])
def test_euler_relation(nx, ny):
    m = generate_rect_mesh((0, 0), (2, 1), nx, ny)
    assert m.n_vertices - m.n_edges + m.n_cells == 1


def test_invalid_inputs():
    with pytest.raises(ValueError):
        generate_rect_mesh((0, 0), (1, 1), 0, 3)
    with pytest.raises(ValueError):
        generate_rect_mesh((0, 0), (-1, 1), 2, 2)
    # non-finite corners would build NaN areas and mesh sizes
    for origin, extent in (((0, 0), (np.inf, 1)), ((0, np.nan), (1, 1)),
                           ((-np.inf, 0), (1, 1)), ((0, 0), (1, np.nan))):
        with pytest.raises(ValueError, match="finite"):
            generate_rect_mesh(origin, extent, 2, 2)
    # a bool or a float is not a cell count (True would build a 1x1 mesh)
    for nx, ny in ((True, 2), (2, False), (2.0, 2), (2, "2")):
        with pytest.raises(ValueError, match="integers"):
            generate_rect_mesh((0, 0), (1, 1), nx, ny)
    assert generate_rect_mesh((0, 0), (1, 1), np.int64(2), 2).n_cells == 8


@pytest.mark.parametrize("origin, extent, nx, ny", [
    ((0, 0), (1, 1), 1, 1), ((0, 0), (1, 1), 3, 3),
    ((0.3, -1.0), (2.7, 0.4), 5, 3), ((0, 0), (100, 10), 40, 40),
    ((1, 2), (3, 4), 1, 7)])
def test_structured_numbering_matches_the_reference(origin, extent, nx, ny):
    # the edges, cell edges and signs numbered from the grid, and the
    # geometry along the cells, are those of np.unique, the normals and
    # np.linalg.norm, to the last bit
    m = generate_rect_mesh(origin, extent, nx, ny)
    for name, want in reference_mesh(m).items():
        got = getattr(m, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_cell_geometry_reference_triangle():
    # cell 0 of the unit 1x1 mesh is (0,0), (1,0), (1,1); use a custom mesh
    # matching the reference triangle instead
    m = generate_rect_mesh((0, 0), (1, 1), 1, 1)
    # upper cell is (0,0), (1,1), (0,1); check the lower one against known
    # affine formulas by direct construction
    geo = cell_geometry(m, 0)
    assert geo.area == pytest.approx(0.5, abs=1e-15)
    assert geo.grads.sum(axis=0) == pytest.approx(np.zeros(2), abs=1e-14)
    assert geo.diameter == pytest.approx(np.sqrt(2.0))


def test_reference_triangle_gradients():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    cell_edges = np.array([[2, 1, 0]])
    signs = np.array([[1, -1, 1]])
    m = Mesh(verts, cells, edges, cell_edges, signs, {0: Side.BOTTOM,
                                                      1: Side.LEFT,
                                                      2: Side.RIGHT})
    geo = cell_geometry(m, 0)
    assert geo.area == pytest.approx(0.5)
    expected = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(geo.grads, expected, atol=1e-14)


def test_scaled_triangle_gradients_affine_oracle():
    # doubling the reference triangle scales the area by 4 and halves the
    # barycentric gradients (affine pull-back)
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    cells = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    m = Mesh(verts, cells, edges, np.array([[2, 1, 0]]),
             np.array([[1, -1, 1]]), {})
    geo = cell_geometry(m, 0)
    assert geo.area == pytest.approx(2.0)
    expected = 0.5 * np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(geo.grads, expected, atol=1e-14)
    # no structured metadata: point location falls back to the scan
    assert m.structured is None
    assert m.locate_cell((0.5, 0.5)) == 0


def test_gradients_partition_of_unity():
    m = generate_rect_mesh((0.3, -1.0), (2.7, 1.9), 5, 4)
    assert np.allclose(m.grads.sum(axis=1), 0.0, atol=1e-13)


def test_cell_geometry_bad_index():
    m = generate_rect_mesh((0, 0), (1, 1), 2, 2)
    with pytest.raises(ValueError):
        cell_geometry(m, 99)


def test_boundary_edges_bottom_2x2():
    m = generate_rect_mesh((0, 0), (1, 1), 2, 2)
    bottom = m.boundary_edges(Side.BOTTOM)
    assert len(bottom) == 2
    for e in bottom:
        assert np.allclose(m.vertices[m.edges[e], 1], 0.0)


def test_boundary_edges_all_tags_1x1():
    m = generate_rect_mesh((0, 0), (1, 1), 1, 1)
    total = sum(len(m.boundary_edges(s)) for s in Side)
    assert total == 4


def test_boundary_edges_mandel_counts():
    m = generate_rect_mesh((0, 0), (100, 10), 40, 40)
    assert len(m.boundary_edges(Side.LEFT)) == 40
    assert len(m.boundary_edges(Side.RIGHT)) == 40
    assert len(m.boundary_edges(Side.TOP)) == 40
    assert len(m.boundary_edges(Side.BOTTOM)) == 40


def test_boundary_edges_built_once_sorted_and_read_only():
    m = generate_rect_mesh((0, 0), (3, 2), 3, 5)
    for s in Side:
        edges = m.boundary_edges(s)
        assert edges is m.boundary_edges(s)
        assert np.all(np.diff(edges) > 0)
        with pytest.raises(ValueError):
            edges[0] = 0


def test_boundary_partition_disjoint():
    m = generate_rect_mesh((0, 0), (3, 2), 3, 5)
    tagged = [e for s in Side for e in m.boundary_edges(s)]
    assert len(tagged) == len(set(tagged)) == len(m.boundary_tags)


def test_interior_edges_have_opposite_signs():
    m = generate_rect_mesh((0, 0), (1, 1), 4, 3)
    sign_sum = np.zeros(m.n_edges, dtype=int)
    np.add.at(sign_sum, m.cell_edge_ids.ravel(), m.cell_edge_signs.ravel())
    for e in range(m.n_edges):
        if e in m.boundary_tags:
            assert abs(sign_sum[e]) == 1
        else:
            assert sign_sum[e] == 0


def test_edge_sharing_counts():
    m = generate_rect_mesh((0, 0), (1, 1), 3, 3)
    counts = np.bincount(m.cell_edge_ids.ravel(), minlength=m.n_edges)
    for e in range(m.n_edges):
        assert counts[e] == (1 if e in m.boundary_tags else 2)


def test_total_area_and_refinement():
    for n in (2, 4, 8):
        m = generate_rect_mesh((0, 0), (2.5, 1.5), n, n)
        assert m.areas.sum() == pytest.approx(2.5 * 1.5, rel=1e-12)
    coarse = generate_rect_mesh((0, 0), (1, 1), 4, 4)
    fine = generate_rect_mesh((0, 0), (1, 1), 8, 8)
    assert fine.areas.max() == pytest.approx(coarse.areas.max() / 4)
    assert fine.h == pytest.approx(coarse.h / 2)


def test_boundary_vertices_on_rectangle():
    m = generate_rect_mesh((1, 2), (3, 4), 5, 3)
    for e in m.boundary_tags:
        for v in m.edges[e]:
            x, y = m.vertices[v]
            on = (abs(x - 1) < 1e-12 or abs(x - 4) < 1e-12
                  or abs(y - 2) < 1e-12 or abs(y - 6) < 1e-12)
            assert on


def test_positive_areas_and_ccw():
    m = generate_rect_mesh((0, 0), (1, 1), 6, 6)
    assert np.all(m.areas > 0)


def test_degenerate_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    clockwise = np.array([[0, 2, 1]])
    edges = np.array([[0, 1], [0, 2], [1, 2]])
    with pytest.raises(MeshError):
        Mesh(verts, clockwise, edges, np.array([[0, 1, 2]]),
             np.array([[1, 1, 1]]), {})
    # a NaN area is not `<= 0` either, and must be refused too
    nan_corner = np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(MeshError):
        Mesh(nan_corner, np.array([[0, 1, 2]]), edges, np.array([[2, 1, 0]]),
             np.array([[1, -1, 1]]), {})


def test_anisotropic_grid_orientation():
    m = generate_rect_mesh((0, 0), (100, 10), 8, 8)  # dx = 12.5, dy = 1.25
    sign_sum = np.zeros(m.n_edges, dtype=int)
    np.add.at(sign_sum, m.cell_edge_ids.ravel(), m.cell_edge_signs.ravel())
    interior = [e for e in range(m.n_edges) if e not in m.boundary_tags]
    assert np.all(sign_sum[interior] == 0)
    assert m.areas.sum() == pytest.approx(1000.0, rel=1e-12)


def test_locate_cell():
    m = generate_rect_mesh((0, 0), (2, 1), 4, 4)
    rng = np.random.default_rng(7)
    for _ in range(50):
        pt = rng.uniform((0, 0), (2, 1))
        c = m.locate_cell(pt)
        assert m._bary(c, pt).min() >= -1e-12
    with pytest.raises(MeshError):
        m.locate_cell((5.0, 5.0))


@pytest.mark.parametrize("point", [(np.inf, 0.5), (0.5, -np.inf),
                                   (np.nan, 0.5), (0.5, np.nan)])
def test_locate_cell_refuses_a_non_finite_point(point):
    m = generate_rect_mesh((0, 0), (2, 1), 4, 4)
    with pytest.raises(MeshError, match="outside the mesh"):
        m.locate_cell(point)


def test_mesh_immutable():
    m = generate_rect_mesh((0, 0), (1, 1), 2, 2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 9.0
