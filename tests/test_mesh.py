import math

import numpy as np
import pytest

from anisolap import (
    Disk,
    Polygon,
    Rectangle,
    area,
    build_mesh,
    interior_dof_map,
    lshape,
    min_angle,
    polygonize,
    refine,
    triangulate,
)
from anisolap.geometry import GeometryError
from anisolap.mesh import Mesh, mirror_permutation, refine_domain


def test_square_minimal_triangulation():
    m = triangulate(polygonize(Rectangle(1.0, 1.0)))
    assert m.n_triangles == 2
    assert m.tri_area.sum() == pytest.approx(4.0, rel=1e-12)


def test_convex_polygon_triangle_count():
    phi = 2.0 * math.pi * np.arange(16) / 16
    poly = Polygon(np.column_stack([np.cos(phi), np.sin(phi)]))
    m = triangulate(poly)
    assert m.n_triangles == 14  # n - 2
    assert m.tri_area.sum() == pytest.approx(area(poly), rel=1e-10)


def test_lshape_triangulation_conforming():
    m = triangulate(lshape())
    assert m.n_triangles == 4
    assert m.tri_area.sum() == pytest.approx(3.0, rel=1e-12)
    # hand oracle: clipping ears of the 6-vertex L never uses the notch vertex
    # as an ear, and every triangle is counterclockwise
    p = m.nodes[m.triangles]
    cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 1, 1] - p[:, 0, 1]
    ) * (p[:, 2, 0] - p[:, 0, 0])
    assert np.all(cross > 0)


def test_collinear_quadrilateral_meshes():
    # three vertices on x = 3: the ear at (3, 2) would have its diagonal run
    # through (3, -1), so the convex fast path must not take this polygon
    poly = Polygon(np.array([[3.0, 2.0], [-1.0, -3.0], [3.0, -1.0], [3.0, 1.0]]))
    m = triangulate(poly)
    assert m.n_triangles == 2
    assert m.tri_area.sum() == pytest.approx(area(poly), rel=1e-12)


def test_every_accepted_lattice_polygon_meshes():
    # random polygons on a small lattice cross, touch, repeat vertices and
    # have collinear runs; each one that Polygon accepts must mesh
    rng = np.random.default_rng(0)
    accepted = 0
    for _ in range(2000):
        v = rng.integers(-3, 4, size=(int(rng.integers(3, 9)), 2)).astype(float)
        try:
            poly = Polygon(v)
        except ValueError:
            continue
        accepted += 1
        m = build_mesh(poly, 1)
        assert m.tri_area.sum() == pytest.approx(area(poly), rel=1e-12)
    assert accepted == 266


def test_refine_counts():
    m = triangulate(polygonize(Rectangle(1.0, 1.0)))
    assert refine(m, 0) is m
    m3 = refine(m, 3)
    assert m3.n_triangles == 2 * 4**3 == 128
    for level in (1, 2, 4):
        ml = refine(m, level)
        assert ml.n_triangles == 2 * 4**level
        assert ml.n_nodes == (2**level + 1) ** 2
        assert int(ml.boundary_node.sum()) == 4 * 2**level


def test_refine_preserves_area_and_min_angle():
    coarse = triangulate(lshape())
    fine = refine(coarse, 3)
    assert fine.tri_area.sum() == pytest.approx(3.0, rel=1e-12)
    # midpoint subdivision keeps each child similar to its parent
    assert min_angle(fine) >= min_angle(coarse) - 1e-12


def test_grad_map_reproduces_affine_fields():
    m = build_mesh(lshape(), 2)
    u = 3.0 + 2.0 * m.nodes[:, 0] - 5.0 * m.nodes[:, 1]
    grads = np.einsum("tij,tj->ti", m.grad_map, u[m.triangles])
    np.testing.assert_allclose(grads[:, 0], 2.0, atol=1e-12)
    np.testing.assert_allclose(grads[:, 1], -5.0, atol=1e-12)


def test_interior_dof_map_counts():
    coarse = triangulate(polygonize(Rectangle(1.0, 1.0)))
    with pytest.raises(ValueError):
        interior_dof_map(coarse)  # no interior node at level 0
    m2 = refine(coarse, 2)
    idx, n_int = interior_dof_map(m2)
    assert m2.n_nodes == 25 and n_int == 9
    assert int(m2.boundary_node.sum()) + n_int == m2.n_nodes
    dense = idx[idx >= 0]
    assert sorted(dense.tolist()) == list(range(n_int))


def test_boundary_flags_propagate_to_edge_midpoints():
    m = refine(triangulate(polygonize(Rectangle(1.0, 1.0))), 1)
    on_edge = (np.abs(np.abs(m.nodes[:, 0]) - 1.0) < 1e-14) | (
        np.abs(np.abs(m.nodes[:, 1]) - 1.0) < 1e-14
    )
    np.testing.assert_array_equal(m.boundary_node, on_edge)


def test_mesh_rejects_clockwise_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    from anisolap import Mesh

    with pytest.raises(ValueError):
        Mesh.from_arrays(nodes, np.array([[0, 2, 1]]))


def test_mesh_rejects_edge_shared_by_three_triangles():
    # edge (0, 1) is a side of all three counterclockwise triangles
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    with pytest.raises(GeometryError, match="non-conforming"):
        Mesh.from_arrays(nodes, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))


@pytest.mark.parametrize("domain", [lshape(), Disk(1.5, (0.5, -0.25))], ids=["lshape", "disk"])
def test_edge_table_contract(domain):
    m = build_mesh(domain, 2)
    # the sorted node pairs of the edges, in sorted order, as a set builds them
    ref = sorted({tuple(sorted(e)) for t in m.triangles.tolist() for e in (t[:2], t[1:], t[::2])})
    np.testing.assert_array_equal(m.edges, np.array(ref))
    # column k of tri_edge is the edge joining local vertices k and k + 1
    for k in range(3):
        ends = np.sort(m.triangles[:, [k, (k + 1) % 3]], axis=1)
        np.testing.assert_array_equal(m.edges[m.tri_edge[:, k]], ends)
    for arr in (m.edges, m.tri_edge):
        assert not arr.flags.writeable
    if isinstance(domain, Polygon):
        # refinement appends the midpoint of edge e as node n_nodes + e (a
        # disk's new boundary nodes are moved onto its circle)
        fine = refine(m, 1)
        np.testing.assert_array_equal(fine.nodes[: m.n_nodes], m.nodes)
        np.testing.assert_array_equal(fine.nodes[m.n_nodes :], m.nodes[m.edges].mean(axis=1))


@pytest.mark.parametrize("domain", [Disk(1.0), Rectangle(1.0, 1.0)], ids=["disk", "square"])
def test_build_mesh_rejects_negative_level(domain):
    with pytest.raises(ValueError, match="levels must be nonnegative"):
        build_mesh(domain, -1)


def test_build_mesh_disk_levels():
    disk = Disk(1.5, (0.5, -0.25))
    coarse = build_mesh(disk, 1)
    for level in range(2, 7):
        m = build_mesh(disk, level)
        # the centre and the inscribed hexagon, refined level times
        assert m.n_triangles == 6 * 4**level
        assert m.n_nodes == 3 * 2**level * (2**level + 1) + 1
        assert int(m.boundary_node.sum()) == 6 * 2**level
        radius = np.hypot(*(m.nodes[m.boundary_node] - disk.center).T)
        np.testing.assert_allclose(radius, disk.radius, rtol=0.0, atol=1e-14)
        # refinement keeps the coarse nodes, in order, so the meshes are nested
        np.testing.assert_array_equal(m.nodes[: coarse.n_nodes], coarse.nodes)
        assert math.degrees(min_angle(m)) >= 40.0
        coarse = m


def test_refine_onto_disk_continues_its_mesh():
    # a disk's mesh refined onto its circle is the mesh of the finer level;
    # without the projection the new boundary nodes stay on the hexagon's chords
    disk = Disk(1.5, (0.5, -0.25))
    m2, m4 = build_mesh(disk, 2), build_mesh(disk, 4)
    onto = refine(m2, 2, onto=disk)
    np.testing.assert_array_equal(onto.nodes, m4.nodes)
    np.testing.assert_array_equal(onto.triangles, m4.triangles)
    chords = refine(m2, 2)
    np.testing.assert_array_equal(chords.triangles, m4.triangles)
    radius = np.hypot(*(chords.nodes[chords.boundary_node] - disk.center).T)
    assert radius.min() < disk.radius - 1e-3


MESH_FIELDS = ("nodes", "triangles", "boundary_node", "tri_area", "grad_map", "edges", "tri_edge")


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "domain",
    [lshape(), Rectangle(1.0, 2.0), Disk(1.5, (0.5, -0.25))],
    ids=["lshape", "rectangle", "offset-disk"],
)
def test_one_level_refinement_is_the_next_level(domain, level):
    # the mesh of the level below refined once, onto a disk's circle, is the
    # level's mesh bit for bit, so a run that holds it can refine it instead
    # of meshing the domain again
    coarse, fine = build_mesh(domain, level - 1), build_mesh(domain, level)
    onto = domain if isinstance(domain, Disk) else None
    for m in (refine(coarse, 1, onto=onto), refine_domain(coarse, domain, 1)):
        for name in MESH_FIELDS:
            got, ref = getattr(m, name), getattr(fine, name)
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes(), name
            assert not got.flags.writeable


def star(n: int) -> Polygon:
    """A star of n vertices alternating between radii 1 and 1/2."""
    phi = 2.0 * math.pi * np.arange(n) / n
    r = np.where(np.arange(n) % 2 == 0, 1.0, 0.5)
    return Polygon(np.column_stack([r * np.cos(phi), r * np.sin(phi)]))


@pytest.mark.parametrize(
    "poly, triangles",
    [
        (lshape(), [[0, 1, 2], [5, 0, 2], [4, 5, 2], [2, 3, 4]]),
        (polygonize(Rectangle(1.0, 2.0)), [[3, 0, 1], [1, 2, 3]]),
        (
            # collinear runs on y = 0 and x = 2, so no ear is convex-only
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [2.0, 2.0],
                              [1.0, 2.0], [1.0, 1.0], [0.0, 1.0]])),
            [[7, 0, 1], [1, 2, 3], [3, 4, 5], [3, 5, 6], [1, 3, 6], [1, 6, 7]],
        ),
        (
            star(24),
            [[23, 0, 1], [15, 16, 17], [1, 2, 3], [3, 4, 5], [7, 8, 9], [11, 12, 13],
             [19, 20, 21], [5, 6, 7], [9, 10, 11], [13, 14, 15], [17, 18, 19], [21, 22, 23],
             [13, 15, 17], [11, 13, 17], [9, 11, 17], [7, 9, 17], [5, 7, 17], [3, 5, 17],
             [3, 17, 19], [3, 19, 21], [1, 3, 21], [1, 21, 23]],
        ),
    ],
    ids=["lshape", "rectangle", "collinear", "star24"],
)
def test_triangulate_pins_its_ears(poly, triangles):
    # the clipping order, ear by ear: the largest minimum angle first, ties
    # on the lowest vertex index
    assert triangulate(poly).triangles.tolist() == triangles


# (x, y) -> (-y, -x) and (y, x) about the centroid: the 135 and 45 degree lines
REFLECTIONS = {135: lambda d: -d[:, ::-1], 45: lambda d: d[:, ::-1]}


def triangle_set(triangles: np.ndarray) -> set:
    return {tuple(t) for t in np.sort(triangles, axis=1).tolist()}


@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "domain, axis",
    [
        (Rectangle(1.0, 1.0), 135),
        (lshape(), 135),
        (Polygon(lshape().vertices[::-1] * [1.0, -1.0]), 45),  # y -> -y
        (Polygon(np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)), 45),
        (Polygon(np.array([[-0.5, -1.25], [1.5, -1.25], [1.5, 0.75], [-0.5, 0.75]])), 135),
    ],
    ids=["square", "lshape", "mirrored-lshape", "corner-lshape", "moved-square"],
)
def test_mirror_permutation_detects_diagonal_symmetry(domain, axis, level):
    m = build_mesh(domain, level)
    perm = mirror_permutation(m)
    assert perm is not None
    n = m.n_nodes
    np.testing.assert_array_equal(np.sort(perm), np.arange(n))
    np.testing.assert_array_equal(perm[perm], np.arange(n))  # a reflection is an involution
    d = m.nodes - m.nodes.mean(axis=0)
    np.testing.assert_allclose(d[perm], REFLECTIONS[axis](d), rtol=0.0, atol=1e-12)
    assert triangle_set(perm[m.triangles]) == triangle_set(m.triangles)
    assert np.array_equal(m.boundary_node[perm], m.boundary_node)


@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "domain",
    [
        Rectangle(1.0, 2.0),
        Disk(1.0),
        Polygon(np.array([[0.0, 0.0], [2.0, 0.0], [2.2, 2.1], [0.1, 1.9]])),
    ],
    ids=["rectangle", "disk", "quadrilateral"],
)
def test_mirror_permutation_none_without_diagonal_symmetry(domain, level):
    assert mirror_permutation(build_mesh(domain, level)) is None


def test_mirror_permutation_rejects_oblong_box_before_sorting(monkeypatch):
    def unsorted(*args, **kwargs):
        raise AssertionError("sorted the nodes of a mesh whose box is not square")

    m = build_mesh(Rectangle(1.0, 2.0), 4)
    for name in ("argsort", "lexsort", "sort"):
        monkeypatch.setattr(np, name, unsorted)
    assert mirror_permutation(m) is None


def cut_grid(slashed: set) -> Mesh:
    """The 2 x 2 grid of unit cells, each cut into two triangles along its
    "/" diagonal if it is in ``slashed``, else along its "\\" diagonal."""
    nodes = np.array([[i, j] for j in range(3) for i in range(3)], dtype=float)
    tris = []
    for i, j in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        a, b, c, d = i + 3 * j, i + 1 + 3 * j, i + 4 + 3 * j, i + 3 + 3 * j
        tris += [(a, b, c), (a, c, d)] if (i, j) in slashed else [(a, b, d), (b, c, d)]
    return Mesh.from_arrays(nodes, np.array(tris))


def test_mirror_permutation_needs_mirrored_triangles():
    # the nodes are symmetric about both diagonals; cut alike, the cells are
    # too, but with the cells (0, 0) and (0, 1) cut the other way neither
    # reflection maps the triangles onto triangles
    assert mirror_permutation(cut_grid(set())) is not None
    assert mirror_permutation(cut_grid({(0, 0), (0, 1)})) is None
