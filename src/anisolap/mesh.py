"""Conforming triangulations with uniform 4-way refinement.

The function space is piecewise linear on triangles; per-triangle constant
gradients are exposed through ``grad_map`` (a 2x3 map from the three nodal
values to the gradient).  Coarse meshes of polygons come from ear clipping,
with ears chosen greedily by the minimum angle of the clipped triangle so
convex polygons get balanced fans.  A disk starts from its centre and
inscribed hexagon, and each refinement level projects its new boundary nodes
onto the circle, so the angles stay near 60 degrees (CHANGES.md: "One mesh
per domain") and the boundary error falls as O(h^2).

Each mesh holds its edge table, built once from the triangles: ``edges``, the
sorted node pairs of its edges in sorted order, and ``tri_edge``, whose column
k is the edge of each triangle that joins its local vertices k and k + 1.
The conformity check and the boundary flags, refinement's midpoints and the
solver's operators are all read from it.

The arrays are stored coordinate-major, as contiguous rows: nodes (2, n),
triangle vertices and edges (3, m), edge ends (2, n_edges) and gradients one
(2, 3, m) buffer, faster to read than strided columns (CHANGES.md: "Meshes
and operator records built on coordinate-major rows").  The public fields
keep their shapes as transposed views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Disk, DomainSpec, GeometryError, Polygon, polygonize


@dataclass(frozen=True, eq=False)
class Mesh:
    # each 2-d and 3-d field is the transposed view of a coordinate-major buffer
    nodes: np.ndarray          # (n, 2) float
    triangles: np.ndarray      # (m, 3) int, counterclockwise
    boundary_node: np.ndarray  # (n,) bool
    tri_area: np.ndarray       # (m,) float
    grad_map: np.ndarray       # (m, 2, 3): nodal values -> constant gradient
    edges: np.ndarray          # (n_edges, 2) int, each pair increasing, rows sorted
    tri_edge: np.ndarray       # (m, 3) int: column k is the edge joining vertices k, k + 1

    @classmethod
    def from_arrays(cls, nodes: np.ndarray, triangles: np.ndarray) -> "Mesh":
        nodes = np.asarray(nodes, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError("nodes must be an (n, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be an (m, 3) index array")
        xy, tri = np.ascontiguousarray(nodes.T), np.ascontiguousarray(triangles.T)

        # rows k of grad are the x and y of edge k, opposite node k: p_{k+2} - p_{k+1}
        grad = np.empty((2, 3, tri.shape[1]))
        ey, ex = grad
        for coord, out in zip(xy, (ex, ey)):
            p = coord[tri]
            np.subtract(p[[2, 0, 1]], p[[1, 2, 0]], out=out)
        area = 0.5 * (ey[2] * ex[1] - ex[2] * ey[1])
        scale = float(np.max(np.abs(xy))) ** 2 + 1.0
        if np.any(area <= 1e-14 * scale):
            raise GeometryError("all triangles must be counterclockwise with positive area")

        # Rotating edge k by +90 degrees and dividing by 2|T| gives the
        # gradient of the hat function at node k.
        np.negative(ey, out=ey)
        grad /= 2.0 * area

        edges, tri_edge, counts = _edge_table(tri, xy.shape[1])
        if np.any(counts > 2):
            raise GeometryError("non-conforming mesh: an edge is shared by > 2 triangles")
        boundary = np.zeros(xy.shape[1], dtype=bool)
        boundary[edges[:, counts == 1]] = True

        for arr in (xy, tri, boundary, area, grad, edges, tri_edge):
            arr.setflags(write=False)
        return cls(xy.T, tri.T, boundary, area, grad.transpose(2, 0, 1), edges.T, tri_edge.T)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


def _edge_table(triangles: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge table of the (3, m) vertex rows ``triangles`` on ``n_nodes``
    nodes: the (2, n_edges) rows of the edges' sorted node pairs, in sorted
    order, the (3, m) rows of the edge joining each triangle's local vertices
    k and k + 1, and each edge's triangle count: one argsort of the sides'
    node pairs, each packed into one integer, groups them by edge."""
    t_next = triangles[[1, 2, 0]]
    bits = int(n_nodes - 1).bit_length()
    pair = (np.minimum(triangles, t_next) << bits | np.maximum(triangles, t_next)).ravel()
    place = np.argsort(pair)
    pair = pair[place]
    new = np.diff(pair, prepend=-1) != 0
    tri_edge = np.empty_like(place)
    tri_edge[place] = np.cumsum(new) - 1
    first = np.flatnonzero(new)
    pair = pair[first]
    edges = np.stack([pair >> bits, pair & ((1 << bits) - 1)])
    return edges, tri_edge.reshape(3, -1), np.diff(first, append=len(new))


def _min_angles(p: np.ndarray) -> np.ndarray:
    """The smallest interior angle (radians) of each triangle of the (k, 3, 2)
    vertex array ``p``, by the law of cosines: side k is opposite vertex k."""
    side = np.linalg.norm(p[:, [2, 0, 1]] - p[:, [1, 2, 0]], axis=2)
    s1, s2 = side[:, [1, 2, 0]], side[:, [2, 0, 1]]
    cos = (s1 * s1 + s2 * s2 - side * side) / (2.0 * s1 * s2)
    return np.arccos(np.clip(cos, -1.0, 1.0)).min(axis=1)


def triangulate(p: Polygon) -> Mesh:
    """Ear-clip a simple counterclockwise polygon into n - 2 triangles.

    Among the currently valid ears the one whose triangle has the largest
    minimum angle is clipped first; ties break on the lowest vertex index, so
    the result is deterministic.  Each clip refreshes the qualities of the
    ears it changes, all in one vectorized pass: the two neighbours of the
    clipped vertex, or every active vertex when the polygon is not strictly
    convex.
    """
    verts = p.vertices
    n = len(verts)
    nxt = np.roll(np.arange(n), -1)
    prv = np.roll(np.arange(n), 1)
    active = np.ones(n, dtype=bool)
    scale = float(np.max(np.abs(verts))) ** 2 + 1.0
    eps = 1e-12 * scale

    def cross_at(i: np.ndarray) -> np.ndarray:
        a, b, c = verts[prv[i]], verts[i], verts[nxt[i]]
        return (b[:, 0] - a[:, 0]) * (c[:, 1] - b[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - b[:, 0])

    def blocked(i: np.ndarray) -> np.ndarray:
        # Any other active vertex inside (or on) a candidate triangle
        # invalidates its ear.  Only reachable for polygons that are not
        # strictly convex: where three vertices are collinear, an ear's
        # diagonal can run through the middle one.
        others = np.flatnonzero(active)
        pts = verts[others]
        corners = prv[i], i, nxt[i]
        inside = np.ones((len(i), len(others)), dtype=bool)
        for a, b in zip(corners, corners[1:] + corners[:1]):
            (ax, ay), (bx, by) = verts[a].T[:, :, None], verts[b].T[:, :, None]
            inside &= (bx - ax) * (pts[:, 1] - ay) - (by - ay) * (pts[:, 0] - ax) >= -eps
        for corner in corners:
            inside &= others != corner[:, None]
        return inside.any(axis=1)

    convex_input = bool(np.all(cross_at(np.arange(n)) > eps))

    quality = np.full(n, -np.inf)

    def refresh(i: np.ndarray) -> None:
        ear = cross_at(i) > eps
        if not convex_input:
            ear &= ~blocked(i)
        quality[i] = -np.inf
        i = i[ear]
        quality[i] = _min_angles(verts[np.stack([prv[i], i, nxt[i]], axis=1)])

    refresh(np.arange(n))
    tris = []
    remaining = n
    while remaining > 3:
        i = int(np.argmax(quality))
        if not np.isfinite(quality[i]):
            raise GeometryError("ear clipping failed: polygon is degenerate")
        tris.append((prv[i], i, nxt[i]))
        active[i] = False
        quality[i] = -np.inf
        a, b = prv[i], nxt[i]
        nxt[a], prv[b] = b, a
        remaining -= 1
        refresh(np.array([a, b]) if convex_input else np.flatnonzero(active))
    last = np.flatnonzero(active)
    i = last[1]
    tris.append((prv[i], i, nxt[i]))

    return Mesh.from_arrays(verts, np.array(tris, dtype=np.int64))


def _split(
    xy: np.ndarray, triangles: np.ndarray, edges: np.ndarray, tri_edge: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One level of uniform refinement of the (3, m) ``triangles`` on the
    (2, n) nodes ``xy`` with the edge table (``edges``, ``tri_edge``): every
    triangle splits into 4 via its edge midpoints, which are appended to the
    nodes in the order of ``edges``.  Also returns, per appended node,
    whether its edge lies on the boundary (belongs to one triangle)."""
    n = xy.shape[1]
    nodes = np.empty((2, n + edges.shape[1]))
    nodes[:, :n] = xy
    np.multiply(0.5, xy[:, edges[0]] + xy[:, edges[1]], out=nodes[:, n:])
    # child c of triangle t is column c m + t: (v0, m01, m20), (v1, m12, m01),
    # (v2, m20, m12) and (m01, m12, m20), m01 the midpoint of edge 0
    tris = np.empty((3, 4, triangles.shape[1]), dtype=np.int64)
    tris[0, :3] = triangles
    np.add(tri_edge, n, out=tris[1, :3])
    tris[2, :3] = tris[1, [2, 0, 1]]
    tris[:, 3] = tris[1, :3]
    return nodes, tris.reshape(3, -1), np.bincount(tri_edge.ravel()) == 1


def refine(m: Mesh, levels: int, onto: Disk | None = None) -> Mesh:
    """Uniform refinement: each level splits every triangle into 4 via edge
    midpoints.  Children are similar to their parents, so the minimum angle of
    the coarse mesh is preserved.  With ``onto``, each level's new boundary
    nodes are projected onto that disk's circle.  Nested: a level's nodes
    start with those of the level below, and node n_nodes + e of the next
    level is the midpoint of edge e (on the circle, for a boundary edge
    refined ``onto`` a disk).  A level below the last builds only the edge
    table that the next split reads; the last is checked and completed by
    ``Mesh.from_arrays``."""
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    if levels == 0:
        return m
    xy, tris, edges, tri_edge = m.nodes.T, m.triangles.T, m.edges.T, m.tri_edge.T
    for level in range(levels):
        if level > 0:
            edges, tri_edge, _ = _edge_table(tris, xy.shape[1])
        n_old = xy.shape[1]
        xy, tris, on_boundary = _split(xy, tris, edges, tri_edge)
        if onto is not None:
            rim = n_old + np.flatnonzero(on_boundary)
            center = np.array(onto.center)[:, None]
            offset = xy[:, rim] - center
            xy[:, rim] = center + onto.radius * offset / np.hypot(*offset)
    return Mesh.from_arrays(xy.T, tris.T)


def interior_dof_map(m: Mesh) -> tuple[np.ndarray, int]:
    """Map node index -> dense interior index (or -1 for boundary nodes).

    Raises if the mesh has no interior node (too coarse to carry a zero-trace
    function)."""
    interior = ~m.boundary_node
    n_int = int(np.count_nonzero(interior))
    if n_int == 0:
        raise ValueError("mesh has no interior nodes; refine before solving")
    idx = np.full(m.n_nodes, -1, dtype=np.int64)
    idx[interior] = np.arange(n_int)
    return idx, n_int


def min_angle(m: Mesh) -> float:
    """Smallest interior angle over all triangles (radians)."""
    return float(np.min(_min_angles(m.nodes[m.triangles])))


def mirror_permutation(m: Mesh) -> np.ndarray | None:
    """The node permutation of the reflection about the 135 or the 45 degree
    line through the mesh's centroid (the mean of its nodes), tried in that
    order: node i reflects onto node ``perm[i]``, so ``u[perm]`` is the
    reflected image of the nodal field ``u``.  None unless the reflection maps
    every node onto a node, within 1e-12 of the diameter (the diagonal of the
    bounding box), and every triangle onto a triangle.

    A reflection about a diagonal swaps the width and the height of the
    bounding box, so a box that is not square is rejected before any sort.
    The nodes and their images are matched by sorting both along a direction
    of irrational slope.  Two distinct nodes that lie within the tolerance
    along it could sort apart from their images; then the match fails and
    the result is None, never a wrong permutation."""
    nodes = m.nodes
    width, height = nodes.max(axis=0) - nodes.min(axis=0)
    tol = 1e-12 * math.hypot(width, height)
    if abs(width - height) > 2.0 * tol:
        return None
    d = nodes - nodes.mean(axis=0)
    slope = np.array([1.0, 0.5 * (math.sqrt(5.0) - 1.0)])
    order = np.argsort(d @ slope)
    for sign in (-1.0, 1.0):  # (x, y) -> (-y, -x), then (y, x), about the centroid
        image = sign * d[:, ::-1]
        image_order = np.argsort(image @ slope)
        if np.max(np.hypot(*(image[image_order] - d[order]).T)) > tol:
            continue
        perm = np.empty(len(nodes), dtype=np.int64)
        perm[image_order] = order
        tris, mapped = (np.sort(t, axis=1) for t in (m.triangles, perm[m.triangles]))
        if np.array_equal(tris[np.lexsort(tris.T)], mapped[np.lexsort(mapped.T)]):
            return perm
    return None


def refine_domain(m: Mesh, domain: DomainSpec, levels: int) -> Mesh:
    """``refine(m, levels)`` of a mesh ``m`` of ``domain``, onto its circle
    if it is a disk.  Refining ``build_mesh(domain, level)`` by ``levels``
    gives ``build_mesh(domain, level + levels)``, array for array."""
    return refine(m, levels, onto=domain if isinstance(domain, Disk) else None)


def build_mesh(domain: DomainSpec, level: int, n_boundary: int = 128) -> Mesh:
    """The domain's mesh at refinement ``level``: a disk's fan of its centre
    and inscribed hexagon (6 equilateral triangles), refined onto its circle,
    or the ear-clipped polygon refined ``level`` times (``refine_domain``).
    ``n_boundary`` is accepted for existing callers and changes no mesh."""
    if isinstance(domain, Disk):
        ring = np.arange(1, 7)
        fan = np.column_stack([np.zeros(6, dtype=np.int64), ring, np.roll(ring, -1)])
        nodes = np.vstack([domain.center, polygonize(domain).vertices])
        return refine_domain(Mesh.from_arrays(nodes, fan), domain, level)
    return refine_domain(triangulate(polygonize(domain)), domain, level)
