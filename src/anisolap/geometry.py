"""Planar bounded domains: disks, axis-aligned rectangles (given by
half-extents) and simple counterclockwise polygons, with their areas, longest
chords and JSON forms.  A polygon is simple when no two of its edges that
share no vertex meet, so it winds once and repeats no vertex.

Anisotropy never moves a domain: a rotated and sheared domain is the same
domain carrying a quadratic form (see ``optimizer``).  A disk's coarse
boundary is its inscribed hexagon (``polygonize``), which the mesh refines
onto the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np


class GeometryError(ValueError):
    """A polygon or a mesh that fails a geometric check: a polygon that is
    not counterclockwise or not simple, a triangle without positive area or
    an edge shared by more than two triangles.  Every check scales its
    tolerance with the largest coordinate, so a domain admitted by its sizes
    alone can fail one when it is meshed."""


@dataclass(frozen=True)
class Disk:
    radius: float
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < math.inf:
            raise ValueError(f"disk radius must be positive and finite, got {self.radius}")
        center = tuple(map(float, self.center))
        if len(center) != 2 or not all(map(math.isfinite, center)):
            raise ValueError(f"disk center must be two finite numbers, got {self.center}")
        _check_extent(max(map(abs, center)) + self.radius, "disk radius plus |center|")
        object.__setattr__(self, "center", center)


@dataclass(frozen=True)
class Rectangle:
    halfwidth: float
    halfheight: float

    def __post_init__(self) -> None:
        if not (0.0 < self.halfwidth < math.inf and 0.0 < self.halfheight < math.inf):
            raise ValueError("rectangle half-extents must be positive and finite")
        _check_extent(self.halfwidth, "rectangle halfwidth hw")
        _check_extent(self.halfheight, "rectangle halfheight hh")


@dataclass(frozen=True, eq=False)
class Polygon:
    """Simple counterclockwise polygon; vertices are an immutable (n, 2) array.

    No two edges that share no vertex may meet, by crossing or by touching
    at a point, so the polygon winds once and repeats no vertex."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("polygon needs an (n, 2) vertex array with n >= 3")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        _check_extent(float(np.max(np.abs(v))), "polygon vertex coordinate")
        if _signed_area(v) <= 0.0:
            raise GeometryError("polygon must be counterclockwise with positive area")
        if not _is_simple(v):
            raise GeometryError("polygon must be simple (non-self-intersecting)")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)


DomainSpec = Union[Disk, Rectangle, Polygon]


def _check_extent(x: float, name: str) -> None:
    """Reject a largest coordinate ``x`` for which 16 x^2 overflows.  The
    mesh's degeneracy tolerances scale with x^2, and every product of
    coordinate differences that the polygon checks, ear clipping and
    ``mesh._min_angles`` form, and every sum of two of them, is at most
    16 x^2 in size: the largest are s1^2 + s2^2 and 2 s1 s2 for two sides
    of a triangle, each at most 2 sqrt(2) x long."""
    if not math.isfinite(16.0 * x * x):
        raise ValueError(f"{name} {x} is too large: 16 times its square must be a finite float")


def _signed_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def _is_simple(v: np.ndarray) -> bool:
    """True when no two edges that share no vertex meet.

    Edge k runs from v[k] to v[k + 1].  Two edges cross when the endpoints
    of each lie strictly on opposite sides of the other's line.  They touch
    when an endpoint of one is collinear with the other to within ``eps``,
    ``triangulate``'s tolerance on twice a triangle's area, and lies in the
    other's closed bounding box widened by ``eps``.  The pairs are tested a
    block of rows at a time, so memory stays linear in n."""
    n = len(v)
    eps = 1e-12 * (float(np.max(np.abs(v))) ** 2 + 1.0)
    cols = np.arange(n)
    step = max(1, 2 ** 14 // n)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))[:, None]
        # the pairs j >= i + 2, leaving out the adjacent pair (0, n - 1)
        i, j = np.nonzero((cols >= rows + 2) & ((rows > 0) | (cols < n - 1)))
        i += start
        # each endpoint r of either edge of a pair against the other edge pq
        k = np.concatenate([i, i, j, j])
        p, q, r = (v.take(x % n, axis=0) for x in (k, k + 1, np.concatenate([j, j + 1, i, i + 1])))
        d = (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0])
        side = np.sign(d).reshape(4, -1)
        cross = (side[0] * side[1] < 0) & (side[2] * side[3] < 0)
        box = (np.minimum(p, q) - eps <= r) & (r <= np.maximum(p, q) + eps)
        if np.any(cross) or np.any((np.abs(d) <= eps) & box[:, 0] & box[:, 1]):
            return False
    return True


def area(d: DomainSpec) -> float:
    """Exact area for disks and rectangles, shoelace formula for polygons."""
    if isinstance(d, Disk):
        return math.pi * d.radius ** 2
    if isinstance(d, Rectangle):
        return 4.0 * d.halfwidth * d.halfheight
    if isinstance(d, Polygon):
        return _signed_area(d.vertices)
    raise TypeError(f"not a domain: {d!r}")


def _rect_corners(r: Rectangle) -> np.ndarray:
    hw, hh = r.halfwidth, r.halfheight
    return np.array([[-hw, -hh], [hw, -hh], [hw, hh], [-hw, hh]])


def polygonize(d: DomainSpec) -> Polygon:
    """Inscribed regular hexagon of a disk, the coarse boundary that
    ``mesh.build_mesh`` refines onto the circle; exact passthrough for
    rectangles and polygons."""
    if isinstance(d, Disk):
        phi = math.pi / 3.0 * np.arange(6)
        cx, cy = d.center
        return Polygon(
            np.column_stack([cx + d.radius * np.cos(phi), cy + d.radius * np.sin(phi)])
        )
    if isinstance(d, Rectangle):
        return Polygon(_rect_corners(d))
    if isinstance(d, Polygon):
        return d
    raise TypeError(f"not a domain: {d!r}")


def longest_chord(d: DomainSpec, arc: tuple[float, float]) -> float:
    """Length of the longest segment inside the domain along a direction
    whose angle lies in ``arc`` = (lo, hi), radians, 0 <= hi - lo <= pi.

    Exact: 2r for a disk, and for a polygon the supremum over every open
    segment in the domain, so a segment that only touches the boundary
    counts as the limit of the segments beside it."""
    lo, hi = float(arc[0]), float(arc[1])
    if not 0.0 <= hi - lo <= math.pi:
        raise ValueError(f"need an arc lo <= hi <= lo + pi, got {arc}")
    if isinstance(d, Disk):
        return 2.0 * d.radius
    return _polygon_longest_chord(polygonize(d).vertices, lo, hi)


def _polygon_longest_chord(v: np.ndarray, lo: float, hi: float) -> float:
    """Longest chord of the polygon ``v`` over directions in [lo, hi].

    Between two consecutive directions of the arc's ends and of the lines
    through two vertices, the vertices keep their order across the lines, so
    lines of one direction cell between two consecutive vertex offsets cross
    the same edges in the same order.  There a chord's length, the distance
    between the supporting lines of its two end edges, is affine along each
    direction and convex along lines turning about a vertex of the chord, so
    its supremum over the cell is at a corner: a line through one of the two
    vertices at one end of the direction cell.  Each cell is sampled at its
    centre to find its chords' end edges, which are then extended to the
    corners."""
    edge = np.roll(v, -1, axis=0) - v
    edge_len = np.hypot(edge[:, 0], edge[:, 1])
    # (v_i - v_k) x edge_i: a corner line through v_k meets the supporting
    # line of edge i at this over the edge's slope across the line
    w = v[None] - v[:, None]
    cross = w[..., 0] * edge[:, 1] - w[..., 1] * edge[:, 0]
    i, j = np.triu_indices(len(v), 1)
    turn = np.mod(np.arctan2(v[j, 1] - v[i, 1], v[j, 0] - v[i, 0]) - lo, math.pi)
    cuts = np.unique(np.concatenate([[0.0, hi - lo], turn[turn < hi - lo]]))
    cells = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 1e-12] or [(0.0, hi - lo)]
    tiny = 1e-12 * float(np.max(np.abs(v)))
    best = 0.0
    for a, b in cells:
        mid = lo + 0.5 * (a + b)
        along = np.array([math.cos(mid), math.sin(mid)])
        off = v @ np.array([-along[1], along[0]])
        order = np.argsort(off)
        # position along the corner lines of the cell's two end directions
        # through each vertex k where they meet each edge's supporting line;
        # an edge parallel to a line is reached at v[k] itself
        e = np.array([[math.cos(phi), math.sin(phi)] for phi in (lo + a, lo + b)])
        slope = e[:, :1] * edge[:, 1] - e[:, 1:] * edge[:, 0]
        parallel = np.abs(slope) <= 1e-12 * edge_len
        t = np.where(parallel[:, None], 0.0, cross / np.where(parallel, 1.0, slope)[:, None])
        for k0, k1 in zip(order, order[1:]):
            if off[k1] - off[k0] <= tiny:
                continue
            h = off - 0.5 * (off[k0] + off[k1])
            h_next = np.roll(h, -1)
            cut = np.flatnonzero(h * h_next < 0.0)
            point = v[cut] + edge[cut] * (h[cut] / (h[cut] - h_next[cut]))[:, None]
            ends = cut[np.argsort(point @ along)].reshape(-1, 2)
            tk = t[:, [k0, k1]]
            best = max(best, float(np.max(np.abs(tk[..., ends[:, 1]] - tk[..., ends[:, 0]]))))
    return best


def lshape() -> Polygon:
    """Nonconvex L-shaped hexagon: the square [-1, 1]^2 minus its lower-right
    quadrant.  Area 3."""
    return Polygon(
        np.array([[-1.0, -1.0], [0.0, -1.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 1.0]])
    )


def named_domain(name: str) -> DomainSpec:
    """Domains addressable by name in configs: square, disk, lshape."""
    key = name.strip().lower().replace("_", "-")
    if key == "square":
        return Rectangle(1.0, 1.0)
    if key in ("disk", "unit-disk"):
        return Disk(1.0)
    if key in ("lshape", "l-shape", "l"):
        return lshape()
    raise ValueError(f"unknown domain name: {name!r}")


def domain_to_json(d: DomainSpec) -> dict:
    if isinstance(d, Disk):
        return {"type": "disk", "radius": d.radius, "center": list(d.center)}
    if isinstance(d, Rectangle):
        return {"type": "rectangle", "hw": d.halfwidth, "hh": d.halfheight}
    if isinstance(d, Polygon):
        return {"type": "polygon", "vertices": d.vertices.tolist()}
    raise TypeError(f"not a domain: {d!r}")


def read_number(value, name: str, kind: type = float):
    """The JSON value ``value`` of ``name`` as a ``kind``, float or int.  A
    string or a boolean is a typing mistake even where float() reads it, and
    so is an integer too large for a float, or a fraction for an int."""
    if isinstance(value, (str, bool)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        x = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TypeError(f"{name} must be a number, got {value!r}") from exc
    if kind is int and isinstance(value, float) and x != value:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return x


# The keys of each domain type's JSON object besides "type".
_JSON_KEYS = {"disk": ("radius", "center"), "rectangle": ("hw", "hh"), "polygon": ("vertices",)}


def domain_from_json(data) -> DomainSpec:
    """Parse a domain from its JSON object form or a bare name string.  Its
    sizes and coordinates must be numbers, not strings or booleans."""
    if isinstance(data, str):
        return named_domain(data)
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError("domain spec must be a name or an object with a 'type' key")
    kind = str(data["type"]).lower()
    if kind not in _JSON_KEYS:
        raise ValueError(f"unknown domain type: {data['type']!r}")
    unknown = [str(key) for key in data if key != "type" and key not in _JSON_KEYS[kind]]
    if unknown:
        raise ValueError(f"unknown {kind} key " + ", ".join(unknown))
    if kind == "disk":
        center = tuple(read_number(x, "center") for x in data.get("center", (0.0, 0.0)))
        return Disk(read_number(data["radius"], "radius"), center)
    if kind == "rectangle":
        return Rectangle(read_number(data["hw"], "hw"), read_number(data["hh"], "hh"))
    vertices = [[read_number(x, "vertices") for x in v] for v in data["vertices"]]
    return Polygon(np.array(vertices))
