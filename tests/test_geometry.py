import math

import numpy as np
import pytest

from anisolap import (
    Disk,
    Polygon,
    Rectangle,
    area,
    domain_from_json,
    domain_to_json,
    longest_chord,
    lshape,
    named_domain,
    polygonize,
)


# -------------------------------------------------------------------- areas


def test_areas():
    assert area(Disk(1.0)) == pytest.approx(math.pi)
    assert area(Rectangle(1.0, 1.0)) == 4.0
    assert area(Rectangle(1.0, 2.0)) == 8.0
    assert area(lshape()) == pytest.approx(3.0, abs=1e-15)


# --------------------------------------------------------------- polygonize


def test_polygonize_disk_area_formula():
    poly = polygonize(Disk(2.0, (0.5, -0.5)))
    # inscribed hexagon: area (n/2) sin(2 pi / n) r^2 at n = 6
    assert area(poly) == pytest.approx(3.0 * math.sin(math.pi / 3.0) * 4.0, rel=1e-14)
    np.testing.assert_allclose(np.hypot(*(poly.vertices - (0.5, -0.5)).T), 2.0, rtol=1e-15)


def test_polygonize_square_passthrough():
    sq = polygonize(Rectangle(1.0, 1.0))
    poly = polygonize(sq)
    assert poly is sq


# --------------------------------------------------------------- validation


def test_polygon_rejects_clockwise():
    with pytest.raises(ValueError):
        Polygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def test_polygon_rejects_self_intersection():
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Polygon(bowtie)


def test_polygon_rejects_too_few_vertices():
    with pytest.raises(ValueError):
        Polygon(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_domain_validation():
    with pytest.raises(ValueError):
        Disk(-1.0)
    with pytest.raises(ValueError):
        Rectangle(0.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        Polygon([[0.0, 0.0], [1.0, 0.0], [math.nan, 1.0]])
    # a bow-tie with unequal lobes (positive area) whose edges cross, and two
    # triangles whose shared vertex lies inside a non-adjacent edge, that edge
    # coming after the vertex's edges and before them; then four polygons
    # that turn right at no vertex but wind twice or repeat a vertex: a
    # pentagram, a repeated vertex, the square traced twice and a hexagon
    pentagram = math.pi / 2 + 4 * math.pi * np.arange(5) / 5
    for vertices in (
        [[0, 0], [2, 2], [2, 0], [0, 3]],
        [[0, 0], [4, 0], [4, 4], [2, 0], [0, 4]],
        [[4, 0], [4, 4], [2, 0], [0, 4], [0, 0]],
        np.column_stack([np.cos(pentagram), np.sin(pentagram)]),
        [[0, 0], [1, 0], [1, 0], [1, 1], [0, 1]],
        [[0, 0], [1, 0], [1, 1], [0, 1]] * 2,
        [[0, 0], [3, 0], [0, 3], [-2, -3], [0, -2], [2, 1]],
    ):
        with pytest.raises(ValueError, match="simple"):
            Polygon(np.array(vertices, dtype=float))


@pytest.mark.parametrize(
    "vertices",
    [
        pytest.param([[0, 0], [1, 0], [2, 0], [2, 1], [0, 1]], id="collinear-midpoint"),
        pytest.param(lshape().vertices, id="lshape"),
        # (x, y) -> (x, -y), with the order reversed to stay counterclockwise
        pytest.param(lshape().vertices[::-1] * [1.0, -1.0], id="mirrored-lshape"),
        pytest.param(
            np.column_stack(
                [np.cos(np.arange(64) * math.pi / 32), np.sin(np.arange(64) * math.pi / 32)]
            ),
            id="64-gon",
        ),
    ],
)
def test_polygon_accepts_simple(vertices):
    np.testing.assert_array_equal(Polygon(vertices).vertices, vertices)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Disk(math.inf),
        lambda: Disk(math.nan),
        lambda: Disk(1.0, (math.nan, 0.0)),
        lambda: Disk(1.0, (0.0, -math.inf)),
        lambda: Rectangle(math.inf, 1.0),
        lambda: Rectangle(1.0, math.inf),
        lambda: Rectangle(math.nan, 1.0),
    ],
    ids=["disk-inf-radius", "disk-nan-radius", "disk-nan-center", "disk-inf-center",
         "rect-inf-hw", "rect-inf-hh", "rect-nan-hw"],
)
def test_domain_rejects_non_finite_sizes(make):
    # an infinite size would give an infinite area and chord, and a mesh with
    # non-finite nodes
    with pytest.raises(ValueError, match="finite"):
        make()


# --------------------------------------------------------------------- json


def test_json_round_trips():
    for d in (Disk(2.0, (0.5, -0.5)), Rectangle(1.0, 2.0), lshape()):
        back = domain_from_json(domain_to_json(d))
        assert type(back) is type(d)
        assert area(back) == pytest.approx(area(d), abs=1e-12)


def test_named_domains():
    assert isinstance(named_domain("square"), Rectangle)
    assert isinstance(named_domain("disk"), Disk)
    assert isinstance(named_domain("lshape"), Polygon)
    assert isinstance(domain_from_json("square"), Rectangle)
    with pytest.raises(ValueError):
        named_domain("pentagon")


def test_json_rejects_bad_spec():
    with pytest.raises(ValueError):
        domain_from_json({"radius": 1.0})
    with pytest.raises(ValueError):
        domain_from_json({"type": "torus"})


@pytest.mark.parametrize("center", [(0.0,), (0.0, 0.0, 7.0)], ids=["one", "three"])
def test_disk_center_is_two_numbers(center):
    with pytest.raises(ValueError, match="two finite numbers"):
        Disk(1.0, center)
    with pytest.raises(ValueError, match="two finite numbers"):
        domain_from_json({"type": "disk", "radius": 1.0, "center": list(center)})


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"type": "disk", "radius": 1.0, "radus": 2.0}, "disk key radus"),
        ({"type": "rectangle", "hw": 1.0, "hh": 2.0, "radius": 1.0}, "rectangle key radius"),
        ({"type": "polygon", "vertices": [[0, 0], [1, 0], [0, 1]], "hw": 1}, "polygon key hw"),
    ],
    ids=["disk", "rectangle", "polygon"],
)
def test_json_rejects_unknown_keys(spec, key):
    # a misspelt key would otherwise leave its default in place unnoticed
    with pytest.raises(ValueError, match="unknown " + key):
        domain_from_json(spec)


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "disk", "radius": "2"},
        {"type": "disk", "radius": True},
        {"type": "disk", "radius": 1.0, "center": ["0", 0.0]},
        {"type": "rectangle", "hw": 1.0, "hh": "2"},
        {"type": "rectangle", "hw": False, "hh": 1.0},
        {"type": "polygon", "vertices": [[0.0, 0.0], [1.0, "0"], [0.0, 1.0]]},
        {"type": "polygon", "vertices": [[0.0, 0.0], [True, 0.0], [0.0, 1.0]]},
        {"type": "disk", "radius": 10**400},
        {"type": "polygon", "vertices": [[0.0, 0.0], [10**400, 0.0], [0.0, 1.0]]},
    ],
)
def test_json_rejects_strings_and_booleans_as_numbers(spec):
    # float() would read "2" and True, and overflow on an integer too large
    # for a float; a JSON spec holding any of them is mistyped
    with pytest.raises(TypeError, match="must be a number"):
        domain_from_json(spec)


# ------------------------------------------------------------ longest chords


def sampled_longest_chord(d, lo: float, hi: float, n_dir: int = 721, n_off: int = 801) -> float:
    """Longest chord over evenly sampled directions in [lo, hi] and offsets:
    each line's crossings with the polygon's edges, sorted and paired into
    the intervals inside.  A lower estimate of the supremum."""
    v = polygonize(d).vertices
    edge = np.roll(v, -1, axis=0) - v
    best = 0.0
    for phi in np.linspace(lo, hi, n_dir):
        e = np.array([math.cos(phi), math.sin(phi)])
        off = v @ np.array([-e[1], e[0]])
        s = np.linspace(off.min(), off.max(), n_off + 2)[1:-1]
        h = off[None, :] - s[:, None]
        h_next = np.roll(h, -1, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            t = (v @ e)[None, :] + h / (h - h_next) * (edge @ e)[None, :]
        t = np.sort(np.where(h * h_next < 0.0, t, np.inf), axis=1)
        t[np.isinf(t)] = np.nan
        best = max(best, float(np.nanmax(t[:, 1::2] - t[:, 0::2])))
    return best


QUARTER_X, QUARTER_Y = (-0.5 * math.pi, 0.0), (0.0, 0.5 * math.pi)


def rotated_rectangle(hw: float, hh: float, theta: float) -> Polygon:
    """The rectangle with half-extents (hw, hh) turned counterclockwise by theta."""
    c, s = math.cos(theta), math.sin(theta)
    corners = np.array([[-hw, -hh], [hw, -hh], [hw, hh], [-hw, hh]])
    return Polygon(corners @ np.array([[c, -s], [s, c]]).T)


def regular_polygon(n: int) -> Polygon:
    phi = 2.0 * math.pi * np.arange(n) / n
    return Polygon(np.column_stack([np.cos(phi), np.sin(phi)]))


@pytest.mark.parametrize(
    "domain, arc",
    [
        (lshape(), QUARTER_X),
        (lshape(), QUARTER_Y),
        (lshape(), (0.2, 0.5)),
        (lshape(), (0.0, math.pi)),
        (rotated_rectangle(1.0, 0.5, 0.3), QUARTER_X),
        (rotated_rectangle(1.0, 0.5, 0.3), (0.1, 0.2)),
        (regular_polygon(32), (0.05, 0.3)),
    ],
    ids=["lshape-x", "lshape-y", "lshape-narrow", "lshape-all", "rotated-rect-x",
         "rotated-rect-narrow", "32-gon-narrow"],
)
def test_longest_chord_matches_dense_sampling(domain, arc):
    exact = longest_chord(domain, arc)
    sampled = sampled_longest_chord(domain, *arc)
    assert sampled <= exact * (1.0 + 1e-12)
    assert sampled >= exact * (1.0 - 2e-3)


def test_longest_chord_closed_forms():
    # the L-shape's diagonal through its reflex corner, its longest chord
    # across the missing quadrant, and a rectangle along one direction
    assert longest_chord(lshape(), QUARTER_Y) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    assert longest_chord(lshape(), QUARTER_X) == pytest.approx(math.sqrt(5.0), rel=1e-14)
    rect = rotated_rectangle(1.0, 2.0, 0.3)
    assert longest_chord(rect, (0.0, 0.0)) == pytest.approx(2.0 / math.cos(0.3), rel=1e-14)
    assert longest_chord(rect, (0.5 * math.pi, 0.5 * math.pi)) == pytest.approx(
        4.0 / math.cos(0.3), rel=1e-14
    )


def random_star(n: int, seed: int) -> Polygon:
    """A simple polygon of n vertices at random radii in [0.4, 1] and random
    angles around the origin, in angular order (seed 7 with n = 12 has four
    reflex corners)."""
    rng = np.random.default_rng(seed)
    phi = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
    r = rng.uniform(0.4, 1.0, n)
    return Polygon([[ri * math.cos(p), ri * math.sin(p)] for ri, p in zip(r, phi)])


@pytest.mark.parametrize(
    "domain, x_chord, y_chord",
    [
        (Rectangle(1.0, 1.0), 2.8284271247461903, 2.8284271247461903),
        (lshape(), 2.23606797749979, 2.8284271247461903),
        (Rectangle(1.0, 2.0), 4.47213595499958, 4.47213595499958),
        (random_star(12, 7), 1.983334289282203, 1.624770281475806),
    ],
    ids=["square", "lshape", "rectangle", "random-star"],
)
def test_longest_chord_is_pinned(domain, x_chord, y_chord):
    # the chords over the arcs the verify suites read (X_ARC and Y_ARC),
    # pinned to the last bit, so that a faster evaluation that moves one shows
    assert longest_chord(domain, QUARTER_X) == x_chord
    assert longest_chord(domain, QUARTER_Y) == y_chord


def test_longest_chord_disk_is_diameter():
    for arc in (QUARTER_X, (0.3, 0.3)):
        assert longest_chord(Disk(1.5, (0.4, -0.2)), arc) == 3.0


def test_longest_chord_rejects_bad_arc():
    for arc in ((0.5, 0.4), (0.0, 4.0)):
        with pytest.raises(ValueError):
            longest_chord(lshape(), arc)
