"""Exact geometry: configurations and hulls."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclat.errors import (
    DuplicatePoint,
    InvalidInput,
    LabelMismatch,
    UnknownFamily,
)
from nclat.geometry import (
    FAMILIES,
    Point,
    config_from_json,
    config_to_json,
    convex_hull,
    hulls_disjoint,
    make_configuration,
    orientation,
    standard_config,
)


def test_point_coordinates_are_fractions():
    p = Point(1, Fraction(2, 3))
    assert p.x == 1 and p.y == Fraction(2, 3)
    assert isinstance(p.x, Fraction)


def test_circle_points_exactly_on_unit_circle():
    cfg = standard_config("Q", 7)
    for p in cfg.points:
        assert p.x * p.x + p.y * p.y == 1


def test_duplicate_point_rejected():
    with pytest.raises(DuplicatePoint):
        make_configuration([(0, 0), (1, 1), (0, 0)])


def test_label_count_must_match():
    with pytest.raises(LabelMismatch):
        make_configuration([(0, 0), (1, 0)], labels=["a"])


def test_standard_family_arity():
    with pytest.raises(UnknownFamily):
        standard_config("W", 3)
    with pytest.raises(InvalidInput):
        standard_config("P", 3, 4)
    with pytest.raises(InvalidInput):
        standard_config("U", 3)
    with pytest.raises(InvalidInput):
        standard_config("Q", -1)


def test_standard_family_sizes():
    assert len(standard_config("P", 5).points) == 5
    assert len(standard_config("Q", 6).points) == 6
    assert len(standard_config("T", 4).points) == 5
    assert len(standard_config("U", 3, 4).points) == 7
    assert len(standard_config("V", 3, 4).points) == 8
    assert len(standard_config("S", 3, 4).points) == 9
    assert tuple(sorted(FAMILIES)) == ("P", "Q", "S", "T", "U", "V")


def test_semicircular_layout():
    # arc points first (top to bottom along the arc), then the flat side
    # left to right; corners belong to the flat side
    cfg = standard_config("S", 2, 3)
    assert cfg.labels == ("y3", "y2", "y1", "x0", "x1", "x2", "x3")
    flat = cfg.points[3:]
    assert all(p.y == 0 for p in flat)
    assert flat[0].x == -1 and flat[-1].x == 1
    arc = cfg.points[:3]
    assert all(p.x * p.x + p.y * p.y == 1 and p.y > 0 for p in arc)


def test_orientation_signs():
    assert orientation((0, 0), (1, 0), (0, 1)) == 1
    assert orientation((0, 0), (0, 1), (1, 0)) == -1
    assert orientation((0, 0), (1, 1), (2, 2)) == 0


def test_convex_hull_shapes():
    cfg = make_configuration([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    hull = convex_hull(cfg, [0, 1, 2, 3, 4])
    assert len(hull) == 4  # interior point dropped
    seg = convex_hull(cfg, [0, 1])
    assert len(seg) == 2
    single = convex_hull(cfg, [4])
    assert len(single) == 1
    with pytest.raises(InvalidInput):
        convex_hull(cfg, [9])


def test_hull_disjointness_cases():
    cfg = make_configuration(
        [(0, 0), (4, 0), (2, 3), (2, 1), (10, 0), (12, 0), (11, 2), (4, 4)]
    )
    tri = convex_hull(cfg, [0, 1, 2])
    inner = convex_hull(cfg, [3])
    far = convex_hull(cfg, [4, 5, 6])
    touch = convex_hull(cfg, [1, 7])
    assert not hulls_disjoint(tri, inner)  # containment
    assert hulls_disjoint(tri, far)
    assert not hulls_disjoint(tri, touch)  # shared vertex counts as contact
    assert hulls_disjoint(inner, far)


def test_collinear_segment_overlap_detected():
    cfg = make_configuration([(0, 0), (3, 0), (1, 0), (2, 0)])
    a = convex_hull(cfg, [0, 1])
    b = convex_hull(cfg, [2, 3])
    assert not hulls_disjoint(a, b)
    c = convex_hull(cfg, [0, 2])
    d = convex_hull(cfg, [3, 1])
    assert hulls_disjoint(c, d)


def test_config_json_round_trip():
    cfg = standard_config("Q", 5)
    again = config_from_json(config_to_json(cfg))
    assert again.points == cfg.points
    assert again.labels == cfg.labels


def test_config_json_errors():
    with pytest.raises(InvalidInput):
        config_from_json("not json at all {")
    with pytest.raises(InvalidInput):
        config_from_json('{"points": [[0]]}')
    with pytest.raises(DuplicatePoint):
        config_from_json('{"points": [[0, 0], [0, 0]]}')


coord = st.integers(min_value=-6, max_value=6)
pt = st.tuples(coord, coord)


@given(st.lists(pt, min_size=3, max_size=7, unique=True), st.data())
@settings(max_examples=60, deadline=None)
def test_hull_disjointness_symmetric(points, data):
    cfg = make_configuration(points)
    n = len(points)
    cut = data.draw(st.integers(min_value=1, max_value=n - 1))
    a = convex_hull(cfg, list(range(cut)))
    b = convex_hull(cfg, list(range(cut, n)))
    assert hulls_disjoint(a, b) == hulls_disjoint(b, a)


@given(pt, pt, pt)
@settings(max_examples=100, deadline=None)
def test_orientation_antisymmetric(a, b, c):
    assert orientation(a, b, c) == -orientation(a, c, b)
    assert orientation(a, b, c) == orientation(b, c, a)
