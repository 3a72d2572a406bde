"""Exact geometry: configurations, standard families and JSON."""

from fractions import Fraction

import pytest

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
    make_configuration,
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
    with pytest.raises(InvalidInput):  # JSON booleans are not coordinates
        config_from_json('{"points": [[true, 0], [0, false], ["1/2", "1/2"]]}')
    for label in ("null", "7", "[\"a\"]"):  # labels are strings
        with pytest.raises(InvalidInput):
            config_from_json('{"points": [["0", "0"]], "labels": [%s]}' % label)
