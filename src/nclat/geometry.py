"""Exact planar geometry for point configurations.

All coordinates are rational (fractions.Fraction); every predicate is decided
by exact sign computations, so there are no epsilon tolerances anywhere.
Internally a configuration is also kept as integer-scaled coordinates (common
denominator cleared), which keeps the predicates in plain int arithmetic.

Whether the convex hulls of two blocks of points meet depends only on the
order type of the configuration; PredicateKernel answers every such question
with integer masks from tables built once per configuration
(Configuration.kernel).

A configuration is a finite list of distinct labelled points.  The standard
families are laid out so that the whole configuration sits on the boundary of
a convex polygon, listed in counterclockwise boundary order, with the point
removed by the recursive decompositions stored last:

    P n      p_1..p_n on a horizontal line, left to right
    Q n      n points on the unit circle, counterclockwise from (1, 0)
    T n      y, x_1..x_n with y = (0, 1) off the line of x_i = (i, 0)
    U m n    y_n..y_1, x_1..x_m  (open cone: x_i = (i, 0), y_j = (0, j))
    V m n    y_n..y_1, z, x_1..x_m with z = (0, 0) the cone apex
    S m n    y_n..y_1, x_0..x_{m+1}: m+2 points on the segment [-1, 1]
             including both corners, n points on the upper unit circle

Circle points use the rational parametrization
t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)); the round-side points y_1..y_n take
t = n, n-1, .., 1 (t decreasing), so the stored order y_n..y_1 runs
counterclockwise and the whole point list is a counterclockwise walk of the
convex boundary.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import combinations
import json
import math
import sys

from .errors import (
    DuplicatePoint,
    InvalidInput,
    LabelMismatch,
    UnknownFamily,
)

FAMILIES = ("P", "Q", "T", "U", "V", "S")


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        # digits plus exponent bound the digits of numerator and denominator;
        # the int-to-str limit (4300 if none) keeps Fraction from spending
        # seconds on "1e10000000" and every coordinate printable
        limit = getattr(sys, "get_int_max_str_digits", int)() or 4300
        mantissa, _, exponent = value.lower().partition("e")
        try:
            size = sum(c.isdigit() for c in mantissa) + abs(int(exponent or 0))
            if size <= limit:
                return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"bad rational literal {value!r}") from exc
        raise InvalidInput(
            f"rational literal too large: {size} digits plus exponent, limit {limit}")
    raise InvalidInput(f"coordinate must be int, Fraction or string, got {type(value).__name__}")


class Point(namedtuple("Point", "x y")):
    __slots__ = ()

    def __new__(cls, x, y):
        return super().__new__(cls, _frac(x), _frac(y))

    def __str__(self):
        return f"({self.x}, {self.y})"


class Configuration(namedtuple("Configuration", "points labels")):
    """Distinct labelled points; order is significant.  Unlike the other
    value types it keeps a __dict__, for its cached properties."""

    def __len__(self):
        return len(self.points)

    @cached_property
    def scaled(self):
        """Points as integer pairs over a cleared common denominator."""
        denoms = [c.denominator for p in self.points for c in (p.x, p.y)]
        lcm = 1
        for d in denoms:
            lcm = lcm * d // math.gcd(lcm, d)
        return tuple(
            (int(p.x * lcm), int(p.y * lcm)) for p in self.points
        )

    @cached_property
    def kernel(self):
        """The PredicateKernel of the scaled points."""
        return PredicateKernel(self.scaled)


def make_configuration(points, labels=None) -> Configuration:
    pts = tuple(p if isinstance(p, Point) else Point(p[0], p[1]) for p in points)
    seen = {}
    for i, p in enumerate(pts):
        key = (p.x, p.y)
        if key in seen:
            raise DuplicatePoint(f"points {seen[key]} and {i} coincide at {p}")
        seen[key] = i
    if labels is None:
        labs = tuple(f"p{i}" for i in range(len(pts)))
    else:
        labs = tuple(str(s) for s in labels)
        if len(labs) != len(pts):
            raise LabelMismatch(f"{len(labs)} labels for {len(pts)} points")
    return Configuration(pts, labs)


def _circle_point(t: Fraction) -> Point:
    den = 1 + t * t
    return Point((1 - t * t) / den, 2 * t / den)


def point_count(family: str, m: int, n=None) -> int:
    """Number of points of standard_config(family, m, n), with the same
    argument checks, found without building a point: P and Q have m, T has
    m+1, U m+n, V m+n+1 and S m+n+2."""
    if family not in FAMILIES:
        raise UnknownFamily(f"family must be one of {'/'.join(FAMILIES)}, got {family!r}")
    one_param = family in ("P", "Q", "T")
    if one_param and n is not None:
        raise InvalidInput(f"family {family} takes a single size parameter")
    if not one_param and n is None:
        raise InvalidInput(f"family {family} takes two size parameters")
    sizes = (m,) if n is None else (m, n)
    if not all(isinstance(s, int) for s in sizes):
        raise InvalidInput(f"size parameters must be integers, got {sizes}")
    if min(sizes) < 0:
        raise InvalidInput("size parameters must be nonnegative")
    return m + (n or 0) + {"T": 1, "V": 1, "S": 2}.get(family, 0)


def standard_config(family: str, m: int, n=None) -> Configuration:
    """Build a standard family configuration.

    P, Q, T take a single size parameter; U, V, S take (m, n).
    """
    point_count(family, m, n)

    if family == "P":
        return make_configuration(
            [Point(i, 0) for i in range(1, m + 1)],
            [f"p{i}" for i in range(1, m + 1)],
        )
    if family == "Q":
        return make_configuration(
            [_circle_point(Fraction(i)) for i in range(m)],
            [f"q{i}" for i in range(1, m + 1)],
        )
    if family == "T":
        pts = [Point(0, 1)] + [Point(i, 0) for i in range(1, m + 1)]
        labs = ["y"] + [f"x{i}" for i in range(1, m + 1)]
        return make_configuration(pts, labs)

    ys = [Point(0, j) for j in range(n, 0, -1)]
    ylabs = [f"y{j}" for j in range(n, 0, -1)]
    xs = [Point(i, 0) for i in range(1, m + 1)]
    xlabs = [f"x{i}" for i in range(1, m + 1)]
    if family == "U":
        return make_configuration(ys + xs, ylabs + xlabs)
    if family == "V":
        return make_configuration(ys + [Point(0, 0)] + xs, ylabs + ["z"] + xlabs)

    # S: arc points t = n..1 (so stored y_n..y_1 is counterclockwise), then
    # the flat side corner-to-corner.
    arc = [_circle_point(Fraction(n + 1 - j)) for j in range(n, 0, -1)]
    arclabs = [f"y{j}" for j in range(n, 0, -1)]
    flat = [Point(Fraction(-1) + Fraction(2 * i, m + 1), 0) for i in range(m + 2)]
    flatlabs = [f"x{i}" for i in range(m + 2)]
    return make_configuration(arc + flat, arclabs + flatlabs)


# ---------------------------------------------------------------------------
# exact predicates (work on (x, y) tuples of ints or Fractions alike)

class PredicateKernel:
    """Exact "do these hulls meet?" answers for subsets of one point list.

    Tables of int masks, with pair i < j numbered pair[i][j], row by row
    (0 for (0, 1), then (0, 2), ..., (1, 2), ...):

    * segment[i][j]: the points on the closed segment from i to j;
    * triangle[i, j, k] (i < j < k): the points in the closed triangle; for
      a collinear triple the union of its segment masks, not its whole line;
    * meets[k]: the pairs whose segments meet segment k, touching included.

    block(mask) gives the (closure, meets, pairs) masks of a point set,
    memoized in the dict blocks: the points in its hull (by Caratheodory,
    the union of the triangles on its points), the segments its pairs meet,
    and its pairs.
    Two point sets have meeting hulls iff the closure of one holds a point
    of the other or a segment on one meets a segment on the other.

    Every table comes from the orientation signs of the C(n, 3) triples,
    each one cross product (Knuth, "Axioms and Hulls", 1992), kept as the
    points strictly left and strictly right of each pair's line and the
    pairs each point lies strictly left and right of.  Coordinates are read
    again only to order collinear points along their line.  A point is in
    a triangle iff it is strictly right of none of its counterclockwise
    edges; two segments meet iff each one's ends lie strictly on opposite
    sides of the other's line, or an end of one lies on the other.  Building
    the tables takes about 1 ms at 12 points.
    """

    def __init__(self, pts):
        pts = tuple(pts)
        n = len(pts)
        full = (1 << n) - 1
        pair = [[None] * n for _ in range(n)]
        ends = []
        for i in range(n):
            for j in range(i + 1, n):
                pair[i][j] = pair[j][i] = len(ends)
                ends.append((i, j))
        # left[k] / right[k]: points strictly left / right of pair k = (i, j)
        # directed from i to j; left_of[q] / right_of[q]: the pairs q lies
        # strictly left / right of
        left = [0] * len(ends)
        right = [0] * len(ends)
        left_of = [0] * n
        right_of = [0] * n
        sign = {}
        for i, j, k in combinations(range(n), 3):
            (ax, ay), (bx, by), (cx, cy) = pts[i], pts[j], pts[k]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            sign[i, j, k] = cross
            if cross:
                # orient(i, j, k) = orient(j, k, i) = -orient(i, k, j)
                ij, ik, jk = pair[i][j], pair[i][k], pair[j][k]
                if cross > 0:
                    left[ij] |= 1 << k
                    right[ik] |= 1 << j
                    left[jk] |= 1 << i
                    left_of[k] |= 1 << ij
                    right_of[j] |= 1 << ik
                    left_of[i] |= 1 << jk
                else:
                    right[ij] |= 1 << k
                    left[ik] |= 1 << j
                    right[jk] |= 1 << i
                    right_of[k] |= 1 << ij
                    left_of[j] |= 1 << ik
                    right_of[i] |= 1 << jk
        segment = [[1 << i if i == j else 0 for j in range(n)] for i in range(n)]
        # on[q]: the pairs whose closed segment holds q; ends_at[q]: the
        # pairs with q as an end
        on = [0] * n
        ends_at = [0] * n
        for k, (i, j) in enumerate(ends):
            (ax, ay), (bx, by) = pts[i], pts[j]
            lo_x, hi_x = min(ax, bx), max(ax, bx)
            lo_y, hi_y = min(ay, by), max(ay, by)
            seg = 1 << i | 1 << j
            line = full ^ (left[k] | right[k] | seg)
            while line:
                q = line.bit_length() - 1
                line ^= 1 << q
                qx, qy = pts[q]
                if lo_x <= qx <= hi_x and lo_y <= qy <= hi_y:
                    seg |= 1 << q
            segment[i][j] = segment[j][i] = seg
            ends_at[i] |= 1 << k
            ends_at[j] |= 1 << k
            for q in range(n):
                if seg >> q & 1:
                    on[q] |= 1 << k
        triangle = {}
        for (i, j, k), cross in sign.items():
            ij, ik, jk = pair[i][j], pair[i][k], pair[j][k]
            if cross > 0:
                outside = right[ij] | right[jk] | left[ik]
            elif cross < 0:
                outside = left[ij] | left[jk] | right[ik]
            else:
                triangle[i, j, k] = segment[i][j] | segment[j][k] | segment[i][k]
                continue
            triangle[i, j, k] = full ^ outside
        meets = []
        for k, (i, j) in enumerate(ends):
            # segment k meets the pairs with one end strictly on each side of
            # its line whose own line has i and j strictly on opposite sides,
            # the pairs with an end on it and the pairs holding i or j
            one_left = one_right = touch = 0
            left_k, right_k, seg = left[k], right[k], segment[i][j]
            for q in range(n):
                bit = 1 << q
                if left_k & bit:
                    one_left |= ends_at[q]
                elif right_k & bit:
                    one_right |= ends_at[q]
                elif seg & bit:
                    touch |= ends_at[q]
            crossing = one_left & one_right & (
                left_of[i] & right_of[j] | right_of[i] & left_of[j])
            meets.append(crossing | touch | on[i] | on[j])
        self.pair = pair
        self.segment = segment
        self.triangle = triangle
        self.meets = meets
        self.blocks = {}

    def block(self, mask):
        """(closure, meets, pairs) masks of the nonempty point set mask."""
        got = self.blocks.get(mask)
        if got is None:
            top = mask.bit_length() - 1
            rest = mask ^ (1 << top)
            if not rest:
                got = (mask, 0, 0)
            else:
                # the hull grows by the triangles and segments from the new
                # top point to the points already there
                closure, meets, pairs = self.block(rest)
                members = [i for i in range(top) if rest >> i & 1]
                for x, a in enumerate(members):
                    k = self.pair[a][top]
                    pairs |= 1 << k
                    meets |= self.meets[k]
                    closure |= self.segment[a][top]
                    for b in members[x + 1:]:
                        closure |= self.triangle[a, b, top]
                got = (closure, meets, pairs)
            self.blocks[mask] = got
        return got

    def hulls_meet(self, a, b) -> bool:
        """True iff the hulls of the nonempty point sets a and b meet."""
        closure_a, meets_a, _ = self.block(a)
        closure_b, _, pairs_b = self.block(b)
        return bool(closure_a & b or closure_b & a or meets_a & pairs_b)


# ---------------------------------------------------------------------------
# JSON external format

def config_to_json(config: Configuration) -> str:
    obj = {
        "points": [[str(p.x), str(p.y)] for p in config.points],
        "labels": list(config.labels),
    }
    return json.dumps(obj, indent=2)


def config_from_json(text: str) -> Configuration:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise InvalidInput(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise InvalidInput("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict) or "points" not in obj:
        raise InvalidInput("configuration JSON must be an object with a 'points' key")
    raw = obj["points"]
    if not isinstance(raw, list):
        raise InvalidInput("'points' must be a list")
    pts = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InvalidInput(f"each point must be a [x, y] pair, got {entry!r}")
        pts.append(Point(_frac(entry[0]), _frac(entry[1])))
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise InvalidInput("'labels' must be a list")
        for lab in labels:
            if not isinstance(lab, str):
                raise InvalidInput(f"each label must be a string, got {lab!r}")
    return make_configuration(pts, labels)
