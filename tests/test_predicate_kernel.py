"""The predicate kernel behind enumeration, is_noncrossing and nc_join,
checked against an independent separating-axis oracle, against tables built
one predicate call per entry, and against element lists captured before the
kernel existed."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from nclat.errors import GroundMismatch
from nclat.fixtures import BUILTIN, load_builtin
from nclat.geometry import PredicateKernel, make_configuration, standard_config
from nclat.partition import (
    SetPartition,
    count_noncrossing,
    enumerate_noncrossing,
    is_noncrossing,
)
from nclat.poset import nc_join
from oracles import (
    enumerate_all_partitions,
    from_assignment,
    kernel_tables,
    pair_mask,
    singletons,
)


# ---------------------------------------------------------------------------
# oracle: two finite point sets have disjoint convex hulls iff some axis
# strictly separates their projections.  Every segment within either set
# (a superset of the hull edges) gives its normal as a candidate axis, and
# its direction for collinear sets; point pairs across the sets cover two
# single points.

def _axes(a, b):
    out = []
    for pts in (a, b):
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                dx, dy = q[0] - p[0], q[1] - p[1]
                out += [(-dy, dx), (dx, dy)]
    out += [(q[0] - p[0], q[1] - p[1]) for p in a for q in b]
    return out


def oracle_disjoint(a, b):
    for wx, wy in _axes(a, b):
        pa = [wx * x + wy * y for x, y in a]
        pb = [wx * x + wy * y for x, y in b]
        if max(pa) < min(pb) or max(pb) < min(pa):
            return True
    return False


def integer_points(points):
    """Fraction points scaled by a common denominator, to keep the oracle's
    sums in int arithmetic."""
    d = math.lcm(*(c.denominator for p in points for c in p))
    return [(int(x * d), int(y * d)) for x, y in points]


def oracle_noncrossing(points, pi, memo):
    blocks = [tuple(points[i] for i in b) for b in pi.blocks]
    for x in range(len(blocks)):
        for y in range(x + 1, len(blocks)):
            key = (pi.blocks[x], pi.blocks[y])
            if key not in memo:
                memo[key] = oracle_disjoint(blocks[x], blocks[y])
            if not memo[key]:
                return False
    return True


def test_oracle_on_hand_cases():
    sq = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert not oracle_disjoint(sq, [(1, 1)])
    assert not oracle_disjoint(sq, [(2, 2), (3, 3)])  # shared corner
    assert not oracle_disjoint([(0, 0), (2, 0)], [(1, 0), (3, 0)])
    assert oracle_disjoint([(0, 0), (1, 0)], [(2, 0), (3, 0)])
    assert oracle_disjoint([(0, 0)], [(1, 1)])
    assert oracle_disjoint(sq, [(3, 1), (4, 5)])


# ---------------------------------------------------------------------------
# configurations of at most 8 points with a collinear triple and, half of
# the time, four points on one rational circle

coord = st.integers(min_value=-3, max_value=3)
small = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def degenerate_points(draw):
    pts = []
    if draw(st.booleans()):
        ts = draw(st.lists(small, min_size=4, max_size=4, unique=True))
        cx, cy, r = draw(coord), draw(coord), draw(st.integers(1, 2))
        pts += [
            (cx + r * (1 - t * t) / (1 + t * t), cy + r * 2 * t / (1 + t * t))
            for t in ts
        ]
    base = (draw(coord), draw(coord))
    step = draw(st.tuples(coord, coord).filter(lambda v: v != (0, 0)))
    ss = draw(st.lists(small, min_size=3, max_size=3, unique=True))
    pts += [(base[0] + s * step[0], base[1] + s * step[1]) for s in ss]
    pts += draw(st.lists(st.tuples(coord, coord), max_size=8 - len(pts)))
    pts = list(dict.fromkeys((Fraction(x), Fraction(y)) for x, y in pts))
    assume(len(pts) >= 4)
    return draw(st.permutations(pts))


# No shrink phase: each example runs every partition of up to 8 points
# through the oracle, so shrinking a failure took minutes; the unshrunk
# counterexample is reported instead.
@given(degenerate_points(), st.data())
@settings(max_examples=30, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_enumeration_matches_separating_axis_oracle(points, data):
    cfg = make_configuration(points)
    ints = integer_points(points)
    memo = {}
    want = []
    for pi in enumerate_all_partitions(len(points)):
        ok = oracle_noncrossing(ints, pi, memo)
        assert is_noncrossing(cfg, pi) == ok, pi
        if ok:
            want.append(pi)
    found = enumerate_noncrossing(cfg)
    assert [pi for pi, _ in found] == want
    assert [m for _, m in found] == [pair_mask(pi) for pi in want]
    # nc_join is the least noncrossing upper bound
    masks = [pair_mask(pi) for pi in want]
    for _ in range(3):
        i = data.draw(st.integers(0, len(want) - 1))
        j = data.draw(st.integers(0, len(want) - 1))
        uppers = [
            k for k, m in enumerate(masks)
            if masks[i] & ~m == 0 and masks[j] & ~m == 0
        ]
        least = [k for k in uppers if all(masks[k] & ~masks[u] == 0 for u in uppers)]
        assert [nc_join(cfg, want[i], want[j])] == [want[k] for k in least]


# partition.LATTICE_POINTS rests on this bound: the runs of the points in
# (x, y) order have pairwise disjoint hulls, and P_n has nothing more
@given(degenerate_points())
@settings(max_examples=50, deadline=None)
def test_every_configuration_has_at_least_its_runs(points):
    n = len(points)
    assert count_noncrossing(make_configuration(points))[-1] >= 2 ** (n - 1)
    assert count_noncrossing(standard_config("P", n))[-1] == 2 ** (n - 1)


# ---------------------------------------------------------------------------
# pinned degenerate cases

def test_collinear_block_does_not_cover_its_whole_line():
    # S 3 1: y1, then x0..x4 along the flat side.  {x0, x1, x2} spans only
    # the segment from x0 to x2, so x3 and x4 stay outside its hull.
    cfg = standard_config("S", 3, 1)
    assert cfg.labels == ("y1", "x0", "x1", "x2", "x3", "x4")
    assert cfg.kernel.triangle[1, 2, 3] == 0b001110
    beside = [
        SetPartition.of(6, [[0], [1, 2, 3], [4], [5]]),
        SetPartition.of(6, [[0, 5], [1, 2, 3], [4]]),
        SetPartition.of(6, [[0, 4, 5], [1, 2, 3]]),
    ]
    found = [pi for pi, _ in enumerate_noncrossing(cfg)]
    for pi in beside:
        assert is_noncrossing(cfg, pi)
        assert pi in found
    # x3 between x2 and x4 still blocks {x0, x1, x2, x4}
    assert not is_noncrossing(cfg, SetPartition.of(6, [[0], [1, 2, 3, 5], [4]]))


def test_pair_masks_from_enumeration_match_pair_mask():
    for cfg in (standard_config("Q", 8), standard_config("S", 2, 2),
                standard_config("P", 12), standard_config("T", 11),
                load_builtin("triangle-pinwheel")):
        found = enumerate_noncrossing(cfg)
        assert all(m == pair_mask(pi) for pi, m in found)


# ---------------------------------------------------------------------------
# sha256 of every element list, in enumeration order, per group of
# configurations; the literals were captured before the kernel existed

def _group(name):
    if name in ("P", "Q"):
        return [standard_config(name, n) for n in range(11)]
    if name == "T":
        return [standard_config("T", n) for n in range(10)]
    if name in ("U", "V", "S"):
        extra = {"U": 0, "V": 1, "S": 2}[name]  # points beyond m + n
        return [standard_config(name, m, n)
                for m in range(11) for n in range(11) if m + n + extra <= 10]
    if name == "fixtures":
        return [load_builtin(f)
                for f in ("hexagon6", "triangle-midpoints", "triangle-pinwheel")]
    # more than 64 pair bits
    return [standard_config("P", 12), standard_config("T", 11),
            standard_config("U", 1, 11)]


DIGESTS = {
    "P": "3450798e3dc0d58ff17d753d2507522f0b8c8f726e81a5552bcdca4fd38c3d71",
    "Q": "42f1c788d2f534b34fcb48c484e3df0c97315faa1b088aecd76c32e757081edb",
    "T": "67593992592b36f73d4e2dbe676fdf9c015c93cc3054d132783fdf800efa95bf",
    "U": "f60bbf3fed473874545c4d4da673eb5b079e7d2c56971f1f69b5c70e3128e245",
    "V": "814a946c106caf34230037b42d47cc3509c86297ff549b272d4713e136ab6b47",
    "S": "c32935764eafc3b87cc877021fd0758b14a72fb69594a5bcd0e4c0dbcfd3982d",
    "fixtures": "4e275e1b1ffd95b9ec54827ed926c52f055d74c39b6b1e7777101b65a3b87c94",
    "two-word": "7bacf78be84292e6d68039c417b1ba1ded40f3ed470411d0d825bac7905e7e9a",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_element_lists_unchanged(name):
    h = hashlib.sha256()
    for cfg in _group(name):
        for pi, _ in enumerate_noncrossing(cfg):
            h.update(repr(pi.blocks).encode() + b"\n")
        h.update(b"--\n")
    assert h.hexdigest() == DIGESTS[name]


# ---------------------------------------------------------------------------
# the kernel's tables against one predicate call per entry

def _standard_upto(points):
    cfgs = [standard_config(f, n) for f in "PQ" for n in range(points + 1)]
    cfgs += [standard_config("T", n) for n in range(points)]
    for family, extra in (("U", 0), ("V", 1), ("S", 2)):
        cfgs += [standard_config(family, m, n)
                 for m in range(points + 1) for n in range(points + 1)
                 if m + n + extra <= points]
    return cfgs


def _tables(kernel):
    return kernel.segment, kernel.triangle, kernel.meets


def test_kernel_tables_match_oracle_on_standard_configurations():
    cfgs = _standard_upto(12)
    assert len(cfgs) == 273
    for cfg in cfgs:
        assert _tables(cfg.kernel) == kernel_tables(cfg.scaled), cfg.labels


@st.composite
def grid_points(draw):
    """Up to 9 distinct points of a small integer grid: three collinear ones
    first, then the corners of a rectangle (always cocircular), then any."""
    size = draw(st.integers(3, 5))
    cell = st.integers(0, size - 1)
    # a line through the grid: a start and a step that stays inside it
    x0, y0 = draw(cell), draw(cell)
    dx = draw(st.integers(-1, 1))
    dy = draw(st.integers(-1, 1).filter(lambda v: v or dx))
    x0 = min(max(x0, -2 * dx), size - 1 - 2 * dx)
    y0 = min(max(y0, -2 * dy), size - 1 - 2 * dy)
    pts = [(x0 + s * dx, y0 + s * dy) for s in range(3)]
    xs = draw(st.lists(cell, min_size=2, max_size=2, unique=True))
    ys = draw(st.lists(cell, min_size=2, max_size=2, unique=True))
    pts += [(x, y) for x in xs for y in ys]
    pts += draw(st.lists(st.tuples(cell, cell), max_size=9))
    pts = list(dict.fromkeys(pts))[:draw(st.integers(0, 9))]
    return draw(st.permutations(pts))


@given(grid_points())
@settings(max_examples=200, deadline=None)
def test_kernel_tables_match_oracle_on_grid_configurations(points):
    assert _tables(PredicateKernel(points)) == kernel_tables(points)


# ---------------------------------------------------------------------------
# is_noncrossing keeps its verdict per configuration and partition

def _pairwise_noncrossing(kernel, pi):
    masks = [sum(1 << i for i in b) for b in pi.blocks]
    return not any(kernel.hulls_meet(a, b) for a, b in combinations(masks, 2))


@pytest.mark.parametrize("name", ["P7", "U3,4", "S3,3"] + list(BUILTIN))
def test_remembered_verdicts_match_the_pairwise_test(name):
    if name in BUILTIN:
        config = load_builtin(name)
    else:
        config = standard_config(name[0], *map(int, name[1:].split(",")))
    # a kernel of its own, whose verdict memo is_noncrossing never reads
    fresh = PredicateKernel(config.scaled)
    n = len(config)
    rng = random.Random(name)
    seen = set()
    for _ in range(400):
        k = rng.randint(1, n)
        pi = from_assignment(rng.randrange(k) for _ in range(n))
        expected = _pairwise_noncrossing(fresh, pi)
        assert is_noncrossing(config, pi) == expected, pi
        assert is_noncrossing(config, pi) == expected, pi
        seen.add(expected)
    assert seen == {True, False}


def test_repeated_verdict_runs_no_hull_test(monkeypatch):
    config = standard_config("S", 2, 2)
    kernel = config.kernel
    calls = []
    real = kernel.hulls_meet
    monkeypatch.setattr(kernel, "hulls_meet", lambda a, b: calls.append(1) or real(a, b))
    blocks = [[0, 3], [1, 2], [4, 5]]
    first = is_noncrossing(config, SetPartition.of(len(config), blocks))
    assert calls
    calls.clear()
    # an equal partition, not the same object
    assert is_noncrossing(config, SetPartition.of(len(config), blocks)) is first
    assert calls == []


def test_ground_mismatch_is_checked_before_the_remembered_verdicts():
    config = standard_config("P", 4)
    pi = SetPartition.of(4, [[0, 1], [2, 3]])
    assert is_noncrossing(config, pi)
    # the first holds blocks the memo already has a verdict for
    for wrong in (pi._replace(ground=5), singletons(3)):
        with pytest.raises(GroundMismatch):
            is_noncrossing(config, wrong)
