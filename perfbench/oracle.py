"""Seeded input generator and the independent oracle that checks it.

Nothing here imports nclat.  Configurations are distinct points on a small
integer grid.  The oracle decides hull disjointness with its own exact
separating-axis test, enumerates every set partition whose blocks have
pairwise disjoint hulls, and derives from that list the facts the benchmark
checks: the element set, the rank vector, gradedness and, where an invariant
can refute it, self-duality.
"""

import json
import random
from itertools import combinations

import numpy as np

# DEFAULT_LATTICE_CAP of the program: larger lattices exit 4, which is
# documented behaviour, so a draw above it is redrawn.
LATTICE_CAP = 20000


def draw_points(rng, npts, grid):
    cells = [(x, y) for x in range(grid) for y in range(grid)]
    return rng.sample(cells, npts)


def config_json(points):
    return json.dumps({
        "points": [[str(x), str(y)] for x, y in points],
        "labels": [f"r{i}" for i in range(len(points))],
    })


def collinear_triples(points):
    return sum(
        1 for a, b, c in combinations(points, 3)
        if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) == 0
    )


def _incircle(a, b, c, d):
    rows = [(p[0] - d[0], p[1] - d[1]) for p in (a, b, c)]
    rows = [(x, y, x * x + y * y) for x, y in rows]
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = rows
    return (a1 * (b2 * c3 - b3 * c2) - a2 * (b1 * c3 - b3 * c1)
            + a3 * (b1 * c2 - b2 * c1))


def cocircular_quads(points):
    """Four points on one circle (no three of them collinear)."""
    count = 0
    for q in combinations(points, 4):
        if _incircle(*q) == 0 and collinear_triples(q) == 0:
            count += 1
    return count


# ---------------------------------------------------------------------------
# exact hull disjointness by separating axes

def _separated(pa, pb):
    """True iff the convex hulls of the point lists pa and pb are disjoint.

    If the hulls are disjoint, the segment between their closest points is
    perpendicular to a hull edge (a pair of points of one set) or joins two
    of the points, so one of these candidate axes separates them strictly.
    """
    axes = [(q[0] - p[0], q[1] - p[1]) for p in pa for q in pb]
    for pts in (pa, pb):
        axes.extend((p[1] - q[1], q[0] - p[0]) for p, q in combinations(pts, 2))
    for ax, ay in axes:
        sa = [ax * x + ay * y for x, y in pa]
        sb = [ax * x + ay * y for x, y in pb]
        if max(sa) < min(sb) or max(sb) < min(sa):
            return True
    return False


class Hulls:
    """Memoised disjointness of the hulls of two blocks, given as bitmasks
    over the points of one configuration."""

    def __init__(self, points):
        self.points = points
        self._memo = {}

    def apart(self, ma, mb):
        key = (ma, mb) if ma < mb else (mb, ma)
        hit = self._memo.get(key)
        if hit is None:
            pts = self.points
            hit = self._memo[key] = _separated(
                [p for i, p in enumerate(pts) if ma >> i & 1],
                [p for i, p in enumerate(pts) if mb >> i & 1],
            )
        return hit


def noncrossing_partitions(hulls):
    """All partitions of the points whose blocks have pairwise disjoint
    convex hulls, each a tuple of block bitmasks in creation order.

    Depth-first over restricted growth strings; a partial assignment with two
    meeting hulls is dropped, since adding points only grows hulls.
    """
    n = len(hulls.points)
    apart = hulls.apart
    out = []
    blocks = []

    def place(i):
        if i == n:
            out.append(tuple(blocks))
            return
        bit = 1 << i
        for b in range(len(blocks)):
            grown = blocks[b] | bit
            if all(apart(grown, blocks[c]) for c in range(len(blocks)) if c != b):
                blocks[b] = grown
                place(i + 1)
                blocks[b] ^= bit
        if all(apart(bit, m) for m in blocks):
            blocks.append(bit)
            place(i + 1)
            blocks.pop()

    place(0)
    return out


def as_blocks(part, n):
    """A partition of bitmasks as a frozenset of sorted index tuples."""
    return frozenset(tuple(j for j in range(n) if m >> j & 1) for m in part)


# ---------------------------------------------------------------------------
# order facts derived from the element list

def _pair_masks(parts, n):
    """Each partition as a mask over point pairs (i < j) sharing a block,
    so that pi refines sigma iff mask(pi) & ~mask(sigma) == 0."""
    idx = {pair: k for k, pair in enumerate(combinations(range(n), 2))}
    masks = []
    for part in parts:
        m = 0
        for b in part:
            members = [j for j in range(n) if b >> j & 1]
            for pair in combinations(members, 2):
                m |= 1 << idx[pair]
        masks.append(m)
    return np.array(masks, dtype=np.uint64), idx


def rank_vector(parts, n):
    vec = [0] * n
    for part in parts:
        vec[n - len(part)] += 1
    while vec and vec[-1] == 0:
        vec.pop()
    return vec


def _low(mask):
    return (mask & -mask).bit_length() - 1


def order_facts(hulls, parts):
    """Gradedness and a self-duality refutation (n <= 11 points, so the
    pair masks fit in 64 bits).

    Graded (rank n - #blocks steps by one on every cover) iff for every
    pi < sigma some pair of blocks of pi whose merged hull avoids the other
    blocks lies in one block of sigma.  Self-duality is refuted when the
    multiset of (|down-set|, |up-set|) pairs is not symmetric under swapping.
    """
    n = len(hulls.points)
    masks, idx = _pair_masks(parts, n)
    free = []
    for part in parts:
        f = 0
        for x, y in combinations(range(len(part)), 2):
            merged = part[x] | part[y]
            if all(hulls.apart(merged, part[z])
                   for z in range(len(part)) if z not in (x, y)):
                f |= 1 << idx[tuple(sorted((_low(part[x]), _low(part[y]))))]
        free.append(f)
    free = np.array(free, dtype=np.uint64)
    graded = True
    down = np.zeros(len(parts), dtype=np.int64)
    up = np.zeros(len(parts), dtype=np.int64)
    step = 256
    for lo in range(0, len(parts), step):
        hi = min(len(parts), lo + step)
        # leq[r, j]: element lo + r refines element j
        leq = (masks[lo:hi, None] & ~masks[None, :]) == 0
        up[lo:hi] = leq.sum(axis=1) - 1
        down += leq.sum(axis=0)
        strict = leq & (masks[lo:hi, None] != masks[None, :])
        if (strict & ((free[lo:hi, None] & masks[None, :]) == 0)).any():
            graded = False
    down -= 1
    pairs = sorted(zip(down.tolist(), up.tolist()))
    return {
        "graded": graded,
        "self_dual_refuted": pairs != sorted((u, d) for d, u in pairs),
    }


def draw_config(seed, slot, npts, grid, band, decide_duality=False):
    """Draw the configuration of one seeded slot, with its oracle facts.

    Redraws while the lattice is above the program's lattice cap (exit 4 is
    documented behaviour) or outside `band`, so that the seed changes the
    shape of the configuration but not how much work it makes, and, with
    decide_duality, while the oracle cannot refute self-duality, so that
    every expected verdict is known independently.
    """
    rng = random.Random(f"{seed}:{slot}")
    draws = 0
    while True:
        draws += 1
        points = draw_points(rng, npts, grid)
        hulls = Hulls(points)
        parts = noncrossing_partitions(hulls)
        if len(parts) > LATTICE_CAP or not band[0] <= len(parts) <= band[1]:
            continue
        facts = order_facts(hulls, parts) if decide_duality else {}
        if decide_duality and not facts["self_dual_refuted"]:
            continue
        return {
            "points": points,
            "json": config_json(points),
            "elements": {as_blocks(p, npts) for p in parts},
            "rank_vector": rank_vector(parts, npts),
            "draws": draws,
            "collinear_triples": collinear_triples(points),
            "cocircular_quads": cocircular_quads(points),
            **facts,
        }
