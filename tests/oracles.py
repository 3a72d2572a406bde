"""Naive oracles the tests check the package's fast paths against, and the
small posets they are checked on.

The package never calls these.  Each oracle decides its question straight
from the definitions, sharing no table or search with the code under test.
"""

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations

from nclat.errors import GroundMismatch, InvalidInput
from nclat.partition import SetPartition
from nclat.poset import FinitePoset, _cover_sweep, _iter_bits


def singletons(ground: int) -> SetPartition:
    """The partition of range(ground) into singletons, the bottom."""
    return SetPartition(ground, tuple((i,) for i in range(ground)))


def one_block(ground: int) -> SetPartition:
    """The partition of range(ground) into one block, the top (no block on
    the empty ground)."""
    return SetPartition(ground, (tuple(range(ground)),) if ground else ())


def refines(pi: SetPartition, mu: SetPartition) -> bool:
    """True iff every block of pi is contained in a block of mu."""
    if pi.ground != mu.ground:
        raise GroundMismatch(f"ground sizes differ: {pi.ground} vs {mu.ground}")
    am = mu.assignment()
    for b in pi.blocks:
        target = am[b[0]]
        for i in b[1:]:
            if am[i] != target:
                return False
    return True


@lru_cache(maxsize=64)
def _pair_index(n: int):
    idx = {}
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            idx[(i, j)] = k
            k += 1
    return idx


def pair_mask(pi: SetPartition) -> int:
    """Bitmask over element pairs (i<j) that share a block, pairs numbered
    row by row.  pi refines mu iff pair_mask(pi) & ~pair_mask(mu) == 0."""
    idx = _pair_index(pi.ground)
    m = 0
    for b in pi.blocks:
        for s in range(len(b)):
            for t in range(s + 1, len(b)):
                m |= 1 << idx[(b[s], b[t])]
    return m


def enumerate_all_partitions(ground: int):
    """All set partitions in lexicographic restricted-growth order (no
    geometry involved)."""
    if ground == 0:
        yield SetPartition(0, ())
        return
    a = [0] * ground

    def rec(i, nblocks):
        if i == ground:
            yield SetPartition.from_assignment(a)
            return
        for b in range(nblocks + 1):
            a[i] = b
            yield from rec(i + 1, max(nblocks, b + 1))

    yield from rec(1, 1)


def leq_idx(poset, i: int, j: int) -> bool:
    """Whether element i lies below or at element j, by their indices."""
    return i == j or bool((poset.up_mask(i) >> j) & 1)


def leq(poset, a, b) -> bool:
    """Whether element a lies below or at element b of the poset."""
    return leq_idx(poset, poset.index(a), poset.index(b))


def from_leq(elements, leq, ranks) -> FinitePoset:
    """Poset from an order predicate and ranks (a list, or a function of
    the element) that must strictly increase along the order."""
    els = list(elements)
    n = len(els)
    rk = [ranks(e) for e in els] if callable(ranks) else list(ranks)
    up = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and leq(els[i], els[j]):
                if rk[i] >= rk[j]:
                    raise InvalidInput(
                        f"ranks must increase along the order: {els[i]!r} <= "
                        f"{els[j]!r} but rank {rk[i]!r} >= {rk[j]!r}"
                    )
                up[i] |= 1 << j
    # i is covered by j iff j is above i and above nothing else above i
    covers = []
    for i in range(n):
        above = [j for j in range(n) if (up[i] >> j) & 1]
        covers += [(i, j) for j in above if not any((up[k] >> j) & 1 for k in above)]
    return FinitePoset(els, covers, rk)


def induced(poset, indices) -> FinitePoset:
    """The subposet of poset on the given element indices, in their order.
    A test input, not an oracle: its covers come from the package's
    rank-layer sweep, which the tests so also run on posets that are not
    lattices."""
    sub = list(indices)
    if len(set(sub)) != len(sub):
        raise InvalidInput("induced subposet indices must be distinct")
    ranks = [poset.ranks[s] for s in sub]
    # the sweep numbers the elements layer by layer, by rank and then in
    # the order of sub; base[r]: the first number above the layer of rank r
    order = sorted(range(len(sub)), key=ranks.__getitem__)
    at = {sub[p]: q for q, p in enumerate(order)}
    count = Counter(ranks)
    sizes = [count[r] for r in sorted(count)]
    base = dict(zip(sorted(count), accumulate(sizes)))
    up = []
    for p in order:
        m = 0
        for t in _iter_bits(poset.up_mask(sub[p])):
            if t in at:
                m |= 1 << (at[t] - base[ranks[p]])
        up.append(m)
    covers = _cover_sweep(up, sizes, order)
    return FinitePoset([poset.elements[s] for s in sub], covers, ranks)


def bool_poset(n: int) -> FinitePoset:
    """Boolean lattice of all subsets of {0..n-1}, as frozensets."""
    if n < 0:
        raise InvalidInput("bool_poset needs n >= 0")
    els = sorted(
        (frozenset(i for i in range(n) if (m >> i) & 1) for m in range(1 << n)),
        key=lambda s: (len(s), tuple(sorted(s))),
    )
    return from_leq(els, frozenset.issubset, ranks=len)


# ---------------------------------------------------------------------------
# anti-automorphisms of NC(Q_n) and NC(P_n), each read from the partition

def kreweras(pi: SetPartition) -> SetPartition:
    """Kreweras complement of a noncrossing partition of points in cyclic
    order 0..n-1: with each block read as the cycle through its elements in
    increasing order, the blocks of K(pi) are the cycles of pi^-1 c, where
    c = (0 1 ... n-1)."""
    n = pi.ground
    inverse = [0] * n
    for block in pi.blocks:
        b = sorted(block)
        for k, x in enumerate(b):
            inverse[b[(k + 1) % len(b)]] = x
    step = [inverse[(x + 1) % n] for x in range(n)]
    blocks = []
    seen = set()
    for x in range(n):
        if x not in seen:
            cycle = []
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = step[x]
            blocks.append(cycle)
    return SetPartition.of(n, blocks)


def gap_complement(pi: SetPartition) -> SetPartition:
    """Gap complement of a partition of points 0..n-1 in line order into
    intervals, as NC(P_n) holds them.  Gap g lies between points g and
    g + 1, and an interval partition is its set of gaps between blocks;
    the complement is the interval partition of the other gaps.  Refining
    adds gaps, so the map reverses the order."""
    n = pi.ground
    where = pi.assignment()
    blocks = [[0]] if n else []
    for g in range(n - 1):
        if where[g] == where[g + 1]:
            blocks.append([g + 1])
        else:
            blocks[-1].append(g + 1)
    return SetPartition.of(n, blocks)


# ---------------------------------------------------------------------------
# the predicate kernel's tables, one predicate call per entry

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p, a, b):
    # p, a, b collinear assumed checked by caller via cross == 0
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_intersect(p, q, r, s) -> bool:
    d1 = _cross(p, q, r)
    d2 = _cross(p, q, s)
    d3 = _cross(r, s, p)
    d4 = _cross(r, s, q)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(r, p, q):
        return True
    if d2 == 0 and _on_segment(s, p, q):
        return True
    if d3 == 0 and _on_segment(p, r, s):
        return True
    if d4 == 0 and _on_segment(q, r, s):
        return True
    return False


def kernel_tables(pts):
    """(segment, triangle, meets) of geometry.PredicateKernel(pts), each
    entry decided by its own cross products and bounding-box tests."""
    pts = tuple(pts)
    n = len(pts)
    ends = list(combinations(range(n), 2))
    segment = [[1 << i if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in ends:
        a, b = pts[i], pts[j]
        segment[i][j] = segment[j][i] = sum(
            1 << q for q, c in enumerate(pts)
            if _cross(a, b, c) == 0 and _on_segment(c, a, b)
        )
    triangle = {}
    for i, j, k in combinations(range(n), 3):
        a, b, c = pts[i], pts[j], pts[k]
        side = _cross(a, b, c)
        if side == 0:
            triangle[i, j, k] = segment[i][j] | segment[j][k] | segment[i][k]
        else:
            triangle[i, j, k] = sum(
                1 << q for q, d in enumerate(pts)
                if min(side * _cross(a, b, d), side * _cross(b, c, d),
                       side * _cross(c, a, d)) >= 0
            )
    meets = [0] * len(ends)
    for k, (i, j) in enumerate(ends):
        for l in range(k, len(ends)):
            r, s = ends[l]
            if _segments_intersect(pts[i], pts[j], pts[r], pts[s]):
                meets[k] |= 1 << l
                meets[l] |= 1 << k
    return segment, triangle, meets
