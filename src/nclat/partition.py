"""Set partitions of a configuration's point set, and the noncrossing test.

Partitions are stored canonically: each block sorted ascending, blocks sorted
by their minimum.  Points are identified by their index in the configuration.
The rank of a partition of an n-point ground set is n minus the number of
blocks; it is 0 on the all-singletons partition and n-1 on the one-block
partition (for nonempty ground sets).

A partition is noncrossing when its blocks have pairwise disjoint convex
hulls.  is_noncrossing and enumerate_noncrossing decide this on integer
masks from the configuration's PredicateKernel (see geometry): each block is
its point mask, the points in its hull, and its point pairs, pair i < j
being bit kernel.pair[i][j] (pairs numbered row by row), so the enumeration
also yields every element's pair mask.  One search serves
enumerate_noncrossing, which builds the partitions, and count_noncrossing,
which only counts them.
"""

from collections import namedtuple

from .errors import EmptyBlock, GroundMismatch, InvalidInput, TooLarge
from .geometry import Configuration

DEFAULT_ENUM_CAP = 12


class SetPartition(namedtuple("SetPartition", "ground blocks")):
    # blocks: tuple of tuples of ints, canonical form
    __slots__ = ()

    @classmethod
    def of(cls, ground, blocks) -> "SetPartition":
        """Validated, canonicalizing constructor."""
        if ground < 0:
            raise InvalidInput("ground size must be nonnegative")
        canon = []
        seen = set()
        for b in blocks:
            bs = sorted(b)
            if not bs:
                raise EmptyBlock("blocks must be nonempty")
            for i in bs:
                if not isinstance(i, int) or not (0 <= i < ground):
                    raise InvalidInput(f"block element {i!r} outside ground 0..{ground - 1}")
                if i in seen:
                    raise InvalidInput(f"element {i} appears in two blocks")
                seen.add(i)
            canon.append(tuple(bs))
        if len(seen) != ground:
            missing = sorted(set(range(ground)) - seen)
            raise InvalidInput(f"elements {missing} not covered by any block")
        canon.sort(key=lambda b: b[0])
        return cls(ground, tuple(canon))

    @classmethod
    def singletons(cls, ground) -> "SetPartition":
        return cls(ground, tuple((i,) for i in range(ground)))

    @classmethod
    def one_block(cls, ground) -> "SetPartition":
        if ground == 0:
            return cls(0, ())
        return cls(ground, (tuple(range(ground)),))

    @classmethod
    def from_assignment(cls, assignment) -> "SetPartition":
        """Partition from a block-id vector (ids arbitrary hashables)."""
        vec = list(assignment)
        groups = {}
        for i, a in enumerate(vec):
            groups.setdefault(a, []).append(i)
        blocks = sorted((tuple(g) for g in groups.values()), key=lambda b: b[0])
        return cls(len(vec), tuple(blocks))

    @property
    def rank(self) -> int:
        return self.ground - len(self.blocks)

    def assignment(self):
        """Block index of every ground element, blocks numbered by min."""
        a = [0] * self.ground
        for bi, b in enumerate(self.blocks):
            for i in b:
                a[i] = bi
        return a

    def block_of(self, i: int):
        for b in self.blocks:
            if i in b:
                return b
        raise InvalidInput(f"element {i} outside ground 0..{self.ground - 1}")

    def __str__(self):
        if not self.blocks:
            return "(empty)"
        return "|".join(",".join(str(i) for i in b) for b in self.blocks)


def common_refinement(pi: SetPartition, mu: SetPartition) -> SetPartition:
    """Meet in the full partition lattice: blocks are pairwise intersections."""
    if pi.ground != mu.ground:
        raise GroundMismatch(f"ground sizes differ: {pi.ground} vs {mu.ground}")
    ap, am = pi.assignment(), mu.assignment()
    return SetPartition.from_assignment(list(zip(ap, am)))


def partition_join(pi: SetPartition, mu: SetPartition) -> SetPartition:
    """Join in the full partition lattice (transitive closure of same-block)."""
    if pi.ground != mu.ground:
        raise GroundMismatch(f"ground sizes differ: {pi.ground} vs {mu.ground}")
    parent = list(range(pi.ground))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for part in (pi, mu):
        for b in part.blocks:
            for i in b[1:]:
                union(b[0], i)
    return SetPartition.from_assignment([find(i) for i in range(pi.ground)])


def is_noncrossing(config: Configuration, pi: SetPartition) -> bool:
    """True iff the blocks of pi have pairwise disjoint convex hulls."""
    if pi.ground != len(config):
        raise GroundMismatch(
            f"partition ground {pi.ground} vs configuration size {len(config)}"
        )
    meet = config.kernel.hulls_meet
    masks = block_masks(pi)
    return not any(
        meet(masks[a], masks[b])
        for a in range(len(masks))
        for b in range(a + 1, len(masks))
    )


def block_masks(pi: SetPartition):
    """Point mask of every block of pi, in block order."""
    return [sum(1 << i for i in b) for b in pi.blocks]


def _search(config: Configuration, cap: int, leaf):
    """Call leaf(members, pairs) once per noncrossing partition, in
    lexicographic restricted-growth order: members lists the point tuple of
    each block in creation order, so tuple(members) is the partition's
    canonical blocks, and pairs is the partition's pair mask.  Both are live
    search state, valid only during the call.

    Depth-first assignment of each point to an existing block or a new one;
    a partial assignment whose hulls already meet is pruned, which is sound
    because hulls only grow as points are added.  Every open block is kept
    as its point, closure and pair masks (geometry.PredicateKernel.block).
    The open blocks' hulls are pairwise disjoint, so their closures and pair
    masks are too, and point p may join block B iff closure(B+p) holds no
    placed point outside B, p lies in no other block's closure, and no
    segment on B+p meets a pair outside B: each test is one AND against the
    union over all blocks, with B's own masks cleared by ^ since they lie
    inside the unions.  The last point's placements are the leaves.
    """
    n = len(config)
    if n > cap:
        raise TooLarge(f"configuration has {n} points, cap is {cap}")
    kernel = config.kernel
    block, memo = kernel.block, kernel.blocks
    last = n - 1
    members = []  # point tuples of the open blocks, in creation order
    states = []   # parallel (points, closure, pairs) masks

    def place(i, closure_all, pairs_all):
        bit = 1 << i
        placed = bit - 1
        for b in range(len(states)):
            state = states[b]
            pts, closure, pairs = state
            grown = pts | bit
            got = memo.get(grown)
            if got is None:
                got = block(grown)
            g_closure, g_meets, g_pairs = got
            if ((g_closure & placed) ^ pts or bit & (closure_all ^ closure)
                    or g_meets & (pairs_all ^ pairs)):
                continue
            t = members[b]
            members[b] = t + (i,)
            if i == last:
                leaf(members, pairs_all | g_pairs)
            else:
                states[b] = (grown, g_closure, g_pairs)
                place(i + 1, closure_all | g_closure, pairs_all | g_pairs)
                states[b] = state
            members[b] = t
        if not bit & closure_all:
            members.append((i,))
            if i == last:
                leaf(members, pairs_all)
            else:
                states.append((bit, bit, 0))
                place(i + 1, closure_all | bit, pairs_all)
                states.pop()
            members.pop()

    try:
        if n:
            place(0, 0, 0)
        else:
            leaf(members, 0)
    finally:
        # place refers to itself through its closure cell; emptying the cell
        # frees the search state now instead of at the next full collection
        del place


def enumerate_noncrossing(
    config: Configuration,
    cap: int = DEFAULT_ENUM_CAP,
    with_masks: bool = False,
    max_elements=None,
):
    """All noncrossing partitions of the configuration, in lexicographic
    restricted-growth order.  With with_masks the list holds
    (partition, pair mask) pairs instead, the pair mask having bit
    kernel.pair[i][j] set for each pair i < j in one block, taken from the
    search.  With max_elements the search raises TooLarge as soon as it
    finds one element more than that, instead of finishing first.  Raises
    TooLarge past cap points."""
    n = len(config)
    elems = []
    masks = []

    def leaf(members, pairs):
        if len(elems) == max_elements:
            raise TooLarge(f"lattice has more than {max_elements} elements")
        elems.append(SetPartition(n, tuple(members)))
        masks.append(pairs)

    _search(config, cap, leaf)
    return list(zip(elems, masks)) if with_masks else elems


def count_noncrossing(config: Configuration, cap: int = DEFAULT_ENUM_CAP) -> int:
    """len(enumerate_noncrossing(config, cap)), without building the
    partitions."""
    count = 0

    def leaf(members, pairs):
        nonlocal count
        count += 1

    _search(config, cap, leaf)
    return count
