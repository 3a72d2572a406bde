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
enumerate_noncrossing, which builds the partitions with their pair masks and
stops past DEFAULT_LATTICE_CAP elements, and count_noncrossing, which only
counts them, on at most DEFAULT_ENUM_CAP points and with no element cap.
The search places the points in their stored order and counts its nodes
at every depth, so count_noncrossing counts every prefix of the points on
the way: a table row of nested configurations takes one search.
Both caps are module constants, read when the search runs, and no public
function takes a cap.  is_noncrossing runs its pairwise hull test once per
configuration and partition: the kernel's partitions dict keeps each
verdict, keyed by the partition's blocks, so nc_meet and nc_join, which
check both arguments on every call, repeat no hull test.
"""

from collections import namedtuple

from .errors import EmptyBlock, GroundMismatch, InvalidInput, TooLarge
from .geometry import Configuration

# points count_noncrossing takes, read when it is called
DEFAULT_ENUM_CAP = 12
# elements enumerate_noncrossing may find before it raises TooLarge
DEFAULT_LATTICE_CAP = 20000
# n points have at least 2^(n-1) noncrossing partitions, since their runs in
# (x, y) order have pairwise disjoint hulls: so no more points fit the cap
LATTICE_POINTS = DEFAULT_LATTICE_CAP.bit_length()


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


def is_noncrossing(config: Configuration, pi: SetPartition) -> bool:
    """True iff the blocks of pi have pairwise disjoint convex hulls."""
    if pi.ground != len(config):
        raise GroundMismatch(
            f"partition ground {pi.ground} vs configuration size {len(config)}"
        )
    kernel = config.kernel
    verdict = kernel.partitions.get(pi.blocks)
    if verdict is None:
        meet = kernel.hulls_meet
        masks = block_masks(pi)
        verdict = kernel.partitions[pi.blocks] = not any(
            meet(masks[a], masks[b])
            for a in range(len(masks))
            for b in range(a + 1, len(masks))
        )
    return verdict


def block_masks(pi: SetPartition):
    """Point mask of every block of pi, in block order."""
    return [sum(1 << i for i in b) for b in pi.blocks]


def _require_points(n: int, cap: int):
    """Raise TooLarge for a configuration of n points past the point cap."""
    if n > cap:
        raise TooLarge(f"configuration has {n} points, cap is {cap}")


def _search(config: Configuration, cap: int, leaf):
    """Call leaf(members, pairs) once per noncrossing partition, in
    lexicographic restricted-growth order: members lists the point tuple of
    each block in creation order, so tuple(members) is the partition's
    canonical blocks, and pairs is the partition's pair mask.  Both are live
    search state, valid only during the call.

    Depth-first assignment of each point to an existing block or a new one;
    a partial assignment whose hulls already meet is pruned, which is sound
    because hulls only grow as points are added.  Every open block is kept
    as its point and pair masks (geometry.PredicateKernel.block).  The open
    blocks' hulls are pairwise disjoint, so their pair masks are too, and
    point p may join block B iff closure(B+p) holds no placed point outside
    B and no segment on B+p meets a pair outside B, the latter one AND
    against the union over all blocks with B's own pairs cleared by ^.  A p
    inside another block's hull needs no test of its own: the segment from
    p to a point of B leaves that hull through one of its pairs, touching
    included.  The last point's placements are the leaves.

    Point i is placed from points 0..i-1 alone, so the nodes the search
    enters at depth k are the noncrossing partitions of the first k points.
    Returns their number at each depth, n + 1 entries, the last of which,
    the leaves, it leaves at 0 for leaf to count.
    """
    n = len(config)
    _require_points(n, cap)
    kernel = config.kernel
    block, memo = kernel.block, kernel.blocks
    last = n - 1
    members = []  # point tuples of the open blocks, in creation order
    states = []   # parallel (points, pairs) masks
    sizes = [0] * (n + 1)

    def place(i, closure_all, pairs_all):
        sizes[i] += 1
        bit = 1 << i
        placed = bit - 1
        for b in range(len(states)):
            pts, pairs = state = states[b]
            grown = pts | bit
            got = memo.get(grown)
            if got is None:
                got = block(grown)
            g_closure, g_meets, g_pairs = got
            if (g_closure & placed) ^ pts or g_meets & (pairs_all ^ pairs):
                continue
            t = members[b]
            members[b] = t + (i,)
            if i == last:
                leaf(members, pairs_all | g_pairs)
            else:
                states[b] = (grown, g_pairs)
                place(i + 1, closure_all | g_closure, pairs_all | g_pairs)
                states[b] = state
            members[b] = t
        if not bit & closure_all:
            members.append((i,))
            if i == last:
                leaf(members, pairs_all)
            else:
                states.append((bit, 0))
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
    return sizes


def enumerate_noncrossing(config: Configuration):
    """All noncrossing partitions of the configuration, in lexicographic
    restricted-growth order, as (partition, pair mask) pairs, the pair mask
    having bit kernel.pair[i][j] set for each pair i < j in one block, taken
    from the search.  Raises TooLarge past LATTICE_POINTS points, and as
    soon as the search finds one element more than DEFAULT_LATTICE_CAP,
    instead of finishing first."""
    n = len(config)
    found = []

    def leaf(members, pairs):
        if len(found) == DEFAULT_LATTICE_CAP:
            raise TooLarge(f"lattice has more than {DEFAULT_LATTICE_CAP} elements")
        found.append((SetPartition(n, tuple(members)), pairs))

    _search(config, LATTICE_POINTS, leaf)
    return found


def count_noncrossing(config: Configuration):
    """The number of noncrossing partitions of each prefix of the
    configuration's points, from one search, without building them and
    with no element cap: a list of n + 1 counts, entry k that of the first
    k points, so the last entry counts the whole configuration.  Raises
    TooLarge past DEFAULT_ENUM_CAP points."""
    count = 0

    def leaf(members, pairs):
        nonlocal count
        count += 1

    sizes = _search(config, DEFAULT_ENUM_CAP, leaf)
    sizes[-1] = count
    return sizes
