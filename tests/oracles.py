"""Naive oracles the tests check the package's fast paths against.

The package never calls these.  Each decides its question straight from the
definitions, sharing no table or search with the code under test.
"""

from functools import lru_cache

from nclat.errors import GroundMismatch
from nclat.partition import SetPartition


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
