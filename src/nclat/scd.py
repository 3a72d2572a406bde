"""Symmetric chain decompositions of noncrossing partition lattices.

A symmetric chain decomposition (SCD) of a graded poset partitions the
elements into saturated chains, each centered: the ranks of a chain's bottom
and top sum to the ranks of the poset's bottom and top.  Chains are lists of
poset elements in increasing order.

Three reusable ingredients:

  * boolean_scd: the bracket-matching decomposition of Bool(n),
  * product_scd: tiles the product of two decompositions with hook-shaped
    centered chains,
  * generic_scd: a greedy walk on a graded rank-symmetric poset, used for
    the classical lattice NC(Q_r) (every S tail, and S with m = 0).

The family builders scd_T, scd_U, scd_V, scd_S combine these through the
removal recursion: splitting a lattice by the fate of the last stored point.
The A part holds the partitions where that point is a singleton or shares a
block with its stored predecessor; the B_k part holds those where its block
instead reaches the k-th point of the stored prefix and nothing earlier.
removal_class and decomposition_parts expose this split together with the
product poset each part matches and its map onto the host, so criterion 7
of the acceptance suite can check the structure element by element.
"""

from collections import namedtuple
from functools import lru_cache

from .errors import (
    AssemblyFailure,
    InvalidInput,
    NotRankSymmetric,
    UnknownFamily,
)
from .geometry import point_count, standard_config
from .partition import SetPartition
from .poset import (
    FinitePoset,
    bool_poset,
    build_nc_poset,
    gradedness,
    product_poset,
    rank_vector,
)


# ---------------------------------------------------------------------------
# verification

class VerifyResult(namedtuple(
        "VerifyResult", "ok reason chain_count element_count lengths")):
    # reason: str or None; lengths: chain length -> number of chains
    __slots__ = ()

    def __bool__(self):
        return self.ok


def verify_scd(poset: FinitePoset, chains) -> VerifyResult:
    """Check that chains form a symmetric chain decomposition of poset.

    Verifies that the poset is graded, that every chain is a saturated chain
    listed bottom to top, that each chain is centered, and that the chains
    partition the element set.
    """
    lengths = {}
    for ch in chains:
        lengths[len(ch)] = lengths.get(len(ch), 0) + 1
    count = len(chains)
    total = sum(len(ch) for ch in chains)

    def fail(msg):
        return VerifyResult(False, msg, count, total, lengths)

    if not gradedness(poset).is_graded:
        return fail("poset is not graded")
    if not poset.elements:
        if chains:
            return fail("nonempty chain list over an empty poset")
        return VerifyResult(True, None, 0, 0, {})
    ranks = poset.ranks
    lo = min(ranks)
    hi = max(ranks)
    cover_set = set(poset.covers())
    seen = set()
    for ci, ch in enumerate(chains):
        if not ch:
            return fail(f"chain {ci} is empty")
        try:
            idx = [poset.index(e) for e in ch]
        except InvalidInput:
            return fail(f"chain {ci} contains an element outside the poset")
        for a, b in zip(idx, idx[1:]):
            if (a, b) not in cover_set:
                return fail(
                    f"chain {ci} step {poset.elements[a]} -> {poset.elements[b]}"
                    " is not a covering step"
                )
        if ranks[idx[0]] + ranks[idx[-1]] != lo + hi:
            return fail(
                f"chain {ci} spans ranks {ranks[idx[0]]}..{ranks[idx[-1]]},"
                " not centered"
            )
        for i in idx:
            if i in seen:
                return fail(f"element {poset.elements[i]} appears twice")
            seen.add(i)
    if len(seen) != len(poset.elements):
        return fail(f"chains cover {len(seen)} of {len(poset.elements)} elements")
    return VerifyResult(True, None, count, total, lengths)


def symmetric_chain_profile(rank_vec) -> dict:
    """Expected chain-length multiset {length: count} for any SCD of a poset
    with the given rank sizes."""
    vec = list(rank_vec)
    if vec != vec[::-1]:
        raise NotRankSymmetric(f"rank vector {vec} is not palindromic")
    top = len(vec) - 1
    prof = {}
    prev = 0
    for k in range(top // 2 + 1):
        need = vec[k] - prev
        if need < 0:
            raise AssemblyFailure(f"rank sizes {vec} are not unimodal")
        if need:
            prof[top - 2 * k + 1] = need
        prev = vec[k]
    return prof


# ---------------------------------------------------------------------------
# building blocks

def boolean_scd(n: int):
    """Symmetric chain decomposition of Bool(n) by bracket matching.

    Read a subset of {0..n-1} as a word with 1 for open and 0 for close
    brackets.  Matched positions are frozen; the chain through a word varies
    its run of unmatched 1s, so each chain is recovered from the word with
    all unmatched positions cleared.  Elements are frozensets, matching
    bool_poset(n).
    """
    if n < 0:
        raise InvalidInput("boolean_scd needs n >= 0")
    groups = {}
    for w in range(1 << n):
        stack = []
        for i in range(n):
            if (w >> i) & 1:
                stack.append(i)
            elif stack:
                stack.pop()
        key = w
        for i in stack:
            key &= ~(1 << i)
        groups.setdefault(key, []).append(w)
    chains = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda v: v.bit_count())
        chains.append(
            [frozenset(i for i in range(n) if (v >> i) & 1) for v in members]
        )
    return chains


def product_scd(chains_a, chains_b, combine):
    """Combine chain decompositions of two posets into one of their product.

    Every pair of chains spans a grid of pairs; the grid splits into nested
    hook-shaped chains (up one column, then along one row), each centered
    whenever the two input chains are.  combine(a, b) builds the output
    elements.
    """
    out = []
    for ca in chains_a:
        for cb in chains_b:
            a, b = len(ca), len(cb)
            for r in range(min(a, b)):
                chain = [combine(ca[r], cb[j]) for j in range(b - r)]
                chain.extend(combine(ca[i], cb[b - 1 - r]) for i in range(r + 1, a))
                out.append(chain)
    return out


def generic_scd(poset: FinitePoset):
    """Build an SCD of a graded rank-symmetric poset by a greedy walk.

    For each rank k up to the middle, in turn, vec[k] - vec[k-1] chains start
    at rank k: each at the lowest-index unused element of that rank, climbing
    by the lowest-index unused upper cover to the mirror rank.  Every element
    is visited at most once, so there is no search and no budget.  Raises
    NotGraded or NotRankSymmetric when the preconditions fail and
    AssemblyFailure when the walk gets stuck, which can happen on a poset
    that has an SCD the greedy choice misses.
    """
    vec = rank_vector(poset)
    profile = symmetric_chain_profile(vec)
    top = len(vec) - 1
    lo = min(poset.ranks, default=0)
    by_rank = [[] for _ in vec]
    for i, r in enumerate(poset.ranks):
        by_rank[r - lo].append(i)
    upper = poset.cover_lists()[0]
    used = [False] * len(poset)
    chains = []
    for k in range(top // 2 + 1):
        starts = (i for i in by_rank[k] if not used[i])
        for _ in range(profile.get(top - 2 * k + 1, 0)):
            path = [next(starts)]
            used[path[0]] = True
            for _ in range(top - 2 * k):
                cur = next((j for j in upper[path[-1]] if not used[j]), None)
                if cur is None:
                    raise AssemblyFailure(
                        f"greedy chain walk stuck at {poset.elements[path[-1]]}"
                    )
                used[cur] = True
                path.append(cur)
            chains.append(path)
    return [[poset.elements[i] for i in path] for path in chains]


# ---------------------------------------------------------------------------
# partition surgery shared by the family builders and the part maps

def _relabel(pi: SetPartition, perm) -> SetPartition:
    return SetPartition.of(pi.ground, [tuple(perm[i] for i in b) for b in pi.blocks])


def _runs_partition(t: int, gaps) -> SetPartition:
    """Partition of 0..t-1 into runs; i and i+1 share a block iff i in gaps."""
    blocks = []
    cur = [0]
    for i in range(1, t):
        if (i - 1) in gaps:
            cur.append(i)
        else:
            blocks.append(tuple(cur))
            cur = [i]
    blocks.append(tuple(cur))
    return SetPartition.of(t, blocks)


def _add_last(pi: SetPartition, ground: int, with_partner: bool) -> SetPartition:
    """Extend a partition of 0..ground-2 by the point ground-1, either as a
    singleton or merged into the block of its predecessor ground-2.  The new
    point is the largest, so it ends the block it joins and a new singleton
    comes last: the blocks stay canonical without sorting."""
    if pi.ground != ground - 1:
        raise InvalidInput(f"partition of {pi.ground} points, expected {ground - 1}")
    last = ground - 1
    if not with_partner:
        return SetPartition(ground, pi.blocks + ((last,),))
    if not pi.ground:
        raise InvalidInput("no predecessor block to merge the last point into")
    return SetPartition(
        ground, tuple(b + (last,) if b[-1] == last - 1 else b for b in pi.blocks)
    )


def _merge_parts(sigma: SetPartition, tau: SetPartition, offset: int, ground: int):
    """Assemble sigma (shifted to start at offset) with tau on the stored
    prefix 0..offset-1, attaching the last point ground-1 to the tau block
    holding the anchor offset-1.  tau's blocks all start below sigma's and
    the anchor ends its block, so the blocks come out canonical."""
    if tau.ground != offset or offset + sigma.ground != ground - 1:
        raise InvalidInput(
            f"parts of {tau.ground} and {sigma.ground} points at offset {offset}"
            f" do not fill {ground - 1} points"
        )
    if offset < 1:
        raise InvalidInput("no anchor block to attach the last point to")
    anchor, last = offset - 1, ground - 1
    blocks = [b + (last,) if b[-1] == anchor else b for b in tau.blocks]
    blocks.extend(tuple(i + offset for i in b) for b in sigma.blocks)
    return SetPartition(ground, tuple(blocks))


def _interval_chains(t: int):
    """SCD of the noncrossing partitions of t points in convex-boundary
    storage order on one line: interval partitions, Boolean by gap set."""
    if t == 0:
        return [[SetPartition.of(0, [])]]
    return [
        [_runs_partition(t, gaps) for gaps in ch] for ch in boolean_scd(t - 1)
    ]


@lru_cache(maxsize=None)
def _classical_chains(r: int):
    """SCD of the classical lattice of r points in strictly convex position."""
    chains = generic_scd(build_nc_poset(standard_config("Q", r)))
    return tuple(tuple(ch) for ch in chains)


# ---------------------------------------------------------------------------
# family builders

@lru_cache(maxsize=None)
def _family_chains(family: str, m: int, n: int):
    if family in ("U", "V"):
        total = m + n + (1 if family == "V" else 0)
        if m == 0 or n == 0:
            # one or both arms empty: all points collinear in stored order
            return tuple(tuple(ch) for ch in _interval_chains(total))
        if m == 1:
            if n == 1:
                if family == "U":
                    return ((SetPartition.singletons(2), SetPartition.one_block(2)),)
                # three points in convex position
                return _classical_chains(3)
            # reflect across the diagonal: stored order reverses
            flipped = _family_chains(family, n, 1)
            perm = [total - 1 - i for i in range(total)]
            return tuple(
                tuple(_relabel(p, perm) for p in ch) for ch in flipped
            )
    elif family == "S":
        total = m + n + 2
        if n == 0:
            return tuple(tuple(ch) for ch in _interval_chains(total))
        if m == 0:
            # all points lie on one circle
            return _classical_chains(total)
    else:
        raise UnknownFamily(f"no chain builder for family {family!r}")

    # removal recursion: split by the fate of the last stored point
    chains = []
    sub = _family_chains(family, m - 1, n)
    chains.extend(
        product_scd(
            sub,
            [(0, 1)],
            combine=lambda p, e: _add_last(p, total, bool(e)),
        )
    )
    for k in range(1, n + 1):
        off = n - k + 1
        sigma = _family_chains(family, m - 1, k - 1)
        if family == "S":
            tails = _classical_chains(off)
        else:
            tails = _interval_chains(off)
        chains.extend(
            product_scd(
                sigma,
                tails,
                combine=lambda s, t, off=off: _merge_parts(s, t, off, total),
            )
        )
    return tuple(tuple(ch) for ch in chains)


def scd_U(m: int, n: int):
    """Symmetric chain decomposition of the open-cone lattice NC(U_{m,n})."""
    point_count("U", m, n)
    return [list(ch) for ch in _family_chains("U", m, n)]


def scd_V(m: int, n: int):
    """Symmetric chain decomposition of the closed-cone lattice NC(V_{m,n})."""
    point_count("V", m, n)
    return [list(ch) for ch in _family_chains("V", m, n)]


def scd_S(m: int, n: int):
    """Symmetric chain decomposition of the semicircular lattice NC(S_{m,n})."""
    point_count("S", m, n)
    return [list(ch) for ch in _family_chains("S", m, n)]


def scd_T(n: int):
    """Symmetric chain decomposition of NC(T_n).

    T_n stores the same points as U_{n,1} (off-line point first), so the
    chains are shared.
    """
    point_count("T", n)
    return [list(ch) for ch in _family_chains("U", n, 1)]


# ---------------------------------------------------------------------------
# the removal decomposition, exposed for structural checks

def removal_class(pi: SetPartition, prefix_count: int) -> str:
    """Name the removal part a partition falls into.

    The stored prefix holds prefix_count points of the far side, listed
    inward so that stored index h carries label prefix_count - h.  Returns
    "A" when the last point is a singleton or shares a block with its stored
    predecessor, else "B<k>" with k the smallest label in its block.
    """
    last = pi.ground - 1
    blk = pi.block_of(last)
    if len(blk) == 1 or (last - 1) in blk:
        return "A"
    labels = [prefix_count - h for h in blk if h < prefix_count]
    if not labels:
        raise AssemblyFailure(
            f"block {blk} of the last point avoids both the prefix and the predecessor"
        )
    return f"B{min(labels)}"


class DecompositionPart(namedtuple("DecompositionPart", "name model host_indices")):
    # model: a FinitePoset; host_indices: host element index for each model
    # element, in order
    __slots__ = ()


class RemovalDecomposition(namedtuple("RemovalDecomposition", "poset parts prefix_count")):
    __slots__ = ()


def decomposition_parts(family: str, m: int, n=None) -> RemovalDecomposition:
    """Split a standard-family lattice into its removal parts.

    Returns the host lattice plus one DecompositionPart per part: "A" with
    model NC(host minus last point) x Bool(1), and "B1".."Bn" with model
    NC(points beyond the separating chord) x (Boolean tail for T/U/V,
    circular tail for S).  Each model is built from standard configurations
    of the same family one step down (T_m stores the points of U_{m,1}).
    host_indices realizes the claimed isomorphism explicitly, element by
    element: model element i goes to host element host_indices[i].

    Sizes follow the removal recursion's hypotheses: T needs size >= 2, U and V
    need m >= 2 and n >= 1, S needs m >= 1 and n >= 1.
    """
    cfg = standard_config(family, m, n)
    if family == "T":
        if m < 2:
            raise InvalidInput("removal decomposition of T needs size >= 2")
        family, n = "U", 1  # T_m stores the points of U_{m,1}
    elif family in ("U", "V", "S"):
        least = 1 if family == "S" else 2
        if m < least or n < 1:
            raise InvalidInput(f"removal decomposition needs m >= {least} and n >= 1")
    else:
        raise UnknownFamily(f"no removal decomposition for family {family!r}")

    host = build_nc_poset(cfg)
    N = len(cfg)
    sub = build_nc_poset(standard_config(family, m - 1, n))
    model = product_poset(sub, bool_poset(1))
    idx = [host.index(_add_last(p, N, bool(eps))) for (p, eps) in model.elements]
    parts = [DecompositionPart("A", model, idx)]

    for k in range(1, n + 1):
        off = n - k + 1
        beyond = build_nc_poset(standard_config(family, m - 1, k - 1))
        if family == "S":
            tail_model = build_nc_poset(standard_config("Q", off))
            as_tail = lambda te: te
        else:
            tail_model = bool_poset(off - 1)
            as_tail = lambda te, off=off: _runs_partition(off, te)
        model = product_poset(beyond, tail_model)
        idx = [
            host.index(_merge_parts(sig, as_tail(te), off, N))
            for (sig, te) in model.elements
        ]
        parts.append(DecompositionPart(f"B{k}", model, idx))
    return RemovalDecomposition(host, parts, n)
