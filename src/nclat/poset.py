"""Finite posets, the noncrossing-partition lattice builder, and order checks.

A FinitePoset is its ranked cover graph: an explicit element list (any
hashable values), the sorted covering pairs, and a rank per element that
strictly increases along the order.  The adjacency lists, the gradedness
witness and the up-sets are derived from the covers on first use and kept;
the dual transposes the covers and reverses the ranks.  One fold over the
cover lists (_closures) builds every table of up-sets, down-sets and
J-down-sets, indexed by element: each element ORs its own bit, which the
caller chooses, with the tables of its covers on one side.

A builder that holds strict up-sets as bitmasks turns them into covers with
one sweep over rank layers (_cover_sweep): each element's up-set is cut layer
by layer, lowest first, and what is not yet reached is a cover, even when it
jumps more than one rank.  No element-indexed mask is ever complemented or
negated: on an int of thousands of bits CPython builds the complement and
the negation as two's-complement temporaries, several times the cost of |,
& or ^ on nonnegative ints.  So the sweep walks a layer's candidates from
the top bit down, ORs the up-sets of the covers it finds, and clears them
from what is left with one left ^= left & above per layer.

The noncrossing lattice of a configuration is built from the canonical
enumeration order.  pi <= sigma exactly when sigma joins every point of each
block of pi to that block's first point, so the up-set of pi is the AND,
over these rank(pi) "star" pairs p, of the set of elements holding p.  The
holder sets are one transpose of the elements' pair masks: the masks are
written as fixed-width binary rows, joined once, and each pair's column is
read back as an int.

Isomorphism (and so self-duality, an isomorphism onto the dual) is decided on
standard contexts: a finite lattice is determined by the order between its
join-irreducible and its meet-irreducible elements (Ganter & Wille, "Formal
Concept Analysis", 1999, ch. 1), so find_isomorphism searches two graphs of
|J| + |M| vertices, 45 + 45 for the 16796 elements of NC(Q_10), and its
budget counts 2(|J| + |M|) vertex signatures per refinement round.
lattice_check takes its verdict from the meets with meet-irreducible
elements alone, N x |M| ANDs (Davey & Priestley 2002, ch. 2), and the same
pass names the first failing pair of a non-lattice; the verdict is kept on
the poset.
"""

from collections import Counter, namedtuple

from .errors import InvalidInput, NotGraded, NotNoncrossing, Undecided
from .geometry import Configuration
from .partition import (
    SetPartition,
    block_masks,
    common_refinement,
    enumerate_noncrossing,
    is_noncrossing,
)

# element signatures one isomorphism search may compute before it gives up
ISOMORPHISM_BUDGET = 2_000_000


def _iter_bits(x: int):
    """Positions of the set bits of x >= 0, ascending.  The walk clears the
    top bit each step, because isolating the lowest bit by negation builds a
    negative temporary that costs several times as much on wide ints."""
    out = []
    while x:
        j = x.bit_length() - 1
        out.append(j)
        x ^= 1 << j
    out.reverse()
    return out


def _closures(adj, order, bit):
    """table[i]: bit(i) ORed with table[j] for every j in adj[i], so the OR
    of bit(j) over every j that i reaches along adj, i itself included.
    order lists each j of adj[i] before i, so every table[j] is final when
    i reads it.  bit is a callable, as a list of the masks 1 << i would
    hold about N^2 / 16 bytes."""
    table = [0] * len(order)
    for i in order:
        t = bit(i)
        for j in adj[i]:
            t |= table[j]
        table[i] = t
    return table


def _cover_sweep(up, rank):
    """The covering pairs (i, j) of the order with strict up-sets up and
    ranks rank.  Elements in one layer are pairwise incomparable, so every
    element of the lowest layer still meeting what is left of i's up-set is
    a cover, and their up-sets, in higher layers, are cut from it."""
    layer_of = {}
    for i, k in enumerate(rank):
        layer_of[k] = layer_of.get(k, 0) | (1 << i)
    layers = sorted(layer_of.items())
    start = {k: p + 1 for p, (k, _) in enumerate(layers)}
    out = []
    for i, left in enumerate(up):
        for _, layer in layers[start[rank[i]]:]:
            if not left:
                break
            cand = left & layer
            if not cand:
                continue
            left ^= cand
            above = 0
            while cand:
                j = cand.bit_length() - 1
                cand ^= 1 << j
                out.append((i, j))
                above |= up[j]
            left ^= left & above
    return out


class FinitePoset:
    """Explicit finite ranked poset, stored as its cover graph.  Element
    order is fixed and deterministic; ranks strictly increase along the
    order."""

    def __init__(self, elements, covers, ranks):
        self.elements = list(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise InvalidInput("poset elements must be distinct")
        self._covers = sorted(covers)
        self.ranks = ranks = list(ranks)
        n = len(self.elements)
        if len(ranks) != n:
            raise InvalidInput(f"{len(ranks)} ranks for {n} poset elements")
        for (i, j) in self._covers:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidInput(f"cover ({i}, {j}) names an element outside 0..{n - 1}")
            if not ranks[i] < ranks[j]:
                raise InvalidInput(f"cover ({i}, {j}) goes from rank {ranks[i]} to rank {ranks[j]}")
        self._neighbours = None
        self._up = None             # closed up-sets, derived on first use
        self._graded = None         # GradedInfo, decided on first use
        self._lattice = None        # lattice_check's (ok, detail), likewise

    def __len__(self):
        return len(self.elements)

    def index(self, element) -> int:
        try:
            return self._index[element]
        except (KeyError, TypeError):  # TypeError: element is unhashable
            raise InvalidInput(f"element {element!r} not in poset") from None

    def up_mask(self, i: int) -> int:
        if self._up is None:
            self._up = _closures(
                self.cover_lists()[0], self.linear_extension()[::-1], lambda i: 1 << i
            )
        return self._up[i] ^ (1 << i)

    def linear_extension(self):
        """Indices in an order compatible with the partial order."""
        return sorted(range(len(self.elements)), key=lambda i: (self.ranks[i], i))

    def covers(self):
        """All covering pairs (i, j), element i covered by element j, sorted."""
        return self._covers

    def cover_lists(self):
        """(upper, lower): the upper and the lower covers of every element,
        as lists of ascending indices."""
        if self._neighbours is None:
            upper = [[] for _ in self.elements]
            lower = [[] for _ in self.elements]
            for (i, j) in self.covers():
                upper[i].append(j)
                lower[j].append(i)
            self._neighbours = (upper, lower)
        return self._neighbours

    def dual(self) -> "FinitePoset":
        """The order-reversed poset: this cover graph transposed, with the
        ranks reversed."""
        top = max(self.ranks, default=0)
        covers = [(j, i) for (i, j) in self.covers()]
        return FinitePoset(self.elements, covers, [top - r for r in self.ranks])


# ---------------------------------------------------------------------------
# noncrossing lattice construction

def build_nc_poset(config: Configuration) -> FinitePoset:
    """The poset of all noncrossing partitions of config, ordered by
    refinement, with elements in canonical enumeration order.  Raises
    TooLarge past partition.LATTICE_POINTS points or DEFAULT_LATTICE_CAP
    elements, the latter from inside the enumeration."""
    found = enumerate_noncrossing(config)
    n = len(found)
    elems = [p for p, _ in found]
    # holders[p]: the elements whose partition puts pair p in one block.
    # Each element's pair mask is one fixed-width binary row, last element
    # first, so in the joined text pair p's column, read top to bottom, is
    # holders[p] from its highest bit down.
    npairs = len(config) * (len(config) - 1) // 2
    width = f"0{npairs}b"
    text = "".join([format(m, width) for _, m in reversed(found)])
    holders = [int(text[npairs - 1 - p::npairs], 2) for p in range(npairs)]
    pair = config.kernel.pair
    full = (1 << n) - 1
    up = []
    for i, pi in enumerate(elems):
        # sigma lies above pi iff it joins each block's points to its first
        u = full
        for b in pi.blocks:
            row = pair[b[0]]
            for x in b[1:]:
                u &= holders[row[x]]
        up.append(u ^ (1 << i))
    ranks = [p.rank for p in elems]
    return FinitePoset(elems, _cover_sweep(up, ranks), ranks)


def product_poset(a: FinitePoset, b: FinitePoset) -> FinitePoset:
    """Direct product ordered componentwise; elements are (a_el, b_el) pairs.
    (x, y) is covered by (x', y) for each cover x' of x, by (x, y') for each
    cover y' of y, and by nothing else."""
    na, nb = len(a), len(b)
    els = [(x, y) for x in a.elements for y in b.elements]
    covers = [(i * nb + j, k * nb + j) for i, k in a.covers() for j in range(nb)]
    covers += [(i * nb + j, i * nb + k) for i in range(na) for j, k in b.covers()]
    rk = [a.ranks[i] + b.ranks[j] for i in range(na) for j in range(nb)]
    return FinitePoset(els, covers, rk)


# ---------------------------------------------------------------------------
# gradedness and rank structure

class GradedInfo(namedtuple("GradedInfo", "is_graded witness")):
    # witness: None, or a covering pair (lower, upper) jumping rank
    __slots__ = ()


def gradedness(poset: FinitePoset) -> GradedInfo:
    """Check that every covering step raises the rank by exactly 1.  The
    witness is the first cover (i, j), in sorted order, that jumps a rank;
    the verdict is kept on the poset.

    For noncrossing lattices the rank of a partition is
    (ground size) - (number of blocks).
    """
    if poset._graded is None:
        rank, els = poset.ranks, poset.elements
        jump = next(((i, j) for i, j in poset.covers() if rank[j] - rank[i] != 1), None)
        poset._graded = GradedInfo(
            jump is None, None if jump is None else (els[jump[0]], els[jump[1]])
        )
    return poset._graded


def rank_vector(poset: FinitePoset):
    """Element counts per rank, bottom rank normalized to 0.  Requires a
    graded poset."""
    info = gradedness(poset)
    if not info.is_graded:
        raise NotGraded(f"not graded; witness cover {info.witness[0]} -> {info.witness[1]}")
    if not poset.elements:
        return []
    lo = min(poset.ranks)
    vec = [0] * (max(poset.ranks) - lo + 1)
    for r in poset.ranks:
        vec[r - lo] += 1
    return vec


def is_rank_symmetric(poset: FinitePoset) -> bool:
    vec = rank_vector(poset)
    return vec == vec[::-1]


# ---------------------------------------------------------------------------
# isomorphism and self-duality

def is_isomorphism(a: FinitePoset, b: FinitePoset, img) -> bool:
    """Whether img (img[i] the index in b of the image of element i of a) is
    an order isomorphism of a onto b: a bijection carrying the covering
    pairs of a exactly onto those of b.  O(covers)."""
    n = len(a)
    if len(b) != n or len(img) != n or sorted(img) != list(range(n)):
        return False
    return {(img[i], img[j]) for (i, j) in a.covers()} == set(b.covers())


def find_isomorphism(a: FinitePoset, b: FinitePoset):
    """An order isomorphism of a onto b as a list img (img[i] is the index
    in b of the image of element i of a) accepted by is_isomorphism, or None
    when there is none.  None is a proof only for a lattice a: when no map
    is found and a is not a lattice, raises InvalidInput.

    The search runs on the standard contexts (Ganter & Wille 1999, ch. 1):
    a graph of a's J and M, then b's, with j joined to m when j <= m.  The
    root colours each vertex by its side.  Each round recolours every vertex
    by its colour and the sorted colours of its neighbours, numbering new
    colours as they first occur, until the number of colours stops changing;
    a colour holding unequally many vertices of a and of b fails the branch.
    A colouring with one vertex of each per colour is a context isomorphism
    alpha, read as x -> the element of b whose J-down-set is alpha(J-down-set
    of x) and checked.  For a lattice a the first alpha decides: were b
    isomorphic to a, it would be a lattice, and every alpha would give a map.
    Otherwise the smallest colour holding several vertices of a (on a tie,
    the one numbered first) is split: its first vertex x in a is paired, one
    branch each, with each of its vertices y in b, and x and y take a new
    colour.  Branches wait on an explicit stack.  Raises Undecided past
    ISOMORPHISM_BUDGET vertex signatures, 2(|J| + |M|) per round.
    """
    n = len(a)
    if len(b) != n:
        return None
    nbrs, side, contexts = [], [], []
    for p in (a, b):
        # J: the elements with one lower cover; down: every element's
        # J-down-set, bit t for J[t]; rows: the J-down-sets of M, the
        # elements with one upper cover
        upper, lower = p.cover_lists()
        J = [i for i, below in enumerate(lower) if len(below) == 1]
        bit = {j: 1 << t for t, j in enumerate(J)}
        down = _closures(lower, p.linear_extension(), lambda i: bit.get(i, 0))
        rows = [down[i] for i, above in enumerate(upper) if len(above) == 1]
        base = len(nbrs)
        nbrs += ([base + len(J) + s for s, d in enumerate(rows) if d >> t & 1]
                 for t in range(len(J)))
        nbrs += ([base + t for t in _iter_bits(d)] for d in rows)
        side += [0] * len(J) + [1] * len(rows)
        contexts.append((J, down, len(nbrs)))
    (ja, _, half), (_, down_b, _) = contexts
    spent = 0

    def refine(col):
        # rounds until the number of colours stops changing; None when a
        # colour holds unequally many vertices of a and of b
        nonlocal spent
        while Counter(col[:half]) == Counter(col[half:]):
            spent += len(col)
            if spent > ISOMORPHISM_BUDGET:
                raise Undecided(f"isomorphism search on {n} elements stopped at its "
                                f"budget of {ISOMORPHISM_BUDGET} element signatures")
            ids = {}
            new = [ids.setdefault((c, *sorted(map(col.__getitem__, vs))), len(ids))
                   for c, vs in zip(col, nbrs)]
            if len(ids) == len(set(col)):
                return col
            col = new
        return None

    stack = [(side, None, None)]
    while stack:
        col, x, y = stack.pop()
        if x is not None:
            col = list(col)
            col[x] = col[y] = max(col) + 1
        col = refine(col)
        if col is None:
            continue
        sizes = Counter(col[:half])
        if len(sizes) == half:
            # b's vertex of each colour, numbered within b: b's J first
            at = dict(zip(col[half:], range(len(col) - half)))
            where = {d: y for y, d in enumerate(down_b)}
            alpha = {j: 1 << at[c] for j, c in zip(ja, col[:len(ja)])}
            images = _closures(a.cover_lists()[1], a.linear_extension(),
                               lambda i: alpha.get(i, 0))
            img = [where.get(d, -1) for d in images]
            if is_isomorphism(a, b, img):
                return img
            break
        k = min((c for c in sizes if sizes[c] > 1), key=lambda c: (sizes[c], c))
        x = col.index(k)
        ys = [v for v in range(half, len(col)) if col[v] == k]
        stack.extend((col, x, y) for y in reversed(ys))
    ok, detail = lattice_check(a)
    if not ok:
        raise InvalidInput(f"no isomorphism found, and the poset is not a lattice: {detail}")
    return None


def poset_isomorphic(a: FinitePoset, b: FinitePoset) -> bool:
    """Whether a and b are order isomorphic, decided by find_isomorphism,
    which raises InvalidInput for a non-lattice a it cannot decide."""
    return find_isomorphism(a, b) is not None


def is_self_dual(poset: FinitePoset) -> bool:
    """Whether the poset has an order-reversing bijection onto itself;
    find_isomorphism(poset, poset.dual()) returns one as a certificate."""
    return poset_isomorphic(poset, poset.dual())


# ---------------------------------------------------------------------------
# meet and join of noncrossing partitions

def nc_meet(config: Configuration, pi: SetPartition, mu: SetPartition) -> SetPartition:
    """Meet in the noncrossing lattice: the common refinement (which is
    automatically noncrossing)."""
    _require_noncrossing(config, pi)
    _require_noncrossing(config, mu)
    return common_refinement(pi, mu)


def nc_join(config: Configuration, pi: SetPartition, mu: SetPartition) -> SetPartition:
    """Join in the noncrossing lattice, on block point masks.

    Each block of mu first absorbs the blocks it overlaps, one AND per pair
    and no hull test, which gives the join in the full partition lattice.
    Then, while two blocks have meeting hulls, as decided by the
    configuration's PredicateKernel, the first such pair is merged.  Any
    noncrossing partition above pi and mu holds each block within one of
    its own, so two blocks whose hulls meet lie in one block of it: every
    merge is forced, and the result is the join whatever the merge order.
    """
    _require_noncrossing(config, pi)
    _require_noncrossing(config, mu)
    masks = block_masks(pi)
    for b in block_masks(mu):
        rest = []
        for m in masks:
            if m & b:
                b |= m
            else:
                rest.append(m)
        masks = rest + [b]
    meet = config.kernel.hulls_meet
    while True:
        clash = next(
            ((x, y) for x in range(len(masks)) for y in range(x + 1, len(masks))
             if meet(masks[x], masks[y])),
            None,
        )
        if clash is None:
            blocks = sorted(tuple(_iter_bits(m)) for m in masks)
            return SetPartition(pi.ground, tuple(blocks))
        x, y = clash
        masks[x] |= masks.pop(y)


def _require_noncrossing(config, pi):
    # is_noncrossing raises GroundMismatch for a partition of another ground
    if not is_noncrossing(config, pi):
        raise NotNoncrossing(f"partition {pi} is crossing for this configuration")


# ---------------------------------------------------------------------------
# lattice verification

def lattice_check(poset: FinitePoset):
    """Whether the poset is a lattice, in N x |M| ANDs for the set M of its
    meet-irreducible elements, those with exactly one upper cover.

    A finite poset is a lattice iff it has one maximal element and, for
    every element x and every m in M, the common lower bounds of x and m
    are the closed down-set of some element.  That gives every pair a meet,
    by induction down from the top: once two upper covers g1, g2 of an
    element g have a meet, it is g, so the down-set of g is theirs
    intersected.  A finite poset with a top and all meets is a lattice.
    The empty poset counts as one.

    Returns (ok, detail), where detail names the first failure: the first
    two maximal elements in index order, which have no common upper bound,
    or else the first m of M in index order and, for it, the first x in
    linear_extension() order whose common lower bounds c are not a closed
    down-set, with the number of maximal elements of c, never 1.  The
    verdict is kept on the poset.

    A down-set holds bit p for the element at position p of
    linear_extension(), which puts every element after those below it, and
    down lists the down-sets in that order.  So the highest bit k of a
    closed down-set c is a maximal element of c, and the test is
    down[k] == c.  An empty c reads the last down-set, which holds its own
    element, and so fails.  The maximal elements of c are its bits outside
    every strict down-set of its elements.
    """
    if poset._lattice is None:
        poset._lattice = _lattice_pass(poset)
    return poset._lattice


def _lattice_pass(poset):
    # lattice_check's one pass, run once per poset
    upper, lower = poset.cover_lists()
    els = poset.elements
    tops = [i for i, covers in enumerate(upper) if not covers]
    if len(tops) > 1:
        a, b = els[tops[0]], els[tops[1]]
        return False, f"elements {a} and {b} have 0 minimal common upper bounds"
    order = poset.linear_extension()
    pos = [0] * len(order)
    for p, i in enumerate(order):
        pos[i] = p
    table = _closures(lower, order, lambda i: 1 << pos[i])
    down = [table[i] for i in order]
    for m, covers in enumerate(upper):
        if len(covers) != 1:
            continue
        dm = table[m]
        x = next((x for x, d in enumerate(down)
                  if down[(c := d & dm).bit_length() - 1] != c), None)
        if x is not None:
            c = down[x] & dm
            below = 0
            for q in _iter_bits(c):
                below |= down[q] ^ (1 << q)
            k = (c ^ (c & below)).bit_count()
            return False, (
                f"elements {els[order[x]]} and {els[m]} have {k} maximal common lower bounds"
            )
    return True, None


# ---------------------------------------------------------------------------
# exports

def poset_to_dot(poset: FinitePoset, title: str = "poset") -> str:
    """Hasse diagram in DOT, layered by rank when the poset is graded."""
    quoted = title.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'digraph "{quoted}" {{', "  rankdir = BT;", '  node [shape = box];']
    for i, e in enumerate(poset.elements):
        lines.append(f'  n{i} [label = "{e}"];')
    for (i, j) in poset.covers():
        lines.append(f"  n{i} -> n{j};")
    if gradedness(poset).is_graded:
        layers = {}
        for i, r in enumerate(poset.ranks):
            layers.setdefault(r, []).append(f"n{i}")
        for r in sorted(layers):
            lines.append(f"  {{ rank = same; {'; '.join(layers[r])}; }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_to_json_obj(poset: FinitePoset) -> dict:
    rv = rank_vector(poset) if gradedness(poset).is_graded else None
    flags = {
        "graded": rv is not None,
        "rank_symmetric": None if rv is None else rv == rv[::-1],
    }
    # json writes tuples as arrays, so blocks and cover pairs go in as they are
    els = [e.blocks if isinstance(e, SetPartition) else str(e)
           for e in poset.elements]
    return {
        "elements": els,
        "covers": list(poset.covers()),
        "rank_vector": rv,
        "flags": flags,
    }
