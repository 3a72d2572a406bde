"""Finite posets, the noncrossing-partition lattice builder, and order checks.

A FinitePoset is its ranked cover graph: an explicit element list (any
hashable values), the sorted covering pairs, and a rank per element that
strictly increases along the order.  The adjacency lists, the gradedness
witness and the up-sets are derived from the covers on first use and kept;
the dual transposes the covers and reverses the ranks.  One closure pass
(_closures) derives every up- and down-set table, labelled by element index
or by position in linear_extension().

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

Isomorphism (and so self-duality, an isomorphism onto the dual) is decided by
individualisation-refinement on the cover digraphs (McKay & Piperno,
"Practical graph isomorphism II", 2014), refining colours from a worklist of
the cells that split (Paige & Tarjan 1987), as find_isomorphism describes;
its budget counts one element signature per vertex a splitter touches and 2n
per branch.  lattice_check takes its verdict from the meets with
meet-irreducible elements alone, N x |M| ANDs (Davey & Priestley 2002,
ch. 2), and the same pass names the first failing pair of a non-lattice.
"""

from collections import Counter, namedtuple
from itertools import chain, groupby
from operator import itemgetter

from .errors import (
    GroundMismatch,
    InvalidInput,
    NotGraded,
    NotNoncrossing,
    Undecided,
)
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


def _closures(adj, order, label):
    """table[label[i]]: the bit label[i] together with label[j] for every j
    that i reaches along adj, for every i.  order lists each j of adj[i]
    before i, so every table[label[j]] is final when i reads it."""
    table = [0] * len(order)
    for i in order:
        t = 1 << label[i]
        for j in adj[i]:
            t |= table[label[j]]
        table[label[i]] = t
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
        self.ranks = list(ranks)
        self._neighbours = None
        self._up = None             # closed up-sets, derived on first use
        self._graded = None         # GradedInfo, decided on first use

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
                self.cover_lists()[0], self.linear_extension()[::-1], range(len(self))
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


def _longest_chains(order, below):
    # length of the longest cover chain ending at each element; every
    # element of below[i] comes before i in order
    h = [0] * len(order)
    for i in order:
        h[i] = max((h[j] + 1 for j in below[i]), default=0)
    return h


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
    when there is none.

    Individualisation-refinement over the disjoint union of the two cover
    digraphs, on 2n vertices (a's, then b's shifted by n).  A colouring is a
    list of cells, sets of vertices, first grouped by (height, depth, number
    of upper covers, number of lower covers), and is refined until every
    vertex of a cell has equally many neighbours in each cell.  A cell keeps
    one height and a cover joins two heights, so one count per pair of
    cells tells up- from down-neighbours.

    Refinement pops a splitter cell from a worklist and counts its
    neighbours at each vertex it touches; a cell splits by these counts,
    its untouched part keeping the cell's id and the others taking new ids
    in the order of their counts, never of vertex indices.  All new parts
    but the largest are queued, all of them when the cell is still queued:
    counts into the part left out follow from the others.  A part holding
    unequally many vertices of a and of b fails the branch.

    A discrete colouring gives a map, which is verified.  Otherwise the
    smallest non-singleton cell (on a tie, the one holding the lowest vertex
    x of a) is split: x is paired, one branch each, with each vertex y of the
    cell in b.  A branch copies the colouring, moves x and y to a new cell
    and queues only it, as the colouring it came from was equitable.
    Branches wait on an explicit stack; the search is exhaustive, so None
    is a proof.  Raises Undecided past ISOMORPHISM_BUDGET element
    signatures: one per vertex a splitter touches, 2n per branch.
    """
    n = len(a)
    if len(b) != n:
        return None
    budget = ISOMORPHISM_BUDGET
    inits = []
    for p in (a, b):
        upper, lower = p.cover_lists()
        order = p.linear_extension()
        heights = _longest_chains(order, lower)
        depths = _longest_chains(order[::-1], upper)
        inits += zip(heights, depths, map(len, upper), map(len, lower))
    # one cover graph on 2n vertices, a first, then b shifted by n: the
    # upper and lower covers of each vertex.  a's lists reuse its ints
    nbrs = [js + ks for js, ks in zip(*a.cover_lists())]
    nbrs += ([j + n for j in js + ks] for js, ks in zip(*b.cover_lists()))
    ids = {}
    col = [ids.setdefault(c, len(ids)) for c in inits]
    cells = [set() for _ in ids]
    for v, k in enumerate(col):
        cells[k].add(v)
    spent = 0

    def charge(work):
        nonlocal spent
        spent += work
        if spent > budget:
            raise Undecided(
                f"isomorphism search on {n} elements stopped at its budget "
                f"of {budget} element signatures"
            )

    def balanced(part):
        return 2 * sum(v < n for v in part) == len(part)

    def refine(col, cells, todo):
        # split cells until the colouring is equitable; False when a part
        # does not hold as many vertices of a as of b
        queued = set(todo)
        while todo:
            s = todo.pop()
            queued.discard(s)
            hits = Counter(chain.from_iterable(map(nbrs.__getitem__, cells[s])))
            charge(len(hits))
            split = {}
            for u, k in hits.items():
                split.setdefault((col[u], k), []).append(u)
            for c, keys in groupby(sorted(split), itemgetter(0)):
                parts = [split[key] for key in keys]
                cell = cells[c]
                if sum(map(len, parts)) == len(cell):
                    # no untouched part: the first part keeps the id, so a
                    # cell that did not split queues nothing
                    parts = parts[1:]
                new = []
                for part in parts:
                    if not balanced(part):
                        return False
                    cell.difference_update(part)
                    k = len(cells)
                    cells.append(set(part))
                    for v in part:
                        col[v] = k
                    new.append(k)
                if c not in queued:
                    new.append(c)
                    new.remove(max(new, key=lambda k: len(cells[k])))
                todo += new
                queued.update(new)
        return True

    # (colouring, x, y): refine the colouring with x in a and y in b
    # individualised.  The root individualises nothing; its colours count
    # each vertex's covers, so it is equitable on the whole vertex set and
    # its largest cell need not be queued
    stack = [(col, cells, None, None)]
    while stack:
        col, cells, x, y = stack.pop()
        charge(2 * n)
        if x is None:
            if not all(map(balanced, cells)):
                continue
            todo = sorted(range(len(cells)), key=lambda k: len(cells[k]))[:-1]
        else:
            col = list(col)
            cells = [set(cell) for cell in cells]
            cells[col[x]].difference_update((x, y))
            col[x] = col[y] = len(cells)
            cells.append({x, y})
            todo = [col[x]]
        if not refine(col, cells, todo):
            continue
        if len(cells) == n:
            img = [0] * n
            for cell in cells:
                i, j = sorted(cell)
                img[i] = j - n
            if is_isomorphism(a, b, img):
                return img
            continue
        first = {}
        for i in range(n):
            first.setdefault(col[i], i)
        k = min((k for k in first if len(cells[k]) > 2), key=lambda k: len(cells[k]))
        x = first[k]
        ys = sorted(v for v in cells[k] if v >= n)
        stack.extend((col, cells, x, y) for y in reversed(ys))
    return None


def poset_isomorphic(a: FinitePoset, b: FinitePoset) -> bool:
    """Whether a and b are order isomorphic, decided by find_isomorphism."""
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
    if pi.ground != len(config):
        raise GroundMismatch(f"partition ground {pi.ground} vs configuration {len(config)}")
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
    down-set, with the number of maximal elements of c, never 1.

    Down-sets are labelled by position in linear_extension(), which puts
    every element after those below it, so the highest bit k of a closed
    down-set c is a maximal element of c, and the test is down[k] == c.  An
    empty c reads the last down-set, which holds its own element, and so
    fails.  The maximal elements of c are its bits outside every strict
    down-set of its elements.
    """
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
    down = _closures(lower, order, pos)
    for m, covers in enumerate(upper):
        if len(covers) != 1:
            continue
        dm = down[pos[m]]
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
