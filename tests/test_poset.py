"""Finite posets, lattice construction, and order property checks."""

import json
import math
import random
import re
import time
from functools import cache
from itertools import combinations

import pytest

from nclat.errors import InvalidInput, NotGraded, TooLarge, Undecided
from nclat.fixtures import load_builtin
from nclat.geometry import make_configuration, standard_config
from nclat.partition import SetPartition
from nclat.poset import (
    FinitePoset,
    GradedInfo,
    _iter_bits,
    build_nc_poset,
    find_isomorphism,
    gradedness,
    is_isomorphism,
    is_rank_symmetric,
    is_self_dual,
    lattice_check,
    nc_join,
    nc_meet,
    poset_isomorphic,
    poset_to_dot,
    poset_to_json_obj,
    product_poset,
    rank_vector,
)
from nclat.scd import standard_poset
from oracles import bool_poset, from_leq, leq, leq_idx, refines

# frozen rank vectors computed at the precision recorded with the fixtures
HEXAGON_RV = [1, 15, 50, 50, 15, 1]
MIDPOINTS_RV = [1, 12, 34, 35, 12, 1]


def _prime_factors(d):
    """Number of prime factors of d, with multiplicity: a rank for the
    divisibility order."""
    count, p = 0, 2
    while d > 1:
        while d % p == 0:
            d //= p
            count += 1
        p += 1
    return count


def test_from_leq_divisibility():
    els = [1, 2, 3, 4, 6, 12]
    p = from_leq(els, lambda a, b: b % a == 0, _prime_factors)
    assert leq(p, 2, 6) and not leq(p, 4, 6)
    covers = set(p.covers())
    idx = p.index
    assert (idx(1), idx(2)) in covers
    assert (idx(1), idx(4)) not in covers  # goes through 2


def test_index_rejects_foreign_elements():
    p = bool_poset(2)
    assert p.index(frozenset({1})) == 2
    for foreign in (frozenset({5}), [0]):  # [0] is unhashable
        with pytest.raises(InvalidInput):
            p.index(foreign)


def test_bool_poset_shape():
    for n in range(5):
        b = bool_poset(n)
        assert len(b) == 2 ** n
        assert rank_vector(b) == [math.comb(n, k) for k in range(n + 1)]
        assert len(list(b.covers())) == n * 2 ** (n - 1) if n else True


def test_product_poset_rank_vector():
    p = product_poset(bool_poset(2), bool_poset(1))
    assert poset_isomorphic(p, bool_poset(3))
    q = product_poset(bool_poset(2), bool_poset(2))
    assert rank_vector(q) == [1, 4, 6, 4, 1]
    assert poset_isomorphic(q, bool_poset(4))


def test_nc_lattice_small_counts():
    q4 = build_nc_poset(standard_config("Q", 4))
    assert len(q4) == 14
    assert rank_vector(q4) == [1, 6, 6, 1]
    p4 = build_nc_poset(standard_config("P", 4))
    assert len(p4) == 8
    assert len(list(p4.covers())) == 12
    assert poset_isomorphic(p4, bool_poset(3))


def test_build_cap():
    with pytest.raises(TooLarge):
        build_nc_poset(standard_config("Q", 13))


def test_gradedness_standard_and_fixtures():
    for fam, args in (("Q", (6,)), ("T", (4,)), ("U", (2, 3)), ("S", (1, 2))):
        info = gradedness(build_nc_poset(standard_config(fam, *args)))
        assert info.is_graded and info.witness is None
    pin = build_nc_poset(load_builtin("triangle-pinwheel"))
    info = gradedness(pin)
    assert not info.is_graded
    lo, hi = info.witness
    assert hi.rank - lo.rank > 1  # the cover jumps at least two ranks
    with pytest.raises(NotGraded):
        rank_vector(pin)


def test_gradedness_is_decided_once_per_poset():
    for p in (
        build_nc_poset(standard_config("Q", 5)),
        build_nc_poset(load_builtin("triangle-pinwheel")),
    ):
        info = gradedness(p)
        assert gradedness(p) is info
        # the dual is a new poset with a verdict of its own
        d = p.dual()
        assert gradedness(d) is not info
        assert gradedness(d).is_graded == info.is_graded


def test_dot_rank_rows_skip_empty_ranks():
    # ranks 2, 0, 2 with no covers: graded, rank 1 empty, rows by rank
    p = FinitePoset(["a", "b", "c"], [], [2, 0, 2])
    assert poset_to_dot(p) == (
        'digraph "poset" {\n  rankdir = BT;\n  node [shape = box];\n'
        '  n0 [label = "a"];\n  n1 [label = "b"];\n  n2 [label = "c"];\n'
        "  { rank = same; n1; }\n  { rank = same; n0; n2; }\n}\n"
    )


def test_fixture_rank_vectors():
    hexa = build_nc_poset(load_builtin("hexagon6"))
    assert rank_vector(hexa) == HEXAGON_RV
    assert is_rank_symmetric(hexa)
    mid = build_nc_poset(load_builtin("triangle-midpoints"))
    assert rank_vector(mid) == MIDPOINTS_RV
    assert not is_rank_symmetric(mid)


def test_poset_isomorphic_negative():
    a = bool_poset(3)
    chain4 = from_leq(list(range(4)), lambda x, y: x <= y, range(4))
    b = product_poset(bool_poset(1), chain4)  # also 8 elements, different ranks
    assert len(b) == len(a)
    assert not poset_isomorphic(a, b)


def test_isomorphism_ignores_labels():
    q4 = build_nc_poset(standard_config("Q", 4))
    # same lattice built from a rotated square
    rot = make_configuration([(0, 2), (-2, 0), (0, -2), (2, 0)])
    assert poset_isomorphic(q4, build_nc_poset(rot))


def test_self_duality():
    for n in range(1, 6):
        assert is_self_dual(build_nc_poset(standard_config("Q", n)))
        assert is_self_dual(build_nc_poset(standard_config("P", n)))
    assert not is_self_dual(build_nc_poset(standard_config("U", 1, 4)))


def test_dual_reverses():
    b = bool_poset(3)
    d = b.dual()
    assert poset_isomorphic(b, d)  # boolean lattices are self-dual
    assert set(d.covers()) == {(j, i) for (i, j) in b.covers()}


def test_meet_join_small_cases():
    cfg = standard_config("Q", 4)
    a = SetPartition.of(4, [[0, 1], [2], [3]])
    b = SetPartition.of(4, [[1, 2], [0], [3]])
    assert nc_meet(cfg, a, b) == SetPartition.singletons(4)
    assert nc_join(cfg, a, b) == SetPartition.of(4, [[0, 1, 2], [3]])
    # joining crossing diagonals forces everything together
    d1 = SetPartition.of(4, [[0, 2], [1], [3]])
    d2 = SetPartition.of(4, [[1, 3], [0], [2]])
    assert nc_join(cfg, d1, d2) == SetPartition.one_block(4)


def test_meet_join_against_brute_force():
    """Exhaustive pairwise comparison on a 42-element lattice."""
    cfg = standard_config("Q", 5)
    poset = build_nc_poset(cfg)
    els = poset.elements
    size = len(els)
    dual = poset.dual()
    down = [dual.up_mask(i, strict=False) for i in range(size)]
    up = [poset.up_mask(i, strict=False) for i in range(size)]
    for i in range(size):
        for j in range(i, size):
            lows = down[i] & down[j]
            highs = up[i] & up[j]
            mi = max(range(size), key=lambda k: down[k].bit_count() if (lows >> k) & 1 else -1)
            ji = max(range(size), key=lambda k: up[k].bit_count() if (highs >> k) & 1 else -1)
            assert down[mi] == lows and up[ji] == highs
            assert poset.index(nc_meet(cfg, els[i], els[j])) == mi
            assert poset.index(nc_join(cfg, els[i], els[j])) == ji


def test_lattice_check():
    ok, detail = lattice_check(build_nc_poset(standard_config("Q", 5)))
    assert ok, detail
    # two maximal elements with two shared lower covers: no join
    els = ["a", "b", "x", "y"]
    leq = {
        ("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"),
        ("a", "a"), ("b", "b"), ("x", "x"), ("y", "y"),
    }
    broken = from_leq(els, lambda s, t: (s, t) in leq, [0, 0, 1, 1])
    ok, detail = lattice_check(broken)
    assert not ok
    assert detail


def test_linear_extension_respects_order():
    p = build_nc_poset(standard_config("Q", 5))
    pos = {i: r for r, i in enumerate(p.linear_extension())}
    for i in range(len(p)):
        for j in range(len(p)):
            if i != j and leq_idx(p, i, j):
                assert pos[i] < pos[j]


def test_induced_sub_poset():
    b = bool_poset(3)
    evens = [i for i, e in enumerate(b.elements) if len(e) % 2 == 0]
    sub = b.induced(evens)
    assert len(sub) == 4
    # only the empty set is comparable to the 2-sets
    assert sum(1 for _ in sub.covers()) == 3


def test_dot_and_json_exports():
    p = build_nc_poset(standard_config("Q", 4))
    dot = poset_to_dot(p, title="q4")
    assert dot.count("->") == len(list(p.covers()))
    assert "rank = same" in dot
    obj = poset_to_json_obj(p)
    assert len(obj["elements"]) == 14
    assert obj["flags"]["graded"] is True
    assert obj["rank_vector"] == [1, 6, 6, 1]
    pin = poset_to_json_obj(build_nc_poset(load_builtin("triangle-pinwheel")))
    assert pin["flags"]["graded"] is False
    assert pin["rank_vector"] is None


def _divides(a, b):
    return b % a == 0


def test_from_leq_rejects_ranks_not_increasing():
    els = [1, 2, 3, 4, 6, 12]
    with pytest.raises(InvalidInput):
        from_leq(els, _divides, ranks=lambda e: 0)
    with pytest.raises(InvalidInput):
        from_leq(els, _divides, ranks=[0, 1, 1, 2, 2, 2])  # 4 | 12, equal ranks
    ok = from_leq(els, _divides, ranks=[0, 1, 1, 2, 2, 3])
    assert (0, 3) not in ok.covers()


def _transpose(masks):
    out = [0] * len(masks)
    for i, m in enumerate(masks):
        for j in range(len(masks)):
            if (m >> j) & 1:
                out[j] |= 1 << i
    return out


def test_product_down_is_transpose_of_up():
    chain3 = from_leq([0, 1, 2], lambda x, y: x <= y, range(3))
    divisors = from_leq([1, 2, 3, 6], _divides, _prime_factors)
    for a, b in (
        (bool_poset(2), bool_poset(2)),
        (chain3, divisors),
        (divisors, bool_poset(1)),
    ):
        p = product_poset(a, b)
        up = [p.up_mask(i) for i in range(len(p))]
        d = p.dual()
        assert [d.up_mask(i) for i in range(len(p))] == _transpose(up)
        for i, (x, y) in enumerate(p.elements):
            for j, (x2, y2) in enumerate(p.elements):
                assert leq_idx(p, i, j) == (leq(a, x, x2) and leq(b, y, y2))


def _random_transitive_dag(n, seed):
    """from_leq poset on a shuffled random transitive DAG, ranked by minus
    the size of each element's up-set."""
    rng = random.Random(seed)
    reach = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                reach[i] |= reach[j]
    labels = list(range(n))
    rng.shuffle(labels)
    return from_leq(
        labels, lambda a, b: (reach[a] >> b) & 1, lambda a: -reach[a].bit_count()
    )


def _grid(seed, k):
    """k points drawn, seeded, from the 4 x 4 integer grid: collinear and
    cocircular points, and at these seeds covers that jump a rank."""
    rng = random.Random(seed)
    return make_configuration(rng.sample([(x, y) for x in range(4) for y in range(4)], k))


GRIDS = {"grid6-26": _grid(26, 6), "grid6-1250": _grid(1250, 6), "grid8-12": _grid(12, 8)}


def test_grid_configurations_have_rank_jumping_covers():
    for name, config in GRIDS.items():
        p = build_nc_poset(config)
        assert any(p.ranks[j] - p.ranks[i] > 1 for i, j in p.covers()), name


def _differential_posets():
    named = {
        "pinwheel": build_nc_poset(load_builtin("triangle-pinwheel")),
        "midpoints": build_nc_poset(load_builtin("triangle-midpoints")),
        "hexagon6": build_nc_poset(load_builtin("hexagon6")),
        "Q6": build_nc_poset(standard_config("Q", 6)),
        "S22": build_nc_poset(standard_config("S", 2, 2)),
        "U23": build_nc_poset(standard_config("U", 2, 3)),
        "T5": build_nc_poset(standard_config("T", 5)),
        "grid6-26": build_nc_poset(GRIDS["grid6-26"]),
        "grid6-1250": build_nc_poset(GRIDS["grid6-1250"]),
        "divisors360": from_leq(
            [d for d in range(1, 361) if 360 % d == 0], _divides, _prime_factors
        ),
        "dag40": _random_transitive_dag(40, seed=7),
    }
    out = []
    for name, p in named.items():
        out.append((name, p))
        out.append((name + "-dual", p.dual()))
        sub = random.Random(name).sample(range(len(p)), len(p) * 2 // 3)
        out.append((name + "-induced", p.induced(sub)))
    return out


DIFFERENTIAL = _differential_posets()


@pytest.mark.parametrize("name,p", DIFFERENTIAL, ids=[n for n, _ in DIFFERENTIAL])
def test_covers_match_naive_definition(name, p):
    n = len(p)
    less = [[j for j in range(n) if j != i and leq_idx(p, i, j)] for i in range(n)]
    naive = [
        (i, j)
        for i in range(n)
        for j in less[i]
        if not any(k != j and leq_idx(p, k, j) for k in less[i])
    ]
    assert p.covers() == naive
    upper, lower = p.cover_lists()
    assert [(i, j) for i in range(n) for j in upper[i]] == naive
    assert [(i, j) for j in range(n) for i in lower[j]] == sorted(
        naive, key=lambda c: (c[1], c[0])
    )


@pytest.mark.parametrize("name,p", DIFFERENTIAL, ids=[n for n, _ in DIFFERENTIAL])
def test_gradedness_witness_is_the_first_rank_jumping_cover(name, p):
    # the verdict kept on the poset, against a scan of the sorted covers
    els, rank = p.elements, p.ranks
    jumps = [(els[i], els[j]) for i, j in p.covers() if rank[j] - rank[i] != 1]
    assert gradedness(p) == GradedInfo(not jumps, jumps[0] if jumps else None)


@pytest.mark.parametrize("name,p", DIFFERENTIAL, ids=[n for n, _ in DIFFERENTIAL])
def test_down_sets_are_transpose_of_up_sets(name, p):
    # the down-sets of p are the up-sets of its dual
    up = [p.up_mask(i) for i in range(len(p))]
    d = p.dual()
    assert [d.up_mask(i) for i in range(len(p))] == _transpose(up)


REFINEMENT_CASES = [
    ("P0", standard_config("P", 0), None),
    ("P1", standard_config("P", 1), None),
    ("pinwheel", load_builtin("triangle-pinwheel"), None),
    ("midpoints", load_builtin("triangle-midpoints"), None),
    ("S22", standard_config("S", 2, 2), None),
    ("U23", standard_config("U", 2, 3), None),
    # 66 pairs: the pair masks span two 64-bit words
    ("P12", standard_config("P", 12), 16),
    ("grid6-26", GRIDS["grid6-26"], None),
    ("grid6-1250", GRIDS["grid6-1250"], None),
    ("grid8-12", GRIDS["grid8-12"], 16),
]


@pytest.mark.parametrize(
    "name,config,rows", REFINEMENT_CASES, ids=[c[0] for c in REFINEMENT_CASES]
)
def test_build_matches_refinement(name, config, rows):
    """Up-sets from the pair holders and the down-sets derived from the
    covers agree with partition.refines, on every row or on seeded rows."""
    p = build_nc_poset(config)
    d = p.dual()
    els = p.elements
    n = len(p)
    sample = range(n) if rows is None else random.Random(name).sample(range(n), rows)
    for i in sample:
        down = d.up_mask(i)
        for j in range(n):
            assert leq_idx(p, i, j) == refines(els[i], els[j])
            assert bool((down >> j) & 1) == (j != i and refines(els[j], els[i]))


@pytest.mark.parametrize(
    "name,config", [("Q8", standard_config("Q", 8)), ("grid8-12", GRIDS["grid8-12"])]
)
def test_sampled_covers_match_refinement(name, config):
    """Upper covers against partition.refines on seeded rows of lattices
    with over a thousand elements, so the bit walks cross many int digits.
    A strict refinement has fewer blocks, so scanning the strict up-set by
    rank, an element is a cover iff no cover found before it refines it."""
    p = build_nc_poset(config)
    els = p.elements
    n = len(p)
    assert n > 1000
    upper = p.cover_lists()[0]
    for i in random.Random(name).sample(range(n), 16):
        above = [j for j in range(n) if j != i and refines(els[i], els[j])]
        covers = []
        for j in sorted(above, key=lambda j: els[j].rank):
            if not any(refines(els[c], els[j]) for c in covers):
                covers.append(j)
        assert upper[i] == sorted(covers)


@pytest.mark.parametrize(
    "x",
    [0, 1, 0b1011, 1 << 63, (1 << 64) | 5, (1 << 16796) - 1,
     (1 << 20000) | (1 << 15000) | 1, random.Random(3).getrandbits(20000)],
    ids=["zero", "one", "narrow", "bit63", "two-digits", "full16796", "sparse20000",
         "random20000"],
)
def test_iter_bits_ascending(x):
    assert _iter_bits(x) == [k for k in range(x.bit_length()) if (x >> k) & 1]


def test_json_export_matches_list_encoding():
    """Blocks and cover pairs go to json as tuples; the text is the one the
    list-based encoding gives."""
    for p in (
        build_nc_poset(standard_config("Q", 4)),
        build_nc_poset(load_builtin("triangle-pinwheel")),
        bool_poset(3),
    ):
        obj = poset_to_json_obj(p)
        lists = dict(
            obj,
            elements=[
                [list(b) for b in e.blocks] if isinstance(e, SetPartition)
                else "{" + ",".join(map(str, sorted(e))) + "}"
                for e in p.elements
            ],
            covers=[list(c) for c in p.covers()],
        )
        assert json.dumps(obj) == json.dumps(lists)
        assert json.dumps(obj, indent=2) == json.dumps(lists, indent=2)
        obj["covers"].clear()
        assert p.covers()


def _naive_bound_count(p, i, j, lower):
    """The number of maximal common lower bounds of elements i and j, or of
    their minimal common upper bounds, listed from the order alone."""
    n = len(p)
    le = (lambda s, t: leq_idx(p, s, t)) if lower else (lambda s, t: leq_idx(p, t, s))
    common = [k for k in range(n) if le(k, i) and le(k, j)]
    return sum(not any(k != t and le(k, t) for t in common) for k in common)


def _naive_lattice_check(p):
    """Meets and joins by listing the maximal common lower bounds and the
    minimal common upper bounds of every pair."""
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if _naive_bound_count(p, i, j, True) != 1:
                return False
            if _naive_bound_count(p, i, j, False) != 1:
                return False
    return True


@cache
def _naive_lattice_verdict(name):
    return _naive_lattice_check(dict(DIFFERENTIAL)[name])


WITNESS = re.compile(
    r"elements (.+) and (.+) have (\d+) (maximal common lower|minimal common upper) bounds"
)


def _assert_witness_holds(p, detail):
    # the detail names two elements, and the order alone gives them exactly
    # the stated number of meets or joins, which is not 1
    named = {str(e): i for i, e in enumerate(p.elements)}
    assert len(named) == len(p)
    a, b, count, kind = WITNESS.fullmatch(detail).groups()
    count = int(count)
    assert count != 1
    assert _naive_bound_count(p, named[a], named[b], kind.startswith("maximal")) == count


@pytest.mark.parametrize("name,p", DIFFERENTIAL, ids=[n for n, _ in DIFFERENTIAL])
def test_lattice_check_matches_naive_definition(name, p):
    ok, detail = lattice_check(p)
    if ok:
        assert detail is None
    else:
        _assert_witness_holds(p, detail)


@pytest.mark.parametrize("name,p", DIFFERENTIAL, ids=[n for n, _ in DIFFERENTIAL])
def test_fast_lattice_verdict_matches_naive_definition(name, p):
    assert lattice_check(p)[0] == _naive_lattice_verdict(name)


BOWTIE = FinitePoset(
    ["0", "a", "b", "c", "d", "1"],
    [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)],
    [0, 1, 1, 2, 2, 3],
)


def test_fast_lattice_verdict_needs_meet_irreducibles_and_a_top():
    # bowtie, 0 < a, b < c, d < 1: every meet with an atom (a or b) exists,
    # but c and d, meet-irreducible and not atoms, have two maximal common
    # lower bounds
    # 0 < a, b: every meet exists, the join of the two maximal elements not
    vee = FinitePoset(["0", "a", "b"], [(0, 1), (0, 2)], [0, 1, 1])
    # a, b < 1: a top, but a and b have no common lower bound at all
    wedge = FinitePoset(["a", "b", "1"], [(0, 2), (1, 2)], [0, 0, 1])
    for p, detail in [
        (BOWTIE, "elements d and c have 2 maximal common lower bounds"),
        (vee, "elements a and b have 0 minimal common upper bounds"),
        (wedge, "elements b and a have 0 maximal common lower bounds"),
    ]:
        assert not _naive_lattice_check(p)
        assert lattice_check(p) == (False, detail)
        _assert_witness_holds(p, detail)
    for p in (FinitePoset([], [], []), FinitePoset(["x"], [], [0]), bool_poset(2)):
        assert lattice_check(p) == (True, None)


def test_lattice_check_names_the_first_failure_of_its_one_pass():
    # bowtie x NC(Q_8), 8580 elements: the first meet-irreducible element in
    # index order is (c, top), and the first element in linear extension
    # order whose common lower bounds with it are not a closed down-set is
    # (d, bottom)
    p = product_poset(BOWTIE, standard_poset("Q", 8))
    bottom = SetPartition.of(8, [(k,) for k in range(8)])
    top = SetPartition.of(8, [tuple(range(8))])
    detail = f"elements {('d', bottom)} and {('c', top)} have 2 maximal common lower bounds"
    assert lattice_check(p) == (False, detail)
    assert _naive_bound_count(p, p.index(("d", bottom)), p.index(("c", top)), True) == 2


# ---------------------------------------------------------------------------
# isomorphism search: certificates, an oracle, and the work budget

def _kreweras(pi):
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


@pytest.mark.parametrize("n", range(1, 9))
def test_kreweras_complement_is_a_certified_anti_automorphism(n):
    p = build_nc_poset(standard_config("Q", n))
    d = p.dual()
    img = [p.index(_kreweras(pi)) for pi in p.elements]
    assert is_isomorphism(p, d, img)
    if n >= 2:
        img[0], img[1] = img[1], img[0]
        assert not is_isomorphism(p, d, img)
    found = find_isomorphism(p, d)
    assert found is not None and is_isomorphism(p, d, found)


def test_is_isomorphism_rejects_non_isomorphisms():
    b = bool_poset(2)
    assert is_isomorphism(b, b, [0, 1, 2, 3])
    assert not is_isomorphism(b, b, [0, 1, 1, 3])
    assert not is_isomorphism(b, b, [0, 1, 2])
    assert not is_isomorphism(b, bool_poset(1), [0, 1, 2, 3])
    assert not is_isomorphism(b, b, [3, 1, 2, 0])
    antichain = from_leq([0, 1], lambda x, y: x == y, [0, 0])
    chain = from_leq([0, 1], lambda x, y: x <= y, [0, 1])
    assert not is_isomorphism(antichain, chain, [0, 1])  # covers must match both ways


def _backtracking_isomorphic(a, b):
    """The search this package used before individualisation-refinement:
    colour refinement from (height, depth, cover degrees), then a depth-first
    extension of a partial map in rarest-colour-first order."""

    def structure(p):
        covup = [0] * len(p)
        covdown = [0] * len(p)
        for (i, j) in p.covers():
            covup[i] |= 1 << j
            covdown[j] |= 1 << i
        order = p.linear_extension()
        heights = [0] * len(p)
        for i in order:
            heights[i] = max((heights[j] + 1 for j in range(len(p))
                              if (covdown[i] >> j) & 1), default=0)
        depths = [0] * len(p)
        for i in reversed(order):
            depths[i] = max((depths[j] + 1 for j in range(len(p))
                             if (covup[i] >> j) & 1), default=0)
        init = [(heights[i], depths[i], covup[i].bit_count(), covdown[i].bit_count())
                for i in range(len(p))]
        return init, covup, covdown

    def bits(x):
        return [k for k in range(x.bit_length()) if (x >> k) & 1]

    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    init_a, covup_a, covdown_a = structure(a)
    init_b, covup_b, covdown_b = structure(b)
    canon = {}
    ca = [canon.setdefault(c, len(canon)) for c in init_a]
    cb = [canon.setdefault(c, len(canon)) for c in init_b]
    while True:
        canon = {}

        def sig(cur, covup, covdown, i):
            return (cur[i], tuple(sorted(cur[j] for j in bits(covup[i]))),
                    tuple(sorted(cur[j] for j in bits(covdown[i]))))

        na = [canon.setdefault(sig(ca, covup_a, covdown_a, i), len(canon))
              for i in range(len(ca))]
        nb = [canon.setdefault(sig(cb, covup_b, covdown_b, i), len(canon))
              for i in range(len(cb))]
        if len(set(na) | set(nb)) == len(set(ca) | set(cb)):
            ca, cb = na, nb
            break
        ca, cb = na, nb
    hist_a = {c: ca.count(c) for c in set(ca)}
    if hist_a != {c: cb.count(c) for c in set(cb)}:
        return False
    n = len(a)
    by_color_b = {}
    for j, c in enumerate(cb):
        by_color_b.setdefault(c, []).append(j)
    order = sorted(range(n), key=lambda i: (hist_a[ca[i]], ca[i], i))
    img = [-1] * n
    used = [False] * n
    mapped = [0]

    def extend(k):
        if k == n:
            return True
        i = order[k]
        for j in by_color_b[ca[i]]:
            if used[j]:
                continue
            ok = all((covup_b[j] >> img[t]) & 1 for t in bits(covup_a[i] & mapped[0]))
            ok = ok and all((covdown_b[j] >> img[t]) & 1
                            for t in bits(covdown_a[i] & mapped[0]))
            ok = ok and (covup_a[i] & mapped[0]).bit_count() == sum(
                1 for t in bits(covup_b[j]) if used[t])
            ok = ok and (covdown_a[i] & mapped[0]).bit_count() == sum(
                1 for t in bits(covdown_b[j]) if used[t])
            if ok:
                img[i] = j
                used[j] = True
                mapped[0] |= 1 << i
                if extend(k + 1):
                    return True
                img[i] = -1
                used[j] = False
                mapped[0] &= ~(1 << i)
        return False

    return extend(0)


@pytest.mark.parametrize("name,p", DIFFERENTIAL, ids=[n for n, _ in DIFFERENTIAL])
def test_isomorphism_search_matches_backtracking_oracle(name, p):
    shuffled = p.induced(random.Random(name).sample(range(len(p)), len(p)))
    for other in (p.dual(), shuffled):
        expect = _backtracking_isomorphic(p, other)
        found = find_isomorphism(p, other)
        assert (found is not None) == expect
        assert poset_isomorphic(p, other) == expect
        if found is not None:
            assert is_isomorphism(p, other, found)
    assert find_isomorphism(p, shuffled) is not None


def _crowns(sizes):
    """Disjoint crowns; the crown of size k has minima a_0..a_{k-1} and
    maxima b_0..b_{k-1}, with a_i below b_i and b_{i+1 mod k}.  Colour
    refinement cannot tell two crowns from one crown of twice the size."""
    covers = []
    ranks = []
    base = 0
    for k in sizes:
        for i in range(k):
            covers += [(base + i, base + k + t) for t in (i, (i + 1) % k)]
        ranks += [0] * k + [1] * k
        base += 2 * k
    return FinitePoset(range(len(ranks)), covers, ranks)


def test_search_is_exhaustive_where_refinement_cannot_choose():
    # every minimum has one colour after refinement; in b the first
    # candidates for a's first minimum lie on the 6-crown, and only a later
    # branch succeeds
    a, b = _crowns([3, 3, 6]), _crowns([6, 3, 3])
    img = find_isomorphism(a, b)
    assert img is not None and is_isomorphism(a, b, img)
    assert not poset_isomorphic(_crowns([3, 3]), _crowns([6]))


def test_budget_cuts_an_adversarial_search():
    t0 = time.perf_counter()
    with pytest.raises(Undecided):
        poset_isomorphic(_crowns([500, 500]), _crowns([1000]))
    assert time.perf_counter() - t0 < 60


@pytest.mark.parametrize("sizes", [("U", 1, 4), ("S", 2, 3)])
def test_unbalanced_root_colouring_is_refused_before_refinement(monkeypatch, sizes):
    # a non-self-dual lattice whose root colouring already holds unequally
    # many vertices of it and of its dual: the root refuses it after
    # charging its 2n, so a budget of exactly 2n suffices for the verdict
    p = build_nc_poset(standard_config(*sizes))
    monkeypatch.setattr("nclat.poset.ISOMORPHISM_BUDGET", 2 * len(p))
    assert find_isomorphism(p, p.dual()) is None


@pytest.mark.parametrize("sizes, signatures, found", [
    (("Q", 7), 18758, True),
    (("U", 2, 3), 74, False),
])
def test_isomorphism_search_spends_a_pinned_number_of_signatures(
    monkeypatch, sizes, signatures, found
):
    # the budget pins the search's work exactly: it decides with as many
    # signatures as it spends and stops Undecided with one fewer.  NC(Q_7)
    # is self-dual after refinement and branching; NC(U_{2,3}), with 37
    # elements, is refuted at the root for its 2n = 74
    p = build_nc_poset(standard_config(*sizes))
    monkeypatch.setattr("nclat.poset.ISOMORPHISM_BUDGET", signatures)
    img = find_isomorphism(p, p.dual())
    assert (img is not None) == found
    monkeypatch.setattr("nclat.poset.ISOMORPHISM_BUDGET", signatures - 1)
    with pytest.raises(Undecided):
        find_isomorphism(p, p.dual())
