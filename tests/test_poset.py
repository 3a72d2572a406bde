"""Finite posets, lattice construction, and order property checks."""

import json
import math
import random
import re
import time
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclat import poset as poset_module
from nclat.errors import GroundMismatch, InvalidInput, NotGraded, TooLarge, Undecided
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
from oracles import (
    bool_poset,
    from_leq,
    gap_complement,
    induced,
    kreweras,
    leq,
    leq_idx,
    one_block,
    refines,
    singletons,
)
from test_predicate_kernel import degenerate_points

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


def test_poset_rejects_covers_that_break_its_rank_contract():
    # every fold walks linear_extension(), which sorts by rank, so a cover
    # that does not raise the rank would give wrong up-sets without a word
    for elements, covers, ranks, message in [
        ([0, 1, 2], [(0, 1), (1, 2)], [2, 1, 0], "cover (0, 1) goes from rank 2 to rank 1"),
        ([0, 1], [(0, 1)], [0, 0], "cover (0, 1) goes from rank 0 to rank 0"),
        ([0, 1], [(-1, 0)], [0, 1], "cover (-1, 0) names an element outside 0..1"),
        ([0, 1], [(0, 5)], [0, 1], "cover (0, 5) names an element outside 0..1"),
        ([0, 1, 2], [(0, 1)], [0, 1], "2 ranks for 3 poset elements"),
    ]:
        with pytest.raises(InvalidInput) as exc:
            FinitePoset(elements, covers, ranks)
        assert str(exc.value) == message


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
    assert nc_meet(cfg, a, b) == singletons(4)
    assert nc_join(cfg, a, b) == SetPartition.of(4, [[0, 1, 2], [3]])
    # joining crossing diagonals forces everything together
    d1 = SetPartition.of(4, [[0, 2], [1], [3]])
    d2 = SetPartition.of(4, [[1, 3], [0], [2]])
    assert nc_join(cfg, d1, d2) == one_block(4)


def test_meet_and_join_refuse_a_partition_of_another_ground():
    # is_noncrossing makes the ground check, for either argument
    cfg = standard_config("Q", 4)
    for op in (nc_meet, nc_join):
        for pi, mu in ((singletons(3), singletons(4)), (singletons(4), singletons(5))):
            with pytest.raises(GroundMismatch):
                op(cfg, pi, mu)


def _check_meets_and_joins(cfg):
    """nc_meet and nc_join on every pair of NC(cfg), against the greatest
    common lower and the least common upper bound read from the up-sets."""
    poset = build_nc_poset(cfg)
    els = poset.elements
    size = len(els)
    dual = poset.dual()
    down = [dual.up_mask(i) | 1 << i for i in range(size)]
    up = [poset.up_mask(i) | 1 << i for i in range(size)]
    for i in range(size):
        for j in range(i, size):
            lows = down[i] & down[j]
            highs = up[i] & up[j]
            mi = max(_iter_bits(lows), key=lambda k: down[k].bit_count())
            ji = max(_iter_bits(highs), key=lambda k: up[k].bit_count())
            assert down[mi] == lows and up[ji] == highs
            assert poset.index(nc_meet(cfg, els[i], els[j])) == mi
            assert poset.index(nc_join(cfg, els[i], els[j])) == ji


def test_meet_join_against_brute_force():
    """Exhaustive pairwise comparison on a 42-element lattice."""
    _check_meets_and_joins(standard_config("Q", 5))


def test_meet_join_against_brute_force_inside_the_hull():
    # points inside the hull, so that some merges only a hull test forces:
    # 144 and 95 elements
    _check_meets_and_joins(load_builtin("triangle-pinwheel"))
    _check_meets_and_joins(load_builtin("triangle-midpoints"))


def test_join_spends_one_hull_test_on_crossing_diagonals(monkeypatch):
    # the blocks of both arguments first merge by shared points, leaving
    # the two diagonals of the square, whose one hull test merges them
    cfg = standard_config("Q", 4)
    d1 = SetPartition.of(4, [[0, 2], [1], [3]])
    d2 = SetPartition.of(4, [[0], [1, 3], [2]])
    kernel = cfg.kernel
    calls = []
    real = kernel.hulls_meet
    monkeypatch.setattr(kernel, "hulls_meet", lambda a, b: calls.append(1) or real(a, b))
    assert nc_join(cfg, d1, d2) == one_block(4)
    calls.clear()  # is_noncrossing now remembers both arguments' verdicts
    assert nc_join(cfg, d1, d2) == one_block(4)
    assert len(calls) == 1


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
    sub = induced(b, evens)
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
        out.append((name + "-induced", induced(p, sub)))
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
                else str(e)
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


def test_lattice_verdict_is_decided_once_per_poset(monkeypatch):
    # (ok, detail) is kept on the poset: the refuted self-duality search of
    # a lattice reads it, and lattice_check after it decides nothing again
    passes = []
    real = poset_module._lattice_pass
    monkeypatch.setattr(poset_module, "_lattice_pass", lambda p: passes.append(p) or real(p))
    u23 = build_nc_poset(standard_config("U", 2, 3))
    assert find_isomorphism(u23, u23.dual()) is None
    assert lattice_check(u23) is lattice_check(u23)
    bowtie = FinitePoset(BOWTIE.elements, BOWTIE.covers(), BOWTIE.ranks)
    verdict = lattice_check(bowtie)
    assert lattice_check(bowtie) is verdict and not verdict[0]
    assert passes == [u23, bowtie]
    # the dual is a new poset with a verdict of its own
    assert lattice_check(u23.dual()) == (True, None)
    assert len(passes) == 3


# ---------------------------------------------------------------------------
# isomorphism search: certificates, an oracle, and the work budget

def _check_anti_automorphism(config, complement):
    # complement, read from each partition, is a map onto the dual; one
    # transposition breaks it, and the search finds a map of its own
    p = build_nc_poset(config)
    d = p.dual()
    img = [p.index(complement(pi)) for pi in p.elements]
    assert is_isomorphism(p, d, img)
    if len(p) >= 2:
        img[0], img[1] = img[1], img[0]
        assert not is_isomorphism(p, d, img)
    found = find_isomorphism(p, d)
    assert found is not None and is_isomorphism(p, d, found)


@pytest.mark.parametrize("n", range(1, 9))
def test_kreweras_complement_is_a_certified_anti_automorphism(n):
    _check_anti_automorphism(standard_config("Q", n), kreweras)


@pytest.mark.parametrize("n", range(1, 13))
def test_gap_complement_is_a_certified_anti_automorphism(n):
    _check_anti_automorphism(standard_config("P", n), gap_complement)


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
    # a lattice gets the oracle's verdict; a poset that is not a lattice
    # gets a verified map or InvalidInput, never None
    shuffled = induced(p, random.Random(name).sample(range(len(p)), len(p)))
    for other in (p.dual(), shuffled):
        expect = _backtracking_isomorphic(p, other)
        try:
            found = find_isomorphism(p, other)
        except InvalidInput:
            assert not _naive_lattice_verdict(name)
            continue
        assert (found is not None) == expect
        assert poset_isomorphic(p, other) == expect
        if found is not None:
            assert is_isomorphism(p, other, found)


@given(degenerate_points(), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_isomorphism_search_matches_backtracking_on_degenerate_points(points, rng):
    # collinear and cocircular points, elements in a shuffled order.  NC(P)
    # is a lattice, so the search gives a verdict.  The oracle runs on the
    # unshuffled lattice and at most 6 points: on shuffled orders and on 7
    # points it took seconds per example
    p = build_nc_poset(make_configuration(points[:6]))
    expect = _backtracking_isomorphic(p, p.dual())
    p = induced(p, rng.sample(range(len(p)), len(p)))
    d = p.dual()
    img = find_isomorphism(p, d)
    assert (img is not None) == expect
    assert img is None or is_isomorphism(p, d, img)


@pytest.mark.parametrize("k", range(3, 7))
def test_doubly_irreducible_elements_keep_their_own_incidence(k):
    # the inner elements of a chain are join- and meet-irreducible, and the
    # context pairs each with itself, j <= m with j = m.  Read strictly,
    # j < m, the context of a 3-chain has no pair at all, so refinement
    # cannot tell its inner element from its top, and the map read from a
    # wrong pairing fails its check.  Each map is the only one there is
    chain = from_leq(range(k), lambda x, y: x <= y, range(k))
    assert find_isomorphism(chain, chain.dual()) == list(range(k))[::-1]
    assert find_isomorphism(chain, chain) == list(range(k))


def test_no_map_on_a_non_lattice_is_no_verdict():
    # the bowtie is self-dual, but its c, d and 1 have one J-down-set,
    # {a, b}, so no context isomorphism gives a bijection.  That proves
    # nothing about a poset that is not a lattice
    with pytest.raises(InvalidInput):
        find_isomorphism(BOWTIE, BOWTIE)
    assert _backtracking_isomorphic(BOWTIE, BOWTIE.dual())


def _bounded_crowns(sizes):
    """Disjoint crowns between a bottom and a top; the crown of size k has
    minima a_0..a_{k-1} and maxima b_0..b_{k-1}, with a_i below b_i and
    b_{i+1 mod k}.  For sizes of at least 3 this is a lattice, and its
    standard context is the crowns: the minima are its join-irreducible
    elements and the maxima its meet-irreducible ones.  Colour refinement
    cannot tell two crowns from one crown of twice the size."""
    covers = []
    ranks = [0]
    base = 1
    for k in sizes:
        for i in range(k):
            covers.append((0, base + i))
            covers += [(base + i, base + k + t) for t in (i, (i + 1) % k)]
        ranks += [1] * k + [2] * k
        base += 2 * k
    covers += [(v, base) for v in range(1, base) if ranks[v] == 2]
    return FinitePoset(range(base + 1), covers, ranks + [3])


def test_search_is_exhaustive_where_refinement_cannot_choose():
    # every minimum has one colour after refinement; in b the first
    # candidates for a's first minimum lie on the 6-crown, and only a later
    # branch succeeds
    a, b = _bounded_crowns([3, 3, 6]), _bounded_crowns([6, 3, 3])
    img = find_isomorphism(a, b)
    assert img is not None and is_isomorphism(a, b, img)
    assert not poset_isomorphic(_bounded_crowns([3, 3]), _bounded_crowns([6]))


def test_budget_cuts_an_adversarial_search():
    t0 = time.perf_counter()
    with pytest.raises(Undecided):
        poset_isomorphic(_bounded_crowns([500, 500]), _bounded_crowns([1000]))
    assert time.perf_counter() - t0 < 60


@pytest.mark.parametrize("sizes", [("U", 1, 4), ("S", 2, 3), "triangle-pinwheel"])
def test_unbalanced_root_colouring_is_refused_before_refinement(monkeypatch, sizes):
    # non-self-dual lattices refused at the root, which colours the context
    # by side.  The pinwheel has 15 join-irreducible and 29 meet-irreducible
    # elements, so against its dual it is refused before any round, for no
    # signatures.  NC(U_{1,4}) and NC(S_{2,3}) have |J| = |M|; the first
    # round colours each vertex by its number of neighbours, and for some k
    # a different number of join-irreducibles lie below k meet-irreducibles
    # than meet-irreducibles above k join-irreducibles, so they are refused
    # after one round, for its 2(|J| + |M|)
    config = load_builtin(sizes) if isinstance(sizes, str) else standard_config(*sizes)
    p = build_nc_poset(config)
    upper, lower = p.cover_lists()
    j = sum(len(below) == 1 for below in lower)
    m = sum(len(above) == 1 for above in upper)
    budget = 2 * (j + m) if j == m else 0
    monkeypatch.setattr("nclat.poset.ISOMORPHISM_BUDGET", budget)
    assert find_isomorphism(p, p.dual()) is None
    if budget:
        monkeypatch.setattr("nclat.poset.ISOMORPHISM_BUDGET", budget - 1)
        with pytest.raises(Undecided):
            find_isomorphism(p, p.dual())


@pytest.mark.parametrize("sizes, signatures, found", [
    (("Q", 7), 840, True),
    (("U", 2, 3), 36, False),
])
def test_isomorphism_search_spends_a_pinned_number_of_signatures(
    monkeypatch, sizes, signatures, found
):
    # the budget pins the search's work exactly: it decides with as many
    # signatures as it spends and stops Undecided with one fewer.  NC(Q_7)
    # has 21 join- and 21 meet-irreducible elements, 84 context vertices
    # with its dual's, and is self-dual after 10 rounds over the root and
    # its branches; NC(U_{2,3}), with 9 and 9, is refuted after one round
    # of 36
    p = build_nc_poset(standard_config(*sizes))
    monkeypatch.setattr("nclat.poset.ISOMORPHISM_BUDGET", signatures)
    img = find_isomorphism(p, p.dual())
    assert (img is not None) == found
    monkeypatch.setattr("nclat.poset.ISOMORPHISM_BUDGET", signatures - 1)
    with pytest.raises(Undecided):
        find_isomorphism(p, p.dual())
