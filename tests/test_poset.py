"""Finite posets, lattice construction, and order property checks."""

import math
import random
from itertools import combinations

import pytest

from nclat.errors import InvalidInput, NotComparable, NotGraded, TooLarge
from nclat.fixtures import load_builtin
from nclat.geometry import make_configuration, standard_config
from nclat.partition import SetPartition
from nclat.poset import (
    FinitePoset,
    bool_poset,
    build_nc_poset,
    gradedness,
    interval,
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

# frozen rank vectors computed at the precision recorded with the fixtures
HEXAGON_RV = [1, 15, 50, 50, 15, 1]
MIDPOINTS_RV = [1, 12, 34, 35, 12, 1]


def test_from_leq_divisibility():
    els = [1, 2, 3, 4, 6, 12]
    p = FinitePoset.from_leq(els, lambda a, b: b % a == 0)
    assert p.bottom == 1 and p.top == 12
    assert p.leq(2, 6) and not p.leq(4, 6)
    covers = set(p.covers())
    idx = p.index
    assert (idx(1), idx(2)) in covers
    assert (idx(1), idx(4)) not in covers  # goes through 2


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


def test_fixture_rank_vectors():
    hexa = build_nc_poset(load_builtin("hexagon6"))
    assert rank_vector(hexa) == HEXAGON_RV
    assert is_rank_symmetric(hexa)
    mid = build_nc_poset(load_builtin("triangle-midpoints"))
    assert rank_vector(mid) == MIDPOINTS_RV
    assert not is_rank_symmetric(mid)


def test_poset_isomorphic_negative():
    a = bool_poset(3)
    chain4 = FinitePoset.from_leq(list(range(4)), lambda x, y: x <= y)
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
    down = [poset.down_mask(i, strict=False) for i in range(size)]
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


def test_interval():
    b = bool_poset(4)
    lo = frozenset({0})
    hi = frozenset({0, 1, 2})
    sub = interval(b, lo, hi)
    assert len(sub) == 4
    assert poset_isomorphic(sub, bool_poset(2))
    with pytest.raises(NotComparable):
        interval(b, frozenset({0}), frozenset({1, 2}))


def test_lattice_check():
    ok, detail = lattice_check(build_nc_poset(standard_config("Q", 5)))
    assert ok, detail
    # two maximal elements with two shared lower covers: no join
    els = ["a", "b", "x", "y"]
    leq = {
        ("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"),
        ("a", "a"), ("b", "b"), ("x", "x"), ("y", "y"),
    }
    broken = FinitePoset.from_leq(els, lambda s, t: (s, t) in leq)
    ok, detail = lattice_check(broken)
    assert not ok
    assert detail


def test_linear_extension_respects_order():
    p = build_nc_poset(standard_config("Q", 5))
    pos = {i: r for r, i in enumerate(p.linear_extension())}
    for i in range(len(p)):
        for j in range(len(p)):
            if i != j and p.leq_idx(i, j):
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
        FinitePoset.from_leq(els, _divides, ranks=lambda e: 0)
    with pytest.raises(InvalidInput):
        FinitePoset.from_leq(els, _divides, ranks=[0, 1, 1, 2, 2, 2])  # 4 | 12, equal ranks
    ok = FinitePoset.from_leq(els, _divides, ranks=[0, 1, 1, 2, 2, 3])
    assert (0, 3) not in ok.covers()


def _transpose(masks):
    out = [0] * len(masks)
    for i, m in enumerate(masks):
        for j in range(len(masks)):
            if (m >> j) & 1:
                out[j] |= 1 << i
    return out


def test_product_down_is_transpose_of_up():
    chain3 = FinitePoset.from_leq([0, 1, 2], lambda x, y: x <= y)
    divisors = FinitePoset.from_leq([1, 2, 3, 6], _divides)
    for a, b in (
        (bool_poset(2), bool_poset(2)),
        (chain3, divisors),
        (divisors, bool_poset(1)),
    ):
        p = product_poset(a, b)
        up = [p.up_mask(i) for i in range(len(p))]
        assert [p.down_mask(i) for i in range(len(p))] == _transpose(up)
        for i, (x, y) in enumerate(p.elements):
            for j, (x2, y2) in enumerate(p.elements):
                assert p.leq_idx(i, j) == (a.leq(x, x2) and b.leq(y, y2))


def _random_transitive_dag(n, seed):
    """from_leq poset without ranks on a shuffled random transitive DAG."""
    rng = random.Random(seed)
    reach = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                reach[i] |= reach[j]
    labels = list(range(n))
    rng.shuffle(labels)
    return FinitePoset.from_leq(labels, lambda a, b: (reach[a] >> b) & 1)


def _differential_posets():
    named = {
        "pinwheel": build_nc_poset(load_builtin("triangle-pinwheel")),
        "midpoints": build_nc_poset(load_builtin("triangle-midpoints")),
        "hexagon6": build_nc_poset(load_builtin("hexagon6")),
        "Q6": build_nc_poset(standard_config("Q", 6)),
        "S22": build_nc_poset(standard_config("S", 2, 2)),
        "U23": build_nc_poset(standard_config("U", 2, 3)),
        "T5": build_nc_poset(standard_config("T", 5)),
        "divisors360": FinitePoset.from_leq(
            [d for d in range(1, 361) if 360 % d == 0], _divides
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
    less = [[j for j in range(n) if j != i and p.leq_idx(i, j)] for i in range(n)]
    naive = [
        (i, j)
        for i in range(n)
        for j in less[i]
        if not any(k != j and p.leq_idx(k, j) for k in less[i])
    ]
    assert p.covers() == naive


@pytest.mark.parametrize("name,p", DIFFERENTIAL, ids=[n for n, _ in DIFFERENTIAL])
def test_down_sets_are_transpose_of_up_sets(name, p):
    up = [p.up_mask(i) for i in range(len(p))]
    assert [p.down_mask(i) for i in range(len(p))] == _transpose(up)
