"""Set partitions, refinement, and the noncrossing predicate."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclat import partition
from nclat.errors import EmptyBlock, GroundMismatch, InvalidInput, TooLarge
from nclat.fixtures import BUILTIN, load_builtin
from nclat.geometry import make_configuration, point_count, standard_config
from nclat.partition import (
    SetPartition,
    count_noncrossing,
    enumerate_noncrossing,
    is_noncrossing,
)
from oracles import (
    assignment,
    common_refinement,
    enumerate_all_partitions,
    from_assignment,
    one_block,
    pair_mask,
    refines,
    singletons,
)

BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429)


def test_canonical_form():
    pi = SetPartition.of(4, [[3, 1], [0], [2]])
    assert pi.blocks == ((0,), (1, 3), (2,))
    assert str(pi) == "0|1,3|2"
    assert len(pi.blocks) == 3 and pi.rank == 1


def test_constructor_validation():
    with pytest.raises(EmptyBlock):
        SetPartition.of(2, [[0, 1], []])
    with pytest.raises(InvalidInput):
        SetPartition.of(2, [[0, 1, 2]])
    with pytest.raises(InvalidInput):
        SetPartition.of(3, [[0, 1], [1, 2]])
    with pytest.raises(InvalidInput):
        SetPartition.of(3, [[0, 1]])  # 2 uncovered


def test_extremes():
    assert singletons(3).rank == 0
    assert one_block(3).rank == 2
    empty = one_block(0)
    assert empty.blocks == () and str(empty) == "(empty)"


def _refines_oracle(pi, mu):
    """Every block of pi inside some block of mu, by direct search."""
    musets = [set(b) for b in mu.blocks]
    return all(any(set(b) <= m for m in musets) for b in pi.blocks)


def test_refines_against_oracle():
    parts = list(enumerate_all_partitions(4))
    for pi in parts:
        for mu in parts:
            assert refines(pi, mu) == _refines_oracle(pi, mu)


def test_refines_ground_mismatch():
    with pytest.raises(GroundMismatch):
        refines(singletons(3), singletons(4))


def test_common_refinement_is_glb():
    parts = list(enumerate_all_partitions(4))
    for pi, mu in combinations(parts, 2):
        lo = common_refinement(pi, mu)
        assert refines(lo, pi) and refines(lo, mu)
        for nu in parts:
            if refines(nu, pi) and refines(nu, mu):
                assert refines(nu, lo)


def test_pair_mask_characterizes_refinement():
    parts = list(enumerate_all_partitions(5))
    masks = {pi: pair_mask(pi) for pi in parts}
    for pi in parts:
        for mu in parts:
            assert refines(pi, mu) == (masks[pi] & ~masks[mu] == 0)


def test_bell_numbers():
    for n, b in enumerate(BELL[:8]):
        assert sum(1 for _ in enumerate_all_partitions(n)) == b


def _classical_noncrossing(pi):
    """No a < b < c < d with a, c together and b, d together elsewhere."""
    a = assignment(pi)
    n = len(a)
    for i, j, k, l in combinations(range(n), 4):
        if a[i] == a[k] and a[j] == a[l] and a[i] != a[j]:
            return False
    return True


def test_circle_matches_classical_noncrossing():
    for n in (4, 5, 6):
        cfg = standard_config("Q", n)
        for pi in enumerate_all_partitions(n):
            assert is_noncrossing(cfg, pi) == _classical_noncrossing(pi)


def test_circle_counts_are_catalan():
    for n in range(1, 8):
        assert count_noncrossing(standard_config("Q", n))[-1] == CATALAN[n]


def test_collinear_noncrossing_blocks_are_intervals():
    cfg = standard_config("P", 5)
    seen = 0
    for pi, _ in enumerate_noncrossing(cfg):
        seen += 1
        for b in pi.blocks:
            assert list(b) == list(range(b[0], b[-1] + 1))
    assert seen == 2 ** 4


def test_one_block_crossing_example():
    p3 = standard_config("P", 3)
    # a triangle {0, 1, 2} with point 3 inside it, a far triangle {4, 5, 6}
    # and a point 7 outside both
    eight = make_configuration(
        [(0, 0), (4, 0), (2, 3), (2, 1), (10, 0), (12, 0), (11, 2), (4, 4)]
    )
    # four points on a line, stored out of order: x = 0, 3, 1, 2
    line = make_configuration([(0, 0), (3, 0), (1, 0), (2, 0)])
    cases = (
        # {0,2} hull covers point 1, so {0,2}|{1} crosses
        (p3, [[0, 2], [1]], False),
        (p3, [[0, 1, 2]], True),
        (eight, [[0, 1, 2], [3], [4, 5, 6], [7]], False),
        (eight, [[0, 1, 2, 3], [4, 5, 6], [7]], True),
        # overlapping segments cross, side-by-side ones do not
        (line, [[0, 1], [2, 3]], False),
        (line, [[0, 2], [1, 3]], True),
    )
    for cfg, blocks, noncrossing in cases:
        pi = SetPartition.of(len(cfg), blocks)
        assert is_noncrossing(cfg, pi) == noncrossing, pi


def _count_cases():
    """Fixtures, every standard configuration with at most 9 points, and
    seeded draws from the 4 x 4 integer grid."""
    cases = [(name, load_builtin(name)) for name in BUILTIN]
    for fam in "PQT":
        cases += [(f"{fam}{m}", standard_config(fam, m)) for m in range(10)
                  if point_count(fam, m) <= 9]
    for fam in "UVS":
        cases += [(f"{fam}{m},{n}", standard_config(fam, m, n))
                  for m in range(10) for n in range(10) if point_count(fam, m, n) <= 9]
    grid = [(x, y) for x in range(4) for y in range(4)]
    for seed in range(6):
        rng = random.Random(seed)
        k = rng.randint(4, 9)
        cases.append((f"grid{k}-{seed}", make_configuration(rng.sample(grid, k))))
    return cases


def test_count_matches_enumeration():
    # the search places point k from the points before it alone, so its
    # nodes at depth k are the noncrossing partitions of the first k points
    for name, config in _count_cases():
        sizes = count_noncrossing(config)
        assert sizes[-1] == len(enumerate_noncrossing(config)), name
        assert len(sizes) == len(config) + 1, name
        for k, size in enumerate(sizes[:-1]):
            prefix = make_configuration(config.points[:k])
            assert size == len(enumerate_noncrossing(prefix)), (name, k)


def test_enumeration_cap(monkeypatch):
    with pytest.raises(TooLarge):
        count_noncrossing(standard_config("Q", 13))
    with monkeypatch.context() as patch:
        patch.setattr(partition, "DEFAULT_ENUM_CAP", 13)
        assert count_noncrossing(standard_config("P", 13))[-1] == 2 ** 12
    # the element cap: NC(Q_8) has 1430 elements; counting has no such cap
    q8 = standard_config("Q", 8)
    monkeypatch.setattr(partition, "DEFAULT_LATTICE_CAP", 1429)
    with pytest.raises(TooLarge, match="more than 1429 elements"):
        enumerate_noncrossing(q8)
    assert count_noncrossing(q8)[-1] == 1430
    monkeypatch.setattr(partition, "DEFAULT_LATTICE_CAP", 1430)
    assert len(enumerate_noncrossing(q8)) == 1430


def test_enumeration_of_at_most_two_points(monkeypatch):
    want = {
        0: [SetPartition(0, ())],
        1: [SetPartition(1, ((0,),))],
        2: [SetPartition(2, ((0, 1),)), SetPartition(2, ((0,), (1,)))],
    }
    for n, parts in want.items():
        cfg = standard_config("P", n)
        assert enumerate_noncrossing(cfg) == [(pi, pair_mask(pi)) for pi in parts]
        assert count_noncrossing(cfg)[-1] == len(parts)
        with monkeypatch.context() as patch:
            patch.setattr(partition, "DEFAULT_LATTICE_CAP", len(parts) - 1)
            with pytest.raises(TooLarge):
                enumerate_noncrossing(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(partition, "DEFAULT_ENUM_CAP", n - 1)
            with pytest.raises(TooLarge):
                count_noncrossing(cfg)


def test_enumerate_is_sorted_and_unique():
    cfg = standard_config("S", 1, 2)
    parts = [pi for pi, _ in enumerate_noncrossing(cfg)]
    assert len(parts) == len(set(parts)) == 37


@st.composite
def random_partition(draw, ground=5):
    ids = draw(st.lists(st.integers(0, ground - 1), min_size=ground, max_size=ground))
    return from_assignment(ids)


@given(random_partition(), random_partition(), random_partition())
@settings(max_examples=80, deadline=None)
def test_refinement_is_a_partial_order(a, b, c):
    assert refines(a, a)
    if refines(a, b) and refines(b, a):
        assert a == b
    if refines(a, b) and refines(b, c):
        assert refines(a, c)


@given(random_partition(), random_partition())
@settings(max_examples=80, deadline=None)
def test_meet_join_bounds(a, b):
    lo = common_refinement(a, b)
    assert refines(lo, a) and refines(lo, b)
