"""Symmetric chain decompositions and removal decompositions."""

import math

import pytest

from nclat import scd
from nclat.errors import AssemblyFailure, InvalidInput, NotRankSymmetric, TooLarge
from nclat.geometry import standard_config
from nclat.partition import SetPartition
from nclat.poset import (
    build_nc_poset,
    is_isomorphism,
    poset_isomorphic,
    product_poset,
    rank_vector,
)
from nclat.scd import (
    _add_last,
    _merge_parts,
    boolean_scd,
    decomposition_parts,
    generic_scd,
    product_scd,
    removal_class,
    scd_S,
    scd_T,
    scd_U,
    scd_V,
    standard_poset,
    symmetric_chain_profile,
    verify_scd,
)
from nclat.enumeration import catalan, s_table, t_sequence, u_table, v_table
from oracles import bool_poset, from_leq, induced, singletons


def test_boolean_scd_all_small():
    for n in range(9):
        chains = boolean_scd(n)
        res = verify_scd(bool_poset(n), chains)
        assert res.ok, (n, res.reason)
        assert res.chain_count == math.comb(n, n // 2)


def test_product_scd():
    a, b = boolean_scd(2), boolean_scd(3)
    combined = product_scd(a, b, combine=lambda x, y: (x, y))
    prod = product_poset(bool_poset(2), bool_poset(3))
    res = verify_scd(prod, combined)
    assert res.ok, res.reason


@pytest.mark.parametrize(
    "sizes",
    [("Q", r) for r in range(1, 10)] + [("V", 1, 1)],
    ids=lambda sizes: "-".join(map(str, sizes)),
)
def test_generic_scd_on_circle(sizes):
    poset = build_nc_poset(standard_config(*sizes))
    res = verify_scd(poset, generic_scd(poset))
    assert res.ok, res.reason


def test_generic_scd_is_greedy():
    # graded, rank vector [2, 2], covers 0<2, 0<3, 1<2: the SCD {0<3, 1<2}
    # exists, but the walk takes 0<2 first and then finds 1 stuck
    covers = {(0, 2), (0, 3), (1, 2)}
    poset = from_leq(
        range(4), lambda a, b: a == b or (a, b) in covers, [0, 0, 1, 1]
    )
    with pytest.raises(AssemblyFailure):
        generic_scd(poset)


def test_scd_T_sizes():
    seq = t_sequence(5)
    for n in range(6):
        chains = scd_T(n)
        assert sum(len(c) for c in chains) == seq[n]
        poset = build_nc_poset(standard_config("T", n))
        res = verify_scd(poset, chains)
        assert res.ok, (n, res.reason)


def test_sizes_must_be_nonnegative_integers():
    for call in (
        lambda: standard_config("Q", 2.5),
        lambda: standard_config("Q", "3"),
        lambda: decomposition_parts("U", 2.5, 1),
        lambda: scd_U(-1, 2),
        lambda: scd_T(-1),
        lambda: scd_S(1.5, 1),
    ):
        with pytest.raises(InvalidInput):
            call()


@pytest.mark.parametrize("fam,builder,table", [
    ("U", scd_U, u_table),
    ("V", scd_V, v_table),
    ("S", scd_S, s_table),
])
def test_scd_families(fam, builder, table):
    tab = table(3, 3)
    for m in range(4):
        for n in range(4):
            chains = builder(m, n)
            expected = tab[m][n]
            if fam == "U" and (m, n) == (0, 0):
                expected = 1  # the empty lattice still has its empty partition
            assert sum(len(c) for c in chains) == expected
            poset = build_nc_poset(standard_config(fam, m, n))
            res = verify_scd(poset, chains)
            assert res.ok, (fam, m, n, res.reason)
            assert res.lengths == symmetric_chain_profile(rank_vector(poset))


def test_verify_scd_rejects_tampering():
    poset = bool_poset(3)
    good = [list(c) for c in boolean_scd(3)]

    missing = [c[:] for c in good]
    long_chain = max(range(len(missing)), key=lambda i: len(missing[i]))
    missing[long_chain] = missing[long_chain][:-1]
    assert not verify_scd(poset, missing).ok

    doubled = [c[:] for c in good] + [good[0][:1]]
    assert not verify_scd(poset, doubled).ok

    reversed_chain = [c[:] for c in good]
    reversed_chain[long_chain] = list(reversed(reversed_chain[long_chain]))
    assert not verify_scd(poset, reversed_chain).ok

    # splitting a 4-chain into two halves keeps it saturated but uncentered
    split = [c[:] for c in good if len(c) != 4]
    four = next(c for c in good if len(c) == 4)
    split += [four[:2], four[2:]]
    assert not verify_scd(poset, split).ok

    foreign = [c[:] for c in good]
    foreign[0] = foreign[0] + [frozenset({99})]
    assert not verify_scd(poset, foreign).ok

    unhashable = verify_scd(poset, [[["x"]]])
    assert not unhashable.ok
    assert unhashable.reason == "chain 0 contains an element outside the poset"


def test_symmetric_chain_profile():
    assert symmetric_chain_profile([1, 3, 3, 1]) == {4: 1, 2: 2}
    assert symmetric_chain_profile([1, 6, 6, 1]) == {4: 1, 2: 5}
    assert symmetric_chain_profile([5]) == {1: 5}
    with pytest.raises(NotRankSymmetric):
        symmetric_chain_profile([1, 2, 3])
    with pytest.raises(AssemblyFailure):
        symmetric_chain_profile([2, 1, 2])


def test_removal_class_partitions_the_lattice():
    cfg = standard_config("U", 2, 2)
    poset = build_nc_poset(cfg)
    counts = {}
    for pi in poset.elements:
        counts[removal_class(pi, 2)] = counts.get(removal_class(pi, 2), 0) + 1
    assert counts == {"A": 10, "B1": 2, "B2": 2}
    assert sum(counts.values()) == u_table(2, 2)[2][2]


def test_removal_class_of_no_points_is_refused():
    # a partition of no points has no last point to classify
    with pytest.raises(InvalidInput):
        removal_class(SetPartition(0, ()), 0)


def test_decomposition_parts_structure():
    dec = decomposition_parts("U", 2, 2)
    names = [p.name for p in dec.parts]
    assert names == ["A", "B1", "B2"]
    total = sorted(i for p in dec.parts for i in p.host_indices)
    assert total == list(range(len(dec.poset)))
    for part in dec.parts:
        sub = induced(dec.poset, part.host_indices)
        assert poset_isomorphic(sub, part.model)
        # host_indices itself is the isomorphism, element by element
        assert is_isomorphism(part.model, sub, range(len(sub)))


def test_decomposition_parts_T():
    dec = decomposition_parts("T", 4)
    sizes = {p.name: len(p.host_indices) for p in dec.parts}
    assert sizes == {"A": 24, "B1": 4}
    b_part = next(p for p in dec.parts if p.name == "B1")
    assert poset_isomorphic(induced(dec.poset, b_part.host_indices), bool_poset(2))


@pytest.mark.parametrize("fam,table,least", [
    ("U", u_table, 2), ("V", v_table, 2), ("S", s_table, 1), ("T", u_table, 2),
])
def test_decomposition_part_sizes_follow_recurrence(fam, table, least):
    # |A| = 2 X[m-1][n], |B_k| = X[m-1][k-1] times the tail count, C_{n-k+1}
    # on a circle (S) or 2^(n-k) on a line, and the parts fill X[m][n]
    cases = [(m, 1) for m in range(2, 7)] if fam == "T" else [
        (m, n) for m in range(least, 4) for n in range(1, 4)
    ]
    for m, n in cases:
        tab = table(m, n)
        dec = decomposition_parts(fam, m, None if fam == "T" else n)
        sizes = {p.name: len(p.host_indices) for p in dec.parts}
        expected = {"A": 2 * tab[m - 1][n]}
        for k in range(1, n + 1):
            tail = catalan(n - k + 1) if fam == "S" else 2 ** (n - k)
            expected[f"B{k}"] = tab[m - 1][k - 1] * tail
        assert sizes == expected, (fam, m, n)
        assert sum(sizes.values()) == tab[m][n] == len(dec.poset)


@pytest.mark.parametrize("builder", [scd_U, scd_V, scd_S])
def test_chain_elements_are_canonical(builder):
    # _add_last and _merge_parts build their blocks in canonical order
    # instead of sorting them through SetPartition.of
    for m in range(4):
        for n in range(4):
            for chain in builder(m, n):
                for pi in chain:
                    assert SetPartition.of(pi.ground, pi.blocks) == pi


def test_partition_surgery_rejects_missing_blocks():
    with pytest.raises(InvalidInput):
        _add_last(SetPartition.of(0, []), 1, True)
    assert _add_last(SetPartition.of(0, []), 1, False) == SetPartition.of(1, [[0]])
    with pytest.raises(InvalidInput):
        _add_last(singletons(2), 4, False)
    with pytest.raises(InvalidInput):
        _merge_parts(singletons(2), SetPartition.of(0, []), 0, 3)
    with pytest.raises(InvalidInput):
        _merge_parts(singletons(2), singletons(1), 1, 5)
    assert _merge_parts(
        singletons(2), SetPartition.of(2, [[0, 1]]), 2, 5
    ) == SetPartition.of(5, [[0, 1, 4], [2], [3]])


@pytest.mark.parametrize("sizes", [("P", 4), ("Q", 5), ("T", 3), ("U", 2, 3), ("S", 1, 2)])
def test_standard_poset_is_built_once(sizes):
    poset = standard_poset(*sizes)
    assert standard_poset(*sizes) is poset
    if len(sizes) == 2:
        assert standard_poset(*sizes, None) is poset
    fresh = build_nc_poset(standard_config(*sizes))
    assert poset.elements == fresh.elements
    assert poset.covers() == fresh.covers()
    assert poset.ranks == fresh.ranks


@pytest.mark.parametrize("alias, name", [
    (("P", 5), ("U", 5, 0)),
    (("T", 4), ("U", 4, 1)),
    (("P", 0), ("U", 0, 0)),
], ids=["P5-U50", "T4-U41", "P0-U00"])
def test_standard_poset_shares_one_point_set(alias, name):
    # one point set under two family names is one lattice
    assert standard_poset(*alias) is standard_poset(*name)


def test_standard_poset_checks_the_cap_first(monkeypatch):
    monkeypatch.setattr(scd, "_LATTICES", {})
    assert len(standard_poset("P", 15)) == 2 ** 14

    def unbuilt(*args):
        raise AssertionError("a point was built")

    monkeypatch.setattr(scd, "standard_config", unbuilt)
    with pytest.raises(TooLarge, match="16 points, cap is 15"):
        standard_poset("P", 16)
    with pytest.raises(TooLarge, match="1000001 points"):
        standard_poset("T", 10**6)
