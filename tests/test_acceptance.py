"""Acceptance criteria, one test each.

Every test prints its criterion's one-line verdict before asserting, so a
plain pytest run shows the whole scoreboard with -s (or in the captured
output of a failing criterion).
"""

import hashlib
import os
import re
import subprocess
import sys

import pytest

import nclat
from nclat import acceptance, scd
from nclat.geometry import make_configuration, standard_config
from nclat.partition import SetPartition
from nclat.poset import GradedInfo, build_nc_poset, gradedness

from oracles import refines


# verify-paper's stdout with the measured seconds masked, one line per
# criterion: every name, detail string and budget is pinned here
with open(os.path.join(os.path.dirname(__file__), "data", "verify_paper.txt")) as fh:
    EXPECTED_LINES = fh.read().splitlines()


def _masked(line):
    return re.sub(r"\[\d+\.\d+s / ", "[s / ", line)


def _run(number):
    res = acceptance.run_criteria(only=[str(number)])[0]
    print(res.line())
    assert res.ok, res.line()
    assert _masked(res.line()) == EXPECTED_LINES[number - 1]
    return res


def test_criteria_table():
    assert [(name, budget) for name, budget, _ in acceptance.CRITERIA] == [
        ("tables-U", 10.0),
        ("tables-V", 30.0),
        ("tables-S", 120.0),
        ("tables-T", 30.0),
        ("gradedness", 60.0),
        ("symmetric-chains", 120.0),
        ("decompositions", 120.0),
        ("series-identities", 30.0),
        ("lattice-axioms", 30.0),
        ("self-duality", 120.0),
    ]
    assert len(EXPECTED_LINES) == len(acceptance.CRITERIA)


def test_standard_instances_pinned():
    instances = acceptance._standard_instances()
    assert len(instances) == 156
    assert hashlib.sha256(repr(instances).encode()).hexdigest() == (
        "f4aa28d487abc39dc7a6b07a651b7128810aeea60e4426a785ee83c5d15634b7"
    )


def test_criterion_01_tables_U():
    res = _run(1)
    assert res.seconds < 10


def test_criterion_02_tables_V():
    res = _run(2)
    assert res.seconds < 30


def test_criterion_03_tables_S():
    res = _run(3)
    assert res.seconds < 120


def test_criterion_04_tables_T():
    _run(4)


def test_criterion_05_gradedness():
    res = _run(5)
    assert res.seconds < 60


def test_criterion_05_reports_the_ungraded_instance(monkeypatch):
    real = acceptance.gradedness

    def s16_ungraded(poset):
        # S(1,6) has 4433 elements, a size no other poset of criterion 5
        # has; a verdict attributed to another instance would name that one
        if len(poset) == 4433:
            return GradedInfo(False, ("low", "high"))
        return real(poset)

    monkeypatch.setattr(acceptance, "gradedness", s16_ungraded)
    res = acceptance.run_criteria(only=["5"])[0]
    assert res.ok is False
    assert "ungraded standard instances: [('S', 1, 6, ('low', 'high'))];" in res.detail


def test_criterion_05_builds_a_shared_lattice_once(monkeypatch):
    # Q(9) and S(0,7) share NC = 4862 elements, a size no other poset of
    # criterion 5 has: one build, and both instances reported ungraded
    real = acceptance.gradedness
    builds = []

    def counted(config):
        builds.append(config)
        return build_nc_poset(config)

    def c9_ungraded(poset):
        if len(poset) == 4862:
            return GradedInfo(False, ("low", "high"))
        return real(poset)

    monkeypatch.setattr(acceptance, "build_nc_poset", counted)
    assert acceptance.run_criteria(only=["5"])[0].ok
    # 13 standard lattices, all of 9 points, hold every other instance as an
    # interval, and the 3 fixtures
    assert len(builds) == 16
    builds.clear()
    monkeypatch.setattr(acceptance, "gradedness", c9_ungraded)
    res = acceptance.run_criteria(only=["5"])[0]
    assert res.ok is False
    assert (
        "ungraded standard instances: [('Q', 9, None, ('low', 'high')), "
        "('S', 0, 7, ('low', 'high'))];"
    ) in res.detail
    # an ungraded lattice lends no verdict, so one more is built
    assert len(builds) == 17


def test_criterion_05_builds_what_an_ungraded_host_contains(monkeypatch):
    # S(1,6) (4433 elements) is the only configuration of criterion 5 that
    # holds S(1,5) (1298 elements) as an interval; both sizes occur once.
    # Read ungraded, each is built and named by its own witness, in
    # instance order
    real = acceptance.gradedness
    instances = acceptance._standard_instances()
    s15 = standard_config("S", 1, 5)
    hosts = [c for c in instances if c != ("S", 1, 5) and acceptance._is_interval(
        s15, acceptance._host(standard_config(*c)))]
    assert hosts == [("S", 1, 6)]

    def ungraded(poset):
        if len(poset) in (1298, 4433):
            return GradedInfo(False, ("jump", len(poset)))
        return real(poset)

    monkeypatch.setattr(acceptance, "gradedness", ungraded)
    res = acceptance.run_criteria(only=["5"])[0]
    assert res.ok is False
    assert ("ungraded standard instances: [('S', 1, 5, ('jump', 1298)), "
            "('S', 1, 6, ('jump', 4433))];") in res.detail


def test_interval_needs_no_other_host_point_in_the_hull():
    corners = make_configuration([(0, 0), (3, 0), (0, 3)])
    with_centroid = make_configuration([(0, 0), (3, 0), (0, 3), (1, 1)])
    with_outside = make_configuration([(0, 0), (3, 0), (4, 4), (0, 3)])
    assert not acceptance._is_interval(corners, acceptance._host(with_centroid))
    assert acceptance._is_interval(corners, acceptance._host(with_outside))
    assert not acceptance._is_interval(with_outside, acceptance._host(corners))


@pytest.mark.parametrize("inner,host", [
    (("U", 2, 2), ("U", 3, 2)),
    (("Q", 5, None), ("S", 1, 4)),
    (("P", 4, None), ("V", 4, 1)),
])
def test_interval_is_the_ideal_below_its_points(inner, host):
    """pi -> pi plus singletons carries NC(inner) onto the partitions of
    host below {inner's points, singletons}, element for element, rank for
    rank and cover for cover."""
    a_cfg, b_cfg = standard_config(*inner), standard_config(*host)
    assert acceptance._is_interval(a_cfg, acceptance._host(b_cfg))
    a, b = build_nc_poset(a_cfg), build_nc_poset(b_cfg)
    where = [b_cfg.points.index(p) for p in a_cfg.points]
    rest = [[q] for q in range(len(b_cfg)) if q not in where]

    def lift(pi):
        blocks = [[where[i] for i in blk] for blk in pi.blocks]
        return SetPartition.of(len(b_cfg), blocks + rest)

    top = SetPartition.of(len(b_cfg), [where] + rest)
    img = [b.index(lift(pi)) for pi in a.elements]
    ideal = {j for j, sigma in enumerate(b.elements) if refines(sigma, top)}
    assert len(set(img)) == len(img) and set(img) == ideal
    assert [b.ranks[j] for j in img] == a.ranks
    assert {(img[i], img[j]) for i, j in a.covers()} == {
        (i, j) for i, j in b.covers() if i in ideal and j in ideal}


def test_criterion_05_verdicts_match_a_build_of_each_instance():
    instances = acceptance._standard_instances()
    found = sorted(acceptance._standard_verdicts(instances))
    assert [x for x, _ in found] == list(range(len(instances)))
    for x, info in found:
        assert info == gradedness(build_nc_poset(standard_config(*instances[x])))


def test_criterion_05_names_each_mirrored_instance_by_its_own_witness(monkeypatch):
    # U(4,5) and U(5,4) are mirror images whose points run in opposite
    # orders, with 2329 elements, a size no other poset of criterion 5 has:
    # one lattice renamed, so a graded verdict would be shared, but each
    # ungraded one names a cover of its own lattice
    real = acceptance.gradedness

    def middle_cover(poset):
        i, j = poset.covers()[len(poset.covers()) // 2]
        return poset.elements[i], poset.elements[j]

    def ungraded(poset):
        if len(poset) == 2329:
            return GradedInfo(False, middle_cover(poset))
        return real(poset)

    expected = [
        (fam, m, n, middle_cover(build_nc_poset(standard_config(fam, m, n))))
        for fam, m, n in (("U", 4, 5), ("U", 5, 4))
    ]
    assert expected[0][3] != expected[1][3]
    monkeypatch.setattr(acceptance, "gradedness", ungraded)
    res = acceptance.run_criteria(only=["5"])[0]
    assert res.ok is False
    assert f"ungraded standard instances: {expected};" in res.detail


def _poset_data(config):
    poset = build_nc_poset(config)
    return poset.elements, poset.covers(), poset.ranks


def _renamed_onto(a, b, n):
    """Whether renaming point i to n - 1 - i carries the poset a onto b."""
    to_b = [
        b.index(SetPartition.of(n, [[n - 1 - i for i in blk] for blk in p.blocks]))
        for p in a.elements
    ]
    return (
        sorted(to_b) == list(range(len(b)))
        and {(to_b[i], to_b[j]) for i, j in a.covers()} == set(b.covers())
        and [b.ranks[k] for k in to_b] == list(a.ranks)
    )


def test_lattice_key_is_exact():
    groups = {}
    mirrored = []
    for instance in acceptance._standard_instances():
        cfg = standard_config(*instance)
        key = acceptance._lattice_key(cfg)
        if key not in groups:
            rev = acceptance._lattice_key(make_configuration(cfg.points[::-1]))
            if rev in groups:
                mirrored.append((groups[rev][0], cfg))
        groups.setdefault(key, []).append(cfg)
    assert (len(groups), len(mirrored)) == (72, 21)
    for cfgs in groups.values():
        if len(cfgs) > 1:
            first = _poset_data(cfgs[0])
            assert all(_poset_data(cfg) == first for cfg in cfgs[1:])
    for a, b in mirrored:
        assert _renamed_onto(build_nc_poset(b), build_nc_poset(a), len(a))
    # a convex quadrilateral in two cyclic orders: the same segments and
    # triangles, but 0-1 crosses 2-3 only in the second labelling
    a = make_configuration([(0, 0), (1, 0), (1, 1), (0, 1)])
    b = make_configuration([(0, 0), (1, 1), (1, 0), (0, 1)])
    assert a.kernel.segment == b.kernel.segment
    assert a.kernel.triangle == b.kernel.triangle
    assert a.kernel.meets != b.kernel.meets
    assert acceptance._lattice_key(a) != acceptance._lattice_key(b)
    assert _poset_data(a) != _poset_data(b)


def test_criterion_06_symmetric_chains():
    res = _run(6)
    assert res.seconds < 120


def test_criterion_07_decompositions():
    res = _run(7)
    assert res.seconds < 120


def test_criterion_07_checks_each_part_map(monkeypatch):
    real = acceptance.decomposition_parts

    def swapped(fam, m, n):
        # one part's map, reversed: still onto the same host elements,
        # and the induced subposet is still isomorphic to the model
        dec = real(fam, m, n)
        if (fam, m, n) == ("U", 2, 2):
            dec.parts[0].host_indices.reverse()
        return dec

    monkeypatch.setattr(acceptance, "decomposition_parts", swapped)
    res = acceptance.run_criteria(only=["7"])[0]
    assert res.ok is False
    assert "('U', 2, 2, 'A', 'factor structure mismatch')" in res.detail


def test_criterion_08_series_identities():
    _run(8)


def test_criterion_09_lattice_axioms():
    _run(9)


def test_criterion_10_self_duality():
    res = _run(10)
    assert res.seconds < 120


def test_criterion_10_needs_every_non_self_dual_instance(monkeypatch):
    real = acceptance.is_self_dual

    def u14_self_dual(poset, *args, **kwargs):
        # U(1,4) has 28 elements, a size no other instance of criterion 10 has
        if len(poset.elements) == 28:
            return True
        return real(poset, *args, **kwargs)

    monkeypatch.setattr(acceptance, "is_self_dual", u14_self_dual)
    res = acceptance.run_criteria(only=["10"])[0]
    assert res.ok is False
    assert "U(1,4)" not in res.detail


def test_criteria_6_7_9_10_share_the_standard_lattices(monkeypatch):
    # 57 point sets, some under two family names, each built once (242
    # builds when every criterion built its own posets)
    builds = []
    real = scd.build_nc_poset

    def counted(config, *args, **kwargs):
        builds.append(config.points)
        return real(config, *args, **kwargs)

    monkeypatch.setattr(acceptance, "build_nc_poset", counted)
    monkeypatch.setattr(scd, "build_nc_poset", counted)
    monkeypatch.setattr(scd, "_LATTICES", {})
    for cached in (scd._family_chains, scd._classical_chains):
        cached.cache_clear()
    results = acceptance.run_criteria(only=["6", "7", "9", "10"])
    assert [r.ok for r in results] == [True] * 4
    assert (len(builds), len(set(builds))) == (57, 57)


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(nclat.__path__[0]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )


def test_cli_does_not_import_multiprocessing():
    # every criterion, 5 with its 156 lattices included, runs in the
    # calling process, and importing a process pool would slow the command
    code = (
        "import sys, nclat.cli\n"
        "code = nclat.cli.main(['verify-paper', '--only', '5,8'])\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "sys.exit(code)\n"
    )
    res = _run_python(code)
    assert res.returncode == 0, res.stderr


def test_run_criteria_filtering():
    results = acceptance.run_criteria(only=["tables"])
    assert [r.number for r in results] == [1, 2, 3, 4]
    results = acceptance.run_criteria(only=["9", "self-duality"])
    assert [r.number for r in results] == [9, 10]
    results = acceptance.run_criteria(only=["s"])
    assert [r.number for r in results] == [6, 8, 10]
    from nclat.errors import InvalidInput

    with pytest.raises(InvalidInput):
        acceptance.run_criteria(only=["bogus"])
