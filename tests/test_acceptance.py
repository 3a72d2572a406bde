"""Acceptance criteria, one test each.

Every test prints its criterion's one-line verdict before asserting, so a
plain pytest run shows the whole scoreboard with -s (or in the captured
output of a failing criterion).
"""

import pytest

from nclat import acceptance


def _run(number):
    fn = acceptance.CRITERIA[number - 1]
    res = fn()
    print(res.line())
    assert res.ok, res.line()
    return res


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
    res = acceptance.criterion_7()
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
    res = acceptance.criterion_10()
    assert res.ok is False
    assert "U(1,4)" not in res.detail


def test_run_criteria_filtering():
    results = acceptance.run_criteria(only=["tables"])
    assert [r.number for r in results] == [1, 2, 3, 4]
    results = acceptance.run_criteria(only=["9", "self-duality"])
    assert [r.number for r in results] == [9, 10]
    from nclat.errors import InvalidInput

    with pytest.raises(InvalidInput):
        acceptance.run_criteria(only=["bogus"])
