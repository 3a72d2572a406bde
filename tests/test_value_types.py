"""The package's value types: repr text, equality and hashing, Point
ordering and coordinate normalisation, immutability, and pickling."""

from fractions import Fraction
import pickle

import pytest

from nclat.acceptance import CriterionResult
from nclat.enumeration import CountTable, CrossCheck
from nclat.errors import InvalidInput
from nclat.fixtures import load_builtin
from nclat.geometry import Configuration, Point, make_configuration, standard_config
from nclat.partition import SetPartition
from nclat.poset import GradedInfo, build_nc_poset, gradedness
from nclat.scd import DecompositionPart, RemovalDecomposition, VerifyResult
from oracles import singletons

# (value, its repr, an equal value built apart, a different value)
VALUES = [
    (Point(1, "1/2"), "Point(x=Fraction(1, 1), y=Fraction(1, 2))",
     Point(Fraction(1), "0.5"), Point(1, "1/3")),
    (make_configuration([(0, 0), (1, 0)], ["a", "b"]),
     "Configuration(points=(Point(x=Fraction(0, 1), y=Fraction(0, 1)), "
     "Point(x=Fraction(1, 1), y=Fraction(0, 1))), labels=('a', 'b'))",
     Configuration((Point(0, 0), Point(1, 0)), ("a", "b")),
     make_configuration([(0, 0), (1, 0)], ["a", "c"])),
    (SetPartition(3, ((0, 2), (1,))), "SetPartition(ground=3, blocks=((0, 2), (1,)))",
     SetPartition.of(3, [[2, 0], [1]]), singletons(3)),
    (GradedInfo(False, (0, 1)), "GradedInfo(is_graded=False, witness=(0, 1))",
     GradedInfo(False, (0, 1)), GradedInfo(True, None)),
    (CountTable("T", "closed", [[1, 2]]),
     "CountTable(family='T', source='closed', rows=[[1, 2]])",
     CountTable("T", "closed", [[1, 2]]), CountTable("T", "series", [[1, 2]])),
    (CrossCheck("U", {"series": [[1]]}, []),
     "CrossCheck(family='U', tables={'series': [[1]]}, mismatches=[])",
     CrossCheck("U", {"series": [[1]]}, []), CrossCheck("V", {"series": [[1]]}, [])),
    (CriterionResult(5, "graded", True, "ok", 0.5, 60.0),
     "CriterionResult(number=5, name='graded', ok=True, detail='ok', "
     "seconds=0.5, budget=60.0)",
     CriterionResult(5, "graded", True, "ok", 0.5, 60.0),
     CriterionResult(5, "graded", False, "ok", 0.5, 60.0)),
    (VerifyResult(True, None, 2, 3, {1: 1, 2: 1}),
     "VerifyResult(ok=True, reason=None, chain_count=2, element_count=3, "
     "lengths={1: 1, 2: 1})",
     VerifyResult(True, None, 2, 3, {2: 1, 1: 1}),
     VerifyResult(False, "bad", 2, 3, {1: 1, 2: 1})),
    (DecompositionPart("B1", "model", [0, 2]),
     "DecompositionPart(name='B1', model='model', host_indices=[0, 2])",
     DecompositionPart("B1", "model", [0, 2]), DecompositionPart("A", "model", [0, 2])),
    (RemovalDecomposition("host", [], 3),
     "RemovalDecomposition(poset='host', parts=[], prefix_count=3)",
     RemovalDecomposition("host", [], 3), RemovalDecomposition("host", [], 4)),
]

IDS = [type(v[0]).__name__ for v in VALUES]


@pytest.mark.parametrize("value, text, same, other", VALUES, ids=IDS)
def test_repr_equality_and_pickle(value, text, same, other):
    assert repr(value) == text
    assert value == same and not value != same
    assert value != other
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is type(value) and again == value and repr(again) == text


@pytest.mark.parametrize("value, text, same, other", VALUES, ids=IDS)
def test_fields_are_read_only_and_hash_as_their_tuple(value, text, same, other):
    name = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    # hashable exactly when every field is, and then as the field tuple
    # hashes, so set and dict orders follow the field values
    try:
        fields = hash(tuple(value))
    except TypeError:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == fields == hash(same)


def test_point_normalises_its_coordinates():
    for p in (Point(1, 2), Point("1", "2/1"), Point(Fraction(1), "2.0"), Point("1e0", 2)):
        assert p == Point(Fraction(1), Fraction(2))
        assert type(p.x) is Fraction and type(p.y) is Fraction
    for bad in (1.5, True, None, "x", "1/0"):
        with pytest.raises(InvalidInput):
            Point(bad, 0)
    assert str(Point("-1/2", 3)) == "(-1/2, 3)"


def test_point_order_is_x_then_y():
    pts = [Point(1, 0), Point(0, 5), Point("1/2", 1), Point(0, -1), Point(1, -2)]
    assert sorted(pts) == [Point(0, -1), Point(0, 5), Point("1/2", 1), Point(1, -2),
                           Point(1, 0)]
    assert Point(0, 1) < Point(0, 2) <= Point(0, 2) < Point(1, 0)


def test_configuration_keeps_its_cached_kernel():
    cfg = standard_config("Q", 6)
    assert len(cfg) == 6 and len(Configuration((), ())) == 0
    assert cfg.kernel is cfg.kernel and cfg.scaled is cfg.scaled
    again = pickle.loads(pickle.dumps(cfg))
    assert again == cfg and again.kernel.pair == cfg.kernel.pair


def test_gradedness_witness_pickles():
    info = gradedness(build_nc_poset(load_builtin("triangle-pinwheel")))
    again = pickle.loads(pickle.dumps(info))
    assert type(again) is GradedInfo and again == info and not again.is_graded
    assert [type(e) for e in again.witness] == [SetPartition, SetPartition]
    assert str(again.witness[0]) == "0,5|1,3|2,4"
