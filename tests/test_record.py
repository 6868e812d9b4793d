"""The record classes behave as the frozen dataclasses they replace.

Each repr string below is the text the dataclass version printed.
"""

import copy
import pickle

import pytest

from hforest.canonical import CanonicalName
from hforest.degrees import DegreePoset, degree_poset
from hforest.forest import Tree
from hforest.ordinal import ONE, ZERO, Ord, parse_ordinal
from hforest.space import FiniteSpace, KPartition, PFamily, SpaceError, chain_space


def check_record(a, equal, other, fields, text):
    """a equals equal (a separate but equal record) and neither other, nor
    its own field tuple, nor a subclass's record of the same fields; it
    reads as text and survives pickle and deepcopy."""
    assert equal is not a and a == equal and not a != equal
    assert a != other and not a == other
    assert a != fields and fields != a
    subclass_record = type("Sub", (type(a),), {})(*fields)
    assert a != subclass_record and subclass_record != a
    assert a.__eq__(fields) is NotImplemented
    assert repr(a) == text
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(b) is type(a) and b == a and repr(b) == text


def check_frozen(a, equal, fields, names):
    assert hash(a) == hash(equal) == hash(fields)
    for name in names.split():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)


def test_ord():
    a = parse_ordinal("w^2+1")
    equal = Ord(terms=((parse_ordinal("2"), 1), (ZERO, 1)))
    check_record(a, equal, parse_ordinal("w^2"), (a.terms,), "Ord[w^2+1]")
    check_frozen(a, equal, (a.terms,), "terms")
    assert Ord() == ZERO and Ord().terms == () and repr(Ord()) == "Ord[0]"
    with pytest.raises(ValueError, match=r"bad CNF term \(1, 1\)"):
        Ord(((1, 1),))
    with pytest.raises(ValueError, match=r"bad CNF term \(Ord\[0\], 0\)"):
        Ord(((ZERO, 0),))
    with pytest.raises(ValueError, match="strictly decreasing"):
        Ord(((ZERO, 1), (ONE, 1)))


def test_canonical_name():
    w1 = parse_ordinal("w+1")
    a = CanonicalName("T", w1)
    equal = CanonicalName(kind="T", index=parse_ordinal("w+1"))
    check_record(a, equal, CanonicalName("Tbar", w1), ("T", w1),
                 "CanonicalName(kind='T', index=Ord[w+1])")
    check_frozen(a, equal, ("T", w1), "kind index")
    assert str(a) == "T[w+1]"


def test_finite_space():
    a = chain_space(2)
    equal = FiniteSpace(n=2, up=(3, 2))
    check_record(a, equal, FiniteSpace(2, (1, 3)), (2, (3, 2)),
                 "FiniteSpace(n=2, up=(3, 2))")
    check_frozen(a, equal, (2, (3, 2)), "n up")
    # the dual order's rows are made on first use and kept outside the
    # fields, so a record that has them is still the same record
    assert a.down == (1, 3) and a.down is a.down
    assert FiniteSpace.from_pairs(3, [(0, 2), (1, 2)]).down == (1, 2, 7)
    check_record(a, equal, FiniteSpace(2, (1, 3)), (2, (3, 2)),
                 "FiniteSpace(n=2, up=(3, 2))")
    check_frozen(a, equal, (2, (3, 2)), "n up")
    with pytest.raises(SpaceError, match="order must be reflexive"):
        FiniteSpace(2, (0, 2))
    with pytest.raises(SpaceError, match="points 0 and 1 violate antisymmetry"):
        FiniteSpace(2, (3, 3))
    with pytest.raises(SpaceError, match="order must be transitive"):
        FiniteSpace(3, (0b011, 0b110, 0b100))


def test_kpartition():
    a = KPartition((0, 1), 2)
    equal = KPartition(labels=(0, 1), k=2)
    check_record(a, equal, KPartition((0, 1), 3), ((0, 1), 2),
                 "KPartition(labels=(0, 1), k=2)")
    check_frozen(a, equal, ((0, 1), 2), "labels k")
    with pytest.raises(SpaceError, match="partition label out of range"):
        KPartition((0, 2), 2)


def test_pfamily():
    forest = (Tree(0, (Tree(1),)),)
    sets = {((0,),): 3, ((0, 0),): 2}
    a = PFamily(Tree(0, (Tree(1),)), 1, sets)
    equal = PFamily(forest=forest, depth=1, sets=dict(sets))
    check_record(a, equal, PFamily(forest, 1, {((0,),): 3, ((0, 0),): 0}),
                 (forest, 1, sets),
                 "PFamily(forest=(Tree(0, (Tree(1),)),), depth=1, "
                 "sets={((0,),): 3, ((0, 0),): 2})")
    assert a.forest == forest
    with pytest.raises(TypeError, match="unhashable type: 'PFamily'"):
        hash(a)
    a.depth = 2  # mutable, as the dataclass was
    assert a.depth == 2 and a != equal
    with pytest.raises(SpaceError, match="family must assign a set to every node tuple"):
        PFamily((Tree(0),), 1, {})
    with pytest.raises(SpaceError, match="depth must be positive"):
        PFamily((Tree(0),), 0, {})


def test_degree_poset():
    a = degree_poset(chain_space(1), 2)
    fields = (chain_space(1), 2,
              ((KPartition((0,), 2),), (KPartition((1,), 2),)),
              (frozenset({0}), frozenset({1})))
    equal = DegreePoset(*fields)
    check_record(a, equal, degree_poset(chain_space(1), 3), fields,
                 "DegreePoset(space=FiniteSpace(n=1, up=(1,)), k=2, "
                 "classes=((KPartition(labels=(0,), k=2),), "
                 "(KPartition(labels=(1,), k=2),)), "
                 "leq=(frozenset({0}), frozenset({1})))")
    check_frozen(a, equal, fields, "space k classes leq")
    assert len(a) == 2
