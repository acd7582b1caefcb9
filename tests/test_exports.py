"""The package's public surface: the export list matches what its
__init__ loads, and the result records keep their contract."""

import sys
import types

import pytest

import pnfkit
from pnfkit import (
    BinaryWord,
    Census,
    ClassStatistics,
    GapDecomposition,
    JumbledIndex,
    PnfPair,
    Separation,
    bound_check,
    build_index,
    census,
    class_statistics,
    parse_word,
    pnf_pair,
    ratio_series,
    separating_suffix,
)
from pnfkit.combinatorics import BoundRow, EquivalenceClass, RatioRow


def test_all_matches_imported_names():
    # Exports load on first use, so vars(pnfkit) holds a name only once it
    # has been read. Every name in __all__ resolves to the object its home
    # module defines, dir() lists it before it is read, and once all are
    # read the package holds no other public name.
    assert set(pnfkit.__all__) <= set(dir(pnfkit))
    for name in pnfkit.__all__:
        value = getattr(pnfkit, name)
        assert value.__module__.startswith("pnfkit."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    imported = {
        name
        for name, value in vars(pnfkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(pnfkit.__all__) == imported
    with pytest.raises(AttributeError, match="has no attribute 'parse'"):
        pnfkit.parse


# Each record type, its field order, and one instance the library built.
RECORDS = [
    (PnfPair, ("pnf1", "pnf0"), lambda: pnf_pair(parse_word("1001101"))),
    (GapDecomposition, ("density", "gaps"), lambda: GapDecomposition.of(parse_word("1001101"))),
    (JumbledIndex, ("n", "fmax", "fmin", "pnf_pair"), lambda: build_index(parse_word("1001101"))),
    (Census, ("n", "pnw", "ecrit", "by_density"), lambda: census(5)),
    (EquivalenceClass, ("representative", "size", "members"), lambda: class_statistics(3).classes[0]),
    (ClassStatistics, ("n", "class_count", "max_class_size", "classes"), lambda: class_statistics(3)),
    (Separation, ("suffix", "witness"), lambda: separating_suffix(parse_word("10"), parse_word("11"))),
    (
        BoundRow,
        ("n", "pnw", "upper_bound", "upper_holds", "lower_bound", "lower_holds"),
        lambda: bound_check(3)[0],
    ),
    (RatioRow, ("n", "growth_ratio", "ecrit_ratio", "ecrit_ratio_scaled"), lambda: ratio_series(3)[0]),
]


@pytest.mark.parametrize("cls, fields, make", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, make):
    record = make()
    assert type(record) is cls
    assert cls._fields == fields
    # Named fields, immutable, and a tuple in comparison and unpacking.
    assert tuple(record) == tuple(getattr(record, name) for name in fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=")


def test_record_repr_and_defaults():
    assert repr(pnf_pair(parse_word("10"))) == "PnfPair(pnf1=BinaryWord('10'), pnf0=BinaryWord('01'))"
    assert EquivalenceClass(BinaryWord(1, 1), 1).members is None
    assert class_statistics(3).classes[0].members is None
    assert class_statistics(3, include_listing=True).classes[0].members is not None


def test_query_via_rank_answers_like_query():
    ix = build_index(parse_word("110100111000101"))
    for ones in range(17):
        for zeros in range(17):
            assert ix.query_via_rank(ones=ones, zeros=zeros) == ix.query(ones=ones, zeros=zeros)
