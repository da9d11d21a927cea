"""The value contract of the public types, and a start-up without dataclasses.

The seven validated types (Partition, SkewShape, Tableau, Word, TotalOrder,
Picture, LRInstance) derive from shapes.Value, and the four reports
(AdditionResult, BijectionReport, ConjectureReport, SweepReport) are
NamedTuples.  Either way a value is built by keyword from its field names,
equals only a value of its own class, hashes as the tuple of its field
values (so set and dict orders do not depend on the implementation), reprs
as Name(field=value, ...), refuses assignment and deletion, and survives
copy, deepcopy and pickle with its cached properties still working.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from lrpictures.lr import (BijectionReport, ConjectureReport, LRInstance, SizeSummary,
                           SweepReport)
from lrpictures.pictures import Picture, TotalOrder
from lrpictures.shapes import AdditionResult, AdditionStep, Partition, SkewShape
from lrpictures.tableaux import Tableau, Word

SRC = Path(__file__).resolve().parent.parent / "src"

LAM, MU, NU = Partition(parts=(2, 1)), Partition(parts=(2, 1)), Partition(parts=(3, 2, 1))
INSTANCE = LRInstance(lam=LAM, mu=MU, nu=NU, rank_bound=4)
ORDER = TotalOrder(cells=((1, 2), (1, 1), (2, 1)))
SKEW_ORDER = TotalOrder(cells=((1, 3), (2, 2), (3, 1)))
PICTURE = Picture(pairs=(((1, 1), (2, 2)), ((1, 2), (1, 3)), ((2, 1), (3, 1))))
BIJECTION = BijectionReport(instance=INSTANCE, pictures=2, crystals=2, lattice=2,
                            bijection="ok", counterexample=None)

# each type with one value built by keyword from its field names
VALUES = {
    Partition: LAM,
    SkewShape: SkewShape(outer=NU, inner=LAM),
    Tableau: Tableau(shape=MU, rows=((1, 1), (2,))),
    Word: Word(letters=(1, 1, 2), source_cells=((1, 2), (1, 1), (2, 1))),
    TotalOrder: ORDER,
    Picture: PICTURE,
    LRInstance: INSTANCE,
    AdditionResult: AdditionResult(final=NU, steps=(AdditionStep(1, (1, 3), True),),
                                   failed_at=None),
    BijectionReport: BIJECTION,
    ConjectureReport: ConjectureReport(
        instance=INSTANCE, codomain_order=SKEW_ORDER, domain_order=ORDER, crystals=2,
        pictures=2, well_defined=True, injective=True, surjective=True),
    SweepReport: SweepReport(max_size=1, instances=3,
                             per_size=(SizeSummary(1, 3, 0, 1),),
                             failures=(BIJECTION,), seconds=0.5),
}

FIELDS = {
    Partition: ("parts",), SkewShape: ("outer", "inner"), Tableau: ("shape", "rows"),
    Word: ("letters", "source_cells"), TotalOrder: ("cells",), Picture: ("pairs",),
    LRInstance: ("lam", "mu", "nu", "rank_bound"),
    AdditionResult: ("final", "steps", "failed_at"),
    BijectionReport: ("instance", "pictures", "crystals", "lattice", "bijection",
                      "counterexample"),
    ConjectureReport: ("instance", "codomain_order", "domain_order", "crystals",
                       "pictures", "well_defined", "injective", "surjective"),
    SweepReport: ("max_size", "instances", "per_size", "failures", "seconds"),
}

TYPES = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


def field_values(value):
    return tuple(getattr(value, name) for name in FIELDS[type(value)])


@TYPES
def test_keyword_construction_keeps_the_field_names(cls):
    value = VALUES[cls]
    assert type(value) is cls
    assert cls(**dict(zip(FIELDS[cls], field_values(value)))) == value


@TYPES
def test_equality_stays_within_the_class(cls):
    value = VALUES[cls]
    assert value.__eq__(object()) is NotImplemented
    assert value != object()
    twin = copy.copy(value)
    assert twin == value and not twin != value


@pytest.mark.parametrize("cls", list(VALUES)[:7], ids=lambda cls: cls.__name__)
def test_a_subclass_with_equal_fields_is_not_equal(cls):
    value = VALUES[cls]
    sub = type("Sub", (cls,), {"__slots__": ()})(*field_values(value))
    assert value.__eq__(sub) is NotImplemented
    assert value != sub and sub != value
    assert value != field_values(value)


@TYPES
def test_hash_is_that_of_the_field_tuple(cls):
    value = VALUES[cls]
    assert hash(value) == hash(field_values(value))


@TYPES
def test_repr_names_every_field(cls):
    value = VALUES[cls]
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in FIELDS[cls])
    assert repr(value) == f"{cls.__name__}({fields})"


@TYPES
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = VALUES[cls]
    for name in FIELDS[cls]:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before


@TYPES
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda value: pickle.loads(pickle.dumps(value))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_are_equal(cls, duplicate):
    value = VALUES[cls]
    twin = duplicate(value)
    assert type(twin) is cls
    assert twin == value and hash(twin) == hash(value)
    assert field_values(twin) == field_values(value)


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda value: pickle.loads(pickle.dumps(value))],
                         ids=["copy", "deepcopy", "pickle"])
def test_cached_properties_work_after_a_round_trip(duplicate):
    order = TotalOrder(ORDER.cells)
    pic = Picture(PICTURE.pairs)
    inst = LRInstance(LAM, MU, NU)
    # fill the caches first, so the copies start from instances that have them
    expected = (order.positions, order.admissible, order._key, pic.mapping, pic.inverse,
                inst.skew_shape, inst._row_readings)
    order, pic, inst = duplicate(order), duplicate(pic), duplicate(inst)
    assert (order.positions, order.admissible, order._key, pic.mapping, pic.inverse,
            inst.skew_shape, inst._row_readings) == expected
    assert order.positions == {(1, 2): 0, (1, 1): 1, (2, 1): 2}
    assert pic.apply((1, 2)) == (1, 3)
    assert inst.skew_shape == SkewShape(NU, LAM)


def test_importing_the_package_and_cli_loads_no_dataclasses():
    # -I -S: no site, no user paths, no environment; src is the only path added
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lrpictures, lrpictures.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"
