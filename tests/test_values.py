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
import functools
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from lrpictures import cli
from lrpictures.lr import (BijectionReport, ConjectureReport, LRInstance, SizeSummary,
                           SweepReport, conjecture_rows, iter_instances,
                           lr_coefficient_all_methods, verify_bijection)
from lrpictures.pictures import (Picture, TotalOrder, _skew_row_reading,
                                 enumerate_admissible_orders, enumerate_pictures)
from lrpictures.shapes import (AdditionResult, AdditionStep, NotContained, Partition,
                               SkewShape, Value, cached_attribute, cells, partitions_of,
                               subpartitions)
from lrpictures.tableaux import Tableau, Word
from lrpictures.wordcrystal import verify_embedding

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


# TotalOrder._unchecked also takes the listing's sorted cells, which it presets
PRESETS = {TotalOrder: (ORDER._key,)}


@pytest.mark.parametrize("cls", list(VALUES)[:7], ids=lambda cls: cls.__name__)
def test_an_unchecked_value_is_the_checked_one(cls, monkeypatch):
    value = VALUES[cls]
    checked = []
    real_init = cls.__init__

    def init(self, *args):
        checked.append(args)
        real_init(self, *args)

    monkeypatch.setattr(cls, "__init__", init)
    unchecked = cls._unchecked(*field_values(value), *PRESETS.get(cls, ()))
    assert not checked
    assert type(unchecked) is cls
    assert unchecked == value and hash(unchecked) == hash(value)
    assert repr(unchecked) == repr(value)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(unchecked, name, getattr(value, name))
        assert getattr(unchecked, name) is getattr(value, name)
    for duplicate in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        twin = duplicate(unchecked)
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)
    # each duplicate is rebuilt through the checked __init__
    assert checked == [field_values(value)] * 3


def test_only_total_order_overrides_the_unchecked_constructor():
    assert "_unchecked" in vars(Value)
    assert [cls for cls in list(VALUES)[:7] if "_unchecked" in vars(cls)] == [TotalOrder]


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


# every cached attribute, by class; each is computed on first read and kept
CACHED = {
    TotalOrder: ("positions", "admissible", "_key", "_key_positions", "_domain_tables",
                 "_codomain_tables", "_filling_steps", "_gather"),
    Picture: ("mapping", "inverse"),
    LRInstance: ("skew_shape", "_row_readings"),
}


def fresh(cls):
    """A new value of the class, equal to VALUES[cls], with nothing cached yet."""
    return cls(*field_values(VALUES[cls]))


@pytest.mark.parametrize("cls", list(CACHED), ids=lambda cls: cls.__name__)
def test_each_cached_attribute_is_computed_once_per_value(cls, monkeypatch):
    assert sorted(name for name, attr in vars(cls).items()
                  if isinstance(attr, functools.cached_property)) == sorted(CACHED[cls])
    calls = []
    for name in CACHED[cls]:
        descriptor = vars(cls)[name]
        assert type(descriptor) is cached_attribute
        # class access returns the descriptor, with the builder's docstring
        assert getattr(cls, name) is descriptor and descriptor.__doc__ == descriptor.func.__doc__

        def counted(value, build=descriptor.func, name=name):
            calls.append(name)
            return build(value)
        monkeypatch.setattr(descriptor, "func", counted)
    for value in (fresh(cls), fresh(cls)):
        first = [getattr(value, name) for name in CACHED[cls]]
        again = [getattr(value, name) for name in CACHED[cls]]
        assert all(a is b for a, b in zip(first, again))
    # one build per attribute and value, though some builders read other attributes
    assert sorted(calls) == sorted(CACHED[cls] * 2)


@pytest.mark.parametrize("cls", list(CACHED), ids=lambda cls: cls.__name__)
def test_cached_attributes_cannot_be_assigned_or_deleted(cls):
    value = fresh(cls)
    for filled in (False, True):
        for name in CACHED[cls]:
            if filled:
                getattr(value, name)
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)


def library_built_values():
    """An instance, its row readings, its listed orders and its pictures, as the
    searches build them, each with every cached attribute filled."""
    inst = LRInstance(Partition((2, 1)), Partition((2, 1)), Partition((3, 2, 1)))
    values = [inst, *inst._row_readings,
              *enumerate_admissible_orders(inst.skew_shape.cells()),
              *enumerate_pictures(inst.mu, inst.skew_shape)]
    for value in values:
        for name in CACHED[type(value)]:
            getattr(value, name)
    return values


def test_values_with_filled_caches_pickle_and_equal_fresh_ones():
    for value in library_built_values():
        twin = type(value)(*value._values())
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), value):
            assert copied == twin and hash(copied) == hash(twin)
            # _gather is an itemgetter, which compares by identity
            assert all(getattr(copied, name) == getattr(twin, name)
                       for name in CACHED[type(value)] if name != "_gather")


def test_an_instance_skew_shape_equals_the_checked_one():
    for inst in iter_instances(7):
        checked = SkewShape(inst.nu, inst.lam)
        assert type(inst.skew_shape) is SkewShape
        assert inst.skew_shape == checked and hash(inst.skew_shape) == hash(checked)
        assert inst.skew_shape.cells() == checked.cells()


def test_the_public_constructors_still_check():
    with pytest.raises(NotContained, match="^inner shape 2 does not fit inside outer shape 1$"):
        SkewShape(Partition((1,)), Partition((2,)))
    with pytest.raises(NotContained, match="^lambda 2 does not fit inside nu 1,1$"):
        LRInstance(Partition((2,)), Partition(()), Partition((1, 1)))
    with pytest.raises(TypeError):
        TotalOrder(((1, 1.0),))
    with pytest.raises(ValueError, match="^listing repeats a cell$"):
        TotalOrder(((1, 1), (1, 2), (1, 1)))


def library_values():
    """Values as the library makes them: every partition with at most 5 cells,
    every skew shape inside one, every admissible order on those cells, and
    every picture with |nu| <= 6."""
    partitions = [p for total in range(6) for p in partitions_of(total)]
    shapes = [SkewShape(outer, inner) for outer in partitions for inner in subpartitions(outer)]
    orders = [order for cell_set in {shape.cells() for shape in shapes}
              for order in enumerate_admissible_orders(cell_set)]
    pictures = [pic for inst in iter_instances(6)
                for pic in enumerate_pictures(inst.mu, inst.skew_shape)]
    return partitions + shapes + orders + pictures


def test_every_value_type_uses_the_bases_pair():
    for cls in list(VALUES)[:7]:
        assert cls.__eq__ is Value.__eq__ and cls.__hash__ is Value.__hash__
    pool = library_values()
    made = {Partition, SkewShape, TotalOrder, Picture}
    assert {type(value) for value in pool} == made
    # twins are equal values that are other objects; a subclass's values are another class
    subclasses = {cls: type("Sub", (cls,), {}) for cls in made}
    others = (pool + [copy.copy(value) for value in pool]
              + [subclasses[type(value)](*value._values()) for value in pool[::7]])
    outcomes = set()
    for a in pool:
        assert hash(a) == Value.__hash__(a)
        for b in others:
            equal = a.__eq__(b)
            assert equal == Value.__eq__(a, b)
            outcomes.add(equal if equal is NotImplemented else bool(equal))
    assert outcomes == {True, False, NotImplemented}


def _count_value_calls(monkeypatch):
    """Count every __eq__ and __hash__ call on the seven value types."""
    # the row readings come from a cache of their own, so each is built here
    monkeypatch.setattr("lrpictures.pictures._skew_row_reading",
                        functools.lru_cache(maxsize=None)(_skew_row_reading.__wrapped__))
    calls = Counter()
    for cls in list(VALUES)[:7]:
        for name in ("__eq__", "__hash__"):
            def counted(*args, key=(cls.__name__, name), method=getattr(cls, name)):
                calls[key] += 1
                return method(*args)
            monkeypatch.setattr(cls, name, counted)
    return calls


def test_no_search_path_hashes_or_compares_a_value(monkeypatch):
    calls = _count_value_calls(monkeypatch)
    for inst in iter_instances(6):
        assert verify_bijection(inst).ok
        lr_coefficient_all_methods(inst)
    for inst in iter_instances(5):
        assert all(row.holds for row in conjecture_rows(inst))
    for shape in (p for total in range(6) for p in partitions_of(total)):
        for order in enumerate_admissible_orders(cells(shape)):
            for bound in range(5):
                verify_embedding(shape, bound, order)
    assert calls == Counter()


def test_the_conjecture_verb_hashes_or_compares_no_value(monkeypatch, capsys):
    # the order labels are cached on listings; empty caches build every label here
    for cache in (cli._order_indices, cli._order_label, cli.resolve_order):
        cache.cache_clear()
    calls = _count_value_calls(monkeypatch)
    assert cli.run(["conjecture", "--max-size", "5"]) == 0
    assert capsys.readouterr().out.endswith(" fails=0\n")
    assert calls == Counter()


class Pair(Value):
    """A subclass that declares only _fields and __init__."""

    _fields = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


def test_a_bare_subclass_gets_the_whole_contract():
    pair = Pair(1, (2, 3))
    assert pair == Pair(1, (2, 3)) and not pair != Pair(1, (2, 3))
    assert pair != Pair(1, (2, 4)) and pair != Pair((2, 3), 1)
    for other in ((1, (2, 3)), Partition((1,)), type("Sub", (Pair,), {})(1, (2, 3))):
        assert pair.__eq__(other) is NotImplemented
        assert pair != other
    assert hash(pair) == hash((1, (2, 3)))
    assert repr(pair) == "Pair(left=1, right=(2, 3))"
    with pytest.raises(AttributeError):
        pair.left = 2
    with pytest.raises(AttributeError):
        del pair.right
    for duplicate in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        twin = duplicate(pair)
        assert type(twin) is Pair
        assert twin == pair and hash(twin) == hash(pair)
        assert (twin.left, twin.right) == (1, (2, 3))


def test_importing_the_package_and_cli_loads_no_dataclasses():
    # -I -S: no site, no user paths, no environment; src is the only path added
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lrpictures, lrpictures.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"
