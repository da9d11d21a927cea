import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrpictures.shapes import (AdditionStep, NegativePart, NotContained,
                               NotWeaklyDecreasing, Partition, SkewShape, add_box,
                               add_sequence, cells, make_partition, partitions_of,
                               skew, subpartitions)

partitions = st.builds(
    lambda parts: Partition(tuple(sorted(parts, reverse=True))),
    st.lists(st.integers(min_value=0, max_value=6), max_size=5))


def test_trailing_zeros_are_stripped():
    assert Partition((3, 1, 0, 0)) == Partition((3, 1))
    assert len(Partition((3, 1, 0))) == 2
    assert Partition(()).parts == ()


def test_a_long_run_of_trailing_zeros_is_stripped_at_once():
    # stripping one zero per tuple copy would take minutes here
    start = time.perf_counter()
    assert Partition((1,) + (0,) * 200_000) == Partition((1,))
    assert time.perf_counter() - start < 2.0


def test_bad_part_sequences_are_rejected():
    with pytest.raises(NotWeaklyDecreasing):
        Partition((1, 2))
    with pytest.raises(NegativePart):
        Partition((3, -1))


@pytest.mark.parametrize("part", [1.5, 2.0, "3"])
def test_parts_must_be_integers(part):
    with pytest.raises(TypeError):
        Partition((3, part))


def test_bool_parts_become_ints():
    assert [type(p) for p in Partition((True, True, False)).parts] == [int, int]


def test_part_lookup_is_one_based():
    shape = Partition((3, 1))
    assert shape.part(1) == 3
    assert shape.part(2) == 1
    assert shape.part(5) == 0
    with pytest.raises(ValueError):
        shape.part(0)


def test_size_and_iteration():
    shape = make_partition([4, 2, 1])
    assert shape.size == 7
    assert list(shape) == [4, 2, 1]
    assert shape.to_json() == [4, 2, 1]


def test_containment():
    assert Partition((3, 2)).contains(Partition((2, 2)))
    assert Partition((3, 2)).contains(Partition(()))
    assert not Partition((3, 2)).contains(Partition((1, 1, 1)))
    assert not Partition((3, 2)).contains(Partition((4,)))


def test_containment_is_the_cellwise_definition():
    small = [p for total in range(7) for p in partitions_of(total)]
    for outer in small:
        for inner in small:
            assert outer.contains(inner) == (set(cells(inner)) <= set(cells(outer)))


def test_cells_are_row_major():
    assert cells(Partition((2, 1))) == ((1, 1), (1, 2), (2, 1))
    assert cells(Partition(())) == ()


def test_skew_shape_requires_containment():
    with pytest.raises(NotContained, match="^inner shape 2 does not fit inside outer shape 1,1$"):
        skew(Partition((1, 1)), Partition((2,)))


@pytest.mark.parametrize("parts, text", [((), "-"), ((2,), "2"), ((3, 1, 1), "3,1,1")])
def test_a_partition_prints_as_the_cli_reads_it(parts, text):
    assert str(Partition(parts)) == text


def test_skew_cells_exclude_the_inner_shape():
    shape = skew(Partition((3, 2, 1)), Partition((1, 1)))
    assert shape.size == 4
    assert shape.cells() == ((1, 2), (1, 3), (2, 2), (3, 1))
    assert shape.to_json() == {"outer": [3, 2, 1], "inner": [1, 1]}


def test_add_box_destinations():
    assert add_box(Partition((2, 1)), 1) == ((3, 1), (1, 3), True)
    assert add_box(Partition((2, 1)), 2) == ((2, 2), (2, 2), True)
    assert add_box(Partition((2, 1)), 3) == ((2, 1, 1), (3, 1), True)


def test_add_box_detects_non_partitions():
    # skipping a row leaves a gap, so the result is not a partition
    result = add_box(Partition((1,)), 3)
    assert not result.is_partition
    assert result.cell == (3, 1)


def test_add_box_rejects_nonpositive_rows():
    with pytest.raises(ValueError):
        add_box(Partition((1,)), 0)


def test_add_sequence_valid_run():
    result = add_sequence(Partition((2, 1)), (3, 1, 2, 1, 2))
    assert result.ok
    assert result.failed_at is None
    assert result.final == Partition((4, 3, 1))
    assert result.destinations() == ((3, 1), (1, 3), (2, 2), (1, 4), (2, 3))
    assert all(step.valid for step in result.steps)


def test_add_sequence_stops_at_first_failure():
    result = add_sequence(Partition((2, 1)), (2, 2, 1, 3, 3))
    assert not result.ok
    assert result.failed_at == 2
    assert result.final is None
    assert result.steps[-1] == AdditionStep(2, (2, 3), False)
    assert len(result.steps) == 2


def test_add_sequence_another_run():
    result = add_sequence(Partition((3, 1, 1)), (2, 2, 1, 4, 3))
    assert result.ok
    assert result.final == Partition((4, 3, 2, 1))
    assert result.destinations() == ((2, 2), (2, 3), (1, 4), (4, 1), (3, 2))


def test_add_sequence_of_nothing():
    result = add_sequence(Partition((2,)), ())
    assert result.ok and result.final == Partition((2,)) and result.steps == ()


def test_partitions_of_descending_lex():
    assert partitions_of(4) == (Partition((4,)), Partition((3, 1)),
                                Partition((2, 2)), Partition((2, 1, 1)),
                                Partition((1, 1, 1, 1)))
    assert partitions_of(0) == (Partition(()),)
    assert partitions_of(-1) == ()


def test_subpartitions_listing():
    assert subpartitions(Partition((2, 1))) == (
        Partition((2, 1)), Partition((2,)), Partition((1, 1)),
        Partition((1,)), Partition(()))


def test_subpartitions_are_exactly_the_contained_shapes():
    shape = Partition((3, 2))
    listed = set(subpartitions(shape))
    everything = {p for total in range(shape.size + 1)
                  for p in partitions_of(total) if shape.contains(p)}
    assert listed == everything


@given(partitions, st.integers(min_value=1, max_value=7))
def test_add_box_grows_by_one_cell(shape, row):
    result = add_box(shape, row)
    assert sum(result.shape) == shape.size + 1
    assert result.cell == (row, shape.part(row) + 1)
    assert result.is_partition == (
        sorted(result.shape, reverse=True) == list(result.shape))


@given(partitions, st.lists(st.integers(min_value=1, max_value=5), max_size=6))
def test_add_sequence_matches_repeated_add_box(shape, letters):
    result = add_sequence(shape, letters)
    current = shape
    for k, step in enumerate(result.steps, start=1):
        single = add_box(current, step.letter)
        assert single.cell == step.cell
        assert single.is_partition == step.valid
        if not step.valid:
            assert result.failed_at == k
            break
        current = Partition(single.shape)
    if result.ok:
        assert len(result.steps) == len(letters)
        assert result.final == current


def test_skew_cells_are_cached_per_pair_of_part_tuples():
    for outer in (p for total in range(8) for p in partitions_of(total)):
        for inner in subpartitions(outer):
            shape = skew(Partition(outer.parts), Partition(inner.parts))
            assert shape.cells() == tuple(
                (i, j) for i, p in enumerate(outer.parts, start=1)
                for j in range(inner.part(i) + 1, p + 1))
            # an equal skew shape built from new partitions gets the same tuple
            assert skew(Partition(outer.parts), Partition(inner.parts)).cells() is shape.cells()


def test_a_partitions_cells_are_its_skew_cells_over_the_empty_shape():
    for shape in (p for total in range(8) for p in partitions_of(total)):
        assert cells(shape) is skew(shape, Partition(())).cells()
        assert cells(Partition(shape.parts)) is cells(shape)
