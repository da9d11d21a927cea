import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrpictures.pictures import (OrderCellMismatch, OrderNotAdmissible, TotalOrder,
                                 enumerate_admissible_orders)
from lrpictures.shapes import Partition, cells, partitions_of
from lrpictures.tableaux import (CellOutsideShape, ColumnNotStrictlyIncreasing,
                                 EntryExceedsBound, RowNotWeaklyIncreasing,
                                 ShapeMismatch, Tableau, Word, enumerate_ssyt,
                                 far_eastern_reading, level_set, make_tableau,
                                 middle_eastern_reading, p_function,
                                 reading_by_order, weight)

# eight-cell example: rows 1223 / 234 / 5
BIG = make_tableau(Partition((4, 3, 1)), ((1, 2, 2, 3), (2, 3, 4), (5,)))
SMALL = make_tableau(Partition((3, 2)), ((1, 2, 2), (3, 4)))


def test_shape_and_rows_must_agree():
    with pytest.raises(ShapeMismatch):
        Tableau(Partition((2, 1)), ((1, 2),))
    with pytest.raises(ShapeMismatch):
        Tableau(Partition((2,)), ((1, 2, 3),))


def test_row_rule():
    with pytest.raises(RowNotWeaklyIncreasing):
        make_tableau(Partition((2,)), ((2, 1),))


def test_column_rule():
    with pytest.raises(ColumnNotStrictlyIncreasing):
        make_tableau(Partition((1, 1)), ((1,), (1,)))


def test_entries_must_be_positive():
    with pytest.raises(ValueError):
        make_tableau(Partition((1,)), ((0,),))


@pytest.mark.parametrize("rows", [((1.5, 2),), ((1, 2.0),), (("1", 2),)])
def test_entries_must_be_integers(rows):
    with pytest.raises(TypeError):
        Tableau(Partition((2,)), rows)


def test_entry_lookup():
    assert BIG.entry((1, 4)) == 3
    assert BIG.entry((3, 1)) == 5
    with pytest.raises(CellOutsideShape):
        BIG.entry((2, 4))
    with pytest.raises(CellOutsideShape):
        BIG.entry((0, 1))


def test_ascii_and_json():
    assert SMALL.ascii() == "1 2 2\n3 4"
    assert SMALL.to_json() == {"shape": [3, 2], "rows": [[1, 2, 2], [3, 4]]}
    assert SMALL.size == 5


def test_word_validation():
    with pytest.raises(ValueError):
        Word((1, 2), ((1, 1),))
    with pytest.raises(ValueError):
        Word((1, 2), ((1, 1), (1, 1)))
    word = Word((2, 1), ((1, 2), (1, 1)))
    assert len(word) == 2
    assert word.to_json() == {"letters": [2, 1], "cells": [[1, 2], [1, 1]]}


@pytest.mark.parametrize("letters, cells_", [((1,), ((1.5, 1),)), ((1,), ((1, "1"),)),
                                             ((1.0,), ((1, 1),))])
def test_word_rejects_non_integral_letters_and_cells(letters, cells_):
    with pytest.raises(TypeError):
        Word(letters, cells_)


def test_row_reading_word():
    word = middle_eastern_reading(BIG)
    assert word.letters == (3, 2, 2, 1, 4, 3, 2, 5)
    assert word.source_cells[:4] == ((1, 4), (1, 3), (1, 2), (1, 1))


def test_column_reading_word():
    word = far_eastern_reading(BIG)
    assert word.letters == (3, 2, 4, 2, 3, 1, 2, 5)
    assert word.source_cells[:3] == ((1, 4), (1, 3), (2, 3))


def test_small_tableau_readings():
    assert middle_eastern_reading(SMALL).letters == (2, 2, 1, 4, 3)
    assert far_eastern_reading(SMALL).letters == (2, 2, 4, 1, 3)


def test_named_readings_match_named_orders():
    for tab in (BIG, SMALL):
        cell_set = cells(tab.shape)
        jay = reading_by_order(tab, TotalOrder.jay(cell_set))
        eff = reading_by_order(tab, TotalOrder.eff(cell_set))
        assert jay.letters == middle_eastern_reading(tab).letters
        assert jay.source_cells == middle_eastern_reading(tab).source_cells
        assert eff.letters == far_eastern_reading(tab).letters


def test_reading_by_explicit_order():
    tab = make_tableau(Partition((2, 1)), ((1, 2), (2,)))
    order = TotalOrder(((1, 2), (1, 1), (2, 1)))
    assert reading_by_order(tab, order).letters == (2, 1, 2)


def test_reading_rejects_wrong_cells():
    with pytest.raises(OrderCellMismatch):
        reading_by_order(SMALL, TotalOrder.jay(cells(Partition((2, 2)))))


def test_reading_rejects_inadmissible_order():
    tab = make_tableau(Partition((2,)), ((1, 2),))
    with pytest.raises(OrderNotAdmissible):
        reading_by_order(tab, TotalOrder(((1, 1), (1, 2))))


def test_level_sets_sort_columns_descending():
    assert level_set(BIG, 2) == ((1, 3), (1, 2), (2, 1))
    assert level_set(BIG, 5) == ((3, 1),)
    assert level_set(BIG, 9) == ()


def test_position_among_equals():
    assert p_function(BIG, (1, 3)) == 1
    assert p_function(BIG, (1, 2)) == 2
    assert p_function(BIG, (2, 1)) == 3
    assert p_function(BIG, (3, 1)) == 1


def test_weight():
    assert weight(SMALL, 5) == (1, 2, 1, 1, 0)
    with pytest.raises(EntryExceedsBound):
        weight(SMALL, 3)


def test_enumerate_single_row():
    assert [t.rows for t in enumerate_ssyt(Partition((2,)), 2)] == [
        ((1, 1),), ((1, 2),), ((2, 2),)]


def test_enumerate_hook_count():
    found = enumerate_ssyt(Partition((2, 1)), 3)
    assert len(found) == 8
    assert found[0].rows == ((1, 1), (2,))
    assert found[-1].rows == ((2, 3), (3,))


def test_enumerate_empty_cases():
    assert enumerate_ssyt(Partition((1, 1, 1)), 2) == ()
    assert len(enumerate_ssyt(Partition(()), 5)) == 1


def _is_semistandard(rows, max_entry):
    for row in rows:
        if any(a > b for a, b in zip(row, row[1:])):
            return False
        if any(v < 1 or v > max_entry for v in row):
            return False
    for upper, lower in zip(rows, rows[1:]):
        if any(a >= b for a, b in zip(upper, lower)):
            return False
    return True


@given(st.sampled_from([p for total in range(6) for p in partitions_of(total)]),
       st.integers(min_value=1, max_value=4))
def test_enumeration_is_valid_sorted_and_complete(shape, max_entry):
    found = enumerate_ssyt(shape, max_entry)
    keys = [tuple(v for row in tab.rows for v in row) for tab in found]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(_is_semistandard(tab.rows, max_entry) for tab in found)
    assert all(tab.shape == shape for tab in found)


@given(st.sampled_from(list(partitions_of(4)) + list(partitions_of(3))),
       st.integers(min_value=1, max_value=3))
def test_enumeration_counts_match_brute_force(shape, max_entry):
    """Independent check: count weakly increasing row fillings directly."""
    from itertools import combinations_with_replacement, product

    def rows_for(length):
        return list(combinations_with_replacement(range(1, max_entry + 1), length))

    total = 0
    for choice in product(*(rows_for(p) for p in shape.parts)):
        if _is_semistandard(choice, max_entry):
            total += 1
    assert len(enumerate_ssyt(shape, max_entry)) == total


def reference_enumerate_ssyt(shape, max_entry):
    """The recursive row-major fill enumerate_ssyt ran before it shared the
    crystal filter's search: each cell takes every value from its lower
    bound up, so tableaux come out in lexicographic row-major order."""
    if len(shape) > max_entry:
        return ()
    order = cells(shape)
    grid = [[0] * p for p in shape.parts]
    out = []

    def fill(k):
        if k == len(order):
            out.append(Tableau(shape, tuple(tuple(row) for row in grid)))
            return
        i, j = order[k]
        low = 1
        if j > 1:
            low = max(low, grid[i - 1][j - 2])
        if i > 1:
            low = max(low, grid[i - 2][j - 1] + 1)
        for value in range(low, max_entry + 1):
            grid[i - 1][j - 1] = value
            fill(k + 1)

    fill(0)
    return tuple(out)


def test_enumeration_matches_the_recursive_row_major_reference():
    for total in range(9):
        for shape in partitions_of(total):
            for max_entry in range(-1, 7):
                assert (enumerate_ssyt.__wrapped__(shape, max_entry)
                        == reference_enumerate_ssyt(shape, max_entry))


def test_a_column_of_60_cells():
    # every cell's entry is capped by the cells below it, so no branch dies
    column = Partition((1,) * 60)
    assert enumerate_ssyt(column, 60) == (Tableau(column, tuple((v,) for v in range(1, 61))),)
    skipped = [tab.rows for tab in enumerate_ssyt(column, 61)]
    assert skipped == [tuple((v,) for v in range(1, 62) if v != k) for k in range(61, 0, -1)]


def test_reading_by_order_reads_each_listed_cell_down_to_the_empty_shape():
    # the reading gathers row-major entries at flat indices; with one cell or
    # none the gather is not an itemgetter, so both edges are in the sweep
    shapes = [shape for size in range(7) for shape in partitions_of(size)]
    assert shapes[:2] == [Partition(()), Partition((1,))]
    for shape in shapes:
        for order in enumerate_admissible_orders(cells(shape)):
            for bound in (1, 2, 3):
                for tab in enumerate_ssyt(shape, bound):
                    word = reading_by_order(tab, order)
                    assert word.letters == tuple(tab.entry(c) for c in order.cells)
                    assert word.source_cells == order.cells
