"""Semistandard Young tableaux, level sets, entry positions, and readings.

Entries are positive integers, weakly increasing along rows and strictly
increasing down columns.  The level set of a value k lists the cells
holding k from the rightmost column leftward.  A reading lists the
entries along an admissible order on the cells (reading_by_order); the
row and column readings are its two named cases.

Tableau(...), with its alias make_tableau, and Word(...) check and
canonicalise their input, so a non-integral entry or coordinate raises
TypeError.  Only _tableaux_of skips that check, through Value._unchecked,
and only for the fillings of _pruned_fillings, semistandard by construction.
That search cuts a branch at a box that breaks the partition or outgrows its
cap and, given a cap, once a finished row of a straight shape mu leaves its
row of lam short of the cap's; a skew domain would need a cut of its own.
enumerate_ssyt keeps every tableau of each (shape, bound) it is asked for
as long as the process lives; verify_embedding streams _ssyt_fillings'
entries instead, so it neither fills nor reads that cache.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import index, itemgetter
from typing import Callable, Iterable, Iterator

from .pictures import OrderCellMismatch, OrderNotAdmissible, TotalOrder, _row_reading
from .shapes import Cell, Partition, Value, cells


class ShapeMismatch(ValueError):
    """Row lengths disagree with the shape."""


class RowNotWeaklyIncreasing(ValueError):
    """A row decreases somewhere."""


class ColumnNotStrictlyIncreasing(ValueError):
    """A column repeats or decreases."""


class CellOutsideShape(ValueError):
    """The cell is not part of the shape."""


class EntryExceedsBound(ValueError):
    """An entry is larger than the stated bound."""


class Tableau(Value):
    """A semistandard filling of a partition shape."""

    __slots__ = _fields = ("shape", "rows")

    def __init__(self, shape: Partition, rows: tuple[tuple[int, ...], ...]) -> None:
        rows = tuple(tuple(map(index, row)) for row in rows)
        if len(rows) != len(shape) or any(
                len(row) != p for row, p in zip(rows, shape.parts)):
            raise ShapeMismatch(
                f"row lengths {[len(r) for r in rows]} vs shape {shape.parts}")
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                if value < 1:
                    raise ValueError(f"entries must be positive, got {value}")
                if j > 0 and row[j - 1] > value:
                    raise RowNotWeaklyIncreasing(
                        f"row {i + 1} has {row[j - 1]} before {value}")
                if i > 0 and rows[i - 1][j] >= value:
                    raise ColumnNotStrictlyIncreasing(
                        f"column {j + 1} has {rows[i - 1][j]} above {value}")
        super().__init__(shape, rows)

    def entry(self, cell: Cell) -> int:
        i, j = cell
        if not (1 <= i <= len(self.rows) and 1 <= j <= len(self.rows[i - 1])):
            raise CellOutsideShape(f"cell {cell} outside shape {self.shape.parts}")
        return self.rows[i - 1][j - 1]

    @property
    def size(self) -> int:
        return self.shape.size

    def ascii(self) -> str:
        """One line per row, entries space-separated."""
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows)

    def to_json(self) -> dict:
        return {"shape": self.shape.to_json(), "rows": [list(r) for r in self.rows]}


class Word(Value):
    """Letters read from a tableau, paired with the cell each came from."""

    __slots__ = _fields = ("letters", "source_cells")

    def __init__(self, letters: tuple[int, ...], source_cells: tuple[Cell, ...]) -> None:
        letters = tuple(map(index, letters))
        sources = tuple((index(r), index(c)) for r, c in source_cells)
        if len(letters) != len(sources):
            raise ValueError("letters and source cells must have equal length")
        if len(set(sources)) != len(sources):
            raise ValueError("source cells repeat")
        super().__init__(letters, sources)

    def __len__(self) -> int:
        return len(self.letters)

    def to_json(self) -> dict:
        return {"letters": list(self.letters),
                "cells": [list(c) for c in self.source_cells]}


make_tableau = Tableau


def _row_lengths(top: int, shape: Partition, rank_bound: int) -> list[int]:
    """top, then the shape's first rank_bound parts padded with zeros to rank_bound."""
    parts = shape.parts
    if len(parts) == rank_bound:
        return [top, *parts]
    parts = parts[:max(rank_bound, 0)]
    return [top, *parts] + [0] * (rank_bound - len(parts))


def _pruned_fillings(mu: Partition, lam: Partition, order: TotalOrder | None,
                     rank_bound: int, cap: Partition | None) -> Iterator[tuple[int, ...]]:
    """Semistandard fillings of mu whose reading adds onto lam box by box.

    Fills the cells in the order's listing (the row reading by default).
    An admissible listing puts a cell's right neighbour and the cell
    above it first, so each entry v is bounded by those two and by the
    cells below it, which need distinct larger entries: above + 1 <= v <=
    min(right, rank_bound - cells below).  The box of v goes onto row v of lam at
    once, and the branch is cut when row v would outgrow row v - 1 or,
    given a cap, the cap's row v.  Yields each filling, in depth-first
    order, as its entries alone, in row-major cell order; the row lengths
    it adds up to are lam plus its content.  An entry of 0 marks an
    unplaced cell, so the cursor k steps back to a cell and resumes just
    past its entry.

    A cap must hold |lam| + |mu| boxes, so that every filling ends on it,
    and then one more cut applies.  In a straight shape mu row i holds only
    entries >= i, and an admissible listing puts (r, 1) after every cell of
    rows 1..r, so once (r, 1) is placed row r is final and must reach the
    cap's row r.  _build_filling_steps marks each cell with no right
    neighbour with that r, and a short row r cuts the branch there.  Only a
    straight shape's steps carry an r; a skew domain's would need a cut of
    its own.  With no cap the target rows are 0 and nothing is cut.
    """
    if order is None:
        order = _row_reading(mu)
    else:
        _check_reading_order(order, mu)
    if len(mu.parts) > rank_bound:
        return  # mu's first column needs more than rank_bound entries
    steps = order._filling_steps
    n = len(steps)
    unbounded = n + lam.size + 1
    # rows[v] is the current length of row v; rows[0] never binds
    rows = _row_lengths(unbounded, lam, rank_bound)
    if cap is None:
        limit = [unbounded] * (rank_bound + 1)
        need = [0] * (rank_bound + 1)
    else:
        # need[r]: the length row r must have once (r, 1) is placed
        limit = need = _row_lengths(unbounded, cap, rank_bound)
    entries = [0] * n
    k = 0
    while k >= 0:
        if k == n:
            yield tuple(entries)
            k -= 1
            continue
        cell, right, above, below = steps[k]
        high = rank_bound - below
        v = entries[cell]
        if v:
            rows[v] -= 1
        elif above >= 0:
            v = entries[above]
        if right >= 0:
            if entries[right] < high:
                high = entries[right]
        elif rows[~right] < need[~right]:
            high = 0  # row ~right is complete and short of the cap
        v += 1
        # lr._landings' row test, undone here on backtrack
        while v <= high and (rows[v] >= rows[v - 1] or rows[v] >= limit[v]):
            v += 1
        if v > high:
            entries[cell] = 0
            k -= 1
        else:
            rows[v] += 1
            entries[cell] = v
            k += 1


def _row_cutter(shape: Partition) -> Callable[[tuple[int, ...]], tuple[tuple[int, ...], ...]]:
    """Cuts the shape's row-major entries into its rows, as tuples; itemgetter returns
    a tuple only for two or more slices, so 0 or 1 rows take the entries whole."""
    bounds = list(accumulate(shape.parts, initial=0))
    return (itemgetter(*map(slice, bounds, bounds[1:])) if len(shape) > 1
            else lambda entries: (entries,) * len(shape))


def _tableaux_of(shape: Partition, fillings: Iterable[tuple[int, ...]]) -> tuple[Tableau, ...]:
    """The tableaux of the shape's fillings, in lexicographic row-major order, unchecked:
    the filling search's are semistandard by construction."""
    rows_of = _row_cutter(shape)
    make = Tableau._unchecked
    return tuple([make(shape, rows_of(entries)) for entries in sorted(fillings)])


def _ssyt_fillings(shape: Partition, max_entry: int) -> Iterator[tuple[int, ...]]:
    """The row-major entries of the shape's semistandard tableaux with entries at most
    max_entry, as the filling search yields them onto a lam whose rows lie |shape| + 1
    boxes apart: no row can catch up, so nothing is cut.  A bound below the number of
    rows leaves nothing to enumerate."""
    rows = max_entry if shape else 0  # the empty shape has no entry to bound
    lam = Partition(tuple((shape.size + 1) * v for v in reversed(range(rows))))
    return _pruned_fillings(shape, lam, None, rows, None) if len(shape) <= max_entry else iter(())


@lru_cache(maxsize=None)
def enumerate_ssyt(shape: Partition, max_entry: int) -> tuple[Tableau, ...]:
    """All semistandard tableaux of the shape with entries at most max_entry, in
    lexicographic row-major order, which makes downstream listings reproducible."""
    return _tableaux_of(shape, _ssyt_fillings(shape, max_entry))


def level_set(tab: Tableau, k: int) -> tuple[Cell, ...]:
    """Cells holding entry k, listed with strictly decreasing columns."""
    matches = [(i, j)
               for i, row in enumerate(tab.rows, start=1)
               for j, value in enumerate(row, start=1)
               if value == k]
    return tuple(sorted(matches, key=lambda cell: -cell[1]))


def p_function(tab: Tableau, cell: Cell) -> int:
    """1-based position of the cell among equal entries, counted from the right."""
    value = tab.entry(cell)
    return level_set(tab, value).index(cell) + 1


def middle_eastern_reading(tab: Tableau) -> Word:
    """Read each row right to left, top row first."""
    return reading_by_order(tab, _row_reading(tab.shape))


def far_eastern_reading(tab: Tableau) -> Word:
    """Read each column top to bottom, rightmost column first."""
    return reading_by_order(tab, TotalOrder.eff(cells(tab.shape)))


def _check_reading_order(order: TotalOrder, shape: Partition) -> None:
    """Raise unless the order is an admissible listing of the shape's cells."""
    if order._key != cells(shape):
        raise OrderCellMismatch(
            f"order lists {list(order._key)}, shape has {list(cells(shape))}")
    if not order.admissible:
        raise OrderNotAdmissible("the listing is not an admissible order")


def reading_by_order(tab: Tableau, order: TotalOrder) -> Word:
    """Read entries along an admissible total order on the shape's cells."""
    _check_reading_order(order, tab.shape)
    return Word(order._gather(sum(tab.rows, ())), order.cells)


def weight(tab: Tableau, max_entry: int) -> tuple[int, ...]:
    """Entry multiplicities: component k counts the entries equal to k."""
    counts = [0] * max_entry
    for row in tab.rows:
        for value in row:
            if value > max_entry:
                raise EntryExceedsBound(f"entry {value} exceeds bound {max_entry}")
            counts[value - 1] += 1
    return tuple(counts)
