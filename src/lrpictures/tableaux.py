"""Semistandard Young tableaux, level sets, entry positions, and readings.

Entries are positive integers, weakly increasing along rows and strictly
increasing down columns.  The level set of a value k lists the cells
holding k from the rightmost column leftward.  A reading lists the
entries along an admissible order on the cells (reading_by_order); the
row and column readings are its two named cases.

Tableau(...), make_tableau and Word(...) check and canonicalise their
input, so a non-integral entry or coordinate raises TypeError.  The
tableaux built from the package's one filling search, _pruned_fillings,
are semistandard by construction and skip that check.  enumerate_ssyt
keeps every tableau of each (shape, bound) it is asked for as long as
the process lives: 4000 of them after verify --mu 1 --rank 4000.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import index, itemgetter
from typing import Iterable, Sequence

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
        _set_shape(self, shape)
        _set_rows(self, rows)

    @classmethod
    def _unchecked(cls, shape: Partition, rows: tuple[tuple[int, ...], ...]) -> Tableau:
        """A tableau built without __init__'s checks: the caller guarantees that
        rows is a tuple of tuples of ints, one per part of the shape and as long
        as it, with positive entries weakly increasing along rows and strictly
        increasing down columns.  lr._phi alone may break the order conditions:
        its images serve only a crystal membership test.  The slots are set past
        the frozen __setattr__."""
        tab = object.__new__(cls)
        _set_shape(tab, shape)
        _set_rows(tab, rows)
        return tab

    def __eq__(self, other: object) -> bool:
        return ((self.shape, self.rows) == (other.shape, other.rows)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.shape, self.rows))

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


_set_shape = Tableau.__dict__["shape"].__set__
_set_rows = Tableau.__dict__["rows"].__set__


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
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "source_cells", sources)

    def __eq__(self, other: object) -> bool:
        return ((self.letters, self.source_cells) == (other.letters, other.source_cells)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.letters, self.source_cells))

    def __len__(self) -> int:
        return len(self.letters)

    def to_json(self) -> dict:
        return {"letters": list(self.letters),
                "cells": [list(c) for c in self.source_cells]}


def make_tableau(shape: Partition, rows: Iterable[Sequence[int]]) -> Tableau:
    """Validate a filling against the shape and the row/column rules."""
    return Tableau(shape, tuple(tuple(row) for row in rows))


def _row_lengths(top: int, shape: Partition, rank_bound: int) -> list[int]:
    """top, then the shape's first rank_bound parts padded with zeros to rank_bound."""
    parts = shape.parts[:max(rank_bound, 0)]
    return [top, *parts] + [0] * (rank_bound - len(parts))


def _pruned_fillings(mu: Partition, lam: Partition, order: TotalOrder | None,
                     rank_bound: int, cap: Partition | None) -> list[tuple[int, ...]]:
    """Semistandard fillings of mu whose reading adds onto lam box by box.

    Fills the cells in the order's listing (the row reading by default).
    An admissible listing puts a cell's right neighbour and the cell
    above it first, so each entry v is bounded by those two and by the
    cells below it, which need distinct larger entries: above + 1 <= v <=
    min(right, rank_bound - cells below).  The box of v goes onto row v of lam at
    once, and the branch is cut when row v would outgrow row v - 1 or,
    given a cap, the cap's row v.  Each filling comes back, in depth-first
    order, as its entries alone, in row-major cell order; the row lengths
    it adds up to are lam plus its content.  An entry of 0 marks an
    unplaced cell, so the cursor k steps back to a cell and resumes just
    past its entry.
    """
    if order is None:
        order = _row_reading(mu)
    else:
        _check_reading_order(order, mu)
    steps = order._filling_steps
    unbounded = mu.size + lam.size + 1
    # rows[v] is the current length of row v; rows[0] never binds
    rows = _row_lengths(unbounded, lam, rank_bound)
    limit = ([unbounded] * (rank_bound + 1) if cap is None
             else _row_lengths(unbounded, cap, rank_bound))
    entries = [0] * len(steps)
    found: list[tuple[int, ...]] = []
    k = 0
    while k >= 0:
        if k == len(steps):
            found.append(tuple(entries))
            k -= 1
            continue
        cell, right, above, below = steps[k]
        high = rank_bound - below
        v = entries[cell]
        if v:
            rows[v] -= 1
        elif above >= 0:
            v = entries[above]
        if right >= 0 and entries[right] < high:
            high = entries[right]
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
    return found


def _tableaux_of(shape: Partition, fillings: list[tuple[int, ...]]) -> tuple[Tableau, ...]:
    """The tableaux of the shape's fillings, in lexicographic row-major order.

    Fillings are not checked: the filling search's are semistandard by
    construction, and lr._phi's are judged by membership in the crystal.
    One itemgetter of the row slices gathers a filling's rows; it returns
    a tuple only for two or more, so 0 or 1 rows take the entries whole.
    """
    if not fillings:
        return ()
    bounds = list(accumulate(shape.parts, initial=0))
    rows_of = (itemgetter(*map(slice, bounds, bounds[1:])) if len(shape) > 1
               else lambda entries: (entries,) * len(shape))
    make = Tableau._unchecked
    return tuple([make(shape, rows_of(entries)) for entries in sorted(fillings)])


@lru_cache(maxsize=None)
def enumerate_ssyt(shape: Partition, max_entry: int) -> tuple[Tableau, ...]:
    """All semistandard tableaux of the shape with entries at most max_entry.

    Output order is lexicographic by row-major entry sequence, which makes
    downstream listings reproducible.  A bound below the number of rows
    leaves nothing to enumerate.  The filling search runs onto a lam whose
    rows lie |shape| + 1 boxes apart: no row can catch up, so nothing is cut.
    """
    if len(shape) > max_entry:
        return ()
    lam = Partition(tuple((shape.size + 1) * v for v in reversed(range(max_entry))))
    return _tableaux_of(shape, _pruned_fillings(shape, lam, None, max_entry, None))


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
