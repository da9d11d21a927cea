"""Semistandard Young tableaux, level sets, entry positions, and readings.

Entries are positive integers, weakly increasing along rows and strictly
increasing down columns.  The level set of a value k lists the cells
holding k from the rightmost column leftward; since equal entries form a
horizontal strip, rows weakly increase along that listing.  A reading
lists all entries along a total order on the cells; the row reading and
the column reading are the two built-in cases, and any admissible order
gives a reading via reading_by_order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .pictures import OrderCellMismatch, OrderNotAdmissible, TotalOrder
from .shapes import Cell, Partition, cells


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


@dataclass(frozen=True, slots=True)
class Tableau:
    """A semistandard filling of a partition shape."""

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != len(self.shape) or any(
                len(row) != p for row, p in zip(rows, self.shape.parts)):
            raise ShapeMismatch(
                f"row lengths {[len(r) for r in rows]} vs shape {self.shape.parts}")
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


@dataclass(frozen=True, slots=True)
class Word:
    """Letters read from a tableau, paired with the cell each came from."""

    letters: tuple[int, ...]
    source_cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        sources = tuple((int(r), int(c)) for r, c in self.source_cells)
        if len(letters) != len(sources):
            raise ValueError("letters and source cells must have equal length")
        if len(set(sources)) != len(sources):
            raise ValueError("source cells repeat")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "source_cells", sources)

    def __len__(self) -> int:
        return len(self.letters)

    def to_json(self) -> dict:
        return {"letters": list(self.letters),
                "cells": [list(c) for c in self.source_cells]}


def make_tableau(shape: Partition, rows: Iterable[Sequence[int]]) -> Tableau:
    """Validate a filling against the shape and the row/column rules."""
    return Tableau(shape, tuple(tuple(row) for row in rows))


@lru_cache(maxsize=None)
def enumerate_ssyt(shape: Partition, max_entry: int) -> tuple[Tableau, ...]:
    """All semistandard tableaux of the shape with entries at most max_entry.

    Output order is lexicographic by row-major entry sequence, which makes
    downstream listings reproducible.  A bound below the number of rows
    leaves nothing to enumerate.
    """
    if len(shape) > max_entry:
        return ()
    order = cells(shape)
    grid = [[0] * p for p in shape.parts]
    out: list[Tableau] = []

    def fill(k: int) -> None:
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
    return reading_by_order(tab, TotalOrder.jay(cells(tab.shape)))


def far_eastern_reading(tab: Tableau) -> Word:
    """Read each column top to bottom, rightmost column first."""
    return reading_by_order(tab, TotalOrder.eff(cells(tab.shape)))


def _check_reading_order(order: TotalOrder, shape: Partition) -> None:
    """Raise unless the order is an admissible listing of the shape's cells."""
    if set(order.cells) != set(cells(shape)):
        raise OrderCellMismatch(
            f"order lists {sorted(order.cells)}, shape has {list(cells(shape))}")
    if not order.admissible:
        raise OrderNotAdmissible("the listing is not an admissible order")


def reading_by_order(tab: Tableau, order: TotalOrder) -> Word:
    """Read entries along an admissible total order on the shape's cells."""
    _check_reading_order(order, tab.shape)
    return Word(tuple(tab.entry(c) for c in order.cells), order.cells)


def weight(tab: Tableau, max_entry: int) -> tuple[int, ...]:
    """Entry multiplicities: component k counts the entries equal to k."""
    counts = [0] * max_entry
    for row in tab.rows:
        for value in row:
            if value > max_entry:
                raise EntryExceedsBound(f"entry {value} exceeds bound {max_entry}")
            counts[value - 1] += 1
    return tuple(counts)
