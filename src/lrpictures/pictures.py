"""Cell orders, admissible total orders, standardness, and picture enumeration.

Three orders drive everything here.  The componentwise partial order
compares cells coordinate by coordinate.  The row-reading total order
("jay") lists cells row by row, right to left within a row.  The
column-reading total order ("eff") lists cells column by column from
the rightmost column, top to bottom within a column.  An admissible
order is any total order that puts a cell before every cell weakly
below it and weakly to its left; the two reading orders are the
standard examples.

A picture is a bijection between two cell sets that is order-standard
in both directions: componentwise-comparable cells must map to cells
in the listing order, and the same must hold for the inverse map.
is_standard and is_picture check it by prefix maxima.  enumerate_pictures uses
two local rules, exact because partitions and skew shapes are convex:
adjacent sources map in listing order, and the taken targets form a down-set.
It keeps the free targets that keep the down-set (the frontier) as a bit
mask, updated in constant time as a target is taken or freed, and cuts a
candidate when too few free targets lie before or after it for the
sources still to come that must map there.

TotalOrder(...) and Picture(...) canonicalise every coordinate with
operator.index, so a non-integral one raises TypeError, and Picture
sorts its pairs and rejects a repeated source or target.  The pictures
enumerate_pictures returns are built through Picture._unchecked: their
cells come from the two listings, which are canonical, each source and
each target is used once, and the pairs are sorted before they are
stored, so the check would only repeat what the search guarantees.

Each TotalOrder keeps the tables the searches derive from it (its sorted
cells, enumerate_pictures' domain and codomain tables, and the filling
steps of tableaux._pruned_fillings), built the first time a search uses
the order and freed with it.  The order-pair experiments run a search for
every pair of a few hundred orders, and the admissible-order listing and
_row_reading hand back the same order objects each time, so each table
is built once per order rather than once per call.  _row_reading keeps one
order per partition and per skew shape for the life of the process, and
enumerate_pictures defaults to it on both sides, so a sweep over many
instances builds each shape's row reading and its tables once, however
many instances share the shape.  Only per-shape orders are kept, never a
search's result.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from functools import cached_property, lru_cache
from operator import index
from typing import Iterable, Mapping

from .shapes import Cell, Partition, SkewShape, Value, cells


class OrderCellMismatch(ValueError):
    """The order lists different cells than the shape has."""


class OrderNotAdmissible(ValueError):
    """The listing breaks the admissibility constraint."""


class SizeMismatch(ValueError):
    """Source and target cell sets have different sizes."""


def leq_P(a: Cell, b: Cell) -> bool:
    """Componentwise partial order: both coordinates weakly increase."""
    return a[0] <= b[0] and a[1] <= b[1]


def _jay_key(cell: Cell) -> tuple[int, int]:
    return (cell[0], -cell[1])


def _eff_key(cell: Cell) -> tuple[int, int]:
    return (-cell[1], cell[0])


def leq_J(a: Cell, b: Cell) -> bool:
    """Row-reading total order: lower row first, right before left in a row."""
    return _jay_key(a) <= _jay_key(b)


def leq_F(a: Cell, b: Cell) -> bool:
    """Column-reading total order: righter column first, top before bottom."""
    return _eff_key(a) <= _eff_key(b)


class TotalOrder(Value):
    """A total order on a finite cell set, materialized as a listing.

    Earlier in the listing means smaller in the order.
    """

    _fields = ("cells",)

    def __init__(self, cells: tuple[Cell, ...]) -> None:
        listing = tuple((index(r), index(c)) for r, c in cells)
        if len(set(listing)) != len(listing):
            raise ValueError("listing repeats a cell")
        object.__setattr__(self, "cells", listing)

    def __eq__(self, other: object) -> bool:
        return self.cells == other.cells if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.cells,))

    @classmethod
    def jay(cls, cell_set: Iterable[Cell]) -> TotalOrder:
        """The row-reading order on the given cells."""
        return cls(tuple(sorted(cell_set, key=_jay_key)))

    @classmethod
    def eff(cls, cell_set: Iterable[Cell]) -> TotalOrder:
        """The column-reading order on the given cells."""
        return cls(tuple(sorted(cell_set, key=_eff_key)))

    @cached_property
    def positions(self) -> dict[Cell, int]:
        return {cell: k for k, cell in enumerate(self.cells)}

    @cached_property
    def admissible(self) -> bool:
        return is_admissible_order(self)

    @cached_property
    def _key(self) -> tuple[Cell, ...]:
        """The listed cells sorted, which for a shape is its row-major cell tuple."""
        return tuple(sorted(self.cells))

    @cached_property
    def _domain_tables(self) -> tuple[tuple[tuple[int, int, int, int], ...],
                                      tuple[int, ...], tuple[int, ...]]:
        return _build_domain_tables(self.cells)

    @cached_property
    def _codomain_tables(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                                        tuple[int, ...], int]:
        return _build_codomain_tables(self.cells, self.positions)

    @cached_property
    def _filling_steps(self) -> tuple[tuple[int, int, int, int], ...]:
        return _build_filling_steps(self.cells, self._key)

    def __len__(self) -> int:
        return len(self.cells)

    def to_json(self) -> dict:
        return {"cells": [list(cell) for cell in self.cells]}


def _build_domain_tables(sources: tuple[Cell, ...]
                   ) -> tuple[tuple[tuple[int, int, int, int], ...],
                              tuple[int, ...], tuple[int, ...]]:
    """enumerate_pictures' tables for a domain listing.

    nbrs[t] holds source t's neighbours above, left, below and right by
    index, len(sources) standing for none; before[t] and after[t] count the
    later-listed sources componentwise below and above source t.  The counts
    run from the last source back, keeping each line's coordinates of the
    sources already passed sorted, so a source costs one bisection per line.
    The componentwise order treats both coordinates alike, so the lines are
    the rows or the columns, whichever are fewer.
    """
    n = len(sources)
    index = {x: t for t, x in enumerate(sources)}
    nbrs = tuple((index.get((i - 1, j), n), index.get((i, j - 1), n),
                  index.get((i + 1, j), n), index.get((i, j + 1), n)) for i, j in sources)
    points = sources
    if len({i for i, _ in sources}) > len({j for _, j in sources}):
        points = tuple((j, i) for i, j in sources)
    # passed[a]: the second coordinates of the passed points on line a, sorted
    passed: dict[int, list[int]] = {a: [] for a in sorted({a for a, _ in points})}
    before = [0] * n
    after = [0] * n
    for t in range(n - 1, -1, -1):
        i, j = points[t]
        for a, line in passed.items():
            if a <= i:
                before[t] += bisect_right(line, j)
            if a >= i:
                after[t] += len(line) - bisect_left(line, j)
        insort(passed[i], j)
    return nbrs, tuple(before), tuple(after)


def _build_codomain_tables(listing: tuple[Cell, ...], position: Mapping[Cell, int]
                     ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                                tuple[int, ...], int]:
    """enumerate_pictures' tables for a codomain listing.

    need[q] holds the listed cells just above and left of position q as
    bits; taking q may open the positions opens[q] just below and right of
    it, and freeing q closes them, closes[q] as bits.  The last entry is the
    initial frontier: the positions that need nothing, as bits.
    """
    n = len(listing)
    need = [0] * n
    opens: list[list[int]] = [[] for _ in listing]
    closes = [0] * n
    for q, (a, b) in enumerate(listing):
        for v in ((a + 1, b), (a, b + 1)):
            if v in position:
                p = position[v]
                need[p] |= 1 << q
                opens[q].append(p)
                closes[q] |= 1 << p
    frontier = sum(1 << q for q in range(n) if not need[q])
    return tuple(need), tuple(map(tuple, opens)), tuple(closes), frontier


def _build_filling_steps(listing: tuple[Cell, ...], key: tuple[Cell, ...]
                   ) -> tuple[tuple[int, int, int, int], ...]:
    """tableaux._pruned_fillings' steps for a listing, one per listed cell:
    its index in the sorted cells (row-major, for a shape), the indices of
    its right neighbour and of the cell above it (-1 for none), and the
    number of cells below it in its column."""
    flat = {cell: k for k, cell in enumerate(key)}
    below: dict[Cell, int] = {}
    seen: dict[int, int] = {}
    for i, j in reversed(key):
        below[(i, j)] = seen.get(j, 0)
        seen[j] = below[(i, j)] + 1
    return tuple((flat[(i, j)], flat.get((i, j + 1), -1), flat.get((i - 1, j), -1),
                  below[(i, j)]) for i, j in listing)


@lru_cache(maxsize=None)
def _row_reading(shape: Partition | SkewShape) -> TotalOrder:
    """The row reading of a partition's or a skew shape's cells, one order
    object per shape for the life of the process, so the searches build its
    tables once per shape rather than once per call or per instance."""
    return TotalOrder.jay(shape.cells() if isinstance(shape, SkewShape) else cells(shape))


def is_admissible_order(order: TotalOrder) -> bool:
    """Check that every constrained cell pair respects the listing.

    The constraint: a cell must come strictly before any distinct cell
    that sits weakly below it and weakly to its left, which is
    standardness of the identity map with each source (r, c) at (r, -c).
    """
    return is_standard({(r, -c): (r, c) for r, c in order.cells}, order)


def enumerate_admissible_orders(cell_set: Iterable[Cell],
                                limit: int | None = None) -> tuple[TotalOrder, ...]:
    """All admissible orders on the cells, deterministically.

    These are the linear extensions of the precedence relation used by
    is_admissible_order; candidates are tried in row-major order at each
    step, which fixes the output order.  A limit truncates the output.
    """
    key = tuple(sorted(set(cell_set)))
    orders = _admissible_orders(key)
    return orders if limit is None else orders[:max(limit, 0)]


def _direct_predecessors(todo: tuple[Cell, ...]) -> dict[Cell, set[Cell]]:
    """For each cell (i, j) of the sorted cells, the leftmost cell at column
    >= j in each row above and the nearest cell at column > j in its own row.

    A cell must precede (i, j) in every admissible order exactly when it is
    another cell weakly above and weakly right of it.  Such a cell is reached
    from one of these by steps right along its row, each to a cell that must
    precede the last, so this relation's closure is the whole precedence.
    """
    lines: dict[int, list[int]] = {}
    for r, c in todo:
        lines.setdefault(r, []).append(c)
    predecessors: dict[Cell, set[Cell]] = {}
    for i, j in todo:
        direct = predecessors[(i, j)] = set()
        for r, line in lines.items():  # rows in increasing order, as todo is sorted
            if r > i:
                break
            k = bisect_left(line, j) if r < i else bisect_right(line, j)
            if k < len(line):
                direct.add((r, line[k]))
    return predecessors


@lru_cache(maxsize=None)
def _admissible_orders(todo: tuple[Cell, ...]) -> tuple[TotalOrder, ...]:
    # a candidate is ready once its direct predecessors are placed: each placed
    # cell's were, so the placed cells stay closed under the whole precedence
    predecessors = _direct_predecessors(todo)
    out: list[TotalOrder] = []
    listing: list[Cell] = []
    placed: set[Cell] = set()
    # one scan of todo per listed cell, so stepping back resumes after the cell listed
    levels = [iter(todo)]
    while levels:
        if len(listing) == len(todo):
            out.append(TotalOrder(tuple(listing)))
        for candidate in levels[-1]:
            if candidate not in placed and predecessors[candidate] <= placed:
                listing.append(candidate)
                placed.add(candidate)
                levels.append(iter(todo))
                break
        else:
            levels.pop()
            if listing:
                placed.discard(listing.pop())
    return tuple(out)


def is_standard(mapping: Mapping[Cell, Cell], codomain_order: TotalOrder) -> bool:
    """Order compatibility of a cell map.

    Whenever two distinct source cells compare componentwise, their
    images must respect the codomain listing.  Images that the listing
    does not mention make the map nonstandard.  A prefix maximum over the
    sources' rows and columns gives the latest image below each source.
    """
    position = codomain_order.positions
    col_rank = {c: k for k, c in enumerate(sorted({c for _, c in mapping}))}
    rows: dict[int, dict[int, int]] = {}
    for (r, c), image in mapping.items():
        if image not in position:
            return False
        rows.setdefault(r, {})[col_rank[c]] = position[image]
    # best[k]: latest image position at column rank <= k in the rows so far
    best = [-1] * len(col_rank)
    for r in sorted(rows):
        here, running = rows[r], -1
        for k, above in enumerate(best):
            if above > running:
                running = above
            if k in here:
                if running > here[k]:
                    return False
                running = here[k]
            best[k] = running
    return True


class Picture(Value):
    """A bijection between two cell sets, stored as pairs sorted by source."""

    _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[Cell, Cell], ...]) -> None:
        pairs = tuple(sorted(((index(a), index(b)), (index(c), index(d)))
                             for (a, b), (c, d) in pairs))
        if len({p[0] for p in pairs}) != len(pairs):
            raise ValueError("pairing repeats a source cell")
        if len({p[1] for p in pairs}) != len(pairs):
            raise ValueError("pairing repeats a target cell")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def _unchecked(cls, pairs: tuple[tuple[Cell, Cell], ...]) -> Picture:
        """A picture built without __init__'s checks.

        The caller guarantees that pairs holds cells of two ints, sorted
        by source, with no source and no target repeated.
        """
        pic = object.__new__(cls)
        object.__setattr__(pic, "pairs", pairs)
        return pic

    def __eq__(self, other: object) -> bool:
        return self.pairs == other.pairs if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.pairs,))

    @cached_property
    def mapping(self) -> dict[Cell, Cell]:
        return dict(self.pairs)

    @cached_property
    def inverse(self) -> dict[Cell, Cell]:
        return {image: source for source, image in self.pairs}

    def apply(self, cell: Cell) -> Cell:
        return self.mapping[cell]

    def domain(self) -> tuple[Cell, ...]:
        return tuple(p[0] for p in self.pairs)

    def image(self) -> tuple[Cell, ...]:
        return tuple(p[1] for p in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def to_json(self) -> dict:
        return {"pairs": [[list(a), list(b)] for a, b in self.pairs]}


def is_picture(pairing, domain_order: TotalOrder, codomain_order: TotalOrder) -> bool:
    """Bijectivity plus standardness of the map and of its inverse.

    Accepts a Picture, a mapping, or an iterable of (source, target)
    pairs.  Returns False rather than raising on any structural defect.
    """
    if isinstance(pairing, Picture):
        items = pairing.pairs
    elif isinstance(pairing, Mapping):
        items = tuple(pairing.items())
    else:
        items = tuple(pairing)
    forward = dict(items)
    if len(forward) != len(items):
        return False
    if forward.keys() != domain_order.positions.keys():
        return False
    images = set(forward.values())
    if len(images) != len(forward) or images != codomain_order.positions.keys():
        return False
    inverse = {image: source for source, image in forward.items()}
    return (is_standard(forward, codomain_order)
            and is_standard(inverse, domain_order))


def enumerate_pictures(mu: Partition, skew_shape: SkewShape,
                       domain_order: TotalOrder | None = None,
                       codomain_order: TotalOrder | None = None) -> tuple[Picture, ...]:
    """All pictures from the cells of mu onto the skew cells.

    The orders default to the shared row readings of mu and of the skew
    shape (_row_reading); any listing of the cells is accepted, and is
    checked against the cells of that row reading.  Sources are placed in
    domain-listing order; an image must follow the images of the placed
    neighbours above and left, precede those below and right, and find the
    skew cells above and left of it taken.  Both shapes are convex, so
    these constant-time tests are exactly the two standardness conditions.

    The targets passing the second test form the frontier, a bit mask
    over codomain positions: taking a target removes it and adds each
    neighbour below or right of it whose cells above and left are now
    all taken, and freeing it undoes that.  Each source tries the
    frontier bits inside its window of the first test in increasing
    position, and stepping back resumes after its current choice.  A
    count cuts what cannot complete: if before[t] later-listed sources
    lie componentwise below source t and after[t] above it, forward
    standardness puts their images at distinct positions before and
    after t's image, so position q needs at least before[t] free positions
    below it and after[t] above it.  That holds for any listing, so the
    cut loses no picture, and it stops a level at the first q with too
    few above, since that number only falls as q grows.  Output is sorted
    by pair list.
    """
    sources_rowmajor = cells(mu)
    reading = _row_reading(skew_shape)
    targets = reading._key
    if len(sources_rowmajor) != len(targets):
        raise SizeMismatch(
            f"{len(sources_rowmajor)} source cells vs {len(targets)} target cells")
    if domain_order is None:
        domain_order = _row_reading(mu)
    if codomain_order is None:
        codomain_order = reading
    if domain_order._key != sources_rowmajor:
        raise OrderCellMismatch("domain order must list the cells of the source shape")
    if codomain_order._key != targets:
        raise OrderCellMismatch("codomain order must list the skew cells")

    sources = domain_order.cells
    listing = codomain_order.cells
    n = len(listing)
    nbrs, before, after = domain_order._domain_tables
    need, opens, closes, frontier = codomain_order._codomain_tables
    used = 0
    # images[t]: the position source t maps to, -1 while unplaced; images[n], read for
    # a missing neighbour, stays -1
    images = [-1] * (n + 1)
    # choices[t]: the frontier positions source t has yet to try
    choices = [0] * n
    found: list[Picture] = []
    t = 0
    while t >= 0:
        if t == n:
            found.append(Picture._unchecked(
                tuple(sorted(zip(sources, [listing[q] for q in images[:n]])))))
            t -= 1
            continue
        q = images[t]
        if q >= 0:
            used ^= 1 << q
            frontier = (frontier | 1 << q) & ~closes[q]
        else:
            # forward standardness against the placed neighbours; later ones read -1
            up, left, down, right = nbrs[t]
            low = images[up] if images[up] > images[left] else images[left]
            high = images[down] if images[down] >= 0 else n
            if 0 <= images[right] < high:
                high = images[right]
            choices[t] = frontier & ((1 << high) - (1 << low + 1)) if low < high else 0
        rest = choices[t]
        while rest:
            bit = rest & -rest
            rest ^= bit
            q = bit.bit_length() - 1
            # the later sources that must map below and above t need free positions there
            if q - (used & (bit - 1)).bit_count() < before[t]:
                continue
            if n - 1 - q - (used >> q).bit_count() < after[t]:
                rest = 0  # the free positions above only shrink as q grows
                continue
            used |= bit
            frontier ^= bit
            for p in opens[q]:
                if used & need[p] == need[p]:
                    frontier |= 1 << p
            choices[t] = rest
            images[t] = q
            t += 1
            break
        else:
            images[t] = -1
            t -= 1
    return tuple(sorted(found, key=lambda picture: picture.pairs))
