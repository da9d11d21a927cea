"""Littlewood-Richardson crystals, the picture bijection, and count oracles.

An instance fixes three shapes with lam inside nu and sizes adding up,
plus an entry bound for tableaux.  The filtered crystal consists of the
tableaux over mu whose reading word, added to lam one box at a time,
stays a partition throughout and lands exactly on nu.  phi turns a
picture into such a tableau by recording the row coordinate of each
image cell; psi inverts it by sending each cell to the row named by its
entry, at the column just past lam plus the entry's position from the
right among equal entries.

The public phi checks that its input is a picture and validates its
tableau.  verify_bijection's _phi builds its tableaux unchecked, and psi and
conjecture_experiment their pictures from _psi_pairs; the enumerated crystal
and pictures judge them by membership.

lr_coefficient_lattice is a deliberately separate oracle: it never
touches the tableau, crystal, or picture code paths, so agreement between
all three counts is meaningful evidence.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import cached_property, lru_cache
from operator import index
from typing import Iterable, Iterator, NamedTuple

from .pictures import (Picture, SizeMismatch, TotalOrder, _row_reading,
                       enumerate_admissible_orders, enumerate_pictures, is_picture)
from .shapes import (Cell, NotContained, Partition, SkewShape, Value, cells, partitions_of,
                     subpartitions)
from .tableaux import Tableau, _pruned_fillings, _row_lengths, _tableaux_of
# not used here; kept as names in lr that the perfbench tracer test patches
from .shapes import add_sequence  # noqa: F401
from .tableaux import enumerate_ssyt  # noqa: F401


class RankTooSmall(ValueError):
    """The entry bound cannot accommodate the shapes involved."""


class NotAPicture(ValueError):
    """The pairing fails the picture conditions for this instance."""


class NotLRCrystal(ValueError):
    """The tableau is not in the filtered crystal for this instance."""


class LRInstance(Value):
    """Three shapes with compatible sizes, plus the entry bound for tableaux.

    rank_bound defaults to the number of rows of nu: entries name rows
    added to lam, and a letter beyond that count could never land on nu.
    """

    _fields = ("lam", "mu", "nu", "rank_bound")

    def __init__(self, lam: Partition, mu: Partition, nu: Partition,
                 rank_bound: int | None = None) -> None:
        if lam.size + mu.size != nu.size:
            raise SizeMismatch(f"sizes must add up: {lam.size} + {mu.size} != {nu.size}")
        if not nu.contains(lam):
            raise NotContained(f"{lam.parts} does not fit inside {nu.parts}")
        rank_bound = max(1, len(nu)) if rank_bound is None else index(rank_bound)
        if rank_bound < max(1, len(nu)):
            raise RankTooSmall(
                f"rank bound {rank_bound} below the {len(nu)} rows of the target")
        for name, value in zip(self._fields, (lam, mu, nu, rank_bound)):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        return ((self.lam, self.mu, self.nu, self.rank_bound)
                == (other.lam, other.mu, other.nu, other.rank_bound)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.lam, self.mu, self.nu, self.rank_bound))

    @cached_property
    def skew_shape(self) -> SkewShape:
        return SkewShape(self.nu, self.lam)

    @cached_property
    def _row_readings(self) -> tuple[TotalOrder, TotalOrder]:
        """The row readings of mu and of the skew shape, as _row_reading keeps them."""
        return _row_reading(self.mu), _row_reading(self.skew_shape)

    def to_json(self) -> dict:
        return {"lambda": self.lam.to_json(), "mu": self.mu.to_json(),
                "nu": self.nu.to_json(), "rank_bound": self.rank_bound}


def lr_filter(inst: LRInstance, order: TotalOrder | None = None) -> tuple[Tableau, ...]:
    """Tableaux over mu whose reading adds onto lam box by box, ending at nu.

    The reading defaults to the row reading; any admissible order on the
    cells of mu may be passed instead.  The filling search runs along that
    reading with nu as the cap, so it cuts a filling that leaves the
    partitions or outgrows nu at its first bad box.  Output is in
    lexicographic row-major order, whatever the reading.
    """
    # an entry past the rows of nu never lands on nu, so the rows of nu bound the search
    return _tableaux_of(inst.mu, _pruned_fillings(inst.mu, inst.lam, order,
                                                  len(inst.nu), inst.nu))


def _landings(letters: Iterable[int], inst: LRInstance) -> list[Cell] | None:
    """Add the letters to lam one box at a time, letter v onto row v, and
    return the cell each box lands in; None if a row would overtake the row
    above it or the shape reached is not nu."""
    nu = inst.nu.parts
    # rows[v] is the current length of row v; rows[0] never binds
    rows = _row_lengths(inst.nu.size + 1, inst.lam, len(nu))
    landed = []
    for v in letters:
        if v > len(nu) or rows[v] >= rows[v - 1]:
            return None
        rows[v] += 1
        landed.append((v, rows[v]))
    return landed if rows[1:] == [*nu] else None


def _in_lr_crystal(tab: Tableau, inst: LRInstance) -> bool:
    """tab is over mu and its row reading adds onto lam, landing on nu."""
    return tab.shape == inst.mu and _landings(
        inst._row_readings[0]._gather(sum(tab.rows, ())), inst) is not None


def phi(pic: Picture, inst: LRInstance) -> Tableau:
    """Turn a picture into a tableau by taking the row coordinate of each image."""
    if not is_picture(pic, *inst._row_readings):
        raise NotAPicture("the pairing is not a picture for this instance")
    mapping = pic.mapping
    rows = tuple(tuple(mapping[(i, j)][0] for j in range(1, p + 1))
                 for i, p in enumerate(inst.mu.parts, start=1))
    return Tableau(inst.mu, rows)


def _phi(pic: Picture, inst: LRInstance) -> Tableau:
    """phi with no check.  Pairs sorted by source run row-major over mu, so their target
    rows are its entries in row-major order; a non-picture may break semistandardness."""
    return _tableaux_of(inst.mu, [tuple([target[0] for _, target in pic.pairs])])[0]


def _psi_pairs(tab: Tableau, lam: Partition) -> tuple[tuple[Cell, Cell], ...]:
    """Each cell with its psi target.  Equal entries form a horizontal strip, so rows
    top down, each right to left, meet each level set in p_function's order.  The
    pairs come sorted by source with no target repeated, as Picture._unchecked needs."""
    seen: dict[int, int] = {}
    pairs = []
    for i, row in enumerate(tab.rows, start=1):
        row_pairs = []
        for j in range(len(row), 0, -1):
            value = row[j - 1]
            seen[value] = p = seen.get(value, 0) + 1
            row_pairs.append(((i, j), (value, lam.part(value) + p)))
        pairs += reversed(row_pairs)
    return tuple(pairs)


def psi(tab: Tableau, inst: LRInstance) -> Picture:
    """Turn a filtered-crystal tableau into a picture.

    Each cell goes to the row named by its entry, in the column just past
    lam shifted by the entry's position from the right among its equals.
    """
    if not _in_lr_crystal(tab, inst):
        raise NotLRCrystal("the tableau is not in the filtered crystal for this instance")
    return Picture._unchecked(_psi_pairs(tab, inst.lam))


class BijectionReport(NamedTuple):
    """Outcome of checking the picture-crystal correspondence on one instance."""

    instance: LRInstance
    pictures: int
    crystals: int
    lattice: int
    bijection: str
    counterexample: dict | None

    @property
    def ok(self) -> bool:
        return self.bijection == "ok"

    def to_json(self) -> dict:
        return {"instance": self.instance.to_json(),
                "counts": {"pictures": self.pictures, "crystals": self.crystals,
                           "lattice": self.lattice},
                "bijection": self.bijection,
                "counterexample": self.counterexample}


def verify_bijection(inst: LRInstance) -> BijectionReport:
    """Enumerate both sides, push each picture through phi and psi, and compare.

    The report carries all three counts; bijection reads "ok" only when
    the maps are mutually inverse between the enumerated sets and the
    counts agree with the lattice oracle.  One round trip per picture
    suffices.  It shows phi injective into the crystal with psi undoing it,
    so each tableau phi reaches passes the reverse check, and psi sends any
    other one outside the pictures or to a picture that phi sends elsewhere.
    phi runs as the unchecked _phi: an image off the crystal fails membership,
    and psi(tab) == pic pins pic's sources to the cells of mu.  No is_picture
    runs here: the verdict trusts enumerate_pictures to return pictures.
    """
    pics = enumerate_pictures(inst.mu, inst.skew_shape)
    tabs = lr_filter(inst)
    lattice = lr_coefficient_lattice(inst)
    crystal_set = set(tabs)
    matched: set[Tableau] = set()
    counterexample = None
    for pic in pics:
        tab = _phi(pic, inst)
        if tab not in crystal_set:
            counterexample = {"kind": "phi_image_outside_crystal",
                              "picture": pic.to_json()}
            break
        if psi(tab, inst) != pic:
            counterexample = {"kind": "psi_phi_not_identity",
                              "picture": pic.to_json()}
            break
        matched.add(tab)
    if counterexample is None:
        unmatched = next((tab for tab in tabs if tab not in matched), None)
        if unmatched is not None:
            kind = ("phi_psi_not_identity" if psi(unmatched, inst) in pics
                    else "psi_image_outside_pictures")
            counterexample = {"kind": kind, "tableau": unmatched.to_json()}
    if counterexample is None and not len(pics) == len(tabs) == lattice:
        counterexample = {"kind": "count_mismatch", "pictures": len(pics),
                          "crystals": len(tabs), "lattice": lattice}
    status = "ok" if counterexample is None else "fail"
    return BijectionReport(inst, len(pics), len(tabs), lattice, status, counterexample)


def _sends_reading_to_landings(tab: Tableau, mapping: dict, inst: LRInstance) -> bool:
    """mapping sends each cell of mu's row reading to the cell where the box of
    tab's letter there lands when the reading is added to lam."""
    reading = inst._row_readings[0]
    return ([mapping[c] for c in reading.cells]
            == _landings(reading._gather(sum(tab.rows, ())), inst))


def lemma_add_check(pic: Picture, inst: LRInstance) -> bool:
    """The picture sends each cell to where the letter phi puts there lands."""
    return _sends_reading_to_landings(phi(pic, inst), pic.mapping, inst)


def lemma_destination_check(tab: Tableau, inst: LRInstance) -> bool:
    """psi sends each cell to where the letter read there lands."""
    return _sends_reading_to_landings(tab, psi(tab, inst).mapping, inst)


def decompose_tensor(lam: Partition, mu: Partition, rank_bound: int,
                     order: TotalOrder | None = None) -> dict[Partition, int]:
    """Multiplicity of each final shape over all tableaux with valid additions.

    Both input shapes must have strictly fewer rows than rank_bound;
    entries are at most rank_bound, so every final shape has at most
    rank_bound rows.  The reading defaults to the row reading.  Runs the
    filling search of the crystal filter with no cap; a filling's final
    shape is lam plus its content, so fillings are counted by content.
    """
    if len(lam) > rank_bound - 1 or len(mu) > rank_bound - 1:
        raise RankTooSmall(
            f"input shapes must have fewer than {rank_bound} rows")
    # an entry v past the rows of lam needs rows len(lam) + 1 .. v - 1 opened by
    # earlier boxes, so no entry exceeds len(lam) + |mu|, whatever rank_bound is
    bound = min(rank_bound, len(lam) + mu.size)
    contents = Counter(tuple(sorted(entries)) for entries in _pruned_fillings(
        mu, lam, order, bound, None))
    multiplicities: dict[tuple[int, ...], int] = {}
    for content, count in contents.items():
        final = _row_lengths(0, lam, bound)
        for v in content:
            final[v] += 1
        multiplicities[tuple(final[1:])] = count
    ordered = sorted(multiplicities.items(), reverse=True)
    return {Partition(final): count for final, count in ordered}


@lru_cache(maxsize=None)
def _lattice_steps(nu: tuple[int, ...], lam: tuple[int, ...]
                   ) -> tuple[tuple[int | None, int | None], ...]:
    """The lattice oracle's steps for the skew shape nu/lam, one per skew cell in
    reverse row-reading order: the steps of the already filled neighbours above
    it and to its right, None for none.  Cached on the raw part tuples, so a
    sweep builds them once per skew shape."""
    fill_order = [(i, j) for i in range(len(nu))
                  for j in range(nu[i], lam[i] if i < len(lam) else 0, -1)]
    step_of = {cell: t for t, cell in enumerate(fill_order)}
    return tuple((step_of.get((i - 1, j)), step_of.get((i, j + 1))) for i, j in fill_order)


def lr_coefficient_lattice(inst: LRInstance) -> int:
    """Count lattice-word fillings of the skew shape by a backtracking loop.

    Fills the skew cells of nu over lam in reverse row-reading order with
    content mu, keeping rows weakly increasing, columns strictly
    increasing, and every prefix of the reading word lattice: at each
    point the letter k-1 must have appeared more often than k.  Works on
    raw part tuples only.
    """
    mu = inst.mu.parts
    neighbours = _lattice_steps(inst.nu.parts, inst.lam.parts)
    placed = [0] * (len(mu) + 1)
    letters = [0] * len(neighbours)  # 0 while a cell is unfilled
    total = 0
    t = 0
    while t >= 0:
        if t == len(neighbours):
            total += 1
            t -= 1
            continue
        above, right = neighbours[t]
        v = letters[t]
        if v:
            placed[v] -= 1
        elif above is not None:
            v = letters[above]
        high = len(mu) if right is None else letters[right]
        v += 1
        while v <= high and (placed[v] >= mu[v - 1]
                             or v > 1 and placed[v - 1] <= placed[v]):
            v += 1
        if v > high:
            letters[t] = 0
            t -= 1
        else:
            placed[v] += 1
            letters[t] = v
            t += 1
    return total


class CountTriple(NamedTuple):
    pictures: int
    crystals: int
    lattice: int


def lr_coefficient_all_methods(inst: LRInstance) -> CountTriple:
    """Three independently computed counts; agreement is the headline check."""
    return CountTriple(
        pictures=len(enumerate_pictures(inst.mu, inst.skew_shape)),
        crystals=len(lr_filter(inst)),
        lattice=lr_coefficient_lattice(inst),
    )


class ConjectureReport(NamedTuple):
    """One order pair's outcome: does psi biject the filtered crystal onto
    the generalized picture set for that pair.  Reports only; asserts nothing."""

    instance: LRInstance
    codomain_order: TotalOrder
    domain_order: TotalOrder
    crystals: int
    pictures: int
    well_defined: bool
    injective: bool
    surjective: bool

    @property
    def holds(self) -> bool:
        return self.well_defined and self.injective and self.surjective

    def to_json(self) -> dict:
        return {"instance": self.instance.to_json(),
                "codomain_order": self.codomain_order.to_json(),
                "domain_order": self.domain_order.to_json(),
                "crystals": self.crystals, "pictures": self.pictures,
                "well_defined": self.well_defined, "injective": self.injective,
                "surjective": self.surjective,
                "verdict": "holds" if self.holds else "fails"}


def conjecture_experiment(inst: LRInstance, codomain_order: TotalOrder,
                          domain_order: TotalOrder) -> ConjectureReport:
    """Apply psi to the crystal filtered along domain_order and compare its
    image with the pictures for the order pair.

    psi itself is unchanged from the row-reading case; only the filter and
    the picture set vary with the orders.  The report states whether every
    image is such a picture, whether psi is injective on the filter, and
    whether every picture is hit.  An image is such a picture exactly when
    enumerate_pictures, which returns every picture of the pair, lists it:
    both sort their pairs by source, so equal pairings are equal Pictures.
    """
    tabs = lr_filter(inst, domain_order)
    pics = set(enumerate_pictures(inst.mu, inst.skew_shape,
                                  domain_order, codomain_order))
    images = [Picture._unchecked(_psi_pairs(tab, inst.lam)) for tab in tabs]
    image_set = set(images)
    return ConjectureReport(
        inst, codomain_order, domain_order,
        crystals=len(tabs), pictures=len(pics),
        well_defined=image_set <= pics,
        injective=len(image_set) == len(images),
        surjective=pics <= image_set,
    )


def instances_of_size(total: int) -> Iterator[LRInstance]:
    """All instances whose target shape has the given size, deterministically."""
    mus = [partitions_of(size) for size in range(total + 1)]
    for nu in partitions_of(total):
        for lam in subpartitions(nu):
            for mu in mus[total - lam.size]:
                yield LRInstance(lam, mu, nu)


def iter_instances(max_size: int) -> Iterator[LRInstance]:
    """All instances with target size up to max_size, smallest sizes first."""
    for total in range(max_size + 1):
        yield from instances_of_size(total)


class SizeSummary(NamedTuple):
    size: int
    instances: int
    mismatches: int
    max_coefficient: int


class SweepReport(NamedTuple):
    """Aggregate outcome of verify_bijection over every instance up to a size."""

    max_size: int
    instances: int
    per_size: tuple[SizeSummary, ...]
    failures: tuple[BijectionReport, ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        # seconds stays off the wire so identical runs emit identical bytes
        return {"max_size": self.max_size, "instances": self.instances,
                "per_size": [s._asdict() for s in self.per_size],
                "failures": [f.to_json() for f in self.failures],
                "ok": self.ok}


def sweep(max_size: int) -> SweepReport:
    """Run verify_bijection on every instance with target size up to max_size."""
    start = time.perf_counter()
    per_size: list[SizeSummary] = []
    failures: list[BijectionReport] = []
    total = 0
    for size in range(max_size + 1):
        count = 0
        bad = 0
        top = 0
        for inst in instances_of_size(size):
            report = verify_bijection(inst)
            count += 1
            top = max(top, report.lattice)
            if not report.ok:
                bad += 1
                failures.append(report)
        per_size.append(SizeSummary(size, count, bad, top))
        total += count
    elapsed = round(time.perf_counter() - start, 3)
    return SweepReport(max_size, total, tuple(per_size), tuple(failures), elapsed)


def conjecture_rows(inst: LRInstance) -> tuple[ConjectureReport, ...]:
    """The conjecture experiment on every admissible (codomain, domain)
    order pair of one instance, codomain orders outermost."""
    return tuple(conjecture_experiment(inst, codomain, domain)
                 for codomain in enumerate_admissible_orders(inst.skew_shape.cells())
                 for domain in enumerate_admissible_orders(cells(inst.mu)))


def conjecture_sweep(max_size: int) -> tuple[ConjectureReport, ...]:
    """The conjecture experiment on every admissible order pair of every
    instance with target size up to max_size."""
    return tuple(row for inst in iter_instances(max_size) for row in conjecture_rows(inst))
