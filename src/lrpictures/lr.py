"""Littlewood-Richardson crystals, the picture bijection, and count oracles.

An instance fixes three shapes with lam inside nu and sizes adding up,
plus an entry bound for tableaux.  The filtered crystal consists of the
tableaux over mu whose reading word, added to lam one box at a time,
stays a partition throughout and lands exactly on nu.  That is a prefix
property, so the filter never builds a tableau that fails it: one
backtracker fills the cells of mu in the reading order itself, adds each
entry's box to lam as it is placed, and cuts a branch as soon as the
shape stops being a partition or a row grows past nu.  phi turns a
picture into such a tableau by recording the row coordinate of each
image cell; psi inverts it by sending each cell to the row named by its
entry, at the column just past lam plus the entry's position from the
right among equal entries.

lr_coefficient_lattice is a deliberately separate oracle: it counts
lattice-word fillings of the skew shape by direct backtracking over raw
part tuples and never touches the tableau, crystal, or picture code
paths, so agreement between all three counts is meaningful evidence.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, NamedTuple

from .pictures import (Picture, SizeMismatch, TotalOrder,
                       enumerate_admissible_orders, enumerate_pictures, is_picture)
from .shapes import (AdditionResult, Cell, NotContained, Partition, SkewShape,
                     add_sequence, cells, partitions_of, subpartitions)
from .tableaux import (Tableau, Word, _check_reading_order, p_function,
                       reading_by_order)
# not used here; kept as lr.enumerate_ssyt, a name the perfbench tracer test patches
from .tableaux import enumerate_ssyt  # noqa: F401


class RankTooSmall(ValueError):
    """The entry bound cannot accommodate the shapes involved."""


class NotAPicture(ValueError):
    """The pairing fails the picture conditions for this instance."""


class NotLRCrystal(ValueError):
    """The tableau is not in the filtered crystal for this instance."""


@dataclass(frozen=True)
class LRInstance:
    """Three shapes with compatible sizes, plus the entry bound for tableaux.

    rank_bound defaults to the number of rows of nu: entries name rows
    added to lam, and a letter beyond that count could never land on nu.
    """

    lam: Partition
    mu: Partition
    nu: Partition
    rank_bound: int | None = None

    def __post_init__(self) -> None:
        if self.lam.size + self.mu.size != self.nu.size:
            raise SizeMismatch(
                f"sizes must add up: {self.lam.size} + {self.mu.size} != {self.nu.size}")
        if not self.nu.contains(self.lam):
            raise NotContained(
                f"{self.lam.parts} does not fit inside {self.nu.parts}")
        if self.rank_bound is None:
            object.__setattr__(self, "rank_bound", max(1, len(self.nu)))
        if self.rank_bound < max(1, len(self.nu)):
            raise RankTooSmall(
                f"rank bound {self.rank_bound} below the {len(self.nu)} rows of the target")

    @cached_property
    def skew_shape(self) -> SkewShape:
        return SkewShape(self.nu, self.lam)

    def to_json(self) -> dict:
        return {"lambda": self.lam.to_json(), "mu": self.mu.to_json(),
                "nu": self.nu.to_json(), "rank_bound": self.rank_bound}


def _read_and_add(tab: Tableau, lam: Partition,
                  order: TotalOrder | None = None) -> tuple[Word, AdditionResult]:
    """Read tab along the order (the row reading by default) and add the word to lam."""
    if order is None:
        order = TotalOrder.jay(cells(tab.shape))
    word = reading_by_order(tab, order)
    return word, add_sequence(lam, word.letters)


def _pruned_fillings(mu: Partition, lam: Partition, order: TotalOrder | None,
                     rank_bound: int, cap: Partition | None
                     ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Semistandard fillings of mu whose reading adds onto lam box by box.

    Fills the cells in the order's listing (the row reading by default).
    An admissible listing puts a cell's right neighbour and the cell
    above it first, so each entry v is bounded by those two: above + 1 <=
    v <= min(right, rank_bound).  The box of v goes onto row v of lam at
    once, and the branch is cut when row v would outgrow row v - 1 or,
    given a cap, the cap's row v.  Each filling comes back as its entries
    in row-major cell order paired with the row lengths it adds up to
    (rank_bound of them), in no particular order.
    """
    if order is None:
        order = TotalOrder.jay(cells(mu))
    else:
        _check_reading_order(order, mu)
    flat = {cell: k for k, cell in enumerate(cells(mu))}
    steps = [(flat[(i, j)], flat.get((i, j + 1), -1), flat.get((i - 1, j), -1))
             for i, j in order.cells]
    unbounded = mu.size + lam.size + 1
    # rows[v] is the current length of row v; rows[0] never binds
    rows = [unbounded] + [lam.part(v) for v in range(1, rank_bound + 1)]
    limit = [unbounded] + [unbounded if cap is None else cap.part(v)
                           for v in range(1, rank_bound + 1)]
    entries = [0] * len(flat)
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def place(k: int) -> None:
        if k == len(steps):
            found.append((tuple(entries), tuple(rows[1:])))
            return
        cell, right, above = steps[k]
        low = 1 if above < 0 else entries[above] + 1
        high = rank_bound if right < 0 else entries[right]
        for v in range(low, high + 1):
            length = rows[v] + 1
            if length > rows[v - 1] or length > limit[v]:
                continue
            rows[v] = length
            entries[cell] = v
            place(k + 1)
            rows[v] = length - 1

    place(0)
    return found


def lr_filter(inst: LRInstance, order: TotalOrder | None = None) -> tuple[Tableau, ...]:
    """Tableaux over mu whose reading adds onto lam box by box, ending at nu.

    The reading defaults to the row reading; any admissible order on the
    cells of mu may be passed instead.  The search fills mu along that
    reading and adds each box to lam as it is placed, so a filling that
    leaves the partitions or outgrows nu is cut at its first bad box and
    no failing tableau is ever built.  Output is in lexicographic
    row-major order, whatever the reading.
    """
    fillings = sorted(entries for entries, _ in _pruned_fillings(
        inst.mu, inst.lam, order, inst.rank_bound, inst.nu))
    bounds = list(accumulate(inst.mu.parts, initial=0))
    return tuple(Tableau(inst.mu, tuple(entries[a:b] for a, b in zip(bounds, bounds[1:])))
                 for entries in fillings)


def _is_instance_picture(pic: Picture, inst: LRInstance) -> bool:
    domain = TotalOrder.jay(cells(inst.mu))
    codomain = TotalOrder.jay(inst.skew_shape.cells())
    return is_picture(pic, domain, codomain)


def _in_lr_crystal(tab: Tableau, inst: LRInstance) -> bool:
    if tab.shape != inst.mu:
        return False
    if any(value > inst.rank_bound for row in tab.rows for value in row):
        return False
    return _read_and_add(tab, inst.lam)[1].final == inst.nu


def phi(pic: Picture, inst: LRInstance) -> Tableau:
    """Turn a picture into a tableau by taking the row coordinate of each image."""
    if not _is_instance_picture(pic, inst):
        raise NotAPicture("the pairing is not a picture for this instance")
    mapping = pic.mapping
    rows = tuple(tuple(mapping[(i, j)][0] for j in range(1, p + 1))
                 for i, p in enumerate(inst.mu.parts, start=1))
    return Tableau(inst.mu, rows)


def _psi_pairs(tab: Tableau, lam: Partition) -> tuple[tuple[Cell, Cell], ...]:
    pairs = []
    for i, row in enumerate(tab.rows, start=1):
        for j, value in enumerate(row, start=1):
            target = (value, lam.part(value) + p_function(tab, (i, j)))
            pairs.append(((i, j), target))
    return tuple(pairs)


def psi(tab: Tableau, inst: LRInstance) -> Picture:
    """Turn a filtered-crystal tableau into a picture.

    Each cell goes to the row named by its entry, in the column just past
    lam shifted by the entry's position from the right among its equals.
    """
    if not _in_lr_crystal(tab, inst):
        raise NotLRCrystal("the tableau is not in the filtered crystal for this instance")
    return Picture(_psi_pairs(tab, inst.lam))


@dataclass(frozen=True)
class BijectionReport:
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
    """Enumerate both sides, push everything through phi and psi, and compare.

    The report carries all three counts; bijection reads "ok" only when
    the maps are mutually inverse between the enumerated sets and the
    counts agree with the lattice oracle.
    """
    pics = enumerate_pictures(inst.mu, inst.skew_shape)
    tabs = lr_filter(inst)
    lattice = lr_coefficient_lattice(inst)
    picture_set = set(pics)
    crystal_set = set(tabs)
    counterexample = None
    for pic in pics:
        tab = phi(pic, inst)
        if tab not in crystal_set:
            counterexample = {"kind": "phi_image_outside_crystal",
                              "picture": pic.to_json()}
            break
        if psi(tab, inst) != pic:
            counterexample = {"kind": "psi_phi_not_identity",
                              "picture": pic.to_json()}
            break
    if counterexample is None:
        for tab in tabs:
            pic = psi(tab, inst)
            if pic not in picture_set:
                counterexample = {"kind": "psi_image_outside_pictures",
                                  "tableau": tab.to_json()}
                break
            if phi(pic, inst) != tab:
                counterexample = {"kind": "phi_psi_not_identity",
                                  "tableau": tab.to_json()}
                break
    if counterexample is None and not len(pics) == len(tabs) == lattice:
        counterexample = {"kind": "count_mismatch", "pictures": len(pics),
                          "crystals": len(tabs), "lattice": lattice}
    status = "ok" if counterexample is None else "fail"
    return BijectionReport(inst, len(pics), len(tabs), lattice, status, counterexample)


def _sends_reading_to_destinations(pic: Picture, tab: Tableau, inst: LRInstance) -> bool:
    """Reading tab row by row lands on nu, and pic sends each letter's source
    cell to the cell that letter's box landed in."""
    word, result = _read_and_add(tab, inst.lam)
    mapping = pic.mapping
    return result.final == inst.nu and all(
        mapping[source] == step.cell for source, step in zip(word.source_cells, result.steps))


def lemma_add_check(pic: Picture, inst: LRInstance) -> bool:
    """Source cells of the reading map to the matching addition destinations.

    Reads phi of the picture row by row, adds the word to lam, and checks
    that the picture sends each letter's source cell to the cell that
    letter's box landed in.
    """
    return _sends_reading_to_destinations(pic, phi(pic, inst), inst)


def lemma_destination_check(tab: Tableau, inst: LRInstance) -> bool:
    """psi sends each cell to the addition destination of the letter read there."""
    return _sends_reading_to_destinations(psi(tab, inst), tab, inst)


def decompose_tensor(lam: Partition, mu: Partition, rank_bound: int,
                     order: TotalOrder | None = None) -> dict[Partition, int]:
    """Multiplicity of each final shape over all tableaux with valid additions.

    Both input shapes must have strictly fewer rows than rank_bound;
    entries are at most rank_bound, so every final shape has at most
    rank_bound rows.  The reading defaults to the row reading.  Uses the
    crystal filter's pruned search with no target shape.
    """
    if len(lam) > rank_bound - 1 or len(mu) > rank_bound - 1:
        raise RankTooSmall(
            f"input shapes must have fewer than {rank_bound} rows")
    multiplicities = Counter(final for _, final in _pruned_fillings(
        mu, lam, order, rank_bound, None))
    ordered = sorted(multiplicities.items(), reverse=True)
    return {Partition(final): count for final, count in ordered}


def lr_coefficient_lattice(inst: LRInstance) -> int:
    """Count lattice-word fillings of the skew shape by direct backtracking.

    Fills the skew cells of nu over lam in reverse row-reading order with
    content mu, keeping rows weakly increasing, columns strictly
    increasing, and every prefix of the reading word lattice: at each
    point the letter k-1 must have appeared more often than k.  Works on
    raw part tuples only; independence from the tableau, crystal, and
    picture paths is the point of this oracle.
    """
    nu, lam, mu = inst.nu.parts, inst.lam.parts, inst.mu.parts
    fill_order: list[tuple[int, int]] = []
    for i in range(len(nu)):
        inner = lam[i] if i < len(lam) else 0
        for j in range(nu[i], inner, -1):
            fill_order.append((i, j))
    quota = list(mu)
    placed = [0] * (len(mu) + 1)
    filling: dict[tuple[int, int], int] = {}
    total = 0

    def extend(t: int) -> None:
        nonlocal total
        if t == len(fill_order):
            total += 1
            return
        i, j = fill_order[t]
        above = filling.get((i - 1, j))
        right = filling.get((i, j + 1))
        low = 1 if above is None else above + 1
        high = len(quota) if right is None else right
        for v in range(low, high + 1):
            if placed[v] >= quota[v - 1]:
                continue
            if v > 1 and placed[v - 1] <= placed[v]:
                continue
            placed[v] += 1
            filling[(i, j)] = v
            extend(t + 1)
            del filling[(i, j)]
            placed[v] -= 1

    extend(0)
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


@dataclass(frozen=True)
class ConjectureReport:
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
    whether every picture is hit.
    """
    tabs = lr_filter(inst, domain_order)
    pics = set(enumerate_pictures(inst.mu, inst.skew_shape,
                                  domain_order, codomain_order))
    images = [Picture(_psi_pairs(tab, inst.lam)) for tab in tabs]
    image_set = set(images)
    well_defined = all(is_picture(p, domain_order, codomain_order) for p in images)
    return ConjectureReport(
        inst, codomain_order, domain_order,
        crystals=len(tabs), pictures=len(pics),
        well_defined=well_defined,
        injective=len(image_set) == len(images),
        surjective=pics <= image_set,
    )


def instances_of_size(total: int) -> Iterator[LRInstance]:
    """All instances whose target shape has the given size, deterministically."""
    for nu in partitions_of(total):
        for lam in subpartitions(nu):
            for mu in partitions_of(total - lam.size):
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


@dataclass(frozen=True)
class SweepReport:
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
