"""Checks that the three counts could fail together: closed-form Pieri and
dual Pieri coefficients past the exhaustive sweep, and the swap and
conjugation symmetries, which both maps treat asymmetrically.  The lattice
oracle's independence is checked too: its code loads nothing that the
picture, tableau or shape modules define.

References: Macdonald, Symmetric Functions and Hall Polynomials, I.5.16;
Fulton, Young Tableaux, section 2; Zelevinsky, A generalization of the
Littlewood-Richardson rule and the Robinson-Schensted-Knuth
correspondence, J. Algebra 69 (1981).
"""

import builtins
import dis
from functools import cache
from itertools import accumulate, permutations
from types import CodeType

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lrpictures import lr, pictures, shapes, tableaux
from lrpictures.lr import LRInstance, iter_instances, lr_coefficient_lattice, lr_filter
from lrpictures.pictures import (TotalOrder, enumerate_admissible_orders, enumerate_pictures,
                                 is_picture)
from lrpictures.shapes import Partition, SkewShape, cells, partitions_of, subpartitions


def conjugate(shape):
    """The transposed diagram: part j counts the parts of shape that are >= j."""
    return Partition(tuple(sum(1 for p in shape.parts if p >= j)
                           for j in range(1, shape.part(1) + 1)))


def is_horizontal_strip(nu, lam):
    """nu / lam has at most one box in each column."""
    return all(nu.part(i + 1) <= lam.part(i) for i in range(1, len(nu)))


def is_vertical_strip(nu, lam):
    """nu / lam has at most one box in each row."""
    return all(nu.part(i) - lam.part(i) <= 1 for i in range(1, len(nu) + 1))


@st.composite
def row_shapes(draw):
    """lam with at most two rows and nu containing it with at most two rows
    more, |nu / lam| between 1 and 150; about half of them are drawn as
    horizontal strips."""
    lam = Partition(tuple(sorted(draw(st.lists(st.integers(0, 60), max_size=2)),
                                 reverse=True)))
    strip = draw(st.booleans())
    parts = []
    for i in range(1, len(lam) + 3):
        if i == 1:
            room = 150
        elif strip:
            room = lam.part(i - 1) - lam.part(i)
        else:
            room = parts[-1] - lam.part(i)
        parts.append(lam.part(i) + draw(st.integers(0, room)))
    nu = Partition(tuple(parts))
    assume(0 < nu.size - lam.size <= 150)
    return lam, nu


def counts(inst):
    return (len(enumerate_pictures(inst.mu, inst.skew_shape)), len(lr_filter(inst)),
            lr_coefficient_lattice(inst))


# the largest cases: 150 cells, a horizontal strip and not one
LARGE = ((Partition((60, 30)), Partition((150, 60, 30))),
         (Partition((60, 30)), Partition((150, 70, 20))))


@settings(max_examples=25, deadline=None)
@given(row_shapes())
@example(LARGE[0])
@example(LARGE[1])
def test_pieri_rule_one_row(shapes):
    lam, nu = shapes
    inst = LRInstance(lam, Partition((nu.size - lam.size,)), nu)
    expected = 1 if is_horizontal_strip(nu, lam) else 0
    assert counts(inst) == (expected,) * 3


@settings(max_examples=25, deadline=None)
@given(row_shapes())
@example(LARGE[0])
@example(LARGE[1])
def test_dual_pieri_rule_one_column(shapes):
    lam, nu = map(conjugate, shapes)
    inst = LRInstance(lam, Partition((1,) * (nu.size - lam.size)), nu)
    expected = 1 if is_vertical_strip(nu, lam) else 0
    assert counts(inst) == (expected,) * 3


def test_swap_and_conjugation_symmetries_up_to_size_eight():
    pictures, crystals = {}, {}
    for inst in iter_instances(8):
        key = inst.lam, inst.mu, inst.nu
        pictures[key] = len(enumerate_pictures(inst.mu, inst.skew_shape))
        crystals[key] = len(lr_filter(inst))
    for table in (pictures, crystals):
        for (lam, mu, nu), c in table.items():
            # mu outside nu makes the swapped instance invalid and c zero
            assert table.get((mu, lam, nu), 0) == c
            assert table[conjugate(lam), conjugate(mu), conjugate(nu)] == c
    assert max(pictures.values()) == 2


def zelevinsky_pair_counts(largest, brute_force_through=0):
    """Check that the pictures from lam / mu onto nu / kappa number
    sum over tau of c(mu, tau; lam) * c(kappa, tau; nu), the scalar product
    of the two skew Schur functions, for every pair of skew shapes with n
    cells, n <= largest, each drawn from an outer shape of at most n + 3
    cells.  Through brute_force_through cells the pictures must also be
    every bijection that is_picture accepts.  Returns the pairs per n."""
    @cache
    def c(shape, tau):
        return lr_coefficient_lattice(LRInstance(shape.inner, tau, shape.outer))

    pairs = {}
    for n in range(1, largest + 1):
        # one shape per (outer, inner) pair, though two pairs can list the same cells
        family = [SkewShape(outer, inner) for size in range(n, n + 4)
                  for outer in partitions_of(size) for inner in subpartitions(outer)
                  if inner.size == size - n]
        pairs[n] = len(family) ** 2
        taus = partitions_of(n)
        for a in family:
            for b in family:
                found = enumerate_pictures(a, b)
                assert len(found) == sum(c(a, tau) * c(b, tau) for tau in taus), (a, b)
                if n > brute_force_through:
                    continue
                domain, codomain = TotalOrder.jay(a.cells()), TotalOrder.jay(b.cells())
                # sources row-major, as a picture's pairs are sorted
                bijections = (tuple(zip(a.cells(), images)) for images in permutations(b.cells()))
                accepted = {pairing for pairing in bijections
                            if is_picture(pairing, domain, codomain)}
                assert {picture.pairs for picture in found} == accepted, (a, b)
    return pairs


def test_pictures_between_skew_shapes_count_zelevinskys_identity():
    pairs = zelevinsky_pair_counts(4, brute_force_through=3)
    assert sum(pairs.values()) == 7210
    assert sum(pairs[n] for n in (1, 2, 3)) == 2721


@pytest.mark.slow
def test_zelevinskys_identity_on_every_skew_pair_up_to_six_cells():
    assert sum(zelevinsky_pair_counts(6).values()) == 38526


def loaded_globals(code):
    """The global names a code object and the code nested in it load."""
    names = {ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            names |= loaded_globals(const)
    return names


def test_the_lattice_oracle_loads_nothing_the_other_paths_define():
    others = (pictures, tableaux, shapes)
    names = set()
    for function in (lr_coefficient_lattice, lr._lattice_steps.__wrapped__):
        names |= loaded_globals(function.__code__)
    assert "_lattice_steps" in names
    for name in names:
        value = vars(lr)[name] if name in vars(lr) else getattr(builtins, name)
        owner = getattr(value, "__module__", None)
        assert owner not in {module.__name__ for module in others}, name
        if owner is None:
            assert all(vars(module).get(name) is not value for module in others), name


def dominates(mu, alpha):
    """Every prefix sum of mu is at least alpha's; the sizes are equal."""
    mu_sums = list(accumulate(mu)) + [sum(mu)] * len(alpha)
    return all(a <= m for a, m in zip(accumulate(alpha), mu_sums))


def test_gale_ryser_empties_both_sides_on_every_order_pair():
    """If mu does not dominate sorted(nu - lam), no order pair has a picture
    or a filtered tableau.

    Pictures: two cells x above y in one column of mu are componentwise
    comparable, so an admissible domain order lists x first and forward
    standardness lists x's image first.  Were both images in one row, the
    admissible codomain order would put x's image to the right of y's, and
    inverse standardness would list y before x.  So each column of mu
    meets mu'_j distinct rows of nu / lam, and the incidence of columns and
    rows is a 0-1 matrix with column sums mu' and row sums nu - lam; by
    Gale-Ryser one exists only when mu'' = mu dominates sorted(nu - lam).
    Tableaux: a filtered tableau lands on nu, so its content is nu - lam,
    and a semistandard tableau of shape mu with that content exists only
    under the same dominance (the Kostka number is then positive).
    """
    pairs = 0
    for inst in iter_instances(7):
        content = sorted((p - inst.lam.part(i) for i, p in enumerate(inst.nu, start=1)),
                         reverse=True)
        if dominates(inst.mu.parts, content):
            continue
        codomains = enumerate_admissible_orders(inst.skew_shape.cells())
        for domain in enumerate_admissible_orders(cells(inst.mu)):
            assert lr_filter(inst, domain) == ()
            for codomain in codomains:
                assert enumerate_pictures(inst.mu, inst.skew_shape, domain, codomain) == ()
                pairs += 1
    assert pairs == 1344
