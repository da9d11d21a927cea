"""The searches keep each order's tables on the order object, built the
first time a search uses it.  A reused order must give what a fresh copy
of it gives, each order's tables must be built once, and an order built
for one shape must still be rejected for another.  A sweep builds each
skew shape's row reading, its tables and the lattice oracle's steps once.
The per-line before/after counts are checked against the pair loop they
replaced."""

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpictures import lr, pictures
from lrpictures.lr import (LRInstance, _psi, conjecture_experiment,
                           conjecture_rows, iter_instances, lr_coefficient_all_methods,
                           lr_filter, verify_bijection)
from lrpictures.pictures import (OrderCellMismatch, Picture, TotalOrder,
                                 _build_domain_tables, enumerate_admissible_orders,
                                 enumerate_pictures, is_picture)
from lrpictures.shapes import Partition, cells, partitions_of, skew


def reference_counts(sources):
    """The O(n^2) pair loop the counts were built with before they went per line."""
    before = [0] * len(sources)
    after = [0] * len(sources)
    for t, (i, j) in enumerate(sources):
        for a, b in sources[t + 1:]:
            if a <= i and b <= j:
                before[t] += 1
            elif a >= i and b >= j:
                after[t] += 1
    return tuple(before), tuple(after)


# small coordinates make many comparable pairs and shared rows and columns;
# huge ones make gaps and sparse cell sets
coordinates = st.one_of(st.integers(-3, 4), st.integers(-10**9, 10**9))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coordinates, coordinates), max_size=14, unique=True))
def test_per_line_counts_match_the_pair_loop_on_any_listing(listing):
    sources = TotalOrder(tuple(listing)).cells
    _, before, after = _build_domain_tables(sources)
    assert (before, after) == reference_counts(sources)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_per_line_counts_match_the_pair_loop_on_shuffled_shapes(data):
    parts = data.draw(st.lists(st.integers(1, 6), max_size=6))
    shape = Partition(tuple(sorted(parts, reverse=True)))
    sources = tuple(data.draw(st.permutations(cells(shape))))
    _, before, after = _build_domain_tables(sources)
    assert (before, after) == reference_counts(sources)


def fresh(order):
    return TotalOrder(order.cells)


def test_reused_orders_give_what_fresh_copies_give():
    for inst in iter_instances(6):
        for codomain in enumerate_admissible_orders(inst.skew_shape.cells()):
            for domain in enumerate_admissible_orders(cells(inst.mu)):
                # the first calls build the tables on the listed orders
                pics = enumerate_pictures(inst.mu, inst.skew_shape, domain, codomain)
                tabs = lr_filter(inst, domain)
                report = conjecture_experiment(inst, codomain, domain)
                new_domain, new_codomain = fresh(domain), fresh(codomain)
                assert "_domain_tables" not in vars(new_domain)
                assert pics == enumerate_pictures(inst.mu, inst.skew_shape,
                                                  new_domain, new_codomain)
                assert tabs == lr_filter(inst, new_domain)
                assert report == conjecture_experiment(inst, new_codomain, new_domain)
                images = [_psi(sum(tab.rows, ()), inst) for tab in tabs]
                pairings = [tuple(zip(cells(inst.mu), image)) for image in images
                            if image is not None]
                for pic in pairings + list(pics):
                    assert (is_picture(pic, domain, codomain)
                            == is_picture(pic, new_domain, new_codomain))


def test_conjecture_rows_build_each_orders_tables_once(monkeypatch):
    # a cache of its own, so that the orders come back without tables
    monkeypatch.setattr(pictures, "_admissible_orders",
                        lru_cache(maxsize=None)(pictures._admissible_orders.__wrapped__))
    builds = Counter()
    for name in ("_domain_tables", "_codomain_tables", "_filling_steps"):
        def counted(listing, *rest, name=name, build=getattr(pictures, "_build" + name)):
            builds[name, listing] += 1
            return build(listing, *rest)
        monkeypatch.setattr(pictures, "_build" + name, counted)
    # the skew cells are the cells of mu, so the same order objects serve both sides
    square = Partition((3, 3))
    inst = LRInstance(Partition(()), square, square)
    rows = conjecture_rows(inst)
    codomains = enumerate_admissible_orders(inst.skew_shape.cells())
    domains = enumerate_admissible_orders(cells(inst.mu))
    assert codomains == domains
    assert len(rows) == len(codomains) * len(domains) == 25
    assert builds == Counter(
        [("_codomain_tables", c.cells) for c in codomains]
        + [(name, d.cells) for d in domains
           for name in ("_domain_tables", "_filling_steps")])
    conjecture_rows(inst)
    assert max(builds.values()) == 1


def test_a_sweep_builds_each_skew_shapes_tables_once(monkeypatch):
    # caches of their own, so that every shape starts without an order or steps
    monkeypatch.setattr(pictures, "_skew_row_reading",
                        lru_cache(maxsize=None)(pictures._skew_row_reading.__wrapped__))
    reading = pictures._row_reading
    codomain_builds = Counter()

    def counted_codomain(listing, *rest, build=pictures._build_codomain_tables):
        codomain_builds[listing] += 1
        return build(listing, *rest)
    monkeypatch.setattr(pictures, "_build_codomain_tables", counted_codomain)
    lattice_builds = Counter()

    def counted_steps(nu, lam, build=lr._lattice_steps.__wrapped__):
        lattice_builds[nu, lam] += 1
        return build(nu, lam)
    monkeypatch.setattr(lr, "_lattice_steps", lru_cache(maxsize=None)(counted_steps))
    phi_codomains = []
    real_is_picture = lr.is_picture

    def recording_is_picture(pic, domain, codomain):
        phi_codomains.append(codomain)
        return real_is_picture(pic, domain, codomain)
    monkeypatch.setattr(lr, "is_picture", recording_is_picture)

    instances = list(iter_instances(6))
    for inst in instances:
        phi_codomains.clear()
        report = verify_bijection(inst)
        # verify_bijection judges phi's images by membership, with no is_picture
        assert report.ok and phi_codomains == []
        for pic in enumerate_pictures(inst.mu, inst.skew_shape):
            lr.phi(pic, inst)
        assert len(phi_codomains) == report.pictures
        # the public phi checks against the order enumerate_pictures built its tables on
        codomain = inst._row_readings[1]
        assert codomain is reading(inst.skew_shape)
        assert "_codomain_tables" in vars(codomain)
        assert all(order is codomain for order in phi_codomains)
        lr_coefficient_all_methods(inst)
    shapes = {inst.skew_shape for inst in instances}
    # distinct skew shapes may list the same cells, so count by shape, not by listing
    assert codomain_builds == Counter(TotalOrder.jay(shape.cells()).cells for shape in shapes)
    assert lattice_builds == Counter((shape.outer.parts, shape.inner.parts) for shape in shapes)


def test_a_partition_shares_its_row_reading_with_its_skew_shape_over_nothing():
    empty = Partition(())
    for shape in (p for total in range(7) for p in partitions_of(total)):
        assert pictures._row_reading(shape) is pictures._row_reading(skew(shape, empty))
        # so an instance with lam empty builds one order's tables for both sides
        domain, codomain = LRInstance(empty, shape, shape)._row_readings
        assert domain is codomain


def test_an_order_with_tables_of_one_shape_is_rejected_for_another():
    two_one = Partition((2, 1))
    order = TotalOrder.jay(cells(two_one))
    inst = LRInstance(Partition(()), two_one, two_one)
    enumerate_pictures(two_one, inst.skew_shape, order, order)
    lr_filter(inst, order)
    assert {"_key", "_domain_tables", "_codomain_tables", "_filling_steps"} <= set(vars(order))
    row = Partition((3,))
    with pytest.raises(OrderCellMismatch):
        enumerate_pictures(row, skew(row, Partition(())), domain_order=order)
    with pytest.raises(OrderCellMismatch):
        enumerate_pictures(row, skew(row, Partition(())), codomain_order=order)
    with pytest.raises(OrderCellMismatch):
        lr_filter(LRInstance(Partition(()), row, row), order)
    straight = Picture((((1, 1), (1, 1)), ((1, 2), (1, 2)), ((1, 3), (1, 3))))
    assert not is_picture(straight, order, TotalOrder.jay(cells(row)))
    assert not is_picture(straight, TotalOrder.jay(cells(row)), order)
