"""End-to-end acceptance checks.

Each test prints exactly one summary line (run with -s to see them) and
then asserts the same condition, so a failing criterion is visible both
ways.  The exhaustive size-8 verification is computed once and shared;
the size-9 sweep runs on its own, beside it, and the size-12 sweep only
with pytest -m slow.
"""

import time

import pytest

import lrpictures as lp
from lrpictures.pictures import TotalOrder, enumerate_admissible_orders
from lrpictures.shapes import Partition, cells, partitions_of

IDENTITY_FAILURES = {"phi_image_outside_crystal", "psi_phi_not_identity",
                     "psi_image_outside_pictures", "phi_psi_not_identity"}


def _report(number: int, label: str, ok: bool) -> None:
    print(f"criterion {number}, {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed"


@pytest.fixture(scope="module")
def size8():
    return lp.sweep(8)


def test_criterion_01_reference_instance(size8):
    start = time.perf_counter()
    inst = lp.LRInstance(Partition((3, 1, 1)), Partition((3, 2)),
                         Partition((4, 3, 2, 1)))
    pic_a = lp.Picture((((1, 1), (1, 4)), ((1, 2), (2, 3)), ((1, 3), (2, 2)),
                        ((2, 1), (3, 2)), ((2, 2), (4, 1))))
    pic_b = lp.Picture((((1, 1), (1, 4)), ((1, 2), (2, 2)), ((1, 3), (4, 1)),
                        ((2, 1), (2, 3)), ((2, 2), (3, 2))))
    tab_a = lp.make_tableau(Partition((3, 2)), ((1, 2, 2), (3, 4)))
    tab_b = lp.make_tableau(Partition((3, 2)), ((1, 2, 4), (2, 3)))
    ok = (set(lp.enumerate_pictures(inst.mu, inst.skew_shape)) == {pic_a, pic_b}
          and set(lp.lr_filter(inst)) == {tab_a, tab_b}
          and lp.phi(pic_a, inst) == tab_a and lp.phi(pic_b, inst) == tab_b
          and lp.psi(tab_a, inst) == pic_a and lp.psi(tab_b, inst) == pic_b)
    elapsed = time.perf_counter() - start
    _report(1, "both maps on the five cell reference instance",
            ok and elapsed < 1.0)


def test_criterion_02_reading_words():
    tab = lp.make_tableau(Partition((4, 3, 1)), ((1, 2, 2, 3), (2, 3, 4), (5,)))
    ok = (lp.middle_eastern_reading(tab).letters == (3, 2, 2, 1, 4, 3, 2, 5)
          and lp.far_eastern_reading(tab).letters == (3, 2, 4, 2, 3, 1, 2, 5))
    _report(2, "row and column reading words", ok)


def test_criterion_03_box_addition_runs():
    good = lp.add_sequence(Partition((2, 1)), (3, 1, 2, 1, 2))
    bad = lp.add_sequence(Partition((2, 1)), (2, 2, 1, 3, 3))
    ok = (good.ok and good.final == Partition((4, 3, 1))
          and all(step.valid for step in good.steps)
          and not bad.ok and bad.failed_at == 2)
    _report(3, "box addition sequences", ok)


def test_criterion_04_triple_count_agreement(size8):
    count_failures = [f for f in size8.failures
                      if f.counterexample["kind"] == "count_mismatch"]
    ok = (size8.instances == 4136 and not count_failures
          and size8.seconds < 300.0)
    _report(4, "three counting methods agree through size 8", ok)


def test_criterion_05_mutual_inverses(size8):
    identity_failures = [f for f in size8.failures
                         if f.counterexample["kind"] in IDENTITY_FAILURES]
    ok = size8.instances == 4136 and not identity_failures
    _report(5, "maps invert each other through size 8", ok)


def test_criterion_11_sweep_through_size_9():
    report = lp.sweep(9)
    _report(11, "counts agree and maps invert each other through size 9",
            report.instances == 9381 and report.ok)


@pytest.mark.slow
def test_criterion_12_sweep_through_size_12():
    report = lp.sweep(12)
    _report(12, "counts agree and maps invert each other through size 12",
            report.instances == 94030 and report.ok
            and max(s.max_coefficient for s in report.per_size) == 4)


def test_criterion_06_filter_ignores_the_reading_order():
    checks = mismatches = 0
    for inst in lp.iter_instances(8):
        if inst.mu.size > 5:
            continue
        baseline = set(lp.lr_filter(inst))
        for order in enumerate_admissible_orders(cells(inst.mu)):
            checks += 1
            if set(lp.lr_filter(inst, order)) != baseline:
                mismatches += 1
    _report(6, "filter output independent of the reading order",
            checks == 2686 and mismatches == 0)


def test_criterion_07_dimension_identity():
    shapes = [p for total in range(5) for p in partitions_of(total)]
    ok = True
    for lam in shapes:
        for mu in shapes:
            for bound in range(1, 5):
                lhs = (len(lp.enumerate_ssyt(lam, bound))
                       * len(lp.enumerate_ssyt(mu, bound)))
                rhs = 0
                for nu in partitions_of(lam.size + mu.size):
                    if not nu.contains(lam):
                        continue
                    coefficient = lp.lr_coefficient_lattice(
                        lp.LRInstance(lam, mu, nu))
                    rhs += coefficient * len(lp.enumerate_ssyt(nu, bound))
                ok = ok and lhs == rhs
    _report(7, "tensor dimension identity", ok)


def test_criterion_08_reading_images_are_closed():
    checks = failures = 0
    for total in range(7):
        for shape in partitions_of(total):
            for order in enumerate_admissible_orders(cells(shape)):
                for bound in range(1, 5):
                    checks += 1
                    if not lp.verify_embedding(shape, bound, order).ok:
                        failures += 1
    _report(8, "operator closure of reading images",
            checks == 176 and failures == 0)


def test_criterion_09_destination_checks():
    pictures_checked = crystals_checked = failures = 0
    for inst in lp.iter_instances(7):
        for pic in lp.enumerate_pictures(inst.mu, inst.skew_shape):
            pictures_checked += 1
            if not lp.lemma_add_check(pic, inst):
                failures += 1
        for tab in lp.lr_filter(inst):
            crystals_checked += 1
            if not lp.lemma_destination_check(tab, inst):
                failures += 1
    ok = (failures == 0 and pictures_checked == crystals_checked
          and pictures_checked > 0)
    _report(9, "addition destination checks through size 7", ok)


def test_criterion_10_order_pair_experiment():
    rows = lp.conjecture_sweep(6)
    expected = sum(
        len(enumerate_admissible_orders(inst.skew_shape.cells()))
        * len(enumerate_admissible_orders(cells(inst.mu)))
        for inst in lp.iter_instances(6))
    row_reading_rows = [
        r for r in rows
        if r.codomain_order == TotalOrder.jay(r.instance.skew_shape.cells())
        and r.domain_order == TotalOrder.jay(cells(r.instance.mu))]
    table_complete = len(rows) == expected == 1198
    verdicts_present = all(
        r.to_json()["verdict"] in ("holds", "fails") for r in rows)
    row_reading_holds = (len(row_reading_rows) == 713
                         and all(r.holds for r in row_reading_rows))
    _report(10, "order pair experiment table through size 6",
            table_complete and verdicts_present and row_reading_holds)
