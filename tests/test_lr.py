from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrpictures.lr import (BijectionReport, LRInstance, NotAPicture, NotLRCrystal,
                           RankTooSmall, _read_and_add, conjecture_experiment, conjecture_sweep,
                           decompose_tensor, instances_of_size, iter_instances,
                           lemma_add_check, lemma_destination_check,
                           lr_coefficient_all_methods, lr_coefficient_lattice,
                           lr_filter, phi, psi, sweep, verify_bijection)
from lrpictures.pictures import (OrderCellMismatch, OrderNotAdmissible, Picture,
                                 SizeMismatch, TotalOrder, enumerate_admissible_orders,
                                 enumerate_pictures)
from lrpictures.shapes import NotContained, Partition, cells, partitions_of, subpartitions
from lrpictures.tableaux import enumerate_ssyt, make_tableau


def ref_instance():
    return LRInstance(Partition((3, 1, 1)), Partition((3, 2)),
                      Partition((4, 3, 2, 1)))


REF_T = make_tableau(Partition((3, 2)), ((1, 2, 2), (3, 4)))
REF_T2 = make_tableau(Partition((3, 2)), ((1, 2, 4), (2, 3)))
REF_PIC_FOR_T = Picture((((1, 1), (1, 4)), ((1, 2), (2, 3)), ((1, 3), (2, 2)),
                         ((2, 1), (3, 2)), ((2, 2), (4, 1))))
REF_PIC_FOR_T2 = Picture((((1, 1), (1, 4)), ((1, 2), (2, 2)), ((1, 3), (4, 1)),
                          ((2, 1), (2, 3)), ((2, 2), (3, 2))))


def test_instance_validation():
    with pytest.raises(SizeMismatch):
        LRInstance(Partition((2,)), Partition((1,)), Partition((2,)))
    with pytest.raises(NotContained):
        LRInstance(Partition((3,)), Partition((1,)), Partition((2, 2)))
    with pytest.raises(RankTooSmall):
        LRInstance(Partition((3, 1, 1)), Partition((3, 2)),
                   Partition((4, 3, 2, 1)), rank_bound=3)


def test_instance_defaults():
    inst = ref_instance()
    assert inst.rank_bound == 4
    assert LRInstance(Partition(()), Partition(()), Partition(())).rank_bound == 1
    assert inst.skew_shape.cells() == (
        (1, 4), (2, 2), (2, 3), (3, 2), (4, 1))
    assert inst.to_json() == {"lambda": [3, 1, 1], "mu": [3, 2],
                              "nu": [4, 3, 2, 1], "rank_bound": 4}


def test_filter_on_the_reference_instance():
    assert lr_filter(ref_instance()) == (REF_T, REF_T2)


def test_filter_with_empty_inner_shape():
    inst = LRInstance(Partition(()), Partition((2, 1)), Partition((2, 1)))
    assert [t.rows for t in lr_filter(inst)] == [((1, 1), (2,))]


def test_filter_accepts_any_admissible_order():
    inst = ref_instance()
    base = set(lr_filter(inst))
    for order in enumerate_admissible_orders(cells(inst.mu)):
        assert set(lr_filter(inst, order)) == base


def test_phi_on_the_reference_pictures():
    inst = ref_instance()
    assert phi(REF_PIC_FOR_T, inst) == REF_T
    assert phi(REF_PIC_FOR_T2, inst) == REF_T2


def test_phi_rejects_non_pictures():
    other = LRInstance(Partition(()), Partition((2, 1)), Partition((2, 1)))
    with pytest.raises(NotAPicture):
        phi(REF_PIC_FOR_T, other)
    broken = Picture((((1, 1), (1, 4)), ((1, 2), (2, 2)), ((1, 3), (2, 3)),
                      ((2, 1), (3, 2)), ((2, 2), (4, 1))))
    with pytest.raises(NotAPicture):
        phi(broken, ref_instance())


def test_psi_on_the_reference_tableaux():
    inst = ref_instance()
    assert psi(REF_T, inst) == REF_PIC_FOR_T
    assert psi(REF_T2, inst) == REF_PIC_FOR_T2


def test_psi_rejects_outsiders():
    inst = ref_instance()
    # semistandard but its additions land on the wrong target
    stray = make_tableau(Partition((3, 2)), ((1, 1, 1), (2, 2)))
    with pytest.raises(NotLRCrystal):
        psi(stray, inst)
    wrong_shape = make_tableau(Partition((2, 2)), ((1, 1), (2, 2)))
    with pytest.raises(NotLRCrystal):
        psi(wrong_shape, inst)


def test_maps_invert_each_other_on_small_instances():
    for inst in iter_instances(5):
        for pic in enumerate_pictures(inst.mu, inst.skew_shape):
            assert psi(phi(pic, inst), inst) == pic
        for tab in lr_filter(inst):
            assert phi(psi(tab, inst), inst) == tab


def test_lattice_oracle_values():
    assert lr_coefficient_lattice(ref_instance()) == 2
    assert lr_coefficient_lattice(
        LRInstance(Partition((2, 1)), Partition((2, 1)), Partition((3, 2, 1)))) == 2
    assert lr_coefficient_lattice(
        LRInstance(Partition((1,)), Partition((1,)), Partition((2,)))) == 1
    assert lr_coefficient_lattice(
        LRInstance(Partition((1,)), Partition((1,)), Partition((1, 1)))) == 1
    assert lr_coefficient_lattice(
        LRInstance(Partition(()), Partition(()), Partition(()))) == 1


def test_all_methods_agree_up_to_size_five():
    for inst in iter_instances(5):
        counts = lr_coefficient_all_methods(inst)
        assert counts.pictures == counts.crystals == counts.lattice


def test_bijection_report_on_the_reference_instance():
    report = verify_bijection(ref_instance())
    assert report.ok
    assert (report.pictures, report.crystals, report.lattice) == (2, 2, 2)
    assert report.to_json() == {
        "instance": {"lambda": [3, 1, 1], "mu": [3, 2], "nu": [4, 3, 2, 1],
                     "rank_bound": 4},
        "counts": {"pictures": 2, "crystals": 2, "lattice": 2},
        "bijection": "ok",
        "counterexample": None,
    }


def test_lemma_checks_on_the_reference_instance():
    inst = ref_instance()
    assert lemma_add_check(REF_PIC_FOR_T, inst)
    assert lemma_add_check(REF_PIC_FOR_T2, inst)
    assert lemma_destination_check(REF_T, inst)
    assert lemma_destination_check(REF_T2, inst)


def test_decompose_two_boxes():
    table = decompose_tensor(Partition((1,)), Partition((1,)), 2)
    assert {k.parts: v for k, v in table.items()} == {(2,): 1, (1, 1): 1}


def test_decompose_hook_squared():
    table = decompose_tensor(Partition((2, 1)), Partition((2, 1)), 5)
    assert {k.parts: v for k, v in table.items()} == {
        (4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2,
        (3, 1, 1, 1): 1, (2, 2, 2): 1, (2, 2, 1, 1): 1}
    listed = list(table)
    assert listed == sorted(listed, key=lambda p: p.parts, reverse=True)


def test_decompose_with_a_taller_inner_shape():
    table = decompose_tensor(Partition((1, 1)), Partition((1,)), 3)
    assert {k.parts: v for k, v in table.items()} == {(2, 1): 1, (1, 1, 1): 1}


def test_decompose_rank_checks():
    with pytest.raises(RankTooSmall):
        decompose_tensor(Partition((1,)), Partition((1,)), 1)
    with pytest.raises(RankTooSmall):
        decompose_tensor(Partition((1, 1, 1)), Partition((1,)), 3)


def test_decompose_multiplicities_match_the_oracle():
    lam, mu = Partition((2, 1)), Partition((2, 1))
    for nu, mult in decompose_tensor(lam, mu, 5).items():
        assert mult == lr_coefficient_lattice(LRInstance(lam, mu, nu))


def test_dimension_identity_two_boxes():
    lam = mu = Partition((1,))
    assert len(enumerate_ssyt(lam, 2)) * len(enumerate_ssyt(mu, 2)) == 4
    assert len(enumerate_ssyt(Partition((2,)), 2)) == 3
    assert len(enumerate_ssyt(Partition((1, 1)), 2)) == 1


def test_instance_generators():
    assert [(i.lam.parts, i.mu.parts, i.nu.parts)
            for i in instances_of_size(2)] == [
        ((2,), (), (2,)), ((1,), (1,), (2,)), ((), (2,), (2,)),
        ((), (1, 1), (2,)), ((1, 1), (), (1, 1)), ((1,), (1,), (1, 1)),
        ((), (2,), (1, 1)), ((), (1, 1), (1, 1))]
    assert sum(1 for _ in iter_instances(3)) == 33


def test_sweep_small():
    report = sweep(3)
    assert report.ok
    assert report.instances == 33
    assert [(s.size, s.instances, s.mismatches) for s in report.per_size] == [
        (0, 1, 0), (1, 2, 0), (2, 8, 0), (3, 22, 0)]
    assert all(s.max_coefficient == 1 for s in report.per_size)
    assert report.seconds >= 0
    payload = report.to_json()
    assert payload["ok"] is True
    assert "seconds" not in payload


def test_conjecture_experiment_row_reading_case():
    inst = ref_instance()
    jay_domain = TotalOrder.jay(cells(inst.mu))
    jay_codomain = TotalOrder.jay(inst.skew_shape.cells())
    row = conjecture_experiment(inst, jay_codomain, jay_domain)
    assert row.holds
    assert (row.crystals, row.pictures) == (2, 2)
    assert row.to_json()["verdict"] == "holds"


def test_conjecture_sweep_is_complete():
    rows = conjecture_sweep(2)
    expected = sum(
        len(enumerate_admissible_orders(inst.skew_shape.cells()))
        * len(enumerate_admissible_orders(cells(inst.mu)))
        for inst in iter_instances(2))
    assert len(rows) == expected
    assert all(isinstance(r.to_json()["verdict"], str) for r in rows)


def test_bijection_report_shape_for_failures():
    # constructed directly: the math never produces one of these
    broken = BijectionReport(ref_instance(), 1, 2, 1, "fail",
                             {"kind": "count_mismatch"})
    assert not broken.ok
    assert broken.to_json()["bijection"] == "fail"


def reference_filter(inst, order=None):
    """The generate-then-test filter: every SSYT of mu, read and added in full."""
    return tuple(tab for tab in enumerate_ssyt.__wrapped__(inst.mu, inst.rank_bound)
                 if _read_and_add(tab, inst.lam, order)[1].final == inst.nu)


def reference_decompose(lam, mu, rank_bound, order=None):
    """Final shapes of every valid addition over every SSYT of mu, largest first."""
    finals = Counter()
    for tab in enumerate_ssyt.__wrapped__(mu, rank_bound):
        final = _read_and_add(tab, lam, order)[1].final
        if final is not None:
            finals[final.parts] += 1
    return [(parts, finals[parts]) for parts in sorted(finals, reverse=True)]


def ssyt_count(shape, max_entry):
    """Hook-content formula for the number of SSYT with entries at most max_entry."""
    count = Fraction(1)
    for i, j in cells(shape):
        arm = shape.part(i) - j
        leg = sum(1 for k in range(i + 1, len(shape) + 1) if shape.part(k) >= j)
        count *= Fraction(max_entry + j - i, arm + leg + 1)
    return int(count)


def random_admissible_order(data, shape):
    """Draw a listing cell by cell among the cells whose right neighbour
    and upper neighbour are already listed."""
    remaining = set(cells(shape))
    listing = []
    while remaining:
        ready = sorted(c for c in remaining
                       if (c[0], c[1] + 1) not in remaining and (c[0] - 1, c[1]) not in remaining)
        cell = data.draw(st.sampled_from(ready))
        listing.append(cell)
        remaining.remove(cell)
    order = TotalOrder(tuple(listing))
    assert order.admissible
    return order


# Each example enumerates every SSYT of mu for the reference, so examples
# with too many are discarded; what is left still reaches |nu| = 11.
REFERENCE_SSYT_LIMIT = 3000


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pruned_filter_matches_generate_then_test(data):
    nu = data.draw(st.integers(8, 11).flatmap(lambda n: st.sampled_from(partitions_of(n))))
    lam = data.draw(st.sampled_from(subpartitions(nu)))
    mu = data.draw(st.sampled_from(partitions_of(nu.size - lam.size)))
    rank_bound = len(nu) + data.draw(st.integers(0, 1))
    assume(ssyt_count(mu, rank_bound) <= REFERENCE_SSYT_LIMIT)
    inst = LRInstance(lam, mu, nu, rank_bound)
    order = random_admissible_order(data, mu)
    tabs = lr_filter(inst, order)
    assert tabs == reference_filter(inst, order)
    assert len(tabs) == lr_coefficient_lattice(inst)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pruned_decompose_matches_generate_then_test(data):
    lam = data.draw(st.integers(0, 6).flatmap(lambda n: st.sampled_from(partitions_of(n))))
    mu = data.draw(st.integers(0, 6).flatmap(lambda n: st.sampled_from(partitions_of(n))))
    rank_bound = max(len(lam), len(mu)) + 1 + data.draw(st.integers(0, 1))
    assume(ssyt_count(mu, rank_bound) <= REFERENCE_SSYT_LIMIT)
    order = random_admissible_order(data, mu)
    table = decompose_tensor(lam, mu, rank_bound, order)
    assert [(k.parts, v) for k, v in table.items()] == reference_decompose(
        lam, mu, rank_bound, order)


def test_filter_on_the_heavy_staircase_instance():
    stair = Partition((5, 4, 3, 2, 1))
    inst = LRInstance(stair, stair, Partition((8, 6, 5, 4, 3, 2, 1, 1)))
    assert len(lr_filter(inst)) == lr_coefficient_lattice(inst) == 176


def test_orders_are_checked_before_the_search():
    inst = ref_instance()
    foreign = TotalOrder.jay(cells(Partition((2, 2, 1))))
    left_to_right = TotalOrder(cells(inst.mu))
    assert not left_to_right.admissible
    with pytest.raises(OrderCellMismatch):
        lr_filter(inst, foreign)
    with pytest.raises(OrderNotAdmissible):
        lr_filter(inst, left_to_right)
    with pytest.raises(OrderCellMismatch):
        decompose_tensor(inst.lam, inst.mu, 5, foreign)
    with pytest.raises(OrderNotAdmissible):
        decompose_tensor(inst.lam, inst.mu, 5, left_to_right)
