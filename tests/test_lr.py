import time
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrpictures import cli, lr
from lrpictures.lr import (BijectionReport, ConjectureReport, LRInstance, NotAPicture,
                           NotLRCrystal, RankTooSmall, _landings, _psi,
                           conjecture_experiment, conjecture_rows, conjecture_sweep,
                           decompose_tensor, instances_of_size, iter_instances,
                           lemma_add_check, lemma_destination_check,
                           lr_coefficient_all_methods, lr_coefficient_lattice,
                           lr_filter, phi, psi, sweep, verify_bijection)
from lrpictures.pictures import (OrderCellMismatch, OrderNotAdmissible, Picture,
                                 SizeMismatch, TotalOrder, _picture_targets,
                                 enumerate_admissible_orders, enumerate_pictures, is_picture)
from lrpictures.shapes import (NotContained, Partition, add_sequence, cells, partitions_of,
                               subpartitions)
from lrpictures.tableaux import (ColumnNotStrictlyIncreasing, RowNotWeaklyIncreasing,
                                 Tableau, enumerate_ssyt, make_tableau, reading_by_order)


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


@pytest.mark.parametrize("bound", [1.5, 2.0, "3"])
def test_rank_bound_must_be_an_integer(bound):
    with pytest.raises(TypeError):
        LRInstance(Partition(()), Partition((1,)), Partition((1,)), rank_bound=bound)


def test_a_bool_rank_bound_becomes_an_int():
    assert type(LRInstance(Partition(()), Partition((1,)), Partition((1,)),
                           rank_bound=True).rank_bound) is int


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


def test_the_filtered_crystal_is_one_set_under_every_admissible_order():
    # every admissible reading is a crystal embedding, so the order only
    # changes the search order, never the set it finds
    pairs = 0
    for inst in iter_instances(8):
        base = set(lr_filter(inst))
        for order in enumerate_admissible_orders(cells(inst.mu)):
            assert set(lr_filter(inst, order)) == base
            pairs += 1
    assert pairs == 7413


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


@pytest.mark.parametrize("mu, nu, pairs, error", [
    # row 1 of mu would read 2 1
    ((2,), (1, 1), (((1, 1), (2, 1)), ((1, 2), (1, 1))), RowNotWeaklyIncreasing),
    # column 1 of mu would read 1 over 1
    ((1, 1), (2,), (((1, 1), (1, 1)), ((2, 1), (1, 2))), ColumnNotStrictlyIncreasing),
])
def test_phi_validates_its_tableau_even_past_the_picture_check(monkeypatch, mu, nu,
                                                                pairs, error):
    # phi is the map under verification, so its output goes through Tableau(...)
    monkeypatch.setattr(lr, "is_picture", lambda *args: True)
    inst = LRInstance(Partition(()), Partition(mu), Partition(nu))
    with pytest.raises(error):
        phi(Picture(pairs), inst)


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


def test_psi_rejects_an_entry_past_the_rows_of_nu():
    # semistandard over mu, but the letter 5 names no row of nu = (4, 3, 2, 1)
    past = make_tableau(Partition((3, 2)), ((1, 1, 1), (2, 5)))
    with pytest.raises(NotLRCrystal):
        psi(past, ref_instance())


def test_psi_walks_each_tableau_once(monkeypatch):
    walks = Counter()
    real_landings = lr._landings

    def counted(letters, inst):
        walks[letters] += 1
        return real_landings(letters, inst)
    monkeypatch.setattr(lr, "_landings", counted)
    inst = ref_instance()
    assert psi(REF_T, inst) == REF_PIC_FOR_T
    assert psi(REF_T2, inst) == REF_PIC_FOR_T2
    with pytest.raises(NotLRCrystal):
        psi(make_tableau(Partition((3, 2)), ((1, 1, 1), (2, 2))), inst)
    # one walk per tableau, each along its row reading
    assert walks == {(2, 2, 1, 4, 3): 1, (4, 2, 1, 3, 2): 1, (1, 1, 1, 2, 2): 1}


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


def test_lemma_add_check_fails_when_phi_leaves_the_crystal(monkeypatch):
    stray = make_tableau(Partition((3, 2)), ((1, 1, 1), (2, 2)))
    assert _psi(sum(stray.rows, ()), ref_instance()) is None
    monkeypatch.setattr(lr, "phi", lambda pic, inst: stray)
    assert not lemma_add_check(REF_PIC_FOR_T, ref_instance())
    assert not lemma_add_check(REF_PIC_FOR_T2, ref_instance())


def test_lemma_destination_check_fails_when_psi_swaps_two_targets(monkeypatch):
    real_psi = lr.psi

    def swapped(tab, inst):
        (a, x), (b, y), *rest = real_psi(tab, inst).pairs
        return Picture(((a, y), (b, x), *rest))
    monkeypatch.setattr(lr, "psi", swapped)
    assert not lemma_destination_check(REF_T, ref_instance())
    assert not lemma_destination_check(REF_T2, ref_instance())


small_targets = [nu for size in range(8) for nu in partitions_of(size)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_landings_match_adding_in_full(data):
    """_landings gives add_sequence's destinations when every addition is a
    partition and the last is nu, and None otherwise, letters past the rows
    of nu included."""
    nu = data.draw(st.sampled_from(small_targets))
    lam = data.draw(st.sampled_from(subpartitions(nu)))
    inst = LRInstance(lam, Partition((nu.size - lam.size,)), nu)
    rows = [i for i, _ in inst.skew_shape.cells()]
    letters = data.draw(st.permutations(rows) | st.lists(
        st.integers(1, len(nu) + 2), max_size=len(rows) + 1))
    result = add_sequence(lam, letters)
    landed = list(result.destinations()) if result.final == nu else None
    assert _landings(letters, inst) == landed


def test_verify_bijection_at_a_rank_bound_of_10_to_the_8():
    report = verify_bijection(LRInstance(Partition((1,)), Partition((1,)),
                                         Partition((2,)), 10 ** 8))
    assert report.ok and (report.pictures, report.crystals, report.lattice) == (1, 1, 1)


def test_decompose_two_boxes():
    table = decompose_tensor(Partition((1,)), Partition((1,)), 2)
    assert {k.parts: v for k, v in table.items()} == {(2,): 1, (1, 1): 1}


def test_decompose_at_a_large_rank_strips_the_padded_zeros():
    # every final shape is padded to rank_bound parts before it becomes a Partition
    table = decompose_tensor(Partition((1,)), Partition((1,)), 20_000)
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


def test_decompose_refuses_a_rank_bound_that_is_no_integer():
    # as LRInstance and verify_embedding do, whatever the shapes
    for lam, mu in ((Partition((1,)), Partition((1,))), (Partition((2, 1)), Partition((1, 1)))):
        for rank_bound in (3.0, 2.5, 10.0 ** 7):
            with pytest.raises(TypeError):
                decompose_tensor(lam, mu, rank_bound)


def test_decompose_multiplicities_match_the_oracle():
    lam, mu = Partition((2, 1)), Partition((2, 1))
    for nu, mult in decompose_tensor(lam, mu, 5).items():
        assert mult == lr_coefficient_lattice(LRInstance(lam, mu, nu))


def test_decompose_cost_does_not_grow_with_the_rank():
    # no entry can exceed len(lam) + |mu|, so a huge rank bound adds no shape and no work
    for lam in (p for size in range(4) for p in partitions_of(size)):
        for mu in (p for size in range(4) for p in partitions_of(size)):
            start = time.perf_counter()
            table = decompose_tensor(lam, mu, 10 ** 7)
            assert time.perf_counter() - start < 1.0
            assert list(table.items()) == list(
                decompose_tensor(lam, mu, len(lam) + mu.size + 1).items())
            oracle = {nu: c for nu in partitions_of(lam.size + mu.size)
                      if nu.contains(lam)
                      and (c := lr_coefficient_lattice(LRInstance(lam, mu, nu)))}
            assert table == oracle


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


def test_a_failing_instance_is_counted_and_kept_by_the_sweep(monkeypatch, capsys):
    target = LRInstance(Partition((1,)), Partition((1,)), Partition((1, 1)))
    real = lr.verify_bijection

    def failing_once(inst):
        report = real(inst)
        return report._replace(bijection="fail") if inst == target else report

    monkeypatch.setattr(lr, "verify_bijection", failing_once)
    report = sweep(3)
    assert [s.mismatches for s in report.per_size] == [0, 0, 1, 0]
    assert report.failures == (real(target)._replace(bijection="fail"),)
    assert report.ok is False
    assert report.to_json()["ok"] is False
    # the command reports the failure through the same sweep
    assert cli.run(["sweep", "--max-size", "3"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "instances=33 mismatches=1 status=fail"


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


def reference_experiment(inst, codomain_order, domain_order):
    """The experiment judging each psi image by is_picture, as it did before
    it tested membership in the pair's enumerated pictures."""
    tabs = lr_filter(inst, domain_order)
    pics = set(enumerate_pictures(inst.mu, inst.skew_shape, domain_order, codomain_order))
    images = [None if targets is None else Picture(tuple(zip(cells(inst.mu), targets)))
              for targets in (_psi(sum(tab.rows, ()), inst) for tab in tabs)]
    image_set = set(images)
    return ConjectureReport(
        inst, codomain_order, domain_order, crystals=len(tabs), pictures=len(pics),
        well_defined=all(p is not None and is_picture(Picture(p.pairs), domain_order,
                                                      codomain_order) for p in images),
        injective=len(image_set) == len(images), surjective=pics <= image_set)


def test_conjecture_experiment_matches_the_is_picture_reference():
    rows = conjecture_sweep(7)
    assert len(rows) == 3600
    for row in rows:
        assert row == reference_experiment(row.instance, row.codomain_order,
                                           row.domain_order)


def test_a_psi_image_missing_from_the_pictures_is_not_well_defined(monkeypatch):
    inst = ref_instance()
    real_targets = lr._picture_targets
    monkeypatch.setattr(lr, "_picture_targets", lambda *args: sorted(real_targets(*args))[1:])
    row = conjecture_experiment(inst, TotalOrder.jay(inst.skew_shape.cells()),
                                TotalOrder.jay(cells(inst.mu)))
    assert (row.crystals, row.pictures) == (2, 1)
    assert row.injective and row.surjective
    assert not row.well_defined and not row.holds


def test_a_filling_that_does_not_land_is_an_image_outside_the_pictures(monkeypatch):
    inst = ref_instance()
    # semistandard over mu, but its row reading lands on (6, 3, 1), not on nu
    stray = make_tableau(Partition((3, 2)), ((1, 1, 1), (2, 2)))
    real_fillings = lr._fillings
    monkeypatch.setattr(lr, "_fillings",
                        lambda inst, order=None: [*real_fillings(inst, order), entries(stray)])
    row = conjecture_experiment(inst, TotalOrder.jay(inst.skew_shape.cells()),
                                TotalOrder.jay(cells(inst.mu)))
    assert (row.crystals, row.pictures) == (3, 2)
    assert row.injective and row.surjective
    assert not row.well_defined and not row.holds


def test_bijection_report_shape_for_failures():
    # constructed directly: the math never produces one of these
    broken = BijectionReport(ref_instance(), 1, 2, 1, "fail",
                             {"kind": "count_mismatch"})
    assert not broken.ok
    assert broken.to_json()["bijection"] == "fail"


# Faults injected into the names verify_bijection looks up in lrpictures.lr,
# on the reference instance (c = 2).  The pictures come out as
# (REF_PIC_FOR_T2, REF_PIC_FOR_T) and the tableaux as (REF_T, REF_T2); the
# check reads each tableau as its row-major entries and each picture as its
# targets, the images of mu's cells in row-major order.

def entries(tab):
    return sum(tab.rows, ())


def injected_report(monkeypatch, **faults):
    for name, fake in faults.items():
        monkeypatch.setattr(lr, name, fake)
    report = verify_bijection(ref_instance())
    assert report.bijection == "fail"
    return report.counterexample


def test_a_tableau_missing_from_the_filter_is_named_by_its_picture(monkeypatch):
    assert injected_report(monkeypatch, _fillings=lambda inst: [entries(REF_T2)]) == {
        "kind": "phi_image_outside_crystal", "picture": REF_PIC_FOR_T.to_json()}


def test_a_constant_psi_fails_on_the_first_picture_it_misses(monkeypatch):
    assert injected_report(monkeypatch, _psi=lambda tab, inst: REF_PIC_FOR_T2.image()) == {
        "kind": "psi_phi_not_identity", "picture": REF_PIC_FOR_T.to_json()}


def test_a_psi_that_ignores_lam_fails_on_the_first_picture(monkeypatch):
    def blind(filling, inst):
        return _psi(filling, LRInstance(Partition(()), inst.mu, inst.mu))
    assert injected_report(monkeypatch, _psi=blind) == {
        "kind": "psi_phi_not_identity", "picture": REF_PIC_FOR_T2.to_json()}


def test_a_picture_missing_from_the_enumeration_is_named_by_its_tableau(monkeypatch):
    assert injected_report(monkeypatch,
                           _picture_targets=lambda mu, skew: (REF_PIC_FOR_T.image(),)) == {
        "kind": "psi_image_outside_pictures", "tableau": REF_T2.to_json()}


def test_an_extra_tableau_sent_to_a_reached_picture(monkeypatch):
    stray = make_tableau(Partition((3, 2)), ((1, 1, 1), (2, 2)))
    real_fillings, real_psi = lr._fillings, lr._psi
    assert injected_report(
        monkeypatch,
        _fillings=lambda inst: [*real_fillings(inst), entries(stray)],
        _psi=lambda filling, inst: (REF_PIC_FOR_T2.image() if filling == entries(stray)
                                    else real_psi(filling, inst))) == {
        "kind": "phi_psi_not_identity", "tableau": stray.to_json()}


def test_a_non_semistandard_phi_image_is_judged_by_membership(monkeypatch):
    # row 1 of mu = (3, 2) decreases, yet the row reading adds onto lam and lands on nu
    unsorted = (2, 2, 1, 4, 3)
    inst = ref_instance()
    assert _landings(inst._row_readings[0]._gather(unsorted), inst) is not None
    assert injected_report(monkeypatch, _phi=lambda targets, inst: unsorted) == {
        "kind": "phi_image_outside_crystal", "picture": REF_PIC_FOR_T2.to_json()}


@pytest.mark.parametrize("max_size", [9, pytest.param(12, marks=pytest.mark.slow)])
def test_every_enumerated_picture_is_a_picture(max_size):
    # verify_bijection runs no is_picture, so its verdict rests on this
    pictures = 0
    for inst in iter_instances(max_size):
        for pic in enumerate_pictures(inst.mu, inst.skew_shape):
            assert is_picture(pic, *inst._row_readings), (inst, pic)
            pictures += 1
    assert pictures == {9: 2793, 12: 22469}[max_size]


def test_a_lattice_count_off_by_one(monkeypatch):
    real_lattice = lr.lr_coefficient_lattice
    assert injected_report(monkeypatch,
                           lr_coefficient_lattice=lambda inst: real_lattice(inst) + 1) == {
        "kind": "count_mismatch", "pictures": 2, "crystals": 2, "lattice": 3}


def test_one_round_trip_per_picture(monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(lr, name)

        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in ("phi", "_phi", "psi", "_psi"):
        monkeypatch.setattr(lr, name, counted(name))
    stair = Partition((5, 4, 3, 2, 1))
    report = verify_bijection(LRInstance(stair, stair, Partition((8, 6, 5, 4, 3, 2, 1, 1))))
    assert report.ok and report.lattice == 176
    # the round trips run through the unchecked _phi and _psi, never the public maps
    assert calls == {"_phi": 176, "_psi": 176}


def test_the_checks_build_no_tableau_on_a_passing_instance(monkeypatch):
    built = Counter()
    real_init, real_unchecked = Tableau.__init__, Tableau._unchecked.__func__

    def init(self, *args):
        built["__init__"] += 1
        real_init(self, *args)

    def unchecked(cls, *args):
        built["_unchecked"] += 1
        return real_unchecked(cls, *args)

    monkeypatch.setattr(Tableau, "__init__", init)
    monkeypatch.setattr(Tableau, "_unchecked", classmethod(unchecked))
    stair = Partition((5, 4, 3, 2, 1))
    inst = LRInstance(stair, stair, Partition((8, 6, 5, 4, 3, 2, 1, 1)))
    domain, codomain = inst._row_readings
    assert verify_bijection(inst).ok
    assert conjecture_experiment(inst, codomain, domain).holds
    assert lr_coefficient_all_methods(inst) == (176, 176, 176)
    assert not built
    # the counters do see the tableaux the public API returns
    phi(enumerate_pictures(inst.mu, inst.skew_shape)[0], inst)
    lr_filter(inst)
    assert built == {"__init__": 1, "_unchecked": 176}


def test_the_checks_build_no_picture_on_a_passing_instance(monkeypatch):
    built = Counter()
    real_init, real_unchecked = Picture.__init__, Picture._unchecked.__func__

    def init(self, *args):
        built["__init__"] += 1
        real_init(self, *args)

    def unchecked(cls, *args):
        built["_unchecked"] += 1
        return real_unchecked(cls, *args)

    monkeypatch.setattr(Picture, "__init__", init)
    monkeypatch.setattr(Picture, "_unchecked", classmethod(unchecked))
    stair = Partition((5, 4, 3, 2, 1))
    inst = LRInstance(stair, stair, Partition((8, 6, 5, 4, 3, 2, 1, 1)))
    domain, codomain = inst._row_readings
    assert verify_bijection(inst).ok
    assert conjecture_experiment(inst, codomain, domain).holds
    assert lr_coefficient_all_methods(inst) == (176, 176, 176)
    assert not built
    # the counters do see the pictures the public API returns
    pics = enumerate_pictures(inst.mu, inst.skew_shape)
    psi(phi(pics[0], inst), inst)
    Picture(pics[0].pairs)
    assert built == {"__init__": 1, "_unchecked": 177}


def test_a_picture_yielded_twice_is_counted_twice(monkeypatch):
    real_targets = lr._picture_targets
    assert injected_report(
        monkeypatch,
        _picture_targets=lambda mu, skew: [*real_targets(mu, skew), REF_PIC_FOR_T.image()]) == {
        "kind": "count_mismatch", "pictures": 3, "crystals": 2, "lattice": 2}


def _checked_pictures(targets, inst):
    """The pictures of the target tuples, through the checked constructor,
    sorted by pair list as enumerate_pictures promises."""
    return tuple(sorted((Picture(tuple(zip(cells(inst.mu), t))) for t in targets),
                        key=lambda pic: pic.pairs))


def test_enumerate_pictures_is_the_sorted_stream_under_the_row_readings():
    for inst in iter_instances(8):
        stream = list(_picture_targets(*inst._row_readings))
        assert len(set(stream)) == len(stream)
        assert enumerate_pictures(inst.mu, inst.skew_shape) == _checked_pictures(stream, inst)


def test_enumerate_pictures_is_the_sorted_stream_under_every_order_pair():
    for inst in iter_instances(6):
        for codomain in enumerate_admissible_orders(inst.skew_shape.cells()):
            for domain in enumerate_admissible_orders(cells(inst.mu)):
                stream = list(_picture_targets(domain, codomain))
                assert len(set(stream)) == len(stream)
                assert (enumerate_pictures(inst.mu, inst.skew_shape, domain, codomain)
                        == _checked_pictures(stream, inst))


def test_conjecture_rows_list_each_sides_orders_once(monkeypatch):
    calls = Counter()
    real_orders = lr.enumerate_admissible_orders

    def counted(cell_set):
        cell_set = tuple(cell_set)
        calls[cell_set] += 1
        return real_orders(cell_set)
    monkeypatch.setattr(lr, "enumerate_admissible_orders", counted)
    inst = LRInstance(Partition(()), Partition((3, 3)), Partition((4, 2)))
    # 2 admissible orders on the cells of nu, 5 on those of mu
    assert len(conjecture_rows(inst)) == 2 * 5
    assert calls == {tuple(inst.skew_shape.cells()): 1, tuple(cells(inst.mu)): 1}


def _read_and_add(tab, lam, order=None):
    """Read tab along the order (the row reading by default) and add the word to lam."""
    if order is None:
        order = TotalOrder.jay(cells(tab.shape))
    word = reading_by_order(tab, order)
    return word, add_sequence(lam, word.letters)


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bijection_holds_on_random_instances_past_size_eight(data):
    # mu is drawn among the partitions of |nu| - |lam|, so many examples
    # have a nonzero coefficient
    nu = data.draw(st.integers(9, 14).flatmap(lambda n: st.sampled_from(partitions_of(n))))
    lam = data.draw(st.sampled_from(subpartitions(nu)))
    mu = data.draw(st.sampled_from(partitions_of(nu.size - lam.size)))
    report = verify_bijection(LRInstance(lam, mu, nu))
    assert report.ok, report.to_json()


def test_the_c1624_staircase_instance():
    stair = Partition((6, 5, 4, 3, 2, 1))
    report = verify_bijection(LRInstance(stair, stair, Partition((9, 8, 7, 6, 5, 4, 2, 1))))
    assert report.ok
    assert (report.pictures, report.crystals, report.lattice) == (1624, 1624, 1624)


def test_a_three_row_pieri_instance_with_150_cells():
    report = verify_bijection(LRInstance(Partition((100, 50)), Partition((150,)),
                                         Partition((180, 70, 50))))
    assert report.ok
    assert (report.pictures, report.crystals, report.lattice) == (1, 1, 1)


def test_psi_has_an_image_exactly_when_the_reading_lands_on_nu():
    """Every instance with |nu| <= 7 and every SSYT of mu with entries up to
    rank_bound + 1: _psi has an image exactly when reading and adding in
    full lands on nu.  On the crystal, test_unchecked checks its images
    against p_function."""
    groups = defaultdict(list)
    for inst in iter_instances(7):
        groups[inst.mu, inst.lam].append(inst)
    for (mu, lam), insts in groups.items():
        row_reading = TotalOrder.jay(cells(mu))
        rank = max(inst.rank_bound for inst in insts)
        for tab in enumerate_ssyt.__wrapped__(mu, rank + 1):
            final = _read_and_add(tab, lam, row_reading)[1].final
            top = max(map(max, tab.rows), default=0)
            for inst in insts:
                if top <= inst.rank_bound + 1:
                    assert (_psi(sum(tab.rows, ()), inst) is None) == (final != inst.nu)
